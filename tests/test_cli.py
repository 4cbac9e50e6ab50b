import json
from pathlib import Path

import numpy as np
import pytest

import parastab as ps
from parastab.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    load_config,
    main,
)

from conftest import make_problem, make_spectrum

BASE = """
[problem]
grid_points = {m}
nonlinearity = fisher
parameters = 15.0

[synthesis]
target_rate = 1.0
gammas = 2.0
sampling_period = 0.2

[simulation]
horizon = {horizon}
initial = random:42
amplitude = {amplitude}
norm = {norm}
dynamics = {dynamics}

[output]
directory = {out}
formats = csv,json,svg

{extra}
"""


def write_config(tmp_path, name="run.ini", **kw):
    defaults = dict(
        m=64, horizon=12, amplitude=0.01, norm="sobolev",
        dynamics="semilinear", out=str(tmp_path / "out"), extra="",
    )
    defaults.update(kw)
    path = tmp_path / name
    path.write_text(BASE.format(**defaults))
    return str(path)


def test_load_config_roundtrip(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.spec.grid_points == 64
    assert cfg.spec.gammas == (2.0,)
    assert cfg.spec.nonlinearity.kind == "fisher"
    assert cfg.dynamics == "semilinear"
    echo = cfg.echo()
    assert echo["synthesis"]["sampling_period"] == 0.2


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, extra="[sweep]\nTT = 1.0\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write_config(tmp_path, extra="[plotting]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(path)


def test_missing_file_exits_2(tmp_path):
    assert main(["synthesize", "--config", str(tmp_path / "nope.ini")]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "line, typo, bad",
    [
        ("norm = sobolev", "norm = L2", "L2"),
        ("formats = csv,json,svg", "formats = csv,jsno,svg", "jsno"),
    ],
    ids=["norm", "formats"],
)
def test_bad_norm_or_format_exits_2_before_any_output(tmp_path, line, typo, bad):
    out = tmp_path / "out"
    text = Path(write_config(tmp_path)).read_text()
    text = text.replace("initial = random:42", "initial = mode:1").replace(line, typo)
    (tmp_path / "run.ini").write_text(text)
    with pytest.raises(ConfigError, match=bad):
        load_config(tmp_path / "run.ini")
    assert main(["simulate", "--config", str(tmp_path / "run.ini")]) == EXIT_CONFIG
    assert not out.exists() or not any(out.iterdir())


def test_synthesize_and_verify_share_the_algebraic_checks(tmp_path):
    cfg = write_config(tmp_path, extra="[verify]\ncontraction_slack = 1e-6\n")
    records = {}
    for command in ("synthesize", "verify"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
        checks = json.loads((out / "verification.json").read_text())["checks"]
        records[command] = {check["name"]: check for check in checks}
    names = ["resolution-identity", "recursion-identity", "contraction-bound"]
    assert list(records["synthesize"]) == names
    assert records["synthesize"]["contraction-bound"]["tolerance"] == 1e-6
    for name in names:
        assert records["synthesize"][name] == records["verify"][name]


def test_synthesize_writes_artifacts(tmp_path):
    out = tmp_path / "syn"
    code = main(["synthesize", "--config", write_config(tmp_path), "--out", str(out)])
    assert code == EXIT_OK
    gains = json.loads((out / "gains.json").read_text())
    assert gains["T"] == 0.2
    assert len(gains["gain_row"]) == 1
    assert (out / "spectrum.csv").read_text().startswith("index,lambda,boundary_flux")
    verification = json.loads((out / "verification.json").read_text())
    assert verification["passed"] is True


def test_fisher_parameter_defaults_to_15(tmp_path):
    explicit = write_config(tmp_path, name="explicit.ini")
    implicit = tmp_path / "implicit.ini"
    implicit.write_text(Path(explicit).read_text().replace("parameters = 15.0\n", ""))
    assert load_config(implicit).spec.nonlinearity.parameters == (15.0,)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["synthesize", "--config", explicit, "--out", str(out1)]) == EXIT_OK
    assert main(["synthesize", "--config", str(implicit), "--out", str(out2)]) == EXIT_OK
    for name in ("gains.json", "spectrum.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    two = tmp_path / "two.ini"
    two.write_text(Path(explicit).read_text().replace("= 15.0\n", "= 15.0,2.0\n"))
    assert main(["synthesize", "--config", str(two)]) == EXIT_CONFIG


def test_readme_config_block_is_the_defaults(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    documented = tmp_path / "readme.ini"
    documented.write_text(block)
    empty = tmp_path / "empty.ini"
    empty.write_text("")
    cfg = load_config(documented)
    assert cfg.sweep_periods == (0.05, 0.2, 1.0, 2.0)
    assert cfg.sweep_gammas == ((2.0,), (4.0,))
    assert cfg.sweep_amplitudes == (0.0, 0.01, 1.0, 50.0)
    # every other value shown is the default; the sweep axis lists have none
    echo, defaults = cfg.echo(), load_config(empty).echo()
    for key in ("T", "gamma", "amplitude"):
        assert defaults["sweep"].pop(key) == []
        echo["sweep"].pop(key)
    assert echo == defaults


def test_synthesize_deterministic_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = write_config(tmp_path)
    assert main(["synthesize", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["synthesize", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    for name in ("gains.json", "spectrum.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_decaying_run(tmp_path):
    out = tmp_path / "sim"
    cfg = write_config(tmp_path)
    code = main(["simulate", "--config", cfg, "--out", str(out), "--expect-decay"])
    assert code == EXIT_OK
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,l2_norm,sob_norm,u_held"
    meta = json.loads((out / "run.json").read_text())
    assert meta["blowup_time"] is None
    assert meta["fitted_rate"] > 0.9
    assert (out / "lognorm.svg").read_text().startswith("<svg")


def test_simulate_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["simulate", "--config", cfg, "--out", str(out1)])
    main(["simulate", "--config", cfg, "--out", str(out2)])
    for name in ("trajectory.csv", "run.json", "lognorm.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_open_loop_flag(tmp_path):
    out = tmp_path / "sim"
    cfg = write_config(tmp_path, dynamics="linear", amplitude="1.0", norm="l2")
    code = main(["simulate", "--config", cfg, "--out", str(out), "--open-loop"])
    assert code == EXIT_OK
    baseline = (out / "open_loop.csv").read_text().strip().split("\n")
    first = float(baseline[1].split(",")[1])
    last = float(baseline[-1].split(",")[1])
    assert last > first  # uncontrolled growth recorded, exit still 0


def test_simulate_blowup_exit_codes(tmp_path):
    cfg = write_config(tmp_path, amplitude="50.0")
    out = tmp_path / "blow"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    meta = json.loads((out / "run.json").read_text())
    assert meta["blowup_time"] is not None
    assert (
        main(["simulate", "--config", cfg, "--out", str(out), "--expect-decay"])
        == EXIT_BLOWUP
    )


def test_simulate_zero_initial_state_flat_norms(tmp_path):
    cfg = write_config(tmp_path, name="zero.ini", amplitude="0.0")
    out = tmp_path / "zero"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    norms = [float(line.split(",")[1]) for line in lines[1:]]
    assert norms and all(v == 0.0 for v in norms)


def test_verify_passes_and_fails_on_tight_override(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "ver"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "verification.json").read_text())
    assert report["passed"] is True
    # an override below the exact-arithmetic floor must fail and exit 5
    cfg_tight = write_config(
        tmp_path, name="tight.ini", extra="[verify]\nrecursion_identity = 1e-60\n"
    )
    assert main(["verify", "--config", cfg_tight, "--out", str(out)]) == EXIT_VERIFY


def test_verify_no_unstable_modes_passes_with_warning(tmp_path):
    path = tmp_path / "stable.ini"
    path.write_text(
        "[problem]\ngrid_points = 64\nnonlinearity = linear\nparameters = -10.0\n"
        "[synthesis]\ntarget_rate = 1.0\nsampling_period = 0.2\n"
        f"[output]\ndirectory = {tmp_path / 'ver0'}\n"
    )
    with pytest.warns(UserWarning):
        code = main(["verify", "--config", str(path)])
    assert code == EXIT_OK


def test_gamma_ordering_violation_exits_2(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[problem]\ngrid_points = 64\nnonlinearity = fisher\nparameters = 15.0\n"
        "[synthesis]\ntarget_rate = 1.0\ngammas = 2.0,1.5\nsampling_period = 0.2\n"
    )
    assert main(["synthesize", "--config", str(path)]) == EXIT_CONFIG


def test_zero_period_exits_2(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[problem]\ngrid_points = 64\nnonlinearity = fisher\nparameters = 15.0\n"
        "[synthesis]\ntarget_rate = 1.0\nsampling_period = 0.0\n"
    )
    assert main(["synthesize", "--config", str(path)]) == EXIT_CONFIG


def test_gamma_arity_mismatch_exits_2(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[problem]\ngrid_points = 64\nnonlinearity = fisher\nparameters = 95.0\n"
        "[synthesis]\ntarget_rate = 1.0\ngammas = 2.0\nsampling_period = 0.2\n"
    )
    # spectrum.csv is written before the arity check fails
    out = tmp_path / "out"
    assert main(["synthesize", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG


def test_rho_on_eigenvalue_exits_2(tmp_path):
    prob = make_problem(a=15.0, grid_points=64)
    spectrum = make_spectrum(prob)
    rho = float(spectrum.lambdas[1])
    path = tmp_path / "rho.ini"
    path.write_text(
        "[problem]\ngrid_points = 64\nnonlinearity = fisher\nparameters = 15.0\n"
        f"[synthesis]\ntarget_rate = {rho:.17g}\ngammas = auto\nsampling_period = 0.2\n"
    )
    assert main(["synthesize", "--config", str(path)]) == EXIT_CONFIG


def test_sweep_T_axis(tmp_path):
    cfg = write_config(
        tmp_path, extra="[sweep]\nT = 0.05,0.2\ntotal_time = 4.0\nseed = 3\n"
    )
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", "T"]) == EXIT_OK
    lines = (out / "sweep_T.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    rates = [float(line.split(",")[4]) for line in lines[1:]]
    assert all(r > 0.0 for r in rates)
    assert (out / "sweep_T.svg").exists()


def test_sweep_gamma_axis(tmp_path):
    cfg = write_config(
        tmp_path, extra="[sweep]\ngamma = 2.0;4.0\ntotal_time = 4.0\n"
    )
    out = tmp_path / "swg"
    assert (
        main(["sweep", "--config", cfg, "--out", str(out), "--axis", "gamma"])
        == EXIT_OK
    )
    lines = (out / "sweep_gamma.csv").read_text().strip().split("\n")
    assert [float(line.split(",")[0]) for line in lines[1:]] == [2.0, 4.0]


def test_sweep_amplitude_axis(tmp_path):
    cfg = write_config(
        tmp_path,
        horizon=20,
        extra="[sweep]\namplitude = 0.0,0.01,50.0\nbisect_iters = 0\nseed = 42\n",
    )
    out = tmp_path / "swa"
    assert (
        main(["sweep", "--config", cfg, "--out", str(out), "--axis", "amplitude"])
        == EXIT_OK
    )
    text = (out / "sweep_amplitude.csv").read_text()
    assert "empirical_basin_edge" in text


def test_sweep_empty_axis_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--axis", "T"]) == EXIT_CONFIG


def test_initial_mode_and_file_paths(tmp_path):
    # mode:2 is annihilated by the feedback: the held controls stay ~0
    text = BASE.format(
        m=64, horizon=4, amplitude=1.0, norm="l2", dynamics="linear",
        out=str(tmp_path / "o"), extra="",
    ).replace("initial = random:42", "initial = mode:2")
    (tmp_path / "mode.ini").write_text(text)
    out = tmp_path / "mode_out"
    assert main(["simulate", "--config", str(tmp_path / "mode.ini"), "--out", str(out)]) == EXIT_OK
    held = [float(line.split(",")[3]) for line in
            (out / "trajectory.csv").read_text().strip().split("\n")[1:]]
    assert max(abs(u) for u in held) < 1e-8

    state = np.linspace(0.0, 1.0, 64)
    np.savetxt(tmp_path / "state.txt", state)
    text2 = text.replace("initial = mode:2", f"initial = file:{tmp_path / 'state.txt'}")
    (tmp_path / "file.ini").write_text(text2)
    out2 = tmp_path / "file_out"
    assert main(["simulate", "--config", str(tmp_path / "file.ini"), "--out", str(out2)]) == EXIT_OK


def test_equilibrium_from_file(tmp_path):
    ye = np.zeros(66)  # grid_points + 2 nodes
    np.savetxt(tmp_path / "ye.txt", ye)
    text = BASE.format(
        m=64, horizon=3, amplitude=0.01, norm="l2", dynamics="semilinear",
        out=str(tmp_path / "o"), extra="",
    ).replace("parameters = 15.0", f"parameters = 15.0\nequilibrium = file:{tmp_path / 'ye.txt'}")
    (tmp_path / "eq.ini").write_text(text)
    assert main(["simulate", "--config", str(tmp_path / "eq.ini"),
                 "--out", str(tmp_path / "eq_out")]) == EXIT_OK


def test_optional_matrix_dumps(tmp_path):
    cfg = write_config(tmp_path, extra="")
    text = (tmp_path / "run.ini").read_text().replace(
        "formats = csv,json,svg", "formats = csv,json,matrices,modes,states"
    )
    (tmp_path / "run.ini").write_text(text)
    out = tmp_path / "dumps"
    assert main(["synthesize", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "gain_matrices.csv").exists()
    assert (out / "modes.csv").exists()
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "states.csv").exists()


def test_refine_doubles_grid(tmp_path):
    cfg = load_config(write_config(tmp_path))
    base_m = cfg.spec.grid_points
    out = tmp_path / "ref"
    code = main(
        ["synthesize", "--config", write_config(tmp_path), "--out", str(out), "--refine"]
    )
    assert code == EXIT_OK
    spectrum_lines = (out / "spectrum.csv").read_text().strip().split("\n")
    assert len(spectrum_lines) == 2 * base_m + 1
