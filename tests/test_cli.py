import csv
import dataclasses
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

import parastab as ps
from parastab import analysis, cli, model, spectral
from parastab.analysis import DEFAULT_VERIFY_TOLERANCES, _RECORDS
from parastab.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SINGULAR,
    EXIT_VERIFY,
    ConfigError,
    RunConfig,
    _OPTIONS,
    _SCHEMA,
    load_config,
    main,
)

from conftest import count_builds, make_problem, make_spectrum

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
        ("norm = sobolev", "norm = sobolev\nopen_loop_horizon = 0", "open_loop_horizon"),
        ("formats = csv,json,svg", "formats = csv\nsnapshot_stride = -3", "snapshot_stride"),
        ("nonlinearity = fisher\nparameters = 15.0",
         "nonlinearity = cubic\nparameters = 3.0, 4.0", "cubic nonlinearity takes no"),
        ("nonlinearity = fisher\nparameters = 15.0",
         "nonlinearity = linear\nparameters = 15.0, 99.0", "linear nonlinearity takes at most"),
        ("formats = csv,json,svg", "formats = csv\n[sweep]\ntotal_time = -5", "total_time"),
        ("formats = csv,json,svg", "formats = csv\n[sweep]\ntotal_time = 0", "total_time"),
        ("formats = csv,json,svg", "formats = csv\n[sweep]\nbisect_iters = -3", "bisect_iters"),
        ("amplitude = 0.01", "amplitude = -1", "amplitude"),
        ("amplitude = 0.01", "amplitude = nan", "amplitude"),
        ("formats = csv,json,svg", "formats = svgg,csv,jsno", r"format\(s\) jsno, svgg; "),
        ("formats = csv,json,svg", "formats = csv\n[sweep]\namplitude = -0.5,0.01",
         r"\[sweep\] amplitude entries must be 0 or positive and finite, got -0.5$"),
        ("formats = csv,json,svg", "formats = csv\n[sweep]\namplitude = 0.01,nan,-0.5",
         r"\[sweep\] amplitude .*, got -0.5, nan$"),
        ("formats = csv,json,svg", "formats = csv\n[sweep]\nT = 0.2,0", r"\[sweep\] T"),
        ("formats = csv,json,svg", "formats = csv\n[sweep]\nT = nan", r"\[sweep\] T"),
        ("amplitude = 0.01", "amplitude = inf", "amplitude must .* finite, got inf$"),
        ("formats = csv,json,svg", "formats = csv\n[sweep]\namplitude = 0.0,inf",
         r"\[sweep\] amplitude .* finite, got inf$"),
        ("formats = csv,json,svg", "formats = csv\n[sweep]\ntotal_time = inf",
         r"\[sweep\] total_time must be finite and positive, got inf$"),
        ("formats = csv,json,svg", "formats = csv\n[sweep]\nT = 0.2,inf",
         r"\[sweep\] T .*, got inf$"),
        ("norm = sobolev", "norm = l2\nsobolev_order = nan", r"sobolev_order .*, got nan$"),
        ("norm = sobolev", "norm = sobolev\nsobolev_order = 1.0", r"sobolev_order .*, got 1.0$"),
        ("norm = sobolev", "norm = sobolev\nsobolev_order = -0.25", "sobolev_order"),
        ("horizon = 12", "horizon = 0", r"^\[simulation\] horizon must be at least 1, got 0$"),
        ("formats = csv,json,svg", "formats = csv\n[verify]\nhorizon = 0",
         r"^\[verify\] horizon must be at least 1, got 0$"),
        ("formats = csv,json,svg", "formats = csv\n[verify]\nlift_identity = nan",
         r"^\[verify\] lift_identity must be finite and 0 or positive, got nan$"),
        ("formats = csv,json,svg", "formats = csv\n[verify]\ntrajectory_recursion = inf",
         r"^\[verify\] trajectory_recursion must be finite .*, got inf$"),
        ("formats = csv,json,svg", "formats = csv\n[verify]\nhalf_identity = -1",
         r"^\[verify\] half_identity must be finite and 0 or positive, got -1.0$"),
        ("formats = csv,json,svg", "formats = csv\n[verify]\nlimit_ratio_low = 3.0",
         r"^\[verify\] limit_ratio_low = 3.0 is above \[verify\] limit_ratio_high = 2.4$"),
        ("formats = csv,json,svg",
         "formats = csv\n[verify]\nlimit_ratio_low = 1.9\nlimit_ratio_high = 1.8",
         r"^\[verify\] limit_ratio_low = 1.9 is above \[verify\] limit_ratio_high = 1.8$"),
        ("formats = csv,json,svg", "formats = csv\n[verify]\nseed = -1",
         r"^\[verify\] seed must be 0 or positive, got -1$"),
        ("formats = csv,json,svg", "formats = csv\n[sweep]\nseed = -1",
         r"^\[sweep\] seed must be 0 or positive, got -1$"),
        ("initial = mode:1", "initial = bogus",
         r"^\[simulation\] initial must be .*, got 'bogus'$"),
        ("initial = mode:1", "initial = random:x", r"^\[simulation\] initial .*'random:x'$"),
        ("initial = mode:1", "initial = random:-1", r"^\[simulation\] initial .*'random:-1'$"),
        ("initial = mode:1", "initial = mode:0", r"^\[simulation\] initial .*'mode:0'$"),
    ],
    ids=["norm", "formats", "open-loop-horizon", "snapshot-stride", "cubic-parameters",
         "linear-parameters", "negative-total-time", "zero-total-time", "bisect-iters",
         "negative-amplitude", "nan-amplitude", "two-formats", "negative-sweep-amplitude",
         "nan-sweep-amplitude", "zero-sweep-period", "nan-sweep-period", "inf-amplitude",
         "inf-sweep-amplitude", "inf-total-time", "inf-sweep-period", "nan-sobolev-order",
         "unit-sobolev-order", "negative-sobolev-order", "zero-horizon", "zero-verify-horizon",
         "nan-tolerance", "inf-tolerance", "negative-tolerance", "limit-window-above-default",
         "limit-window-inverted", "negative-verify-seed", "negative-sweep-seed", "bogus-initial",
         "unparsable-random-seed", "negative-random-seed", "mode-0"],
)
def test_bad_norm_or_format_exits_2_before_any_output(tmp_path, line, typo, bad):
    out = tmp_path / "out"
    text = Path(write_config(tmp_path)).read_text()
    text = text.replace("initial = random:42", "initial = mode:1").replace(line, typo)
    (tmp_path / "run.ini").write_text(text)
    with pytest.raises(ConfigError, match=bad):
        load_config(tmp_path / "run.ini")
    for command in (["synthesize"], ["simulate", "--open-loop"], ["verify"], ["sweep"]):
        assert main([*command, "--config", str(tmp_path / "run.ini")]) == EXIT_CONFIG
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "line, typo, key",
    [
        ("grid_points = 64", "grid_points = abc", "[problem] grid_points"),
        ("parameters = 15.0", "parameters = 15.0,a", "[problem] parameters"),
        ("parameters = 15.0", "parameters = 15.0\nequilibrium = file:{missing}",
         "[problem] equilibrium"),
        ("gammas = 2.0", "gammas = two", "[synthesis] gammas"),
        ("horizon = 12", "horizon = 1.5", "[simulation] horizon"),
        ("formats = csv,json,svg", "formats = csv\n[verify]\nlift_identity = x",
         "[verify] lift_identity"),
        ("formats = csv,json,svg", "formats = csv\n[sweep]\nT = 0.2,x", "[sweep] T"),
    ],
    ids=["grid-points", "parameters", "missing-equilibrium-file", "gammas", "horizon",
         "tolerance", "sweep-periods"],
)
def test_unparsable_value_exits_2_naming_its_key(tmp_path, capsys, line, typo, key):
    typo = typo.format(missing=tmp_path / "missing.txt")
    (tmp_path / "run.ini").write_text(Path(write_config(tmp_path)).read_text().replace(line, typo))
    for command in ("synthesize", "simulate", "verify", "sweep"):
        assert main([command, "--config", str(tmp_path / "run.ini")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line, bad, field",
    [
        ("sampling_period = 0.2", "sampling_period = inf", "sampling_period"),
        ("sampling_period = 0.2", "sampling_period = nan", "sampling_period"),
        ("gammas = 2.0", "gammas = nan", "gammas"),
        ("target_rate = 1.0", "target_rate = nan", "target_rate"),
        ("grid_points = 64", "grid_points = 64\ninterval_length = nan", "interval_length"),
    ],
    ids=["inf-period", "nan-period", "nan-gammas", "nan-rate", "nan-length"],
)
def test_non_finite_spec_value_exits_2_naming_it(tmp_path, capsys, line, bad, field):
    (tmp_path / "run.ini").write_text(Path(write_config(tmp_path)).read_text().replace(line, bad))
    for command in ("synthesize", "simulate", "verify", "sweep"):
        assert main([command, "--config", str(tmp_path / "run.ini")]) == EXIT_CONFIG
        assert field in capsys.readouterr().err


def test_node_value_equilibrium_names_both_grids(tmp_path, capsys):
    np.savetxt(tmp_path / "ye.txt", np.zeros(66))
    text = Path(write_config(tmp_path, horizon=2)).read_text().replace(
        "parameters = 15.0", f"parameters = 15.0\nequilibrium = file:{tmp_path / 'ye.txt'}"
    )
    (tmp_path / "run.ini").write_text(text)
    assert main(["synthesize", "--config", str(tmp_path / "run.ini")]) == EXIT_OK
    capsys.readouterr()
    message = (
        "error: equilibrium has 66 node values, which fit grid_points = 64, not the "
        "requested grid_points = 128; node values are not resampled\n"
    )
    for argv in (["synthesize", "--refine"], ["verify"]):
        assert main([*argv, "--config", str(tmp_path / "run.ini")]) == EXIT_CONFIG
        assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "lines, message",
    [
        ("nonlinearity = cubicc",
         "[problem] nonlinearity must be one of cubic, custom-polynomial, fisher, linear, "
         "linear-only, polynomial, got 'cubicc'"),
        ("nonlinearity = cubic\nparameters = 1.0",
         "[problem] parameters: cubic nonlinearity takes no parameters"),
        ("nonlinearity = polynomial\nparameters =",
         "[problem] parameters: polynomial reaction needs at least one coefficient"),
        ("nonlinearity = fisher\nparameters = 1,2",
         "[problem] parameters: fisher nonlinearity takes at most one parameter"),
    ],
    ids=["unknown-kind", "cubic-one", "polynomial-none", "fisher-two"],
)
def test_reaction_errors_exit_2_naming_their_key(tmp_path, capsys, lines, message):
    text = Path(write_config(tmp_path)).read_text()
    (tmp_path / "run.ini").write_text(
        text.replace("nonlinearity = fisher\nparameters = 15.0", lines)
    )
    for command in (["synthesize"], ["simulate", "--open-loop"], ["verify"], ["sweep"]):
        assert main([*command, "--config", str(tmp_path / "run.ini")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "written, kind, parameters",
    [("Fisher", "fisher", [15.0]), ("linear", "linear-only", [0.0]),
     ("polynomial\nparameters = 0.5,2.0", "custom-polynomial", [0.5, 2.0])],
)
def test_reaction_kinds_and_aliases_load(tmp_path, written, kind, parameters):
    path = tmp_path / "run.ini"
    path.write_text(f"[problem]\nnonlinearity = {written}\n")
    echo = load_config(path).echo()["problem"]
    assert (echo["nonlinearity"], echo["parameters"]) == (kind, parameters)


def test_run_config_fields_are_the_table_fields():
    """A run option is one _OPTIONS entry: RunConfig declares no field of its own."""
    run_options = [option.field for option in _OPTIONS if "." not in option.field]
    assert len(run_options) == 18
    fields = [field.name for field in dataclasses.fields(RunConfig)]
    assert fields == ["spec", "verify_tolerances", *run_options]


def test_every_run_option_loads_and_echoes_as_written(tmp_path):
    doubled = {name: 2 * value for name, value in DEFAULT_VERIFY_TOLERANCES.items()}
    written = {
        "problem": {"interval_length": 2.0, "grid_points": 48,
                    "nonlinearity": "custom-polynomial", "parameters": [0.5, 2.0],
                    "equilibrium": "per-node table"},
        "synthesis": {"target_rate": 1.5, "gammas": [3.0, 5.0], "sampling_period": 0.4},
        "simulation": {"substeps": 32, "horizon": 7, "initial": "mode:2", "amplitude": 0.5,
                       "norm": "sobolev", "sobolev_order": 0.5, "dynamics": "linear",
                       "open_loop_horizon": 3},
        "output": {"directory": "elsewhere", "formats": ["svg", "states"],
                   "snapshot_stride": 4},
        "verify": {"horizon": 12, "seed": 3, **doubled},
        "sweep": {"T": [0.1, 0.3], "gamma": [[2.5], [3.5, 4.5]], "amplitude": [0.02, 0.2],
                  "total_time": 4.5, "seed": 11, "bisect_iters": 5},
    }
    # the table declares exactly these keys, in this order
    assert [(o.section, o.key) for o in _OPTIONS] == [
        (section, key) for section, keys in written.items() for key in keys
    ]
    assert len(_OPTIONS) == 40
    path = tmp_path / "options.ini"
    path.write_text(
        "[problem]\ninterval_length = 2.0\ngrid_points = 48\n"
        "nonlinearity = custom-polynomial\nparameters = 0.5,2.0\nequilibrium = 0.25\n"
        "[synthesis]\ntarget_rate = 1.5\ngammas = 3.0,5.0\nsampling_period = 0.4\n"
        "[simulation]\nsubsteps = 32\nhorizon = 7\ninitial = mode:2\namplitude = 0.5\n"
        "norm = sobolev\nsobolev_order = 0.5\ndynamics = linear\nopen_loop_horizon = 3\n"
        "[output]\ndirectory = elsewhere\nformats = svg,states\nsnapshot_stride = 4\n"
        "[verify]\nhorizon = 12\nseed = 3\n"
        + "".join(f"{name} = {value!r}\n" for name, value in doubled.items())
        + "[sweep]\nT = 0.1,0.3\ngamma = 2.5;3.5,4.5\namplitude = 0.02,0.2\n"
        "total_time = 4.5\nseed = 11\nbisect_iters = 5\n"
    )
    empty = tmp_path / "empty.ini"
    empty.write_text("")
    cfg = load_config(path)
    echo, defaults = cfg.echo(), load_config(empty).echo()
    assert echo == written
    # every value written differs from its default, bar the equilibrium,
    # which is echoed as "per-node table" whatever it is
    differing = {(s, k) for s, keys in written.items() for k in keys
                 if defaults[s][k] != written[s][k]}
    assert len(differing) == 39 and ("problem", "equilibrium") not in differing
    assert cfg.spec.equilibrium == 0.25 and cfg.spec.substeps_per_hold == 32
    assert cfg.spec.nonlinearity.parameters == (0.5, 2.0) and cfg.spec.gammas == (3.0, 5.0)
    assert cfg.sweep_gammas == ((2.5,), (3.5, 4.5)) and cfg.formats == ("svg", "states")
    assert cfg.out_dir == "elsewhere" and cfg.verify_seed == 3 and cfg.sweep_seed == 11
    assert cfg.verify_tolerances == doubled


# RunConfig.echo() of an empty config and of a linear one before the
# [verify] tolerances joined the echo: this change adds them and nothing else
ECHO_BEFORE_TOLERANCES = {
    "problem": {"interval_length": 1.0, "grid_points": 200, "nonlinearity": "fisher",
                "parameters": [15.0], "equilibrium": "per-node table"},
    "synthesis": {"target_rate": 1.0, "gammas": "auto", "sampling_period": 0.2},
    "simulation": {"substeps": 64, "horizon": 50, "initial": "random:7", "amplitude": 1.0,
                   "norm": "l2", "sobolev_order": 0.25, "dynamics": "semilinear",
                   "open_loop_horizon": 5},
    "verify": {"horizon": 10, "seed": 7},
    "output": {"directory": "out", "formats": ["csv", "json"], "snapshot_stride": 0},
    "sweep": {"T": [], "gamma": [], "amplitude": [], "total_time": 10.0, "seed": 7,
              "bisect_iters": 20},
}
LINEAR_ECHO_BEFORE_TOLERANCES = {
    **ECHO_BEFORE_TOLERANCES,
    "problem": {**ECHO_BEFORE_TOLERANCES["problem"], "nonlinearity": "linear-only",
                "parameters": [0.0]},
    "simulation": {**ECHO_BEFORE_TOLERANCES["simulation"], "dynamics": "linear"},
}


@pytest.mark.parametrize(
    "text, before",
    [("", ECHO_BEFORE_TOLERANCES),
     ("[problem]\nnonlinearity = linear\n[synthesis]\ngammas = auto\n",
      LINEAR_ECHO_BEFORE_TOLERANCES)],
    ids=["empty", "linear-auto"],
)
def test_echo_is_the_earlier_echo_plus_the_tolerance_defaults(tmp_path, text, before):
    path = tmp_path / "run.ini"
    path.write_text(text)
    expected = {**before, "verify": {**before["verify"], **DEFAULT_VERIFY_TOLERANCES}}
    assert load_config(path).echo() == expected


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


SWEEPS = "[sweep]\namplitude = 0.01\nbisect_iters = 0\nT = 0.1,0.2\ngamma = 2.0;3.0\ntotal_time = 2.0\n"
COMMANDS = [
    pytest.param(["synthesize"], 1, id="synthesize"),
    pytest.param(["simulate"], 1, id="simulate"),
    pytest.param(["sweep", "--axis", "amplitude"], 1, id="sweep-amplitude"),
    pytest.param(["sweep", "--axis", "T"], 2, id="sweep-T"),
    pytest.param(["sweep", "--axis", "gamma"], 2, id="sweep-gamma"),
]


@pytest.mark.parametrize("argv, rows", COMMANDS)
def test_synthesize_assembles_one_gain_system(tmp_path, monkeypatch, argv, rows):
    """One spectrum per command and the gains of each row (one, or one per
    sweep row), built once by analysis.Grid; the continuous-limit row in
    gains.json and sweep_T.csv is read alone."""
    cfg = write_config(tmp_path, extra=SWEEPS)
    counts = count_builds(monkeypatch)
    out = tmp_path / "out"
    assert main([*argv, "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert counts["compute_spectrum"] == 1
    assert counts["assemble"] == rows
    if argv == ["synthesize"]:
        gains = json.loads((out / "gains.json").read_text())
        assert gains["continuous_gain_row"] is not None


@pytest.mark.parametrize("axis, runs", [("amplitude", 1), ("T", 3), ("gamma", 3)])
def test_sweep_validates_each_spec_once(tmp_path, monkeypatch, axis, runs):
    """validate_spec checks a ProblemSpec in full once per spec a sweep
    runs: the configured one, and on the T and gamma axes each of the two
    rows' (its period or gammas)."""
    specs = []
    validate = model.validate_spec

    def counted(spec):
        if isinstance(spec, ps.ProblemSpec):
            specs.append(spec)
        return validate(spec)

    for module in (model, spectral, analysis, cli):
        if getattr(module, "validate_spec", None) is validate:
            monkeypatch.setattr(module, "validate_spec", counted)
    cfg = write_config(tmp_path, extra=SWEEPS)
    assert main(["sweep", "--axis", axis, "--config", cfg, "--out", str(tmp_path / "out")]) \
        == EXIT_OK
    assert len(specs) == runs


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


def test_readme_lists_every_verify_record():
    """One README line per _RECORDS entry: name, tolerance key(s), 2M twin."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    bullet = readme.split("- `verify` runs", 1)[1].split("\n- `sweep`", 1)[0]
    documented = [line for line in bullet.splitlines() if line.startswith("  - `")]

    def line(record):
        keys = [f"`{key}`" for key in record.bound]
        bound = keys[0] if len(keys) == 1 else f"window {keys[0]} to {keys[1]}"
        twin = f"2M twin `{record.refine[1]}`" if record.refine else "no 2M twin"
        return f"  - `{record.name}`: {bound}; {twin}"

    assert documented == [line(record) for record in _RECORDS]


def test_verify_schema_is_horizon_seed_and_the_table_keys():
    keys = {key for record in _RECORDS for key in record.bound}
    keys |= {record.refine[1] for record in _RECORDS if record.refine}
    assert _SCHEMA["verify"] == {"horizon", "seed"} | keys
    assert len(keys) == 13


def test_readme_python_block_runs_as_documented(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    rate, matrix_residual = (float(v) for v in capsys.readouterr().out.split())
    assert rate == pytest.approx(2.0, rel=1e-2)
    assert matrix_residual <= 1e-10
    assert namespace["radius"] <= namespace["bound"]


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


def test_too_few_substeps_exit_2_or_are_recorded(tmp_path, capsys):
    """T = 2.0 with 4 substeps per hold: dt |lambda_1| = 2.57 >= 2 at M = 64
    (lambda_1 = -5.13), so every stepped run is refused, naming the 6
    substeps it needs; synthesize steps nothing and is unaffected."""
    text = Path(write_config(
        tmp_path, extra="[sweep]\nT = 0.2,2.0\namplitude = 0.01\ntotal_time = 4.0\n"
    )).read_text()
    text = text.replace("sampling_period = 0.2", "sampling_period = 2.0")
    cfg = tmp_path / "run.ini"
    cfg.write_text(text.replace("[simulation]\n", "[simulation]\nsubsteps = 4\n"))
    refusal = r"substeps_per_hold = 4 gives dt\*\|lambda_1\| = 2.57 >= 2, .* at least 6 substeps"
    capsys.readouterr()
    for command in (["simulate"], ["sweep", "--axis", "amplitude"]):
        out = tmp_path / command[-1]
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert re.search(f"^error: {refusal}", capsys.readouterr().err)
        assert not out.exists()
    out = tmp_path / "ver"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_VERIFY
    checks = {c["name"]: c for c in json.loads((out / "verification.json").read_text())["checks"]}
    assert re.match(f"TooFewSubsteps: {refusal}", checks["trajectory-suite"]["details"]["error"])
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", "T"]) == EXIT_OK
    header, fine, coarse = csv.reader(io.StringIO((out / "sweep_T.csv").read_text()))
    assert len(fine) == len(coarse) == len(header) and fine[-1] == ""
    assert re.match(f"TooFewSubsteps: {refusal}", coarse[-1])
    assert main(["synthesize", "--config", str(cfg), "--out", str(tmp_path / "syn")]) == EXIT_OK


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
    # the mpmath recursion residual may round to exactly 0.0, so 1e-60 can
    # pass; a float64 Gram residual at M = 64 never gets below ~1e-17, so an
    # orthonormality tolerance of 1e-30 fails for every correct spectrum
    cfg_tight = write_config(
        tmp_path, name="tight.ini",
        extra="[verify]\nrecursion_identity = 1e-60\northonormality = 1e-30\n",
    )
    assert main(["verify", "--config", cfg_tight, "--out", str(out)]) == EXIT_VERIFY
    checks = {
        c["name"]: c
        for c in json.loads((out / "verification.json").read_text())["checks"]
    }
    assert checks["recursion-identity"]["tolerance"] == 1e-60
    assert checks["orthonormality"]["tolerance"] == 1e-30
    assert checks["orthonormality"]["passed"] is False


NO_UNSTABLE_MODES = "warning: no eigenvalue below rho: the feedback is identically zero\n"


@pytest.mark.filterwarnings("default::UserWarning")  # as outside the suite
def test_verify_no_unstable_modes_passes_with_warning(tmp_path, capsys):
    path = tmp_path / "stable.ini"
    path.write_text(
        "[problem]\ngrid_points = 64\nnonlinearity = linear\nparameters = -10.0\n"
        "[synthesis]\ntarget_rate = 1.0\nsampling_period = 0.2\n"
        f"[output]\ndirectory = {tmp_path / 'ver0'}\n"
    )
    capsys.readouterr()
    code = main(["verify", "--config", str(path)])
    assert code == EXIT_OK
    assert capsys.readouterr().err == NO_UNSTABLE_MODES


@pytest.mark.filterwarnings("default::UserWarning")
def test_synthesize_prints_a_library_warning_as_one_line(tmp_path, capsys):
    """No path, line number or source line, and no second line of its own."""
    path = tmp_path / "linear.ini"
    path.write_text(f"[problem]\ngrid_points = 32\nnonlinearity = linear\n"
                    f"[output]\ndirectory = {tmp_path / 'syn'}\n")
    capsys.readouterr()
    assert main(["synthesize", "--config", str(path)]) == EXIT_OK
    assert capsys.readouterr().err == NO_UNSTABLE_MODES
    assert (tmp_path / "syn" / "verification.json").is_file()


def test_a_warning_raised_as_an_error_exits_2(tmp_path, capsys):
    """Under the suite's filterwarnings = error, as under python -W error:
    one error line, exit 2, nothing written."""
    path = tmp_path / "linear.ini"
    path.write_text(f"[problem]\ngrid_points = 32\nnonlinearity = linear\n"
                    f"[output]\ndirectory = {tmp_path / 'syn'}\n")
    capsys.readouterr()
    assert main(["synthesize", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == NO_UNSTABLE_MODES.replace("warning:", "error:")
    assert not (tmp_path / "syn").exists()


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


def write_period_config(tmp_path, a, rho, gamma, period):
    path = tmp_path / f"a{a}_T{period}.ini"
    path.write_text(
        f"[problem]\ngrid_points = 64\nnonlinearity = fisher\nparameters = {a}\n"
        f"[synthesis]\ntarget_rate = {rho}\ngammas = {gamma}\n"
        f"sampling_period = {period}\n"
    )
    return str(path)


def test_long_period_synthesis_exits_3_past_the_precision_limit(tmp_path, capsys):
    # a = 15 loses (gamma_1 - lambda_1) T / ln 10 digits to cancellation over
    # one hold: 97 working digits at T = 20, beyond the 400-digit limit at T = 150
    cfg = write_period_config(tmp_path, 15.0, 1.0, 2.0, 150.0)
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_SINGULAR
    assert "singular gain algebra" in capsys.readouterr().err
    cfg = write_period_config(tmp_path, 15.0, 1.0, 2.0, 20.0)
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK


@pytest.mark.parametrize("period", ["1e300", "1e307"])
def test_huge_period_exits_3_with_a_short_message(tmp_path, capsys, period):
    # the cancellation over one hold is about 8.7e301 digits at T = 1e300 and
    # past the float64 range at 1e307: both stop before they are rounded
    cfg = write_period_config(tmp_path, 15.0, 1.0, 200.0, period)
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_SINGULAR
    err = capsys.readouterr().err
    assert "more than 10^6 digits of cancellation" in err and len(err) < 200


def test_contraction_record_survives_float64_underflow(tmp_path):
    # a = 5, rho = 6, T = 120: e^{-7 T} and the spectral radius both underflow
    # to 0.0, so only the ratio taken in mpmath gives the record its residual
    cfg = write_period_config(tmp_path, 5.0, 6.0, 7.0, 120.0)
    out = tmp_path / "out"
    assert main(["synthesize", "--config", cfg, "--out", str(out)]) == EXIT_OK
    checks = json.loads((out / "verification.json").read_text())["checks"]
    record = {check["name"]: check for check in checks}["contraction-bound"]
    assert record["details"] == {"bound": 0.0, "spectral_radius": 0.0}
    assert np.isfinite(record["residual"]) and record["passed"]


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


def test_unallocatable_record_block_exits_2_or_is_noted(tmp_path, capsys):
    # 1e13 holds x M = 64 doubles (about 4.5 PiB) for simulate; T = 1e-12
    # over total_time 1 is 1e12 holds x 8 records x 64 doubles (3.6 PiB)
    cfg = write_config(
        tmp_path, horizon=10**13, extra="[sweep]\nT = 0.2,1e-12\ntotal_time = 1.0\n"
    )
    capsys.readouterr()
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot allocate the record block of (1 + horizon 10000000000000")
    assert err.count("\n") == 1
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", "T"]) == EXIT_OK
    last = (out / "sweep_T.csv").read_text().strip().split("\n")[-1]
    assert last.startswith("9.9999999999999998e-13,")
    assert last.split(",")[-1].startswith("ParastabError: cannot allocate the record block")


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
