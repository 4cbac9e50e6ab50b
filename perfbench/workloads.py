"""The three benchmark workloads and the output contract of each step.

A workload is a fixed list of steps run back to back by one caller (a
closed loop with one client).  CLI steps go through ``parastab.cli.main``
in-process; library steps call the public API.  Each step has a timed call
and an untimed check that holds its exit code and outputs to the package's
own contract and acceptance thresholds.  A check that finds a broken
contract raises ContractError; the step then counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

VERIFY_EXIT = frozenset({0, 5})  # 5: checks failed, reported in verification.json


class ContractError(Exception):
    """A step's exit code or output broke the command's contract."""


@dataclass
class Outcome:
    """What the untimed check of one step found."""

    digests: dict[str, str] = field(default_factory=dict)
    checks_run: int = 0
    checks_failed: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


@dataclass
class Step:
    name: str  # unique within the workload
    metric: str  # per-command timing it feeds, e.g. "synthesize_s"
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    out_dir: Path | None = None


def render_config(template: str, dest: Path, **values) -> Path:
    """Fill {seed}/{period} in a committed config template."""
    text = (CONFIG_DIR / f"{template}.ini").read_text()
    for key, value in values.items():
        text = text.replace("{" + key + "}", str(value))
    if "{" in text:
        raise ValueError(f"unfilled placeholder in {template}.ini")
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(text)
    return dest


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_arrays(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return digest.hexdigest()


def dir_digests(step: str, out_dir: Path) -> dict[str, str]:
    return {
        f"{step}/{p.name}": sha256_bytes(p.read_bytes())
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


# -- CLI -------------------------------------------------------------------


def cli_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call() -> tuple[int, str]:
        from parastab import cli  # looked up per call: the tracer rebinds cli.main

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    return call


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ContractError(message)


def _csv_rows(path: Path) -> list[list[str]]:
    _require(path.is_file(), f"missing {path.name}")
    return [line.split(",") for line in path.read_text().splitlines()]


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _verification(path: Path, rc: int, outcome: Outcome) -> dict:
    """verification.json is well formed and its passed flag agrees with rc."""
    _require(path.is_file(), "missing verification.json")
    report = json.loads(path.read_text())
    checks = report.get("checks")
    _require(isinstance(checks, list), "verification.json has no checks list")
    passed = report.get("passed")
    _require(isinstance(passed, bool), "verification.json has no passed flag")
    _require(passed == all(c["passed"] for c in checks), "passed flag disagrees with checks")
    _require((rc == 0) == passed, f"exit {rc} disagrees with passed={passed}")
    outcome.checks_run += len(checks)
    outcome.checks_failed += [c["name"] for c in checks if not c["passed"]]
    return report


def synthesize_check(m: int, formats: set[str]):
    def check(out_dir: Path, rc: int) -> Outcome:
        outcome = Outcome()
        report = _verification(out_dir / "verification.json", rc, outcome)
        n = report["metadata"]["unstable_count"]
        rows = _csv_rows(out_dir / "spectrum.csv")
        _require(rows[0] == ["index", "lambda", "boundary_flux"], "spectrum.csv header")
        _require(len(rows) == m + 1, f"spectrum.csv has {len(rows) - 1} rows, want {m}")
        _require(_finite(v for row in rows[1:] for v in row[1:]), "spectrum.csv not finite")
        gains = json.loads((out_dir / "gains.json").read_text())
        _require(len(gains["gain_row"]) == n, "gain_row length differs from N")
        _require(_finite(gains["gain_row"]), "gain_row not finite")
        if "modes" in formats:
            modes = _csv_rows(out_dir / "modes.csv")
            _require(len(modes) == m and all(len(r) == m for r in modes), "modes.csv shape")
        if "matrices" in formats:
            _require((out_dir / "gain_matrices.csv").stat().st_size > 0, "empty gain_matrices.csv")
        return outcome

    return check


def _trajectory_csv(path: Path, rows_expected: int) -> None:
    rows = _csv_rows(path)
    _require(rows[0] == ["t", "l2_norm", "sob_norm", "u_held"], f"{path.name} header")
    _require(len(rows) - 1 == rows_expected,
             f"{path.name} has {len(rows) - 1} rows, want {rows_expected}")
    _require(_finite(v for row in rows[1:] for v in row), f"{path.name} not finite")


def simulate_check(snapshots: int, min_rate: float, open_loop: bool, svg: bool):
    def check(out_dir: Path, rc: int) -> Outcome:
        _trajectory_csv(out_dir / "trajectory.csv", snapshots)
        run = json.loads((out_dir / "run.json").read_text())
        _require(run["blowup_time"] is None, f"closed loop blew up at t={run['blowup_time']}")
        rate = run["fitted_rate"]
        # a closed loop must decay; cli_default also holds it to 0.9 * rho
        _require(rate is not None and rate > 0.0 and rate >= min_rate,
                 f"fitted rate {rate} below {min_rate}")
        if open_loop:
            _require(len(_csv_rows(out_dir / "open_loop.csv")) > 1, "empty open_loop.csv")
        if svg:
            _require((out_dir / "lognorm.svg").read_text().startswith("<svg"), "bad lognorm.svg")
        return Outcome(info={"fitted_rate": rate})

    return check


def verify_check(out_dir: Path, rc: int) -> Outcome:
    outcome = Outcome()
    _verification(out_dir / "verification.json", rc, outcome)
    return outcome


def sweep_t_check(periods: int):
    def check(out_dir: Path, rc: int) -> Outcome:
        rows = _csv_rows(out_dir / "sweep_T.csv")
        _require(len(rows) - 1 == periods, f"sweep_T.csv has {len(rows) - 1} rows, want {periods}")
        # column 4 is fitted_rate; the gain row itself may hold ';' but no ','
        _require(all(row[4] != "" for row in rows[1:]), "a sweep_T row carries no rate")
        return Outcome()

    return check


def sweep_amplitude_check(amplitudes: int):
    def check(out_dir: Path, rc: int) -> Outcome:
        rows = _csv_rows(out_dir / "sweep_amplitude.csv")
        _require(rows[0] == ["amplitude", "decayed", "blowup_time", "fitted_rate"], "header")
        _require(len(rows) == amplitudes + 2, "sweep_amplitude.csv row count")
        _require(rows[-1][0] == "# empirical_basin_edge", "no basin edge line")
        _require(rows[1][:2] == ["0", "1"], "amplitude 0 must decay")
        return Outcome()

    return check


def _cli_step(name: str, metric: str, argv: list[str], out: Path, check,
              exit_codes=frozenset({0})) -> Step:
    """A CLI step writing to out/name: exit code, then the command's own
    check, then the digests and size of everything it wrote."""
    out_dir = out / name

    def checked(result) -> Outcome:
        rc, _ = result
        _require(rc in exit_codes, f"{argv[0]} exited {rc}")
        outcome = check(out_dir, rc)
        outcome.digests = dir_digests(name, out_dir)
        outcome.info["output_bytes"] = output_bytes(out_dir)
        return outcome

    return Step(name, metric, cli_call(argv + ["--out", str(out_dir)]), checked, out_dir)


# -- workloads -------------------------------------------------------------


def cli_default(work: Path, seed: int) -> tuple[list[Step], Path]:
    cfg = render_config("cli_default", work / "configs" / "cli_default.ini", seed=seed)
    config = _load(cfg)
    m = config.spec.grid_points
    formats = set(config.formats)
    stride = config.snapshot_stride
    snapshots = config.horizon * (config.spec.substeps_per_hold // stride) + 1
    out = work / "out"
    c = ["--config", str(cfg)]
    steps = [
        _cli_step("synthesize", "synthesize_s", ["synthesize", *c], out,
                  synthesize_check(m, formats), VERIFY_EXIT),
        _cli_step("simulate", "simulate_s", ["simulate", *c, "--open-loop"], out,
                  simulate_check(snapshots, 0.9 * config.spec.target_rate, True, "svg" in formats)),
        _cli_step("verify", "verify_s", ["verify", *c], out, verify_check, VERIFY_EXIT),
        _cli_step("sweep_T", "sweep_s", ["sweep", *c, "--axis", "T"], out,
                  sweep_t_check(len(config.sweep_periods))),
        _cli_step("sweep_amplitude", "sweep_s", ["sweep", *c, "--axis", "amplitude"], out,
                  sweep_amplitude_check(len(config.sweep_amplitudes))),
    ]
    return steps, cfg


def long_hold(work: Path, seed: int) -> tuple[list[Step], Path]:
    import parastab as ps
    from parastab.analysis import DEFAULT_VERIFY_TOLERANCES

    cfg = render_config("long_hold", work / "configs" / "long_hold.ini", seed=seed)
    config = _load(cfg)
    spec = config.spec
    snapshots = config.horizon * (spec.substeps_per_hold // config.snapshot_stride) + 1
    out = work / "out"
    state: dict = {}

    def spectrum_call():
        problem = ps.validate_spec(spec)
        c = ps.linearized_coefficient(problem)
        state["problem"] = problem
        state["spectrum"] = ps.compute_spectrum(problem, c, spec.target_rate)
        return state["spectrum"]

    def spectrum_check(sp) -> Outcome:
        _require(sp.m == spec.grid_points, "spectrum size differs from the grid")
        _require(sp.unstable_count == len(spec.gammas), f"N = {sp.unstable_count}")
        n = sp.unstable_count
        return Outcome(digests={"compute_spectrum/lambdas,flux,modes_N": sha256_arrays(
            sp.lambdas, sp.boundary_flux, sp.modes[:, :n])})

    def gains_call():
        state["gains"] = ps.build_gains(state["spectrum"], spec.gammas, spec.sampling_period)
        return state["gains"]

    def gains_check(g) -> Outcome:
        _require(g.n == len(spec.gammas) and _finite(g.gain_row), "bad gain row")
        return Outcome(digests={"build_gains/gain_row,closed_loop": sha256_arrays(
            g.gain_row, g.closed_loop_matrix)})

    def run_call():
        y0 = ps.seeded_initial_state(state["spectrum"], seed)
        state["trajectory"] = ps.run_linear_closed_loop(
            state["problem"], state["spectrum"], state["gains"], y0, config.horizon,
            snapshot_stride=config.snapshot_stride,
        )
        return state["trajectory"]

    def run_check(traj) -> Outcome:
        _require(traj.blowup_time is None, "linear closed loop blew up")
        _require(traj.times.size == snapshots, f"{traj.times.size} snapshots, want {snapshots}")
        rate = ps.fit_decay_rate(traj).rate
        # acceptance criterion 8: the long hold stabilizes (rate > 0)
        _require(rate > 0.0, f"long hold does not decay (rate {rate})")
        outcome = Outcome(digests={"run_linear_closed_loop/times,l2,sobolev": sha256_arrays(
            traj.times, traj.l2_norms, traj.sobolev_norms)})
        outcome.info.update(realized_rate=rate, designed_rate=float(spec.gammas[0]))
        return outcome

    def decompose_call():
        return ps.check_half_identity(state["trajectory"], state["gains"], state["spectrum"])

    def decompose_check(residual) -> Outcome:
        _require(math.isfinite(residual), "half identity residual not finite")
        outcome = Outcome(checks_run=1, digests={"decompose/half_identity": sha256_bytes(
            repr(float(residual)).encode())})
        if residual > DEFAULT_VERIFY_TOLERANCES["half_identity"]:
            outcome.checks_failed.append("half-identity")
        outcome.info["half_identity"] = residual
        return outcome

    steps = [
        _cli_step("simulate", "simulate_s", ["simulate", "--config", str(cfg)], out,
                  simulate_check(snapshots, 0.0, False, False)),
        Step("compute_spectrum", "compute_spectrum_s", spectrum_call, spectrum_check),
        Step("build_gains", "build_gains_s", gains_call, gains_check),
        Step("run_linear_closed_loop", "run_linear_closed_loop_s", run_call, run_check),
        Step("decompose", "decompose_s", decompose_call, decompose_check),
    ]
    return steps, cfg


MULTIMODE_PERIODS = ("0.05", "0.2", "1.0", "2.0")
MULTIMODE_VERIFY_PERIOD = "0.2"


def multimode(work: Path, seed: int) -> tuple[list[Step], Path]:
    out = work / "out"
    steps = []
    cfgs = {}
    for period in MULTIMODE_PERIODS:
        cfgs[period] = render_config(
            "multimode", work / "configs" / f"multimode_T{period}.ini", seed=seed, period=period
        )
        m = _load(cfgs[period]).spec.grid_points
        steps.append(_cli_step(f"synthesize_T{period}", "synthesize_s",
                               ["synthesize", "--config", str(cfgs[period])], out,
                               synthesize_check(m, set()), VERIFY_EXIT))
    steps.append(_cli_step("verify", "verify_s",
                           ["verify", "--config", str(cfgs[MULTIMODE_VERIFY_PERIOD])], out,
                           verify_check, VERIFY_EXIT))
    return steps, cfgs[MULTIMODE_VERIFY_PERIOD]


BUILDERS = {"cli_default": cli_default, "long_hold": long_hold, "multimode": multimode}


def _load(cfg: Path):
    from parastab.cli import load_config

    return load_config(cfg)


def prepare(step: Step) -> None:
    """Untimed: start each CLI step from an empty output directory."""
    if step.out_dir is not None:
        shutil.rmtree(step.out_dir, ignore_errors=True)
