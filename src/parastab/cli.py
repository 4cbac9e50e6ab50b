"""Command-line entry point.

Subcommands: synthesize | simulate | verify | sweep.  A single INI-style
config file (sections and key=value pairs, parsed by configparser) drives
every run.  Each key is declared once, in _OPTIONS.  Unknown sections and
keys are rejected so typos fail loudly (the _RETIRED [verify] keys load
with one warning), and so is a value that does not parse or fails its
key's check; that message starts with the [section] key.  The checks reject unknown norms and output formats, an
amplitude that is not finite and 0 or positive (also as a [sweep]
amplitude entry), a sobolev_order outside [0, 1), an initial other than
mode:K (K >= 1), random:SEED (SEED >= 0) or file:PATH, a [simulation]
horizon, open_loop_horizon or [verify] horizon below 1, a negative
snapshot stride or [verify] or [sweep] seed, a [sweep] T entry or
total_time that is not finite and positive, a negative bisect_iters, a
[verify] tolerance that is not finite and 0 or positive and a
nonlinearity that is not a model.REACTIONS kind.  load_config then
rejects, under "[problem] parameters: ", a parameter list the kind does
not take (model.reaction), and a [verify] window (analysis.VERIFY_WINDOWS)
whose low key is above its high key, and validate_spec an
interval_length, target_rate or sampling_period that is not finite and
positive, a substeps below 1, and gammas that are not finite or not
strictly increasing above target_rate.  Every key, defaults included, is
echoed into the emitted metadata for reproducibility; a spec key shows its
resolved value (the nonlinearity kind and parameters, "per-node table" for
the equilibrium, "auto" gammas).  Every float in CSV output carries 17
significant digits.  A library warning is printed as one stderr line,
"warning: <message>".

Exit codes: 0 success, 2 config or validation error (also a CN run refused
for too few substeps per hold, dt*|lambda_1| >= 2, and a warning raised
as an error under python -W error, printed as "error: <message>"), 3
singular gain algebra (a Gram sum or a cancellation that needs more than
400 working digits, or a weight outside the float64 range), 4 blow-up
under --expect-decay, 5 failed verification checks.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .model import REACTIONS, ParastabError, ProblemSpec, reaction, refined
from .spectral import Spectrum, modes_to_csv, spectrum_to_csv
from .synthesis import SingularBSum, gain_matrices_to_csv, gains_to_json
from .simulate import (
    UnstableStep,
    run_linear_closed_loop,
    run_open_loop,
    run_semilinear_closed_loop,
    scale_to_norm,
    seeded_initial_state,
    states_to_csv,
    trajectory_to_csv,
)
from .analysis import (
    DegenerateFit,
    Grid,
    VerificationReport,
    add_algebraic_checks,
    estimate_basin,
    basin_to_csv,
    fit_decay_rate,
    lognorm_svg,
    run_verification,
    sweep_gammas,
    sweep_sampling_period,
    sweep_to_csv,
    DEFAULT_VERIFY_TOLERANCES,
    VERIFY_WINDOWS,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_BLOWUP = 4
EXIT_VERIFY = 5


class ConfigError(ParastabError):
    """Malformed or unknown configuration content."""


_FORMATS = {"csv", "json", "svg", "modes", "matrices", "states"}


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(";", ",").split(",") if tok.strip())


def _gamma_lists(raw: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_float_list(chunk) for chunk in raw.split(";") if chunk.strip())


def _tokens(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _equilibrium(raw: str) -> float | np.ndarray:
    return np.loadtxt(raw[5:], dtype=float) if raw.startswith("file:") else float(raw)


def _initial_ok(raw: str) -> bool:
    """mode:K with K >= 1, random:SEED with SEED >= 0 or file:PATH; the
    upper bound of K is checked against the grid in _initial_state."""
    kind, _, arg = raw.partition(":")
    kind = kind.strip().lower()
    try:
        return kind == "file" or int(arg) >= {"mode": 1, "random": 0}[kind]
    except (KeyError, ValueError):
        return False


def _listed(value):
    """The echoed form of a config value: tuples become lists."""
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


class _Option(NamedTuple):
    field: str  # dotted path from RunConfig: spec.*, verify_tolerances.* or a run option
    section: str
    key: str
    default: str  # as it would be written in the file
    parse: Callable[[str], Any]
    ok: Callable[[Any], bool] = lambda value: True  # for a list: each entry
    message: str = ""  # after "[section] key ", formatted with the sorted failing entries
    show: Callable[[Any], Any] = _listed  # the echoed form of the field's value


def _finite_and_not_negative(value: float) -> bool:
    return 0 <= value < math.inf


# Every config key, declared once: load_config reads, parses and checks
# it, the schema accepts it, RunConfig takes a run option's field (no dot)
# from it and RunConfig.echo writes the field back.
_OPTIONS = (
    _Option("spec.interval_length", "problem", "interval_length", "1.0", float),
    _Option("spec.grid_points", "problem", "grid_points", "200", int),
    _Option("spec.nonlinearity.kind", "problem", "nonlinearity", "fisher", str.lower,
            REACTIONS.__contains__, f"must be one of {', '.join(sorted(REACTIONS))}, got {{!r}}"),
    _Option("spec.nonlinearity.parameters", "problem", "parameters", "", _float_list),
    _Option("spec.equilibrium", "problem", "equilibrium", "0.0", _equilibrium,
            show=lambda value: "per-node table"),
    _Option("spec.target_rate", "synthesis", "target_rate", "1.0", float),
    _Option("spec.gammas", "synthesis", "gammas", "auto",
            lambda raw: None if raw.lower() == "auto" else _float_list(raw),
            show=lambda gammas: "auto" if gammas is None else _listed(gammas)),
    _Option("spec.sampling_period", "synthesis", "sampling_period", "0.2", float),
    _Option("spec.substeps_per_hold", "simulation", "substeps", "64", int),
    _Option("horizon", "simulation", "horizon", "50", int,
            lambda n: n >= 1, "must be at least 1, got {}"),
    _Option("initial", "simulation", "initial", "random:7", str, _initial_ok,
            "must be mode:K (K >= 1), random:SEED (SEED >= 0) or file:PATH, got {!r}"),
    _Option("amplitude", "simulation", "amplitude", "1.0", float,
            _finite_and_not_negative, "must be 0 or positive and finite, got {}"),
    _Option("norm", "simulation", "norm", "l2", str,
            lambda n: n in ("l2", "sobolev"), "must be l2 or sobolev, got {!r}"),
    _Option("sobolev_order", "simulation", "sobolev_order", "0.25", float,
            lambda s: 0 <= s < 1, "must lie in [0, 1), got {}"),
    # "" is resolved from the nonlinearity in load_config
    _Option("dynamics", "simulation", "dynamics", "", str,
            lambda d: d in ("", "linear", "semilinear"), "must be linear or semilinear, got {!r}"),
    _Option("open_loop_horizon", "simulation", "open_loop_horizon", "5", int,
            lambda n: n >= 1, "must be at least 1, got {}"),
    _Option("out_dir", "output", "directory", "out", str),
    _Option("formats", "output", "formats", "csv,json", _tokens, _FORMATS.__contains__,
            f"holds unknown output format(s) {{}}; choose from {', '.join(sorted(_FORMATS))}"),
    _Option("snapshot_stride", "output", "snapshot_stride", "0", int,
            lambda n: n >= 0, "must be 0 or positive, got {}"),
    _Option("verify_horizon", "verify", "horizon", "10", int,
            lambda n: n >= 1, "must be at least 1, got {}"),
    _Option("verify_seed", "verify", "seed", "7", int,
            lambda n: n >= 0, "must be 0 or positive, got {}"),
    *(_Option(f"verify_tolerances.{name}", "verify", name, repr(value), float,
              _finite_and_not_negative, "must be finite and 0 or positive, got {}")
      for name, value in DEFAULT_VERIFY_TOLERANCES.items()),
    _Option("sweep_periods", "sweep", "T", "", _float_list,
            lambda t: 0 < t < math.inf, "entries must be finite and positive, got {}"),
    _Option("sweep_gammas", "sweep", "gamma", "", _gamma_lists),
    _Option("sweep_amplitudes", "sweep", "amplitude", "", _float_list, _finite_and_not_negative,
            "entries must be 0 or positive and finite, got {}"),
    _Option("sweep_total_time", "sweep", "total_time", "10.0", float,
            lambda t: 0 < t < math.inf, "must be finite and positive, got {}"),
    _Option("sweep_seed", "sweep", "seed", "7", int,
            lambda n: n >= 0, "must be 0 or positive, got {}"),
    _Option("sweep_bisect_iters", "sweep", "bisect_iters", "20", int,
            lambda n: n >= 0, "must be 0 or positive, got {}"),
)

_SCHEMA: dict[str, set[str]] = {}
for _option in _OPTIONS:
    _SCHEMA.setdefault(_option.section, set()).add(_option.key)

# [verify] keys of the 2M convergence records verify no longer makes:
# accepted, read by nothing, not echoed and named in one warning
_RETIRED = frozenset({"lift_ratio", "trajectory_ratio", "half_ratio"})


def _echo(config) -> dict:
    """Every key in _OPTIONS by section, in the echoed form of its field."""
    sections: dict = {}
    for option in _OPTIONS:
        value = config
        for name in option.field.split("."):
            value = value[name] if isinstance(value, dict) else getattr(value, name)
        sections.setdefault(option.section, {})[option.key] = option.show(value)
    return sections


RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [("spec", ProblemSpec), ("verify_tolerances", dict),
     *((option.field, Any) for option in _OPTIONS if "." not in option.field)],
    namespace={
        "__module__": __name__,
        "__doc__": "Parsed and defaulted configuration: the problem spec, the [verify] "
                   "tolerances by name and one attribute per dot-free _OPTIONS field.",
        "echo": _echo,
    },
)


def load_config(path: str | Path) -> RunConfig:
    """Parse and strictly validate the INI config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # keep key case: the sweep axis key is "T"
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(parser[section]) - _SCHEMA[section]
        if section == "verify":
            unknown -= _RETIRED
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")
    retired = sorted(_RETIRED & set(parser["verify"])) if parser.has_section("verify") else []
    if retired:
        warnings.warn(f"[verify] {', '.join(retired)}: retired key(s), read by nothing "
                      "(verify no longer steps the doubled grid)", stacklevel=2)

    # field path -> value, grouped by the path's head: "" for a run option
    groups: dict[str, dict] = {}
    for option in _OPTIONS:
        raw = parser.get(option.section, option.key, fallback=option.default).strip()
        try:
            value = option.parse(raw)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"[{option.section}] {option.key}: {exc}") from None
        entries = value if isinstance(value, tuple) else (value,)
        bad = sorted({str(v) for v in entries if not option.ok(v)})
        if bad:
            raise ConfigError(f"[{option.section}] {option.key} "
                              + option.message.format(", ".join(bad)))
        head, _, name = option.field.rpartition(".")
        groups.setdefault(head, {})[name] = value

    options, spec, tolerances = groups[""], groups["spec"], groups["verify_tolerances"]
    try:
        spec["nonlinearity"] = reaction(**groups["spec.nonlinearity"])
    except ValueError as exc:
        raise ConfigError(f"[problem] parameters: {exc}") from None
    if not options["dynamics"]:
        linear = spec["nonlinearity"].kind == "linear-only"
        options["dynamics"] = "linear" if linear else "semilinear"
    for low, high in VERIFY_WINDOWS:
        if tolerances[low] > tolerances[high]:
            raise ConfigError(f"[verify] {low} = {tolerances[low]} is above "
                              f"[verify] {high} = {tolerances[high]}")
    return RunConfig(spec=ProblemSpec(**spec), verify_tolerances=tolerances, **options)


def _initial_state(config: RunConfig, spectrum: Spectrum) -> np.ndarray:
    """Deviation-from-equilibrium initial state per the config."""
    kind, _, arg = config.initial.partition(":")
    kind = kind.strip().lower()
    scaling = dict(amplitude=config.amplitude, norm=config.norm,
                   sobolev_order=config.sobolev_order)
    if kind == "mode":
        index = int(arg)
        if not 1 <= index <= spectrum.m:
            raise ConfigError(f"mode index {index} out of range 1..{spectrum.m}")
        return scale_to_norm(spectrum.columns(index)[:, -1], spectrum.h, **scaling)
    if kind == "random":
        return seeded_initial_state(spectrum, int(arg), **scaling)
    y = np.loadtxt(arg, dtype=float)  # file:PATH, the one form left (_initial_ok)
    if y.shape != (spectrum.m,):
        raise ConfigError(f"initial state file must hold {spectrum.m} interior values")
    return y


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def _report_checks(report: VerificationReport) -> int:
    """Print one PASS/FAIL line per check and return the exit code."""
    for check in report.checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.residual:.3e}")
    if not report.passed:
        names = ", ".join(c.name for c in report.failures())
        print(f"failed checks: {names}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_synthesize(config: RunConfig, out_dir: Path) -> int:
    grid = Grid(config.spec)
    spectrum = grid.spectrum
    report = VerificationReport()
    report.metadata["config"] = config.echo()
    report.metadata["unstable_count"] = spectrum.unstable_count
    _write(out_dir, "spectrum.csv", spectrum_to_csv(spectrum))
    if "modes" in config.formats:
        _write(out_dir, "modes.csv", modes_to_csv(spectrum))
    if spectrum.unstable_count == 0:  # select_unstable has warned
        _write(out_dir, "verification.json", report.to_json())
        return EXIT_OK
    _write(out_dir, "gains.json", gains_to_json(grid.gains, grid.continuous))
    if "matrices" in config.formats:
        _write(out_dir, "gain_matrices.csv", gain_matrices_to_csv(grid.gains))
    add_algebraic_checks(report, grid.gains, config.verify_tolerances)
    _write(out_dir, "verification.json", report.to_json())
    return _report_checks(report)


def cmd_simulate(
    config: RunConfig, out_dir: Path, *, open_loop: bool, expect_decay: bool
) -> int:
    grid = Grid(config.spec)
    problem, spectrum = grid.linearized
    y0 = _initial_state(config, spectrum)
    metadata: dict = {"config": config.echo()}
    gains = grid.gains if spectrum.unstable_count > 0 else None

    options = {"snapshot_stride": config.snapshot_stride, "sobolev_order": config.sobolev_order}
    try:
        if config.dynamics == "semilinear":
            ye = problem.equilibrium_values[1:-1]
            trajectory = run_semilinear_closed_loop(
                problem, spectrum, gains, y0 + ye, config.horizon, **options
            )
        elif gains is None:
            # zero feedback: the closed loop degenerates to the baseline
            trajectory = run_open_loop(problem, spectrum, y0, config.horizon, **options)
        else:
            trajectory = run_linear_closed_loop(
                problem, spectrum, gains, y0, config.horizon, **options
            )
    except UnstableStep as exc:
        trajectory = exc.trajectory  # the run up to the blow-up
    blowup = trajectory.blowup_time

    _write(out_dir, "trajectory.csv", trajectory_to_csv(trajectory))
    if "states" in config.formats:
        _write(out_dir, "states.csv", states_to_csv(trajectory))
    metadata["blowup_time"] = blowup
    metadata["problem_hash"] = trajectory.problem_hash
    metadata["gains_hash"] = trajectory.gains_hash
    try:
        fit = fit_decay_rate(trajectory, norm_kind=config.norm)
        metadata["fitted_rate"] = fit.rate
        metadata["fit_points"] = fit.n_points
    except DegenerateFit as exc:
        metadata["fitted_rate"] = None
        metadata["fit_note"] = str(exc)
    series = [("closed-loop", trajectory.times, trajectory.l2_norms)]

    if open_loop:
        try:
            baseline = run_open_loop(
                problem, spectrum, y0, config.open_loop_horizon,
                snapshot_stride=grid.record_stride,
                sobolev_order=config.sobolev_order,
            )
        except UnstableStep as exc:
            baseline = exc.trajectory
        _write(out_dir, "open_loop.csv", trajectory_to_csv(baseline))
        metadata["open_loop_blowup_time"] = baseline.blowup_time
        series.append(("open-loop", baseline.times, baseline.l2_norms))

    if "json" in config.formats:
        _write(out_dir, "run.json", json.dumps(metadata, indent=2, sort_keys=True, default=str))
    if "svg" in config.formats:
        try:
            _write(out_dir, "lognorm.svg", lognorm_svg(series))
        except ValueError:
            pass  # identically-zero norms: nothing to draw, not an error

    if blowup is not None:
        print(f"blow-up reported at t = {blowup:.6g}")
        if expect_decay:
            return EXIT_BLOWUP
    return EXIT_OK


def cmd_verify(config: RunConfig, out_dir: Path) -> int:
    report = run_verification(
        config.spec,
        tolerances=config.verify_tolerances,
        horizon=config.verify_horizon,
        seed=config.verify_seed,
    )
    report.metadata["config"] = config.echo()
    _write(out_dir, "verification.json", report.to_json())
    return _report_checks(report)


def cmd_sweep(config: RunConfig, out_dir: Path, axis: str) -> int:
    values = {
        "T": config.sweep_periods,
        "gamma": config.sweep_gammas,
        "amplitude": config.sweep_amplitudes,
    }
    if axis not in values:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    grid = Grid(config.spec, config.horizon, config.sweep_seed)
    grid.problem  # a spec that fails validation exits 2 before an empty list
    if not values[axis]:
        raise ConfigError(f"sweep axis {axis} needs a non-empty [sweep] {axis} list")
    if axis == "T":
        result = sweep_sampling_period(grid, config.sweep_periods,
                                       total_time=config.sweep_total_time)
    elif axis == "gamma":
        result = sweep_gammas(grid, config.sweep_gammas, total_time=config.sweep_total_time)
    else:
        result = estimate_basin(*grid.linearized, grid.gains, config.sweep_amplitudes,
                                horizon=grid.horizon, seed=grid.seed,
                                bisect_iters=config.sweep_bisect_iters)
    table = basin_to_csv(result) if axis == "amplitude" else sweep_to_csv(result.rows, axis)
    _write(out_dir, f"sweep_{axis}.csv", table)
    if "svg" in config.formats and result.histories:
        _write(out_dir, f"sweep_{axis}.svg", lognorm_svg(result.histories))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parastab",
        description="Sampled-data boundary feedback synthesis and simulation",
    )
    parser.add_argument("command", choices=["synthesize", "simulate", "verify", "sweep"])
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--open-loop", action="store_true", help="also run the u=0 baseline")
    parser.add_argument(
        "--expect-decay", action="store_true", help="exit 4 if the run blows up"
    )
    parser.add_argument(
        "--refine", action="store_true", help="double grid points and substeps"
    )
    parser.add_argument(
        "--axis", choices=["T", "gamma", "amplitude"], default="T", help="sweep axis"
    )
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    with warnings.catch_warnings():
        # one line per library warning, without its file, line or source
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            config = load_config(args.config)
            if args.refine:
                config.spec = refined(config.spec)
            out_dir = Path(args.out or config.out_dir)
            if args.command == "synthesize":
                return cmd_synthesize(config, out_dir)
            if args.command == "simulate":
                return cmd_simulate(
                    config, out_dir, open_loop=args.open_loop, expect_decay=args.expect_decay
                )
            if args.command == "verify":
                return cmd_verify(config, out_dir)
            return cmd_sweep(config, out_dir, args.axis)
        except SingularBSum as exc:
            print(f"singular gain algebra: {exc}", file=sys.stderr)
            return EXIT_SINGULAR
        except (ConfigError, ParastabError, ValueError, OSError, Warning) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
