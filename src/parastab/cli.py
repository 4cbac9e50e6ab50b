"""Command-line entry point.

Subcommands: synthesize | simulate | verify | sweep.  A single INI-style
config file (sections and key=value pairs, parsed by configparser) drives
every run; unknown sections, keys, norms and output formats are rejected
so typos fail loudly, and so are more nonlinearity parameters than the
kind takes, a negative or NaN amplitude, an open-loop horizon below 1, a
negative snapshot stride, a sweep total_time that is not positive and
negative bisect_iters.
All defaults are echoed into the emitted metadata for reproducibility, and
every float in CSV output carries 17 significant digits.

Exit codes: 0 success, 2 config or validation error, 3 singular gain
algebra (a Gram sum or a cancellation that needs more than 400 working
digits, or a weight outside the float64 range), 4 blow-up under
--expect-decay, 5 failed verification checks.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .model import (
    NonlinearitySpec,
    ParastabError,
    ProblemSpec,
    cubic_reaction,
    fisher_reaction,
    linear_reaction,
    linearized_coefficient,
    polynomial_reaction,
    validate_spec,
)
from .spectral import (
    Spectrum,
    compute_spectrum,
    l2_norm,
    modes_to_csv,
    sobolev_norm,
    spectrum_to_csv,
)
from .synthesis import (
    SingularBSum,
    build_gains,
    continuous_limit,
    gain_matrices_to_csv,
    gains_to_json,
)
from .simulate import (
    UnstableStep,
    run_linear_closed_loop,
    run_open_loop,
    run_semilinear_closed_loop,
    seeded_initial_state,
    states_to_csv,
    trajectory_to_csv,
)
from .analysis import (
    DegenerateFit,
    VerificationReport,
    add_algebraic_checks,
    estimate_basin,
    basin_to_csv,
    fit_decay_rate,
    gamma_sweep_to_csv,
    lognorm_svg,
    run_verification,
    sweep_gammas,
    sweep_sampling_period,
    sweep_to_csv,
    DEFAULT_VERIFY_TOLERANCES,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_BLOWUP = 4
EXIT_VERIFY = 5


class ConfigError(ParastabError):
    """Malformed or unknown configuration content."""


_SCHEMA = {
    "problem": {
        "interval_length",
        "grid_points",
        "nonlinearity",
        "parameters",
        "equilibrium",
    },
    "synthesis": {"target_rate", "gammas", "sampling_period"},
    "simulation": {
        "horizon",
        "substeps",
        "initial",
        "amplitude",
        "norm",
        "sobolev_order",
        "dynamics",
        "open_loop_horizon",
    },
    "output": {"directory", "formats", "snapshot_stride"},
    "verify": {"horizon", "seed"} | set(DEFAULT_VERIFY_TOLERANCES),
    "sweep": {
        "T",
        "gamma",
        "amplitude",
        "total_time",
        "seed",
        "bisect_iters",
    },
}

_FORMATS = {"csv", "json", "svg", "modes", "matrices", "states"}


@dataclasses.dataclass
class RunConfig:
    """Parsed and defaulted configuration (one attribute per schema key)."""

    spec: ProblemSpec
    horizon: int
    initial: str
    amplitude: float
    norm: str
    sobolev_order: float
    dynamics: str
    open_loop_horizon: int
    out_dir: str
    formats: tuple[str, ...]
    snapshot_stride: int
    verify_horizon: int
    verify_seed: int
    verify_tolerances: dict
    sweep_periods: tuple[float, ...]
    sweep_gammas: tuple[tuple[float, ...], ...]
    sweep_amplitudes: tuple[float, ...]
    sweep_total_time: float
    sweep_seed: int
    sweep_bisect_iters: int

    def echo(self) -> dict:
        spec = self.spec
        return {
            "problem": {
                "interval_length": spec.interval_length,
                "grid_points": spec.grid_points,
                "nonlinearity": spec.nonlinearity.kind,
                "parameters": list(spec.nonlinearity.parameters),
                "equilibrium": "per-node table",
            },
            "synthesis": {
                "target_rate": spec.target_rate,
                "gammas": "auto" if spec.gammas is None else list(spec.gammas),
                "sampling_period": spec.sampling_period,
            },
            "simulation": {
                "horizon": self.horizon,
                "substeps": spec.substeps_per_hold,
                "initial": self.initial,
                "amplitude": self.amplitude,
                "norm": self.norm,
                "sobolev_order": self.sobolev_order,
                "dynamics": self.dynamics,
                "open_loop_horizon": self.open_loop_horizon,
            },
            "output": {
                "directory": self.out_dir,
                "formats": list(self.formats),
                "snapshot_stride": self.snapshot_stride,
            },
            "verify": {
                "horizon": self.verify_horizon,
                "seed": self.verify_seed,
                **self.verify_tolerances,
            },
            "sweep": {
                "T": list(self.sweep_periods),
                "gamma": [list(g) for g in self.sweep_gammas],
                "amplitude": list(self.sweep_amplitudes),
                "total_time": self.sweep_total_time,
                "seed": self.sweep_seed,
                "bisect_iters": self.sweep_bisect_iters,
            },
        }


def _float_list(raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(float(tok) for tok in raw.replace(";", ",").split(",") if tok.strip())


def _gamma_lists(raw: str) -> tuple[tuple[float, ...], ...]:
    out = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if chunk:
            out.append(tuple(float(tok) for tok in chunk.split(",") if tok.strip()))
    return tuple(out)


def _build_nonlinearity(kind: str, parameters: tuple[float, ...]) -> NonlinearitySpec:
    kind = kind.strip().lower()
    if kind == "cubic":
        if parameters:
            raise ConfigError("cubic nonlinearity takes no parameters")
        return cubic_reaction()
    if kind in ("linear", "linear-only", "fisher"):
        if len(parameters) > 1:
            raise ConfigError(f"{kind} nonlinearity takes at most one parameter")
        if kind == "fisher":
            return fisher_reaction(parameters[0] if parameters else 15.0)
        return linear_reaction(parameters[0] if parameters else 0.0)
    if kind in ("polynomial", "custom-polynomial"):
        return polynomial_reaction(parameters)
    raise ConfigError(f"unknown nonlinearity {kind!r}")


def load_config(path: str | Path) -> RunConfig:
    """Parse and strictly validate the INI config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # keep key case: the sweep axis key is "T"
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(parser[section]) - _SCHEMA[section]
        if unknown:
            raise ConfigError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )

    def get(section: str, key: str, default: str) -> str:
        return parser.get(section, key, fallback=default).strip()

    parameters = _float_list(get("problem", "parameters", ""))
    nonlinearity = _build_nonlinearity(
        get("problem", "nonlinearity", "fisher"), parameters
    )
    equilibrium_raw = get("problem", "equilibrium", "0.0")
    if equilibrium_raw.startswith("file:"):
        equilibrium = np.loadtxt(equilibrium_raw[5:], dtype=float)
    else:
        equilibrium = float(equilibrium_raw)
    gammas_raw = get("synthesis", "gammas", "auto")
    gammas = None if gammas_raw.lower() == "auto" else _float_list(gammas_raw)

    spec = ProblemSpec(
        nonlinearity=nonlinearity,
        grid_points=int(get("problem", "grid_points", "200")),
        interval_length=float(get("problem", "interval_length", "1.0")),
        equilibrium=equilibrium,
        sampling_period=float(get("synthesis", "sampling_period", "0.2")),
        target_rate=float(get("synthesis", "target_rate", "1.0")),
        gammas=gammas,
        substeps_per_hold=int(get("simulation", "substeps", "64")),
    )

    dynamics = get("simulation", "dynamics", "")
    if not dynamics:
        dynamics = "linear" if nonlinearity.kind == "linear-only" else "semilinear"
    if dynamics not in ("linear", "semilinear"):
        raise ConfigError(f"dynamics must be linear or semilinear, got {dynamics!r}")

    norm = get("simulation", "norm", "l2")
    if norm not in ("l2", "sobolev"):
        raise ConfigError(f"norm must be l2 or sobolev, got {norm!r}")
    formats = tuple(
        tok.strip() for tok in get("output", "formats", "csv,json").split(",") if tok.strip()
    )
    unknown = set(formats) - _FORMATS
    if unknown:
        raise ConfigError(
            f"unknown output format(s) {', '.join(sorted(unknown))}; "
            f"choose from {', '.join(sorted(_FORMATS))}"
        )

    amplitude = float(get("simulation", "amplitude", "1.0"))
    if not amplitude >= 0:
        raise ConfigError(f"amplitude must be 0 or positive, got {amplitude}")
    open_loop_horizon = int(get("simulation", "open_loop_horizon", "5"))
    if open_loop_horizon < 1:
        raise ConfigError(f"open_loop_horizon must be at least 1, got {open_loop_horizon}")
    snapshot_stride = int(get("output", "snapshot_stride", "0"))
    if snapshot_stride < 0:
        raise ConfigError(f"snapshot_stride must be 0 or positive, got {snapshot_stride}")

    total_time = float(get("sweep", "total_time", "10.0"))
    if not total_time > 0:
        raise ConfigError(f"[sweep] total_time must be positive, got {total_time}")
    bisect_iters = int(get("sweep", "bisect_iters", "20"))
    if bisect_iters < 0:
        raise ConfigError(f"[sweep] bisect_iters must be 0 or positive, got {bisect_iters}")

    tolerances = {}
    if parser.has_section("verify"):
        for key in parser["verify"]:
            if key in DEFAULT_VERIFY_TOLERANCES:
                tolerances[key] = float(parser["verify"][key])

    return RunConfig(
        spec=spec,
        horizon=int(get("simulation", "horizon", "50")),
        initial=get("simulation", "initial", "random:7"),
        amplitude=amplitude,
        norm=norm,
        sobolev_order=float(get("simulation", "sobolev_order", "0.25")),
        dynamics=dynamics,
        open_loop_horizon=open_loop_horizon,
        out_dir=get("output", "directory", "out"),
        formats=formats,
        snapshot_stride=snapshot_stride,
        verify_horizon=int(get("verify", "horizon", "10")),
        verify_seed=int(get("verify", "seed", "7")),
        verify_tolerances=tolerances,
        sweep_periods=_float_list(get("sweep", "T", "")),
        sweep_gammas=_gamma_lists(get("sweep", "gamma", "")),
        sweep_amplitudes=_float_list(get("sweep", "amplitude", "")),
        sweep_total_time=total_time,
        sweep_seed=int(get("sweep", "seed", "7")),
        sweep_bisect_iters=bisect_iters,
    )


def _initial_state(config: RunConfig, spectrum: Spectrum) -> np.ndarray:
    """Deviation-from-equilibrium initial state per the config."""
    raw = config.initial
    kind, _, arg = raw.partition(":")
    kind = kind.strip().lower()
    if kind == "mode":
        index = int(arg)
        if not 1 <= index <= spectrum.m:
            raise ConfigError(f"mode index {index} out of range 1..{spectrum.m}")
        y = spectrum.modes[:, index - 1].copy()
        scale = (
            l2_norm(y, spectrum.h)
            if config.norm == "l2"
            else sobolev_norm(y, config.sobolev_order, spectrum.h)
        )
        return y * (config.amplitude / scale)
    if kind == "random":
        return seeded_initial_state(
            spectrum,
            int(arg),
            amplitude=config.amplitude,
            norm=config.norm,
            sobolev_order=config.sobolev_order,
        )
    if kind == "file":
        y = np.loadtxt(arg, dtype=float)
        if y.shape != (spectrum.m,):
            raise ConfigError(
                f"initial state file must hold {spectrum.m} interior values"
            )
        return y
    raise ConfigError(f"initial must be mode:K, random:SEED or file:PATH, got {raw!r}")


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


def _setup(config: RunConfig):
    problem = validate_spec(config.spec)
    c = linearized_coefficient(problem)
    spectrum = compute_spectrum(problem, c, config.spec.target_rate)
    return problem, spectrum


def cmd_synthesize(config: RunConfig, out_dir: Path) -> int:
    problem, spectrum = _setup(config)
    report = VerificationReport()
    report.metadata["config"] = config.echo()
    report.metadata["unstable_count"] = spectrum.unstable_count
    _write(out_dir, "spectrum.csv", spectrum_to_csv(spectrum))
    if "modes" in config.formats:
        _write(out_dir, "modes.csv", modes_to_csv(spectrum))
    if spectrum.unstable_count == 0:
        print("no unstable modes: feedback is identically zero", file=sys.stderr)
        _write(out_dir, "verification.json", report.to_json())
        return EXIT_OK
    gains = build_gains(spectrum, config.spec.gammas, config.spec.sampling_period)
    continuous = continuous_limit(spectrum, config.spec.gammas)
    _write(out_dir, "gains.json", gains_to_json(gains, continuous))
    if "matrices" in config.formats:
        _write(out_dir, "gain_matrices.csv", gain_matrices_to_csv(gains))
    add_algebraic_checks(report, gains, config.verify_tolerances)
    _write(out_dir, "verification.json", report.to_json())
    return _report_checks(report)


def cmd_simulate(
    config: RunConfig, out_dir: Path, *, open_loop: bool, expect_decay: bool
) -> int:
    problem, spectrum = _setup(config)
    y0 = _initial_state(config, spectrum)
    stride = config.snapshot_stride or None
    metadata: dict = {"config": config.echo()}

    gains = None
    if spectrum.unstable_count > 0:
        gains = build_gains(spectrum, config.spec.gammas, config.spec.sampling_period)

    options = {"snapshot_stride": stride, "sobolev_order": config.sobolev_order}
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
            # the sweeps' record rule: eight records per hold when the
            # substeps are a multiple of eight
            baseline = run_open_loop(
                problem, spectrum, y0, config.open_loop_horizon,
                snapshot_stride=max(problem.spec.substeps_per_hold // 8, 1),
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
    problem = validate_spec(config.spec)
    if not values[axis]:
        raise ConfigError(f"sweep axis {axis} needs a non-empty [sweep] {axis} list")
    if axis == "T":
        result = sweep_sampling_period(
            problem,
            config.sweep_periods,
            gammas=config.spec.gammas,
            total_time=config.sweep_total_time,
            seed=config.sweep_seed,
        )
        table = sweep_to_csv(result.rows)
    elif axis == "gamma":
        result = sweep_gammas(
            problem,
            config.sweep_gammas,
            total_time=config.sweep_total_time,
            seed=config.sweep_seed,
        )
        table = gamma_sweep_to_csv(result.rows)
    else:
        # the T and gamma sweeps compute their own spectrum; the basin needs one here
        c = linearized_coefficient(problem)
        spectrum = compute_spectrum(problem, c, config.spec.target_rate)
        gains = build_gains(spectrum, config.spec.gammas, config.spec.sampling_period)
        result = estimate_basin(
            problem,
            spectrum,
            gains,
            config.sweep_amplitudes,
            horizon=config.horizon,
            seed=config.sweep_seed,
            bisect_iters=config.sweep_bisect_iters,
        )
        table = basin_to_csv(result)
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
    try:
        config = load_config(args.config)
        if args.refine:
            config.spec = dataclasses.replace(
                config.spec,
                grid_points=2 * config.spec.grid_points,
                substeps_per_hold=2 * config.spec.substeps_per_hold,
            )
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
    except (ConfigError, ParastabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
