"""Quantitative checks, decay-rate fits, parameter sweeps, reporting.

Every structural identity of the synthesized loop is re-verified here on
the computed objects: the resolution of the identity by the normalized
Gram terms, the sampled closed-loop matrix identity, the contraction bound
in the inverse-Gram metric, the lift trace identity, the half-state
identity at samples, and the small-period limit of the gain row.  Checks
return measured residuals; the report records them alongside the
tolerances they were held to.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace as dc_replace, asdict
from typing import Iterable, Sequence

import numpy as np

from . import _exact
from .model import ParastabError, ProblemSpec, ValidatedProblem, validate_spec, linearized_coefficient
from .spectral import Spectrum, compute_spectrum, project
from .synthesis import (
    ContinuousGainSet,
    GainSet,
    build_gains,
    continuous_limit,
    exact_system,
)
from .lifting import dirichlet_lift
from .simulate import (
    Trajectory,
    decompose_z,
    run_linear_closed_loop,
    run_semilinear_closed_loop,
    seeded_initial_state,
)

CONTRACTION_SLACK = 1e-8


class DegenerateFit(ParastabError):
    """Norm history unusable for a log-linear fit."""


@dataclass(frozen=True)
class CheckResult:
    """One verified identity: measured residual against its tolerance."""

    name: str
    law: str
    residual: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    """Append-only collection of check results plus run metadata."""

    checks: list[CheckResult] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(
        self,
        name: str,
        law: str,
        residual: float,
        tolerance: float,
        *,
        larger_is_worse: bool = True,
        details: dict | None = None,
    ) -> CheckResult:
        passed = residual <= tolerance if larger_is_worse else residual >= tolerance
        result = CheckResult(
            name=name,
            law=law,
            residual=float(residual),
            tolerance=float(tolerance),
            passed=bool(passed),
            details=details or {},
        )
        self.checks.append(result)
        return result

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> str:
        payload = {
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "metadata": self.metadata,
        }
        return json.dumps(payload, indent=2, sort_keys=True, default=str)


@dataclass(frozen=True)
class RecursionCheck:
    """Residuals of the sampled modal recursion."""

    matrix_residual: float
    trajectory_residual: float | None
    per_sample: np.ndarray | None


def check_modal_recursion(
    gains: GainSet,
    spectrum: Spectrum | None = None,
    trajectory: Trajectory | None = None,
) -> RecursionCheck:
    """Verify the one-sample update of the unstable coordinates.

    The matrix form (sample-to-sample update equals the weighted sum of
    normalized Gram terms) is evaluated in adaptive precision and holds for
    every synthesized gain set.  Given a trajectory, the PDE-stepped
    coordinates are additionally compared against that matrix at every
    sample pair.
    """
    matrix_residual = _exact.identity_residual(exact_system(gains))
    if trajectory is None:
        return RecursionCheck(matrix_residual, None, None)
    if spectrum is None:
        raise ValueError("trajectory check needs the spectrum")
    return RecursionCheck(matrix_residual, *_trajectory_recursion(gains, spectrum, trajectory))


def _trajectory_recursion(
    gains: GainSet, spectrum: Spectrum, trajectory: Trajectory
) -> tuple[float, np.ndarray]:
    """(worst, per-sample) relative residual of the stepped unstable
    coordinates against the closed-loop matrix, sample to sample."""
    samples = trajectory.sample_states()
    coords = np.array([project(y, spectrum, gains.n) for y in samples])
    cmat = gains.closed_loop_matrix
    res = []
    for i in range(coords.shape[0] - 1):
        scale = np.linalg.norm(coords[i])
        if scale == 0.0:
            continue
        res.append(np.linalg.norm(coords[i + 1] - cmat @ coords[i]) / scale)
    per_sample = np.array(res)
    return (float(per_sample.max()) if per_sample.size else 0.0), per_sample


def check_contraction(gains: GainSet) -> tuple[float, float]:
    """(spectral radius of the symmetrized update, its bound e^{-gamma_1 T})."""
    return _exact.contraction_bound(exact_system(gains))


def check_resolution(gains: GainSet) -> float:
    """Frobenius residual of (Gram sum)(inverse) - I, adaptive precision."""
    return _exact.resolution_residual(exact_system(gains))


def add_algebraic_checks(
    report: VerificationReport, gains: GainSet, tolerances: dict
) -> None:
    """Add the resolution, recursion-matrix and contraction records.

    All three are evaluated on one adaptive-precision rebuild of the gains;
    ``tolerances`` override DEFAULT_VERIFY_TOLERANCES.
    """
    tol = {**DEFAULT_VERIFY_TOLERANCES, **tolerances}
    exact = exact_system(gains)
    report.add(
        "resolution-identity",
        "gram-sum-times-inverse",
        _exact.resolution_residual(exact),
        tol["resolution_identity"],
    )
    report.add(
        "recursion-identity",
        "sampled-modal-recursion-matrix",
        _exact.identity_residual(exact),
        tol["recursion_identity"],
    )
    radius, bound = _exact.contraction_bound(exact)
    report.add(
        "contraction-bound",
        "symmetrized-update-spectral-radius",
        radius / bound - 1.0,
        tol["contraction_slack"],
        details={"spectral_radius": radius, "bound": bound},
    )


def check_lift_identity(
    spectrum: Spectrum, gains: GainSet, v: float = 1.0
) -> tuple[float, np.ndarray]:
    """Trace identity of the lifts: <psi_k, phi_i>_h = -weight_{ik} v flux_i.

    Returns the worst relative residual over all mode/placement pairs and
    the full residual matrix (rows: modes, columns: placements).
    """
    n = gains.n
    res = np.empty((n, n))
    for k in range(1, n + 1):
        psi = dirichlet_lift(spectrum, gains, k, v).profile
        coords = project(psi, spectrum, n)
        for i in range(n):
            target = -gains.lambda_diags[i, k - 1] * v * gains.flux[i]
            res[i, k - 1] = abs(coords[i] - target) / abs(target)
    return float(res.max()), res


def check_half_identity(
    trajectory: Trajectory, gains: GainSet, spectrum: Spectrum
) -> float:
    """Worst relative violation of 'sampled state doubles inside z' over samples."""
    dec = decompose_z(trajectory, gains, spectrum)
    return float(dec.half_identity_residuals.max())


def gain_limit_distance(
    spectrum: Spectrum,
    gammas: Sequence[float] | None,
    period: float,
    continuous: ContinuousGainSet | None = None,
) -> float:
    """Relative distance between the sampled gain row at ``period`` and its limit."""
    if continuous is None:
        continuous = continuous_limit(spectrum, gammas)
    gains = build_gains(spectrum, gammas, period)
    scale = np.linalg.norm(continuous.gain_row)
    return float(np.linalg.norm(gains.gain_row - continuous.gain_row) / scale)


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponential rate of a norm history (decay positive)."""

    rate: float
    intercept: float
    rms_residual: float
    t_start: float
    t_end: float
    n_points: int
    norm_kind: str


def fit_decay_rate(
    trajectory: Trajectory,
    norm_kind: str = "l2",
    t_start: float | None = None,
) -> RateFit:
    """Fit log(norm) = a - rate * t on [t_start, end] of the trajectory.

    t_start defaults to two hold intervals, skipping the initial transient.
    Growth comes out as a negative rate rather than an error, so open-loop
    baselines can be fitted with the same call.
    """
    if norm_kind == "l2":
        norms = trajectory.l2_norms
    elif norm_kind == "sobolev":
        norms = trajectory.sobolev_norms
    else:
        raise ValueError(f"unknown norm_kind {norm_kind!r}")
    if t_start is None:
        t_start = 2.0 * trajectory.schedule.period
    mask = trajectory.times >= t_start - 1e-12
    t = trajectory.times[mask]
    v = norms[mask]
    if t.size < 10:
        raise DegenerateFit(f"only {t.size} snapshots past t = {t_start}")
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        raise DegenerateFit("norms hit zero or overflow inside the fit window")
    logv = np.log(v)
    slope, intercept = np.polyfit(t, logv, 1)
    resid = logv - (slope * t + intercept)
    return RateFit(
        rate=float(-slope),
        intercept=float(intercept),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
        t_start=float(t[0]),
        t_end=float(t[-1]),
        n_points=int(t.size),
        norm_kind=norm_kind,
    )


@dataclass(frozen=True)
class SweepRow:
    period: float
    gain_row: tuple[float, ...]
    gain_distance: float
    contraction_bound: float
    fitted_rate: float | None
    condition_number: float
    note: str = ""


NormHistory = tuple[str, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    histories: tuple[NormHistory, ...]


def _sweep_runs(
    problem: ValidatedProblem,
    spectrum: Spectrum,
    cases: Iterable[tuple[float, Sequence[float] | None, str]],
    *,
    total_time: float,
    seed: int,
    substeps: int | None = None,
    note_synthesis_errors: bool,
):
    """Synthesize, run and fit one (period, gammas, label) case at a time.

    Each seeded closed loop covers ``total_time`` (at least three holds) and
    keeps every eighth substep.  Returns (gains, e^{-gamma_1 T}, fitted rate,
    note) per case and the histories of the fitted runs.  A failed run or fit
    becomes the note; so does a failed synthesis if ``note_synthesis_errors``,
    otherwise it propagates.
    """
    y0 = seeded_initial_state(spectrum, seed)
    sub = problem.spec.substeps_per_hold if substeps is None else substeps
    outcomes = []
    histories: list[NormHistory] = []
    for period, gam, label in cases:
        prob = validate_spec(dc_replace(problem.spec, sampling_period=period))
        gains = rate = None
        note = ""
        try:
            gains = build_gains(spectrum, gam, period)
            horizon = max(int(np.ceil(total_time / period)), 3)
            traj = run_linear_closed_loop(
                prob, spectrum, gains, y0, horizon,
                substeps=sub, snapshot_stride=max(sub // 8, 1),
            )
            rate = fit_decay_rate(traj).rate
            histories.append((label, traj.times, traj.l2_norms))
        except ParastabError as exc:
            if gains is None and not note_synthesis_errors:
                raise
            note = f"{type(exc).__name__}: {exc}"
        placed = gam if gains is None else gains.gammas
        bound = float(np.exp(-placed[0] * period)) if placed else np.nan
        outcomes.append((gains, bound, rate, note))
    return outcomes, tuple(histories)


def sweep_sampling_period(
    problem: ValidatedProblem,
    periods: Iterable[float],
    *,
    gammas: Sequence[float] | None = None,
    total_time: float = 10.0,
    seed: int = 7,
    substeps: int | None = None,
) -> SweepResult:
    """Gain behavior and closed-loop rate across sampling periods.

    The spectrum (hence the continuous-time limit) is period-independent
    and computed once; each row synthesizes, runs a seeded closed loop
    covering ``total_time``, and fits the decay rate.  Rows with failed
    runs carry a note instead of a rate; a failed synthesis raises.  Norm
    histories of the runs come back alongside the table for plotting.
    """
    periods = [float(p) for p in periods]
    if not periods or any(p <= 0 for p in periods):
        raise ValueError("periods must be a non-empty list of positive values")
    c = linearized_coefficient(problem)
    spectrum = compute_spectrum(problem, c, problem.spec.target_rate)
    gam = gammas if gammas is not None else problem.spec.gammas
    continuous = continuous_limit(spectrum, gam)
    outcomes, histories = _sweep_runs(
        problem, spectrum, [(p, gam, f"T={p:g}") for p in periods],
        total_time=total_time, seed=seed, substeps=substeps,
        note_synthesis_errors=False,
    )
    scale = np.linalg.norm(continuous.gain_row)
    rows = tuple(
        SweepRow(
            period=period,
            gain_row=tuple(float(x) for x in gains.gain_row),
            gain_distance=float(np.linalg.norm(gains.gain_row - continuous.gain_row) / scale),
            contraction_bound=bound,
            fitted_rate=rate,
            condition_number=gains.condition_number,
            note=note,
        )
        for period, (gains, bound, rate, note) in zip(periods, outcomes)
    )
    return SweepResult(rows=rows, histories=histories)


@dataclass(frozen=True)
class GammaSweepRow:
    gammas: tuple[float, ...]
    gain_row: tuple[float, ...]
    contraction_bound: float
    fitted_rate: float | None
    condition_number: float
    note: str = ""


@dataclass(frozen=True)
class GammaSweepResult:
    rows: tuple[GammaSweepRow, ...]
    histories: tuple[NormHistory, ...]


def sweep_gammas(
    problem: ValidatedProblem,
    gamma_lists: Sequence[Sequence[float]],
    *,
    total_time: float = 10.0,
    seed: int = 7,
) -> GammaSweepResult:
    """Closed-loop behavior across placement-rate choices at the configured T.

    A list that fails to synthesize, run or fit gives a row with a note and
    no gain row.
    """
    if not gamma_lists:
        raise ValueError("need at least one placement list")
    c = linearized_coefficient(problem)
    spectrum = compute_spectrum(problem, c, problem.spec.target_rate)
    gamma_lists = [tuple(float(g) for g in gam) for gam in gamma_lists]
    cases = [
        (problem.period, gam, f"gammas={','.join(f'{g:g}' for g in gam)}")
        for gam in gamma_lists
    ]
    outcomes, histories = _sweep_runs(
        problem, spectrum, cases, total_time=total_time, seed=seed,
        note_synthesis_errors=True,
    )
    rows = tuple(
        GammaSweepRow(
            gammas=gam,
            gain_row=() if note else tuple(float(x) for x in gains.gain_row),
            contraction_bound=bound,
            fitted_rate=rate,
            condition_number=np.nan if note else gains.condition_number,
            note=note,
        )
        for gam, (gains, bound, rate, note) in zip(gamma_lists, outcomes)
    )
    return GammaSweepResult(rows=rows, histories=histories)


@dataclass(frozen=True)
class BasinRow:
    amplitude: float
    decayed: bool
    blowup_time: float | None
    fitted_rate: float | None


@dataclass(frozen=True)
class BasinReport:
    rows: tuple[BasinRow, ...]
    largest_decaying: float | None
    smallest_diverging: float | None
    refined_edge: float | None
    histories: tuple[NormHistory, ...] = ()


def _basin_probe(
    problem: ValidatedProblem,
    spectrum: Spectrum,
    gains: GainSet,
    amplitude: float,
    horizon: int,
    seed: int,
    histories: list[NormHistory] | None = None,
) -> BasinRow:
    if amplitude == 0.0:
        return BasinRow(0.0, True, None, None)
    y0 = seeded_initial_state(
        spectrum, seed, amplitude=amplitude, norm="sobolev"
    ) + problem.equilibrium_values[1:-1]
    traj = run_semilinear_closed_loop(problem, spectrum, gains, y0, horizon)
    if histories is not None and traj.times.size > 1:
        histories.append((f"amp={amplitude:g}", traj.times, traj.sobolev_norms))
    if traj.blowup_time is not None:
        return BasinRow(amplitude, False, traj.blowup_time, None)
    try:
        rate = fit_decay_rate(traj, norm_kind="sobolev").rate
    except DegenerateFit:
        return BasinRow(amplitude, False, None, None)
    return BasinRow(amplitude, rate > 0.0, None, rate)


def estimate_basin(
    problem: ValidatedProblem,
    spectrum: Spectrum,
    gains: GainSet,
    amplitudes: Iterable[float],
    *,
    horizon: int = 50,
    seed: int = 7,
    bisect_iters: int = 0,
) -> BasinReport:
    """Probe the semilinear loop over initial amplitudes (surrogate norm).

    Flags each amplitude as decayed or not; blow-up is recorded data, never
    an exception.  The largest decaying amplitude is the empirical basin
    estimate; with ``bisect_iters`` > 0 the edge between the largest
    decaying and smallest diverging amplitude is refined by bisection.
    The decayed-flag pattern need not be monotone and is reported as is.
    """
    histories: list[NormHistory] = []
    rows = [
        _basin_probe(problem, spectrum, gains, float(a), horizon, seed, histories)
        for a in amplitudes
    ]
    decayed = [r.amplitude for r in rows if r.decayed]
    diverged = [r.amplitude for r in rows if not r.decayed]
    largest_decaying = max(decayed) if decayed else None
    smallest_diverging = min(diverged) if diverged else None
    refined = None
    if (
        bisect_iters > 0
        and largest_decaying is not None
        and smallest_diverging is not None
        and largest_decaying < smallest_diverging
    ):
        lo, hi = largest_decaying, smallest_diverging
        for _ in range(bisect_iters):
            mid = 0.5 * (lo + hi)
            row = _basin_probe(problem, spectrum, gains, mid, horizon, seed)
            if row.decayed:
                lo = mid
            else:
                hi = mid
        refined = lo
    return BasinReport(
        rows=tuple(rows),
        largest_decaying=largest_decaying,
        smallest_diverging=smallest_diverging,
        refined_edge=refined,
        histories=tuple(histories),
    )


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = ["T,gain_row,gain_distance,contraction_bound,fitted_rate,condition_number,note"]
    for r in rows:
        gain = ";".join(f"{x:.17g}" for x in r.gain_row)
        rate = "" if r.fitted_rate is None else f"{r.fitted_rate:.17g}"
        lines.append(
            f"{r.period:.17g},{gain},{r.gain_distance:.17g},"
            f"{r.contraction_bound:.17g},{rate},{r.condition_number:.17g},{r.note}"
        )
    return "\n".join(lines) + "\n"


def gamma_sweep_to_csv(rows: Sequence[GammaSweepRow]) -> str:
    lines = ["gammas,gain_row,contraction_bound,fitted_rate,condition_number,note"]
    for r in rows:
        gam = ";".join(f"{x:.17g}" for x in r.gammas)
        gain = ";".join(f"{x:.17g}" for x in r.gain_row)
        rate = "" if r.fitted_rate is None else f"{r.fitted_rate:.17g}"
        lines.append(
            f"{gam},{gain},{r.contraction_bound:.17g},{rate},"
            f"{r.condition_number:.17g},{r.note}"
        )
    return "\n".join(lines) + "\n"


def basin_to_csv(report: BasinReport) -> str:
    lines = ["amplitude,decayed,blowup_time,fitted_rate"]
    for r in report.rows:
        bt = "" if r.blowup_time is None else f"{r.blowup_time:.17g}"
        rate = "" if r.fitted_rate is None else f"{r.fitted_rate:.17g}"
        lines.append(f"{r.amplitude:.17g},{int(r.decayed)},{bt},{rate}")
    edge = report.refined_edge if report.refined_edge is not None else report.largest_decaying
    lines.append(f"# empirical_basin_edge,{'' if edge is None else format(edge, '.17g')}")
    return "\n".join(lines) + "\n"


DEFAULT_VERIFY_TOLERANCES = {
    "orthonormality": 1e-12,
    "resolution_identity": 1e-10,
    "recursion_identity": 1e-10,
    "contraction_slack": CONTRACTION_SLACK,
    "lift_identity": 1e-2,
    "lift_ratio": 3.0,
    "half_identity": 1e-2,
    "half_ratio": 1.0,
    "trajectory_recursion": 5e-3,
    "trajectory_ratio": 3.0,
    "limit_distance": 1e-5,
    "limit_ratio_low": 1.6,
    "limit_ratio_high": 2.4,
}


def orthonormality_residual(spectrum: Spectrum) -> float:
    gram = spectrum.h * (spectrum.modes.T @ spectrum.modes)
    return float(np.abs(gram - np.eye(spectrum.m)).max())


def run_verification(
    spec: ProblemSpec,
    *,
    tolerances: dict | None = None,
    horizon: int = 10,
    seed: int = 7,
) -> VerificationReport:
    """Full identity suite at the configured grid plus one refinement (2M).

    Grid-dependent residuals (lift trace identity, half-state identity,
    sampled recursion along a stepped trajectory) are measured at M and 2M
    to demonstrate their convergence order; algebraic identities are
    checked in adaptive precision.  With no unstable modes the suite
    reduces to the spectral checks.
    """
    tol = dict(DEFAULT_VERIFY_TOLERANCES)
    tol.update(tolerances or {})
    report = VerificationReport()
    problem = validate_spec(spec)
    report.metadata.update(
        grid_points=problem.m,
        sampling_period=problem.period,
        target_rate=spec.target_rate,
    )

    def grid_stage(points: int, substeps: int):
        prob = validate_spec(
            dc_replace(spec, grid_points=points, substeps_per_hold=substeps)
        )
        c = linearized_coefficient(prob)
        spectrum = compute_spectrum(prob, c, spec.target_rate)
        return prob, spectrum

    def add_refined(name, law, order_law, coarse, fine, tol_key, ratio_key):
        """A grid-dependent residual at M and its convergence ratio to 2M."""
        report.add(name, law, coarse, tol[tol_key])
        report.add(
            f"{name}-convergence",
            order_law,
            coarse / fine if fine > 0 else np.inf,
            tol[ratio_key],
            larger_is_worse=False,
            details={"coarse": coarse, "fine": fine},
        )

    prob_a, spec_a = grid_stage(spec.grid_points, spec.substeps_per_hold)
    report.metadata["unstable_count"] = spec_a.unstable_count
    report.add(
        "orthonormality",
        "modes-h-orthonormal",
        orthonormality_residual(spec_a),
        tol["orthonormality"],
    )
    if spec_a.unstable_count == 0:
        report.metadata["note"] = "no unstable modes: feedback identically zero"
        return report

    prob_b, spec_b = grid_stage(2 * spec.grid_points, 2 * spec.substeps_per_hold)
    gains_a = build_gains(spec_a, spec.gammas, spec.sampling_period)
    gains_b = build_gains(spec_b, spec.gammas, spec.sampling_period)
    report.metadata["condition_number"] = gains_a.condition_number
    add_algebraic_checks(report, gains_a, tol)

    lift_a, _ = check_lift_identity(spec_a, gains_a)
    lift_b, _ = check_lift_identity(spec_b, gains_b)
    add_refined(
        "lift-identity", "lift-trace-identity", "lift-trace-identity-order",
        lift_a, lift_b, "lift_identity", "lift_ratio",
    )

    y0_a = seeded_initial_state(spec_a, seed)
    y0_b = seeded_initial_state(spec_b, seed)
    try:
        traj_a = run_linear_closed_loop(prob_a, spec_a, gains_a, y0_a, horizon)
        traj_b = run_linear_closed_loop(prob_b, spec_b, gains_b, y0_b, horizon)
        rec_a, _ = _trajectory_recursion(gains_a, spec_a, traj_a)
        rec_b, _ = _trajectory_recursion(gains_b, spec_b, traj_b)
        add_refined(
            "trajectory-recursion", "sampled-modal-recursion-trajectory",
            "sampled-modal-recursion-order", rec_a, rec_b,
            "trajectory_recursion", "trajectory_ratio",
        )
        half_a = check_half_identity(traj_a, gains_a, spec_a)
        half_b = check_half_identity(traj_b, gains_b, spec_b)
        add_refined(
            "half-identity", "sampled-state-doubling", "sampled-state-doubling-order",
            half_a, half_b, "half_identity", "half_ratio",
        )
    except ParastabError as exc:
        report.add(
            "trajectory-suite",
            "closed-loop-run",
            np.inf,
            tol["trajectory_recursion"],
            details={"error": f"{type(exc).__name__}: {exc}"},
        )

    continuous = continuous_limit(spec_a, spec.gammas)
    dist_tiny = gain_limit_distance(spec_a, spec.gammas, 1e-6, continuous)
    report.add(
        "small-period-limit",
        "gain-row-limit-distance",
        dist_tiny,
        tol["limit_distance"],
    )
    dist_coarse = gain_limit_distance(spec_a, spec.gammas, 1e-2, continuous)
    dist_fine = gain_limit_distance(spec_a, spec.gammas, 5e-3, continuous)
    ratio = dist_coarse / dist_fine if dist_fine > 0 else np.inf
    in_window = tol["limit_ratio_low"] <= ratio <= tol["limit_ratio_high"]
    report.checks.append(
        CheckResult(
            name="small-period-order",
            law="gain-row-first-order-in-period",
            residual=float(ratio),
            tolerance=tol["limit_ratio_high"],
            passed=bool(in_window),
            details={
                "window": [tol["limit_ratio_low"], tol["limit_ratio_high"]],
                "coarse": dist_coarse,
                "fine": dist_fine,
            },
        )
    )
    return report


_SVG_COLORS = ("#1f6fb2", "#c4422d", "#3a8f4e", "#8358a8", "#b08e23", "#4f4f4f")


def lognorm_svg(series: Sequence[tuple[str, np.ndarray, np.ndarray]]) -> str:
    """Hand-rolled log-norm plot (t on x, log10 norm on y), one line per run.

    Deterministic output with no plotting dependency; norms at or below
    zero are dropped from their series.
    """
    width, height, margin = 640, 420, 54
    cleaned = []
    for label, t, v in series:
        t = np.asarray(t, dtype=float)
        v = np.asarray(v, dtype=float)
        keep = np.isfinite(v) & (v > 0.0) & np.isfinite(t)
        if np.any(keep):
            cleaned.append((label, t[keep], np.log10(v[keep])))
    if not cleaned:
        raise ValueError("nothing to plot")
    tmin = min(s[1].min() for s in cleaned)
    tmax = max(s[1].max() for s in cleaned)
    ymin = min(s[2].min() for s in cleaned)
    ymax = max(s[2].max() for s in cleaned)
    if tmax == tmin:
        tmax = tmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0

    def sx(t: float) -> float:
        return margin + (t - tmin) / (tmax - tmin) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - ymin) / (ymax - ymin) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        tv = tmin + frac * (tmax - tmin)
        yv = ymin + frac * (ymax - ymin)
        parts.append(
            f'<text x="{sx(tv):.1f}" y="{height - margin + 16}" font-size="10" '
            f'text-anchor="middle">{tv:.4g}</text>'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{sy(yv):.1f}" font-size="10" '
            f'text-anchor="end">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 12}" font-size="11" '
        f'text-anchor="middle">t</text>'
    )
    parts.append(
        f'<text x="14" y="{height / 2:.1f}" font-size="11" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2:.1f})">log10 norm</text>'
    )
    for idx, (label, t, logv) in enumerate(cleaned):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        points = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(t, logv))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.4" '
            f'points="{points}"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * idx + 10}" '
            f'font-size="10" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
