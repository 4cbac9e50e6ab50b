"""Quantitative checks, decay-rate fits, parameter sweeps, reporting.

Every record of synthesize and verify is one _RECORDS entry: its name and
law, its stage, the measure of its residual on one grid (a Grid), and its
bound, a [verify] tolerance key with its default or a (low, high) window
of two keys.  Space convergence is pde-gain's alone: it compares gain rows
on the doubled grids and steps nothing.  The [verify] keys (with their
defaults, DEFAULT_VERIFY_TOLERANCES, and windows, VERIFY_WINDOWS) come from
the table.  verify runs the _STAGES in order, stops after the spectrum when
nothing is unstable and records a trajectory stage that raises as one
suite record; synthesize runs the algebra stage on its gains.

The T and gamma sweeps run on a base Grid.  Each of their rows is the
Grid of a row spec, the base spec at the row's period or gammas, on the
base grid's spectrum.  So Grid.gains builds every gain set and
Grid.trajectory runs every seeded closed loop, at one record rule, and a
new axis is one more row-spec edit.  The rows share one type, SweepRow,
fitted and noted in _sweep_runs, and one writer, sweep_to_csv(rows,
axis), whose columns are declared once in _SWEEP_COLUMNS; the amplitude
sweep (estimate_basin) has its own rows and basin_to_csv.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace as dc_replace, asdict
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import _exact
from .model import ParastabError, ProblemSpec, ValidatedProblem, refined, validate_spec
from .spectral import Spectrum, linearized_spectrum, project
from .synthesis import GainSet, build_gains, continuous_limit, exact_system, feedback_row
from .lifting import dirichlet_lift
from .simulate import (
    Trajectory,
    decompose_z,
    run_linear_closed_loop,
    run_semilinear_closed_loop,
    seeded_initial_state,
)


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
        tolerance: float | None = None,
        *,
        window: tuple[float, float] | None = None,
        details: dict | None = None,
    ) -> CheckResult:
        """Record a residual held to the upper bound ``tolerance`` or to
        ``window`` = (low, high), tolerance high, inside which it passes."""
        if window is not None:
            low, tolerance = window
            passed = low <= residual <= tolerance
            details = {"window": [low, tolerance], **(details or {})}
        else:
            passed = residual <= tolerance
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
    radius, bound, _ = _exact.contraction_bound(exact_system(gains))
    return radius, bound


def check_resolution(gains: GainSet) -> float:
    """Frobenius residual of (Gram sum)(inverse) - I, adaptive precision."""
    return _exact.resolution_residual(exact_system(gains))


def add_algebraic_checks(
    report: VerificationReport, gains: GainSet, tolerances: dict
) -> None:
    """Add the algebra stage of _RECORDS (the resolution, recursion-matrix
    and contraction records), evaluated on the adaptive-precision system
    the gains were rounded from; ``tolerances`` override the defaults.  At
    a nonnegative slack the contraction record cannot fail on a system
    that builds: it sees neither the float64 gain nor the stepped plant
    (see _exact.contraction_bound)."""
    _add_stage(report, "algebra", Grid(None, gains=gains), tolerances)


def check_lift_identity(spectrum: Spectrum, gains: GainSet) -> tuple[float, np.ndarray]:
    """Trace identity of the unit lifts: <psi_k, phi_i>_h = -weight_{ik} flux_i.

    Returns the worst relative residual over all mode/placement pairs and
    the full residual matrix (rows: modes, columns: placements).
    """
    n = gains.n
    res = np.empty((n, n))
    for k in range(1, n + 1):
        coords = project(dirichlet_lift(spectrum, gains, k), spectrum, n)
        for i in range(n):
            target = -gains.lambda_diags[i, k - 1] * gains.flux[i]
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
    continuous: np.ndarray | None = None,
) -> float:
    """Relative distance between the sampled gain row at ``period`` and its
    limit, the continuous_limit row.  Both are read as rows only, with no
    full gain system built (synthesis.feedback_row)."""
    row = feedback_row(spectrum, gammas, float(period))
    if continuous is None:
        continuous = continuous_limit(spectrum, gammas)
    return _relative_distance(row, continuous)


def _relative_distance(row: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(row - reference) / np.linalg.norm(reference))


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
    """One case of a T or gamma sweep.  gain_distance is set on the T axis
    only; a noted gamma row has no gain row and a NaN condition number."""

    period: float
    gammas: tuple[float, ...]
    gain_row: tuple[float, ...]
    contraction_bound: float
    fitted_rate: float | None
    condition_number: float
    note: str = ""
    gain_distance: float | None = None


NormHistory = tuple[str, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    histories: tuple[NormHistory, ...]


def _sweep_runs(
    grid: Grid,
    cases: Iterable[tuple[ProblemSpec, str]],
    *,
    total_time: float,
    continuous: np.ndarray | None = None,
) -> SweepResult:
    """Fit one (row spec, label) case per row.

    A row is the Grid of its spec on grid's spectrum, at grid's seed, over
    total_time (finite and positive; at least three holds): its gains and
    seeded run come from that Grid.  A failed run or fit becomes the row's
    note.  With the ``continuous`` limit row (the T axis) a row carries its
    gain row's distance to it and a failed synthesis propagates; without it
    (the gamma axis) a failed synthesis is noted too, and a noted row shows
    no gain row and a NaN condition number.  The norm histories of the
    fitted runs come back with the rows.
    """
    if not 0 < total_time < math.inf:
        raise ValueError(f"total_time must be finite and positive, got {total_time}")
    rows: list[SweepRow] = []
    histories: list[NormHistory] = []
    for spec, label in cases:
        period = spec.sampling_period
        row = Grid(spec, max(int(np.ceil(total_time / period)), 3), grid.seed,
                   spectrum=grid.spectrum)
        gains = rate = None
        note = ""
        try:
            gains = row.gains
            rate = fit_decay_rate(row.trajectory).rate
            histories.append((label, row.trajectory.times, row.trajectory.l2_norms))
        except ParastabError as exc:
            if gains is None and continuous is not None:
                raise
            note = f"{type(exc).__name__}: {exc}"
        placed = spec.gammas if gains is None else gains.gammas
        shown = None if note and continuous is None else gains
        rows.append(SweepRow(
            period=period,
            gammas=tuple(placed),
            gain_row=() if shown is None else tuple(float(x) for x in shown.gain_row),
            contraction_bound=float(np.exp(-placed[0] * period)) if placed else np.nan,
            fitted_rate=rate,
            condition_number=np.nan if shown is None else shown.condition_number,
            note=note,
            gain_distance=(None if continuous is None
                           else _relative_distance(gains.gain_row, continuous)),
        ))
    return SweepResult(rows=tuple(rows), histories=tuple(histories))


def sweep_sampling_period(
    grid: Grid, periods: Iterable[float], *, total_time: float = 10.0
) -> SweepResult:
    """Gain behavior and closed-loop rate across sampling periods, at the
    grid's gammas and seed.

    The spectrum (hence the continuous-time limit) is period-independent
    and the grid's; each row synthesizes, runs a seeded closed loop
    covering ``total_time``, and fits the decay rate.  Rows with failed
    runs carry a note instead of a rate; a failed synthesis raises, and so
    does a period or total_time that is not finite and positive.  Norm
    histories of the runs come back alongside the table for plotting.
    """
    periods = [float(p) for p in periods]
    if not periods or any(not 0 < p < math.inf for p in periods):
        raise ValueError("periods must be a non-empty list of finite positive values")
    cases = [(dc_replace(grid.spec, sampling_period=p), f"T={p:g}") for p in periods]
    return _sweep_runs(grid, cases, total_time=total_time, continuous=grid.continuous)


def sweep_gammas(
    grid: Grid, gamma_lists: Sequence[Sequence[float]], *, total_time: float = 10.0
) -> SweepResult:
    """Closed-loop behavior across placement-rate choices at the grid's T
    and seed.

    A list that fails to synthesize, run or fit gives a row with a note and
    no gain row.
    """
    if not gamma_lists:
        raise ValueError("need at least one placement list")
    cases = [
        (dc_replace(grid.spec, gammas=gam), f"gammas={','.join(f'{g:g}' for g in gam)}")
        for gam in (tuple(float(g) for g in gam) for gam in gamma_lists)
    ]
    return _sweep_runs(grid, cases, total_time=total_time)


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
    decaying and smallest diverging amplitude is refined by bisection,
    which stops early once the midpoint rounds to an end of the bracket.
    The decayed-flag pattern need not be monotone and is reported as is.
    Raises ValueError for a negative, infinite or NaN amplitude.
    """
    amplitudes = [float(a) for a in amplitudes]
    if any(not 0 <= a < math.inf for a in amplitudes):
        raise ValueError(f"amplitudes must be 0 or positive and finite, got {amplitudes}")
    histories: list[NormHistory] = []
    rows = [
        _basin_probe(problem, spectrum, gains, a, horizon, seed, histories)
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
            if not lo < mid < hi:
                break  # float64 resolution: a probe could only repeat an end
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


def _number(x: float) -> str:
    return format(x, ".17g")


def _optional(x: float | None) -> str:
    return "" if x is None else _number(x)


def _joined(xs: Sequence[float]) -> str:
    return ";".join(map(_number, xs))


def _text(text: str) -> str:
    """A text cell, quoted as RFC 4180 quotes it (wrapped in '"', inner '"'
    doubled) when it holds a separator, a quote or a line break."""
    if any(ch in text for ch in ',;"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


_BOTH = ("T", "gamma")
# (header, SweepRow field, axes that write it, cell format), in column order
_SWEEP_COLUMNS = (
    ("T", "period", ("T",), _number),
    ("gammas", "gammas", ("gamma",), _joined),
    ("gain_row", "gain_row", _BOTH, _joined),
    ("gain_distance", "gain_distance", ("T",), _number),
    ("contraction_bound", "contraction_bound", _BOTH, _number),
    ("fitted_rate", "fitted_rate", _BOTH, _optional),
    ("condition_number", "condition_number", _BOTH, _number),
    ("note", "note", _BOTH, _text),
)


def sweep_to_csv(rows: Sequence[SweepRow], axis: str) -> str:
    """sweep_T.csv (axis "T") or sweep_gamma.csv (axis "gamma")."""
    if axis not in _BOTH:
        raise ValueError(f"unknown sweep axis {axis!r}")
    columns = [(head, name, cell) for head, name, axes, cell in _SWEEP_COLUMNS if axis in axes]
    lines = [",".join(head for head, _, _ in columns)]
    lines += [",".join(cell(getattr(r, name)) for _, name, cell in columns) for r in rows]
    return "\n".join(lines) + "\n"


def basin_to_csv(report: BasinReport) -> str:
    lines = ["amplitude,decayed,blowup_time,fitted_rate"]
    for r in report.rows:
        lines.append(
            f"{_number(r.amplitude)},{int(r.decayed)},"
            f"{_optional(r.blowup_time)},{_optional(r.fitted_rate)}"
        )
    edge = report.refined_edge if report.refined_edge is not None else report.largest_decaying
    lines.append(f"# empirical_basin_edge,{_optional(edge)}")
    return "\n".join(lines) + "\n"


def orthonormality_residual(spectrum: Spectrum) -> float:
    gram = spectrum.h * (spectrum.modes.T @ spectrum.modes)
    return float(np.abs(gram - np.eye(spectrum.m)).max())


class Grid:
    """What the commands, the records and the sweep rows read on one grid,
    each built on first read: the validated ``problem`` of ``spec`` and the
    spectrum of its linearization (the two as ``linearized``), its gains at
    the spec's gammas and period, the continuous-limit row, the seeded
    closed-loop run over ``horizon`` holds and ``fine``, the grid of
    model.refined(spec).  A spectrum or gains passed in are taken as built.
    The seeded run records at the sweeps' rule, ``record_stride``."""

    def __init__(self, spec: ProblemSpec | None, horizon: int = 10, seed: int = 7,
                 gains: GainSet | None = None, spectrum: Spectrum | None = None):
        self.spec, self.horizon, self.seed = spec, horizon, seed
        if gains is not None:
            self.gains = gains
        if spectrum is not None:
            self.spectrum = spectrum

    problem = cached_property(lambda g: validate_spec(g.spec))
    spectrum = cached_property(lambda g: linearized_spectrum(g.problem)[1])
    linearized = property(lambda g: (g.problem, g.spectrum))
    gains = cached_property(
        lambda g: build_gains(g.spectrum, g.spec.gammas, g.spec.sampling_period))
    continuous = cached_property(lambda g: continuous_limit(g.spectrum, g.spec.gammas))
    # every max(substeps // 8, 1)-th substep: eight records per hold when
    # the substeps are a multiple of eight
    record_stride = property(lambda g: max(g.spec.substeps_per_hold // 8, 1))
    trajectory = cached_property(lambda g: run_linear_closed_loop(
        *g.linearized, g.gains, seeded_initial_state(g.spectrum, g.seed), g.horizon,
        snapshot_stride=g.record_stride))
    fine = cached_property(lambda g: Grid(refined(g.spec), g.horizon, g.seed))


def _ratio(coarse: float, fine: float) -> tuple[float, dict]:
    return coarse / fine if fine > 0 else np.inf, {"coarse": coarse, "fine": fine}


def _contraction(grid: Grid) -> tuple[float, dict]:
    radius, bound, ratio = _exact.contraction_bound(exact_system(grid.gains))
    return ratio - 1.0, {"spectral_radius": radius, "bound": bound}


def _small_period_order(grid: Grid) -> tuple[float, dict]:
    return _ratio(*(gain_limit_distance(grid.spectrum, grid.spec.gammas, period, grid.continuous)
                    for period in (1e-2, 5e-3)))


def _pde_gain_order(grid: Grid) -> tuple[float, dict]:
    """|g_M - g_2M| / |g_2M - g_4M| of the gain rows on the grid and its two
    refinements, about 4 at second order in h: spectra and rows only.  A
    refinement that moves an eigenvalue across target_rate reads inf."""
    g_m, g_2m, g_4m = rows = [feedback_row(g.spectrum, g.spec.gammas, g.spec.sampling_period)
                              for g in (grid, grid.fine, grid.fine.fine)]
    if not g_m.size == g_2m.size == g_4m.size:
        return np.inf, {"unstable_counts": [row.size for row in rows]}
    return _ratio(float(np.linalg.norm(g_m - g_2m)), float(np.linalg.norm(g_2m - g_4m)))


class _Record(NamedTuple):
    name: str
    law: str
    stage: str  # one of _STAGES; the table is in stage order
    measure: Callable[[Grid], float | tuple[float, dict]]  # residual or (residual, details)
    bound: dict[str, float]  # tolerance key -> default; two keys: a (low, high) window


# Every record of synthesize and verify, in report order.  A measure calls
# a public function by its module name, so a wrapper on that name sees the
# call, except contraction-bound (it needs the working-precision ratio that
# check_contraction drops) and trajectory-recursion (no matrix rebuild).
_RECORDS = (
    _Record("orthonormality", "modes-h-orthonormal", "spectrum",
            lambda g: orthonormality_residual(g.spectrum), {"orthonormality": 1e-12}),
    _Record("resolution-identity", "gram-sum-times-inverse", "algebra",
            lambda g: check_resolution(g.gains), {"resolution_identity": 1e-10}),
    _Record("recursion-identity", "sampled-modal-recursion-matrix", "algebra",
            lambda g: check_modal_recursion(g.gains).matrix_residual,
            {"recursion_identity": 1e-10}),
    _Record("contraction-bound", "symmetrized-update-spectral-radius", "algebra",
            _contraction, {"contraction_slack": 1e-8}),
    _Record("lift-identity", "lift-trace-identity", "grid",
            lambda g: check_lift_identity(g.spectrum, g.gains)[0], {"lift_identity": 1e-2}),
    _Record("pde-gain", "gain-row-second-order-in-h", "grid",
            _pde_gain_order, {"pde_ratio_low": 3.2, "pde_ratio_high": 4.8}),
    _Record("trajectory-recursion", "sampled-modal-recursion-trajectory", "trajectory",
            lambda g: _trajectory_recursion(g.gains, g.spectrum, g.trajectory)[0],
            {"trajectory_recursion": 5e-3}),
    _Record("half-identity", "sampled-state-doubling", "trajectory",
            lambda g: check_half_identity(g.trajectory, g.gains, g.spectrum),
            {"half_identity": 1e-2}),
    _Record("small-period-limit", "gain-row-limit-distance", "limit",
            lambda g: gain_limit_distance(g.spectrum, g.spec.gammas, 1e-6, g.continuous),
            {"limit_distance": 1e-5}),
    _Record("small-period-order", "gain-row-first-order-in-period", "limit",
            _small_period_order, {"limit_ratio_low": 1.6, "limit_ratio_high": 2.4}),
)

_STAGES = ("spectrum", "algebra", "grid", "trajectory", "limit")


# every tolerance key of _RECORDS with its default, in table order
DEFAULT_VERIFY_TOLERANCES = {key: value for record in _RECORDS
                             for key, value in record.bound.items()}
VERIFY_WINDOWS = tuple(tuple(record.bound) for record in _RECORDS if len(record.bound) == 2)


def _add_stage(report: VerificationReport, stage: str, grid: Grid, tolerances: dict) -> None:
    """Add the stage's records of _RECORDS; ``tolerances`` override the
    table's defaults."""
    tol = {**DEFAULT_VERIFY_TOLERANCES, **tolerances}
    records = [record for record in _RECORDS if record.stage == stage]
    part = VerificationReport()
    try:
        for record in records:
            measured = record.measure(grid)
            residual, details = measured if isinstance(measured, tuple) else (measured, {})
            limits = [tol[key] for key in record.bound]
            bound = {"window": tuple(limits)} if len(limits) == 2 else {"tolerance": limits[0]}
            part.add(record.name, record.law, residual, details=details, **bound)
    except ParastabError as exc:
        if stage != "trajectory":
            raise
        part.checks.clear()
        part.add("trajectory-suite", "closed-loop-run", np.inf, tol[next(iter(records[0].bound))],
                 details={"error": f"{type(exc).__name__}: {exc}"})
    report.checks += part.checks


def run_verification(spec: ProblemSpec, *, tolerances: dict | None = None,
                     horizon: int = 10, seed: int = 7) -> VerificationReport:
    """Every record of _RECORDS at the configured grid (M); pde-gain also
    reads the spectra at 2M and 4M.  Algebraic identities are checked in
    adaptive precision.  With no unstable modes the suite reduces to the
    spectrum stage."""
    grid = Grid(spec, horizon, seed)
    report = VerificationReport()
    problem, spectrum = grid.linearized
    report.metadata.update(grid_points=problem.m, sampling_period=problem.period,
                           target_rate=spec.target_rate, unstable_count=spectrum.unstable_count)
    first, *rest = _STAGES
    _add_stage(report, first, grid, tolerances or {})
    if spectrum.unstable_count == 0:
        report.metadata["note"] = "no unstable modes: feedback identically zero"
        return report
    report.metadata["condition_number"] = grid.gains.condition_number
    for stage in rest:
        _add_stage(report, stage, grid, tolerances or {})
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
