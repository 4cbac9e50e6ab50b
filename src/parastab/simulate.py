"""Time stepping under zero-order-hold boundary control.

The boundary value is recomputed from the sampled state at t = iT and held
constant on the right-open interval [iT, (i+1)T).  The interior is advanced
by Crank-Nicolson (unconditionally stable, second order); the semilinear
run treats the diffusion plus linearized reaction implicitly and the
nonlinear remainder explicitly, so every solve stays tridiagonal.  The
tridiagonal CN matrix is constant, so it is LU-factored once per run
(LAPACK gttrf) and each substep costs one gttrs solve.

Runs operate on the deviation from the equilibrium: for the linearized
loops the deviation *is* the state, for the semilinear loop the recorded
states are physical (deviation plus equilibrium) while the norm histories
always track the deviation, which is the quantity that decays.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs

from .model import ParastabError, ValidatedProblem, linearized_coefficient
from .spectral import Spectrum, l2_norm, project, sobolev_norm
from .synthesis import DimensionMismatch, GainSet, apply_feedback
from .lifting import hold_profiles

BLOWUP_GUARD = 1e12
DEFAULT_SOBOLEV_ORDER = 0.25


class UnstableStep(ParastabError):
    """State norm crossed the overflow guard; carries the partial trajectory."""

    def __init__(self, message: str, trajectory: "Trajectory | None" = None):
        super().__init__(message)
        self.trajectory = trajectory


class MissingSampleSnapshots(ParastabError):
    """The trajectory lacks the per-sample snapshots this analysis needs."""


@dataclass(frozen=True)
class HoldSchedule:
    """Piecewise-constant boundary control on right-open hold intervals."""

    period: float
    held_values: np.ndarray

    @property
    def horizon(self) -> int:
        return self.held_values.shape[0]

    @property
    def sample_times(self) -> np.ndarray:
        return self.period * np.arange(self.horizon)

    def value_at(self, t: float) -> float:
        i = min(int(np.floor(t / self.period + 1e-12)), self.horizon - 1)
        return float(self.held_values[max(i, 0)])


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one run.

    states holds full node rows (boundary columns included); the boundary
    column at x = L equals the active held value, with the final snapshot
    carrying the last interval's value (left limit).  Norm histories are of
    the deviation from equilibrium.  sample_indices locate t = 0, T, 2T, ...
    in ``times``.  blowup_time is set (and the arrays truncated) when the
    overflow guard tripped.
    """

    kind: str
    times: np.ndarray
    states: np.ndarray
    schedule: HoldSchedule
    l2_norms: np.ndarray
    sobolev_norms: np.ndarray
    sobolev_order: float
    sample_indices: np.ndarray
    substeps: int
    problem_hash: str
    gains_hash: str
    blowup_time: float | None = None

    @property
    def interior(self) -> np.ndarray:
        return self.states[:, 1:-1]

    def sample_states(self) -> np.ndarray:
        return self.interior[self.sample_indices]

    def sample_times(self) -> np.ndarray:
        return self.times[self.sample_indices]


def _fingerprint(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()[:16]


def problem_fingerprint(problem: ValidatedProblem) -> str:
    spec = problem.spec
    return _fingerprint(
        spec.interval_length,
        spec.grid_points,
        spec.sampling_period,
        spec.target_rate,
        spec.gammas,
        spec.substeps_per_hold,
        spec.nonlinearity.kind,
        spec.nonlinearity.parameters,
        problem.equilibrium_values,
    )


def gains_fingerprint(gains: GainSet | None) -> str:
    if gains is None:
        return "open-loop"
    return _fingerprint(
        gains.sampling_period, gains.gammas, gains.lambdas, gains.flux, gains.gain_row
    )


def _cn_halves(spectrum: Spectrum, dt: float):
    """Crank-Nicolson step dt as (rhs, solve): rhs(w, forcing) is a fresh
    (I - dt/2 A) w + forcing; solve(b) overwrites b with (I + dt/2 A)^-1 b,
    from one LAPACK gttrf factorization made here."""
    op = spectrum.operator
    off = 0.5 * dt * op.offdiag
    right_diag = 1.0 - 0.5 * dt * op.diag
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (op.diag,))
    *lu, info = gttrf(off, 1.0 + 0.5 * dt * op.diag, off)
    if info > 0:
        raise np.linalg.LinAlgError("singular Crank-Nicolson matrix")

    def rhs(w: np.ndarray, forcing: np.ndarray) -> np.ndarray:
        out = right_diag * w
        out[:-1] -= off * w[1:]
        out[1:] -= off * w[:-1]
        out += forcing
        return out

    return rhs, lambda b: gttrs(*lu, b, overwrite_b=True)[0]


def seeded_initial_state(
    spectrum: Spectrum,
    seed: int,
    *,
    n_modes: int = 10,
    amplitude: float = 1.0,
    norm: str = "l2",
    sobolev_order: float = DEFAULT_SOBOLEV_ORDER,
) -> np.ndarray:
    """Reproducible modal initial state, normalized in the requested norm.

    Coefficients of the first ``n_modes`` modes are drawn uniformly from
    [-1, 1] with the given seed, which excites stable and unstable
    subspaces alike.
    """
    rng = np.random.default_rng(seed)
    n = min(n_modes, spectrum.m)
    coeffs = rng.uniform(-1.0, 1.0, size=n)
    y = spectrum.modes[:, :n] @ coeffs
    if norm == "l2":
        scale = l2_norm(y, spectrum.h)
    elif norm == "sobolev":
        scale = sobolev_norm(y, sobolev_order, spectrum.h)
    else:
        raise ValueError(f"unknown norm {norm!r}")
    if scale == 0.0:
        raise ValueError("degenerate initial state")
    return y * (amplitude / scale)


def _advance(
    problem: ValidatedProblem,
    spectrum: Spectrum,
    gains: GainSet | None,
    y0: np.ndarray,
    horizon: int,
    control: Callable[[np.ndarray], float],
    remainder: Callable[[np.ndarray], np.ndarray] | None = None,
    offset: np.ndarray | None = None,
    *,
    kind: str,
    substeps: int | None = None,
    snapshot_stride: int | None = None,
    sobolev_order: float = DEFAULT_SOBOLEV_ORDER,
) -> Trajectory:
    """Shared hold-interval stepping engine.

    The callers vary three arguments: ``control`` maps the sampled
    deviation to the held value (the feedback in run_linear_closed_loop and
    run_semilinear_closed_loop, zero in run_open_loop); ``remainder`` is the
    explicit nonlinear term (run_semilinear_closed_loop only) and
    ``offset`` the equilibrium on all M+2 nodes (likewise; None means zero).
    The deviation y0 - offset is stepped, states are recorded as deviation
    plus offset and held values are shifted by offset[-1].  ``gains`` only
    enters the setup check and the fingerprint.  A blow-up raises
    UnstableStep when there is no remainder (a linear loop only escapes when
    the setup is inconsistent) and is reported through ``blowup_time``
    otherwise.
    """
    if spectrum.m != problem.m:
        raise DimensionMismatch("spectrum grid does not match the problem grid")
    if gains is not None and abs(gains.sampling_period - problem.period) > 1e-12:
        raise DimensionMismatch(
            f"gains were built for T = {gains.sampling_period}, "
            f"problem has T = {problem.period}"
        )
    if horizon < 1:
        raise ValueError("horizon must be at least one hold interval")
    if substeps is None:
        substeps = problem.spec.substeps_per_hold
    if substeps < 1:
        raise ValueError(f"substeps must be at least 1, got {substeps}")
    m = problem.m
    w = np.asarray(y0, dtype=float).copy()
    if w.shape != (m,):
        raise ValueError(f"initial state must have shape ({m},), got {w.shape}")
    if offset is not None:
        w -= offset[1:-1]

    period = problem.period
    dt = period / substeps
    cn_rhs, solve = _cn_halves(spectrum, dt)
    h2 = spectrum.h**2

    times: list[float] = []
    snaps: list[np.ndarray] = []
    snap_interval: list[int] = []
    sample_idx: list[int] = []
    held: list[float] = []
    blowup_time: float | None = None

    def record(t: float, interval: int, is_sample: bool) -> None:
        if is_sample:
            sample_idx.append(len(times))
        times.append(t)
        snaps.append(w.copy())
        snap_interval.append(interval)

    record(0.0, 0, True)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(horizon):
            u = control(w)
            held.append(u)
            dt_bc = np.zeros(m)
            dt_bc[-1] = dt * (u / h2)
            for n_sub in range(1, substeps + 1):
                rhs = cn_rhs(w, dt_bc)
                if remainder is not None:
                    rhs += dt * remainder(w)
                w = solve(rhs)
                t = i * period + n_sub * dt
                # a NaN or inf state has a NaN or inf norm, so one test covers both
                if not l2_norm(w, spectrum.h) <= BLOWUP_GUARD:
                    blowup_time = t
                    break
                at_sample = n_sub == substeps
                if at_sample or (snapshot_stride and n_sub % snapshot_stride == 0):
                    record(t, i + 1 if at_sample else i, at_sample)
            if blowup_time is not None:
                break

    held_arr = np.array(held) + (0.0 if offset is None else float(offset[-1]))
    schedule = HoldSchedule(period=period, held_values=held_arr)

    n_snap = len(times)
    states = np.empty((n_snap, m + 2))
    l2 = np.empty(n_snap)
    sob = np.empty(n_snap)
    states[:, 0] = 0.0 if offset is None else offset[0]
    for j in range(n_snap):
        dev = snaps[j]
        l2[j] = l2_norm(dev, spectrum.h)
        sob[j] = sobolev_norm(dev, sobolev_order, spectrum.h)
        states[j, 1:-1] = dev if offset is None else dev + offset[1:-1]
        idx = min(snap_interval[j], len(held) - 1)
        states[j, -1] = held_arr[idx]

    trajectory = Trajectory(
        kind=kind,
        times=np.array(times),
        states=states,
        schedule=schedule,
        l2_norms=l2,
        sobolev_norms=sob,
        sobolev_order=sobolev_order,
        sample_indices=np.array(sample_idx, dtype=int),
        substeps=substeps,
        problem_hash=problem_fingerprint(problem),
        gains_hash=gains_fingerprint(gains),
        blowup_time=blowup_time,
    )
    if blowup_time is not None and remainder is None:
        raise UnstableStep(
            f"norm exceeded {BLOWUP_GUARD:.0e} at t = {blowup_time:.6g}", trajectory
        )
    return trajectory


def run_linear_closed_loop(
    problem: ValidatedProblem,
    spectrum: Spectrum,
    gains: GainSet,
    y0: np.ndarray,
    horizon: int,
    *,
    substeps: int | None = None,
    snapshot_stride: int | None = None,
    sobolev_order: float = DEFAULT_SOBOLEV_ORDER,
) -> Trajectory:
    """Linearized dynamics under the sampled feedback.

    Raises UnstableStep (with the partial trajectory attached) if the
    overflow guard trips, which for a synthesized gain indicates an
    inconsistent setup rather than expected behavior.
    """
    return _advance(
        problem, spectrum, gains, y0, horizon,
        lambda w: apply_feedback(gains, w, spectrum),
        kind="linear-closed-loop", substeps=substeps,
        snapshot_stride=snapshot_stride, sobolev_order=sobolev_order,
    )


def run_open_loop(
    problem: ValidatedProblem,
    spectrum: Spectrum,
    y0: np.ndarray,
    horizon: int,
    *,
    substeps: int | None = None,
    snapshot_stride: int | None = None,
    sobolev_order: float = DEFAULT_SOBOLEV_ORDER,
) -> Trajectory:
    """Uncontrolled baseline (u = 0); grows whenever unstable modes exist."""
    return _advance(
        problem, spectrum, None, y0, horizon, lambda w: 0.0,
        kind="open-loop", substeps=substeps,
        snapshot_stride=snapshot_stride, sobolev_order=sobolev_order,
    )


def run_semilinear_closed_loop(
    problem: ValidatedProblem,
    spectrum: Spectrum,
    gains: GainSet | None,
    y0: np.ndarray,
    horizon: int,
    *,
    substeps: int | None = None,
    snapshot_stride: int | None = None,
    sobolev_order: float = DEFAULT_SOBOLEV_ORDER,
) -> Trajectory:
    """Full nonlinear dynamics; the held control is feedback-of-deviation
    plus the equilibrium's boundary value.

    The nonlinear remainder (reaction minus its linearization at the
    equilibrium) is integrated explicitly.  Finite-time escape is expected
    behavior outside the basin of attraction: the run then reports
    ``blowup_time`` instead of raising.  gains may be None when there is
    nothing to control (the feedback is then identically zero).
    """
    ye = problem.equilibrium_values
    x = problem.interior_nodes
    ye_int = ye[1:-1]
    c = linearized_coefficient(problem)
    f = problem.spec.nonlinearity.f
    f_base = np.asarray(f(x, ye_int), dtype=float)

    def remainder(w: np.ndarray) -> np.ndarray:
        return np.asarray(f(x, w + ye_int), dtype=float) - f_base - c * w

    def control(w: np.ndarray) -> float:
        return 0.0 if gains is None else apply_feedback(gains, w, spectrum)

    return _advance(
        problem, spectrum, gains, y0, horizon, control, remainder, ye,
        kind="semilinear-closed-loop", substeps=substeps,
        snapshot_stride=snapshot_stride, sobolev_order=sobolev_order,
    )


@dataclass(frozen=True)
class ZDecomposition:
    """Sampled split of a linear closed-loop run into z plus lift profiles.

    z(t) = y(t) - sum_k psi_k(t) has homogeneous boundary values; its
    unstable coordinates double those of y at every sample.  The jump
    residual measures how well re-stepping z through its impulse evolution
    (interior source from the frozen profiles, jump at each sample) matches
    the direct decomposition.
    """

    sample_times: np.ndarray
    z_samples: np.ndarray  # (H+1, M)
    lift_samples: np.ndarray  # (H+1, N, M)
    half_identity_residuals: np.ndarray  # (H+1,)
    modal_image_residuals: np.ndarray  # (H+1,)
    jump_residuals: np.ndarray  # (H,)


def decompose_z(
    trajectory: Trajectory, gains: GainSet, spectrum: Spectrum
) -> ZDecomposition:
    """Split a linear closed-loop trajectory at its samples."""
    if trajectory.kind != "linear-closed-loop":
        raise ParastabError("z-decomposition applies to linear closed-loop runs")
    if trajectory.sample_indices.size < 2:
        raise MissingSampleSnapshots("need at least two sample snapshots")
    t_samples = trajectory.sample_times()
    period = trajectory.schedule.period
    if not np.allclose(np.diff(t_samples), period, rtol=0, atol=1e-9):
        raise MissingSampleSnapshots("sample snapshots are not T-spaced")

    n = gains.n
    m = spectrum.m
    samples = trajectory.sample_states()
    n_samp = samples.shape[0]

    lift_samples = np.empty((n_samp, n, m))
    z_samples = np.empty((n_samp, m))
    half_res = np.empty(n_samp)
    image_res = np.empty(n_samp)
    bkb = np.array([term @ gains.gram_inverse for term in gains.gram_terms])

    for j in range(n_samp):
        y = samples[j]
        profiles = hold_profiles(gains, spectrum, y)
        for k in range(n):
            lift_samples[j, k] = profiles[k].profile
        z = y - lift_samples[j].sum(axis=0)
        z_samples[j] = z
        yn = project(y, spectrum, n)
        zn = project(z, spectrum, n)
        scale = np.linalg.norm(yn)
        half_res[j] = (
            np.linalg.norm(yn - 0.5 * zn) / scale if scale > 0 else 0.0
        )
        worst = 0.0
        for k in range(n):
            target = -bkb[k] @ yn
            got = project(lift_samples[j, k], spectrum, n)
            denom = np.linalg.norm(target)
            if denom > 0:
                worst = max(worst, np.linalg.norm(got - target) / denom)
        image_res[j] = worst

    # re-step z through its impulse evolution and compare at the samples
    dt = period / trajectory.substeps
    cn_rhs, solve = _cn_halves(spectrum, dt)
    shifts = np.array(
        [1.0 / gains.lambda_diags[:, k] - gains.lambdas for k in range(n)]
    )
    jump_res = np.empty(n_samp - 1)
    for j in range(n_samp - 1):
        source = np.zeros(m)
        for k in range(n):
            coords = project(lift_samples[j, k], spectrum, n)
            source += spectrum.modes[:, :n] @ (shifts[k] * coords)
        dt_source = dt * source
        z = z_samples[j]
        for _ in range(trajectory.substeps):
            z = solve(cn_rhs(z, dt_source))
        jumped = z + lift_samples[j].sum(axis=0) - lift_samples[j + 1].sum(axis=0)
        scale = np.linalg.norm(z_samples[j + 1])
        jump_res[j] = (
            np.linalg.norm(jumped - z_samples[j + 1]) / scale if scale > 0 else 0.0
        )

    return ZDecomposition(
        sample_times=t_samples,
        z_samples=z_samples,
        lift_samples=lift_samples,
        half_identity_residuals=half_res,
        modal_image_residuals=image_res,
        jump_residuals=jump_res,
    )


def trajectory_to_csv(trajectory: Trajectory) -> str:
    """CSV schema t,l2_norm,sob_norm,u_held (17 significant digits)."""
    lines = ["t,l2_norm,sob_norm,u_held"]
    for j, t in enumerate(trajectory.times):
        lines.append(
            f"{t:.17g},{trajectory.l2_norms[j]:.17g},"
            f"{trajectory.sobolev_norms[j]:.17g},{trajectory.states[j, -1]:.17g}"
        )
    return "\n".join(lines) + "\n"


def states_to_csv(trajectory: Trajectory) -> str:
    """Full state dump, one snapshot per row (time first)."""
    lines = []
    for j, t in enumerate(trajectory.times):
        row = ",".join(f"{v:.17g}" for v in trajectory.states[j])
        lines.append(f"{t:.17g},{row}")
    return "\n".join(lines) + "\n"
