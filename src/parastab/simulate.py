"""Time stepping under zero-order-hold boundary control.

The boundary value is recomputed from the sampled state at t = iT and held
constant on the right-open interval [iT, (i+1)T).

Two engines step a run, and the dynamics alone picks between them.  A
linear run (no Taylor tail) is stepped in the eigen-coordinates of the
Spectrum, in closed form (_ModalStepper): the exact hold, the one-hold map
the gain is placed against, whatever basis the Spectrum stores.  k
substeps are one exponential per mode, so a record is one update of the
hold's sample.  A semilinear run is stepped by one in-place
Crank-Nicolson kernel (_CNKernel), second order: the diffusion plus
linearized reaction implicitly and the nonlinear remainder explicitly, so
every solve stays tridiagonal.  That remainder is the exact Taylor tail of
the polynomial reaction about the equilibrium, sum_{j>=2} q_j w^j in the
deviation w, with the q_j formed once per run.  The CN matrix I + dt/2 A
is factored once per run, as LDL^T (LAPACK pttrf): it is positive
definite when 1 + dt lambda_1 / 2 > 0.  A CN run with fewer substeps per
hold than that needs, which would flip the sign of an unstable mode 1
every substep instead of growing it, is refused with TooFewSubsteps
before anything is factored.

The kernel alternates between two zero-padded state buffers and allocates
nothing per substep.  The right-hand side of a substep is one fused
product, (rd + w (dt q_2 + w (dt q_3 + ...))) w - off (w_+ + w_-) plus the
boundary input, with rd = 1 - dt/2 diag(A) and the scalar off = dt/2 times
A's constant off-diagonal (an operator whose off-diagonal varies is
rejected).  _advance drives either engine one hold at a time, and both
keep the overflow guard at every substep, so a blow-up is timed to its
substep.

Runs operate on the deviation from the equilibrium: for the linearized
loops the deviation *is* the state.  A Trajectory stores the records as one
block, written at the record points: node rows, or the modal coordinates
of a modal run, whose node rows are built only when read.  It derives the rest
on first read: the norm histories always track the deviation, which is the
quantity that decays, and the node rows of the semilinear loop are physical
(deviation plus equilibrium).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import InitVar, dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import mpmath as mp
import numpy as np

from ._lapack import dpttrf, dpttrs
from .model import ParastabError, ValidatedProblem
from .spectral import Spectrum, TridiagonalOperator, l2_norm, project, sobolev_norm
from .synthesis import DimensionMismatch, GainSet, _check_consistent, component_feedback
from .lifting import dirichlet_lift

BLOWUP_GUARD = 1e12
DEFAULT_SOBOLEV_ORDER = 0.25
_INITIAL_MODES = 10  # modes a seeded initial state excites


class UnstableStep(ParastabError):
    """State norm crossed the overflow guard; carries the partial trajectory."""

    def __init__(self, message: str, trajectory: "Trajectory | None" = None):
        super().__init__(message)
        self.trajectory = trajectory


class TooFewSubsteps(ParastabError):
    """The hold has too few substeps for Crank-Nicolson to step its
    unstable mode 1: dt*|lambda_1| >= 2 flips its sign every substep."""


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


@dataclass(frozen=True)
class _ModalRecords:
    """A modal run's records as _ModalStepper writes them: one row of modal
    coordinates c = h Phi^T w per record, in the basis of the Spectrum
    whose ``nodal`` maps them to node rows, and the initial deviation, node
    row 0 as given."""

    coordinates: np.ndarray
    spectrum: Spectrum
    initial: np.ndarray

    def nodal(self, index) -> np.ndarray:
        """Node rows of the records ``index`` selects, record 0 first."""
        rows = self.spectrum.nodal(self.coordinates[index])
        rows[0] = self.initial
        return rows


class _NodeRows:
    """The ``deviations`` field of a Trajectory: the rows it was given, or,
    given None by a modal run, the node rows of its modal records, built on
    first read by one Spectrum.nodal and kept."""

    def __get__(self, traj, owner=None):
        if traj is None:
            raise AttributeError("deviations")  # no class default: the field stays required
        rows = traj.__dict__["_node_rows"]
        if rows is None:
            rows = traj.__dict__["_node_rows"] = traj._modal.nodal(slice(None))
        return rows

    def __set__(self, traj, rows):
        traj.__dict__["_node_rows"] = rows


@dataclass(frozen=True)
class Trajectory:
    """Records of one run.

    Stored: ``deviations``, one (records x M) block whose row r is the
    deviation from equilibrium on the interior nodes at times[r], written by
    the stepping engine at each record point; ``offset``, the equilibrium on
    all M + 2 nodes (None for the linearized loops, whose deviation is the
    state); ``record_holds``, the index into schedule.held_values of the
    value active at each record, the final record carrying the last
    interval's value (left limit); and the grid step ``h``.  A run stepped
    in the Spectrum's eigenbasis passes ``modal``, its records as
    coordinate rows, and ``deviations=None``: its node rows are built from
    them on first read (record 0 is the initial deviation itself).

    Derived on first read, then cached: ``l2_norms`` and ``sobolev_norms``,
    the norm histories of the deviation (never of states minus offset), and
    ``states``, the full node rows (boundary columns included) whose column
    at x = L is the active held value.  A modal run's L2 norms are read
    from its coordinates (|c| is the h-norm of the modes'
    h-orthonormality); its Sobolev norms too when the Spectrum stores a
    sine table (Spectrum.sine_table: the coordinates are then the
    Laplacian's sine coordinates), else from its node rows.  Its
    ``sample_states()`` transform only the sample rows.  sample_indices
    locate t = 0, T, 2T, ... in ``times``.  blowup_time is set (and the
    records end at the last state that passed the guard) when the overflow
    guard tripped.
    """

    kind: str
    times: np.ndarray
    deviations: np.ndarray | None = _NodeRows()  # required; None: built on read
    offset: np.ndarray | None
    record_holds: np.ndarray
    h: float
    schedule: HoldSchedule
    sobolev_order: float
    sample_indices: np.ndarray
    substeps: int
    problem_hash: str
    gains_hash: str
    blowup_time: float | None = None
    modal: InitVar[_ModalRecords | None] = None

    def __post_init__(self, modal: _ModalRecords | None) -> None:
        object.__setattr__(self, "_modal", modal)

    @cached_property
    def l2_norms(self) -> np.ndarray:
        # np.linalg.norm's arithmetic for one row: sqrt(w.w)
        if self._modal is not None:
            return np.sqrt([row.dot(row) for row in self._modal.coordinates])
        return np.sqrt(self.h) * np.sqrt([row.dot(row) for row in self.deviations])

    @cached_property
    def sobolev_norms(self) -> np.ndarray:
        if self._modal is not None and self._modal.spectrum.sine_table:
            return sobolev_norm(self._modal.coordinates, self.sobolev_order, self.h,
                                coordinates=True)
        return sobolev_norm(self.deviations, self.sobolev_order, self.h)

    @cached_property
    def states(self) -> np.ndarray:
        left = np.full(len(self.times), 0.0 if self.offset is None else self.offset[0])
        right = self.schedule.held_values[self.record_holds]
        return np.column_stack((left, self._interior_of(self.deviations), right))

    @property
    def interior(self) -> np.ndarray:
        return self.states[:, 1:-1]

    def sample_states(self) -> np.ndarray:
        if self._modal is not None:
            return self._interior_of(self._modal.nodal(self.sample_indices))
        return self._interior_of(self.deviations[self.sample_indices])

    def _interior_of(self, rows: np.ndarray) -> np.ndarray:
        return rows if self.offset is None else rows + self.offset[1:-1]

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


def _cn_solver(op: TridiagonalOperator, dt: float) -> Callable[[np.ndarray, int], object]:
    """solve(b, 1) overwrites b with (I + dt/2 A)^-1 b, factored here once
    as LDL^T (pttrf); _advance has refused a dt that leaves the matrix
    indefinite, so a non-positive pivot (roundoff at the edge) raises
    LinAlgError.  The solve is pttrs with its factors bound and
    (b, overwrite_b) passed by position, which f2py parses faster than
    keywords."""
    d, e, info = dpttrf(1.0 + 0.5 * dt * op.diag, 0.5 * dt * op.offdiag)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"Crank-Nicolson matrix is not positive definite (pttrf info = {info})"
        )
    return partial(dpttrs, d, e)


class _CNKernel:
    """Crank-Nicolson substeps dt, in place on two buffers of M + 2 entries
    whose end entries stay 0; ``w`` is the interior of the current one.

    A substep from buffer k to buffer 1 - k writes the right-hand side

        (rd + w (dt q_2 + w (dt q_3 + ...))) w - off (w_+ + w_-)

    into the target interior, adds dt u / h^2 to its last entry and solves
    in place.  rd = 1 - dt/2 diag and the explicit Taylor tail form one
    polynomial in w, evaluated by Horner's rule (rd w alone for a linear
    run); w_+ and w_- are the padded neighbours, so the end rows add an
    exact 0.  off = dt/2 offdiag[0] is one value, held as a 0-d array, so
    the operator's off-diagonal must be constant (assemble_operator's
    -1/h^2); any other is rejected with ValueError.  Views, coefficients
    and the factorization are made once per run; a substep allocates
    nothing.  The overflow guard l2_norm(w) <= BLOWUP_GUARD is tested
    after every substep as w.w <= BLOWUP_GUARD^2 / h.
    """

    def __init__(self, op: TridiagonalOperator, dt: float, dt_tail: Sequence[np.ndarray],
                 w0: np.ndarray):
        if np.any(op.offdiag != op.offdiag[0]):
            raise ValueError("the Crank-Nicolson kernel needs a constant off-diagonal")
        # a 0-d array: np.multiply converts a NumPy scalar operand on every call
        self.off = np.array(0.5 * dt * op.offdiag[0])
        # Horner coefficients of the diagonal product, lowest power first
        self.coeffs = (1.0 - 0.5 * dt * op.diag, *dt_tail)
        self.solve = _cn_solver(op, dt)
        self.guard_sq = BLOWUP_GUARD**2 / op.h
        self.tmp = np.empty(op.m)
        bufs = np.zeros((2, op.m + 2))
        bufs[0, 1:-1] = w0
        # per source buffer: its interior, right and left neighbours, target interior
        self.views = [(bufs[k, 1:-1], bufs[k, 2:], bufs[k, :-2], bufs[1 - k, 1:-1])
                      for k in (0, 1)]
        self.k = 0

    @property
    def w(self) -> np.ndarray:
        return self.views[self.k][0]

    def advance(self, n: int, dt_bc: float) -> int:
        """Take n substeps with dt u / h^2 = dt_bc, stopping at the first
        state that fails the overflow guard (a NaN or inf state has a NaN or
        inf w.w, so one test covers both); return its 1-based substep, else 0."""
        mul, add, sub = np.multiply, np.add, np.subtract
        lead, inner = self.coeffs[-1], self.coeffs[-2::-1]
        off, solve, tmp, guard_sq = self.off, self.solve, self.tmp, self.guard_sq
        views = self.views
        k = self.k
        for j in range(1, n + 1):
            w, right, left, out = views[k]
            mul(w, lead, out=out)
            for c in inner:
                add(out, c, out=out)
                mul(out, w, out=out)
            sub(out, mul(add(right, left, out=tmp), off, out=tmp), out=out)
            out[-1] += dt_bc
            solve(out, 1)
            k = 1 - k
            if not out.dot(out) <= guard_sq:
                self.k = k
                return j
        self.k = k
        return 0


class _ModalStepper:
    """The exact zero-order hold of a linear run, in closed form in the
    eigen-coordinates c = h Phi^T w of its Spectrum, one hold at a time.

    It reads the Spectrum alone (lambdas, boundary_flux, modal and nodal),
    so a sine table (one DST-I each way) and dstevd's matrix (one dense
    product) serve alike.  With u held, the plant dc_i/dt = -lambda_i c_i
    - flux_i u moves mode i over k substeps dt as

        c_i -> r_i^k c_i + I_i(k) u,   I_i(k) = (1 - r_i^k) s_i,   s_i = -flux_i / lambda_i,

    r_i^k = e^{-k dt lambda_i}, 1 - r_i^k = -expm1(-k dt lambda_i), and
    I_i(k) = -k dt flux_i, its limit, for a lambda_i that is exactly 0: the
    map the gain is placed against, so the substeps only place the record
    points and the guard.  A hold writes its R record rows at once, row j
    from the sample c at the record offset k_j of ``stops`` (k_R = K, the
    substeps of a hold, so row R is the next sample), from two (R, M)
    tables of r^k_j and I(k_j) formed once per run.  ``c`` is the state.

    The guard l2_norm(w) = |c| <= BLOWUP_GUARD holds at every substep of a
    hold when the bound max(|c_i|, |c_i(k_1)|, ..., |c_i(K)|) on each |c_i|
    along it passes: c_i(k) - s_i u = r_i^k (c_i - s_i u) (c_i + I_i(k) u
    when lambda_i = 0) is monotone in k, so mode i lies between its values
    at the hold's ends.  The bound reads every record row as computed, so
    a row that roundoff has pushed past the guard (e^{|lambda_1| T} eps
    past the float64 envelope) fails it too.  Otherwise the hold is
    stepped one substep at a time, written at its record points, and stops
    at the first substep that fails (a NaN or inf state fails the bound as
    well).
    """

    def __init__(self, spectrum: Spectrum, dt: float, stops: Sequence[int], w0: np.ndarray):
        # log r^k: one row for a single substep, then one per record offset
        steps, lam, flux = np.array([1, *stops]), spectrum.lambdas, spectrum.boundary_flux
        kl = steps[:, None] * (-dt * lam)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            powers = np.exp(kl)
            inputs = -np.expm1(kl) * (-flux / lam)
        zero = lam == 0.0
        inputs[:, zero] = np.multiply.outer(steps * dt, -flux[zero])
        self.stops, self.guard_sq = stops, BLOWUP_GUARD**2
        self.step = powers[0], inputs[0]
        self.powers, self.inputs = powers[1:], inputs[1:]
        self.c = spectrum.modal(w0)

    def hold(self, u: float, out: np.ndarray) -> int:
        """Step one hold with u held, writing its record rows into ``out``;
        return the 1-based substep of the first state that fails the
        overflow guard (rows from there on are no state of the run), else 0."""
        c = self.c
        np.multiply(self.powers, c, out=out)
        out += self.inputs * u
        bound = np.maximum(np.abs(c), np.abs(out).max(axis=0))
        if bound.dot(bound) <= self.guard_sq:
            self.c = out[-1]
            return 0
        (r_1, input_1), stops, row = self.step, self.stops, 0
        for j in range(1, stops[-1] + 1):
            c = r_1 * c + input_1 * u
            if not c.dot(c) <= self.guard_sq:
                break
            if j == stops[row]:
                out[row] = c
                row += 1
        else:
            j = 0
        self.c = c
        return j


def seeded_initial_state(
    spectrum: Spectrum,
    seed: int,
    *,
    amplitude: float = 1.0,
    norm: str = "l2",
    sobolev_order: float = DEFAULT_SOBOLEV_ORDER,
) -> np.ndarray:
    """Reproducible modal initial state, normalized in the requested norm.

    Coefficients of the first _INITIAL_MODES modes are drawn uniformly
    from [-1, 1] with the given seed, which excites stable and unstable
    subspaces alike.
    """
    rng = np.random.default_rng(seed)
    n = min(_INITIAL_MODES, spectrum.m)
    coeffs = rng.uniform(-1.0, 1.0, size=n)
    return scale_to_norm(
        spectrum.columns(n) @ coeffs, spectrum.h,
        amplitude=amplitude, norm=norm, sobolev_order=sobolev_order,
    )


def scale_to_norm(
    y: np.ndarray, h: float, *, amplitude: float, norm: str = "l2",
    sobolev_order: float = DEFAULT_SOBOLEV_ORDER,
) -> np.ndarray:
    """y scaled to the given amplitude in the "l2" or "sobolev" norm."""
    if norm == "l2":
        scale = l2_norm(y, h)
    elif norm == "sobolev":
        scale = sobolev_norm(y, sobolev_order, h)
    else:
        raise ValueError(f"unknown norm {norm!r}")
    if scale == 0.0:
        raise ValueError("degenerate initial state")
    return y * (amplitude / scale)


def _check_substeps(period: float, substeps: int, lambda_1: float) -> None:
    """Refuse, for a semilinear run (_CNKernel), dt = period / substeps with
    1 + dt lambda_1 / 2 <= 0: the CN multiplier (1 - dt lambda_1 / 2) /
    (1 + dt lambda_1 / 2) of mode 1 is then negative (or infinite), not the
    growth e^{-dt lambda_1}.  The smallest count that works is
    floor(T |lambda_1| / 2) + 1."""
    needed = math.floor(-0.5 * period * lambda_1) + 1
    if substeps < needed:
        raise TooFewSubsteps(
            f"substeps_per_hold = {substeps} gives dt*|lambda_1| = "
            f"{-lambda_1 * period / substeps:.3g} >= 2, so Crank-Nicolson would "
            f"flip the sign of unstable mode 1 every substep; T = {period:g} "
            f"needs at least {needed} substeps (floor(T*|lambda_1|/2) + 1)"
        )


def stepped_modes(spectrum: Spectrum, period: float, substeps: int,
                  start: int = 0) -> tuple[list, list]:
    """(lambda~, b~) of the unstable modes, as mpf at the working precision:
    the one-hold map the engine steps, with ``start`` backward-Euler (BE)
    substeps at the start of each hold and Crank-Nicolson (CN) for the rest.

    Over a hold with held value u _CNKernel maps mode i as
    c_i -> r_i c_i - (1 - r_i) / lambda_i * b~_i u, with b~_i = -phi_i[M] / h
    (boundary_flux at the working precision) and r_i the product of the
    substep multipliers, (1 - a_i) / (1 + a_i) per CN substep and
    1 / (1 + 2 a_i) per BE substep, a_i = dt lambda_i / 2 from the
    engine's dt = period / substeps and the spectrum's lambda_i.
    That is the paper's one-hold map at the effective rate
    lambda~_i = -ln(r_i) / period with the flux b~_i lambda~_i / lambda_i, so
    _exact.gain_system(lambda~, b~ lambda~ / lambda, gammas, period) places
    the gain against the stepped plant.

    lambda~ is real only if every multiplier of an unstable mode is
    positive: CN needs dt |lambda_1| < 2 (_check_substeps), a BE substep
    dt |lambda_1| < 1, and CN on the last unstable mode, when its lambda_N
    is positive, dt lambda_N < 2.  Each failure raises TooFewSubsteps
    naming the smallest count that works.
    """
    if not 0 <= start <= substeps:
        raise ValueError(f"start must lie in [0, {substeps}], got {start}")
    n = spectrum.unstable_count
    lambda_1, lambda_n = spectrum.lambdas[0], spectrum.lambdas[n - 1]
    _check_substeps(period, substeps, lambda_1)
    needed = math.floor(-period * lambda_1) + 1
    if start and substeps < needed:
        raise TooFewSubsteps(
            f"substeps_per_hold = {substeps} gives dt*|lambda_1| = "
            f"{-lambda_1 * period / substeps:.3g} >= 1, so a backward-Euler substep "
            f"would flip the sign of unstable mode 1; T = {period:g} needs at "
            f"least {needed} substeps (floor(T*|lambda_1|) + 1)"
        )
    needed = math.floor(0.5 * period * lambda_n) + 1
    if substeps < needed:
        raise TooFewSubsteps(
            f"substeps_per_hold = {substeps} gives dt*lambda_{n} = "
            f"{lambda_n * period / substeps:.3g} >= 2, so Crank-Nicolson would flip "
            f"the sign of unstable mode {n} every substep; T = {period:g} needs at "
            f"least {needed} substeps (floor(T*lambda_{n}/2) + 1)"
        )
    dt, T = mp.mpf(period / substeps), mp.mpf(period)
    rates = []
    for lam in spectrum.lambdas[:n]:
        a = dt * mp.mpf(lam) / 2
        log_r = (substeps - start) * (mp.log1p(-a) - mp.log1p(a)) - start * mp.log1p(2 * a)
        rates.append(-log_r / T)
    return rates, [-mp.mpf(phi) / mp.mpf(spectrum.h) for phi in spectrum.last_row[:n]]


def _advance(
    problem: ValidatedProblem,
    spectrum: Spectrum,
    gains: GainSet | None,
    y0: np.ndarray,
    horizon: int,
    control: Callable[[np.ndarray], float],
    tail: Sequence[np.ndarray] = (),
    offset: np.ndarray | None = None,
    *,
    kind: str,
    snapshot_stride: int = 0,
    sobolev_order: float = DEFAULT_SOBOLEV_ORDER,
) -> Trajectory:
    """Shared hold-interval stepping engine.

    The callers vary three arguments: ``control`` maps the unstable
    coordinates of the sampled deviation, its first gains.n modal
    coordinates (none without gains), to the held value (the feedback in
    run_linear_closed_loop and run_semilinear_closed_loop, zero in
    run_open_loop); ``tail`` holds the coefficients q_2 ... q_d of the
    explicit nonlinear remainder sum_j q_j w^j (run_semilinear_closed_loop
    only; empty means none) and ``offset`` the equilibrium on all M+2 nodes
    (likewise; None means zero).  The deviation y0 - offset is stepped and
    each record point writes it into one preallocated (records x M) block;
    held values are shifted by offset[-1].  Norms and node rows are left to
    the Trajectory, which derives them on first read.  ``gains`` only
    enters the setup checks, made here once per run, and the fingerprint.
    A blow-up is reported through ``blowup_time``; the linear wrappers
    raise it as UnstableStep.

    The dynamics alone picks the engine.  A run without a tail is stepped
    by _ModalStepper, the exact hold, in the Spectrum's basis: it records
    modal coordinate rows, which the Trajectory keeps as the run's state
    (its node rows are built when read, node row 0 the deviation itself),
    and any substep count will do.  A run with a tail is stepped by
    _CNKernel, whose node state is projected on the unstable modes for the
    control, in blocks from one record point to the next; it raises
    TooFewSubsteps before the first substep if dt*|lambda_1| >= 2.

    Each hold interval takes problem.spec.substeps_per_hold substeps, the
    one count of the run (validate_spec made it at least 1, and the
    problem fingerprint hashes it).  It samples the control once, then the
    engine steps the hold and writes its records: every
    ``snapshot_stride`` substeps and the hold's end (the sample).  Either
    engine keeps the guard at every substep and stops at the first state
    that fails it, which is not recorded; the records before it are.  The
    times are made at the end, i T + k dt for the record at substep k of
    hold i.  A negative ``snapshot_stride`` is rejected; 0 records the
    samples only.  A record block too large to allocate raises
    ParastabError before the first substep.
    """
    if spectrum.m != problem.m:
        raise DimensionMismatch("spectrum grid does not match the problem grid")
    if gains is not None:
        if abs(gains.sampling_period - problem.period) > 1e-12:
            raise DimensionMismatch(
                f"gains were built for T = {gains.sampling_period}, "
                f"problem has T = {problem.period}"
            )
        _check_consistent(gains, spectrum)
    if horizon < 1:
        raise ValueError("horizon must be at least one hold interval")
    if snapshot_stride < 0:
        raise ValueError(f"snapshot_stride must be 0 or positive, got {snapshot_stride}")
    m = problem.m
    w = np.asarray(y0, dtype=float).copy()
    if w.shape != (m,):
        raise ValueError(f"initial state must have shape ({m},), got {w.shape}")
    if offset is not None:
        w -= offset[1:-1]

    period, substeps = problem.period, problem.spec.substeps_per_hold
    dt = period / substeps
    modal = not tail
    if not modal:
        _check_substeps(period, substeps, spectrum.lambdas[0])
    n = 0 if gains is None else gains.n
    # record points of a hold: every snapshot_stride substeps, and its end
    stops = list(range(snapshot_stride, substeps, snapshot_stride)) if snapshot_stride else []
    stops.append(substeps)
    per_hold = len(stops)
    try:
        records = np.empty((1 + horizon * per_hold, m))
    except (MemoryError, ValueError):  # ValueError: beyond numpy's largest size
        raise ParastabError(
            f"cannot allocate the record block of (1 + horizon {horizon} x "
            f"{per_hold} records per hold) x M = {m} doubles "
            f"({8 * (1 + horizon * per_hold) * m / 2**30:.3g} GiB)"
        ) from None

    if modal:
        stepper = _ModalStepper(spectrum, dt, stops, w)
        records[0] = stepper.c
        sampled = lambda: stepper.c[:n]  # noqa: E731
        hold = stepper.hold
    else:
        kernel = _CNKernel(spectrum.operator, dt, [dt * q for q in tail], w)
        records[0] = kernel.w
        h2, unstable = spectrum.h**2, spectrum.columns(n)  # project's, gathered once
        sampled = lambda: spectrum.h * (unstable.T @ kernel.w)  # noqa: E731

        def hold(u: float, out: np.ndarray) -> int:
            dt_bc, done = dt * (u / h2), 0
            for row, stop in enumerate(stops):
                tripped = kernel.advance(stop - done, dt_bc)
                if tripped:
                    return done + tripped
                done = stop
                out[row] = kernel.w
            return 0

    held: list[float] = []
    tripped = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(horizon):
            u = control(sampled())
            held.append(u)
            tripped = hold(u, records[1 + i * per_hold : 1 + (i + 1) * per_hold])
            if tripped:
                break

    holds = len(held)
    blowup_time = None
    n_rec = 1 + holds * per_hold
    if tripped:
        # the tripped hold keeps the records before its failing substep
        blowup_time = (holds - 1) * period + tripped * dt
        n_rec -= sum(stop >= tripped for stop in stops)
    # record r >= 1 is at substep stops[(r - 1) % per_hold] of hold
    # (r - 1) // per_hold, at i T + stop dt as a Python float would round it
    times = np.append(0.0, np.add.outer(np.arange(holds) * period, np.array(stops) * dt))
    held_arr = np.array(held) + (0.0 if offset is None else float(offset[-1]))
    # every hold adds per_hold records, its sample last, so record r lies
    # in hold r // per_hold or is the sample that starts it; the final
    # sample starts no hold and carries the last value (left limit)
    records = records[:n_rec]

    return Trajectory(
        kind=kind,
        times=times[:n_rec],
        deviations=None if modal else records,
        offset=offset,
        record_holds=np.minimum(np.arange(n_rec) // per_hold, holds - 1),
        h=spectrum.h,
        schedule=HoldSchedule(period=period, held_values=held_arr),
        sobolev_order=sobolev_order,
        sample_indices=np.arange(0, n_rec, per_hold),
        substeps=substeps,
        problem_hash=problem_fingerprint(problem),
        gains_hash=gains_fingerprint(gains),
        blowup_time=blowup_time,
        modal=_ModalRecords(records, spectrum, w) if modal else None,
    )


def _feedback(gains: GainSet | None) -> Callable[[np.ndarray], float]:
    """apply_feedback on the unstable coordinates _advance passes, without
    its consistency check, which _advance makes once per run; zero without
    gains."""
    if gains is None:
        return lambda c: 0.0
    return lambda c: float(np.dot(gains.gain_row, c))


def _raise_on_blowup(trajectory: Trajectory) -> Trajectory:
    if trajectory.blowup_time is not None:
        raise UnstableStep(
            f"norm exceeded {BLOWUP_GUARD:.0e} at t = {trajectory.blowup_time:.6g}",
            trajectory,
        )
    return trajectory


def run_linear_closed_loop(
    problem: ValidatedProblem,
    spectrum: Spectrum,
    gains: GainSet,
    y0: np.ndarray,
    horizon: int,
    *,
    snapshot_stride: int = 0,
    sobolev_order: float = DEFAULT_SOBOLEV_ORDER,
) -> Trajectory:
    """Linearized dynamics under the sampled feedback.

    Raises UnstableStep (with the partial trajectory attached) if the
    overflow guard trips, which for a synthesized gain indicates an
    inconsistent setup rather than expected behavior.
    """
    return _raise_on_blowup(_advance(
        problem, spectrum, gains, y0, horizon, _feedback(gains),
        kind="linear-closed-loop", snapshot_stride=snapshot_stride,
        sobolev_order=sobolev_order,
    ))


def run_open_loop(
    problem: ValidatedProblem,
    spectrum: Spectrum,
    y0: np.ndarray,
    horizon: int,
    *,
    snapshot_stride: int = 0,
    sobolev_order: float = DEFAULT_SOBOLEV_ORDER,
) -> Trajectory:
    """Uncontrolled baseline (u = 0); grows whenever unstable modes exist.

    Raises UnstableStep (with the partial trajectory attached) if the
    overflow guard trips.
    """
    return _raise_on_blowup(_advance(
        problem, spectrum, None, y0, horizon, lambda c: 0.0,
        kind="open-loop", snapshot_stride=snapshot_stride,
        sobolev_order=sobolev_order,
    ))


def run_semilinear_closed_loop(
    problem: ValidatedProblem,
    spectrum: Spectrum,
    gains: GainSet | None,
    y0: np.ndarray,
    horizon: int,
    *,
    snapshot_stride: int = 0,
    sobolev_order: float = DEFAULT_SOBOLEV_ORDER,
) -> Trajectory:
    """Full nonlinear dynamics; the held control is feedback-of-deviation
    plus the equilibrium's boundary value.

    The nonlinear remainder, reaction minus its linearization at the
    equilibrium, is the exact Taylor tail of the polynomial reaction about
    y_e, sum_{j>=2} q_j w^j with q_j = sum_{i>=j} C(i, j) p_i y_e^{i-j}
    (none for an affine reaction), formed once per run and integrated
    explicitly.  Finite-time escape is expected behavior outside the basin
    of attraction: the run then reports ``blowup_time`` instead of raising,
    whatever the reaction.  gains may be None when there is nothing to
    control (the feedback is then identically zero).
    """
    ye = problem.equilibrium_values
    tail = problem.spec.nonlinearity.taylor_tail(ye[1:-1])
    return _advance(
        problem, spectrum, gains, y0, horizon, _feedback(gains), tail, ye,
        kind="semilinear-closed-loop", snapshot_stride=snapshot_stride,
        sobolev_order=sobolev_order,
    )


@dataclass(frozen=True)
class ZDecomposition:
    """Sampled split of a linear closed-loop run into z plus lift profiles.

    z(t) = y(t) - sum_k psi_k(t) has homogeneous boundary values; its
    unstable coordinates double those of y at every sample.
    """

    sample_times: np.ndarray
    z_samples: np.ndarray  # (H+1, M)
    lift_samples: np.ndarray  # (H+1, N, M)
    half_identity_residuals: np.ndarray  # (H+1,)


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
    samples = trajectory.sample_states()
    # the lift is linear in its datum: one unit-datum solve per placement,
    # scaled by each sample's held datum (row j, column k)
    data = component_feedback(gains, samples.T, spectrum).T
    units = np.array([dirichlet_lift(spectrum, gains, k) for k in range(1, n + 1)])
    lift_samples = data[:, :, None] * units
    z_samples = samples - lift_samples.sum(axis=1)

    yn = project(samples.T, spectrum, n).T
    zn = project(z_samples.T, spectrum, n).T
    scale = np.linalg.norm(yn, axis=1)
    half_res = np.divide(
        np.linalg.norm(yn - 0.5 * zn, axis=1), scale,
        out=np.zeros_like(scale), where=scale > 0,
    )

    return ZDecomposition(
        sample_times=t_samples,
        z_samples=z_samples,
        lift_samples=lift_samples,
        half_identity_residuals=half_res,
    )


def trajectory_to_csv(trajectory: Trajectory) -> str:
    """CSV schema t,l2_norm,sob_norm,u_held (17 significant digits)."""
    lines = ["t,l2_norm,sob_norm,u_held"]
    u_held = trajectory.schedule.held_values[trajectory.record_holds]
    for j, t in enumerate(trajectory.times):
        lines.append(
            f"{t:.17g},{trajectory.l2_norms[j]:.17g},"
            f"{trajectory.sobolev_norms[j]:.17g},{u_held[j]:.17g}"
        )
    return "\n".join(lines) + "\n"


def states_to_csv(trajectory: Trajectory) -> str:
    """Full state dump, one snapshot per row (time first; 17 significant
    digits, one %-format per row)."""
    fmt = ",".join(["%.17g"] * (trajectory.states.shape[1] + 1))
    rows = zip(trajectory.times.tolist(), trajectory.states)
    return "\n".join([fmt % (t, *row.tolist()) for t, row in rows]) + "\n"
