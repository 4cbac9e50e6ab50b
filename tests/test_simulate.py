import dataclasses
import decimal
import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs, solve_banded

import parastab as ps
from parastab.lifting import _shift_coefficients
from parastab import simulate
from parastab.spectral import SOBOLEV_BLOCK_ROWS
from parastab.simulate import (
    BLOWUP_GUARD,
    TooFewSubsteps,
    _advance,
    _CNKernel,
    problem_fingerprint,
    stepped_modes,
)

from conftest import (
    ExactHold, exact_hold_roundoff_bound, exact_hold_run, extended_lift, hold_profiles,
    make_problem, make_spectrum, quiet_gains, sine_potential,
)


def _banded_step(spectrum, dt, w, forcing, dt_tail=(), pivoting=False):
    """Reference CN substep: (I + dt/2 A) rebuilt and solved on every call,
    with the engine's right-hand-side order
    (rd + w (dt q_2 + w (dt q_3 + ...))) w - off (w_+ + w_-) + dt*forcing,
    where rd = 1 - dt/2 diag, off = dt/2 offdiag[0], w_+ and w_- are the
    zero-padded neighbours and dt_tail = (dt q_2, ..., dt q_d) is the
    explicit tail already scaled by dt.  The solve is LAPACK ptsv (LDL^T),
    or solve_banded (pivoted LU) with ``pivoting``."""
    op = spectrum.operator
    diag = 1.0 + 0.5 * dt * op.diag
    off = 0.5 * dt * op.offdiag
    poly = ([1.0 - 0.5 * dt * op.diag] + list(dt_tail))[::-1]
    acc = poly[0]
    for coeff in poly[1:]:
        acc = coeff + w * acc
    padded = np.concatenate(([0.0], w, [0.0]))
    rhs = acc * w - off[0] * (padded[2:] + padded[:-2])
    rhs = rhs + dt * forcing
    if not pivoting:
        *_, x, info = get_lapack_funcs("ptsv", (diag,))(diag, off, rhs)
        assert info == 0
        return x
    ab = np.zeros((3, op.m))
    ab[0, 1:] = off
    ab[1, :] = diag
    ab[2, :-1] = off
    return solve_banded((1, 1), ab, rhs)


def _banded_run(problem, spectrum, w, horizon, control, dt_tail=(), pivoting=False):
    """Every substep state of a zero-order-hold run stepped by _banded_step."""
    substeps = problem.spec.substeps_per_hold
    dt = problem.period / substeps
    states = [w]
    for _ in range(horizon):
        bc = np.zeros(spectrum.m)
        bc[-1] = control(w) / spectrum.h**2
        for _ in range(substeps):
            w = _banded_step(spectrum, dt, w, bc, dt_tail, pivoting)
            states.append(w)
    return np.array(states)


def test_zero_initial_state_stays_zero(problem15, spectrum15, gains15):
    traj = ps.run_linear_closed_loop(
        problem15, spectrum15, gains15, np.zeros(problem15.m), 5
    )
    assert np.all(traj.states == 0.0)
    assert np.all(traj.schedule.held_values == 0.0)
    assert np.all(traj.l2_norms == 0.0)


def test_initial_snapshot_is_initial_condition(problem15, spectrum15, gains15):
    y0 = ps.seeded_initial_state(spectrum15, 9)
    traj = ps.run_linear_closed_loop(
        problem15, spectrum15, gains15, y0, 3
    )
    assert traj.times[0] == 0.0
    assert np.array_equal(traj.interior[0], y0)


def test_stable_mode_decays_at_its_own_rate(problem15, spectrum15, gains15):
    # feedback annihilates the stable mode, so the run is pure modal decay
    y0 = spectrum15.modes[:, 1].copy()
    traj = ps.run_linear_closed_loop(
        problem15, spectrum15, gains15, y0, 3
    )
    assert np.max(np.abs(traj.schedule.held_values)) < 1e-10
    lam2 = spectrum15.lambdas[1]
    norms = traj.l2_norms[traj.sample_indices]
    # per-interval decay factor carries only the (second-order) substep error
    ratios = norms[1:] / norms[:-1]
    assert np.allclose(ratios, np.exp(-lam2 * 0.2), rtol=5e-3)


def test_unstable_mode_contracts_at_placed_rate(problem15, spectrum15, gains15):
    y0 = spectrum15.modes[:, 0].copy()
    traj = ps.run_linear_closed_loop(
        problem15, spectrum15, gains15, y0, 10
    )
    coords = np.array(
        [ps.project(y, spectrum15, 1)[0] for y in traj.sample_states()]
    )
    ratios = coords[1:] / coords[:-1]
    assert np.allclose(ratios, np.exp(-0.4), rtol=2e-3)


def test_zoh_modal_update_matches_oracle_and_converges():
    """One hold interval with a frozen control follows the exact modal map,
    c -> e^{-lambda T} c - (1 - e^{-lambda T}) / lambda flux u, to roundoff
    at M = 200 and 400: within 8 eps e^{|lambda_1| T} relative, the
    amplified rounding of mode 1's term (measured 0.68 and 0.59 in those
    units).  It converges to nothing: the engine steps the plant the gain
    is placed against, the exact hold of the flux's coupling."""
    for m, substeps in ((200, 64), (400, 128)):
        prob = make_problem(grid_points=m, substeps=substeps)
        spectrum = make_spectrum(prob)
        rng = np.random.default_rng(12)
        y0 = rng.standard_normal(m)
        u = 0.7
        traj = _advance(
            prob, spectrum, None, y0, 1,
            control=lambda w: u,
            kind="linear-closed-loop",
        )
        n = spectrum.unstable_count + 2
        lam = spectrum.lambdas[:n]
        flux = spectrum.boundary_flux[:n]
        period = prob.period
        integral = -np.expm1(-lam * period) / lam  # int_0^T e^{-lam s} ds
        oracle = np.exp(-lam * period) * ps.project(y0, spectrum, n) - integral * flux * u
        got = ps.project(traj.sample_states()[-1], spectrum, n)
        assert traj.substeps == prob.spec.substeps_per_hold == substeps
        error = np.linalg.norm(got - oracle) / np.linalg.norm(oracle)
        assert error <= 8 * np.finfo(float).eps * np.exp(-lam[0] * period)


def _cn_roundoff_bound(spectrum, dt, substeps):
    """eps * cond(I + dt/2 A) per substep, summed over ``substeps``: how far
    two backward-stable Crank-Nicolson solvers of the same recursion, or one
    of them and the exact recursion, may part, relative to the state."""
    lam = spectrum.lambdas
    cond = (1.0 + 0.5 * dt * lam[-1]) / (1.0 + 0.5 * dt * lam[0])
    return substeps * np.finfo(float).eps * cond


def _relative_apart(rows, oracle):
    return np.linalg.norm(rows - oracle, axis=1) / np.linalg.norm(oracle, axis=1)


@pytest.mark.parametrize(
    "grid_points, period, substeps, horizon",
    [(16, 0.2, 64, 4), (200, 0.2, 64, 4)],
    ids=["M16", "M200"],
)
def test_linear_step_matches_banded_oracle(grid_points, period, substeps, horizon):
    """The modal engine's rows, every substep, stay within the exact-hold
    roundoff bound of the 40-digit exact hold's (exact_hold_run; measured
    3.5e-15 against 1.5e-14 at M = 16 and 1.4e-15 against 1.5e-14 at
    M = 200).  A linear run on a non-constant potential is held to its own
    reference (test_linear_loop_on_a_nonconstant_potential_is_the_exact_hold)."""
    prob = make_problem(grid_points=grid_points, period=period, substeps=substeps)
    spectrum = make_spectrum(prob)
    gains = quiet_gains(spectrum, (2.0,), period)
    y0 = ps.seeded_initial_state(spectrum, 11)
    traj = ps.run_linear_closed_loop(
        prob, spectrum, gains, y0, horizon, snapshot_stride=1
    )
    exact = spectrum.nodal(exact_hold_run(prob, spectrum, y0, horizon, gains))
    bound = exact_hold_roundoff_bound(spectrum, period, horizon, gains)
    assert _relative_apart(traj.interior, exact).max() <= bound
    feedback = lambda w: ps.apply_feedback(gains, w, spectrum)  # noqa: E731
    oracle = _banded_run(prob, spectrum, y0, horizon, feedback)
    assert oracle.shape[0] - 1 >= 200
    bound = _cn_roundoff_bound(spectrum, period / substeps, oracle.shape[0] - 1)
    # LDL^T and pivoted LU are both backward stable, so their states part
    # by at most the same bound (measured 3.9e-15 at M = 16 and 3.5e-14 at
    # M = 200)
    pivoted = _banded_run(prob, spectrum, y0, horizon, feedback, pivoting=True)
    assert _relative_apart(oracle, pivoted).max() <= bound


def _eigsy_hold_run(problem, spectrum, gains, y0, horizon, dps=40):
    """Samples of the exact zero-order-hold run of the float64 operator, at
    dps digits in its own eigenpairs (mp.eigsy), rounded to float64, and
    the flux -phi_i[M] / h of those modes.  The float64 operator, y0 and
    the gain row are taken as exact; so are the float64 unstable modes that
    read the control, u = g . h Phi_N^T w, as the engine reads its own."""
    op, m, h, period = spectrum.operator, spectrum.m, spectrum.h, problem.period
    cols = spectrum.columns(gains.n)
    with mpmath.workdps(dps):
        a = mpmath.zeros(m, m)
        for i in range(m):
            a[i, i] = op.diag[i]
            if i + 1 < m:
                a[i, i + 1] = a[i + 1, i] = op.offdiag[i]
        lam, q = mpmath.eigsy(a)
        order = sorted(range(m), key=lambda i: lam[i])
        h_mp = mpmath.mpf(h)
        # h-orthonormal with positive first components, as the float64 modes
        modes = [[q[r, i] * mpmath.sign(q[0, i]) / mpmath.sqrt(h_mp) for r in range(m)]
                 for i in order]
        lam = [lam[i] for i in order]
        flux = [-phi[-1] / h_mp for phi in modes]
        # c_i -> r_i c_i - (1 - r_i) / lambda_i flux_i u over one hold
        powers = [mpmath.exp(-x * period) for x in lam]
        inputs = [mpmath.expm1(-x * period) / x * f for x, f in zip(lam, flux)]
        readout = [[h_mp * g * mpmath.mpf(v) for v in cols[:, k]]
                   for k, g in enumerate(gains.gain_row)]
        w = [mpmath.mpf(v) for v in y0]
        rows = [w]
        for _ in range(horizon):
            u = mpmath.fsum(mpmath.fdot(row, w) for row in readout)
            c = [r * h_mp * mpmath.fdot(phi, w) + b * u
                 for r, phi, b in zip(powers, modes, inputs)]
            w = [mpmath.fsum(phi[k] * ci for phi, ci in zip(modes, c)) for k in range(m)]
            rows.append(w)
        return (np.array([[float(v) for v in row] for row in rows]),
                np.array([float(x) for x in lam]), np.array([float(f) for f in flux]))


def _eigen_residual(spectrum, dps=40):
    """max_i |A phi_i - lambda_i phi_i| / |phi_i| of the float64 pairs, at
    dps digits: the backward error of the eigensolver, which bounds each
    eigenvalue's error (a symmetric matrix has an eigenvalue within it of
    every computed one) and through which the modes' error enters."""
    op, modes = spectrum.operator, spectrum.modes
    with mpmath.workdps(dps):
        d, e = [mpmath.mpf(v) for v in op.diag], [mpmath.mpf(v) for v in op.offdiag]
        worst = 0
        for lam, col in zip(spectrum.lambdas, modes.T):
            v = [mpmath.mpf(x) for x in col]
            r = [(d[k] - lam) * v[k] + (e[k - 1] * v[k - 1] if k else 0)
                 + (e[k] * v[k + 1] if k + 1 < len(v) else 0) for k in range(len(v))]
            worst = max(worst, mpmath.sqrt(mpmath.fdot(r, r) / mpmath.fdot(v, v)))
        return float(worst)


@pytest.mark.parametrize("grid_points", [16, 32], ids=lambda m: f"M{m}")
def test_linear_loop_on_a_nonconstant_potential_is_the_exact_hold(grid_points):
    """A linear loop on the sine potential (dstevd's modes; T = 0.2, ten
    holds, seed 11) takes the exact hold: its samples stay within

        holds^2 e^{(|lambda_1| + gamma_1) T} (4 eps + T rho + dflux)

    of the 40-digit exact hold of the float64 operator (_eigsy_hold_run),
    relative to the state.  A hold's relative error is its rounding (a few
    eps), the error of the modes it steps in, rho (_eigen_residual, which
    bounds every dlambda) times T, and dflux, the largest relative error of
    the flux, all amplified by mode 1's e^{|lambda_1| T} while the loop
    contracts the state by e^{-gamma_1 T}.  The boundary input drives the
    stable modes, and lambda_2 (2.4) lies close to gamma_1 (2.0), so an
    error is carried by a transient that grows with the holds: the holds'
    errors add up to at most holds^2 of one.  Measured 2.5e-10 against
    2.9e-9 at M = 16 and 1.2e-10 against 1.3e-8 at M = 32; the
    Crank-Nicolson kernel that stepped these runs before read 7.1e-3 and
    8.0e-3."""
    period, horizon = 0.2, 10
    prob = make_problem(grid_points=grid_points, period=period)
    spectrum = ps.compute_spectrum(prob, sine_potential(grid_points), prob.spec.target_rate)
    assert not spectrum.sine_table  # dstevd's matrix
    gains = quiet_gains(spectrum, (2.0,), period)
    y0 = ps.seeded_initial_state(spectrum, 11)
    traj = ps.run_linear_closed_loop(prob, spectrum, gains, y0, horizon)
    reference, lam, flux = _eigsy_hold_run(prob, spectrum, gains, y0, horizon)
    rho = _eigen_residual(spectrum)
    # the reference eigenvalues are rounded to float64: half an ulp more
    assert np.all(np.abs(spectrum.lambdas - lam) <= rho + 0.5 * np.spacing(np.abs(lam)))
    dflux = np.max(np.abs(spectrum.boundary_flux - flux) / np.abs(flux))
    growth = np.exp((-spectrum.lambdas[0] + gains.gammas[0]) * period)
    bound = horizon**2 * growth * (4 * np.finfo(float).eps + period * rho + dflux)
    assert _relative_apart(traj.sample_states(), reference).max() <= bound


def test_one_substep_at_T2_is_refused_naming_the_count():
    # one substep per hold at T = 2.0 (lambda_1 = -5.13): 1 + dt lambda_1 / 2
    # < 0, so I + dt/2 A is indefinite; floor(2 * 5.13 / 2) + 1 = 6 would do.
    # The semilinear run is stepped by Crank-Nicolson and refused; the
    # linear run takes the exact hold, for which one substep is enough.
    prob = make_problem(period=2.0, substeps=1)
    spectrum = make_spectrum(prob)
    gains = quiet_gains(spectrum, (2.0,), 2.0)
    y0 = ps.seeded_initial_state(spectrum, 11)
    with pytest.raises(TooFewSubsteps, match=r"= 1 gives dt\*\|lambda_1\| = 10.3 >= 2, .*"
                       r"T = 2 needs at least 6 substeps"):
        ps.run_semilinear_closed_loop(prob, spectrum, gains, y0, 200)
    assert ps.run_linear_closed_loop(prob, spectrum, gains, y0, 200).blowup_time is None


@pytest.mark.parametrize("run", ["sine-potential", "open-loop", "semilinear"])
def test_substeps_below_dt_lambda_2_are_stepped_and_above_refused(run):
    """dt |lambda_1| = 1.98 is stepped as the LDL^T (ptsv) oracle steps it,
    bit for bit by the kernel; dt |lambda_1| = 2.02 is refused before the
    first substep.  Every case is a semilinear run (Fisher's tail), the one
    the kernel steps: on the linearization's constant potential, and on the
    sine potential (a varying diagonal) with and without ("open-loop")
    feedback.  A linear run takes the exact hold at any count
    (test_one_substep_at_T2_is_refused_naming_the_count)."""
    substeps = 2

    def spectrum_of(prob):
        if run == "semilinear":
            return make_spectrum(prob)
        return ps.compute_spectrum(prob, sine_potential(prob.m), prob.spec.target_rate)

    lam1 = spectrum_of(make_problem(grid_points=16)).lambdas[0]
    edge = 2.0 * substeps / -lam1  # the period with dt |lambda_1| = 2

    def setup(period):
        prob = make_problem(grid_points=16, period=period, substeps=substeps)
        spectrum = spectrum_of(prob)
        gains = None if run == "open-loop" else quiet_gains(spectrum, (2.0,), period)
        y0 = ps.seeded_initial_state(spectrum, 3, amplitude=1e-6)
        return prob, spectrum, gains, y0

    def step(prob, spectrum, gains, y0):
        ye = prob.equilibrium_values[1:-1]
        return ps.run_semilinear_closed_loop(prob, spectrum, gains, y0 + ye, 2, snapshot_stride=1)

    prob, spectrum, gains, y0 = setup(0.99 * edge)
    traj = step(prob, spectrum, gains, y0)
    dt = prob.period / substeps
    assert dt * -spectrum.lambdas[0] == pytest.approx(1.98)
    ye = prob.equilibrium_values[1:-1]
    tail = [dt * q for q in prob.spec.nonlinearity.taylor_tail(ye)]
    control = (lambda w: 0.0) if gains is None else (
        lambda w: ps.apply_feedback(gains, w, spectrum))
    oracle = _banded_run(prob, spectrum, y0, 2, control, tail)
    assert traj.blowup_time is None
    assert np.array_equal(traj.interior, oracle + ye)

    with pytest.raises(TooFewSubsteps, match=r"= 2 gives dt\*\|lambda_1\| = 2.02 >= 2, .*"
                       r"needs at least 3 substeps"):
        step(*setup(1.01 * edge))


def test_multimode_at_T2_needs_86_substeps(problem95, spectrum95):
    """a = 95 at T = 2.0: lambda_1 = -85.1, so a semilinear run (stepped by
    Crank-Nicolson) with 64 or 85 substeps is refused and one with 86 is
    stepped (without feedback it then blows up, as it should).  The linear
    open loop takes the exact hold and is refused at no count."""
    y0 = ps.seeded_initial_state(spectrum95, 7)
    for substeps, message in ((64, r"= 64 gives dt\*\|lambda_1\| = 2.66 >= 2"), (85, "= 85 ")):
        prob = ps.validate_spec(dataclasses.replace(
            problem95.spec, sampling_period=2.0, substeps_per_hold=substeps))
        with pytest.raises(TooFewSubsteps, match=f"{message}.*at least 86 substeps"):
            ps.run_semilinear_closed_loop(prob, spectrum95, None, y0, 1)
        with pytest.raises(ps.UnstableStep):
            ps.run_open_loop(prob, spectrum95, y0, 1)
    prob = ps.validate_spec(dataclasses.replace(
        problem95.spec, sampling_period=2.0, substeps_per_hold=86))
    assert ps.run_semilinear_closed_loop(prob, spectrum95, None, y0, 1).blowup_time is not None


@pytest.mark.parametrize("start", [0, 2], ids=lambda s: f"start{s}")
@pytest.mark.parametrize("period", [0.2, 1.0, 2.0])
def test_stepped_modes_match_the_kernel_recursion(spectrum95, period, start):
    """(r, beta) of stepped_modes, r_i = e^{-lambda~_i T} and beta_i =
    -(1 - r_i) / lambda_i b~_i, against the unstable coordinates of one hold
    of the kernel's substeps recurred at 40 digits: (1 + 2a) c' = c + dt
    phi[M] / h u per backward-Euler start substep and (1 + a) c' = (1 - a) c
    + dt phi[M] / h u per Crank-Nicolson substep, a = dt lambda / 2.  From
    c = 1 with u = 0 the hold gives r, from c = 0 with u = 1 it gives beta."""
    substeps = 192  # dt |lambda_1| = 0.89 at T = 2
    with mpmath.workdps(40):
        rates, inputs = stepped_modes(spectrum95, period, substeps, start)
        dt, h = mpmath.mpf(period / substeps), mpmath.mpf(spectrum95.h)
        for i, (rate, b) in enumerate(zip(rates, inputs)):
            lam = mpmath.mpf(spectrum95.lambdas[i])
            a, drive = dt * lam / 2, dt * mpmath.mpf(spectrum95.modes[-1, i]) / h
            c, d = mpmath.mpf(1), mpmath.mpf(0)
            for j in range(substeps):
                if j < start:
                    c, d = c / (1 + 2 * a), (d + drive) / (1 + 2 * a)
                else:
                    c, d = (1 - a) * c / (1 + a), ((1 - a) * d + drive) / (1 + a)
            r = mpmath.exp(-rate * period)
            assert abs(c - r) <= 1e-30 * abs(r)
            assert abs(d + (1 - r) / lam * b) <= 1e-30 * abs(d)


def test_stepped_modes_match_the_float64_kernel(spectrum95):
    """One hold of _CNKernel itself, projected on the unstable modes: from
    phi_i with u = 0 mode i comes out as r_i, and from 0 with u = 1 the
    unstable coordinates come out as beta, to 1e-10 of the largest one (the
    float64 eigenpairs couple the modes at roundoff, which mode 1 amplifies
    by e^{-lambda~_1 T} = 2.7e7)."""
    period, substeps, n = 0.2, 64, spectrum95.unstable_count
    dt = period / substeps
    rates, inputs = stepped_modes(spectrum95, period, substeps)
    r = np.array([float(mpmath.exp(-x * period)) for x in rates])
    beta = -(1 - r) / spectrum95.lambdas[:n] * np.array([float(b) for b in inputs])
    for i in range(n):
        kernel = _CNKernel(spectrum95.operator, dt, (), spectrum95.modes[:, i])
        assert kernel.advance(substeps, 0.0) == 0
        assert ps.project(kernel.w, spectrum95, n)[i] == pytest.approx(r[i], rel=1e-10)
    kernel = _CNKernel(spectrum95.operator, dt, (), np.zeros(spectrum95.m))
    assert kernel.advance(substeps, dt / spectrum95.h**2) == 0
    assert np.abs(ps.project(kernel.w, spectrum95, n) - beta).max() <= 1e-10 * np.abs(beta).max()


def test_stepped_modes_refuse_a_sign_flipping_substep(spectrum95):
    """lambda_1 = -85.1: at T = 1.0 Crank-Nicolson steps 64 substeps, but a
    backward-Euler start substep needs dt |lambda_1| < 1, so 86; at T = 2.0
    Crank-Nicolson itself needs 86 (the _check_substeps message)."""
    stepped_modes(spectrum95, 1.0, 64)
    for substeps, message in ((64, r"= 64 gives dt\*\|lambda_1\| = 1.33 >= 1, "), (85, "= 85 ")):
        with pytest.raises(TooFewSubsteps,
                           match=f"{message}.*backward-Euler.*at least 86 substeps"):
            stepped_modes(spectrum95, 1.0, substeps, start=2)
    stepped_modes(spectrum95, 1.0, 86, start=2)
    with pytest.raises(TooFewSubsteps, match=r"= 64 gives dt\*\|lambda_1\| = 2.66 >= 2, "
                       r".*Crank-Nicolson.*at least 86 substeps"):
        stepped_modes(spectrum95, 2.0, 64)
    with pytest.raises(ValueError, match="start must lie in"):
        stepped_modes(spectrum95, 1.0, 86, start=87)


def test_stepped_modes_refuse_a_sign_flipping_last_mode():
    """A target_rate above 2/dt makes a mode with lambda > 0 unstable: f = 0
    on 64 nodes at rho = 900 has nine, lambda_9 = 786.9, so with 64 substeps
    dt lambda_9 = 2.46 and CN flips its sign; 79 substeps step it."""
    spectrum = make_spectrum(ps.validate_spec(ps.ProblemSpec(
        nonlinearity=ps.linear_reaction(0.0), grid_points=64, target_rate=900.0)))
    assert spectrum.unstable_count == 9
    with pytest.raises(TooFewSubsteps, match=r"= 64 gives dt\*lambda_9 = 2.46 >= 2, .*"
                       r"unstable mode 9 .*at least 79 substeps"):
        stepped_modes(spectrum, 0.2, 64)
    rates, _ = stepped_modes(spectrum, 0.2, 79)
    assert all(isinstance(x, mpmath.mpf) for x in rates)


def test_semilinear_step_matches_banded_oracle(problem15, spectrum15, gains15):
    ye = problem15.equilibrium_values[1:-1]
    c = ps.linearized_coefficient(problem15)
    dt = problem15.period / problem15.spec.substeps_per_hold
    # Fisher: the Taylor tail about y_e is the single term q_2 w^2, and the
    # engine forms (rd + w (dt q_2)) w; test_taylor_tail_matches_mpmath
    # checks that product against rd w + dt (f(y_e + w) - f(y_e) - f_y(y_e) w)
    (q2,) = problem15.spec.nonlinearity.taylor_tail(ye)
    dt_q2 = dt * q2

    def remainder(w):
        return w * w * dt_q2

    y0 = ps.seeded_initial_state(spectrum15, 19, amplitude=0.3)
    traj = ps.run_semilinear_closed_loop(
        problem15, spectrum15, gains15, y0 + ye, 4, snapshot_stride=1
    )
    oracle = _banded_run(
        problem15, spectrum15, y0, 4,
        lambda w: ps.apply_feedback(gains15, w, spectrum15), [dt_q2],
    )
    assert oracle.shape[0] - 1 >= 200
    assert traj.blowup_time is None
    # the remainder is not negligible over the run
    assert np.abs(remainder(oracle[-1])).max() > 1e-3 * np.abs(dt * c * oracle[-1]).max()
    assert np.array_equal(traj.interior, oracle + ye)


def _record_substeps(substeps, horizon, stride):
    """Run-wide substep index of every state a run records: each hold's end,
    and every ``stride`` substeps into a hold."""
    return [
        n for n in range(substeps * horizon + 1)
        if n % substeps == 0 or (stride and n % substeps % stride == 0)
    ]


@pytest.mark.parametrize("loop", ["linear", "fisher"])
def test_block_recording_matches_banded_oracle(loop, problem15, spectrum15, gains15):
    """Every row the engine records is the oracle's state at that substep,
    whatever the stride (10 does not divide the 64 substeps of a hold): bit
    for bit the Crank-Nicolson oracle's from the kernel (Fisher), which
    steps from one record point to the next, within the exact-hold
    roundoff bound of the 40-digit exact hold's from the modal engine
    (linear), which maps each record from the hold's sample.  Either way
    the samples do not depend on the stride, bit for bit."""
    horizon = 4
    substeps = problem15.spec.substeps_per_hold
    dt = problem15.period / substeps
    y0 = ps.seeded_initial_state(spectrum15, 19, amplitude=0.3)
    feedback = lambda w: ps.apply_feedback(gains15, w, spectrum15)  # noqa: E731
    if loop == "linear":
        offset = np.zeros(problem15.m)
        oracle = spectrum15.nodal(exact_hold_run(problem15, spectrum15, y0, horizon, gains15))
        bound = exact_hold_roundoff_bound(spectrum15, problem15.period, horizon, gains15)

        def same(rows, reference):
            return _relative_apart(rows, reference).max() <= bound

        def run(stride):
            return ps.run_linear_closed_loop(
                problem15, spectrum15, gains15, y0, horizon, snapshot_stride=stride
            )
    else:
        offset = problem15.equilibrium_values[1:-1]
        (q2,) = problem15.spec.nonlinearity.taylor_tail(offset)
        oracle = _banded_run(problem15, spectrum15, y0, horizon, feedback, [dt * q2])
        same = np.array_equal

        def run(stride):
            return ps.run_semilinear_closed_loop(
                problem15, spectrum15, gains15, y0 + offset, horizon, snapshot_stride=stride
            )

    samples = {}
    for stride in (0, 1, 8, 10):
        traj = run(stride)
        recorded = _record_substeps(substeps, horizon, stride)
        assert traj.blowup_time is None
        assert traj.times.size == len(recorded)
        assert np.allclose(traj.times, np.array(recorded) * dt, rtol=0, atol=1e-12)
        assert same(traj.interior, oracle[recorded] + offset)
        hold_ends = range(0, len(oracle), substeps)
        assert np.array_equal(traj.sample_indices, [recorded.index(n) for n in hold_ends])
        samples[stride] = traj.sample_states()
    for stride in (1, 8, 10):
        assert np.array_equal(samples[stride], samples[0])


TAIL_REACTIONS = [
    ps.fisher_reaction(15.0),
    ps.cubic_reaction(),
    ps.polynomial_reaction([0.3, -2.0, 1.5, 4.0, -2.5]),
    ps.linear_reaction(7.0),
]


@pytest.mark.parametrize("reaction", TAIL_REACTIONS, ids=lambda r: r.kind)
@pytest.mark.parametrize("equilibrium", ["zero", "one", "sine"])
def test_taylor_tail_matches_mpmath(reaction, equilibrium):
    """The kernel's diagonal product (rd + w (dt q_2 + w (dt q_3 + ...))) w
    against rd w + dt (f(y_e + w) - f(y_e) - f_y(y_e) w) in 40-digit mpmath,
    on the same float64 rd, y_e and w.  The product is read off one kernel
    substep on an operator with a zero off-diagonal and the solve replaced
    by the identity.  Affine reactions: the product is rd w rounded once.
    Otherwise the bound is 2 d eps (|rd w| + sum_j dt qbar_j |w|^j), d the
    degree, qbar_j the q_j of |p_i| and |y_e| (= |q_j| when forming q_j does
    not cancel): the Horner bound of a degree-d polynomial, which also
    covers forming the q_j; the largest error measured is 0.23 of it."""
    x = np.linspace(0.0, 1.0, 34)[1:-1]
    h = x[0]
    ye = {"zero": np.zeros_like(x), "one": np.ones_like(x), "sine": np.sin(np.pi * x)}[
        equilibrium
    ]
    w = np.random.default_rng(3).uniform(-1.5, 1.5, x.size)
    w[:4] = (1e-9, -3e-6, 0.0, 2.0)
    dt = 0.2 / 64
    tail = reaction.taylor_tail(ye)
    p = reaction.coefficients
    d = len(p) - 1
    assert len(tail) == max(d - 1, 0)
    f_y = sum(i * c * ye ** (i - 1) for i, c in enumerate(p) if i)
    op = ps.TridiagonalOperator(diag=2.0 / h**2 - f_y, offdiag=np.zeros(x.size - 1), h=h)
    rd = 1.0 - 0.5 * dt * op.diag
    kernel = _CNKernel(op, dt, [dt * q for q in tail], w)
    kernel.solve = lambda b, overwrite_b: None
    assert kernel.advance(1, 0.0) == 0
    got = kernel.w

    with mpmath.workdps(40):
        mp_p = [mpmath.mpf(c) for c in p]

        def f(y):
            return sum(c * y**i for i, c in enumerate(mp_p))

        def mp_f_y(y):
            return sum(i * c * y ** (i - 1) for i, c in enumerate(mp_p) if i)

        exact = np.array([
            float(r * b + mpmath.mpf(dt) * (f(a + b) - f(a) - mp_f_y(a) * b))
            for r, a, b in (map(mpmath.mpf, t) for t in zip(rd, ye, w))
        ])
    if not tail:
        # affine: nothing is added to rd w, and nothing is missing
        assert np.array_equal(got, rd * w)
        assert np.array_equal(got, exact)
        return
    qbar = [
        sum(math.comb(i, j) * abs(p[i]) * np.abs(ye) ** (i - j) for i in range(j, d + 1))
        for j in range(2, d + 1)
    ]
    scale = np.abs(rd * w) + sum(dt * q * np.abs(w) ** j for j, q in enumerate(qbar, start=2))
    assert np.all(np.abs(got - exact) <= 2 * d * np.finfo(float).eps * scale)


def _decimal_cn_sample_l2(problem, spectrum, gains, y0, horizon, tail=()):
    """L2 norm at every sample of the zero-order-hold CN recursion
    (I + dt/2 A) w' = (I - dt/2 A) w + dt sum_j q_j w^j + dt u/h^2 e_M
    in 40-digit decimal arithmetic, on the engine's float64 data taken as
    exact: A's diagonal and off-diagonal, dt, h, the q_j, the gain row, the
    first N modes and y0.  u = g . (h Phi_N^T w) is sampled from the
    recursion's own state at the start of each hold, as the engine does."""
    D = decimal.Decimal
    with decimal.localcontext(prec=40):
        m = spectrum.m
        substeps = problem.spec.substeps_per_hold
        dt = D(problem.period / substeps)
        h = D(spectrum.h)
        op = spectrum.operator
        a_diag = [D(v) for v in op.diag]
        a_off = [D(v) for v in op.offdiag] + [D(0)]  # a_off[-1] pads both ends
        qs = [[D(v) for v in np.broadcast_to(q, (m,))] for q in tail]
        modes = [[D(v) for v in spectrum.modes[:, i]] for i in range(gains.n)]
        gain = [D(v) for v in gains.gain_row]
        # LDL^T elimination of I + dt/2 A, once: pivots and multipliers
        lo = [dt / 2 * v for v in a_off]
        piv, mult = [1 + dt / 2 * a_diag[0]], [D(0)]
        for i in range(1, m):
            mult.append(lo[i - 1] / piv[-1])
            piv.append(1 + dt / 2 * a_diag[i] - mult[-1] * lo[i - 1])
        w = [D(v) for v in y0]
        norms = []
        for hold in range(horizon + 1):
            norms.append(float((h * sum(v * v for v in w)).sqrt()))
            if hold == horizon:
                break
            u = sum(g * h * sum(p * v for p, v in zip(mode, w)) for g, mode in zip(gain, modes))
            for _ in range(substeps):
                padded = [D(0), *w, D(0)]
                rhs = [
                    w[i] - dt / 2 * (a_diag[i] * w[i] + a_off[i] * padded[i + 2]
                                     + a_off[i - 1] * padded[i])
                    + sum(dt * q[i] * w[i] ** j for j, q in enumerate(qs, start=2))
                    for i in range(m)
                ]
                rhs[-1] += dt * u / (h * h)
                for i in range(1, m):
                    rhs[i] -= mult[i] * rhs[i - 1]
                w[-1] = rhs[-1] / piv[-1]
                for i in range(m - 2, -1, -1):
                    w[i] = (rhs[i] - lo[i] * w[i + 1]) / piv[i]
        return np.array(norms)


@pytest.mark.parametrize("loop", ["linear", "fisher"])
def test_sample_l2_history_matches_extended_precision_cn(loop):
    """Accuracy guard: the largest relative error of the sample L2 history
    against the CN recursion in 40-digit decimal arithmetic (M = 64,
    T = 0.2, 32 substeps, 10 holds).  The engine with today's summation
    order measured 4.3e-14 (linear) and 8.7e-15 (Fisher); the previous
    order, (I - dt/2 A) w from a diagonal and two off-diagonal products plus
    a separate (w w)(dt q_2) tail, measured 1.9e-14 and 9.1e-15.  The bound
    is five times the larger of those two.  Rows rescaled so the neighbour
    coefficient is exactly 1 measured 2.1e-12 on both runs.  The linear run
    takes the modal engine (a constant potential), the exact hold, so its
    reference is the 40-digit exact hold (exact_hold_run): 1.2e-14."""
    prob = make_problem(grid_points=64, period=0.2, substeps=32)
    spectrum = make_spectrum(prob)
    gains = quiet_gains(spectrum, (2.0,), prob.period)
    y0 = ps.seeded_initial_state(spectrum, 23, amplitude=0.1)
    horizon = 10
    if loop == "linear":
        traj = ps.run_linear_closed_loop(prob, spectrum, gains, y0, horizon)
        exact = exact_hold_run(prob, spectrum, y0, horizon, gains, samples_only=True)
        reference = np.sqrt((exact * exact).sum(axis=1))
    else:
        ye = prob.equilibrium_values[1:-1]
        tail = prob.spec.nonlinearity.taylor_tail(ye)
        traj = ps.run_semilinear_closed_loop(prob, spectrum, gains, y0 + ye, horizon)
        assert traj.blowup_time is None
        reference = _decimal_cn_sample_l2(prob, spectrum, gains, y0, horizon, tail)
    assert traj.l2_norms.shape == reference.shape == (horizon + 1,)
    assert np.max(np.abs(traj.l2_norms - reference) / reference) <= 1e-13


@pytest.mark.parametrize(
    "a, period, gammas, horizon",
    [(15.0, 2.0, (2.0,), 5), (95.0, 0.05, (2.0, 3.0, 4.0), 10)],
    ids=["M200-T2", "a95-N3-T0.05"],
)
def test_linear_l2_history_matches_sine_basis_cn(a, period, gammas, horizon):
    """Accuracy guard of the modal engine: the largest relative error of the
    sample L2 history against the exact zero-order hold at 40 digits in the
    exact sine eigenbasis (exact_hold_run; M = 200, 64 substeps, seed 23),
    held to the exact-hold roundoff bound: measured 1.9e-9 against 6.9e-9
    at T = 2 and 2.9e-13 against 6.9e-13 at a = 95.  The error is the
    float64 floor of the placed loop: each hold rounds terms that mode 1
    amplified by e^{|lambda_1| T}, while the loop contracts the state by
    e^{-gamma_1 T}."""
    prob = make_problem(a=a, period=period, gammas=gammas)
    spectrum = make_spectrum(prob)
    gains = quiet_gains(spectrum, gammas, period)
    y0 = ps.seeded_initial_state(spectrum, 23, amplitude=0.1)
    traj = ps.run_linear_closed_loop(prob, spectrum, gains, y0, horizon)
    exact = exact_hold_run(prob, spectrum, y0, horizon, gains, samples_only=True)
    reference = np.sqrt((exact * exact).sum(axis=1))
    assert traj.l2_norms.shape == reference.shape == (horizon + 1,)
    bound = exact_hold_roundoff_bound(spectrum, period, horizon, gains)
    assert np.max(np.abs(traj.l2_norms - reference) / reference) <= bound


def test_linear_only_semilinear_run_is_the_linear_run():
    prob = ps.validate_spec(ps.ProblemSpec(
        nonlinearity=ps.linear_reaction(15.0), grid_points=64,
        gammas=(2.0,), substeps_per_hold=16,
    ))
    spectrum = make_spectrum(prob)
    gains = ps.build_gains(spectrum, (2.0,), prob.period)
    y0 = ps.seeded_initial_state(spectrum, 5)
    semi = ps.run_semilinear_closed_loop(prob, spectrum, gains, y0, 6, snapshot_stride=4)
    lin = ps.run_linear_closed_loop(prob, spectrum, gains, y0, 6, snapshot_stride=4)
    assert semi.kind == "semilinear-closed-loop"
    for field in ("times", "states", "l2_norms", "sobolev_norms", "sample_indices"):
        assert np.array_equal(getattr(semi, field), getattr(lin, field))
    assert np.array_equal(semi.schedule.held_values, lin.schedule.held_values)

    # a blow-up without a remainder is still reported, not raised
    big = 1e6 * spectrum.modes[:, 0]
    escaped = ps.run_semilinear_closed_loop(prob, spectrum, None, big, 40)
    with pytest.raises(ps.UnstableStep) as info:
        ps.run_open_loop(prob, spectrum, big, 40)
    assert escaped.blowup_time is not None
    assert escaped.blowup_time == info.value.trajectory.blowup_time
    assert np.array_equal(escaped.states, info.value.trajectory.states)


def _poisoning_solver(monkeypatch, poisoned, bad):
    """Patch the engine's solve so the state of solve call ``poisoned`` has
    entry 5 set to ``bad``; returns the list that counts the calls."""
    calls = []
    real = simulate._cn_solver

    def poisoning_solver(op, dt):
        solve = real(op, dt)

        def poisoning_solve(b, overwrite_b):
            calls.append(None)
            solve(b, overwrite_b)
            if len(calls) == poisoned:
                b[5] = bad

        return poisoning_solve

    monkeypatch.setattr(simulate, "_cn_solver", poisoning_solver)
    return calls


@pytest.fixture(scope="module")
def sine_spectrum15(problem15):
    """problem15's grid at the sine potential, whose modes are dstevd's:
    its semilinear runs take the Crank-Nicolson kernel with a varying
    diagonal, its linear runs the exact hold in dstevd's basis."""
    return ps.compute_spectrum(problem15, sine_potential(problem15.m), problem15.spec.target_rate)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_guard_trips_on_nonfinite_state(monkeypatch, problem15, sine_spectrum15, bad):
    substeps = problem15.spec.substeps_per_hold
    poisoned = substeps + 6  # hold 1, substep 6
    calls = _poisoning_solver(monkeypatch, poisoned, bad)
    y0 = ps.seeded_initial_state(sine_spectrum15, 2, amplitude=1e-6)
    traj = ps.run_semilinear_closed_loop(problem15, sine_spectrum15, None, y0, 4,
                                         snapshot_stride=1)
    dt = problem15.period / substeps
    assert len(calls) == poisoned
    assert traj.blowup_time == 1 * problem15.period + 6 * dt
    # snapshots stop at the last finite substep before the poisoned one
    assert traj.times.size == poisoned
    assert traj.states.shape[0] == traj.l2_norms.size == poisoned
    assert traj.times[-1] == 1 * problem15.period + 5 * dt
    assert traj.schedule.held_values.shape == (2,)
    assert np.all(np.isfinite(traj.states))
    assert np.all(np.isfinite(traj.l2_norms))


def test_guard_trips_inside_a_record_block(monkeypatch, problem15, sine_spectrum15):
    """The kernel checks the guard after every substep, not once per block
    of snapshot_stride substeps: a state poisoned at hold 1, substep 6 stops
    the semilinear run there although the next record point is substep 8."""
    substeps = problem15.spec.substeps_per_hold
    period = problem15.period
    dt = period / substeps
    calls = _poisoning_solver(monkeypatch, substeps + 6, np.inf)
    y0 = ps.seeded_initial_state(sine_spectrum15, 2, amplitude=1e-6)
    traj = ps.run_semilinear_closed_loop(problem15, sine_spectrum15, None, y0, 4,
                                         snapshot_stride=8)
    assert len(calls) == substeps + 6
    assert traj.blowup_time == 1 * period + 6 * dt
    # the records are t = 0, the eight of hold 0 and nothing of hold 1
    per_hold = substeps // 8
    assert traj.times.size == traj.states.shape[0] == traj.l2_norms.size == per_hold + 1
    assert traj.times[-1] == 1 * period
    assert np.array_equal(traj.sample_indices, [0, per_hold])
    assert traj.schedule.held_values.shape == (2,)
    assert np.all(np.isfinite(traj.states))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_modal_guard_trips_on_nonfinite_control(problem15, spectrum15, bad):
    """A held value that is NaN or inf, from the control at hold 1, fails
    the modal engine's guard at that hold's first substep; the records stop
    at the sample that starts the hold."""
    substeps = problem15.spec.substeps_per_hold
    period = problem15.period
    calls = []

    def control(coords):
        calls.append(None)
        return bad if len(calls) == 2 else 0.0

    traj = _advance(
        problem15, spectrum15, None, ps.seeded_initial_state(spectrum15, 2), 4, control,
        kind="open-loop", snapshot_stride=8,
    )
    assert len(calls) == 2
    assert traj.blowup_time == 1 * period + 1 * (period / substeps)
    per_hold = substeps // 8
    assert traj.times.size == traj.deviations.shape[0] == per_hold + 1
    assert traj.times[-1] == 1 * period
    assert np.all(np.isfinite(traj.deviations))
    assert np.all(np.isfinite(traj.l2_norms))


def test_modal_guard_trips_inside_a_record_block(problem15, spectrum15):
    """The modal engine bounds a whole block at once but times a blow-up to
    its substep: an open loop from a large mode-1 state first fails the
    guard at hold 1, substep 14, inside the block that ends at substep 16,
    where the 40-digit exact hold's state first fails it; the records stop
    at the record point before it."""
    substeps, horizon, stride = problem15.spec.substeps_per_hold, 2, 8
    period = problem15.period
    dt = period / substeps
    y0 = 2.9e11 * spectrum15.modes[:, 0]
    exact = exact_hold_run(problem15, spectrum15, y0, horizon)
    oracle = spectrum15.nodal(exact)
    norms = np.sqrt((exact * exact).sum(axis=1))
    first = int(np.argmax(norms > BLOWUP_GUARD))
    assert first == substeps + 14
    with pytest.raises(ps.UnstableStep) as info:
        ps.run_open_loop(problem15, spectrum15, y0, horizon, snapshot_stride=stride)
    traj = info.value.trajectory
    assert traj.blowup_time == 1 * period + 14 * dt
    recorded = [n for n in _record_substeps(substeps, horizon, stride) if n < first]
    assert recorded[-1] == substeps + 8
    assert np.allclose(traj.times, np.array(recorded) * dt, rtol=0, atol=1e-12)
    bound = exact_hold_roundoff_bound(spectrum15, period, horizon)
    assert _relative_apart(traj.interior, oracle[recorded]).max() <= bound
    assert traj.l2_norms.max() <= BLOWUP_GUARD


def test_a_zero_eigenvalue_is_stepped():
    """linear_reaction(647.9999999999999) at M = 17 gives lambda_9 = 0.0
    exactly.  Its mode integrates the held input, k dt (-flux_9) u after k
    substeps (the limit of (1 - r^k) / lambda), so the open loop is stepped
    (a 0 * inf input once made its first substep NaN, a false blow-up), and
    a held u = 1 moves c_9 from 0 to K dt (-flux_9) over a hold."""
    prob = ps.validate_spec(ps.ProblemSpec(
        nonlinearity=ps.linear_reaction(647.9999999999999), grid_points=17,
        sampling_period=0.01, substeps_per_hold=64,
    ))
    spectrum = make_spectrum(prob)
    assert spectrum.lambdas[8] == 0.0
    y0 = ps.seeded_initial_state(spectrum, 7, amplitude=1e-8)
    traj = ps.run_open_loop(prob, spectrum, y0, 1)
    assert traj.blowup_time is None
    assert np.all(np.isfinite(traj.l2_norms)) and 1e-6 < traj.l2_norms[-1] < 1e-5
    dt = prob.period / 64
    stepper = simulate._ModalStepper(spectrum, dt, [64], np.zeros(prob.m))
    out = np.empty((1, prob.m))
    assert stepper.hold(1.0, out) == 0
    assert out[0, 8] == 64 * dt * -spectrum.boundary_flux[8]
    assert np.all(np.isfinite(out))


def test_modal_hold_fallback_matches_the_one_map(monkeypatch, problem15, spectrum15, gains15):
    """A hold whose hold-wide bound fails is stepped one substep at a time:
    with the guard just above the run's largest substep norm, the closed
    loop's bounds (max(|c_i|, |c_i(K)|) mode by mode, above |c| along the
    hold when its modes peak at different ends) fail while no substep
    trips.  Its rows are those of the one-map holds to within the
    exact-hold roundoff bound, though not bit for bit (the substeps are
    chained), and it reports no blow-up."""
    horizon, stride = 4, 8
    y0 = ps.seeded_initial_state(spectrum15, 19)

    def run(snapshot_stride):
        return ps.run_linear_closed_loop(
            problem15, spectrum15, gains15, y0, horizon, snapshot_stride=snapshot_stride
        )

    largest = run(1).l2_norms.max()  # every substep's state
    one_map = run(stride)
    monkeypatch.setattr(simulate, "BLOWUP_GUARD", largest * (1.0 + 1e-6))
    stepped = run(stride)
    assert stepped.blowup_time is None
    assert np.array_equal(stepped.times, one_map.times)
    assert not np.array_equal(stepped.interior, one_map.interior)
    bound = exact_hold_roundoff_bound(spectrum15, problem15.period, horizon, gains15)
    assert _relative_apart(stepped.interior, one_map.interior).max() <= bound


def test_modal_hold_bound_reads_its_rows(monkeypatch, spectrum15):
    """Each mode moves monotonically along a hold, so a hold is bounded by
    the rows it computes, max(|c_i|, |c_i(k_1)|, ..., |c_i(K)|), not by
    r_i^K |c_i| + |I_i(K) u|.  At the fixed point c = s u of a T = 4 hold
    (r_1^K = 8e8) every state is c: with the guard at 10 |c| the hold takes
    the one map, bit for bit, where the growth bound would step it substep
    by substep.  Past the float64 envelope (T = 30, r_1^K = e^{154}) the
    one map's rows are roundoff; a row past the guard fails the bound, so
    the hold is stepped and the blow-up is reported, and no record passes
    the guard (they once reached 9.7e24 at seed 7 with no blow-up)."""
    dt = 4.0 / 64
    fixed = -spectrum15.boundary_flux / spectrum15.lambdas
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "BLOWUP_GUARD", 10 * np.linalg.norm(fixed))
        stepper = simulate._ModalStepper(spectrum15, dt, [32, 64], np.zeros(spectrum15.m))
    stepper.c = fixed
    assert np.exp(-64 * dt * spectrum15.lambdas[0]) > 8e8
    out = np.empty((2, spectrum15.m))
    assert stepper.hold(1.0, out) == 0
    assert np.array_equal(out, stepper.powers * fixed + stepper.inputs * 1.0)
    assert np.allclose(out, fixed, rtol=1e-6, atol=0)

    prob = make_problem(period=30.0)
    gains = quiet_gains(spectrum15, (2.0,), 30.0)
    y0 = ps.seeded_initial_state(spectrum15, 7)
    with pytest.raises(ps.UnstableStep) as info:
        ps.run_linear_closed_loop(prob, spectrum15, gains, y0, 3, snapshot_stride=8)
    assert info.value.trajectory.l2_norms.max() <= BLOWUP_GUARD


def test_modal_run_transforms_records_only_when_read(monkeypatch, problem15, spectrum15,
                                                     gains15):
    """A modal run keeps its sine coordinates: the run, its norm histories
    and their fits transform the initial state alone (Spectrum.modal);
    sample_states() then transforms the H + 1 sample rows once and
    ``states`` every record once, row for row the same bits."""
    from parastab import spectral

    horizon = 6
    y0 = ps.seeded_initial_state(spectrum15, 5)
    calls = []
    real = spectral._sine_products

    def counting(y, h, factor):
        calls.append((len(np.atleast_2d(y)), "modal" if factor == h else "nodal"))
        return real(y, h, factor)

    monkeypatch.setattr(spectral, "_sine_products", counting)
    traj = ps.run_linear_closed_loop(problem15, spectrum15, gains15, y0, horizon,
                                     snapshot_stride=8)
    traj.l2_norms, traj.sobolev_norms
    for norm_kind in ("l2", "sobolev"):
        ps.fit_decay_rate(traj, norm_kind=norm_kind)
    assert calls == [(1, "modal")]
    samples = traj.sample_states()
    assert calls[1:] == [(horizon + 1, "nodal")]
    states = traj.states
    assert calls[2:] == [(traj.times.size, "nodal")]
    assert np.array_equal(samples, states[traj.sample_indices, 1:-1])
    assert np.array_equal(states[0, 1:-1], y0)


@pytest.mark.parametrize("grid_points", [200, 1000])
def test_modal_l2_norms_are_the_node_rows_norms(grid_points):
    """A modal run's L2 history is |c| of its coordinates, which is the
    h-norm of the node rows by h-orthonormality: every record within
    4 eps sqrt(log M) relative of sqrt(h) |node row| (measured 0.85 at
    M = 200 and 0.70 at M = 1000, in units of eps sqrt(log M))."""
    prob = make_problem(grid_points=grid_points)
    spectrum = make_spectrum(prob)
    gains = quiet_gains(spectrum, (2.0,), prob.period)
    y0 = ps.seeded_initial_state(spectrum, 23)
    traj = ps.run_linear_closed_loop(prob, spectrum, gains, y0, 8, snapshot_stride=8)
    node = np.sqrt(prob.h) * np.linalg.norm(traj.deviations, axis=1)
    bound = 4.0 * np.finfo(float).eps * np.sqrt(np.log(grid_points))
    assert np.max(np.abs(traj.l2_norms - node) / node) <= bound


def test_modal_sobolev_norms_are_the_node_rows_norms(problem15, spectrum15, gains15):
    """A modal run's Sobolev history is sobolev_norm of its node rows.  On
    a sine table it weights the coordinates themselves, the Laplacian's
    sine coordinates, bit for bit as sobolev_norm(..., coordinates=True)
    and within 4 eps sqrt(log M) of the node rows' norms.  On dstevd's
    modes (the sine potential) the coordinates are not the Laplacian's: the
    history is the node rows' norms, bit for bit, and weighting the
    coordinates instead is off by more than 1e-3."""
    y0 = ps.seeded_initial_state(spectrum15, 23)
    traj = ps.run_linear_closed_loop(problem15, spectrum15, gains15, y0, 8, snapshot_stride=8)
    weighted = ps.sobolev_norm(traj._modal.coordinates, 0.25, problem15.h, coordinates=True)
    assert spectrum15.sine_table and np.array_equal(traj.sobolev_norms, weighted)
    node = ps.sobolev_norm(traj.deviations, 0.25, problem15.h)
    bound = 4.0 * np.finfo(float).eps * np.sqrt(np.log(problem15.m))
    assert np.max(np.abs(traj.sobolev_norms - node) / node) <= bound

    prob = make_problem(grid_points=32)
    spectrum = ps.compute_spectrum(prob, sine_potential(32), prob.spec.target_rate)
    gains = quiet_gains(spectrum, (2.0,), prob.period)
    y0 = ps.seeded_initial_state(spectrum, 23)
    traj = ps.run_linear_closed_loop(prob, spectrum, gains, y0, 8, snapshot_stride=8)
    assert not spectrum.sine_table
    node = ps.sobolev_norm(traj.deviations, 0.25, prob.h)
    assert np.array_equal(traj.sobolev_norms, node)
    naive = ps.sobolev_norm(spectrum.modal(traj.deviations), 0.25, prob.h, coordinates=True)
    assert np.max(np.abs(naive - node) / node) > 1e-3


@pytest.mark.parametrize("horizon", [10**12, 10**18], ids=["out-of-memory", "beyond-numpy"])
def test_unallocatable_record_block_is_typed(problem15, spectrum15, gains15, horizon):
    """1e12 holds x M = 200 doubles is about 1.4 PiB, beyond any address
    space; 1e18 holds exceed numpy's largest array.  Neither allocates."""
    y0 = ps.seeded_initial_state(spectrum15, 4)
    message = (
        rf"cannot allocate the record block of \(1 \+ horizon {horizon} x 1 records per "
        rf"hold\) x M = 200 doubles \([0-9.e+]+ GiB\)$"
    )
    with pytest.raises(ps.ParastabError, match=message):
        ps.run_linear_closed_loop(problem15, spectrum15, gains15, y0, horizon)
    with pytest.raises(ps.ParastabError, match=message):
        ps.run_semilinear_closed_loop(problem15, spectrum15, gains15, y0, horizon)


@pytest.mark.parametrize("substeps", [0, -4])
def test_nonpositive_substeps_rejected(substeps):
    """A run takes its substep count from the spec alone, and validate_spec
    owns the rule that it is at least 1."""
    with pytest.raises(ps.ParastabError, match="substeps_per_hold must be >= 1"):
        make_problem(substeps=substeps)


def test_negative_snapshot_stride_rejected(problem15, spectrum15, gains15):
    y0 = ps.seeded_initial_state(spectrum15, 4)
    with pytest.raises(ValueError, match="snapshot_stride must be 0 or positive"):
        ps.run_linear_closed_loop(problem15, spectrum15, gains15, y0, 2, snapshot_stride=-8)


def test_nonconstant_offdiagonal_rejected(problem15, spectrum15):
    """The kernel applies the off-diagonal as one scalar, so a semilinear
    run on an operator whose off-diagonal varies, even by one ulp in one
    entry, is rejected before any step (a linear run reads the Spectrum,
    not the operator)."""
    op = spectrum15.operator
    offdiag = op.offdiag.copy()
    offdiag[7] = np.nextafter(offdiag[7], 0.0)
    bumped = dataclasses.replace(
        spectrum15, operator=dataclasses.replace(op, offdiag=offdiag)
    )
    y0 = ps.seeded_initial_state(spectrum15, 4)
    with pytest.raises(ValueError, match="constant off-diagonal"):
        ps.run_semilinear_closed_loop(problem15, bumped, None, y0, 2)
    with pytest.raises(ValueError, match="constant off-diagonal"):
        _CNKernel(bumped.operator, 0.2 / 64, (), y0)


def test_hold_semantics_right_open(problem15, spectrum15, gains15):
    y0 = ps.seeded_initial_state(spectrum15, 21)
    traj = ps.run_linear_closed_loop(
        problem15, spectrum15, gains15, y0, 3,
        snapshot_stride=16,
    )
    held = traj.schedule.held_values
    assert held.shape == (3,)
    # boundary column matches the active hold on interior snapshots
    for j, t in enumerate(traj.times[:-1]):
        interval = int(np.floor(t / 0.2 + 1e-9))
        assert traj.states[j, -1] == held[min(interval, 2)]
    # the boundary value changes only at sample instants
    interior_mask = ~np.isin(np.arange(traj.times.size), traj.sample_indices)
    changes = np.flatnonzero(np.diff(traj.states[:, -1]) != 0.0)
    for idx in changes:
        assert (idx + 1) in traj.sample_indices


def test_bit_identical_reruns(problem15, spectrum15, gains15):
    y0 = ps.seeded_initial_state(spectrum15, 33)
    a = ps.run_linear_closed_loop(
        problem15, spectrum15, gains15, y0, 8
    )
    b = ps.run_linear_closed_loop(
        problem15, spectrum15, gains15, y0, 8
    )
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.l2_norms, b.l2_norms)
    assert a.problem_hash == b.problem_hash
    assert a.gains_hash == b.gains_hash


def test_linear_superposition(problem15, spectrum15, gains15):
    ya = ps.seeded_initial_state(spectrum15, 1)
    yb = ps.seeded_initial_state(spectrum15, 2)
    ta = ps.run_linear_closed_loop(problem15, spectrum15, gains15, ya, 5)
    tb = ps.run_linear_closed_loop(problem15, spectrum15, gains15, yb, 5)
    tab = ps.run_linear_closed_loop(
        problem15, spectrum15, gains15, ya + yb, 5
    )
    scale = np.abs(tab.interior).max()
    assert np.abs(tab.interior - (ta.interior + tb.interior)).max() <= 1e-12 * max(scale, 1.0)


def test_open_loop_growth_and_decay(problem15, spectrum15):
    y0 = spectrum15.modes[:, 0].copy()
    traj = ps.run_open_loop(
        problem15, spectrum15, y0, 5, snapshot_stride=8
    )
    fit = ps.fit_decay_rate(traj)
    assert -fit.rate == pytest.approx(-spectrum15.lambdas[0], rel=0.05)
    y1 = spectrum15.modes[:, 1].copy()
    traj2 = ps.run_open_loop(
        problem15, spectrum15, y1, 5, snapshot_stride=8
    )
    fit2 = ps.fit_decay_rate(traj2)
    assert fit2.rate == pytest.approx(spectrum15.lambdas[1], rel=0.05)


def test_open_loop_zero_state(problem15, spectrum15):
    traj = ps.run_open_loop(
        problem15, spectrum15, np.zeros(problem15.m), 3
    )
    assert np.all(traj.states == 0.0)


def test_open_loop_guard_raises_with_partial_trajectory(problem15, spectrum15):
    y0 = 1e6 * spectrum15.modes[:, 0]
    with pytest.raises(ps.UnstableStep) as info:
        ps.run_open_loop(problem15, spectrum15, y0, 40)
    partial = info.value.trajectory
    assert partial is not None
    assert partial.blowup_time is not None
    assert partial.l2_norms[-1] < np.inf


def test_guard_trips_at_the_first_state_past_it(problem15, spectrum15):
    y0 = 1e6 * spectrum15.modes[:, 0]
    with pytest.raises(ps.UnstableStep) as info:
        ps.run_open_loop(problem15, spectrum15, y0, 40, snapshot_stride=1)
    partial = info.value.trajectory
    dt = problem15.period / problem15.spec.substeps_per_hold
    assert partial.blowup_time == pytest.approx(partial.times[-1] + dt, abs=1e-12)
    assert partial.l2_norms.max() <= BLOWUP_GUARD
    tripped = _banded_step(spectrum15, dt, partial.interior[-1], np.zeros(problem15.m))
    assert ps.l2_norm(tripped, problem15.h) > BLOWUP_GUARD


def test_semilinear_equilibrium_is_fixed_point():
    prob = make_problem()
    spectrum = make_spectrum(prob)
    gains = ps.build_gains(spectrum, (2.0,), 0.2)
    ye = prob.equilibrium_values[1:-1]
    traj = ps.run_semilinear_closed_loop(
        prob, spectrum, gains, ye.copy(), 4
    )
    assert np.max(traj.l2_norms) == 0.0
    assert np.allclose(traj.schedule.held_values, prob.equilibrium_values[-1])


def test_semilinear_nonzero_equilibrium_boundary_offset():
    # fisher with y_e = 1 (the stable carrying state): control is offset by y_e(L)
    spec = ps.ProblemSpec(
        nonlinearity=ps.fisher_reaction(15.0),
        grid_points=64,
        equilibrium=1.0,
        sampling_period=0.2,
        target_rate=1.0,
        substeps_per_hold=16,
    )
    prob = ps.validate_spec(spec)
    c = ps.linearized_coefficient(prob)
    assert np.allclose(c, -15.0)
    with pytest.warns(UserWarning, match="no eigenvalue below rho"):
        spectrum = ps.compute_spectrum(prob, c, 1.0)
    assert spectrum.unstable_count == 0
    traj = ps.run_semilinear_closed_loop(prob, spectrum, None, np.ones(64), 3)
    assert np.allclose(traj.schedule.held_values, 1.0)
    assert np.max(traj.l2_norms) == 0.0


def test_semilinear_small_data_decays(problem15, spectrum15, gains15):
    y0 = ps.seeded_initial_state(
        spectrum15, 42, amplitude=0.01, norm="sobolev"
    )
    traj = ps.run_semilinear_closed_loop(
        problem15, spectrum15, gains15, y0, 50
    )
    assert traj.blowup_time is None
    fit = ps.fit_decay_rate(traj, norm_kind="sobolev")
    assert fit.rate > 0.9


def test_semilinear_blowup_reported_not_raised(problem15, spectrum15, gains15):
    y0 = ps.seeded_initial_state(
        spectrum15, 42, amplitude=50.0, norm="sobolev"
    )
    traj = ps.run_semilinear_closed_loop(
        problem15, spectrum15, gains15, y0, 50
    )
    assert traj.blowup_time is not None
    assert traj.blowup_time < 10.0
    assert np.all(np.isfinite(traj.l2_norms))


def test_mismatched_period_rejected(problem15, spectrum15, gains15):
    other = ps.validate_spec(
        dataclasses.replace(problem15.spec, sampling_period=0.5)
    )
    with pytest.raises(ps.DimensionMismatch):
        ps.run_linear_closed_loop(
            other, spectrum15, gains15, np.zeros(other.m), 2
        )


def test_gains_from_another_spectrum_rejected(problem15, spectrum15, gains95):
    # the consistency check runs once per run, before any step
    y0 = np.zeros(problem15.m)
    for run in (ps.run_linear_closed_loop, ps.run_semilinear_closed_loop):
        with pytest.raises(ps.DimensionMismatch):
            run(problem15, spectrum15, gains95, y0, 2)


def test_seeded_initial_state_normalization(spectrum15):
    y = ps.seeded_initial_state(spectrum15, 5, amplitude=2.5, norm="l2")
    assert ps.l2_norm(y, spectrum15.h) == pytest.approx(2.5, rel=1e-12)
    ys = ps.seeded_initial_state(
        spectrum15, 5, amplitude=0.01, norm="sobolev"
    )
    assert ps.sobolev_norm(ys, 0.25, spectrum15.h) == pytest.approx(0.01, rel=1e-12)
    again = ps.seeded_initial_state(spectrum15, 5, amplitude=2.5, norm="l2")
    assert np.array_equal(y, again)


def test_decompose_zero_trajectory(problem15, spectrum15, gains15):
    traj = ps.run_linear_closed_loop(
        problem15, spectrum15, gains15, np.zeros(problem15.m), 4
    )
    dec = ps.decompose_z(traj, gains15, spectrum15)
    assert np.all(dec.z_samples == 0.0)
    assert np.all(dec.lift_samples == 0.0)
    assert np.all(dec.half_identity_residuals == 0.0)


def test_decompose_identities_on_random_run(problem15, spectrum15, gains15):
    y0 = ps.seeded_initial_state(spectrum15, 17)
    traj = ps.run_linear_closed_loop(
        problem15, spectrum15, gains15, y0, 20
    )
    dec = ps.decompose_z(traj, gains15, spectrum15)
    assert dec.half_identity_residuals.max() <= 1e-2
    assert _modal_image_residuals(traj, gains15, spectrum15, dec).max() <= 1e-2
    # the impulse evolution of z is consistent with the stepper to roundoff
    assert _jump_residuals(traj, gains15, spectrum15, dec).max() <= 1e-8


def _modal_image_residuals(trajectory, gains, spectrum, dec):
    """Per sample, the worst relative distance over the placements k of the
    modal image of lift k from -(B_k B^-1) y_N, all samples at once."""
    n = gains.n
    yn = ps.project(trajectory.sample_states().T, spectrum, n).T
    lift_coords = spectrum.h * (dec.lift_samples @ spectrum.modes[:, :n])
    bkb = np.array([term @ gains.gram_inverse for term in gains.gram_terms])
    targets = -np.einsum("kil,jl->jki", bkb, yn)
    denom = np.linalg.norm(targets, axis=2)
    err = np.linalg.norm(lift_coords - targets, axis=2)
    return np.divide(err, denom, out=np.zeros_like(denom), where=denom > 0).max(axis=1)


def _exact_z_hold(hold, spectrum, z, source):
    """z after one hold of the exact plant (an ExactHold over the period)
    with the interior source whose coordinates on the leading modes are
    ``source``, held: from z's float64 coordinates, rounded back to node
    values."""
    c = hold.step([mpmath.mpf(v) for v in spectrum.modal(z)],
                  [mpmath.mpf(v) for v in source])
    return spectrum.nodal(np.array([float(v) for v in c]))


def _jump_residuals(trajectory, gains, spectrum, dec):
    """Re-step z through its impulse evolution and compare at the samples.

    Between samples z follows the exact hold of the plant, as the engine
    steps it, with the interior source of the frozen lift profiles, then
    jumps by the change of the lifts; entry j is the relative distance of
    the result from dec.z_samples[j + 1].
    """
    n = gains.n
    lift_coords = spectrum.h * (dec.lift_samples @ spectrum.modes[:, :n])  # (H+1, N, n)
    source_coords = np.einsum("jki,ik->ji", lift_coords, _shift_coefficients(gains))
    hold = ExactHold(spectrum, trajectory.schedule.period)
    lifted = dec.lift_samples.sum(axis=1)
    res = np.empty(dec.z_samples.shape[0] - 1)
    for j in range(res.size):
        z = _exact_z_hold(hold, spectrum, dec.z_samples[j], source_coords[j])
        target = dec.z_samples[j + 1]
        res[j] = np.linalg.norm(z + lifted[j] - lifted[j + 1] - target) / np.linalg.norm(target)
    return res


@pytest.fixture(
    scope="module",
    params=[(15.0, 0.2, (2.0,)), (95.0, 0.05, (2.0, 3.0, 4.0))],
    ids=["gains15", "a95-T0.05"],
)
def sampled_run(request):
    """(spectrum, gains, trajectory): six holds of a linear closed loop."""
    a, period, gammas = request.param
    problem = make_problem(a=a, period=period, gammas=gammas)
    spectrum = make_spectrum(problem)
    gains = quiet_gains(spectrum, gammas, period)
    y0 = ps.seeded_initial_state(spectrum, 17)
    return spectrum, gains, ps.run_linear_closed_loop(problem, spectrum, gains, y0, 6)


def _per_sample_decomposition(traj, gains, spectrum):
    """Reference z-decomposition: hold_profiles solves every lift at every
    sample, and every modal coordinate is projected per sample and lift."""
    n = gains.n
    samples = traj.sample_states()
    lifts = np.array([hold_profiles(gains, spectrum, y) for y in samples])
    z = samples - lifts.sum(axis=1)
    bkb = [term @ gains.gram_inverse for term in gains.gram_terms]
    image = []
    for y, lj in zip(samples, lifts):
        yn = ps.project(y, spectrum, n)
        image.append(max(
            np.linalg.norm(ps.project(lj[k], spectrum, n) + bkb[k] @ yn)
            / np.linalg.norm(bkb[k] @ yn)
            for k in range(n)
        ))
    hold = ExactHold(spectrum, traj.schedule.period)
    jumps = []
    for j in range(samples.shape[0] - 1):
        source = np.zeros(n)
        for k in range(n):
            shift = 1.0 / gains.lambda_diags[:, k] - gains.lambdas
            source += shift * ps.project(lifts[j, k], spectrum, n)
        w = _exact_z_hold(hold, spectrum, z[j], source)
        jumped = w + lifts[j].sum(axis=0) - lifts[j + 1].sum(axis=0)
        jumps.append(np.linalg.norm(jumped - z[j + 1]) / np.linalg.norm(z[j + 1]))
    return lifts, z, np.array(image), np.array(jumps)


def _extended_half_identity(traj, gains, spectrum):
    """Per-sample half-identity residuals of the extended-precision unit
    lifts, each scaled by the sample's feedback components."""
    n = gains.n
    units = np.array([extended_lift(spectrum, gains, k) for k in range(1, n + 1)])
    half = []
    for y in traj.sample_states():
        data = ps.component_feedback(gains, y, spectrum)
        z = y - (data[:, None] * units).sum(axis=0)
        yn, zn = ps.project(y, spectrum, n), ps.project(z, spectrum, n)
        half.append(np.linalg.norm(yn - 0.5 * zn) / np.linalg.norm(yn))
    return np.array(half)


def test_decompose_matches_per_sample_lifts(sampled_run):
    spectrum, gains, traj = sampled_run
    dec = ps.decompose_z(traj, gains, spectrum)
    lifts, z, image, jumps = _per_sample_decomposition(traj, gains, spectrum)
    assert dec.lift_samples.shape == lifts.shape == (7, gains.n, spectrum.m)
    np.testing.assert_allclose(dec.lift_samples, lifts, rtol=1e-10)
    # relative to the largest entry: z crosses zero and, at N = 3, is the
    # small difference of lifts some 40x larger, so single entries of z
    # carry the lifts' last-digit differences at up to 6e-9 relative
    assert np.abs(dec.z_samples - z).max() <= 1e-10 * np.abs(z).max()
    # the half identity amplifies those differences: at a = 95 the dense
    # oracle's own residual at sample 0 is 8.2e-10 to 2.1e-9 from the
    # extended-precision one, the eigenbasis lift's 4.5e-12
    np.testing.assert_allclose(
        dec.half_identity_residuals, _extended_half_identity(traj, gains, spectrum),
        rtol=0, atol=1e-9,
    )
    np.testing.assert_allclose(
        _modal_image_residuals(traj, gains, spectrum, dec), image, rtol=0, atol=1e-9
    )
    assert _jump_residuals(traj, gains, spectrum, dec).max() <= 1e-8
    assert jumps.max() <= 1e-8


def test_decompose_solves_one_unit_lift_per_placement(monkeypatch, sampled_run):
    from parastab import lifting, simulate

    spectrum, gains, traj = sampled_run
    solved = []
    real = lifting.dirichlet_lift

    def counting(spectrum, gains, k):
        solved.append(k)
        return real(spectrum, gains, k)

    # every namespace that may bind the solver
    for module in (lifting, simulate):
        monkeypatch.setattr(module, "dirichlet_lift", counting, raising=False)
    ps.decompose_z(traj, gains, spectrum)
    assert solved == list(range(1, gains.n + 1))


def test_decompose_requires_linear_closed_loop(problem15, spectrum15, gains15):
    y0 = ps.seeded_initial_state(spectrum15, 3)
    traj = ps.run_open_loop(problem15, spectrum15, y0, 3)
    with pytest.raises(ps.ParastabError):
        ps.decompose_z(traj, gains15, spectrum15)


def test_trajectory_csv_schema(problem15, spectrum15, gains15):
    y0 = ps.seeded_initial_state(spectrum15, 8)
    traj = ps.run_linear_closed_loop(
        problem15, spectrum15, gains15, y0, 2
    )
    lines = ps.trajectory_to_csv(traj).strip().split("\n")
    assert lines[0] == "t,l2_norm,sob_norm,u_held"
    assert len(lines) == traj.times.size + 1
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.0
    assert float(cells[1]) == pytest.approx(traj.l2_norms[0])


def test_norm_histories_are_bit_identical_to_rows(problem15, spectrum15, gains15):
    """The derived histories equal the one-row l2_norm and sobolev_norm of
    each deviation, bit for bit, across a partial last Sobolev block."""
    h = problem15.h
    escaped = ps.run_semilinear_closed_loop(
        problem15, spectrum15, gains15,
        ps.seeded_initial_state(spectrum15, 42, amplitude=50.0, norm="sobolev"), 50,
    )
    assert escaped.blowup_time is not None
    rows = np.random.default_rng(3).standard_normal((SOBOLEV_BLOCK_ROWS + 1, problem15.m))
    rows[0] = 0.0
    rows[1] *= 1e-300
    rows[2] *= 1e10
    rows[3] = rows[-1] = escaped.deviations[-1]
    run = dataclasses.replace(escaped, deviations=rows)
    assert np.all(run.l2_norms == [ps.l2_norm(row, h) for row in rows])
    assert np.all(run.sobolev_norms == [ps.sobolev_norm(row, 0.25, h) for row in rows])


def _eager_records(traj):
    """Node rows and norm histories assembled row by row, as the engine
    once did at the end of every run: deviation plus offset between the
    boundary values, the active held value at x = L (the latest sample at
    or before the record; the final one carries the last value), and the
    one-row norms of the deviation."""
    n, m = traj.deviations.shape
    held = traj.schedule.held_values
    states = np.empty((n, m + 2))
    l2 = np.empty(n)
    sob = np.empty(n)
    states[:, 0] = 0.0 if traj.offset is None else traj.offset[0]
    for j, dev in enumerate(traj.deviations):
        l2[j] = ps.l2_norm(dev, traj.h)
        sob[j] = ps.sobolev_norm(dev, traj.sobolev_order, traj.h)
        states[j, 1:-1] = dev if traj.offset is None else dev + traj.offset[1:-1]
        hold = np.searchsorted(traj.sample_indices, j, side="right") - 1
        states[j, -1] = held[min(hold, held.size - 1)]
    return states, l2, sob


@pytest.mark.parametrize("stride", [0, 8])
@pytest.mark.parametrize("amplitude", [0.01, 50.0])
def test_derived_records_match_eager_assembly(stride, amplitude):
    """On a semilinear run about a callable, nonzero equilibrium the cached
    states and norms equal the eager assembly bit for bit, also when a
    blow-up truncates the records."""
    prob = ps.validate_spec(ps.ProblemSpec(
        nonlinearity=ps.fisher_reaction(15.0), grid_points=64, substeps_per_hold=16,
        equilibrium=lambda x: 0.02 + 0.1 * np.sin(np.pi * x) + 0.05 * x,
    ))
    spectrum = make_spectrum(prob)
    gains = quiet_gains(spectrum, prob.spec.gammas, prob.period)
    ye = prob.equilibrium_values
    assert ye[0] != 0.0 and ye[-1] != 0.0
    dev0 = ps.seeded_initial_state(spectrum, 42, amplitude=amplitude, norm="sobolev")
    traj = ps.run_semilinear_closed_loop(
        prob, spectrum, gains, ye[1:-1] + dev0, 30, snapshot_stride=stride,
    )
    assert (traj.blowup_time is not None) == (amplitude > 1.0)
    assert traj.offset is ye
    states, l2, sob = _eager_records(traj)
    assert np.array_equal(traj.l2_norms, l2)
    assert np.array_equal(traj.sobolev_norms, sob)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.sample_states(), states[traj.sample_indices, 1:-1])


def test_states_csv_is_the_per_value_format(problem15, spectrum15, gains15):
    traj = ps.run_linear_closed_loop(
        problem15, spectrum15, gains15, ps.seeded_initial_state(spectrum15, 8), 2,
        snapshot_stride=16,
    )
    # the node rows are derived from the deviations: row 2 of the copy's
    # states is 0 (the x = 0 boundary), then the odd values
    deviations = traj.deviations.copy()
    odd = [-0.0, 5e-324, 1e300, -np.inf, np.inf, np.nan, 0.1, -2.0 / 3.0]
    deviations[2, : len(odd)] = odd
    for run in (traj, dataclasses.replace(traj, deviations=deviations)):
        expected = "".join(
            format(t, ".17g") + "," + ",".join(format(v, ".17g") for v in row) + "\n"
            for t, row in zip(run.times, run.states)
        )
        assert simulate.states_to_csv(run) == expected
    assert ",-0,4.9406564584124654e-324,1.0000000000000001e+300,-inf,inf,nan," in expected


def test_problem_fingerprint_tracks_content(problem15):
    other = ps.validate_spec(dataclasses.replace(problem15.spec, sampling_period=0.25))
    assert problem_fingerprint(problem15) != problem_fingerprint(other)
    assert problem_fingerprint(problem15) == problem_fingerprint(problem15)
