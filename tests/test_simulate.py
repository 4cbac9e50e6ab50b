import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_banded

import parastab as ps
from parastab.simulate import _advance, problem_fingerprint

from conftest import make_problem, make_spectrum, quiet_gains


def _banded_step(spectrum, dt, w, forcing, remainder=None):
    """Reference CN substep: (I + dt/2 A) rebuilt in band layout and solved
    by solve_banded on every call, with the engine's right-hand-side order
    ((I - dt/2 A) w + dt*forcing) + dt*remainder(w)."""
    op = spectrum.operator
    ab = np.zeros((3, op.m))
    ab[0, 1:] = 0.5 * dt * op.offdiag
    ab[1, :] = 1.0 + 0.5 * dt * op.diag
    ab[2, :-1] = 0.5 * dt * op.offdiag
    rhs = (1.0 - 0.5 * dt * op.diag) * w
    rhs[:-1] -= 0.5 * dt * op.offdiag * w[1:]
    rhs[1:] -= 0.5 * dt * op.offdiag * w[:-1]
    rhs = rhs + dt * forcing
    if remainder is not None:
        rhs += dt * remainder(w)
    return solve_banded((1, 1), ab, rhs)


def _banded_run(problem, spectrum, w, horizon, control, remainder=None):
    """Every substep state of a zero-order-hold run stepped by _banded_step."""
    substeps = problem.spec.substeps_per_hold
    dt = problem.period / substeps
    states = [w]
    for _ in range(horizon):
        bc = np.zeros(spectrum.m)
        bc[-1] = control(w) / spectrum.h**2
        for _ in range(substeps):
            w = _banded_step(spectrum, dt, w, bc, remainder)
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
    """One hold interval with a frozen control follows the exact modal map."""
    errors = {}
    for m, substeps in ((200, 64), (400, 128)):
        prob = make_problem(grid_points=m, substeps=substeps)
        spectrum = make_spectrum(prob)
        rng = np.random.default_rng(12)
        y0 = rng.standard_normal(m)
        u = 0.7
        traj = _advance(
            prob, spectrum, None, y0, 1,
            control=lambda w: u,
            kind="linear-closed-loop", substeps=substeps,
        )
        n = spectrum.unstable_count + 2
        lam = spectrum.lambdas[:n]
        flux = spectrum.boundary_flux[:n]
        period = prob.period
        integral = np.array([ps.hold_integral(v, period) for v in lam])
        oracle = np.exp(-lam * period) * ps.project(y0, spectrum, n) - integral * flux * u
        got = ps.project(traj.sample_states()[-1], spectrum, n)
        errors[m] = np.linalg.norm(got - oracle) / np.linalg.norm(oracle)
    assert errors[200] < 5e-3
    assert errors[200] / errors[400] > 3.0


# the last case takes one substep per hold at T = 2.0, so dt*c/2 = 15 > 1:
# I + dt/2 A is not diagonally dominant and its LU factorization pivots
@pytest.mark.parametrize(
    "grid_points, period, substeps, horizon",
    [(16, 0.2, 64, 4), (200, 0.2, 64, 4), (200, 2.0, 1, 200)],
    ids=["M16", "M200", "coarse-T2-one-substep"],
)
def test_linear_step_matches_banded_oracle(grid_points, period, substeps, horizon):
    prob = make_problem(grid_points=grid_points, period=period, substeps=substeps)
    spectrum = make_spectrum(prob)
    gains = quiet_gains(spectrum, (2.0,), period)
    y0 = ps.seeded_initial_state(spectrum, 11)
    traj = ps.run_linear_closed_loop(
        prob, spectrum, gains, y0, horizon, snapshot_stride=1
    )
    oracle = _banded_run(
        prob, spectrum, y0, horizon, lambda w: ps.apply_feedback(gains, w, spectrum)
    )
    assert oracle.shape[0] - 1 >= 200
    assert np.array_equal(traj.interior, oracle)


def test_semilinear_step_matches_banded_oracle(problem15, spectrum15, gains15):
    ye = problem15.equilibrium_values[1:-1]
    x = problem15.interior_nodes
    c = ps.linearized_coefficient(problem15)
    f = problem15.spec.nonlinearity.f
    f_base = np.asarray(f(x, ye), dtype=float)

    def remainder(w):
        return np.asarray(f(x, w + ye), dtype=float) - f_base - c * w

    y0 = ps.seeded_initial_state(spectrum15, 19, amplitude=0.3)
    traj = ps.run_semilinear_closed_loop(
        problem15, spectrum15, gains15, y0 + ye, 4, snapshot_stride=1
    )
    oracle = _banded_run(
        problem15, spectrum15, y0, 4,
        lambda w: ps.apply_feedback(gains15, w, spectrum15), remainder,
    )
    assert oracle.shape[0] - 1 >= 200
    assert traj.blowup_time is None
    # the remainder is not negligible over the run
    assert np.abs(remainder(oracle[-1])).max() > 1e-3 * np.abs(c * oracle[-1]).max()
    assert np.array_equal(traj.interior, oracle + ye)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_guard_trips_on_nonfinite_state(problem15, spectrum15, bad):
    substeps = problem15.spec.substeps_per_hold
    poisoned = substeps + 6  # hold 1, substep 6
    calls = []

    def remainder(w):
        calls.append(None)
        out = np.zeros_like(w)
        if len(calls) == poisoned:
            out[5] = bad
        return out

    traj = _advance(
        problem15, spectrum15, None, ps.seeded_initial_state(spectrum15, 2), 4,
        control=lambda w: 0.0, remainder=remainder,
        kind="semilinear-closed-loop", substeps=substeps, snapshot_stride=1,
    )
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


@pytest.mark.parametrize("substeps", [0, -4])
def test_nonpositive_substeps_rejected(problem15, spectrum15, gains15, substeps):
    y0 = ps.seeded_initial_state(spectrum15, 4)
    runs = [
        lambda: ps.run_linear_closed_loop(
            problem15, spectrum15, gains15, y0, 3, substeps=substeps
        ),
        lambda: ps.run_open_loop(problem15, spectrum15, y0, 3, substeps=substeps),
        lambda: ps.run_semilinear_closed_loop(
            problem15, spectrum15, gains15, y0, 3, substeps=substeps
        ),
        lambda: ps.sweep_sampling_period(problem15, [0.2], substeps=substeps),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="substeps must be at least 1"):
            run()


def test_hold_semantics_right_open(problem15, spectrum15, gains15):
    y0 = ps.seeded_initial_state(spectrum15, 21)
    traj = ps.run_linear_closed_loop(
        problem15, spectrum15, gains15, y0, 3,
        snapshot_stride=16,
    )
    held = traj.schedule.held_values
    assert held.shape == (3,)
    # schedule lookups honor right-open intervals
    assert traj.schedule.value_at(0.0) == held[0]
    assert traj.schedule.value_at(0.2 - 1e-9) == held[0]
    assert traj.schedule.value_at(0.2) == held[1]
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
    assert dec.modal_image_residuals.max() <= 1e-2
    # the impulse evolution of z is consistent with the stepper to roundoff
    assert dec.jump_residuals.max() <= 1e-8


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


def test_problem_fingerprint_tracks_content(problem15):
    other = ps.validate_spec(dataclasses.replace(problem15.spec, sampling_period=0.25))
    assert problem_fingerprint(problem15) != problem_fingerprint(other)
    assert problem_fingerprint(problem15) == problem_fingerprint(problem15)
