"""Acceptance suite: every stability guarantee the package advertises,
checked at pinned tolerances with one printed pass/fail line per criterion.

Two baseline linearizations drive the suite: a single unstable mode
(constant coefficient 15, placement rate 2) and three unstable modes
(constant coefficient 95, placement rates 2, 3, 4), each over sampling
periods 0.05, 0.2 and 1.0 where algebra is concerned.  Trajectory-level
criteria run on the single-mode configuration at the working grid M = 200
(the N = 3 algebra is exact at any conditioning, but its float64 gain
matrices are documented as untrustworthy past condition 1e12, so stepped
checks stay on the benign configuration); criterion 11 runs the N = 3
loop only to see it decay.  The gain is placed against the plant that is
stepped, so the identities of the stepped loop (criteria 3, 5 and 6) hold
to stated roundoff bounds, in units of EPS.
"""

import math
import warnings

import numpy as np
import pytest

import parastab as ps
from parastab.analysis import Grid

from conftest import make_problem, make_spectrum, quiet_gains

RHO = 1.0
EPS = np.finfo(float).eps
PERIODS = (0.05, 0.2, 1.0)
CONFIGS = (
    (15.0, (2.0,)),
    (95.0, (2.0, 3.0, 4.0)),
)


def report(number, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def stack15():
    problem = make_problem(a=15.0, grid_points=200, period=0.2, gammas=(2.0,))
    spectrum = make_spectrum(problem)
    gains = ps.build_gains(spectrum, (2.0,), 0.2)
    return problem, spectrum, gains


@pytest.fixture(scope="module")
def stack15_fine():
    problem = make_problem(a=15.0, grid_points=400, period=0.2, gammas=(2.0,), substeps=128)
    spectrum = make_spectrum(problem)
    gains = ps.build_gains(spectrum, (2.0,), 0.2)
    return problem, spectrum, gains


@pytest.fixture(scope="module")
def recursion_runs(stack15, stack15_fine):
    """Seeded closed-loop runs at M=200/64 substeps and M=400/128 substeps."""
    runs = {}
    for key, stack in (("coarse", stack15), ("fine", stack15_fine)):
        problem, spectrum, gains = stack
        y0 = ps.seeded_initial_state(spectrum, 42)
        runs[key] = ps.run_linear_closed_loop(problem, spectrum, gains, y0, 10)
    return runs


@pytest.fixture(scope="module")
def decay_run(stack15):
    problem, spectrum, gains = stack15
    y0 = ps.seeded_initial_state(spectrum, 42)
    return ps.run_linear_closed_loop(problem, spectrum, gains, y0, 50)


@pytest.fixture(scope="module")
def long_hold_stack():
    # the long-hold configuration of the benchmark (M = 1000, 1024 substeps)
    problem = make_problem(a=15.0, grid_points=1000, period=2.0, gammas=(2.0,), substeps=1024)
    spectrum = make_spectrum(problem)
    gains = ps.build_gains(spectrum, (2.0,), 2.0)
    y0 = ps.seeded_initial_state(spectrum, 42)
    traj = ps.run_linear_closed_loop(
        problem, spectrum, gains, y0, 8, snapshot_stride=64
    )
    return problem, spectrum, gains, traj


def _gains_for(a, gammas, period, grid_points=200):
    problem = make_problem(a=a, grid_points=grid_points, period=period, gammas=gammas)
    spectrum = make_spectrum(problem)
    return quiet_gains(spectrum, gammas, period)


def test_criterion_1_closed_loop_matrix_identity():
    worst = 0.0
    for a, gammas in CONFIGS:
        for period in PERIODS:
            gains = _gains_for(a, gammas, period)
            residual = ps.check_modal_recursion(gains).matrix_residual
            worst = max(worst, residual)
    report(1, worst <= 1e-10, f"sampled update matrix identity, worst residual {worst:.3e} <= 1e-10")


def test_criterion_2_contraction_bound():
    worst_slack = -np.inf
    worst_eq = 0.0
    for a, gammas in CONFIGS:
        for period in PERIODS:
            gains = _gains_for(a, gammas, period)
            radius, bound = ps.check_contraction(gains)
            worst_slack = max(worst_slack, radius / bound - 1.0)
            if len(gammas) == 1:
                worst_eq = max(worst_eq, abs(radius - bound))
    ok = worst_slack <= 1e-8 and worst_eq <= 1e-12
    report(
        2,
        ok,
        f"contraction radius <= exp(-gamma_1 T), worst slack {worst_slack:.3e}, "
        f"single-mode equality gap {worst_eq:.3e}",
    )


def test_criterion_3_sampled_recursion_on_trajectory(stack15, stack15_fine, recursion_runs):
    # each hold rounds terms that mode 1 amplified by e^{|lambda_1| T}
    worst = 0.0
    for key, (_, spectrum, gains) in (("coarse", stack15), ("fine", stack15_fine)):
        residual = ps.check_modal_recursion(gains, spectrum, recursion_runs[key]).trajectory_residual
        worst = max(worst, residual / (EPS * np.exp(-spectrum.lambdas[0] * 0.2)))
    report(
        3,
        worst <= 8.0,
        f"stepped loop vs modal recursion at M=200 and 400: worst residual "
        f"{worst:.2f} eps e^(|lambda_1| T) <= 8",
    )


def test_criterion_4_decay_and_open_loop_growth(stack15, decay_run):
    problem, spectrum, _ = stack15
    fit = ps.fit_decay_rate(decay_run, t_start=0.4)
    growth_oracle = 15.0 - np.pi**2
    baseline = ps.run_open_loop(
        problem, spectrum, spectrum.modes[:, 0].copy(), 5,
        snapshot_stride=8,
    )
    growth = -ps.fit_decay_rate(baseline, t_start=0.4).rate
    ok = fit.rate >= 0.9 * RHO and abs(growth - growth_oracle) <= 0.05 * growth_oracle
    report(
        4,
        ok,
        f"closed-loop rate {fit.rate:.3f} >= 0.9, open-loop growth {growth:.4f} "
        f"within 5% of {growth_oracle:.4f}",
    )


def test_criterion_5_lift_trace_identity():
    # coordinate i of lift k matches -weight_ik flux_i to a few eps of the
    # lift's own norm (the rounding of its transforms)
    worst = 0.0
    for a, gammas in CONFIGS:
        for m in (200, 400):
            problem = make_problem(a=a, grid_points=m, period=0.2, gammas=gammas)
            spectrum = make_spectrum(problem)
            gains = quiet_gains(spectrum, gammas, 0.2)
            _, residuals = ps.check_lift_identity(spectrum, gains)
            for k in range(1, gains.n + 1):
                lift = ps.l2_norm(ps.dirichlet_lift(spectrum, gains, k), spectrum.h)
                target = np.abs(gains.lambda_diags[:, k - 1] * gains.flux)
                worst = max(worst, (residuals[:, k - 1] * target / (EPS * lift)).max())
    report(
        5,
        worst <= 16.0,
        f"lift trace identity at M=200 and 400: worst residual {worst:.2f} eps "
        f"of the lift's norm <= 16",
    )


def test_criterion_6_half_identity_on_all_runs(
    stack15, stack15_fine, recursion_runs, decay_run, long_hold_stack
):
    runs = (
        (recursion_runs["coarse"], stack15),
        (decay_run, stack15),
        (recursion_runs["fine"], stack15_fine),
        (long_hold_stack[3], long_hold_stack),
    )
    # in units of eps sqrt(M): the projections of the lifts sum M terms
    worst = max(
        ps.check_half_identity(traj, gains, spectrum) / (EPS * np.sqrt(spectrum.m))
        for traj, (_, spectrum, gains, *_) in runs
    )
    report(
        6,
        worst <= 2.0,
        f"sampled-state doubling on every run (M=200, 400, 1000): worst residual "
        f"{worst:.2f} eps sqrt(M) <= 2",
    )


def test_criterion_7_small_period_limit(stack15):
    _, spectrum, _ = stack15
    dist_tiny = ps.gain_limit_distance(spectrum, (2.0,), 1e-6)
    d_coarse = ps.gain_limit_distance(spectrum, (2.0,), 1e-2)
    d_fine = ps.gain_limit_distance(spectrum, (2.0,), 5e-3)
    ratio = d_coarse / d_fine
    ok = dist_tiny <= 1e-5 and 1.6 <= ratio <= 2.4
    report(
        7,
        ok,
        f"zero-period gain limit: distance {dist_tiny:.3e} <= 1e-5 at T=1e-6, "
        f"halving ratio {ratio:.3f} in [1.6, 2.4]",
    )


def test_criterion_8_large_sampling_period(long_hold_stack):
    _, _, _, traj = long_hold_stack
    fit = ps.fit_decay_rate(traj)
    report(
        8,
        fit.rate > 0.0,
        f"stabilization at T=2.0: fitted rate {fit.rate:.3f} > 0",
    )


def test_criterion_9_semilinear_local_stabilization(stack15):
    problem, spectrum, gains = stack15
    y0 = ps.seeded_initial_state(spectrum, 42, amplitude=0.01, norm="sobolev")
    traj = ps.run_semilinear_closed_loop(problem, spectrum, gains, y0, 50)
    fit = ps.fit_decay_rate(traj, norm_kind="sobolev")
    big = ps.seeded_initial_state(spectrum, 42, amplitude=50.0, norm="sobolev")
    traj_big = ps.run_semilinear_closed_loop(problem, spectrum, gains, big, 50)
    ok = (
        traj.blowup_time is None
        and fit.rate >= 0.9 * RHO
        and traj_big.blowup_time is not None
        and np.all(np.isfinite(traj_big.l2_norms))
    )
    report(
        9,
        ok,
        f"semilinear small data decays at {fit.rate:.3f} >= 0.9 in the fractional norm; "
        f"amplitude 50 blow-up reported at t={traj_big.blowup_time}",
    )


def _slowest_hold_rate(a, gammas, period, second_half=False):
    """The slowest per-hold rate -ln(|w((i+1)T)| / |w(iT)|) / T of the seeded
    (seed 7) linear closed loop over t = 10 on the default grid (M = 200,
    64 substeps): from the second hold on, or over the second half."""
    spec = ps.ProblemSpec(nonlinearity=ps.fisher_reaction(a), gammas=gammas,
                          sampling_period=period)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the N = 3 gain's conditioning warning
        grid = Grid(spec, math.ceil(10.0 / period), 7)
        traj = grid.trajectory
    norms = traj.l2_norms[traj.sample_indices]
    rates = -np.diff(np.log(norms)) / period
    return rates[len(rates) // 2:].min() if second_half else rates[1:].min()


def test_criterion_10_designed_rate_at_every_period():
    periods = (0.05, 0.2, 1.0, 2.0, 3.0)
    rates = [_slowest_hold_rate(15.0, (2.0,), period) for period in periods]
    report(
        10,
        min(rates) >= 0.95 * 2.0,
        "slowest per-hold rate from the second hold at T = "
        + ", ".join(f"{p:g}: {r:.3f}" for p, r in zip(periods, rates)) + " >= 0.95 gamma_1 = 1.9",
    )


def test_criterion_11_multimode_linear_loop_decays():
    # UnstableStep would propagate: a blow-up fails the criterion
    rates = [_slowest_hold_rate(95.0, (2.0, 3.0, 4.0), period, second_half=True)
             for period in (0.1, 0.2)]
    report(
        11,
        min(rates) >= 0.75 * 2.0,
        f"N = 3 linear loop decays: slowest per-hold rate over the second half "
        f"{rates[0]:.3f} at T = 0.1, {rates[1]:.3f} at T = 0.2 >= 0.75 gamma_1 = 1.5",
    )
