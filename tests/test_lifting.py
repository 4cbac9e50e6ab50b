import tracemalloc

import numpy as np
import pytest

import parastab as ps
from conftest import (
    extended_lift, hold_profiles, lift_matrix, make_problem, make_spectrum, quiet_gains,
    sine_potential,
)

# Relative max-norm error of a unit lift against extended_lift at M = 200,
# per case below and placement, with one and two BLAS threads: a dense LU
# solve of the same system reads 5.3e-14 to 5.2e-13, dirichlet_lift
# 1.8e-16 to 1.3e-15.  With T psi formed from the raw entries of the
# operator, 2/h^2 - c and -1/h^2, the same refinement step reads 1.1e-14
# to 7.9e-14.  The bound sits between the two.
LIFT_ACCURACY = 1e-14


def test_lift_satisfies_discrete_equation(spectrum15, gains15):
    psi = ps.dirichlet_lift(spectrum15, gains15, 1)
    a = lift_matrix(spectrum15, gains15, 1)
    rhs = np.zeros(spectrum15.m)
    rhs[-1] = 1.0 / spectrum15.h**2
    residual = np.linalg.norm(a @ psi - rhs) / np.linalg.norm(rhs)
    assert residual < 1e-12


@pytest.mark.parametrize(
    "a, period, gammas, potential",
    [(15.0, 0.2, (2.0,), None), (95.0, 0.05, (2.0, 3.0, 4.0), None),
     (15.0, 0.2, (2.0,), sine_potential)],
    ids=["N1", "N3", "N1-sine-potential"],
)
def test_lift_matches_extended_precision_solve(a, period, gammas, potential):
    # a constant potential has closed-form modes, the sine potential LAPACK's
    problem = make_problem(a=a, period=period, gammas=gammas)
    c = ps.linearized_coefficient(problem) if potential is None else potential(problem.m)
    spectrum = ps.compute_spectrum(problem, c, problem.spec.target_rate)
    gains = quiet_gains(spectrum, gammas, period)
    assert gains.n == len(gammas)
    for k in range(1, gains.n + 1):
        exact = extended_lift(spectrum, gains, k)
        error = np.abs(ps.dirichlet_lift(spectrum, gains, k) - exact).max()
        assert error <= LIFT_ACCURACY * np.abs(exact).max()


def test_lift_allocates_no_dense_operator():
    m = 400
    spectrum = make_spectrum(make_problem(grid_points=m))
    gains = ps.build_gains(spectrum, (2.0,), 0.2)
    ps.dirichlet_lift(spectrum, gains, 1)
    tracemalloc.start()
    try:
        ps.dirichlet_lift(spectrum, gains, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few M-vectors: 17 kB, against 1.28 MB for one M x M float array
    assert peak < m * m * 8 / 10


def test_constant_potential_pipeline_builds_no_dense_modes():
    """Spectrum, gains, seeded run and z-decomposition at M = 1000 read the
    sine table alone: far less memory than one M x M float array, and the
    mode matrix is never built."""
    m = 1000
    problem = make_problem(grid_points=m)

    def pipeline():
        spectrum = ps.compute_spectrum(problem, ps.linearized_coefficient(problem), 1.0)
        gains = ps.build_gains(spectrum, (2.0,), 0.2)
        y0 = ps.seeded_initial_state(spectrum, 7)
        run = ps.run_linear_closed_loop(problem, spectrum, gains, y0, 2)
        ps.decompose_z(run, gains, spectrum)
        return spectrum

    pipeline()  # warm the caches of mpmath and the FFT
    tracemalloc.start()
    try:
        spectrum = pipeline()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * m * 8 / 10
    assert "modes" not in vars(spectrum)


def test_lift_trace_identity_and_convergence():
    residuals = {}
    for m in (200, 400):
        prob = make_problem(grid_points=m)
        spectrum = make_spectrum(prob)
        gains = ps.build_gains(spectrum, (2.0,), 0.2)
        worst, _ = ps.check_lift_identity(spectrum, gains)
        residuals[m] = worst
    assert residuals[200] <= 1e-2
    assert residuals[200] / residuals[400] > 3.0


def test_lift_trace_identity_three_modes(spectrum95, gains95):
    worst, matrix = ps.check_lift_identity(spectrum95, gains95)
    assert matrix.shape == (3, 3)
    assert worst <= 1e-2


def test_profile_norm_stable_under_refinement():
    norms = []
    for m in (100, 200, 400):
        prob = make_problem(grid_points=m)
        spectrum = make_spectrum(prob)
        gains = ps.build_gains(spectrum, (2.0,), 0.2)
        norms.append(ps.l2_norm(ps.dirichlet_lift(spectrum, gains, 1), spectrum.h))
    assert max(norms) / min(norms) < 1.01


def test_coercivity_positive(spectrum15, gains15):
    assert np.linalg.eigvalsh(lift_matrix(spectrum15, gains15, 1))[0] > 0.0


def test_coercivity_without_unstable_modes():
    prob = make_problem(a=-10.0, gammas=None)
    op = ps.assemble_operator(prob, ps.linearized_coefficient(prob))
    lam, _ = ps.eigendecompose(op)
    # no unstable modes, no correction: the lift operator is the plain one
    dense = np.diag(op.diag) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)
    sigma = np.linalg.eigvalsh(dense)[0]
    assert sigma == pytest.approx(lam[0], rel=1e-10)
    assert sigma > 0.0


def test_coercivity_grows_with_first_placement_rate(spectrum15):
    sigmas = []
    for gamma in (2.0, 4.0, 8.0):
        gains = ps.build_gains(spectrum15, (gamma,), 0.2)
        sigmas.append(np.linalg.eigvalsh(lift_matrix(spectrum15, gains, 1))[0])
    assert sigmas[0] < sigmas[1] < sigmas[2]


def test_hold_profiles_zero_state(spectrum15, gains15):
    profiles = hold_profiles(gains15, spectrum15, np.zeros(spectrum15.m))
    assert len(profiles) == 1
    assert np.all(profiles[0] == 0.0)


def test_hold_profiles_modal_image(spectrum15, gains15):
    rng = np.random.default_rng(2)
    y = rng.standard_normal(spectrum15.m)
    profiles = hold_profiles(gains15, spectrum15, y)
    n = gains15.n
    yn = ps.project(y, spectrum15, n)
    bkb = gains15.gram_terms[0] @ gains15.gram_inverse
    target = -bkb @ yn
    got = ps.project(profiles[0], spectrum15, n)
    assert np.linalg.norm(got - target) / np.linalg.norm(target) < 1e-2


def test_hold_profiles_half_identity(spectrum15, gains15):
    rng = np.random.default_rng(4)
    y = rng.standard_normal(spectrum15.m)
    profiles = hold_profiles(gains15, spectrum15, y)
    n = gains15.n
    z = y - sum(profiles)
    yn = ps.project(y, spectrum15, n)
    zn = ps.project(z, spectrum15, n)
    assert np.linalg.norm(yn - 0.5 * zn) / np.linalg.norm(yn) < 1e-2


def test_lift_k_out_of_range(spectrum15, gains15):
    with pytest.raises(ValueError):
        ps.dirichlet_lift(spectrum15, gains15, 2)
