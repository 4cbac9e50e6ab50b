import numpy as np
import pytest

import parastab as ps
from parastab.lifting import lift_matrix

from conftest import hold_profiles, make_problem, make_spectrum


def test_lift_satisfies_discrete_equation(spectrum15, gains15):
    psi = ps.dirichlet_lift(spectrum15, gains15, 1)
    a = lift_matrix(spectrum15, gains15, 1)
    rhs = np.zeros(spectrum15.m)
    rhs[-1] = 1.0 / spectrum15.h**2
    residual = np.linalg.norm(a @ psi - rhs) / np.linalg.norm(rhs)
    assert residual < 1e-12


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
    sigma = np.linalg.eigvalsh(op.to_dense())[0]
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
