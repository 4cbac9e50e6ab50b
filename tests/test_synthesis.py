import warnings

import mpmath as mp
import numpy as np
import pytest

import parastab as ps

from conftest import make_problem, make_spectrum, quiet_gains


def entry_oracle(lam, gamma, period):
    """High-precision quadrature oracle, independent of the series evaluation."""
    with mp.workdps(60):
        num = mp.quad(lambda s: mp.exp(-lam * s), [0, period])
        den = mp.exp(-mp.mpf(lam) * period) - mp.exp(-mp.mpf(gamma) * period)
        return float(num / den)


def test_lambda_entry_zero_eigenvalue():
    got = ps.lambda_entry(0.0, 2.0, 0.2)
    assert got == pytest.approx(0.2 / (1.0 - np.exp(-0.4)), rel=1e-12)
    assert got == pytest.approx(entry_oracle(0.0, 2.0, 0.2), rel=1e-9)


def test_lambda_entry_unstable_eigenvalue():
    lam = -5.1304
    got = ps.lambda_entry(lam, 2.0, 0.2)
    assert got == pytest.approx(entry_oracle(lam, 2.0, 0.2), rel=1e-9)
    assert got == pytest.approx(0.16460, rel=1e-4)


def test_lambda_entry_small_period_limit():
    # leading deviation from the limit is gamma*T/2, i.e. 1e-6 relative here
    got = ps.lambda_entry(0.0, 2.0, 1e-6)
    assert got == pytest.approx(0.5, rel=1.5e-6)
    assert ps.lambda_entry(0.0, 2.0, 1e-8) == pytest.approx(0.5, rel=1.5e-8)


@pytest.mark.parametrize("lam", [-95.0, -5.13, -1e-7, 0.0, 1e-7, 0.9])
@pytest.mark.parametrize("period", [1e-8, 1e-4, 0.2, 2.0])
def test_lambda_entry_positive_and_matches_oracle(lam, period):
    got = ps.lambda_entry(lam, 2.0, period)
    assert got > 0.0
    assert got == pytest.approx(entry_oracle(lam, 2.0, period), rel=1e-9)


def test_exp_integral_ratio_series_switch_is_smooth():
    # values straddling the series/direct switch agree to near machine precision
    for x in (9.9e-5, 1.01e-4, -9.9e-5, -1.01e-4):
        direct = (1.0 - np.exp(-x)) / x
        assert ps.exp_integral_ratio(x) == pytest.approx(direct, rel=1e-11)
    assert ps.exp_integral_ratio(0.0) == 1.0


def test_degenerate_denominator_raises():
    # both exponentials deep in the subnormal range: difference underflows
    with pytest.raises(ps.DegenerateDenominator):
        ps.lambda_entry(7000.0, 7100.0, 0.1)


def test_build_gains_single_mode_closed_form(spectrum15, gains15):
    lam1 = spectrum15.lambdas[0]
    b1 = spectrum15.boundary_flux[0]
    assert gains15.gram_boundary[0, 0] == pytest.approx(b1**2, rel=1e-12)
    assert gains15.gram_boundary[0, 0] == pytest.approx(19.739, rel=1e-3)
    entry = ps.lambda_entry(lam1, 2.0, 0.2)
    assert gains15.lambda_diags[0, 0] == pytest.approx(entry, rel=1e-13)
    # scalar algebra: g = 1 / (entry * b1)
    assert gains15.gain_row[0] == pytest.approx(1.0 / (entry * b1), rel=1e-12)
    assert gains15.gain_row[0] == pytest.approx(-1.368, rel=1e-3)
    assert gains15.condition_number == pytest.approx(1.0)


def test_gain_row_flux_scaling_homogeneity(spectrum15, gains15):
    # scaling all fluxes by s scales the gain row by 1/s
    import dataclasses

    scaled = dataclasses.replace(
        spectrum15, boundary_flux=3.0 * spectrum15.boundary_flux
    )
    gains_scaled = ps.build_gains(scaled, (2.0,), 0.2)
    assert np.allclose(
        gains_scaled.gain_row, gains15.gain_row / 3.0, rtol=1e-12
    )


def test_derived_gram_fields_match_their_definition(spectrum15, gains95):
    for k in range(gains95.n):
        v = gains95.lambda_diags[:, k] * gains95.flux
        assert np.array_equal(gains95.gram_terms[k], np.outer(v, v))
    assert np.array_equal(gains95.gram_boundary, np.outer(gains95.flux, gains95.flux))
    continuous = ps.continuous_limit(spectrum15)
    assert np.array_equal(continuous.gram_boundary, np.outer(continuous.flux, continuous.flux))


def test_build_gains_three_modes_reports_conditioning(gains95):
    assert gains95.n == 3
    assert gains95.condition_number > 1.0
    assert np.all(gains95.lambda_diags > 0.0)
    assert np.all(np.isfinite(gains95.gain_row))


def test_build_gains_warns_on_extreme_conditioning(spectrum95):
    with pytest.warns(UserWarning, match="condition"):
        ps.build_gains(spectrum95, (2.0, 3.0, 4.0), 0.2)


def test_resolution_of_identity(gains15, gains95):
    assert ps.check_resolution(gains15) <= 1e-10
    assert ps.check_resolution(gains95) <= 1e-10


def test_closed_loop_matrix_identity(gains15, gains95):
    assert ps.check_modal_recursion(gains15).matrix_residual <= 1e-10
    assert ps.check_modal_recursion(gains95).matrix_residual <= 1e-10


def test_closed_loop_eigenvalues_are_placed_rates(gains15, gains95):
    # N = 1: the float64 matrix is the scalar e^{-gamma T} itself
    assert gains15.closed_loop_matrix[0, 0] == pytest.approx(np.exp(-0.4), rel=1e-14)
    # N = 3 is checked on the exact-algebra representation: the float64
    # rounding of the huge cancelling entries perturbs eigenvalues visibly
    import mpmath as mp
    from parastab.synthesis import exact_system

    exact = exact_system(gains95)
    with mp.workdps(exact.dps):
        eig = mp.eig(exact.closed_loop, left=False, right=False)
        got = sorted(float(abs(e)) for e in eig)
    placed = sorted(np.exp(-np.array(gains95.gammas) * 0.2))
    assert np.allclose(got, placed, rtol=1e-12)


def test_contraction_bound(gains15, gains95):
    radius, bound = ps.check_contraction(gains15)
    assert abs(radius - bound) <= 1e-12 * bound  # N = 1: exact equality
    radius95, bound95 = ps.check_contraction(gains95)
    assert radius95 <= bound95 * (1.0 + 1e-8)


def test_apply_feedback_annihilates_stable_modes(spectrum15, gains15):
    assert ps.apply_feedback(gains15, spectrum15.modes[:, 1], spectrum15) == pytest.approx(
        0.0, abs=1e-10
    )
    assert ps.apply_feedback(gains15, np.zeros(spectrum15.m), spectrum15) == 0.0


def test_apply_feedback_on_unstable_mode(spectrum15, gains15):
    u = ps.apply_feedback(gains15, spectrum15.modes[:, 0], spectrum15)
    assert u == pytest.approx(gains15.gain_row[0], rel=1e-12)
    assert u == pytest.approx(-1.368, rel=1e-3)


def test_component_feedback_sums_to_feedback(spectrum95, gains95):
    rng = np.random.default_rng(11)
    y = rng.standard_normal(spectrum95.m)
    parts = ps.component_feedback(gains95, y, spectrum95)
    total = ps.apply_feedback(gains95, y, spectrum95)
    assert parts.shape == (3,)
    assert np.sum(parts) == pytest.approx(total, rel=1e-9)


def test_feedback_dimension_mismatch(spectrum15, gains95):
    with pytest.raises(ps.DimensionMismatch):
        ps.apply_feedback(gains95, np.zeros(spectrum15.m), spectrum15)


def test_continuous_limit_entries(spectrum15):
    cont = ps.continuous_limit(spectrum15, (2.0,))
    lam1 = spectrum15.lambdas[0]
    b1 = spectrum15.boundary_flux[0]
    assert cont.lambda0_diags[0, 0] == pytest.approx(1.0 / (2.0 - lam1), rel=1e-12)
    assert 1.0 / (2.0 + 5.1304) == pytest.approx(0.140244, rel=1e-4)
    assert cont.gain_row[0] == pytest.approx((2.0 - lam1) / b1, rel=1e-12)


def test_gain_row_converges_first_order(spectrum15):
    cont = ps.continuous_limit(spectrum15, (2.0,))
    dist = []
    for period in (2e-3, 1e-3):
        g = ps.build_gains(spectrum15, (2.0,), period)
        dist.append(np.linalg.norm(g.gain_row - cont.gain_row))
    assert dist[0] / dist[1] == pytest.approx(2.0, rel=0.1)


def test_weight_positivity_everywhere(gains15, gains95):
    for g in (gains15, gains95):
        assert np.all(g.lambda_diags > 0.0)
        assert np.all(g.integral_diag > 0.0)


def test_gains_json_schema(spectrum15, gains15):
    import json

    cont = ps.continuous_limit(spectrum15, (2.0,))
    payload = json.loads(ps.gains_to_json(gains15, cont))
    assert set(payload) == {
        "T",
        "gammas",
        "lambdas",
        "boundary_flux",
        "gain_row",
        "condition_number",
        "continuous_gain_row",
    }
    assert payload["T"] == 0.2
    assert len(payload["gain_row"]) == 1


@pytest.mark.parametrize(
    "a, gammas, period",
    [
        (15.0, (2.0,), 0.05),
        (15.0, (2.0,), 2.0),
        (45.0, (2.0, 3.0), 0.7),
        (95.0, (2.0, 3.0, 4.0), 0.5),
        (200.0, (2.0, 3.0, 4.0, 5.0), 0.5),
        (95.0, (1.5, 1.6, 1.7), 0.2),
    ],
)
def test_gain_identities_hold_for_every_configuration(a, gammas, period):
    """The algebraic guarantees are configuration-independent."""
    prob = make_problem(a=a, grid_points=128, period=period, gammas=gammas)
    spectrum = make_spectrum(prob)
    assert spectrum.unstable_count == len(gammas)
    gains = quiet_gains(spectrum, gammas, period)
    assert np.all(gains.lambda_diags > 0.0)
    assert ps.check_resolution(gains) <= 1e-10
    assert ps.check_modal_recursion(gains).matrix_residual <= 1e-10
    radius, bound = ps.check_contraction(gains)
    assert radius <= bound * (1.0 + 1e-8)


def test_gain_matrices_csv_blocks(gains15):
    from parastab.synthesis import gain_matrices_to_csv

    text = gain_matrices_to_csv(gains15)
    assert "# gram_boundary" in text
    assert "# gram_term_1" in text
    assert "# closed_loop_matrix" in text


def test_gamma_arity_mismatch_rejected(spectrum95):
    with pytest.raises(ps.ParastabError):
        ps.build_gains(spectrum95, (2.0,), 0.2)


def test_default_gammas_spacing(spectrum15):
    gains = ps.build_gains(spectrum15, None, 0.2)
    assert gains.gammas == (2.0,)
    assert ps.default_gammas(1.0, 3) == (2.0, 3.0, 4.0)
