import warnings

import mpmath as mp
import numpy as np
import pytest

import parastab as ps
from parastab import _exact

from conftest import make_problem, make_spectrum, quiet_gains


def entry_oracle(lam, gamma, period):
    """High-precision quadrature oracle, independent of the closed-form weight."""
    with mp.workdps(60):
        num = mp.quad(lambda s: mp.exp(-lam * s), [0, period])
        den = mp.exp(-mp.mpf(lam) * period) - mp.exp(-mp.mpf(gamma) * period)
        return float(num / den)


def weight(lam, gamma, period):
    """The sampled weight of one mode and one rate, as the gain algebra forms it."""
    exact = _exact.gain_system(np.array([lam]), np.array([1.0]), (gamma,), period)
    return float(exact.lam_table[0][0])


def test_lambda_entry_zero_eigenvalue():
    got = weight(0.0, 2.0, 0.2)
    assert got == pytest.approx(0.2 / (1.0 - np.exp(-0.4)), rel=1e-12)
    assert got == pytest.approx(entry_oracle(0.0, 2.0, 0.2), rel=1e-9)


def test_lambda_entry_unstable_eigenvalue():
    lam = -5.1304
    got = weight(lam, 2.0, 0.2)
    assert got == pytest.approx(entry_oracle(lam, 2.0, 0.2), rel=1e-9)
    assert got == pytest.approx(0.16460, rel=1e-4)


def test_lambda_entry_small_period_limit():
    # leading deviation from the limit is gamma*T/2, i.e. 1e-6 relative here
    got = weight(0.0, 2.0, 1e-6)
    assert got == pytest.approx(0.5, rel=1.5e-6)
    assert weight(0.0, 2.0, 1e-8) == pytest.approx(0.5, rel=1.5e-8)


@pytest.mark.parametrize("lam", [-95.0, -5.13, -1e-7, 0.0, 1e-7, 0.9])
@pytest.mark.parametrize("period", [1e-8, 1e-4, 0.2, 2.0])
def test_lambda_entry_positive_and_matches_oracle(lam, period):
    got = weight(lam, 2.0, period)
    assert got > 0.0
    assert got == pytest.approx(entry_oracle(lam, 2.0, period), rel=1e-9)


def test_weight_beyond_float64_raises():
    # both exponentials deep in the subnormal range: the weight e^700 / 7000
    # is still a float64, and the difference is no trouble in mpmath
    got = weight(7000.0, 7100.0, 0.1)
    assert got == pytest.approx(1.45e300, rel=1e-3)
    assert got == pytest.approx(entry_oracle(7000.0, 7100.0, 0.1), rel=1e-9)
    # at T = 0.2 the weight e^1400 / 7000 is not: a typed error, at any precision
    with pytest.raises(_exact.ExactAlgebraError, match="float64"):
        weight(7000.0, 7100.0, 0.2)


def test_build_gains_single_mode_closed_form(spectrum15, gains15):
    lam1 = spectrum15.lambdas[0]
    b1 = spectrum15.boundary_flux[0]
    assert gains15.gram_boundary[0, 0] == pytest.approx(b1**2, rel=1e-12)
    assert gains15.gram_boundary[0, 0] == pytest.approx(19.739, rel=1e-3)
    entry = entry_oracle(lam1, 2.0, 0.2)
    assert gains15.lambda_diags[0, 0] == pytest.approx(entry, rel=1e-13)
    # scalar algebra: g = 1 / (entry * b1)
    assert gains15.gain_row[0] == pytest.approx(1.0 / (entry * b1), rel=1e-12)
    assert gains15.gain_row[0] == pytest.approx(-1.368, rel=1e-3)
    assert gains15.condition_number == pytest.approx(1.0)


def test_gain_set_stores_only_what_it_cannot_derive(gains15, gains95):
    import dataclasses

    assert [f.name for f in dataclasses.fields(ps.GainSet)] == ["exact"]
    # every float64 value is a rounding of the exact system, float(mpf) per
    # entry, made once
    views = {"lambdas": "lambdas", "flux": "flux", "gain_row": "gain_row",
             "lambda_diags": "lam_table", "gram_inverse": "gram_inverse",
             "gain_rows_k": "gain_rows_k", "closed_loop_matrix": "closed_loop"}
    for gains in (gains15, gains95):
        exact = gains.exact
        for view, name in views.items():
            want = np.array(getattr(exact, name), dtype=float)
            got = getattr(gains, view)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), view
            assert getattr(gains, view) is got, view
        rounded = [[float(x) for x in row] for row in exact.closed_loop]
        assert gains.closed_loop_matrix.tolist() == rounded
        assert gains.sampling_period == float(exact.period) and gains.n == len(exact.lambdas)
        assert gains.gammas == tuple(float(g) for g in exact.gammas)
        assert all(type(g) is float for g in gains.gammas)
        assert gains.condition_number == float(exact.condition)


@pytest.mark.parametrize("period", [np.nan, np.inf, -np.inf, 0.0, -1.0],
                         ids=["nan", "inf", "-inf", "zero", "negative"])
def test_period_must_be_finite_and_positive(spectrum15, period):
    """One rule on the shared path of the full build and the row reads,
    before the precision is sized."""
    calls = (
        lambda: ps.build_gains(spectrum15, (2.0,), period),
        lambda: ps.synthesis.feedback_row(spectrum15, (2.0,), period),
        lambda: ps.gain_limit_distance(spectrum15, (2.0,), period),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"^period must be finite and positive, got {period}$"):
            call()


def test_gain_row_flux_scaling_homogeneity(spectrum15, gains15):
    # scaling all fluxes by s scales the gain row by 1/s; the flux is
    # derived from the modes' last row, so the stored modes are scaled
    import dataclasses

    scaled = dataclasses.replace(spectrum15, basis=3.0 * spectrum15.basis)
    assert np.allclose(scaled.boundary_flux, 3.0 * spectrum15.boundary_flux, rtol=1e-15, atol=0)
    gains_scaled = ps.build_gains(scaled, (2.0,), 0.2)
    assert np.allclose(
        gains_scaled.gain_row, gains15.gain_row / 3.0, rtol=1e-12
    )


def test_derived_gram_fields_match_their_definition(gains95):
    for k in range(gains95.n):
        v = gains95.lambda_diags[:, k] * gains95.flux
        assert np.array_equal(gains95.gram_terms[k], np.outer(v, v))
    assert np.array_equal(gains95.gram_boundary, np.outer(gains95.flux, gains95.flux))


def test_build_gains_three_modes_reports_conditioning(gains95):
    assert gains95.n == 3
    assert gains95.condition_number > 1.0
    assert np.all(gains95.lambda_diags > 0.0)
    assert np.all(np.isfinite(gains95.gain_row))


def test_build_gains_warns_on_extreme_conditioning(spectrum95):
    with pytest.warns(UserWarning, match="condition 1.581e"):
        gains = ps.build_gains(spectrum95, (2.0, 3.0, 4.0), 0.2)
    assert gains.condition_number > ps.synthesis.CONDITION_WARN_THRESHOLD


def test_row_readers_do_not_warn(spectrum95):
    """The condition warning concerns float64 use of the Gram inverse and
    the component rows, which a row reader never forms; the full builds at
    these periods stay under the threshold as well."""
    gammas = (2.0, 3.0, 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cont = ps.continuous_limit(spectrum95, gammas)
        for period in (1e-6, 1e-2, 5e-3):
            ps.gain_limit_distance(spectrum95, gammas, period, cont)
            gains = ps.build_gains(spectrum95, gammas, period)
            assert gains.condition_number < ps.synthesis.CONDITION_WARN_THRESHOLD


def test_gain_system_sizes_digits_past_the_gram_condition(spectrum95):
    # T = 2.0: condition ~1e120, far past the base 50 digits; the closed-form
    # condition bound sizes the one build at 155 digits before it starts
    gains = quiet_gains(spectrum95, (2.0, 3.0, 4.0), 2.0)
    assert gains.exact.dps > 120
    assert ps.check_resolution(gains) <= 1e-10
    assert ps.check_modal_recursion(gains).matrix_residual <= 1e-10


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
        eig = mp.eig(mp.matrix(exact.closed_loop), left=False, right=False)
        got = sorted(float(abs(e)) for e in eig)
    placed = sorted(np.exp(-np.array(gains95.gammas) * 0.2))
    assert np.allclose(got, placed, rtol=1e-12)


def assert_symmetrized_update_has_the_placed_spectrum(gains):
    """With V = [v_1 ... v_N], G = V V^T = L L^T and C = V diag(mu) V^T, the
    symmetrized update L^-1 C L^-T is W diag(mu) W^T with W = L^-1 V
    orthogonal: its eigenvalues are the placed mu_k = e^{-gamma_k T} exactly.
    Measured worst distance: 3.8e-39 mu_1 (a = 200, N = 4, T = 0.5)."""
    exact = gains.exact
    with mp.workdps(exact.dps):
        sym = mp.matrix(_exact._symmetrized_update(exact))
        got = sorted(mp.eigsy(sym, eigvals_only=True))
        placed = sorted(mp.exp(-g * exact.period) for g in exact.gammas)
        assert len(got) == exact.n
        assert max(abs(a - b) for a, b in zip(got, placed)) <= 1e-30 * placed[-1]


def test_contraction_bound(gains15, gains95):
    radius, bound = ps.check_contraction(gains15)
    assert abs(radius - bound) <= 1e-12 * bound  # N = 1: exact equality
    radius95, bound95 = ps.check_contraction(gains95)
    assert radius95 <= bound95 * (1.0 + 1e-8)
    assert_symmetrized_update_has_the_placed_spectrum(gains95)


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
    y = np.random.default_rng(11).standard_normal(spectrum95.m)
    eps = np.finfo(float).eps
    # well conditioned (T = 0.05): the roundoff bound sum|parts| eps/|total| is 1.5e-12
    gains_short = quiet_gains(spectrum95, (2.0, 3.0, 4.0), 0.05)
    parts = ps.component_feedback(gains_short, y, spectrum95)
    assert parts.shape == (3,)
    total = ps.apply_feedback(gains_short, y, spectrum95)
    assert np.sum(parts) == pytest.approx(total, rel=1e-9)
    # T = 0.2 (condition 1.6e18): parts of ~1e7 cancel to ~-0.88, so float64
    # can only promise the sum to within a few eps of sum|parts|
    parts = ps.component_feedback(gains95, y, spectrum95)
    total = ps.apply_feedback(gains95, y, spectrum95)
    bound = 1e-9 * abs(total) + 4 * eps * np.abs(parts).sum()
    assert abs(np.sum(parts) - total) <= bound
    # in exact arithmetic the component rows sum to the gain row; the
    # adaptive precision keeps condition * 10^-dps below 10^-35
    for exact in (gains_short.exact, gains95.exact):
        with mp.workdps(exact.dps):
            for i in range(exact.n):
                row_sum = mp.fsum(exact.gain_rows_k[i][k] for k in range(exact.n))
                assert abs(row_sum - exact.gain_row[i]) <= 1e-30 * abs(exact.gain_row[i])


def test_feedback_dimension_mismatch(spectrum15, gains95):
    with pytest.raises(ps.DimensionMismatch):
        ps.apply_feedback(gains95, np.zeros(spectrum15.m), spectrum15)


def test_continuous_limit_entries(spectrum15):
    lam1 = spectrum15.lambdas[0]
    b1 = spectrum15.boundary_flux[0]
    exact = _exact.gain_system(np.array([lam1]), np.array([b1]), (2.0,), None)
    assert float(exact.lam_table[0][0]) == pytest.approx(1.0 / (2.0 - lam1), rel=1e-12)
    assert 1.0 / (2.0 + 5.1304) == pytest.approx(0.140244, rel=1e-4)
    cont = ps.continuous_limit(spectrum15, (2.0,))
    assert cont.shape == (1,)
    assert cont[0] == pytest.approx((2.0 - lam1) / b1, rel=1e-12)


def test_gain_row_converges_first_order(spectrum15):
    cont = ps.continuous_limit(spectrum15, (2.0,))
    dist = []
    for period in (2e-3, 1e-3):
        g = ps.build_gains(spectrum15, (2.0,), period)
        dist.append(np.linalg.norm(g.gain_row - cont))
    assert dist[0] / dist[1] == pytest.approx(2.0, rel=0.1)


def test_weight_positivity_everywhere(gains15, gains95):
    for g in (gains15, gains95):
        assert np.all(g.lambda_diags > 0.0)
        assert all(w > 0 for w in g.exact.integral_diag)


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
    assert_symmetrized_update_has_the_placed_spectrum(gains)


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
