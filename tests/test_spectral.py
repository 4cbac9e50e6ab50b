import dataclasses
import warnings

import numpy as np
import pytest

import parastab as ps
from parastab.spectral import SOBOLEV_BLOCK_ROWS, TridiagonalOperator, _sobolev_weights

from conftest import make_problem, make_spectrum, stevd_eigenpairs


def tiny_problem(m=3, length=1.0):
    """Hand-built validated problem below the production grid minimum."""
    spec = ps.ProblemSpec(nonlinearity=ps.linear_reaction(0.0), grid_points=m)
    h = length / (m + 1)
    nodes = np.linspace(0.0, length, m + 2)
    return ps.ValidatedProblem(
        spec=spec, h=h, nodes=nodes, equilibrium_values=np.zeros(m + 2)
    )


def discrete_laplacian_eigs(m, h):
    """Closed-form spectrum of the second-difference matrix (independent oracle)."""
    i = np.arange(1, m + 1)
    return 4.0 / h**2 * np.sin(i * np.pi * h / 2.0) ** 2


def test_assembly_small_grid_entries():
    op = ps.assemble_operator(tiny_problem(3), np.zeros(3))
    assert np.allclose(op.diag, 32.0)
    assert np.allclose(op.offdiag, -16.0)
    dense = np.diag(op.diag) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)
    assert np.array_equal(dense, dense.T)


def test_assembly_constant_shift():
    prob = tiny_problem(3)
    op0 = ps.assemble_operator(prob, np.zeros(3))
    op15 = ps.assemble_operator(prob, np.full(3, 15.0))
    assert np.allclose(op15.diag, op0.diag - 15.0)
    assert np.array_equal(op15.offdiag, op0.offdiag)


def test_eigenvalues_converge_to_continuum():
    prob = make_problem(a=0.0, gammas=None)
    op = ps.assemble_operator(prob, np.zeros(prob.m))
    lam, _ = ps.eigendecompose(op)
    targets = (np.arange(1, 6) * np.pi) ** 2
    rel = np.abs(lam[:5] - targets) / targets
    assert rel[0] < 1e-4
    assert np.all(rel < 1e-3)


def test_eigenvalue_grid_convergence_second_order():
    errs = []
    for m in (100, 200):
        prob = make_problem(a=0.0, grid_points=m, gammas=None)
        op = ps.assemble_operator(prob, np.zeros(m))
        lam, _ = ps.eigendecompose(op)
        errs.append(abs(lam[0] - np.pi**2))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_eigenvalues_match_closed_form_exactly():
    # eigendecompose takes the closed form here, so LAPACK is the reference
    prob = make_problem(a=0.0, grid_points=128, gammas=None)
    op = ps.assemble_operator(prob, np.zeros(prob.m))
    lam, _ = ps.eigendecompose(op)
    ref, _ = stevd_eigenpairs(op)
    assert np.allclose(lam, ref, rtol=1e-12)
    assert np.allclose(ref, discrete_laplacian_eigs(prob.m, prob.h), rtol=1e-12)


def test_modes_match_sine_samples():
    prob = make_problem(a=0.0, gammas=None)
    op = ps.assemble_operator(prob, np.zeros(prob.m))
    _, modes = ps.eigendecompose(op)
    _, ref = stevd_eigenpairs(op)
    x = prob.interior_nodes
    for i in (1, 2, 3):
        analytic = np.sqrt(2.0) * np.sin(i * np.pi * x)
        assert np.max(np.abs(ref[:, i - 1] - analytic)) < 1e-3
        assert np.max(np.abs(modes[:, i - 1] - ref[:, i - 1])) < 1e-10


def test_shift_equivariance():
    prob = make_problem(a=0.0, gammas=None)
    op0 = ps.assemble_operator(prob, np.zeros(prob.m))
    opk = ps.assemble_operator(prob, np.full(prob.m, 15.0))
    lam0, modes0 = stevd_eigenpairs(op0)
    lamk, modesk = ps.eigendecompose(opk)
    # absolute tolerance for the low modes, relative slack for the 1/h^2-scale tail
    assert np.allclose(lamk, lam0 - 15.0, rtol=1e-12, atol=1e-10)
    assert np.max(np.abs(modesk - modes0)) < 1e-10


def test_orthonormality_in_h_inner_product(spectrum15):
    assert ps.orthonormality_residual(spectrum15) <= 1e-12


def test_fine_grid_spectrum_matches_closed_form():
    # constant c = 15 at M = 1000: eigenpairs are the shifted discrete sine
    # modes, which eigendecompose returns in closed form; the backward-stable
    # LAPACK solver is within p(M) eps ||T|| of each eigenvalue and
    # p(M) eps ||T|| / gap of each mode, taking p(M) = sqrt(M)
    spectrum = make_spectrum(make_problem(a=15.0, grid_points=1000))
    m, h = spectrum.m, spectrum.h
    assert np.all(spectrum.operator.diag == 2.0 / h**2 - 15.0)
    assert ps.orthonormality_residual(spectrum) <= 1e-12
    lam, modes = stevd_eigenpairs(spectrum.operator)
    err = np.sqrt(m) * np.finfo(float).eps * (4.0 / h**2)
    assert np.max(np.abs(spectrum.lambdas - lam)) <= err
    assert np.max(np.abs(discrete_laplacian_eigs(m, h) - 15.0 - lam)) <= err
    gaps = np.minimum(np.diff(lam)[:10], np.diff(lam, prepend=-np.inf)[:10])
    x = np.arange(1, m + 1) * h
    for j in range(10):
        sine = np.sqrt(2.0) * np.sin((j + 1) * np.pi * x)
        assert ps.l2_norm(spectrum.modes[:, j] - modes[:, j], h) <= err / gaps[j]
        assert ps.l2_norm(sine - modes[:, j], h) <= err / gaps[j]


@pytest.mark.parametrize("m", [16, 200, 1000])
def test_sine_table_reads_are_slices_of_the_eigendecomposition(m):
    """A constant potential's spectrum stores the 2(M+1) sines, not the
    modes: its columns, its last row and its modes, built on first read,
    are bit for bit eigendecompose's matrix."""
    spectrum = make_spectrum(make_problem(grid_points=m))
    assert spectrum.basis.shape == (2 * (m + 1),)
    _, modes = ps.eigendecompose(spectrum.operator)
    for n in (1, spectrum.unstable_count, 10, m):
        assert np.array_equal(spectrum.columns(n), modes[:, :n])
    assert np.array_equal(spectrum.last_row, modes[-1])
    assert np.array_equal(spectrum.boundary_flux, ps.boundary_flux(modes, spectrum.h))
    assert "modes" not in vars(spectrum)
    assert np.array_equal(spectrum.modes, modes)


def test_sine_products_match_the_dense_modes(spectrum15):
    """Phi x and h Phi^T w on the sine table (one DST-I each) agree with the
    products with the dense modes to a few eps sqrt(M), and a stack of rows
    gives each row's one-row result bit for bit."""
    m, h = spectrum15.m, spectrum15.h
    rows = np.random.default_rng(5).standard_normal((SOBOLEV_BLOCK_ROWS + 6, m))
    x, w = rows[0], rows[1]
    tol = 4.0 * np.finfo(float).eps * np.sqrt(m)
    for got, dense in ((spectrum15.nodal(x), spectrum15.modes @ x),
                       (spectrum15.modal(w), h * (spectrum15.modes.T @ w))):
        assert np.linalg.norm(got - dense) <= tol * np.linalg.norm(dense)
    for product in (spectrum15.nodal, spectrum15.modal):
        stacked = product(rows)
        assert all(np.array_equal(stacked[i], product(row)) for i, row in enumerate(rows))


def test_sign_convention_first_component_positive(spectrum15):
    assert np.all(spectrum15.modes[0, :] > 0.0)


def test_select_unstable_counts():
    s15 = make_spectrum(make_problem(a=15.0))
    assert s15.unstable_count == 1
    assert s15.lambdas[0] < 1.0 <= s15.lambdas[1]
    s95 = make_spectrum(make_problem(a=95.0, gammas=(2.0, 3.0, 4.0)))
    assert s95.unstable_count == 3
    assert s95.lambdas[2] < 1.0 <= s95.lambdas[3]


def test_select_unstable_none_warns():
    prob = make_problem(a=-10.0, gammas=None)
    c = ps.linearized_coefficient(prob)
    op = ps.assemble_operator(prob, c)
    lam, _ = ps.eigendecompose(op)
    assert lam[0] > 1.0  # positive operator
    with pytest.warns(UserWarning):
        n = ps.select_unstable(lam, 1.0)
    assert n == 0


def test_rho_on_eigenvalue_rejected(spectrum15):
    with pytest.raises(ps.RhoOnEigenvalue):
        ps.select_unstable(spectrum15.lambdas, float(spectrum15.lambdas[1]))


def test_boundary_flux_analytic_values():
    prob = make_problem(a=0.0, gammas=None)
    op = ps.assemble_operator(prob, np.zeros(prob.m))
    _, modes = ps.eigendecompose(op)
    b1 = ps.boundary_flux(modes[:, 0], prob.h)
    b2 = ps.boundary_flux(modes[:, 1], prob.h)
    assert b1 == pytest.approx(-np.sqrt(2.0) * np.pi, rel=1e-3)
    assert b2 == pytest.approx(2.0 * np.sqrt(2.0) * np.pi, rel=1e-3)


def test_boundary_flux_of_a_mode_matrix(spectrum15):
    # one entry per column, each equal to the single-mode value
    fluxes = ps.boundary_flux(spectrum15.modes, spectrum15.h)
    per_mode = [ps.boundary_flux(v, spectrum15.h) for v in spectrum15.modes.T]
    assert np.array_equal(fluxes, per_mode)
    assert np.array_equal(spectrum15.boundary_flux, per_mode)


def test_boundary_flux_zero_mode():
    assert ps.boundary_flux(np.zeros(50), 0.01) == 0.0


def test_unstable_fluxes_nonzero(spectrum95):
    n = spectrum95.unstable_count
    assert np.all(np.abs(spectrum95.boundary_flux[:n]) > 1.0)


def test_project_embed_roundtrip(spectrum15):
    n = spectrum15.unstable_count
    phi1 = spectrum15.modes[:, 0]
    coords = ps.project(phi1, spectrum15, n)
    assert coords[0] == pytest.approx(1.0, abs=1e-12)
    rebuilt = spectrum15.modes[:, :n] @ coords
    assert np.max(np.abs(rebuilt - phi1)) < 1e-10


def test_project_annihilates_stable_mode(spectrum15):
    coords = ps.project(spectrum15.modes[:, 1], spectrum15)
    assert np.max(np.abs(coords)) < 1e-12


def test_project_is_linear(spectrum15):
    y = 2.0 * spectrum15.modes[:, 0] + 3.0 * spectrum15.modes[:, 1]
    coords = ps.project(y, spectrum15, 3)
    assert np.allclose(coords, [2.0, 3.0, 0.0], atol=1e-12)


def test_embed_project_is_idempotent_projection(spectrum15):
    rng = np.random.default_rng(3)
    y = rng.standard_normal(spectrum15.m)
    modes = spectrum15.modes[:, :4]
    p = modes @ ps.project(y, spectrum15, 4)
    pp = modes @ ps.project(p, spectrum15, 4)
    assert np.max(np.abs(pp - p)) < 1e-10


def test_sobolev_norm_zero_order_is_l2(problem15):
    rng = np.random.default_rng(5)
    y = rng.standard_normal(problem15.m)
    assert ps.sobolev_norm(y, 0.0, problem15.h) == pytest.approx(
        ps.l2_norm(y, problem15.h), rel=1e-12
    )


@pytest.mark.parametrize("m", [16, 200, 1000])
def test_sobolev_norm_matches_eigenbasis_sum(m):
    # LAPACK's eigenbasis of the pure -Laplacian is the reference
    prob = make_problem(a=0.0, grid_points=m, gammas=None)
    lambdas, modes = stevd_eigenpairs(ps.assemble_operator(prob, np.zeros(m)))
    rng = np.random.default_rng(m)
    for y in rng.standard_normal((3, m)):
        coords = prob.h * (modes.T @ y)
        for s in (0.0, 0.25, 0.5, 0.9):
            expected = np.sqrt(np.sum(lambdas**s * coords**2))
            assert ps.sobolev_norm(y, s, prob.h) == pytest.approx(expected, rel=1e-12)


def test_sobolev_norm_sine_mode_closed_form(problem15):
    # independent oracle: exact discrete second-difference eigenvalues
    mu = discrete_laplacian_eigs(problem15.m, problem15.h)
    x = problem15.interior_nodes
    for j in (1, 7, problem15.m):
        mode = np.sqrt(2.0) * np.sin(j * np.pi * x)
        for s in (0.0, 0.25, 0.5, 0.9):
            got = ps.sobolev_norm(mode, s, problem15.h)
            assert got == pytest.approx(mu[j - 1] ** (s / 2.0), rel=1e-12)


def test_sobolev_norm_single_mode(laplacian15):
    for s in (0.1, 0.25, 0.49):
        got = ps.sobolev_norm(laplacian15.modes[:, 0], s, laplacian15.h)
        assert got == pytest.approx(laplacian15.lambdas[0] ** (s / 2.0), rel=1e-10)


def test_sobolev_norm_two_modes_closed_form(problem15, laplacian15):
    # independent oracle: exact discrete second-difference eigenvalues
    mu = discrete_laplacian_eigs(problem15.m, problem15.h)
    y = laplacian15.modes[:, 0] + laplacian15.modes[:, 1]
    expected = np.sqrt(mu[0] ** 0.25 + mu[1] ** 0.25)
    assert ps.sobolev_norm(y, 0.25, problem15.h) == pytest.approx(expected, rel=1e-10)
    # and the continuum i^2 pi^2 weights agree loosely
    loose = np.sqrt((np.pi**2) ** 0.25 + (4 * np.pi**2) ** 0.25)
    assert ps.sobolev_norm(y, 0.25, problem15.h) == pytest.approx(loose, rel=1e-3)


def _one_row_sobolev(y, s, h):
    """The one-row arithmetic of sobolev_norm, spelled out: weights, DST-I
    of the odd extension, one dot product."""
    m = y.shape[0]
    mu_s = (4.0 / h**2) * np.sin(np.arange(1, m + 1) * (np.pi / (2 * (m + 1)))) ** 2
    mu_s **= s
    sines = np.fft.rfft(np.concatenate(([0.0], y, [0.0], -y[::-1])))[1 : m + 1].imag
    return float(np.sqrt(h / (2.0 * (m + 1)) * np.dot(mu_s, sines * sines)))


def _blown_up_row(m):
    """Last recorded deviation of an uncontrolled Fisher run that blows up."""
    prob = make_problem(grid_points=m, substeps=16)
    spectrum = make_spectrum(prob)
    y0 = ps.seeded_initial_state(spectrum, 42, amplitude=50.0, norm="sobolev")
    traj = ps.run_semilinear_closed_loop(prob, spectrum, None, y0, 50, snapshot_stride=1)
    assert traj.blowup_time is not None
    return traj.deviations[-1]


# M = 400 pads to an FFT length of 802 = 2 * 401
@pytest.mark.parametrize("m", [16, 200, 400, 1000])
def test_sobolev_stack_is_bit_identical_to_rows(m):
    h = 1.0 / (m + 1)
    rng = np.random.default_rng(m)
    special = np.array([
        np.zeros(m),
        1e-300 * rng.standard_normal(m),
        1e10 * rng.standard_normal(m),
        _blown_up_row(m),
    ])
    for n in (SOBOLEV_BLOCK_ROWS - 1, SOBOLEV_BLOCK_ROWS, SOBOLEV_BLOCK_ROWS + 1):
        stack = rng.standard_normal((n, m))
        # the special rows open the stack and close it, in its last block
        stack[:4] = special
        stack[-4:] = special
        for s in (0.0, 0.25, 0.9):
            got = ps.sobolev_norm(stack, s, h)
            assert got.shape == (n,)
            expected = np.array([_one_row_sobolev(row, s, h) for row in stack])
            assert np.all(got == expected)
            row = ps.sobolev_norm(stack[-1], s, h)
            assert type(row) is float
            assert row == expected[-1]


def test_sobolev_weights_are_cached_read_only(problem15):
    m, h = problem15.m, problem15.h
    weights = _sobolev_weights(m, h, 0.25)
    assert _sobolev_weights(m, h, 0.25) is weights
    assert not weights.flags.writeable
    mu = (4.0 / h**2) * np.sin(np.arange(1, m + 1) * (np.pi / (2 * (m + 1)))) ** 2
    assert np.array_equal(weights, mu**0.25)


def test_sobolev_norm_rejects_bad_order(problem15):
    with pytest.raises(ValueError):
        ps.sobolev_norm(np.zeros(problem15.m), 1.0, problem15.h)


def test_spectrum_csv_schema(spectrum15):
    from parastab.spectral import spectrum_to_csv

    text = spectrum_to_csv(spectrum15)
    lines = text.strip().split("\n")
    assert lines[0] == "index,lambda,boundary_flux"
    assert len(lines) == spectrum15.m + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == pytest.approx(spectrum15.lambdas[0])


# values whose %-format and format() could part: signed zero, the smallest
# subnormal, a large normal, both infinities and NaN
ODD_VALUES = [-0.0, 5e-324, 1e300, -np.inf, np.inf, np.nan, 0.1, -2.0 / 3.0]


def test_modes_csv_is_the_per_value_format(spectrum15):
    from parastab.spectral import modes_to_csv

    modes = spectrum15.modes.copy()
    modes[3, : len(ODD_VALUES)] = ODD_VALUES
    # a spectrum that stores the odd matrix as its dense basis
    for spectrum in (spectrum15, dataclasses.replace(spectrum15, basis=modes)):
        expected = "".join(
            ",".join(format(v, ".17g") for v in row) + "\n" for row in spectrum.modes
        )
        assert modes_to_csv(spectrum) == expected
    assert "-0,4.9406564584124654e-324,1.0000000000000001e+300,-inf,inf,nan" in expected


def test_near_degenerate_gap_warns():
    op = TridiagonalOperator(diag=np.array([1.0, 1.0 + 1e-12]), offdiag=np.zeros(1), h=0.1)
    with pytest.warns(UserWarning):
        ps.eigendecompose(op)


@pytest.mark.parametrize(
    "equilibrium", [0.0, lambda x: 0.2 * np.sin(np.pi * x)], ids=["constant", "callable"]
)
def test_linearized_spectrum_is_the_three_call_recipe(equilibrium):
    spec = ps.ProblemSpec(
        nonlinearity=ps.fisher_reaction(15.0), grid_points=64, equilibrium=equilibrium
    )
    problem = ps.validate_spec(spec)
    c = ps.linearized_coefficient(problem)
    assert (np.ptp(c) > 1.0) == callable(equilibrium)  # a constant potential, or not
    expected = ps.compute_spectrum(problem, c, spec.target_rate)
    got_problem, got = ps.linearized_spectrum(spec)
    assert np.array_equal(got_problem.equilibrium_values, problem.equilibrium_values)
    for name in ("lambdas", "modes", "boundary_flux"):
        assert np.array_equal(getattr(got, name), getattr(expected, name))
    assert (got.unstable_count, got.rho) == (expected.unstable_count, expected.rho)
    # a validated problem is used as it is
    assert ps.linearized_spectrum(problem)[0] is problem
