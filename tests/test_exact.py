"""The closed-form gain algebra of parastab._exact against its mp.matrix oracle.

The oracle below is the Gram/LU formulation with mp.matrix operators, kept
as the reference; the system under test holds plain lists of mpf, so its
fields are compared with the oracle's matrices read as lists.  The fields
the closed form leaves alone (the weights, the hold integrals, the
differences x_i - mu_k, the placed points mu_k, the Gram sum, its
condition and the contraction bound) must come out equal to the oracle's
at the same precision, not close.  The inverted fields (gain row, gain rows, Gram inverse, closed-loop map) are
held to the float64 rounding of the oracle run at three times the digits:
the closed form is more accurate entry by entry than the Gram/LU route at
the working precision, so its mpf bits legitimately differ.  The row read
(``_exact.gain_row``) must give the float64 rounding of the full build's
gain row, and stop where the full build stops, with the same message.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

import parastab as ps
from parastab import _exact
from parastab.simulate import stepped_modes

from conftest import make_problem, make_spectrum, quiet_gains

PERIODS = (None, 1e-8, 1e-6, 5e-3, 0.05, 0.2, 0.7, 1.0, 2.0)
# N unstable modes: reaction strength a and grid points of the spectrum
SPECTRA = {1: (15.0, 200), 2: (45.0, 128), 3: (95.0, 200), 4: (200.0, 128)}
# fields assembled as the oracle assembles them, and fields from the closed form
SAME_FIELDS = ("lam_table", "integral_diag", "cross", "placed", "gram_sum")
ROUNDED_FIELDS = ("gain_row", "gain_rows_k", "gram_inverse", "closed_loop")
# past the 400-digit limit before anything is built
OVER_LIMIT = {(4, 2.0)}


def oracle_assemble(lambdas, flux, gammas, T, dps):
    """The gain system assembled with mp.matrix operators."""
    n = len(lambdas)
    with mp.workdps(dps):
        lam = [mp.mpf(float(v)) for v in lambdas]
        b = [mp.mpf(float(v)) for v in flux]
        gam = [mp.mpf(float(v)) for v in gammas]
        period = None if T is None else mp.mpf(float(T))

        table, cross = mp.zeros(n, n), mp.zeros(n, n)
        points = [None if period is None else mp.exp(-x * period) for x in lam]
        for i in range(n):
            for k in range(n):
                if period is None:
                    cross[i, k] = gam[k] - lam[i]
                    w = 1 / cross[i, k]
                else:
                    den = cross[i, k] = -points[i] * mp.expm1(-(gam[k] - lam[i]) * period)
                    if den == 0:
                        raise _exact.ExactAlgebraError(
                            f"degenerate weight denominator at i={i}, k={k}"
                        )
                    w = _exact._decay_integral(lam[i], period) / den
                if not 0.0 < float(w) < float("inf"):
                    raise _exact.ExactAlgebraError(
                        f"weight {mp.nstr(w, 5)} at i={i}, k={k} is outside "
                        "the float64 range"
                    )
                table[i, k] = w

        if period is None:
            integral = mp.matrix([mp.mpf(1)] * n)
        else:
            integral = mp.matrix([_exact._decay_integral(lam[i], period) for i in range(n)])

        gram_sum = mp.zeros(n, n)
        vs = []
        for k in range(n):
            v = mp.matrix([table[i, k] * b[i] for i in range(n)])
            vs.append(v)
            gram_sum += v * v.T

        eigvals = sorted(mp.mpf(e) for e in mp.eigsy(gram_sum, eigvals_only=True))
        assert eigvals[0] > 0
        condition = eigvals[-1] / eigvals[0]
        gram_inv = gram_sum**-1
        lam_total = mp.matrix(
            [sum(table[i, k] for k in range(n)) * b[i] for i in range(n)]
        )
        gain = gram_inv * lam_total
        rows_k = mp.zeros(n, n)
        closed = mp.zeros(n, n)
        placed = mp.matrix([1 if period is None else mp.exp(-g * period) for g in gam])
        for k in range(n):
            gk = gram_inv * vs[k]
            for i in range(n):
                rows_k[i, k] = gk[i]
            closed += (vs[k] * (vs[k].T * gram_inv)) * placed[k]

        return _exact.ExactGains(
            lambdas=lam, flux=b, gammas=gam, period=period, points=points, dps=dps,
            lam_table=table, integral_diag=integral, cross=cross, placed=placed,
            gram_sum=gram_sum, gram_inverse=gram_inv, gain_row=gain, gain_rows_k=rows_k,
            closed_loop=closed, condition=condition,
        )


def _frobenius(a):
    return mp.sqrt(sum(a[i, j] ** 2 for i in range(a.rows) for j in range(a.cols)))


def oracle_resolution_residual(exact):
    with mp.workdps(exact.dps):
        return float(_frobenius(exact.gram_sum * exact.gram_inverse - mp.eye(exact.n)))


def oracle_identity_residual(exact):
    with mp.workdps(exact.dps):
        n = exact.n
        lhs = mp.zeros(n, n)
        for i in range(n):
            lhs[i, i] = mp.exp(-exact.lambdas[i] * exact.period)
        for i in range(n):
            for j in range(n):
                lhs[i, j] -= exact.integral_diag[i] * exact.flux[i] * exact.gain_row[j]
        return float(_frobenius(lhs - exact.closed_loop) / _frobenius(exact.closed_loop))


def oracle_contraction_bound(exact):
    """Symmetrized with the inverse square root of the Gram sum, taken
    from its eigendecomposition."""
    with mp.workdps(exact.dps):
        n = exact.n
        evals, q = mp.eigsy(exact.gram_sum)
        inv_root = mp.zeros(n, n)
        for i in range(n):
            if evals[i] <= 0:
                raise _exact.ExactAlgebraError("Gram sum not positive definite")
            inv_root[i, i] = 1 / mp.sqrt(evals[i])
        half = q * inv_root * q.T
        sym = mp.zeros(n, n)
        for k in range(n):
            v = mp.matrix([exact.lam_table[i, k] * exact.flux[i] for i in range(n)])
            w = half * v
            sym += (w * w.T) * mp.exp(-exact.gammas[k] * exact.period)
        lam_max = max(mp.mpf(e) for e in mp.eigsy(sym, eigvals_only=True))
        bound = mp.exp(-exact.gammas[0] * exact.period)
        return float(lam_max), float(bound), float(lam_max / bound)


@pytest.fixture(scope="module")
def spectra():
    """The spectrum with N unstable modes, per N."""
    return {n: make_spectrum(make_problem(a=a, grid_points=grid_points))
            for n, (a, grid_points) in SPECTRA.items()}


@pytest.fixture(scope="module")
def unstable_data(spectra):
    """(lambdas, flux, gammas) of the unstable modes, per N."""
    data = {}
    for n, spectrum in spectra.items():
        assert spectrum.unstable_count == n
        data[n] = (spectrum.lambdas[:n], spectrum.boundary_flux[:n],
                   ps.default_gammas(1.0, n))
    return data


def _build(lambdas, flux, gammas, period):
    try:
        return _exact.gain_system(lambdas, flux, gammas, period)
    except _exact.ExactAlgebraError as exc:
        return exc


def _entries(a):
    """The entries in row order of a list, a list of rows or an mp.matrix."""
    if isinstance(a, mp.matrix):
        return [a[i, j] for i in range(a.rows) for j in range(a.cols)]
    return [x for row in a for x in (row if isinstance(row, list) else [row])]


def _shape(a):
    """(rows, columns) of an mp.matrix, a list of rows or a list (one column)."""
    if isinstance(a, mp.matrix):
        return a.rows, a.cols
    return (len(a), len(a[0])) if isinstance(a[0], list) else (len(a), 1)


def _floats(a):
    return [float(x) for x in _entries(a)]


def _as_matrices(exact):
    """The system with its list fields as mp.matrix, for the oracle residuals."""
    names = (*SAME_FIELDS, *ROUNDED_FIELDS)
    return replace(exact, **{name: mp.matrix(getattr(exact, name)) for name in names})


CASES = pytest.mark.parametrize("period", PERIODS, ids=lambda t: f"T{t}")
MODES = pytest.mark.parametrize("n", sorted(SPECTRA), ids=lambda n: f"N{n}")


@CASES
@MODES
def test_gain_system_matches_matrix_oracle(unstable_data, n, period):
    """Assembled fields bit-identical at the same digits, inverted fields
    correctly rounded to float64, residuals at the floor the precision
    was sized for."""
    lambdas, flux, gammas = unstable_data[n]
    got = _build(lambdas, flux, gammas, period)
    if (n, period) in OVER_LIMIT:
        assert isinstance(got, _exact.ExactAlgebraError)
        assert "400-digit working limit" in str(got)
        return
    want = oracle_assemble(lambdas, flux, gammas, period, got.dps)
    assert got.condition == want.condition
    for name in SAME_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert _shape(a) == _shape(b), name
        assert _entries(a) == _entries(b), name
    for name in ("lambdas", "flux", "gammas", "period"):
        assert getattr(got, name) == getattr(want, name), name

    truth = oracle_assemble(lambdas, flux, gammas, period, 3 * got.dps)
    # in the T -> 0 limit the closed-loop map is the identity, and its
    # off-diagonal roundoff has no float64 rounding to agree on
    for name in ROUNDED_FIELDS if period is not None else ROUNDED_FIELDS[:-1]:
        assert _floats(getattr(got, name)) == _floats(getattr(truth, name)), name

    floor = 10.0 ** -(got.dps - float(mp.log10(got.condition)) - _exact.GUARD_DIGITS + 3)
    assert _exact.resolution_residual(got) <= floor
    assert _exact.resolution_residual(got) == oracle_resolution_residual(_as_matrices(got))
    if period is not None:
        assert _exact.identity_residual(got) <= floor
        assert _exact.identity_residual(got) == oracle_identity_residual(_as_matrices(got))
        assert _exact.contraction_bound(got) == oracle_contraction_bound(want)


@CASES
@MODES
def test_gain_system_builds_once(unstable_data, monkeypatch, n, period):
    """The precision is fixed before the build: one assembly, or none past
    the working limit."""
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return assemble(*args)

    assemble = _exact._assemble
    monkeypatch.setattr(_exact, "_assemble", counted)
    got = _build(*unstable_data[n], period)
    if (n, period) in OVER_LIMIT:
        assert isinstance(got, _exact.ExactAlgebraError) and calls == []
    else:
        assert calls == [got.dps]


def test_build_and_checks_form_each_point_once(unstable_data, monkeypatch):
    """x_i and mu_k are formed in the build only: a sampled build plus
    identity_residual plus contraction_bound takes 2N exponentials."""
    calls = []
    exp = mp.exp

    def counted(x):
        calls.append(x)
        return exp(x)

    monkeypatch.setattr(mp, "exp", counted)
    got = _exact.gain_system(*unstable_data[3], 0.2)
    _exact.identity_residual(got)
    _exact.contraction_bound(got)
    assert len(calls) == 2 * 3


@CASES
@MODES
def test_gain_row_reads_the_built_row(unstable_data, monkeypatch, n, period):
    """The row read is the float64 rounding of the full build's gain row,
    sized to the same digits; where the sizing stops, both stop with the
    same message."""
    sized = []
    precision = _exact._precision
    monkeypatch.setattr(
        _exact, "_precision", lambda *args: sized.append(precision(*args)) or sized[-1]
    )
    args = (*unstable_data[n], period)
    built = _build(*args)
    try:
        row = _exact.gain_row(*args)
    except _exact.ExactAlgebraError as exc:
        row = exc
    if (n, period) in OVER_LIMIT:
        assert isinstance(built, _exact.ExactAlgebraError)
        assert isinstance(row, _exact.ExactAlgebraError)
        assert str(row) == str(built) and sized == []
        return
    assert sized == [sized[0]] * 2 and sized[0][0] == built.dps
    assert row.tolist() == _floats(built.gain_row)


@pytest.mark.parametrize("lambdas, flux, gammas, period, message", [
    ([-5.0, -2.0], [3.0, 0.0], (2.0, 3.0), 0.2, "zero boundary flux"),
    ([-5.0, -5.0], [3.0, -2.0], (2.0, 3.0), 0.2, "repeated value"),
    ([-5.0, -2.0], [3.0, -2.0], (2.0, 2.0), None, "repeated value"),
    # e^{-lambda T} = e^{-750}: the weight is about 2 e^{750}
    ([0.5], [1.0], (0.6,), 1500.0, "outside the float64 range"),
    ([-60.0, -40.0], [4.4, -8.9], (2.0, 3.0), 150.0, "working limit"),
], ids=["zero-flux", "repeated-lambda", "repeated-gamma", "weight-overflow", "max-dps"])
def test_gain_row_stops_where_the_build_stops(lambdas, flux, gammas, period, message):
    """Every check the full build makes before its eigenvalue solve, with
    the same text."""
    lam, b = np.array(lambdas), np.array(flux)
    with pytest.raises(_exact.ExactAlgebraError, match=message) as built:
        _exact.gain_system(lam, b, gammas, period)
    with pytest.raises(_exact.ExactAlgebraError) as row:
        _exact.gain_row(lam, b, gammas, period)
    assert str(row.value) == str(built.value)


@pytest.mark.parametrize("fixture", ["spectrum15", "spectrum95"])
def test_row_readers_keep_the_full_build_values(request, fixture):
    """continuous_limit and gain_limit_distance read the row alone, and
    give what the full builds give."""
    spectrum = request.getfixturevalue(fixture)
    n = spectrum.unstable_count
    gammas = ps.default_gammas(spectrum.rho, n)
    lam, flux = spectrum.lambdas[:n], spectrum.boundary_flux[:n]
    cont = ps.continuous_limit(spectrum, gammas)
    assert cont.tolist() == _floats(_exact.gain_system(lam, flux, gammas, None).gain_row)
    for period in (1e-6, 1e-2, 5e-3):
        full = quiet_gains(spectrum, gammas, period).gain_row
        distance = float(np.linalg.norm(full - cont) / np.linalg.norm(cont))
        assert ps.gain_limit_distance(spectrum, gammas, period) == distance
        assert ps.gain_limit_distance(spectrum, gammas, period, cont) == distance


@CASES
@MODES
def test_condition_bound_brackets_the_condition(unstable_data, n, period):
    """(||V||_F ||V^-1||_F)^2 is at least cond(V V^T) and at most N^2 times it."""
    lambdas, flux, gammas = unstable_data[n]
    bound = _exact._log10_condition_bound(lambdas, flux, gammas, period)
    if (n, period) in OVER_LIMIT:
        assert bound + _exact.GUARD_DIGITS > _exact.MAX_DPS
        return
    exact = _exact.gain_system(lambdas, flux, gammas, period)
    with mp.workdps(exact.dps):
        digits = float(mp.log10(exact.condition))
    assert digits - 1e-9 <= bound <= digits + 2 * np.log10(n) + 1e-9


@pytest.mark.parametrize("start", [0, 2], ids=lambda s: f"start{s}")
@pytest.mark.parametrize("period", PERIODS[1:], ids=lambda t: f"T{t}")
@MODES
def test_stepped_gain_places_the_stepped_plant(spectra, n, period, start):
    """gain_system on the effective rates of stepped_modes, (lambda~,
    b~ lambda~ / lambda), places the eigenvalues of the stepped one-hold map
    diag(r) + beta g^T, r_i = e^{-lambda~_i T} and beta_i = -(1 - r_i) /
    lambda_i b~_i, at e^{-gamma_k T}, in mpmath.  The substeps keep
    dt |lambda_1| <= 1/2, so a backward-Euler start substep is allowed."""
    spectrum = spectra[n]
    substeps = max(64, 2 * (math.floor(-period * spectrum.lambdas[0]) + 1))
    gammas = ps.default_gammas(1.0, n)
    with mp.workdps(_exact.MAX_DPS):
        rates, inputs = stepped_modes(spectrum, period, substeps, start)
        lambdas = [mp.mpf(v) for v in spectrum.lambdas[:n]]
        flux = [b * x / lam for b, x, lam in zip(inputs, rates, lambdas)]
    got = _build(rates, flux, gammas, period)
    if (n, period) in OVER_LIMIT:
        assert isinstance(got, _exact.ExactAlgebraError)
        return
    with mp.workdps(got.dps):
        T = mp.mpf(period)
        r = [mp.exp(-x * T) for x in rates]
        beta = [-(1 - ri) / lam * b for ri, lam, b in zip(r, lambdas, inputs)]
        hold = mp.matrix([[(r[i] if i == j else 0) + beta[i] * got.gain_row[j]
                           for j in range(n)] for i in range(n)])
        eigenvalues = sorted(mp.eig(hold, left=True)[0], key=lambda z: -abs(z))
        placed = [mp.exp(-g * T) for g in gammas]
        assert max(abs(e - p) / p for e, p in zip(eigenvalues, placed)) <= 1e-16


def test_condition_bound_does_not_overflow():
    # a = 15 at T = 150: e^{-lambda_1 T} is past the float64 range, its log is not
    lam, flux, gammas = np.array([-5.13]), np.array([4.44]), (2.0,)
    assert _exact._log10_condition_bound(lam, flux, gammas, 150.0) == pytest.approx(0.0, abs=1e-9)
    lam, flux, gammas = np.array([-60.0, -40.0]), np.array([4.4, -8.9]), (2.0, 3.0)
    assert 1000 < _exact._log10_condition_bound(lam, flux, gammas, 150.0) < math.inf
    with pytest.raises(_exact.ExactAlgebraError, match="working limit"):
        _exact.gain_system(lam, flux, gammas, 150.0)


def test_contraction_bound_rejects_an_indefinite_gram_sum(gains95):
    exact = gains95.exact
    with mp.workdps(exact.dps):
        indefinite = [row[:] for row in exact.gram_sum]
        indefinite[1][1] = -indefinite[1][1]
    with pytest.raises(_exact.ExactAlgebraError, match="not positive definite"):
        _exact.contraction_bound(replace(exact, gram_sum=indefinite))
    assert np.isfinite(_exact.contraction_bound(exact)[0])
