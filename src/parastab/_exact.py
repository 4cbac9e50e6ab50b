"""Arbitrary-precision core of the gain algebra.

The Gram sum inverted during synthesis has condition number growing like
exp(2*|lambda_1|*T): harmless in exact arithmetic (the closed-loop identities
are algebraic), catastrophic in double precision already at moderate
sampling periods.  The one-hold update also cancels: e^{-lambda_1 T} has to
cancel down to e^{-gamma_N T}, which costs (gamma_N - lambda_1) T / ln 10
digits.  Everything N x N, the sampled weights included, therefore runs
through mpmath at a working precision sized from both scales, and the
results are rounded to float64 once at the end.

The weighted vectors form a row-scaled Cauchy matrix: with
x_i = e^{-lambda_i T}, mu_k = e^{-gamma_k T} and beta_i = hold_i * flux_i,
V[i][k] = beta_i / (x_i - mu_k) (x_i = -lambda_i, mu_k = -gamma_k and
beta_i = flux_i in the T -> 0 limit).  The gain row
g = (V V^T)^-1 V 1 = V^-T 1 and every other inverse therefore have closed
forms (Schechter 1959) that are products of the differences x_i - mu_k,
x_i - x_l and mu_k - mu_l, each formed without cancellation:

    g_i = prod_k (x_i - mu_k) / (beta_i prod_{l != i} (x_i - x_l)),
    (V^-1)[k][i] = s g_i prod_l (x_l - mu_k)
                   / ((x_i - mu_k) prod_{l != k} (mu_k - mu_l)),

with s = +1 for odd N and -1 for even N.  The gain rows are V^-T, the Gram
inverse V^-T V^-1 and the closed-loop map V diag(mu) V^-1.  Because the
closed form is a product, every entry of the gain row is accurate to a few
units in the last working digit, not only in norm, so its float64 rounding
is the correctly rounded value (barring a tie closer than the working
precision).  The same closed form, summed in float64 logarithms (no
exponential is formed, so nothing overflows), bounds the condition number
before anything is built: the precision is fixed once and the system is
assembled once.

The arithmetic runs on plain lists of mpf (a vector as a list, a matrix
as a list of rows), summed in the rounding order of the mp.matrix
operators (one fdot per product entry, sums over k accumulated from
k = 0); mp.matrix is built only for the two mp.eigsy calls: the Gram
sum's condition and the contraction bound.  ``_hold`` computes the
one-hold map once (the inputs, the points x_i, the hold integrals, the
differences x_i - mu_k and the weights).  Two entry points share it, the
precision sizing and the gain row formula:

- ``gain_system`` builds an ExactGains, that map extended by the placed
  points mu_k and the Gram-sum fields (the Gram sum and its condition,
  gain row, component rows, Gram inverse, closed-loop map).  Every
  GainSet holds one; synthesis.build_gains is its only caller.  The
  checks read x_i and mu_k from it: a build and its checks form 2N
  exponentials.
- ``gain_row`` computes the float64 gain row from the map alone, for the
  continuous limit and the small-period distances.

One 50-digit full build at N = 3 takes about 2 ms on a 2-vCPU box:
``mp.eigsy`` of the Gram sum (about 0.7 ms, for the condition number and
the positive-definiteness guard) and the 18 expm1 and 6 exp calls (about
0.4 ms) are most of it; the condition bound takes about 30 us.  A row
read at N = 3 takes about 0.3 ms in the T -> 0 limit (a full build 2.3 ms)
and 1.1 to 1.5 ms for T between 1e-6 and 1e-2 (a full build 3.4 to
3.8 ms).  ``contraction_bound`` takes about 1.4 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

BASE_DPS = 50
GUARD_DIGITS = 35
MAX_DPS = 400


class ExactAlgebraError(ArithmeticError):
    """Gram sum singular, precision beyond MAX_DPS, or a weight outside float64."""


def _decay_integral(lam: mp.mpf, T: mp.mpf) -> mp.mpf:
    """int_0^T exp(-lam*s) ds, exact for lam = 0."""
    if lam == 0:
        return T
    return -mp.expm1(-lam * T) / lam


@dataclass
class _Hold:
    """The one-hold map of the unstable modes at the working precision: the
    inputs as mpf, the points x_i = e^{-lambda_i T} (None in the T -> 0
    limit), the hold integrals (1 in the limit), the differences
    cross[i][k] = x_i - mu_k and the weights lam_table[i][k] =
    integral_diag[i] / cross[i][k].  A row read needs this alone."""

    lambdas: list
    flux: list
    gammas: list
    period: object  # mp.mpf or None for the continuous-time limit
    points: list  # N points x_i
    integral_diag: list  # N hold integrals (identity weights at T -> 0)
    cross: list  # N x N
    lam_table: list  # N x N: [i][k] is entry i of the k-th diagonal weight

    @property
    def n(self) -> int:
        return len(self.lambdas)

    def gain(self) -> list:
        """g_i = prod_k (x_i - mu_k) / (beta_i prod_{l != i} (x_i - x_l))."""
        x_spread = _pair_products(self.lambdas, self.points, self.period)
        return [mp.fprod(c) / (w * b * s)
                for c, w, b, s in zip(self.cross, self.integral_diag, self.flux, x_spread)]


@dataclass
class ExactGains(_Hold):
    """The full build, as lists of mpf: the one-hold map it extends,
    computed once by _hold, plus the placed points mu_k = e^{-gamma_k T}
    (1 in the T -> 0 limit) and the Gram-sum fields.  The checks below
    read the points from here and form no exponential of their own."""

    placed: list  # N
    dps: int
    gram_sum: list  # N x N sum of weighted Gram terms
    gram_inverse: list  # N x N
    gain_row: list  # N
    gain_rows_k: list  # N x N: column k is the k-th component row
    closed_loop: list  # N x N sampled modal update matrix
    condition: mp.mpf


def _log_gap(r: float, s: float, T: float | None) -> float:
    """log |e^{-rT} - e^{-sT}| (log |s - r| in the T -> 0 limit), in float64
    without forming either exponential."""
    if r == s:
        raise ExactAlgebraError(f"repeated value {r!r}: the gain system is singular")
    if T is None:
        return math.log(abs(s - r))
    return -min(r, s) * T + math.log(-math.expm1(-abs(s - r) * T))


def _gap(r: mp.mpf, s: mp.mpf, point: mp.mpf, period) -> mp.mpf:
    """e^{-rT} - e^{-sT} given point = e^{-rT}, without cancellation;
    s - r in the T -> 0 limit (period None)."""
    if period is None:
        return s - r
    return -point * mp.expm1(-(s - r) * period)


def _pair_products(rates: list, points: list, period) -> list:
    """prod over l != i of (p_i - p_l), each difference formed once."""
    n = len(rates)
    pairs = {(i, j): _gap(rates[i], rates[j], points[i], period)
             for i in range(n) for j in range(i + 1, n)}
    # the i factors with l < i enter as -(p_l - p_i)
    return [(-1) ** i * mp.fprod(pairs[min(i, j), max(i, j)] for j in range(n) if j != i)
            for i in range(n)]


def _log_sum_exp(logs: list) -> float:
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def _log10_condition_bound(lambdas, flux, gammas, T) -> float:
    """log10 of (||V||_F ||V^-1||_F)^2, an upper bound on the condition
    number of the Gram sum V V^T (kappa_F >= kappa_2), at most N^2 times it.

    Summed from the closed form in float64 logarithms, so it does not
    overflow where the weights and their inverse do.
    """
    lam = [float(v) for v in lambdas]
    gam = [float(v) for v in gammas]
    T = None if T is None else float(T)
    n = len(lam)
    log_beta = []
    for x, b in zip(lam, flux):
        if b == 0:
            raise ExactAlgebraError("a mode with zero boundary flux: the gain system is singular")
        if T is None:
            hold = 0.0
        elif x == 0:
            hold = math.log(T)
        else:
            hold = _log_gap(0.0, x, T) - math.log(abs(x))
        log_beta.append(hold + math.log(abs(float(b))))

    def pair_sums(rates: list) -> list:
        """sum over l != i of log |p_i - p_l|, each pair formed once."""
        out = [0.0] * n
        for i in range(n):
            for j in range(i + 1, n):
                d = _log_gap(rates[i], rates[j], T)
                out[i] += d
                out[j] += d
        return out

    cross = [[_log_gap(x, g, T) for g in gam] for x in lam]  # log |x_i - mu_k|
    x_spread, mu_spread = pair_sums(lam), pair_sums(gam)
    col = [sum(cross[i][k] for i in range(n)) - mu_spread[k] for k in range(n)]
    v_logs, inv_logs = [], []
    for i in range(n):
        row = sum(cross[i]) - log_beta[i] - x_spread[i]  # log |g_i|
        for k in range(n):
            v_logs.append(2 * (log_beta[i] - cross[i][k]))
            inv_logs.append(2 * (row + col[k] - cross[i][k]))
    return (_log_sum_exp(v_logs) + _log_sum_exp(inv_logs)) / math.log(10)


def _hold(lambdas, flux, gammas, T) -> _Hold:
    """The hold data at the current working precision; a weight outside the
    float64 range raises ExactAlgebraError."""
    n = len(lambdas)
    lam = [mp.mpf(float(v)) for v in lambdas]
    b = [mp.mpf(float(v)) for v in flux]
    gam = [mp.mpf(float(v)) for v in gammas]
    period = None if T is None else mp.mpf(float(T))
    # the differences need no points in the limit
    if period is None:
        integral = [mp.mpf(1)] * n
        points = [None] * n
    else:
        points = [mp.exp(-x * period) for x in lam]
        integral = [_decay_integral(x, period) for x in lam]

    # cross[i][k] = x_i - mu_k, nonzero: _log_gap rejected equal values
    cross = [[_gap(lam[i], gam[k], points[i], period) for k in range(n)]
             for i in range(n)]
    table = [[integral[i] / cross[i][k] for k in range(n)] for i in range(n)]
    for i in range(n):
        for k in range(n):
            # the float64 view of the gains (lifts, matrix dumps) divides by w
            w = table[i][k]
            if not 0.0 < float(w) < math.inf:
                raise ExactAlgebraError(
                    f"weight {mp.nstr(w, 5)} at i={i}, k={k} is outside "
                    "the float64 range"
                )
    return _Hold(lam, b, gam, period, points, integral, cross, table)


def _assemble(lambdas, flux, gammas, T, dps: int) -> ExactGains:
    n = len(lambdas)
    with mp.workdps(dps):
        hold = _hold(lambdas, flux, gammas, T)
        b, gam, period = hold.flux, hold.gammas, hold.period
        cross, table = hold.cross, hold.lam_table
        # placed: the points mu_k = e^{-gamma_k T}, 1 in the limit
        if period is None:
            placed = [mp.mpf(1)] * n
        else:
            placed = [mp.exp(-g * period) for g in gam]

        # the rounding order of the mp.matrix operators: every product entry
        # is one fdot, and the sums over k accumulate from k = 0
        vs = [[table[i][k] * b[i] for i in range(n)] for k in range(n)]
        gram = [[sum(v[i] * v[j] for v in vs) for j in range(n)] for i in range(n)]

        eigvals = sorted(mp.mpf(e) for e in mp.eigsy(mp.matrix(gram), eigvals_only=True))
        if eigvals[0] <= 0:
            raise ExactAlgebraError(f"Gram sum not positive definite at {dps} digits")
        condition = eigvals[-1] / eigvals[0]

        mu_spread = _pair_products(gam, placed, period)
        sign = 1 if n % 2 else -1
        gain = hold.gain()
        col = [sign * mp.fprod(cross[i][k] for i in range(n)) / mu_spread[k]
               for k in range(n)]
        # rows_k[i][k] = (V^-1)[k][i]: the gain rows are V^-T
        rows_k = [[gain[i] * col[k] / cross[i][k] for k in range(n)] for i in range(n)]
        inverse = [[mp.fdot(rows_k[i], rows_k[j]) for j in range(n)] for i in range(n)]
        closed = [
            [mp.fdot([vs[k][i] * placed[k] for k in range(n)], rows_k[j]) for j in range(n)]
            for i in range(n)
        ]

        return ExactGains(
            **vars(hold),
            placed=placed,
            dps=dps,
            gram_sum=gram,
            gram_inverse=inverse,
            gain_row=gain,
            gain_rows_k=rows_k,
            closed_loop=closed,
            condition=condition,
        )


def _precision(lambdas, flux, gammas, T) -> tuple[int, int]:
    """(working digits, floor of log10 of the condition bound), sized from
    the condition bound of the closed form and the cancellation over one
    hold before anything is built.

    Raises ExactAlgebraError for a zero flux, a repeated lambda or gamma,
    and past MAX_DPS digits.  Both counts are compared in floating point
    before they are rounded, so a count past the float64 range (or NaN
    from an overflow in the bound) stops here too; counts past a million
    are printed as a bound.
    """
    cancel = 0.0  # digits lost as e^{-lambda_1 T} cancels down to e^{-gamma_N T}
    if T is not None:
        cancel = (float(max(gammas)) - float(min(lambdas))) * float(T) / math.log(10)
    condition = _log10_condition_bound(lambdas, flux, gammas, T)
    limit = MAX_DPS - GUARD_DIGITS  # ceil(cancel) and floor(condition) may reach it
    if not (cancel <= limit and condition < limit + 1):
        bound = f"up to 1e{math.floor(condition)}" if condition < 1e6 else "past 1e1000000"
        digits = math.ceil(cancel) if cancel < 1e6 else "more than 10^6"
        raise ExactAlgebraError(
            f"Gram sum condition {bound} and {digits} digits of "
            f"cancellation over one hold exceed the {MAX_DPS}-digit working limit"
        )
    condition_digits = math.floor(condition)
    dps = max(BASE_DPS, math.ceil(cancel) + GUARD_DIGITS, condition_digits + GUARD_DIGITS)
    return dps, condition_digits


def gain_system(lambdas, flux, gammas, T) -> ExactGains:
    """Build the gain algebra once, at the precision ``_precision`` sizes.

    Pass T = None for the continuous-time (zero sampling period) limit.
    Raises ExactAlgebraError past MAX_DPS digits, for a zero flux or a
    repeated lambda or gamma, for a weight outside the float64 range, and
    for a Gram sum that is not positive definite or is worse conditioned
    than its bound.
    """
    dps, condition_digits = _precision(lambdas, flux, gammas, T)
    exact = _assemble(lambdas, flux, gammas, T, dps)
    if int(mp.log10(exact.condition)) + GUARD_DIGITS > dps:
        raise ExactAlgebraError(
            f"Gram sum condition {mp.nstr(exact.condition, 5)} exceeds its bound "
            f"1e{condition_digits}"
        )
    return exact


def gain_row(lambdas, flux, gammas, T) -> np.ndarray:
    """The float64 rounding of gain_system(lambdas, flux, gammas, T).gain_row,
    from the closed form alone: no Gram sum, eigenvalue solve, inverse,
    component rows or closed-loop map.

    Makes every check gain_system makes before its eigenvalue solve, with
    the same message: the MAX_DPS stop, a zero flux, a repeated lambda or
    gamma, a weight outside the float64 range.  The two checks on the Gram
    eigenvalues do not bear on the row: the closed form is accurate entry
    by entry, distinct values and nonzero fluxes make V nonsingular (so
    V V^T is positive definite), and the condition bound holds by
    construction.
    """
    dps, _ = _precision(lambdas, flux, gammas, T)
    with mp.workdps(dps):
        return np.array([float(g) for g in _hold(lambdas, flux, gammas, T).gain()])


def _frobenius(rows: list) -> mp.mpf:
    return mp.sqrt(sum(x**2 for row in rows for x in row))


def resolution_residual(exact: ExactGains) -> float:
    """Frobenius distance of (Gram sum) * (its inverse) from the identity."""
    with mp.workdps(exact.dps):
        inv_cols = list(zip(*exact.gram_inverse))
        return float(_frobenius(
            [[mp.fdot(row, col) - (1 if i == j else 0) for j, col in enumerate(inv_cols)]
             for i, row in enumerate(exact.gram_sum)]
        ))


def identity_residual(exact: ExactGains) -> float:
    """Relative residual of the sampled closed-loop matrix identity.

    Compares exp(-A_N T) - diag(hold integrals) b g^T against the weighted
    sum of normalized Gram terms that propagates the unstable coordinates
    from one sample to the next.  Zero in exact arithmetic for every
    admissible configuration.
    """
    if exact.period is None:
        raise ValueError("identity_residual needs a sampled gain system")
    with mp.workdps(exact.dps):
        n, gain, closed = exact.n, exact.gain_row, exact.closed_loop
        diff = []
        for i in range(n):
            scale = exact.integral_diag[i] * exact.flux[i]
            diff.append([
                ((exact.points[i] if i == j else 0) - scale * gain[j]) - closed[i][j]
                for j in range(n)
            ])
        return float(_frobenius(diff) / _frobenius(closed))


def _symmetrized_update(exact: ExactGains) -> list:
    """L^-1 C L^-T, with L L^T = G the Cholesky factorization of the Gram sum
    and C = sum_k e^{-gamma_k T} v_k v_k^T, so that C G^-1 is the closed-loop
    update.

    With W = L^-1 [v_1 ... v_N] it is W diag(e^{-gamma_k T}) W^T, and W is
    orthogonal because W W^T = L^-1 G L^-T = I.
    """
    n, gram = exact.n, exact.gram_sum
    low = [[] for _ in range(n)]  # row i holds L[i][0..i]
    for j in range(n):
        pivot = gram[j][j] - mp.fdot(low[j], low[j])
        if pivot <= 0:
            raise ExactAlgebraError("Gram sum not positive definite")
        root = mp.sqrt(pivot)
        low[j].append(root)
        for i in range(j + 1, n):
            low[i].append((gram[i][j] - mp.fdot(low[i], low[j][:j])) / root)
    ws = []
    for k in range(n):
        w = []
        for i in range(n):
            v = exact.lam_table[i][k] * exact.flux[i]
            w.append((v - mp.fdot(low[i][:i], w)) / low[i][i])
        ws.append(w)
    return [
        [mp.fdot((exact.placed[k] * ws[k][i], ws[k][j]) for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def contraction_bound(exact: ExactGains) -> tuple[float, float, float]:
    """(lam_max of the symmetrized closed-loop map, exp(-gamma_1 T), their ratio).

    The closed-loop update is C G^-1, with G the Gram sum and C the same
    Gram terms weighted by exp(-gamma_k T).  With the Cholesky factor
    G = L L^T, the symmetric L^-1 C L^-T = L^-1 (C G^-1) L is similar to the
    update, and so to G^{-1/2} C G^{-1/2}; one eigenvalue solve without
    eigenvectors gives its largest eigenvalue.  It is
    W diag(exp(-gamma_k T)) W^T with W orthogonal, so the first value never
    exceeds the second.  A Gram sum that is not positive definite raises
    ExactAlgebraError.  The ratio is taken at working precision, so it stays
    meaningful where both values underflow float64.

    This checks the exact algebra only, and holds for every system that
    builds: it does not see the float64 gain row or the stepped plant, so
    it cannot tell whether the simulated loop contracts.
    """
    if exact.period is None:
        raise ValueError("contraction_bound needs a sampled gain system")
    with mp.workdps(exact.dps):
        sym = mp.matrix(_symmetrized_update(exact))
        lam_max = max(mp.mpf(e) for e in mp.eigsy(sym, eigvals_only=True))
        bound = exact.placed[0]
        return float(lam_max), float(bound), float(lam_max / bound)

