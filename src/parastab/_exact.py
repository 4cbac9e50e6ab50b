"""Arbitrary-precision core of the gain algebra.

The Gram sum inverted during synthesis has condition number growing like
exp(2*|lambda_1|*T): harmless in exact arithmetic (the closed-loop identities
are algebraic), catastrophic in double precision already at moderate
sampling periods.  The one-hold update also cancels: e^{-lambda_1 T} has to
cancel down to e^{-gamma_N T}, which costs (gamma_N - lambda_1) T / ln 10
digits.  Everything N x N, the sampled weights included, therefore runs
through mpmath at a working precision sized from both scales, and the
results are rounded to float64 once at the end.

The arithmetic runs on plain lists of mpf, in the rounding order of the
mp.matrix operators (one fdot per product entry, sums over k accumulated
from k = 0); mp.matrix wraps the results where ExactGains is built.  One
50-digit build at N = 3 takes about 2.3 ms on a 2-vCPU box, and
``contraction_bound`` about 1.5 ms.  Of a build, what remains is mostly
``mp.eigsy`` of the Gram sum (0.7-1.0 ms, for the condition number and the
precision decision) and its LU inverse (0.3-0.5 ms); the 9 + 3 expm1 and 6
exp calls take about 0.4 ms.
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


class _PrecisionExhausted(Exception):
    """Internal: the Gram sum looked indefinite or singular at the current precision."""

    def __init__(self, dps: int) -> None:
        super().__init__(f"indefinite at {dps} digits")
        self.dps = dps


def _decay_integral(lam: mp.mpf, T: mp.mpf) -> mp.mpf:
    """int_0^T exp(-lam*s) ds, exact for lam = 0."""
    if lam == 0:
        return T
    return -mp.expm1(-lam * T) / lam


@dataclass
class ExactGains:
    """mpmath matrices of the sampled gain construction (or its T -> 0 limit)."""

    lambdas: list
    flux: list
    gammas: list
    period: object  # mp.mpf or None for the continuous-time limit
    dps: int
    lam_table: mp.matrix  # (N, N): entry (i, k) of the k-th diagonal weight
    integral_diag: mp.matrix  # (N,) hold integrals (identity weights at T -> 0)
    gram_sum: mp.matrix  # (N, N) sum of weighted Gram terms
    gram_inverse: mp.matrix  # (N, N)
    gain_row: mp.matrix  # (N,)
    gain_rows_k: mp.matrix  # (N, N): column k is the k-th component row
    closed_loop: mp.matrix  # (N, N) sampled modal update matrix
    condition: mp.mpf

    @property
    def n(self) -> int:
        return len(self.lambdas)


def _assemble(lambdas, flux, gammas, T, dps: int) -> ExactGains:
    n = len(lambdas)
    with mp.workdps(dps):
        lam = [mp.mpf(float(v)) for v in lambdas]
        b = [mp.mpf(float(v)) for v in flux]
        gam = [mp.mpf(float(v)) for v in gammas]
        period = None if T is None else mp.mpf(float(T))

        # placed: the closed-loop multipliers e^{-gamma_k T}, 1 in the limit
        if period is None:
            integral = [mp.mpf(1)] * n
            placed = [mp.mpf(1)] * n
        else:
            decay = [mp.exp(-x * period) for x in lam]
            integral = [_decay_integral(x, period) for x in lam]
            placed = [mp.exp(-g * period) for g in gam]

        table = [[None] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                if period is None:
                    w = 1 / (gam[k] - lam[i])
                else:
                    # e^{-lambda T} - e^{-gamma T}, written to avoid cancellation
                    den = -decay[i] * mp.expm1(-(gam[k] - lam[i]) * period)
                    if den == 0:
                        raise ExactAlgebraError(
                            f"degenerate weight denominator at i={i}, k={k}"
                        )
                    w = integral[i] / den
                # the float64 view of the gains (lifts, matrix dumps) divides by w
                if not 0.0 < float(w) < math.inf:
                    raise ExactAlgebraError(
                        f"weight {mp.nstr(w, 5)} at i={i}, k={k} is outside "
                        "the float64 range"
                    )
                table[i][k] = w

        # the rounding order of the mp.matrix operators: every product entry
        # is one fdot, and the sums over k accumulate from k = 0
        vs = [[table[i][k] * b[i] for i in range(n)] for k in range(n)]
        gram = [[sum(v[i] * v[j] for v in vs) for j in range(n)] for i in range(n)]
        gram_sum = mp.matrix(gram)

        eigvals = sorted(mp.mpf(e) for e in mp.eigsy(gram_sum, eigvals_only=True))
        if eigvals[0] <= 0:
            raise _PrecisionExhausted(dps)
        condition = eigvals[-1] / eigvals[0]

        try:
            gram_inverse = mp.inverse(gram_sum)
        except ZeroDivisionError:
            # the smallest eigenvalue can round positive and the elimination
            # still meet a zero pivot; both mean too few digits
            raise _PrecisionExhausted(dps) from None
        inv = gram_inverse.tolist()
        inv_cols = list(zip(*inv))
        lam_total = [sum(row) * b[i] for i, row in enumerate(table)]
        gain = [mp.fdot(row, lam_total) for row in inv]
        rows_k = [[mp.fdot(row, v) for v in vs] for row in inv]
        # v_k (v_k^T Gram^-1) e^{-gamma_k T}, summed over k
        left = [[mp.fdot(v, col) for col in inv_cols] for v in vs]
        closed = [
            [sum((vs[k][i] * left[k][j]) * placed[k] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

        return ExactGains(
            lambdas=lam,
            flux=b,
            gammas=gam,
            period=period,
            dps=dps,
            lam_table=mp.matrix(table),
            integral_diag=mp.matrix(integral),
            gram_sum=gram_sum,
            gram_inverse=gram_inverse,
            gain_row=mp.matrix(gain),
            gain_rows_k=mp.matrix(rows_k),
            closed_loop=mp.matrix(closed),
            condition=condition,
        )


def gain_system(lambdas, flux, gammas, T) -> ExactGains:
    """Build the gain algebra at a precision adapted to its conditioning
    and to the cancellation over one hold.

    Pass T = None for the continuous-time (zero sampling period) limit.
    """
    cancel = 0  # digits lost as e^{-lambda_1 T} cancels down to e^{-gamma_N T}
    if T is not None:
        spread = float(max(gammas)) - float(min(lambdas))
        cancel = math.ceil(spread * float(T) / math.log(10))
    dps = BASE_DPS
    while True:
        try:
            exact = _assemble(lambdas, flux, gammas, T, dps)
        except _PrecisionExhausted:
            if 2 * dps > MAX_DPS:
                raise ExactAlgebraError(
                    f"Gram sum still indefinite at {dps} working digits"
                ) from None
            dps *= 2
            continue
        needed = max(
            BASE_DPS,
            int(mp.log10(exact.condition)) + GUARD_DIGITS,
            cancel + GUARD_DIGITS,
        )
        if needed <= dps:
            return exact
        if needed > MAX_DPS:
            raise ExactAlgebraError(
                f"Gram sum condition {mp.nstr(exact.condition, 5)} and {cancel} "
                f"digits of cancellation over one hold exceed the {MAX_DPS}-digit "
                "working limit"
            )
        dps = needed


def _frobenius(rows: list) -> mp.mpf:
    return mp.sqrt(sum(x**2 for row in rows for x in row))


def resolution_residual(exact: ExactGains) -> float:
    """Frobenius distance of (Gram sum) * (its inverse) from the identity."""
    with mp.workdps(exact.dps):
        inv_cols = list(zip(*exact.gram_inverse.tolist()))
        return float(_frobenius(
            [[mp.fdot(row, col) - (1 if i == j else 0) for j, col in enumerate(inv_cols)]
             for i, row in enumerate(exact.gram_sum.tolist())]
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
        n = exact.n
        gain = [exact.gain_row[j] for j in range(n)]
        closed = exact.closed_loop.tolist()
        diff = []
        for i in range(n):
            scale = exact.integral_diag[i] * exact.flux[i]
            decay = mp.exp(-exact.lambdas[i] * exact.period)
            diff.append([
                ((decay if i == j else 0) - scale * gain[j]) - closed[i][j]
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
    n = exact.n
    gram = exact.gram_sum.tolist()
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
            v = exact.lam_table[i, k] * exact.flux[i]
            w.append((v - mp.fdot(low[i][:i], w)) / low[i][i])
        ws.append(w)
    placed = [mp.exp(-g * exact.period) for g in exact.gammas]
    return [
        [mp.fdot((placed[k] * ws[k][i], ws[k][j]) for k in range(n)) for j in range(n)]
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
    """
    if exact.period is None:
        raise ValueError("contraction_bound needs a sampled gain system")
    with mp.workdps(exact.dps):
        sym = mp.matrix(_symmetrized_update(exact))
        lam_max = max(mp.mpf(e) for e in mp.eigsy(sym, eigvals_only=True))
        bound = mp.exp(-exact.gammas[0] * exact.period)
        return float(lam_max), float(bound), float(lam_max / bound)


def to_float_matrix(a: mp.matrix) -> np.ndarray:
    out = np.empty((a.rows, a.cols))
    for i in range(a.rows):
        for j in range(a.cols):
            out[i, j] = float(a[i, j])
    return out


def to_float_vector(a: mp.matrix) -> np.ndarray:
    return np.array([float(a[i]) for i in range(a.rows)])
