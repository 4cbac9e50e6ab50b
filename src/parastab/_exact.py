"""Arbitrary-precision core of the gain algebra.

The Gram sum inverted during synthesis has condition number growing like
exp(2*|lambda_1|*T): harmless in exact arithmetic (the closed-loop identities
are algebraic), catastrophic in double precision already at moderate
sampling periods.  Everything N x N therefore runs through mpmath at a
working precision chosen adaptively from the measured conditioning, and the
results are rounded to float64 once at the end.  N is small (the number of
unstable modes), so the cost is negligible.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
import numpy as np

BASE_DPS = 50
GUARD_DIGITS = 35
MAX_DPS = 400


class ExactAlgebraError(ArithmeticError):
    """Gram sum singular (or beyond MAX_DPS) at working precision."""


class _PrecisionExhausted(Exception):
    """Internal: the Gram sum looked indefinite at the current precision."""

    def __init__(self, dps: int) -> None:
        super().__init__(f"indefinite at {dps} digits")
        self.dps = dps


def _hold_integral(lam: mp.mpf, T: mp.mpf) -> mp.mpf:
    """int_0^T exp(-lam*s) ds, exact for lam = 0."""
    if lam == 0:
        return T
    return -mp.expm1(-lam * T) / lam


def _denominator(lam: mp.mpf, gamma: mp.mpf, T: mp.mpf) -> mp.mpf:
    """exp(-lam*T) - exp(-gamma*T), written to avoid cancellation."""
    return -mp.exp(-lam * T) * mp.expm1(-(gamma - lam) * T)


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

    def weighted_vector(self, k: int) -> mp.matrix:
        return mp.matrix([self.lam_table[i, k] * self.flux[i] for i in range(self.n)])


def _assemble(lambdas, flux, gammas, T, dps: int) -> ExactGains:
    n = len(lambdas)
    with mp.workdps(dps):
        lam = [mp.mpf(float(v)) for v in lambdas]
        b = [mp.mpf(float(v)) for v in flux]
        gam = [mp.mpf(float(v)) for v in gammas]
        period = None if T is None else mp.mpf(float(T))

        table = mp.zeros(n, n)
        for i in range(n):
            for k in range(n):
                if period is None:
                    table[i, k] = 1 / (gam[k] - lam[i])
                else:
                    den = _denominator(lam[i], gam[k], period)
                    if den == 0:
                        raise ExactAlgebraError(
                            f"degenerate weight denominator at i={i}, k={k}"
                        )
                    table[i, k] = _hold_integral(lam[i], period) / den

        if period is None:
            integral = mp.matrix([mp.mpf(1)] * n)
        else:
            integral = mp.matrix([_hold_integral(lam[i], period) for i in range(n)])

        gram_sum = mp.zeros(n, n)
        vs = []
        for k in range(n):
            v = mp.matrix([table[i, k] * b[i] for i in range(n)])
            vs.append(v)
            gram_sum += v * v.T

        eigvals = mp.eigsy(gram_sum, eigvals_only=True)
        eigvals = sorted(mp.mpf(e) for e in eigvals)
        if eigvals[0] <= 0:
            raise _PrecisionExhausted(dps)
        condition = eigvals[-1] / eigvals[0]

        gram_inv = gram_sum**-1
        lam_total = mp.matrix(
            [sum(table[i, k] for k in range(n)) * b[i] for i in range(n)]
        )
        gain = gram_inv * lam_total
        rows_k = mp.zeros(n, n)
        closed = mp.zeros(n, n)
        for k in range(n):
            gk = gram_inv * vs[k]
            for i in range(n):
                rows_k[i, k] = gk[i]
            weight = mp.mpf(1) if period is None else mp.exp(-gam[k] * period)
            closed += weight * (vs[k] * (vs[k].T * gram_inv))

        return ExactGains(
            lambdas=lam,
            flux=b,
            gammas=gam,
            period=period,
            dps=dps,
            lam_table=table,
            integral_diag=integral,
            gram_sum=gram_sum,
            gram_inverse=gram_inv,
            gain_row=gain,
            gain_rows_k=rows_k,
            closed_loop=closed,
            condition=condition,
        )


def gain_system(lambdas, flux, gammas, T) -> ExactGains:
    """Build the gain algebra at a precision adapted to its conditioning.

    Pass T = None for the continuous-time (zero sampling period) limit.
    """
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
        needed = max(BASE_DPS, int(mp.log10(exact.condition)) + GUARD_DIGITS)
        if needed <= dps:
            return exact
        if needed > MAX_DPS:
            raise ExactAlgebraError(
                f"Gram sum condition {mp.nstr(exact.condition, 5)} exceeds "
                f"the {MAX_DPS}-digit working limit"
            )
        dps = needed


def _frobenius(a: mp.matrix) -> mp.mpf:
    return mp.sqrt(sum(a[i, j] ** 2 for i in range(a.rows) for j in range(a.cols)))


def resolution_residual(exact: ExactGains) -> float:
    """Frobenius distance of (Gram sum) * (its inverse) from the identity."""
    with mp.workdps(exact.dps):
        n = exact.n
        return float(_frobenius(exact.gram_sum * exact.gram_inverse - mp.eye(n)))


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
        lhs = mp.zeros(n, n)
        for i in range(n):
            lhs[i, i] = mp.exp(-exact.lambdas[i] * exact.period)
        for i in range(n):
            for j in range(n):
                lhs[i, j] -= exact.integral_diag[i] * exact.flux[i] * exact.gain_row[j]
        return float(_frobenius(lhs - exact.closed_loop) / _frobenius(exact.closed_loop))


def contraction_bound(exact: ExactGains) -> tuple[float, float]:
    """(lam_max of the symmetrized closed-loop map, exp(-gamma_1 T)).

    The first value never exceeds the second: the weighted Gram terms are
    positive semidefinite and resolve the identity, so the symmetrized
    update is exp(-gamma_1 T) * I minus a positive semidefinite remainder.
    """
    if exact.period is None:
        raise ValueError("contraction_bound needs a sampled gain system")
    with mp.workdps(exact.dps):
        n = exact.n
        # inverse square root from the Gram *sum*: its eigendecomposition is
        # well behaved at any conditioning, unlike that of the huge-normed
        # inverse, and the transformed update has entries of order one
        evals, q = mp.eigsy(exact.gram_sum)
        inv_root = mp.zeros(n, n)
        for i in range(n):
            if evals[i] <= 0:
                raise ExactAlgebraError("Gram sum not positive definite")
            inv_root[i, i] = 1 / mp.sqrt(evals[i])
        half = q * inv_root * q.T
        sym = mp.zeros(n, n)
        for k in range(n):
            w = half * exact.weighted_vector(k)
            sym += mp.exp(-exact.gammas[k] * exact.period) * (w * w.T)
        lam_max = max(mp.mpf(e) for e in mp.eigsy(sym, eigvals_only=True))
        return float(lam_max), float(mp.exp(-exact.gammas[0] * exact.period))


def to_float_matrix(a: mp.matrix) -> np.ndarray:
    out = np.empty((a.rows, a.cols))
    for i in range(a.rows):
        for j in range(a.cols):
            out[i, j] = float(a[i, j])
    return out


def to_float_vector(a: mp.matrix) -> np.ndarray:
    return np.array([float(a[i]) for i in range(a.rows)])
