"""Boundary lifting: the interior profile carrying a unit Dirichlet datum.

For each placement rate the sampled construction needs the solution of a
shifted elliptic problem whose operator is the discretized linearization
plus a rank-N correction acting on the unstable modes (the shift
1/weight - lambda_i per mode).  The lift psi_k solves it with the unit
boundary value psi_k(L) = 1, psi_k(0) = 0; the problem is linear in its
datum, so the lift a hold needs is psi_k scaled by the k-th feedback
component at the sample.  The modal coordinates of psi_k satisfy
<psi_k, phi_i>_h = -weight_{ik} * flux_i up to O(h^2), which is what ties
the held boundary data to the modal recursion.

The corrected operator is diagonal in the eigenbasis the Spectrum already
stores: its eigenvalue is 1/weight_{ik} on unstable mode i and lambda_i on
every stable one.  A lift is therefore solved by the two products
Spectrum.nodal and Spectrum.modal and one division, plus one
residual-refinement step.  No M x M operator is ever formed, and on a
constant potential, whose modes are sines, each product is one DST-I and
no M x M mode matrix is read either.
"""

from __future__ import annotations

import numpy as np

from .model import ParastabError
from .spectral import Spectrum
from .synthesis import GainSet


class SingularLiftSystem(ParastabError):
    """The eigenbasis lift solve produced non-finite values."""


def _shift_coefficients(gains: GainSet) -> np.ndarray:
    """Per-mode corrections 1/weight_{ik} - lambda_i; column k - 1 serves
    placement index k."""
    return 1.0 / gains.lambda_diags - gains.lambdas[:, None]


def dirichlet_lift(spectrum: Spectrum, gains: GainSet, k: int) -> np.ndarray:
    """Interior values of the k-th lift, boundary value 1 at x = L.

    The boundary condition is imposed by elimination: the column that
    multiplies the boundary node moves to the right-hand side, r = e_M / h^2.
    With the h-orthonormal modes Phi the corrected operator is
    C = Phi diag(mu) h Phi^T, where mu is lambda with entries i <= N
    replaced by 1/weight_{ik}, so psi = Phi (h Phi^T r / mu).  One
    refinement step follows: the residual r - C psi is formed matrix-free
    (the tridiagonal product plus the rank-N term
    Phi_N (shift_k h Phi_N^T psi)) and its eigenbasis solve is added to psi.
    The tridiagonal product, whose off-diagonal is the one value e, is
    formed as (diag + 2e) psi + e times the second difference of psi, so
    neighbouring values are subtracted before anything is scaled by 1/h^2:
    the raw entries, 2/h^2 - c and -1/h^2, would round the residual at the
    1/h^2 scale, and the lift would be 1e-14 to 9e-13 relative from an
    extended-precision solve of the same system at M = 200 and M = 1000.
    Formed this way it is within about 1e-15, where a dense LU solve is
    5e-14 to 2e-12 away.

    Every mu_i is positive, so no division can fail and C is symmetric
    positive definite: rho > 0 is validated, each stable lambda_i is at
    least rho, and each weight_{ik} is a positive hold integral over the
    positive difference exp(-lambda_i T) - exp(-gamma_k T) (gamma_k > rho >
    lambda_i).  A non-finite result raises SingularLiftSystem.
    """
    if not 1 <= k <= gains.n:
        raise ValueError(f"k must be in 1..{gains.n}, got {k}")
    n, h, op = gains.n, spectrum.h, spectrum.operator
    unstable = spectrum.columns(n)
    mu = spectrum.lambdas.copy()
    mu[:n] = 1.0 / gains.lambda_diags[:, k - 1]
    shift_h = _shift_coefficients(gains)[:, k - 1] * h

    # h Phi^T e_M / h^2 is the last row of Phi over h
    psi = spectrum.nodal(spectrum.last_row / (h * mu))
    e = op.offdiag[0]
    residual = -(op.diag + 2.0 * e) * psi - e * np.diff(psi, n=2, prepend=0.0, append=0.0)
    residual -= unstable @ (shift_h * (unstable.T @ psi))
    residual[-1] += 1.0 / h**2
    psi += spectrum.nodal(spectrum.modal(residual) / mu)
    if not np.all(np.isfinite(psi)):
        raise SingularLiftSystem("lift solve produced non-finite values")
    return psi
