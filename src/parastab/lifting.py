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
"""

from __future__ import annotations

import numpy as np

from .model import ParastabError
from .spectral import Spectrum
from .synthesis import GainSet


class SingularLiftSystem(ParastabError):
    """The corrected elliptic system lost coercivity numerically."""


def _shift_coefficients(gains: GainSet) -> np.ndarray:
    """Per-mode corrections 1/weight_{ik} - lambda_i; column k - 1 serves
    placement index k."""
    return 1.0 / gains.lambda_diags - gains.lambdas[:, None]


def lift_matrix(spectrum: Spectrum, gains: GainSet, k: int) -> np.ndarray:
    """Dense M x M matrix of the corrected elliptic operator.

    Dense is deliberate: the correction is rank N on top of a tridiagonal
    matrix, and decompose_z makes one dense solve per placement per
    decomposition (the unit datum), then scales that profile by every
    sample's datum.
    """
    if not 1 <= k <= gains.n:
        raise ValueError(f"k must be in 1..{gains.n}, got {k}")
    a = spectrum.operator.to_dense()
    shifts = _shift_coefficients(gains)[:, k - 1]
    modes = spectrum.modes[:, : gains.n]
    # <phi_i, .>_h carries a factor h, hence h * phi phi^T per mode
    a += (modes * (shifts * spectrum.h)) @ modes.T
    return a


def dirichlet_lift(spectrum: Spectrum, gains: GainSet, k: int) -> np.ndarray:
    """Interior values of the k-th lift, boundary value 1 at x = L.

    The boundary condition is imposed by elimination: the column that
    multiplies the boundary node moves to the right-hand side.
    """
    a = lift_matrix(spectrum, gains, k)
    rhs = np.zeros(spectrum.m)
    rhs[-1] = 1.0 / spectrum.h**2
    try:
        psi = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularLiftSystem(str(exc)) from exc
    if not np.all(np.isfinite(psi)):
        raise SingularLiftSystem("lift solve produced non-finite values")
    return psi
