"""Boundary lifting: interior profiles carrying a Dirichlet boundary value.

For each placement rate the sampled construction needs the solution of a
shifted elliptic problem whose operator is the discretized linearization
plus a rank-N correction acting on the unstable modes (the shift
1/weight - lambda_i per mode).  The solution operator maps a boundary
value v at x = L to an interior profile; it is linear in v and its modal
coordinates satisfy <psi_k, phi_i>_h = -weight_{ik} * v * flux_i up to
O(h^2), which is what ties the held boundary data to the modal recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ParastabError
from .spectral import Spectrum
from .synthesis import GainSet, component_feedback


class SingularLiftSystem(ParastabError):
    """The corrected elliptic system lost coercivity numerically."""


@dataclass(frozen=True)
class LiftProfile:
    """Interior profile psi with psi(L) = boundary_value, psi(0) = 0."""

    k: int  # 1-based placement index
    gamma: float
    boundary_value: float
    profile: np.ndarray  # values on the interior nodes


def _shift_coefficients(gains: GainSet) -> np.ndarray:
    """Per-mode corrections 1/weight_{ik} - lambda_i; column k - 1 serves
    placement index k."""
    return 1.0 / gains.lambda_diags - gains.lambdas[:, None]


def lift_matrix(spectrum: Spectrum, gains: GainSet, k: int) -> np.ndarray:
    """Dense M x M matrix of the corrected elliptic operator.

    Dense is deliberate: the correction is rank N on top of a tridiagonal
    matrix, and the lift is linear in its boundary datum, so decompose_z
    makes one dense solve per placement per decomposition (unit datum) and
    scales it by every sample's datum.
    """
    if not 1 <= k <= gains.n:
        raise ValueError(f"k must be in 1..{gains.n}, got {k}")
    a = spectrum.operator.to_dense()
    shifts = _shift_coefficients(gains)[:, k - 1]
    modes = spectrum.modes[:, : gains.n]
    # <phi_i, .>_h carries a factor h, hence h * phi phi^T per mode
    a += (modes * (shifts * spectrum.h)) @ modes.T
    return a


def dirichlet_lift(spectrum: Spectrum, gains: GainSet, k: int, v: float) -> LiftProfile:
    """Solve the corrected elliptic problem with boundary value v at x = L.

    The boundary condition is imposed by elimination: the column that
    multiplies the boundary node moves to the right-hand side.
    """
    a = lift_matrix(spectrum, gains, k)
    rhs = np.zeros(spectrum.m)
    rhs[-1] = v / spectrum.h**2
    try:
        psi = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularLiftSystem(str(exc)) from exc
    if not np.all(np.isfinite(psi)):
        raise SingularLiftSystem("lift solve produced non-finite values")
    return LiftProfile(
        k=k,
        gamma=gains.gammas[k - 1],
        boundary_value=float(v),
        profile=psi,
    )


def coercivity_check(
    spectrum: Spectrum, gains: GainSet | None = None, k: int = 1
) -> float:
    """Smallest eigenvalue of the (symmetric) corrected operator matrix.

    Positive means the lift problem is well posed.  Without gains (no
    unstable modes) the matrix is the plain discretized operator, so this
    returns its smallest eigenvalue.
    """
    if gains is None or gains.n == 0:
        a = spectrum.operator.to_dense()
    else:
        a = lift_matrix(spectrum, gains, k)
    return float(np.linalg.eigvalsh(a)[0])


def profile_to_csv(lift: LiftProfile, nodes: np.ndarray) -> str:
    """Two columns x, psi(x) over all nodes, boundary values included."""
    values = np.concatenate(([0.0], lift.profile, [lift.boundary_value]))
    lines = ["x,psi"]
    for x, v in zip(nodes, values):
        lines.append(f"{x:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"


def hold_profiles(
    gains: GainSet, spectrum: Spectrum, y_sample: np.ndarray
) -> list[LiftProfile]:
    """One lift per placement rate, driven by the sampled state.

    The k-th boundary datum is the k-th component of the feedback at the
    sample; the profiles stay frozen over the subsequent hold interval.
    """
    data = component_feedback(gains, y_sample, spectrum)
    return [
        dirichlet_lift(spectrum, gains, k, float(data[k - 1]))
        for k in range(1, gains.n + 1)
    ]
