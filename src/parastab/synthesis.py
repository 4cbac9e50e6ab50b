"""Sampled-data boundary gain construction.

For each unstable mode i and placement rate gamma_k the scheme forms the
weight

    (integral of exp(-lambda_i s) over one hold) / (e^{-lambda_i T} - e^{-gamma_k T}),

collects them into diagonal matrices, combines them with the Gram matrix of
the modal boundary fluxes, and inverts the weighted Gram sum to obtain a
single row vector g: the held control is u_i = <g, modal coordinates of the
state at the sample instant>.  The closed-loop modal update then has
eigenvalues exactly e^{-gamma_k T}, i.e. the construction is a sampled pole
placement at the chosen rates.

All N x N algebra is delegated to the adaptive-precision backend in
``_exact`` and rounded to float64 here; see that module for why double
precision is not enough.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _exact
from .model import GammaOrderingViolation, ParastabError, gamma_ordering_error
from .spectral import Spectrum, project

CONDITION_WARN_THRESHOLD = 1e12
DENOMINATOR_FLOOR = 1e-300
SERIES_SWITCH = 1e-4


class DegenerateDenominator(ParastabError):
    """e^{-lambda T} - e^{-gamma T} underflowed to (near) zero."""


class SingularBSum(ParastabError):
    """The weighted Gram sum could not be inverted at working precision."""


class DimensionMismatch(ParastabError):
    """Gains and spectrum disagree on the unstable subspace."""


def exp_integral_ratio(x: float) -> float:
    """(1 - e^{-x}) / x, extended by the value 1 at x = 0.

    Switches to the Taylor series for |x| < 1e-4 to dodge the cancellation
    in the direct formula.
    """
    if abs(x) < SERIES_SWITCH:
        return 1.0 - x / 2.0 + x * x / 6.0 - x**3 / 24.0
    return -math.expm1(-x) / x


def hold_integral(lam: float, period: float) -> float:
    """int_0^T e^{-lam s} ds evaluated stably as T * ratio(lam * T)."""
    return period * exp_integral_ratio(lam * period)


def lambda_entry(lambda_i: float, gamma_k: float, period: float) -> float:
    """Single diagonal weight of the sampled construction.

    Requires lambda_i < gamma_k and period > 0, which makes both the
    numerator and the denominator strictly positive.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if lambda_i >= gamma_k:
        raise ValueError(f"need lambda < gamma, got {lambda_i} >= {gamma_k}")
    den = -math.exp(-lambda_i * period) * math.expm1(-(gamma_k - lambda_i) * period)
    if den < DENOMINATOR_FLOOR:
        raise DegenerateDenominator(
            f"denominator {den:.3e} at lambda={lambda_i}, gamma={gamma_k}, T={period}"
        )
    return hold_integral(lambda_i, period) / den


@dataclass(frozen=True)
class GainSet:
    """Everything the sampled feedback needs, rounded to float64.

    lambda_diags[i, k] is the (i, i) entry of the k-th diagonal weight
    matrix; gram_terms[k] the k-th weighted Gram matrix (derived on access,
    as is gram_boundary); gram_inverse their inverted sum.  gain_row
    realizes the full feedback, gain_rows_k[:, k] its k-th component (the
    boundary datum fed to the k-th lift), and closed_loop_matrix maps the
    unstable coordinates from one sample to the next.  condition_number
    reports the conditioning of the inverted sum; float64 consumers of
    gram_inverse should distrust it beyond ~1e12 even though the stored
    entries are correctly rounded.  exact is the adaptive-precision system
    all of them were rounded from.
    """

    sampling_period: float
    gammas: tuple[float, ...]
    lambdas: np.ndarray
    flux: np.ndarray
    lambda_diags: np.ndarray
    gram_inverse: np.ndarray
    gain_row: np.ndarray
    gain_rows_k: np.ndarray
    closed_loop_matrix: np.ndarray
    condition_number: float
    exact: _exact.ExactGains = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.gain_row.shape[0]

    @property
    def gram_boundary(self) -> np.ndarray:
        return np.outer(self.flux, self.flux)

    @property
    def gram_terms(self) -> np.ndarray:
        v = (self.lambda_diags * self.flux[:, None]).T  # row k: lambda_diags[:, k] * flux
        return v[:, :, None] * v[:, None, :]


def default_gammas(rho: float, n: int) -> tuple[float, ...]:
    """Unit-spaced placement rates rho + 1, ..., rho + n."""
    return tuple(rho + k for k in range(1, n + 1))


def _unstable_data(spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    n = spectrum.unstable_count
    if n < 1:
        raise ParastabError("no unstable modes: nothing to synthesize")
    return spectrum.lambdas[:n].copy(), spectrum.boundary_flux[:n].copy()


def _check_gammas(gammas, rho: float, n: int) -> tuple[float, ...]:
    if gammas is None:
        return default_gammas(rho, n)
    g = tuple(float(x) for x in gammas)
    if len(g) != n:
        raise ParastabError(f"need {n} placement rates, got {len(g)}")
    gamma_error = gamma_ordering_error(g, rho)
    if gamma_error:
        raise GammaOrderingViolation(gamma_error)
    return g


def build_gains(
    spectrum: Spectrum,
    gammas=None,
    period: float | None = None,
) -> GainSet:
    """Synthesize the sampled feedback for the unstable modes of ``spectrum``.

    gammas defaults to rho + 1, ..., rho + N.  Raises SingularBSum only if
    the weighted Gram sum cannot be resolved even in adaptive precision;
    otherwise the condition number is reported (and warned about past 1e12).
    """
    if period is None or period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    lam, flux = _unstable_data(spectrum)
    g = _check_gammas(gammas, spectrum.rho, lam.shape[0])
    for lam_i in lam:
        for gk in g:
            lambda_entry(float(lam_i), float(gk), float(period))  # degeneracy guard
    try:
        exact = _exact.gain_system(lam, flux, g, float(period))
    except _exact.ExactAlgebraError as exc:
        raise SingularBSum(str(exc)) from exc

    gains = GainSet(
        sampling_period=float(period),
        gammas=g,
        lambdas=lam,
        flux=flux,
        lambda_diags=_exact.to_float_matrix(exact.lam_table),
        gram_inverse=_exact.to_float_matrix(exact.gram_inverse),
        gain_row=_exact.to_float_vector(exact.gain_row),
        gain_rows_k=_exact.to_float_matrix(exact.gain_rows_k),
        closed_loop_matrix=_exact.to_float_matrix(exact.closed_loop),
        condition_number=float(exact.condition),
        exact=exact,
    )
    if gains.condition_number > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"weighted Gram sum condition {gains.condition_number:.3e}: float64 "
            "use of gram_inverse and the per-component rows is unreliable",
            stacklevel=2,
        )
    return gains


def exact_system(gains: GainSet) -> _exact.ExactGains:
    """The adaptive-precision algebra the gains were rounded from."""
    return gains.exact


def continuous_limit(spectrum: Spectrum, gammas=None) -> np.ndarray:
    """Gain row of the zero-period limit of build_gains (continuous-time
    feedback, weights 1/(gamma_k - lambda_i)), rounded to float64."""
    lam, flux = _unstable_data(spectrum)
    g = _check_gammas(gammas, spectrum.rho, lam.shape[0])
    try:
        exact = _exact.gain_system(lam, flux, g, None)
    except _exact.ExactAlgebraError as exc:
        raise SingularBSum(str(exc)) from exc
    return _exact.to_float_vector(exact.gain_row)


def _check_consistent(gains: GainSet, spectrum: Spectrum) -> None:
    n = gains.n
    if spectrum.unstable_count != n:
        raise DimensionMismatch(
            f"gains expect {n} unstable modes, spectrum has {spectrum.unstable_count}"
        )
    if not np.allclose(gains.lambdas, spectrum.lambdas[:n], rtol=0, atol=1e-12):
        raise DimensionMismatch("gains were built from a different spectrum")


def apply_feedback(gains: GainSet, y: np.ndarray, spectrum: Spectrum) -> float:
    """Held control value for the sampled state y: <gain_row, Q_N y>."""
    _check_consistent(gains, spectrum)
    return float(np.dot(gains.gain_row, project(y, spectrum, gains.n)))


def component_feedback(gains: GainSet, y: np.ndarray, spectrum: Spectrum) -> np.ndarray:
    """Per-component boundary data (one value per placement rate); sums to apply_feedback."""
    _check_consistent(gains, spectrum)
    coords = project(y, spectrum, gains.n)
    return gains.gain_rows_k.T @ coords


def gain_matrices_to_csv(gains: GainSet) -> str:
    """Matrix dump: one labelled block per synthesized matrix."""
    lines: list[str] = []

    def block(name: str, a: np.ndarray) -> None:
        lines.append(f"# {name}")
        a = np.atleast_2d(a)
        for row in a:
            lines.append(",".join(f"{v:.17g}" for v in row))

    block("lambda_diags (rows: modes, cols: placements)", gains.lambda_diags)
    block("gram_boundary", gains.gram_boundary)
    for k in range(gains.n):
        block(f"gram_term_{k + 1}", gains.gram_terms[k])
    block("gram_inverse", gains.gram_inverse)
    block("gain_row", gains.gain_row)
    block("closed_loop_matrix", gains.closed_loop_matrix)
    return "\n".join(lines) + "\n"


def gains_to_json(gains: GainSet, continuous: np.ndarray | None = None) -> str:
    """Gain export with the documented schema; floats round-trip exactly."""
    payload = {
        "T": gains.sampling_period,
        "gammas": list(gains.gammas),
        "lambdas": gains.lambdas.tolist(),
        "boundary_flux": gains.flux.tolist(),
        "gain_row": gains.gain_row.tolist(),
        "condition_number": gains.condition_number,
        "continuous_gain_row": (
            None if continuous is None else continuous.tolist()
        ),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
