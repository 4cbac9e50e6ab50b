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

All N x N algebra, the weights included, is computed once by the
arbitrary-precision backend in ``_exact``; see that module for why double
precision is not enough.  GainSet stores that system alone and rounds each
float64 value it serves (the period, rates, eigenvalues, fluxes, gain row
and matrices) from it on first access.  feedback_row (and with it
continuous_limit) reads the gain row alone, without the rest of the
system.  A period that is not finite and positive is a ValueError; a
weight outside the float64 range, or a precision sized past
``_exact.MAX_DPS`` digits from the condition bound and the cancellation
over one hold (checked before anything is built), is reported as
SingularBSum.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _exact
from .model import GammaOrderingViolation, ParastabError, gamma_ordering_error
from .spectral import Spectrum, project

CONDITION_WARN_THRESHOLD = 1e12


class SingularBSum(ParastabError):
    """The gain algebra has no usable float64 answer: the weighted Gram sum
    could not be resolved within the working-precision limit, or a sampled
    weight lies outside the float64 range."""


class DimensionMismatch(ParastabError):
    """Gains and spectrum disagree on the unstable subspace."""


def _view(name: str) -> cached_property:
    """The float64 array of exact.<name>, rounded by float(mpf) per entry on
    first access and then cached on the GainSet."""
    return cached_property(lambda self: np.array(getattr(self.exact, name), dtype=float))


@dataclass(frozen=True)
class GainSet:
    """The sampled feedback: one stored field, the exact algebra.

    exact is the adaptive-precision system; every value below is a float64
    rounding of it, float(mpf) entry by entry, computed on first access.
    lambda_diags[i, k] is the (i, i) entry of the k-th diagonal weight
    matrix; gram_terms[k] the k-th weighted Gram matrix; gram_inverse
    their inverted sum.  gain_row realizes the full feedback,
    gain_rows_k[:, k] its k-th component (the boundary datum fed to the
    k-th lift), and closed_loop_matrix maps the unstable coordinates from
    one sample to the next.  condition_number reports the conditioning of
    the inverted sum; float64 consumers of gram_inverse should distrust it
    beyond ~1e12 even though the entries are correctly rounded.
    """

    exact: _exact.ExactGains = field(repr=False)

    @property
    def n(self) -> int:
        return self.exact.n

    @cached_property
    def sampling_period(self) -> float:
        return float(self.exact.period)

    @cached_property
    def gammas(self) -> tuple[float, ...]:
        return tuple(float(g) for g in self.exact.gammas)

    lambdas = _view("lambdas")
    flux = _view("flux")
    gain_row = _view("gain_row")
    lambda_diags = _view("lam_table")
    gram_inverse = _view("gram_inverse")
    gain_rows_k = _view("gain_rows_k")
    closed_loop_matrix = _view("closed_loop")

    @cached_property
    def condition_number(self) -> float:
        return float(self.exact.condition)

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


def _unstable_algebra(build, spectrum: Spectrum, gammas, period: float | None):
    """build(lambdas, fluxes, gammas, period) of the unstable modes, with
    period None for the continuous-time limit; build is
    _exact.gain_system or _exact.gain_row."""
    if period is not None and not 0 < period < math.inf:
        raise ValueError(f"period must be finite and positive, got {period}")
    n = spectrum.unstable_count
    if n < 1:
        raise ParastabError("no unstable modes: nothing to synthesize")
    lam, flux = spectrum.lambdas[:n], spectrum.boundary_flux[:n]
    g = _check_gammas(gammas, spectrum.rho, n)
    try:
        return build(lam, flux, g, period)
    except _exact.ExactAlgebraError as exc:
        raise SingularBSum(str(exc)) from exc


def build_gains(spectrum: Spectrum, gammas, period: float) -> GainSet:
    """Synthesize the sampled feedback for the unstable modes of ``spectrum``.

    gammas None means rho + 1, ..., rho + N.  Raises ValueError unless the
    period is finite and positive, and SingularBSum if the weighted Gram
    sum cannot be resolved even in adaptive precision, or a weight does not
    fit in float64; otherwise the condition number is reported (and warned
    about past 1e12).
    """
    gains = GainSet(_unstable_algebra(_exact.gain_system, spectrum, gammas, float(period)))
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


def feedback_row(spectrum: Spectrum, gammas=None, period: float | None = None) -> np.ndarray:
    """The gain row of build_gains at ``period`` (None: the continuous-time
    limit), read from the closed form without building the rest of the
    system.  Same SingularBSum cases as build_gains, except the two Gram
    eigenvalue checks that do not bear on the row (see _exact.gain_row);
    no condition warning, since that concerns the Gram inverse and the
    component rows."""
    return _unstable_algebra(_exact.gain_row, spectrum, gammas, period)


def continuous_limit(spectrum: Spectrum, gammas=None) -> np.ndarray:
    """Gain row of the zero-period limit of build_gains (continuous-time
    feedback, weights 1/(gamma_k - lambda_i)), rounded to float64."""
    return feedback_row(spectrum, gammas, None)


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
