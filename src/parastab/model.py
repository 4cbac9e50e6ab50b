"""Problem definition: PDE coefficients, equilibrium, sampling parameters.

A stabilization problem lives on the interval (0, L) with the controlled
boundary at x = L and a homogeneous Dirichlet condition at x = 0.  The
reaction term f(x, y) and its derivative f_y(x, y) are supplied in closed
form; the equilibrium profile about which the dynamics are linearized is
given by the user (this package never solves for equilibria).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence, Union

import numpy as np


class ParastabError(Exception):
    """Base class for all errors raised by this package."""


class NonPositivePeriod(ParastabError):
    """Sampling period must be strictly positive."""


class GammaOrderingViolation(ParastabError):
    """Placement rates must satisfy rho < gamma_1 < gamma_2 < ..."""


class GridTooCoarse(ParastabError):
    """Fewer interior nodes than the supported minimum (16)."""


class NonFiniteCoefficient(ParastabError):
    """f_y evaluated to a non-finite value on the grid."""


ReactionFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

MIN_GRID_POINTS = 16


@dataclass(frozen=True)
class NonlinearitySpec:
    """Reaction term f(x, y) with its closed-form derivative f_y(x, y).

    kind is one of "linear-only", "fisher", "cubic", "custom-polynomial".
    Use the factory helpers below rather than constructing directly.
    """

    kind: str
    parameters: tuple[float, ...]
    f: ReactionFn
    f_y: ReactionFn

    _KINDS = ("linear-only", "fisher", "cubic", "custom-polynomial")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")


def linear_reaction(a: float) -> NonlinearitySpec:
    """f(x, y) = a*y: no nonlinear remainder, constant coefficient a."""
    return NonlinearitySpec(
        kind="linear-only",
        parameters=(float(a),),
        f=lambda x, y: a * y,
        f_y=lambda x, y: a * np.ones_like(np.asarray(y, dtype=float)),
    )


def fisher_reaction(a: float) -> NonlinearitySpec:
    """Fisher-KPP term f(x, y) = a*y*(1 - y)."""
    return NonlinearitySpec(
        kind="fisher",
        parameters=(float(a),),
        f=lambda x, y: a * y * (1.0 - y),
        f_y=lambda x, y: a * (1.0 - 2.0 * y),
    )


def cubic_reaction() -> NonlinearitySpec:
    """Bistable term f(x, y) = y - y**3."""
    return NonlinearitySpec(
        kind="cubic",
        parameters=(),
        f=lambda x, y: y - y**3,
        f_y=lambda x, y: 1.0 - 3.0 * y**2,
    )


def polynomial_reaction(coefficients: Sequence[float]) -> NonlinearitySpec:
    """f(x, y) = sum_j coefficients[j] * y**j (independent of x)."""
    coeffs = tuple(float(c) for c in coefficients)
    if not coeffs:
        raise ValueError("polynomial reaction needs at least one coefficient")

    def f(x, y):
        acc = np.zeros_like(np.asarray(y, dtype=float))
        for j, c in enumerate(coeffs):
            acc = acc + c * np.asarray(y, dtype=float) ** j
        return acc

    def f_y(x, y):
        acc = np.zeros_like(np.asarray(y, dtype=float))
        for j, c in enumerate(coeffs):
            if j >= 1:
                acc = acc + j * c * np.asarray(y, dtype=float) ** (j - 1)
        return acc

    return NonlinearitySpec(kind="custom-polynomial", parameters=coeffs, f=f, f_y=f_y)


Equilibrium = Union[float, np.ndarray, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class ProblemSpec:
    """User-facing description of a boundary stabilization problem.

    interval_length   L > 0; domain is (0, L), control acts at x = L.
    grid_points       number M of interior nodes (M >= 16).
    nonlinearity      reaction term with closed-form derivative.
    equilibrium       profile y_e: scalar, array on all M+2 nodes, or callable.
    sampling_period   hold length T > 0 (seconds).
    target_rate       requested decay rate rho > 0 (1/time).
    gammas            optional ascending placement rates, rho < gamma_1 < ...;
                      defaulted to rho + k once the unstable count is known.
    substeps_per_hold time steps per hold interval (>= 1).
    """

    nonlinearity: NonlinearitySpec
    grid_points: int = 200
    interval_length: float = 1.0
    equilibrium: Equilibrium = 0.0
    sampling_period: float = 0.2
    target_rate: float = 1.0
    gammas: tuple[float, ...] | None = None
    substeps_per_hold: int = 64


@dataclass(frozen=True)
class ValidatedProblem:
    """A ProblemSpec with derived grid quantities attached.

    nodes holds all M+2 coordinates x_0 = 0 .. x_{M+1} = L; the equilibrium
    is sampled on the same nodes.  Validation is idempotent.
    """

    spec: ProblemSpec
    h: float
    nodes: np.ndarray
    equilibrium_values: np.ndarray

    @property
    def interior_nodes(self) -> np.ndarray:
        return self.nodes[1:-1]

    @property
    def m(self) -> int:
        return self.spec.grid_points

    @property
    def length(self) -> float:
        return self.spec.interval_length

    @property
    def period(self) -> float:
        return self.spec.sampling_period


def gamma_ordering_error(gammas: Sequence[float], rho: float) -> str | None:
    """Why ``gammas`` break rho < gamma_1 < gamma_2 < ... strictly, or None."""
    g = tuple(gammas)
    if any(b <= a for a, b in zip(g, g[1:])) or (g and g[0] <= rho):
        return f"need target_rate < gamma_1 < gamma_2 < ...; got rho = {rho}, gammas = {g}"
    return None


def spec_violations(spec: ProblemSpec) -> list[str]:
    """Collect every constraint violation in ``spec`` as human-readable text."""
    errors: list[str] = []
    if spec.interval_length <= 0:
        errors.append(f"interval_length must be positive, got {spec.interval_length}")
    if spec.grid_points < MIN_GRID_POINTS:
        errors.append(
            f"grid_points must be >= {MIN_GRID_POINTS}, got {spec.grid_points}"
        )
    if spec.sampling_period <= 0:
        errors.append(f"sampling_period must be positive, got {spec.sampling_period}")
    if spec.target_rate <= 0:
        errors.append(f"target_rate must be positive, got {spec.target_rate}")
    if spec.substeps_per_hold < 1:
        errors.append(f"substeps_per_hold must be >= 1, got {spec.substeps_per_hold}")
    if spec.gammas is not None:
        gamma_error = gamma_ordering_error(spec.gammas, spec.target_rate)
        if gamma_error:
            errors.append(gamma_error)
    return errors


def _sample_equilibrium(spec: ProblemSpec, nodes: np.ndarray) -> np.ndarray:
    ye = spec.equilibrium
    if callable(ye):
        values = np.asarray(ye(nodes), dtype=float)
    elif np.isscalar(ye):
        values = np.full(nodes.shape, float(ye))
    else:
        values = np.asarray(ye, dtype=float)
    if values.shape != nodes.shape:
        raise ValueError(
            f"equilibrium samples have shape {values.shape}, expected {nodes.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise NonFiniteCoefficient("equilibrium contains non-finite values")
    return values


def validate_spec(spec: ProblemSpec | ValidatedProblem) -> ValidatedProblem:
    """Check the spec and attach grid spacing, node coordinates, y_e samples.

    Raises the first violation as a typed error (NonPositivePeriod,
    GammaOrderingViolation, GridTooCoarse).  Validating an already
    validated problem returns it unchanged.
    """
    if isinstance(spec, ValidatedProblem):
        return spec
    if spec.sampling_period <= 0:
        raise NonPositivePeriod(f"sampling_period = {spec.sampling_period}")
    if spec.grid_points < MIN_GRID_POINTS:
        raise GridTooCoarse(f"grid_points = {spec.grid_points} < {MIN_GRID_POINTS}")
    if spec.gammas is not None:
        g = tuple(float(x) for x in spec.gammas)
        gamma_error = gamma_ordering_error(g, spec.target_rate)
        if gamma_error:
            raise GammaOrderingViolation(gamma_error)
        spec = replace(spec, gammas=g)
    remaining = spec_violations(spec)
    if remaining:
        raise ParastabError("; ".join(remaining))

    m = spec.grid_points
    h = spec.interval_length / (m + 1)
    nodes = np.linspace(0.0, spec.interval_length, m + 2)
    return ValidatedProblem(
        spec=spec,
        h=h,
        nodes=nodes,
        equilibrium_values=_sample_equilibrium(spec, nodes),
    )


def linearized_coefficient(problem: ValidatedProblem) -> np.ndarray:
    """Sample c(x) = f_y(x, y_e(x)) on the interior nodes.

    This is the zeroth-order coefficient of the linearization about the
    equilibrium; it depends only on y_e and f_y, never on the sampling setup.
    """
    x = problem.interior_nodes
    ye = problem.equilibrium_values[1:-1]
    c = np.asarray(problem.spec.nonlinearity.f_y(x, ye), dtype=float)
    c = np.broadcast_to(c, x.shape).astype(float)
    if not np.all(np.isfinite(c)):
        raise NonFiniteCoefficient("f_y(x, y_e) is non-finite on the grid")
    return c
