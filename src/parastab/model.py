"""Problem definition: PDE coefficients, equilibrium, sampling parameters.

A stabilization problem lives on the interval (0, L) with the controlled
boundary at x = L and a homogeneous Dirichlet condition at x = 0.  The
reaction term is a polynomial in y given by its power-series coefficients,
from which f, f_y and the exact Taylor tail of f about the equilibrium are
evaluated; the equilibrium profile about which the dynamics are linearized
is given by the user (this package never solves for equilibria).

The reaction catalogue is here too: REACTIONS maps each kind and alias to
its factory and parameter defaults, and reaction(kind, parameters), which
the CLI calls, is the one constructor that checks a parameter count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence, Union

import numpy as np


class ParastabError(Exception):
    """Base class for all errors raised by this package."""


class NonPositivePeriod(ParastabError):
    """Sampling period must be finite and strictly positive."""


class GammaOrderingViolation(ParastabError):
    """Placement rates must satisfy rho < gamma_1 < gamma_2 < ..."""


class GridTooCoarse(ParastabError):
    """Fewer interior nodes than the supported minimum (16)."""


class NonFiniteCoefficient(ParastabError):
    """f_y evaluated to a non-finite value on the grid."""


MIN_GRID_POINTS = 16


def _horner(coefficients: Sequence[float], y: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(np.asarray(y, dtype=float))
    for c in reversed(coefficients):
        acc = acc * y + c
    return acc


@dataclass(frozen=True)
class NonlinearitySpec:
    """Reaction term f(y) = sum_i coefficients[i] * y**i, independent of x.

    kind is one of "linear-only", "fisher", "cubic", "custom-polynomial";
    parameters are the user-facing values the kind was built from, and
    coefficients (p_0 ... p_d) the power series every evaluation uses.
    Use the factory helpers below rather than constructing directly.
    """

    kind: str
    parameters: tuple[float, ...]
    coefficients: tuple[float, ...]

    _KINDS = ("linear-only", "fisher", "cubic", "custom-polynomial")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if not self.coefficients:
            raise ValueError("polynomial reaction needs at least one coefficient")
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))

    def f(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """f(y) by Horner's rule; x is accepted for the f(x, y) signature."""
        return _horner(self.coefficients, y)

    def f_y(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """f'(y) by Horner's rule on the derivative's coefficients."""
        return _horner([i * p for i, p in enumerate(self.coefficients)][1:], y)

    def taylor_tail(self, y_e: np.ndarray) -> list[np.ndarray]:
        """Coefficients q_2 ... q_d of r(w) = f(y_e + w) - f(y_e) - f'(y_e) w
        = sum_{j>=2} q_j w**j, with q_j = sum_{i>=j} C(i, j) p_i y_e**(i-j)
        (empty when f is affine)."""
        p = self.coefficients
        return [
            _horner([math.comb(i, j) * p[i] for i in range(j, len(p))], y_e)
            for j in range(2, len(p))
        ]


def linear_reaction(a: float) -> NonlinearitySpec:
    """f(y) = a*y: no nonlinear remainder, constant coefficient a."""
    return NonlinearitySpec("linear-only", (float(a),), (0.0, a))


def fisher_reaction(a: float) -> NonlinearitySpec:
    """Fisher-KPP term f(y) = a*y*(1 - y)."""
    return NonlinearitySpec("fisher", (float(a),), (0.0, a, -a))


def cubic_reaction() -> NonlinearitySpec:
    """Bistable term f(y) = y - y**3."""
    return NonlinearitySpec("cubic", (), (0.0, 1.0, 0.0, -1.0))


def polynomial_reaction(coefficients: Sequence[float]) -> NonlinearitySpec:
    """f(y) = sum_j coefficients[j] * y**j (independent of x)."""
    coeffs = tuple(float(c) for c in coefficients)
    return NonlinearitySpec("custom-polynomial", coeffs, coeffs)


# kind or alias -> (factory, defaults of the parameters it takes at most);
# None: the factory takes the whole parameter list
REACTIONS = {
    "linear": (linear_reaction, (0.0,)),
    "linear-only": (linear_reaction, (0.0,)),
    "fisher": (fisher_reaction, (15.0,)),
    "cubic": (cubic_reaction, ()),
    "polynomial": (polynomial_reaction, None),
    "custom-polynomial": (polynomial_reaction, None),
}


def reaction(kind: str, parameters: Sequence[float] = ()) -> NonlinearitySpec:
    """The reaction of a REACTIONS kind from its user-facing parameters; an
    omitted parameter takes its default.  Raises ValueError for an unknown
    kind, more parameters than the kind takes or an empty polynomial."""
    if kind not in REACTIONS:
        raise ValueError(f"unknown nonlinearity {kind!r}")
    factory, defaults = REACTIONS[kind]
    parameters = tuple(parameters)
    if defaults is None:
        return factory(parameters)
    if len(parameters) > len(defaults):
        takes = "at most one parameter" if defaults else "no parameters"
        raise ValueError(f"{kind} nonlinearity takes {takes}")
    return factory(*(parameters or defaults))


Equilibrium = Union[float, np.ndarray, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class ProblemSpec:
    """User-facing description of a boundary stabilization problem.

    interval_length   L > 0; domain is (0, L), control acts at x = L.
    grid_points       number M of interior nodes (M >= 16).
    nonlinearity      polynomial reaction term.
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


def refined(spec: ProblemSpec) -> ProblemSpec:
    """The spec on the doubled grid (2M nodes, twice the substeps): the one
    refinement rule, of --refine and of the doubled grids pde-gain reads."""
    return replace(spec, grid_points=2 * spec.grid_points,
                   substeps_per_hold=2 * spec.substeps_per_hold)


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
    if not all(math.isfinite(x) for x in g):
        return f"gammas must be finite, got {g}"
    if any(not b > a for a, b in zip(g, g[1:])) or (g and not g[0] > rho):
        return f"need target_rate < gamma_1 < gamma_2 < ...; got rho = {rho}, gammas = {g}"
    return None


def _violations(spec: ProblemSpec) -> list[ParastabError]:
    """Every constraint ``spec`` breaks, as the typed error validate_spec
    raises for it; the typed rules come first."""
    gamma_error = (
        None if spec.gammas is None else gamma_ordering_error(spec.gammas, spec.target_rate)
    )
    rules = [
        (not 0 < spec.sampling_period < math.inf, NonPositivePeriod,
         f"sampling_period must be finite and positive, got {spec.sampling_period}"),
        (spec.grid_points < MIN_GRID_POINTS, GridTooCoarse,
         f"grid_points must be >= {MIN_GRID_POINTS}, got {spec.grid_points}"),
        (gamma_error is not None, GammaOrderingViolation, gamma_error),
        (not 0 < spec.interval_length < math.inf, ParastabError,
         f"interval_length must be finite and positive, got {spec.interval_length}"),
        (not 0 < spec.target_rate < math.inf, ParastabError,
         f"target_rate must be finite and positive, got {spec.target_rate}"),
        (spec.substeps_per_hold < 1, ParastabError,
         f"substeps_per_hold must be >= 1, got {spec.substeps_per_hold}"),
    ]
    return [error(message) for broken, error, message in rules if broken]


def _sample_equilibrium(spec: ProblemSpec, nodes: np.ndarray) -> np.ndarray:
    ye = spec.equilibrium
    if callable(ye):
        values = np.asarray(ye(nodes), dtype=float)
    elif np.isscalar(ye):
        values = np.full(nodes.shape, float(ye))
    else:
        values = np.asarray(ye, dtype=float)
    if values.shape != nodes.shape:
        if not callable(ye) and values.ndim == 1 and values.size > 2:
            raise ValueError(
                f"equilibrium has {values.size} node values, which fit grid_points = "
                f"{values.size - 2}, not the requested grid_points = {nodes.size - 2}; "
                "node values are not resampled"
            )
        raise ValueError(
            f"equilibrium samples have shape {values.shape}, expected {nodes.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise NonFiniteCoefficient("equilibrium contains non-finite values")
    return values


def validate_spec(spec: ProblemSpec | ValidatedProblem) -> ValidatedProblem:
    """Check the spec and attach grid spacing, node coordinates, y_e samples.

    Raises all violations in one error, typed as the first of them:
    NonPositivePeriod, GridTooCoarse, GammaOrderingViolation, else
    ParastabError.  Validating an already validated problem returns it
    unchanged.
    """
    if isinstance(spec, ValidatedProblem):
        return spec
    if spec.gammas is not None:
        spec = replace(spec, gammas=tuple(float(x) for x in spec.gammas))
    errors = _violations(spec)
    if errors:
        raise type(errors[0])("; ".join(str(error) for error in errors))

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
