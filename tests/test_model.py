import math

import numpy as np
import pytest

import parastab as ps
from parastab.model import MIN_GRID_POINTS, REACTIONS, _violations, gamma_ordering_error


def test_validate_derives_grid_spacing():
    prob = ps.validate_spec(
        ps.ProblemSpec(
            nonlinearity=ps.fisher_reaction(15.0),
            grid_points=200,
            sampling_period=0.2,
            target_rate=1.0,
            gammas=(2.0,),
        )
    )
    assert prob.h == pytest.approx(1.0 / 201.0, rel=0, abs=1e-16)
    assert prob.nodes.shape == (202,)
    assert prob.nodes[0] == 0.0 and prob.nodes[-1] == 1.0
    assert prob.interior_nodes[0] == pytest.approx(prob.h)


def test_validate_is_idempotent():
    prob = ps.validate_spec(ps.ProblemSpec(nonlinearity=ps.cubic_reaction()))
    assert ps.validate_spec(prob) is prob


def test_gamma_ordering_violation():
    with pytest.raises(ps.GammaOrderingViolation):
        ps.validate_spec(
            ps.ProblemSpec(nonlinearity=ps.cubic_reaction(), gammas=(2.0, 1.5))
        )


def test_gamma_must_exceed_target_rate():
    with pytest.raises(ps.GammaOrderingViolation):
        ps.validate_spec(
            ps.ProblemSpec(
                nonlinearity=ps.cubic_reaction(), target_rate=3.0, gammas=(2.0, 4.0)
            )
        )


def test_zero_period_rejected():
    with pytest.raises(ps.NonPositivePeriod):
        ps.validate_spec(
            ps.ProblemSpec(nonlinearity=ps.cubic_reaction(), sampling_period=0.0)
        )


def test_coarse_grid_rejected():
    with pytest.raises(ps.GridTooCoarse):
        ps.validate_spec(
            ps.ProblemSpec(
                nonlinearity=ps.cubic_reaction(), grid_points=MIN_GRID_POINTS - 1
            )
        )


@pytest.mark.parametrize(
    "fields, error",
    [
        ({"gammas": (2.0, 1.5)}, ps.GammaOrderingViolation),
        ({"gammas": (2.0, 2.0)}, ps.GammaOrderingViolation),
        ({"gammas": (1.0,)}, ps.GammaOrderingViolation),
        ({"gammas": (0.5,)}, ps.GammaOrderingViolation),
        ({"sampling_period": 0.0}, ps.NonPositivePeriod),
        ({"grid_points": MIN_GRID_POINTS - 1}, ps.GridTooCoarse),
        ({"gammas": (math.nan,)}, ps.GammaOrderingViolation),
        ({"gammas": (2.0, math.inf)}, ps.GammaOrderingViolation),
        ({"sampling_period": math.inf}, ps.NonPositivePeriod),
        ({"sampling_period": math.nan}, ps.NonPositivePeriod),
        ({"interval_length": math.nan}, ps.ParastabError),
        ({"interval_length": math.inf}, ps.ParastabError),
        ({"target_rate": math.nan}, ps.ParastabError),
        ({"target_rate": math.inf}, ps.ParastabError),
    ],
    ids=["descending", "repeated", "at-rho", "below-rho", "zero-period", "coarse-grid",
         "nan-gamma", "inf-gamma", "inf-period", "nan-period", "nan-length", "inf-length",
         "nan-rate", "inf-rate"],
)
def test_gamma_ordering_is_one_rule(spectrum15, fields, error):
    # each spec rule is written once: _violations lists its message and
    # validate_spec raises that same message as the rule's typed error
    spec = ps.ProblemSpec(nonlinearity=ps.cubic_reaction(), **fields)
    (message,) = [str(e) for e in _violations(spec)]
    with pytest.raises(error) as validated:
        ps.validate_spec(spec)
    assert str(validated.value) == message
    assert next(iter(fields)) in message  # the message names the field
    gammas = fields.get("gammas")
    if gammas is not None:
        assert message == gamma_ordering_error(gammas, 1.0)
        if len(gammas) == spectrum15.unstable_count:
            with pytest.raises(ps.GammaOrderingViolation) as synthesized:
                ps.build_gains(spectrum15, gammas, 0.2)
            assert str(synthesized.value) == message
    assert gamma_ordering_error((2.0, 3.0), 1.0) is None


def test_spec_violations_lists_everything():
    bad = ps.ProblemSpec(
        nonlinearity=ps.cubic_reaction(),
        grid_points=4,
        sampling_period=-1.0,
        target_rate=-2.0,
        gammas=(3.0, 1.0),
    )
    messages = " ".join(str(e) for e in _violations(bad))
    assert "grid_points" in messages
    assert "sampling_period" in messages
    assert "target_rate" in messages
    assert "gammas" in messages


@pytest.mark.parametrize(
    "reaction, y_e, expected",
    [
        (ps.fisher_reaction(15.0), 0.0, 15.0),
        (ps.cubic_reaction(), 0.0, 1.0),
        (ps.fisher_reaction(15.0), 1.0, -15.0),
    ],
)
def test_linearized_coefficient_constant_equilibria(reaction, y_e, expected):
    prob = ps.validate_spec(
        ps.ProblemSpec(nonlinearity=reaction, equilibrium=y_e, grid_points=32)
    )
    c = ps.linearized_coefficient(prob)
    assert c.shape == (32,)
    assert np.allclose(c, expected, rtol=0, atol=1e-14)


def test_linearized_coefficient_ignores_sampling_setup():
    base = ps.ProblemSpec(nonlinearity=ps.fisher_reaction(7.0), grid_points=64)
    other = ps.ProblemSpec(
        nonlinearity=ps.fisher_reaction(7.0),
        grid_points=64,
        sampling_period=3.0,
        target_rate=0.5,
        gammas=(9.0,),
    )
    c1 = ps.linearized_coefficient(ps.validate_spec(base))
    c2 = ps.linearized_coefficient(ps.validate_spec(other))
    assert np.array_equal(c1, c2)


def test_non_finite_coefficient_detected():
    bad = ps.polynomial_reaction([0.0, np.nan])
    prob = ps.validate_spec(ps.ProblemSpec(nonlinearity=bad, grid_points=20))
    with pytest.raises(ps.NonFiniteCoefficient):
        ps.linearized_coefficient(prob)


def test_node_value_equilibrium_on_another_grid_names_both_grids():
    spec = ps.ProblemSpec(
        nonlinearity=ps.cubic_reaction(), grid_points=64, equilibrium=np.zeros(34)
    )
    with pytest.raises(ValueError) as error:
        ps.validate_spec(spec)
    assert str(error.value) == (
        "equilibrium has 34 node values, which fit grid_points = 32, not the "
        "requested grid_points = 64; node values are not resampled"
    )


def test_callable_equilibrium_sampled_on_all_nodes():
    prob = ps.validate_spec(
        ps.ProblemSpec(
            nonlinearity=ps.cubic_reaction(),
            grid_points=50,
            equilibrium=lambda x: np.sin(np.pi * x),
        )
    )
    assert prob.equilibrium_values.shape == (52,)
    assert prob.equilibrium_values[0] == pytest.approx(0.0, abs=1e-15)


def test_polynomial_reaction_matches_fisher():
    # a*y*(1-y) = a*y - a*y^2
    a = 11.0
    fisher = ps.fisher_reaction(a)
    poly = ps.polynomial_reaction([0.0, a, -a])
    y = np.linspace(-2, 2, 13)
    x = np.zeros_like(y)
    assert np.allclose(fisher.f(x, y), poly.f(x, y), atol=1e-12)
    assert np.allclose(fisher.f_y(x, y), poly.f_y(x, y), atol=1e-12)


def test_unknown_nonlinearity_kind_rejected():
    with pytest.raises(ValueError):
        ps.NonlinearitySpec(kind="mystery", parameters=(), coefficients=(0.0, 1.0))


@pytest.mark.parametrize(
    "kind, parameters, expected",
    [
        ("linear", (), ps.linear_reaction(0.0)),
        ("linear-only", (-3.0,), ps.linear_reaction(-3.0)),
        ("fisher", (), ps.fisher_reaction(15.0)),
        ("fisher", (7.0,), ps.fisher_reaction(7.0)),
        ("cubic", (), ps.cubic_reaction()),
        ("polynomial", (0.5, 2.0), ps.polynomial_reaction((0.5, 2.0))),
        ("custom-polynomial", (1.0,), ps.polynomial_reaction((1.0,))),
    ],
)
def test_reaction_builds_each_kind_and_alias(kind, parameters, expected):
    assert ps.reaction(kind, parameters) == expected


def test_reaction_catalogue_covers_every_kind():
    built = {ps.reaction(kind, (1.0,) if defaults is None else ()).kind
             for kind, (_, defaults) in REACTIONS.items()}
    assert built == set(ps.NonlinearitySpec._KINDS)


@pytest.mark.parametrize(
    "kind, parameters, message",
    [
        ("cubicc", (), "^unknown nonlinearity 'cubicc'$"),
        ("Fisher", (), "^unknown nonlinearity 'Fisher'$"),
        ("cubic", (1.0,), "^cubic nonlinearity takes no parameters$"),
        ("fisher", (1.0, 2.0), "^fisher nonlinearity takes at most one parameter$"),
        ("linear", (1.0, 2.0), "^linear nonlinearity takes at most one parameter$"),
        ("polynomial", (), "^polynomial reaction needs at least one coefficient$"),
    ],
)
def test_reaction_rejects_unknown_kinds_and_parameter_counts(kind, parameters, message):
    with pytest.raises(ValueError, match=message):
        ps.reaction(kind, parameters)
