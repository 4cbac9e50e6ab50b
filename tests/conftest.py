import warnings

import numpy as np
import pytest

import parastab as ps
from parastab.lifting import lift_matrix


def make_problem(a=15.0, grid_points=200, period=0.2, rho=1.0, gammas=(2.0,), substeps=64):
    spec = ps.ProblemSpec(
        nonlinearity=ps.fisher_reaction(a),
        grid_points=grid_points,
        sampling_period=period,
        target_rate=rho,
        gammas=gammas,
        substeps_per_hold=substeps,
    )
    return ps.validate_spec(spec)


def make_spectrum(problem):
    c = ps.linearized_coefficient(problem)
    return ps.compute_spectrum(problem, c, problem.spec.target_rate)


def quiet_gains(spectrum, gammas, period):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ps.build_gains(spectrum, gammas, period)


@pytest.fixture(scope="session")
def problem15():
    return make_problem()


@pytest.fixture(scope="session")
def spectrum15(problem15):
    return make_spectrum(problem15)


@pytest.fixture(scope="session")
def laplacian15(problem15):
    return ps.laplacian_spectrum(problem15)


@pytest.fixture(scope="session")
def gains15(spectrum15):
    return ps.build_gains(spectrum15, (2.0,), 0.2)


@pytest.fixture(scope="session")
def problem95():
    return make_problem(a=95.0, gammas=(2.0, 3.0, 4.0))


@pytest.fixture(scope="session")
def spectrum95(problem95):
    return make_spectrum(problem95)


@pytest.fixture(scope="session")
def gains95(spectrum95):
    return quiet_gains(spectrum95, (2.0, 3.0, 4.0), 0.2)


def hold_profiles(gains, spectrum, y_sample):
    """Per-sample lift oracle: one dense solve of the lift equation per
    placement, its boundary datum the k-th feedback component at y_sample."""
    data = ps.component_feedback(gains, y_sample, spectrum)
    profiles = []
    for k in range(1, gains.n + 1):
        rhs = np.zeros(spectrum.m)
        rhs[-1] = data[k - 1] / spectrum.h**2
        profiles.append(np.linalg.solve(lift_matrix(spectrum, gains, k), rhs))
    return profiles
