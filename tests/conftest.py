import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import parastab as ps
from parastab import _exact, spectral
from parastab.lifting import _shift_coefficients


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


def sine_potential(m):
    """A non-constant potential, so the operator goes to LAPACK."""
    return 15.0 + 40.0 * np.sin(3.0 * np.linspace(0.0, np.pi, m)) ** 2


def stevd_eigenpairs(operator):
    """LAPACK's eigenpairs of the operator (scipy's eigh_tridiagonal with
    stevd), scaled to h-orthonormal with positive first components: the
    eigensolver reference for the closed form that eigendecompose takes at
    a constant potential."""
    lam, vec = eigh_tridiagonal(operator.diag, operator.offdiag, lapack_driver="stevd")
    vec *= np.where(vec[0] < 0.0, -1.0, 1.0) / np.sqrt(operator.h)
    return lam, vec


def quiet_gains(spectrum, gammas, period):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ps.build_gains(spectrum, gammas, period)


def count_builds(monkeypatch) -> dict:
    """Count full gain-system assemblies, mpmath symmetric eigenvalue solves
    and operator spectra (spectral.compute_spectrum, which
    linearized_spectrum calls) from here on."""
    counts = {"assemble": 0, "eigsy": 0, "compute_spectrum": 0}
    assemble, eigsy, compute_spectrum = _exact._assemble, mp.eigsy, spectral.compute_spectrum

    def counted_assemble(*args):
        counts["assemble"] += 1
        return assemble(*args)

    def counted_eigsy(*args, **kwargs):
        counts["eigsy"] += 1
        return eigsy(*args, **kwargs)

    def counted_compute_spectrum(*args):
        counts["compute_spectrum"] += 1
        return compute_spectrum(*args)

    monkeypatch.setattr(_exact, "_assemble", counted_assemble)
    monkeypatch.setattr(mp, "eigsy", counted_eigsy)
    monkeypatch.setattr(spectral, "compute_spectrum", counted_compute_spectrum)
    return counts


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


def lift_matrix(spectrum, gains, k):
    """Dense-oracle M x M matrix of the k-th corrected lift operator: the
    tridiagonal operator plus h * shift_i * phi_i phi_i^T per unstable mode."""
    op = spectrum.operator
    a = np.diag(op.diag) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)
    shifts = _shift_coefficients(gains)[:, k - 1]
    modes = spectrum.modes[:, : gains.n]
    a += (modes * (shifts * spectrum.h)) @ modes.T
    return a


def _thomas(diag, offdiag, rhs):
    """Solve a symmetric tridiagonal system by elimination without pivoting."""
    m = len(diag)
    upper, x = [mp.mpf(0)] * m, [mp.mpf(0)] * m
    for j in range(m):
        pivot = diag[j] - (offdiag[j - 1] * upper[j - 1] if j else 0)
        upper[j] = offdiag[j] / pivot if j < m - 1 else mp.mpf(0)
        x[j] = (rhs[j] - (offdiag[j - 1] * x[j - 1] if j else 0)) / pivot
    for j in range(m - 2, -1, -1):
        x[j] -= upper[j] * x[j + 1]
    return x


def extended_lift(spectrum, gains, k, dps=40):
    """The k-th unit lift solved in mpmath at dps digits, rounded to float64.

    It solves the same float64 system as dirichlet_lift, T + U D U^T with
    the tridiagonal operator T, U the stored unstable modes and D the
    float64 values shift_i * h, exactly up to dps digits: Thomas
    elimination of T, then the rank-N Woodbury correction
    y - Z (D^-1 + U^T Z)^-1 U^T y with y = T^-1 e_M / h^2 and Z = T^-1 U.
    """
    op, m, n, h = spectrum.operator, spectrum.m, gains.n, spectrum.h
    with mp.workdps(dps):
        diag = [mp.mpf(float(v)) for v in op.diag]
        offdiag = [mp.mpf(float(v)) for v in op.offdiag]
        modes = [[mp.mpf(float(v)) for v in spectrum.modes[:, i]] for i in range(n)]
        weights = [mp.mpf(float(v)) for v in _shift_coefficients(gains)[:, k - 1] * h]
        rhs = [mp.mpf(0)] * m
        rhs[-1] = 1 / mp.mpf(h) ** 2
        y = _thomas(diag, offdiag, rhs)
        z = [_thomas(diag, offdiag, u) for u in modes]
        capacitance = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                capacitance[i, j] = mp.fdot(modes[i], z[j]) + (1 / weights[i] if i == j else 0)
        c = mp.lu_solve(capacitance, mp.matrix([mp.fdot(u, y) for u in modes]))
        return np.array([float(y[j] - mp.fsum(z[i][j] * c[i] for i in range(n)))
                         for j in range(m)])


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
