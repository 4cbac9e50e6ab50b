import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs

import parastab as ps
from parastab import _lapack, spectral
from parastab.spectral import EigenSolverFailure, TridiagonalOperator

from conftest import make_problem, sine_potential, stevd_eigenpairs

ROOT = Path(__file__).resolve().parent.parent

ROUTINES = ("stevd", "pttrf", "pttrs")


def test_scipy_linalg_hands_out_the_loaded_routines():
    found = get_lapack_funcs(ROUTINES, (np.zeros(1),))
    assert all(f is getattr(_lapack, "d" + name) for f, name in zip(found, ROUTINES))
    bound = {name for name, v in vars(_lapack).items() if type(v) is type(_lapack.dstevd)}
    assert bound == {"d" + name for name in ROUTINES}


@pytest.mark.parametrize("m", [200, 1000], ids=["M200-sine-potential", "M1000-sine-potential"])
def test_eigendecompose_is_eigh_tridiagonal_bit_for_bit(m):
    op = ps.assemble_operator(make_problem(grid_points=m), sine_potential(m))
    diag, offdiag = op.diag.copy(), op.offdiag.copy()
    lam, vec = ps.eigendecompose(op)
    ref_lam, ref_vec = stevd_eigenpairs(op)
    assert np.all(ref_vec[0] != 0.0)
    assert np.array_equal(lam, ref_lam)
    assert np.array_equal(vec, ref_vec)
    # the lifts read the operator after its decomposition
    assert np.array_equal(op.diag, diag)
    assert np.array_equal(op.offdiag, offdiag)


@pytest.mark.parametrize("m", [16, 200, 1000], ids=["M16", "M200", "M1000"])
def test_constant_potential_eigenpairs_match_stevd_and_40_digits(m):
    # a constant potential gives a Toeplitz operator, decomposed in closed form
    op = ps.assemble_operator(make_problem(grid_points=m), np.full(m, 15.0))
    diag, offdiag = op.diag.copy(), op.offdiag.copy()
    lam, vec = ps.eigendecompose(op)
    assert np.array_equal(op.diag, diag)
    assert np.array_equal(op.offdiag, offdiag)
    # LAPACK is backward stable: within sqrt(M) eps ||T|| of each eigenvalue
    # and that over the gap of each mode
    ref_lam, ref_vec = stevd_eigenpairs(op)
    eps = np.finfo(float).eps
    err = np.sqrt(m) * eps * (4.0 / op.h**2)
    assert np.max(np.abs(lam - ref_lam)) <= err
    gaps = np.minimum(np.diff(lam, prepend=-np.inf), np.diff(lam, append=np.inf))
    assert np.all(np.sqrt(op.h) * np.linalg.norm(vec - ref_vec, axis=0) <= err / gaps)
    # the float64 operator's own eigenpairs at 40 digits: lambda_j =
    # d + 2e cos(j pi / (M+1)) to 4 eps relative, mode entries
    # sin(i j pi / (M+1)) sqrt(2 / (h (M+1))) to 2 eps of the largest
    q = m + 1
    with mp.workdps(40):
        d, e, h = mp.mpf(float(diag[0])), mp.mpf(float(offdiag[0])), mp.mpf(op.h)
        exact = [d + 2 * e * mp.cos(j * mp.pi / q) for j in range(1, q)]
        assert max(abs((mp.mpf(float(x)) - y) / y) for x, y in zip(lam, exact)) <= 4 * eps
        scale = mp.sqrt(2 / (h * q))
        sines = [mp.sin(k * mp.pi / q) * scale for k in range(2 * q)]
        high = np.array([float(v) for v in sines])
        low = np.array([float(v - mp.mpf(float(v))) for v in sines])
    index = np.multiply.outer(np.arange(1, q), np.arange(1, q)) % (2 * q)
    assert np.max(np.abs(vec - high[index] - low[index])) <= 2 * eps * float(scale)


@pytest.mark.parametrize("field", ["diag", "offdiag"])
@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_non_finite_operator_raises_eigen_solver_failure(field, entry):
    op = TridiagonalOperator(diag=np.full(16, 2.0), offdiag=np.full(15, -1.0), h=0.1)
    getattr(op, field)[5] = entry
    with pytest.raises(EigenSolverFailure, match="non-finite"):
        ps.eigendecompose(op)


def failing_dstevd(d, e, compute_v):
    return np.zeros(d.size), np.eye(d.size), 1


def test_lapack_info_raises_eigen_solver_failure(monkeypatch):
    monkeypatch.setattr(spectral, "dstevd", failing_dstevd)
    op = ps.assemble_operator(make_problem(grid_points=16), sine_potential(16))
    with pytest.raises(EigenSolverFailure, match="info = 1"):
        ps.eigendecompose(op)


def test_constant_operator_never_calls_dstevd(monkeypatch):
    monkeypatch.setattr(spectral, "dstevd", failing_dstevd)
    for m in (16, 200, 1000):
        op = ps.assemble_operator(make_problem(grid_points=m), np.full(m, 15.0))
        ps.eigendecompose(op)
    ps.eigendecompose(TridiagonalOperator(diag=np.full(3, 7.0), offdiag=np.full(2, -0.5), h=0.3))
    # a positive off-diagonal, or no off-diagonal, still goes to LAPACK
    for op in (TridiagonalOperator(diag=np.full(3, 7.0), offdiag=np.full(2, 0.5), h=0.3),
               TridiagonalOperator(diag=np.full(1, 7.0), offdiag=np.zeros(0), h=0.5)):
        with pytest.raises(EigenSolverFailure, match="info = 1"):
            ps.eigendecompose(op)


# Fresh interpreter: the M = 1000 Fisher spectrum's lambdas, modes and
# boundary fluxes, hashed.
SPECTRUM_DIGEST = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import parastab as ps
spec = ps.ProblemSpec(nonlinearity=ps.fisher_reaction(15.0), grid_points=1000)
_, s = ps.linearized_spectrum(spec)
print(hashlib.sha256(s.lambdas.tobytes() + s.modes.tobytes() + s.boundary_flux.tobytes()).hexdigest())
"""


def test_constant_potential_spectrum_is_independent_of_blas_threads():
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c", SPECTRUM_DIGEST, str(ROOT / "src")],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.strip())
    assert len(digests) == 1


CONFIG = """
[problem]
grid_points = 32

[simulation]
horizon = 2
substeps = 8

[output]
directory = {out}
"""

# Fresh interpreter: import the CLI, synthesize and simulate, then list the
# scipy modules whose import the LAPACK loader exists to avoid.
RUN = """
import sys
sys.path.insert(0, sys.argv[1])
import parastab.cli
for command in ("synthesize", "simulate"):
    assert parastab.cli.main([command, "--config", sys.argv[2]]) == 0
print(sorted({"scipy.linalg", "scipy._lib._array_api"} & set(sys.modules)))
"""


def test_cli_runs_without_importing_scipy_linalg(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.format(out=tmp_path / "out"))
    done = subprocess.run(
        [sys.executable, "-c", RUN, str(ROOT / "src"), str(config)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "trajectory.csv").is_file()
