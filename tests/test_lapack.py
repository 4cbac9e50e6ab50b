import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, get_lapack_funcs

import parastab as ps
from parastab import _lapack, spectral
from parastab.spectral import EigenSolverFailure, TridiagonalOperator

from conftest import make_problem

ROOT = Path(__file__).resolve().parent.parent

ROUTINES = ("stevd", "pttrf", "pttrs")


def test_scipy_linalg_hands_out_the_loaded_routines():
    found = get_lapack_funcs(ROUTINES, (np.zeros(1),))
    assert all(f is getattr(_lapack, "d" + name) for f, name in zip(found, ROUTINES))
    bound = {name for name, v in vars(_lapack).items() if type(v) is type(_lapack.dstevd)}
    assert bound == {"d" + name for name in ROUTINES}


def sine_potential(m):
    return 15.0 + 40.0 * np.sin(3.0 * np.linspace(0.0, np.pi, m)) ** 2


@pytest.mark.parametrize(
    "m, potential",
    [(16, None), (200, None), (1000, None), (200, sine_potential)],
    ids=["M16", "M200", "M1000", "M200-sine-potential"],
)
def test_eigendecompose_is_eigh_tridiagonal_bit_for_bit(m, potential):
    problem = make_problem(grid_points=m)
    c = ps.linearized_coefficient(problem) if potential is None else potential(m)
    op = ps.assemble_operator(problem, c)
    diag, offdiag = op.diag.copy(), op.offdiag.copy()
    lam, vec = ps.eigendecompose(op)
    ref_lam, ref_vec = eigh_tridiagonal(op.diag, op.offdiag, lapack_driver="stevd")
    assert np.all(ref_vec[0] != 0.0)
    ref_vec *= np.where(ref_vec[0] < 0.0, -1.0, 1.0) / np.sqrt(op.h)
    assert np.array_equal(lam, ref_lam)
    assert np.array_equal(vec, ref_vec)
    # the lifts read the operator after its decomposition
    assert np.array_equal(op.diag, diag)
    assert np.array_equal(op.offdiag, offdiag)


@pytest.mark.parametrize("field", ["diag", "offdiag"])
@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_non_finite_operator_raises_eigen_solver_failure(field, entry):
    op = TridiagonalOperator(diag=np.full(16, 2.0), offdiag=np.full(15, -1.0), h=0.1)
    getattr(op, field)[5] = entry
    with pytest.raises(EigenSolverFailure, match="non-finite"):
        ps.eigendecompose(op)


def test_lapack_info_raises_eigen_solver_failure(monkeypatch):
    def failing_dstevd(d, e, compute_v):
        return np.zeros(d.size), np.eye(d.size), 1

    monkeypatch.setattr(spectral, "dstevd", failing_dstevd)
    op = ps.assemble_operator(make_problem(grid_points=16), np.zeros(16))
    with pytest.raises(EigenSolverFailure, match="info = 1"):
        ps.eigendecompose(op)


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
