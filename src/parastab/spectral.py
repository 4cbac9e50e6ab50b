"""Discrete linearized operator, its spectrum, projections and norms.

The operator -u'' - c(x) u with Dirichlet ends is discretized by second
order central differences on the uniform interior grid, giving a symmetric
tridiagonal matrix.  A constant potential makes it Toeplitz, with the
shifted discrete sines as closed-form eigenpairs, kept as one table of
sines; any other potential is decomposed by LAPACK's dstevd.  Eigenvectors
are normalized in the discrete inner product <u, v>_h = h * sum(u_j v_j),
which makes them orthonormal without any mass-matrix machinery, and their
sign is fixed so the first interior component is positive.
"""

from __future__ import annotations

import functools
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._lapack import dstevd
from .model import (
    ParastabError, ProblemSpec, ValidatedProblem, linearized_coefficient, validate_spec,
)

RHO_GAP_TOLERANCE = 1e-9
DEGENERATE_GAP_WARNING = 1e-8
SOBOLEV_BLOCK_ROWS = 64  # rows per rfft call of _odd_sine_blocks


class EigenSolverFailure(ParastabError):
    """The tridiagonal eigensolver did not converge."""


class RhoOnEigenvalue(ParastabError):
    """The selection rate rho coincides with an eigenvalue (ill-posed gap)."""


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal discretization of -Laplacian - c(x).

    diag has length M (2/h^2 - c(x_j)); offdiag has length M-1 (-1/h^2).
    The Crank-Nicolson kernel reads the off-diagonal as one scalar and
    rejects an operator whose off-diagonal is not constant.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    h: float

    @property
    def m(self) -> int:
        return self.diag.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues, h-orthonormal modes and boundary fluxes of the operator.

    lambdas         ascending eigenvalues (1/time).
    basis           the modes as stored: dstevd's (M, M) matrix, or a
                    Toeplitz operator's 2(M+1) sines (_toeplitz_eigenpairs).
    boundary_flux   each mode's coupling to the boundary input (derived).
    unstable_count  N with lambda_N < rho <= lambda_{N+1}.
    rho             the selection rate used for unstable_count.
    operator        the discretized operator (kept for rebuilds and lifts).

    Readers take columns(n), last_row, nodal (Phi c) or modal (h Phi^T w),
    gathered from a sine table or one DST-I each, and never ask which basis
    is stored.  The one exception is ``sine_table``: sine coordinates are
    also the pure Laplacian's, which sobolev_norm weights.  ``modes``, the
    (M, M) matrix, is built on first read and cached; no other reader falls
    back on it.
    """

    lambdas: np.ndarray
    basis: np.ndarray
    unstable_count: int
    rho: float
    operator: TridiagonalOperator

    @property
    def h(self) -> float:
        return self.operator.h

    @property
    def m(self) -> int:
        return self.lambdas.shape[0]

    @property
    def sine_table(self) -> bool:
        """Whether the modes are stored as a sine table: modal coordinates
        are then also the coordinates <y, e_j>_h in the pure -Laplacian's
        sine modes e_j of sobolev_norm (its ``coordinates``)."""
        return self.basis.ndim == 1

    @functools.cached_property
    def modes(self) -> np.ndarray:
        """(M, M) array, column i is mode i on the interior nodes."""
        return self.basis if self.basis.ndim == 2 else _sines(self.basis, self.m)

    def columns(self, n: int) -> np.ndarray:
        """Modes 1..n as the columns of an (M, n) array."""
        if self.basis.ndim == 2:
            return self.basis[:, :n]
        # one column wider, so a product with the block takes numpy's path
        # for a slice of a wider matrix: the bits a slice of ``modes`` gives
        return _sines(self.basis, n + 1)[:, :n]

    @property
    def last_row(self) -> np.ndarray:
        """phi_i[M] for every mode i."""
        if self.basis.ndim == 2:
            return self.basis[-1]
        return _sines(self.basis, self.m, np.array([self.m]))[0]

    @functools.cached_property
    def boundary_flux(self) -> np.ndarray:
        """boundary_flux of every mode, read from last_row."""
        return boundary_flux(self.last_row[np.newaxis], self.h)

    def nodal(self, coeffs: np.ndarray) -> np.ndarray:
        """Phi c: node values of modal coordinates (a vector or row stack)."""
        if self.basis.ndim == 2:
            return coeffs @ self.basis.T
        return _sine_products(coeffs, self.h, 1.0)

    def modal(self, w: np.ndarray) -> np.ndarray:
        """h Phi^T w: all M coordinates of node values (a vector or row stack)."""
        if self.basis.ndim == 2:
            return self.h * (w @ self.basis)
        return _sine_products(w, self.h, self.h)


def assemble_operator(problem: ValidatedProblem, c: np.ndarray) -> TridiagonalOperator:
    """Build the M x M symmetric tridiagonal matrix for -Laplacian - c(x);
    every off-diagonal entry is the single value -1/h^2."""
    m = problem.m
    c = np.broadcast_to(np.asarray(c, dtype=float), (m,))
    h = problem.h
    diag = 2.0 / h**2 - c
    offdiag = np.full(m - 1, -1.0 / h**2)
    return TridiagonalOperator(diag=diag, offdiag=offdiag, h=h)


def eigendecompose(operator: TridiagonalOperator) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of the tridiagonal operator.

    Returns ascending eigenvalues and h-orthonormal eigenvectors (columns),
    each flipped so its first interior component is positive.  A constant
    potential gives a Toeplitz operator with closed-form eigenpairs, the
    matrix gathered from their sine table; any other goes to LAPACK.
    """
    lam, basis = _eigenbasis(operator)
    return lam, basis if basis.ndim == 2 else _sines(basis, operator.m)


def _eigenbasis(operator: TridiagonalOperator) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of eigendecompose and its modes as a Spectrum stores
    them: the sine table of a Toeplitz operator, dstevd's matrix otherwise."""
    diag, offdiag = operator.diag, operator.offdiag
    if not (np.isfinite(diag).all() and np.isfinite(offdiag).all()):
        raise EigenSolverFailure("the tridiagonal operator has a non-finite entry")
    if _is_toeplitz(operator):
        lam, basis = _toeplitz_eigenpairs(diag[0], offdiag[0], diag.size, operator.h)
    else:
        lam, basis = _lapack_eigenpairs(operator)

    gaps = np.diff(lam)
    if gaps.size and gaps.min() < DEGENERATE_GAP_WARNING:
        warnings.warn(
            f"near-degenerate eigenvalue gap {gaps.min():.3e}; "
            "1-D problems have simple spectra, check the grid",
            stacklevel=3,
        )
    return lam, basis


def _is_toeplitz(operator: TridiagonalOperator) -> bool:
    """Whether the operator is Toeplitz with a negative off-diagonal and
    M > 1: one diagonal value, one off-diagonal value e < 0.  Its
    eigenvectors are then the sine modes whatever the two values, so
    _eigenbasis takes them in closed form, as a sine table.  Only the
    spectrum asks: a reader of the modes asks the Spectrum."""
    diag, offdiag = operator.diag, operator.offdiag
    return bool(offdiag.size and offdiag[0] < 0.0
                and (diag == diag[0]).all() and (offdiag == offdiag[0]).all())


def _toeplitz_eigenpairs(d: float, e: float, m: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and sine table of the M x M Toeplitz matrix (d; e < 0).

    lambda_j = d + 2e cos(j pi / (M+1)), written as (d + 2e) - 4e sin^2(j pi
    / (2(M+1))): d + 2e is exact when d and -2e lie within a factor 2 of each
    other (Sterbenz), so sin^2 and one add are the only roundings.  Entry i
    of mode j, sin(i j pi / (M+1)) scaled to unit h-norm, is entry (i j) mod
    2(M+1) of the table of the 2(M+1) sines, each from an argument in
    [0, pi/2]; every first entry is positive.  Each lambda is within 2.3 eps
    relative of a 40-digit evaluation of the float64 operator's (dstevd:
    1.1e-11), each mode entry within 1.2 eps.  At M = 1000 (one BLAS thread,
    2-vCPU KVM machine) this takes 0.1 ms; the (M, M) gather 7.5 ms more.
    """
    q = m + 1
    lam = (d + 2.0 * e) + (-4.0 * e) * np.sin(np.arange(1, q) * (np.pi / (2 * q))) ** 2
    k = np.arange(q + 1)
    half = np.sin(np.minimum(k, q - k) * (np.pi / q))
    return lam, np.concatenate((half, -half[1:q])) * np.sqrt(2.0 / (h * q))


def _sines(table: np.ndarray, n: int, nodes: np.ndarray | None = None) -> np.ndarray:
    """Modes 1..n at the 1-based ``nodes`` (all M by default), gathered from
    a sine table: entry i of mode j is its entry (i j) mod 2(M+1)."""
    nodes = np.arange(1, table.size // 2) if nodes is None else nodes
    index = np.multiply.outer(nodes, np.arange(1, n + 1))
    np.remainder(index, table.size, out=index)
    return table.take(index)


def _lapack_eigenpairs(operator: TridiagonalOperator) -> tuple[np.ndarray, np.ndarray]:
    """dstevd's eigenpairs, scaled to h-orthonormal with positive first
    components."""
    # divide and conquer: at M = 1000 (one BLAS thread, 2-vCPU KVM machine)
    # it takes 37 ms against 2.2 s for the QR routine stev, and its vectors
    # are orthonormal to 2.8e-15 (stev: 7.5e-15).  The wrapper copies diag
    # and offdiag, which the lifts read afterwards.
    lam, vec, info = dstevd(operator.diag, operator.offdiag, compute_v=1)
    if info != 0:
        raise EigenSolverFailure(f"LAPACK dstevd failed with info = {info}")
    # euclidean-orthonormal columns -> h-orthonormal after 1/sqrt(h) scaling,
    # done with the sign flip as one in-place column scale
    first = vec[0, :].copy()
    for i in np.flatnonzero(first == 0.0):
        nz = np.flatnonzero(vec[:, i])
        first[i] = vec[nz[0], i] if nz.size else 1.0
    vec *= np.where(first < 0.0, -1.0, 1.0) / np.sqrt(operator.h)
    return lam, vec


def select_unstable(lambdas: np.ndarray, rho: float) -> int:
    """Largest N with lambda_N < rho.  N = 0 means nothing to control."""
    if np.min(np.abs(lambdas - rho)) < RHO_GAP_TOLERANCE:
        i = int(np.argmin(np.abs(lambdas - rho)))
        raise RhoOnEigenvalue(f"rho = {rho} sits on eigenvalue {lambdas[i]}")
    n = int(np.searchsorted(lambdas, rho))
    if n == 0:
        warnings.warn(
            "no eigenvalue below rho: the feedback is identically zero",
            stacklevel=2,
        )
    return n


def boundary_flux(mode: np.ndarray, h: float) -> float | np.ndarray:
    """The coupling of a Dirichlet mode to the boundary input, -phi_M / h.

    The plant adds its boundary value u to the last node as u / h^2, which
    drives <w, phi>_h by h phi_M u / h^2 = -flux u, so the gain is placed
    against the flux the engines step.  With phi(L) = phi''(L) = 0 it is
    also a second-order approximation of the outward normal derivative.
    A float for one mode, an array (one entry per column) for a matrix.
    """
    flux = -mode[-1] / h
    return flux if np.ndim(flux) else float(flux)


def compute_spectrum(
    problem: ValidatedProblem, c: np.ndarray, rho: float
) -> Spectrum:
    """Assemble, decompose and classify: the one-stop spectral pipeline."""
    op = assemble_operator(problem, c)
    lam, basis = _eigenbasis(op)
    return Spectrum(lambdas=lam, basis=basis, unstable_count=select_unstable(lam, rho),
                    rho=float(rho), operator=op)


def linearized_spectrum(spec: ProblemSpec | ValidatedProblem) -> tuple[ValidatedProblem, Spectrum]:
    """The validated problem and the spectrum of its linearization about the
    equilibrium, classified at its target_rate."""
    problem = validate_spec(spec)
    c = linearized_coefficient(problem)
    return problem, compute_spectrum(problem, c, problem.spec.target_rate)


def laplacian_spectrum(problem: ValidatedProblem) -> Spectrum:
    """Spectrum of the pure -Laplacian (c = 0); all eigenvalues positive.

    Its eigenvalues and modes are the mu_j and sine modes e_j of
    sobolev_norm, in closed form.
    """
    op = assemble_operator(problem, np.zeros(problem.m))
    lam, basis = _eigenbasis(op)
    return Spectrum(lambdas=lam, basis=basis, unstable_count=0, rho=0.0, operator=op)


def l2_norm(y: np.ndarray, h: float) -> float:
    return float(np.sqrt(h) * np.linalg.norm(y))


def project(y: np.ndarray, spectrum: Spectrum, n: int | None = None) -> np.ndarray:
    """First n modal coordinates <y, phi_i>_h (default: the unstable ones)."""
    if n is None:
        n = spectrum.unstable_count
    return spectrum.h * (spectrum.columns(n).T @ y)


def sobolev_norm(y: np.ndarray, s: float, h: float, *,
                 coordinates: bool = False) -> float | np.ndarray:
    """Fractional norm sqrt(sum_j mu_j^s <y, e_j>_h^2) over all M modes.

    mu_j = (4/h^2) sin^2(j pi / (2(M+1))) and e_j are the eigenvalues and
    h-orthonormal sine modes of the pure -Laplacian on the uniform grid, so
    every weight mu_j^s is real and positive; s = 0 recovers the discrete
    L2 norm.  The coordinates come from a DST-I, taken as the FFT of the
    odd extension of y.

    y is one row (a float is returned) or an (n, M) stack of rows (n norms
    are returned).  The DST-I of a stack is taken in blocks of
    SOBOLEV_BLOCK_ROWS rows (_odd_sine_blocks); each row's norm is the same
    arithmetic as a one-row call, bit for bit.  With ``coordinates`` the
    rows are the <y, e_j>_h themselves, and no transform is taken.
    """
    if not 0.0 <= s < 1.0:
        raise ValueError(f"s must lie in [0, 1), got {s}")
    rows = np.atleast_2d(y)
    m = rows.shape[1]
    mu_s = _sobolev_weights(m, h, s)
    if coordinates:
        return np.sqrt((rows * rows) @ mu_s)
    weighted = []
    for _, sines in _odd_sine_blocks(rows):
        # <y, e_j>_h^2 is h/(2(M+1)) times the square of -2 sum_i y_i sin(i j pi / (M+1))
        weighted += [np.dot(mu_s, row) for row in sines * sines]
    norms = np.sqrt(h / (2.0 * (m + 1)) * np.array(weighted))
    return float(norms[0]) if np.ndim(y) == 1 else norms


def _odd_sine_blocks(rows: np.ndarray):
    """Yield (start, S) for the consecutive blocks of SOBOLEV_BLOCK_ROWS rows
    of an (n, M) stack, S[k, j - 1] = -2 sum_i rows[start + k, i - 1]
    sin(i j pi / (M+1)) for j = 1..M: -2 times the DST-I of each row, read
    off as the imaginary part of the FFT of its odd extension
    (0, y, 0, -reversed y).  One rfft per block bounds the scratch memory,
    and a row's S is the same arithmetic in any block, bit for bit."""
    m = rows.shape[1]
    for start in range(0, len(rows), SOBOLEV_BLOCK_ROWS):
        block = rows[start : start + SOBOLEV_BLOCK_ROWS]
        zero = np.zeros((len(block), 1))
        yield start, np.fft.rfft(np.hstack((zero, block, zero, -block[:, ::-1])))[:, 1 : m + 1].imag


def _sine_products(y: np.ndarray, h: float, factor: float) -> np.ndarray:
    """factor * Phi y for one row y or each row of an (n, M) stack, with
    the symmetric sine modes Phi = sqrt(2 / (h (M+1))) sin(i j pi / (M+1)):
    Spectrum's nodal (factor 1) and modal (factor h) products."""
    rows = np.atleast_2d(y)
    # _odd_sine_blocks gives -2 times the sine sums
    scale = factor * (-0.5 * math.sqrt(2.0 / (h * (rows.shape[1] + 1))))
    out = np.empty(rows.shape)
    for start, sines in _odd_sine_blocks(rows):
        np.multiply(sines, scale, out=out[start : start + len(sines)])
    return out if np.ndim(y) == 2 else out[0]


@functools.lru_cache(maxsize=32)
def _sobolev_weights(m: int, h: float, s: float) -> np.ndarray:
    """Read-only mu_j^s of sobolev_norm, built once per (M, h, s)."""
    mu = (4.0 / h**2) * np.sin(np.arange(1, m + 1) * (np.pi / (2 * (m + 1)))) ** 2
    mu **= s
    mu.flags.writeable = False
    return mu


def spectrum_to_csv(spectrum: Spectrum) -> str:
    """CSV with columns index,lambda,boundary_flux (17 significant digits)."""
    buf = io.StringIO()
    buf.write("index,lambda,boundary_flux\n")
    for i in range(spectrum.m):
        buf.write(
            f"{i + 1},{spectrum.lambdas[i]:.17g},{spectrum.boundary_flux[i]:.17g}\n"
        )
    return buf.getvalue()


def modes_to_csv(spectrum: Spectrum) -> str:
    """Matrix dump of the modes, one row per interior node (17 significant
    digits, one %-format per row)."""
    fmt = ",".join(["%.17g"] * spectrum.modes.shape[1]) + "\n"
    return "".join([fmt % tuple(row.tolist()) for row in spectrum.modes])
