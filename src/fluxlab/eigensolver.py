"""Lowest eigenpairs of sparse Hermitian matrices.

ARPACK (scipy's `eigsh`) in shift-invert mode about a Gershgorin shift below
the spectrum, with the shifted matrix factored once by SuperLU in symmetric
mode.  The shifted matrix is Hermitian positive definite, so diagonal pivots
need no row interchanges and the fill-reducing ordering acts on rows and
columns alike; on these lattices that halves the fill of a partial-pivoting
LU.  The inversion spreads the bottom of the spectrum, and m + 2 vectors are
computed so that clustered and exactly degenerate ground pairs are never cut
in half.  ARPACK's stopping tolerance is derived from the residual bound the
result is checked against, with a margin, so it stops well before round-off.
A Rayleigh-Ritz step against A itself then extracts orthonormal eigenpairs
and their residuals.  Everything is deterministic for a fixed seed.

Each solve runs on one BLAS thread: its dense work (ARPACK's basis updates,
the Rayleigh-Ritz product) is too small for a second thread to pay for its
synchronisation, and the experiments run independent solves in parallel
processes instead.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import NoConvergence

DEFAULT_SEED = 0x5EED
# ARPACK stops at this fraction of the residual bound that lowest_eigenpairs
# checks: the last pair of a degenerate cluster to converge can land close
# to where ARPACK stops, so the margin keeps it well under the bound
ARPACK_MARGIN = 1e-2


@dataclass
class EigenResult:
    eigenvalues: np.ndarray   # (m,) ascending
    eigenvectors: np.ndarray  # (n, m) orthonormal columns
    residuals: np.ndarray     # (m,) ||A u - lambda u||_2


# (package, library glob, symbol suffix) of the OpenBLAS builds that the
# numpy and scipy wheels bundle; numpy's has the 64-bit integer interface
_OPENBLAS_LIBS = (
    ("numpy", "libscipy_openblas64_*.so", "64_"),
    ("scipy", "libscipy_openblas*.so", ""),
)
_openblas_threads = None  # [(get, set)] once looked up


def _openblas_thread_controls():
    """The (get, set) thread-count functions of every bundled OpenBLAS found."""
    global _openblas_threads
    if _openblas_threads is None:
        import ctypes
        import glob
        import importlib

        _openblas_threads = []
        for package, pattern, suffix in _OPENBLAS_LIBS:
            site = os.path.dirname(os.path.dirname(importlib.import_module(package).__file__))
            for path in sorted(glob.glob(os.path.join(site, package + ".libs", pattern))):
                try:
                    lib = ctypes.CDLL(path)
                    get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                    set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
                except (OSError, AttributeError):
                    continue
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                _openblas_threads.append((get, set_))
    return _openblas_threads


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the old counts.

    Does nothing when the user has set OPENBLAS_NUM_THREADS or when no
    bundled OpenBLAS exposes the thread-count symbols.
    """
    controls = [] if "OPENBLAS_NUM_THREADS" in os.environ else _openblas_thread_controls()
    old = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, old):
            set_(n)


def _as_matrix(H):
    return getattr(H, "matrix", H).tocsr()


def gershgorin_bounds(A):
    """(lower, upper) bounds on the spectrum from Gershgorin disks.

    The absolute row sums are read off A's CSR arrays, summed as
    abs(A).sum(axis=1) sums them, with no copy of A's indices.
    """
    A = A.tocsr()
    A.sum_duplicates()
    diag = A.diagonal()
    rows = np.flatnonzero(np.diff(A.indptr))
    off = np.zeros(A.shape[0])
    off[rows] = np.add.reduceat(np.abs(A.data), A.indptr[rows])
    off -= np.abs(diag)
    return float((diag.real - off).min()), float((diag.real + off).max())


def _rayleigh_ritz(A, V, m) -> EigenResult:
    """The m lowest Ritz pairs of A on the span of V's columns.

    For complex input `eigsh` runs the non-Hermitian driver, whose vectors
    within a degenerate cluster are not orthonormal; the QR restores that.
    """
    Q, _ = np.linalg.qr(V)
    AQ = A @ Q
    T = Q.conj().T @ AQ
    mu, S = np.linalg.eigh(0.5 * (T + T.conj().T))
    U = Q @ S[:, :m]
    res = np.linalg.norm(AQ @ S[:, :m] - U * mu[:m], axis=0)
    return EigenResult(eigenvalues=mu[:m], eigenvectors=U, residuals=res)


def lowest_eigenpairs(H, m: int, tol: float = 1e-10, seed: int = DEFAULT_SEED, bounds=None) -> EigenResult:
    """Compute the m smallest eigenpairs of a sparse Hermitian matrix.

    bounds is a (lower, upper) pair that encloses the spectrum, by default
    gershgorin_bounds(A); the shift comes from lower and the norm from
    both.  tol is relative: every returned residual satisfies
    ||A u - lambda u|| <= tol * norm.  Raises NoConvergence (with the best
    result attached) when ARPACK stops short or a residual misses that
    bound.
    """
    A = _as_matrix(H)
    n = A.shape[0]
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < dimension, got m={m}, dimension={n}")
    if tol <= 0:
        raise ValueError("tol must be positive")

    with _one_blas_thread():
        return _solve(A, m, tol, seed, bounds or gershgorin_bounds(A))


def _solve(A, m, tol, seed, bounds) -> EigenResult:
    """Shift-invert ARPACK plus Rayleigh-Ritz; the body of lowest_eigenpairs."""
    n = A.shape[0]
    lower, upper = bounds
    norm_a = max(abs(lower), abs(upper), 1e-300)
    k = m + 2
    if k >= n - 1:
        # ARPACK needs k < n - 1; a matrix this small is solved densely
        V = np.linalg.eigh(A.toarray())[1][:, : min(k, n)]
    else:
        shift = max(0.0, -lower) + 1.0
        # A + shift*I is Hermitian positive definite with smallest eigenvalue
        # >= 1, so diagonal pivoting is stable; the residual check below
        # still catches any miss.  Panels and relaxed supernodes of 8 columns
        # factor faster than SuperLU's defaults at the same fill
        lu = splu(
            (A + shift * sparse.identity(n, dtype=A.dtype, format="csr")).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            relax=8,
            panel_size=8,
            options={"SymmetricMode": True},
        )
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n)
        if np.iscomplexobj(A):
            v0 = v0 + 1j * rng.standard_normal(n)
        op_inv = LinearOperator(A.shape, matvec=lu.solve, dtype=A.dtype)
        # ARPACK stops once ||OP x - theta x|| <= tol_op * |theta| for
        # OP = (A + shift*I)^-1.  Then (A - lambda) x = -(A + shift*I)(OP x -
        # theta x) / theta, whose norm is at most (norm_a + shift) * tol_op:
        # ARPACK_MARGIN times the bound checked below.  ncv = 2k + 1 is
        # ARPACK's recommended minimum basis
        tol_op = ARPACK_MARGIN * tol * norm_a / (norm_a + shift)
        try:
            V = eigsh(A, k, sigma=-shift, OPinv=op_inv, v0=v0, tol=tol_op, ncv=min(2 * k + 1, n))[1]
        except ArpackNoConvergence as exc:
            raise NoConvergence(
                f"ARPACK converged {exc.eigenvectors.shape[1]} of {k} eigenpairs",
                best_result=_rayleigh_ritz(A, exc.eigenvectors, m),
            ) from exc

    result = _rayleigh_ritz(A, V, m)
    if np.any(result.residuals > tol * norm_a):
        raise NoConvergence(
            f"residuals {result.residuals} exceed {tol} * {norm_a:.3e}", best_result=result
        )
    return result


def multiplicity_estimate(eigenvalues, cluster_tol: float) -> int:
    """Size of the leading cluster {l_i : l_i - l_1 <= cluster_tol*(1+|l_1|)}."""
    eigs = np.asarray(eigenvalues, dtype=float).reshape(-1)
    if eigs.size == 0:
        raise ValueError("empty eigenvalue list")
    if cluster_tol <= 0:
        raise ValueError("cluster_tol must be positive")
    lam1 = eigs[0]
    return int(np.count_nonzero(eigs - lam1 <= cluster_tol * (1.0 + abs(lam1))))
