"""Eigensolver against the dense oracle, and multiplicity clustering."""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence, splu

import fluxlab as fl
from fluxlab import eigensolver
from fluxlab.eigensolver import multiplicity_estimate
from fluxlab.errors import NoConvergence


def dense_eigs(H, m):
    return np.linalg.eigvalsh(H.matrix.toarray())[:m]


@pytest.mark.parametrize("m", [3, 7])  # 7 takes the dense path: m + 2 >= n - 1
@pytest.mark.parametrize("alpha", [0.0, 0.25])
def test_small_circle_matches_dense_oracle(alpha, m):
    H = fl.assemble_circle(8, alpha)
    r = fl.lowest_eigenpairs(H, m, tol=1e-12)
    want = dense_eigs(H, m)
    assert np.max(np.abs(r.eigenvalues - want)) < 1e-10
    G = r.eigenvectors.conj().T @ r.eigenvectors
    assert np.max(np.abs(G - np.eye(m))) < 1e-10
    if alpha == 0.0:
        assert abs(want[1] - want[2]) < 1e-12  # degenerate pair resolved


def test_circle_half_flux_pair():
    H = fl.assemble_circle(256, 0.5)
    r = fl.lowest_eigenpairs(H, 2, tol=1e-11)
    assert np.max(np.abs(r.eigenvalues - 0.25)) < 2e-4


def test_request_too_many():
    H = fl.assemble_circle(16, 0.0)
    with pytest.raises(ValueError):
        fl.lowest_eigenpairs(H, 16, tol=1e-9)
    with pytest.raises(ValueError):
        fl.lowest_eigenpairs(H, 0, tol=1e-9)
    with pytest.raises(ValueError):
        fl.lowest_eigenpairs(H, 3, tol=-1.0)


def test_oracle_equivalence_corpus():
    corpus = [
        fl.assemble_circle(64, a) for a in (0.0, 0.25, 0.5, 0.9)
    ]
    spec = fl.DomainSpec(outer=fl.Rect(0, 0, 1, 1), holes=(fl.Disk(0.5, 0.5, 0.2),), spacing=0.08)
    g = fl.build_grid(spec)
    for flux in (0.0, 0.5):
        corpus.append(fl.assemble_magnetic(g, fl.aharonov_bohm_potential(g, [flux])))
    for H in corpus:
        assert H.n <= 400
        r = fl.lowest_eigenpairs(H, 4, tol=1e-12)
        assert np.max(np.abs(r.eigenvalues - dense_eigs(H, 4))) < 1e-9


def test_eigenvector_invariants(annulus_half_solve):
    _, r = annulus_half_solve
    assert np.all(np.diff(r.eigenvalues) >= -1e-14)
    G = r.eigenvectors.conj().T @ r.eigenvectors
    assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-10


def test_variational_bound(annulus_half_solve):
    H, r = annulus_half_solve
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.standard_normal(H.n) + 1j * rng.standard_normal(H.n)
        v /= np.linalg.norm(v)
        rq = np.real(np.vdot(v, H.matrix @ v))
        assert r.eigenvalues[0] <= rq


def test_deterministic(annulus):
    f = fl.aharonov_bohm_potential(annulus, [0.3])
    H = fl.assemble_magnetic(annulus, f)
    a = fl.lowest_eigenpairs(H, 3, tol=1e-10)
    b = fl.lowest_eigenpairs(H, 3, tol=1e-10)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_factorization_is_symmetric_mode(annulus, monkeypatch):
    # the shifted matrix is Hermitian positive definite, so SuperLU runs
    # without row interchanges and with the ordering on both sides
    recorded = []

    def recording_splu(A, **kwargs):
        lu = splu(A, **kwargs)
        recorded.append((A, lu))
        return lu

    monkeypatch.setattr(fl.eigensolver, "splu", recording_splu)
    complex_h = fl.assemble_magnetic(annulus, fl.aharonov_bohm_potential(annulus, [0.3]))
    slit = fl.radial_slit(annulus, 1, 0.0)
    real_h = fl.assemble_slit(annulus, fl.zero_field(annulus), slit=slit)
    assert np.iscomplexobj(complex_h.matrix) and not np.iscomplexobj(real_h.matrix)
    for H in (complex_h, real_h):
        recorded.clear()
        r = fl.lowest_eigenpairs(H, 3, tol=1e-10)
        [(shifted, lu)] = recorded
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert lu.nnz < splu(shifted).nnz
        assert np.max(np.abs(r.eigenvalues - dense_eigs(H, 3))) < 1e-9


def test_no_convergence_reports_best(annulus):
    f = fl.aharonov_bohm_potential(annulus, [0.3])
    H = fl.assemble_magnetic(annulus, f)
    with pytest.raises(NoConvergence) as exc:
        fl.lowest_eigenpairs(H, 3, tol=1e-300)
    best = exc.value.best_result
    assert best is not None and best.residuals.shape == (3,)


def test_arpack_failure_becomes_no_convergence(monkeypatch):
    H = fl.assemble_circle(64, 0.25)
    partial = np.linalg.eigh(H.matrix.toarray())[1][:, :2]

    def stalled(A, k, **kwargs):
        raise ArpackNoConvergence("stalled", np.zeros(2), partial)

    monkeypatch.setattr(fl.eigensolver, "eigsh", stalled)
    with pytest.raises(NoConvergence) as exc:
        fl.lowest_eigenpairs(H, 3, tol=1e-10)
    best = exc.value.best_result
    assert best.eigenvalues.shape == (2,) and np.all(best.residuals < 1e-10)


def test_no_convergence_pickles_with_best_result(annulus):
    # a forked worker sends the exception back to the parent by pickle
    f = fl.aharonov_bohm_potential(annulus, [0.3])
    with pytest.raises(NoConvergence) as exc:
        fl.lowest_eigenpairs(fl.assemble_magnetic(annulus, f), 3, tol=1e-300)
    back = pickle.loads(pickle.dumps(exc.value))
    assert type(back) is NoConvergence and str(back) == str(exc.value)
    for field in ("eigenvalues", "eigenvectors", "residuals"):
        assert np.array_equal(getattr(back.best_result, field), getattr(exc.value.best_result, field))


class FakeThreads:
    """Stands in for one OpenBLAS library's thread-count functions."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, n):
        self.sets.append(n)
        self.count = n


def solve_recording_threads(monkeypatch, libs):
    monkeypatch.setattr(eigensolver, "_openblas_thread_controls", lambda: [(lib.get, lib.set) for lib in libs])
    during = []
    real_eigsh = eigensolver.eigsh

    def eigsh(*args, **kwargs):
        during.append([lib.count for lib in libs])
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "eigsh", eigsh)
    fl.lowest_eigenpairs(fl.assemble_circle(64, 0.25), 3)
    return during


def test_blas_pinned_to_one_thread_and_restored(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    libs = [FakeThreads(4), FakeThreads(2)]
    assert solve_recording_threads(monkeypatch, libs) == [[1, 1]]
    assert [lib.count for lib in libs] == [4, 2]
    assert [lib.sets for lib in libs] == [[1, 4], [1, 2]]


def test_blas_pin_off_when_user_sets_threads(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    libs = [FakeThreads(3)]
    assert solve_recording_threads(monkeypatch, libs) == [[3]]
    assert libs[0].sets == []


def test_blas_thread_count_restored_on_bundled_openblas(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    controls = eigensolver._openblas_thread_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS with thread-count symbols")
    before = [get() for get, _ in controls]
    during = []
    real_eigsh = eigensolver.eigsh

    def eigsh(*args, **kwargs):
        during.append([get() for get, _ in controls])
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "eigsh", eigsh)
    fl.lowest_eigenpairs(fl.assemble_circle(64, 0.25), 3)
    assert during == [[1] * len(controls)]
    assert [get() for get, _ in controls] == before


PINNED_VS_UNPINNED = """
import fluxlab as fl
spec = fl.DomainSpec(outer=fl.Disk(0, 0, 1.0), holes=(fl.Disk(0, 0, 0.3),), spacing=0.02)
grid = fl.build_grid(spec)
H = fl.assemble_magnetic(grid, fl.aharonov_bohm_potential(grid, [0.3]))
r = fl.lowest_eigenpairs(H, 3, tol=1e-10)
print(r.eigenvalues.tobytes().hex(), r.residuals.tobytes().hex(), r.eigenvectors.tobytes().hex()[:4096])
"""


def test_unpinned_process_matches_pinned():
    # without OPENBLAS_NUM_THREADS the solve pins itself, so it returns the
    # bits a process pinned by the environment returns
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fl.__file__)))
    env.pop("OPENBLAS_NUM_THREADS", None)
    run = lambda e: subprocess.run(
        [sys.executable, "-c", PINNED_VS_UNPINNED], env=e, capture_output=True, text=True, check=True
    ).stdout
    assert run(env) == run(dict(env, OPENBLAS_NUM_THREADS="1"))


def test_multiplicity_estimate_examples():
    assert multiplicity_estimate([0.25, 0.2500001, 0.9], 1e-4) == 2
    assert multiplicity_estimate([0.0, 0.5], 1e-4) == 1
    assert multiplicity_estimate([1.0, 1.0, 1.0], 1e-4) == 3
    with pytest.raises(ValueError):
        multiplicity_estimate([], 1e-4)
    with pytest.raises(ValueError):
        multiplicity_estimate([1.0], 0.0)
