"""Operator assembly: stencils, boundary conditions, covariances, circle."""

from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings

import fluxlab as fl
from fluxlab.config import load_config
from fluxlab.errors import BadSlit, InconsistentSizes, TooFewPoints
from fluxlab.eigensolver import gershgorin_bounds
from fluxlab.operators import make_slit
from oracles import hermiticity_defect, neighbors, window_ray_slit
from test_geometry import small_domains


def test_chain_is_second_difference_matrix():
    spec = fl.DomainSpec(outer=fl.Rect(0, 0, 1, 0), spacing=0.1)
    g = fl.build_grid(spec)
    H = fl.assemble_magnetic(g, fl.zero_field(g))
    n, h2 = 11, 0.1**2
    want = np.zeros((n, n))
    for i in range(n):
        want[i, i] = (2 if 0 < i < n - 1 else 1) / h2
        if i + 1 < n:
            want[i, i + 1] = want[i + 1, i] = -1 / h2
    # rows follow lexicographic vertex order = position order on a chain
    assert np.allclose(H.matrix.toarray().real, want, atol=0)
    lam, vec = np.linalg.eigh(H.matrix.toarray())
    assert abs(lam[0]) < 1e-12
    v = vec[:, 0]
    assert np.max(np.abs(v - v[0])) < 1e-9  # constant ground state


def test_strip_zero_mode():
    spec = fl.DomainSpec(outer=fl.Rect(0, 0, 2, 0.1), spacing=0.1)
    g = fl.build_grid(spec)
    H = fl.assemble_magnetic(g, fl.zero_field(g))
    r = fl.lowest_eigenpairs(H, 2, tol=1e-12)
    assert abs(r.eigenvalues[0]) < 1e-10
    v = r.eigenvectors[:, 0]
    assert np.max(np.abs(v - v[0])) < 1e-7


def test_annulus_zero_flux_zero_mode(annulus):
    H = fl.assemble_magnetic(annulus, fl.zero_field(annulus))
    r = fl.lowest_eigenpairs(H, 2, tol=1e-11)
    assert abs(r.eigenvalues[0]) < 1e-9
    assert r.eigenvalues[1] > 1.0


def test_annulus_half_flux_positive(annulus_half_solve):
    _, r = annulus_half_solve
    assert r.eigenvalues[0] > 0.1


def test_stencil_values(annulus):
    f = fl.aharonov_bohm_potential(annulus, [0.3])
    V = np.linspace(0.0, 1.0, annulus.n_vertices)
    H = fl.assemble_magnetic(annulus, f, V=V)
    A = H.matrix.tocsr()
    h2 = annulus.spacing**2
    e = annulus.n_edges // 3
    v, w = map(int, annulus.edges[e])
    assert abs(A[v, w] - (-np.exp(-1j * f.theta[e]) / h2)) < 1e-14 / h2
    deg = len(neighbors(annulus, v))
    assert abs(A[v, v] - (deg / h2 + V[v])) < 1e-12


def test_hermiticity(annulus):
    f = fl.aharonov_bohm_potential(annulus, [0.27])
    H = fl.assemble_magnetic(annulus, f)
    maxentry = np.max(np.abs(H.matrix.data))
    assert hermiticity_defect(H.matrix) <= 1e-14 * maxentry


def test_gauge_covariance_spectrum(annulus):
    f = fl.aharonov_bohm_potential(annulus, [0.4])
    chi = np.random.default_rng(7).uniform(-4, 4, annulus.n_vertices)
    g = fl.gauge_transform(f, chi)
    H = fl.assemble_magnetic(annulus, f)
    Hg = fl.assemble_magnetic(annulus, g)
    # H(theta + d chi) = U H(theta) U* with U = diag(exp(i chi))
    U = np.exp(1j * chi)
    lhs = Hg.matrix.toarray()
    rhs = (U[:, None] * H.matrix.toarray()) * np.conj(U[None, :])
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * np.max(np.abs(lhs))
    r = fl.lowest_eigenpairs(H, 2, tol=1e-11)
    rg = fl.lowest_eigenpairs(Hg, 2, tol=1e-11)
    assert np.max(np.abs(r.eigenvalues - rg.eigenvalues) / (1 + np.abs(r.eigenvalues))) < 1e-12


def test_conjugation_covariance(annulus):
    f = fl.aharonov_bohm_potential(annulus, [0.3])
    fneg = fl.aharonov_bohm_potential(annulus, [-0.3])
    H = fl.assemble_magnetic(annulus, f)
    Hn = fl.assemble_magnetic(annulus, fneg)
    d = (Hn.matrix - H.matrix.conjugate()).tocoo()
    assert d.nnz == 0 or np.max(np.abs(d.data)) == 0.0
    lam = fl.lowest_eigenpairs(H, 1, tol=1e-11).eigenvalues[0]
    lamn = fl.lowest_eigenpairs(Hn, 1, tol=1e-11).eigenvalues[0]
    assert abs(lam - lamn) < 1e-11 * (1 + abs(lam))


def test_diamagnetic_bound(annulus):
    lam0 = fl.lowest_eigenpairs(fl.assemble_magnetic(annulus, fl.zero_field(annulus)), 1, tol=1e-11).eigenvalues[0]
    for flux in (0.1, 0.3, 0.5, 0.8):
        f = fl.aharonov_bohm_potential(annulus, [flux])
        lam = fl.lowest_eigenpairs(fl.assemble_magnetic(annulus, f), 1, tol=1e-11).eigenvalues[0]
        assert lam >= lam0


def test_positivity_shift(annulus):
    V = np.random.default_rng(3).uniform(-2, 0, annulus.n_vertices)
    H = fl.assemble_magnetic(annulus, fl.zero_field(annulus), V=V)
    lower, _ = gershgorin_bounds(H.matrix)
    c = max(0.0, -lower) + 1.0
    lam = fl.lowest_eigenpairs(H, 1, tol=1e-10).eigenvalues[0]
    assert lam + c > 0.5


def test_dirichlet_removes_boundary(annulus):
    H = fl.assemble_magnetic(annulus, fl.zero_field(annulus), bc="dirichlet")
    interior = int(np.count_nonzero(annulus.boundary_labels < 0))
    assert H.n == interior
    assert fl.lowest_eigenpairs(H, 1, tol=1e-10).eigenvalues[0] > 0.5


def test_inconsistent_potential(annulus):
    with pytest.raises(InconsistentSizes):
        fl.assemble_magnetic(annulus, fl.zero_field(annulus), V=np.zeros(5))


def test_circle_integer_flux():
    for alpha, n in ((0.0, 64), (1.0, 256)):
        H = fl.assemble_circle(n, alpha)
        r = fl.lowest_eigenpairs(H, 1, tol=1e-11)
        assert abs(r.eigenvalues[0]) < 1e-9


def test_circle_half_flux_degenerate_quarter():
    H = fl.assemble_circle(256, 0.5)
    r = fl.lowest_eigenpairs(H, 3, tol=1e-11)
    assert abs(r.eigenvalues[0] - 0.25) < 2e-4
    assert abs(r.eigenvalues[1] - r.eigenvalues[0]) < 1e-10
    assert r.eigenvalues[2] > 1.5


def test_circle_too_few_points():
    with pytest.raises(TooFewPoints):
        fl.assemble_circle(7, 0.5)


def test_radial_slit_kills_zero_mode(annulus):
    slit = fl.radial_slit(annulus, 1, 0.0)
    assert annulus.boundary_labels[slit.vertices[0]] >= 0
    assert annulus.boundary_labels[slit.vertices[-1]] >= 0
    assert slit.start_label != slit.end_label
    H = fl.assemble_slit(annulus, fl.zero_field(annulus), slit=slit)
    lam = fl.lowest_eigenpairs(H, 1, tol=1e-11).eigenvalues[0]
    assert lam > 0.1


def test_rotated_slit_same_eigenvalue(annulus):
    # the lattice is invariant under quarter turns, so axis-aligned slits
    # give identical operators up to relabeling
    lams = []
    for ang in (0.0, np.pi / 2):
        slit = fl.radial_slit(annulus, 1, ang)
        H = fl.assemble_slit(annulus, fl.zero_field(annulus), slit=slit)
        lams.append(fl.lowest_eigenpairs(H, 1, tol=1e-11).eigenvalues[0])
    assert abs(lams[0] - lams[1]) < 1e-8 * (1 + abs(lams[0]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_domains())
def test_radial_slit_matches_the_window_walk(grid):
    assume(grid.k == 1)
    for t in range(32):
        angle = 2 * np.pi * t / 32
        try:
            want = window_ray_slit(grid, 1, angle)
        except BadSlit:
            continue
        assert fl.radial_slit(grid, 1, angle) == want


def test_radial_slits_stop_at_the_first_boundary(two_holes):
    for hole in (1, 2):
        for t in range(32):
            assert fl.radial_slit(two_holes, hole, 2 * np.pi * t / 32).start_label == hole
    # the ray from hole 1 towards hole 2 ends on it: the lattice row y =
    # 0.48 nearest the centres, from x = 1.2 to 1.8 at h = 0.04.  The walk
    # to the window's edge keeps the points beyond hole 2 too, and the gap
    # is no slit
    slit = fl.radial_slit(two_holes, 1, 0.0)
    assert (slit.start_label, slit.end_label) == (1, 2)
    assert np.allclose(two_holes.xy[list(slit.vertices)], np.column_stack([np.linspace(1.2, 1.8, 16), np.full(16, 0.48)]))
    with pytest.raises(BadSlit, match="not lattice neighbors"):
        window_ray_slit(two_holes, 1, 0.0)


def test_bad_slit_same_component(annulus):
    # find two 4-adjacent vertices on the outer boundary (staircase flats)
    pair = None
    for v in annulus.boundary_vertices(0):
        for u in neighbors(annulus, int(v)):
            if annulus.boundary_labels[u] == 0:
                pair = (int(v), int(u))
                break
        if pair:
            break
    assert pair is not None
    with pytest.raises(BadSlit):
        make_slit(annulus, list(pair))


def test_bad_slit_interior_endpoint(annulus):
    interior = np.nonzero(annulus.boundary_labels < 0)[0]
    v = int(interior[0])
    w = neighbors(annulus, v)[0]
    with pytest.raises(BadSlit):
        make_slit(annulus, [v, w])


def test_bad_slit_steps(annulus):
    verts = list(fl.radial_slit(annulus, 1, 0.3).vertices)
    assert make_slit(annulus, verts).vertices == tuple(verts)
    gap = verts[:2] + verts[3:]
    repeat = verts[:2] + verts[1:]
    diagonal = []
    for v in verts:
        i, j = annulus.ij[v]
        d = int(annulus._vid[i + 1 - annulus._window[0], j + 1 - annulus._window[1]])
        if d >= 0:
            diagonal = verts[: verts.index(v) + 1] + [d]
            break
    for bad, pair in ((gap, (verts[1], verts[3])), (repeat, (verts[1], verts[1])), (diagonal, diagonal[-2:])):
        with pytest.raises(BadSlit, match=f"vertices {pair[0]} and {pair[1]} are not lattice neighbors"):
            make_slit(annulus, bad)
    for bad in (verts + [annulus.n_vertices], [-1] + verts):
        with pytest.raises(BadSlit):
            make_slit(annulus, bad)


def test_shortest_slit(annulus):
    outer = annulus.boundary_vertices(0)
    slit = fl.shortest_slit(annulus, 1, int(outer[len(outer) // 2]))
    assert slit.start_label == 0 and slit.end_label == 1
    H = fl.assemble_slit(annulus, fl.zero_field(annulus), slit=slit)
    assert fl.lowest_eigenpairs(H, 1, tol=1e-10).eigenvalues[0] > 0.1


def deque_bfs_slit(grid, hole, outer_vertex, sort_neighbors=False):
    """The former Python BFS of shortest_slit, kept as the oracle; it visits
    neighbors in +x, -x, +y, -y order, or ascending with sort_neighbors."""
    prev = np.full(grid.n_vertices, -2, dtype=np.int64)
    prev[outer_vertex] = -1
    q = deque([int(outer_vertex)])
    goal = -1
    while q:
        v = q.popleft()
        if grid.boundary_labels[v] == hole:
            goal = v
            break
        nbrs = neighbors(grid, v)
        for w in sorted(nbrs) if sort_neighbors else nbrs:
            if prev[w] == -2:
                prev[w] = v
                q.append(w)
    path = []
    v = goal
    while v != -1:
        path.append(int(v))
        v = int(prev[v])
    return path[::-1]


@pytest.mark.parametrize("name", ["annulus", "annulus_offset"])
def test_shortest_slit_matches_deque_bfs(name):
    # every outer vertex the slit family picks in shortest mode
    cfg = load_config(f"configs/{name}.cfg")
    grid = fl.build_grid(cfg.domain)
    outer = grid.boundary_vertices(0)
    picks = outer[np.linspace(0, outer.size - 1, cfg.slit.count).astype(int)]
    for v in picks:
        path = list(fl.shortest_slit(grid, 1, int(v)).vertices)
        # ascending neighbor order is the new tie-break: the same path
        assert path == deque_bfs_slit(grid, 1, int(v), sort_neighbors=True)
        # the old order may break ties otherwise, never at another length
        old = deque_bfs_slit(grid, 1, int(v))
        assert len(path) == len(old) and path[0] == old[0] == int(v)
