"""Twofold cover: cut parities, cover phase, lift isometry, conjugation."""

from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from scipy import sparse

import fluxlab as fl
from fluxlab.cover import spanning_tree, tree_potential
from fluxlab.eigensolver import gershgorin_bounds
from fluxlab.errors import (
    DisconnectedCover,
    DisconnectedDomain,
    InconsistentHolonomy,
    NonHalfIntegerFlux,
)

from oracles import DegenerateProjection, conjugation_operator, real_representative, real_representatives
from test_geometry import small_domains


def loop_cut_parity(grid, cover, loop):
    return sum(int(cover.cuts[grid.edge_id(v, w)[0]]) for v, w in loop.edges) % 2


def test_annulus_half_flux_cover_connected(annulus, annulus_half, annulus_cover):
    cov, _ = annulus_cover
    assert cov.connected and not cov.is_trivial
    loop = fl.hole_loop(annulus, 1)
    assert loop_cut_parity(annulus, cov, loop) == 1


def test_zero_flux_cover_trivial(annulus):
    cov = fl.build_cover(fl.as_edge_graph(annulus, fl.zero_field(annulus)))
    assert cov.is_trivial and not cov.connected
    loop = fl.hole_loop(annulus, 1)
    assert loop_cut_parity(annulus, cov, loop) == 0
    with pytest.raises(DisconnectedCover):
        fl.build_theta(cov)


def test_two_hole_parity_oracle(two_holes):
    # parity oracle: a loop's cut parity equals twice the sum of the fluxes
    # it winds around, mod 2
    f = fl.aharonov_bohm_potential(two_holes, [0.5, 0.5])
    cov = fl.build_cover(fl.as_edge_graph(two_holes, f))
    for i in (1, 2):
        loop = fl.hole_loop(two_holes, i)
        assert loop_cut_parity(two_holes, cov, loop) == 1
    # rectangle loop around both holes: total flux 1, parity even
    idx = {tuple(ij): t for t, ij in enumerate(map(tuple, two_holes.ij))}
    h = two_holes.spacing
    a0, a1 = int(round(0.3 / h)), int(round(2.7 / h))
    b0, b1 = int(round(0.12 / h)), int(round(0.88 / h))
    corners = [(a0, b0), (a1, b0), (a1, b1), (a0, b1)]
    path = []
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        dx, dy = np.sign(x1 - x0), np.sign(y1 - y0)
        x, y = x0, y0
        while (x, y) != (x1, y1):
            path.append(idx[(x, y)])
            x, y = x + dx, y + dy
    loop = fl.LatticeLoop(edges=tuple((path[t], path[(t + 1) % len(path)]) for t in range(len(path))))
    assert abs(fl.circulation(f, loop) - 1.0) < 1e-10
    assert loop_cut_parity(two_holes, cov, loop) == 0


def test_contractible_plaquettes_even(annulus, annulus_cover):
    cov, _ = annulus_cover
    from fluxlab.nodal import _cut_rasters

    cx, cy = _cut_rasters(annulus, cov)
    act = annulus._vid >= 0
    cells = act[:-1, :-1] & act[1:, :-1] & act[:-1, 1:] & act[1:, 1:]
    for a, b in np.argwhere(cells)[::17]:
        parity = int(cx[a, b]) ^ int(cy[a + 1, b]) ^ int(cx[a, b + 1]) ^ int(cy[a, b])
        assert parity == 0


def test_non_half_integer_flux_rejected(annulus):
    f = fl.aharonov_bohm_potential(annulus, [0.3])
    with pytest.raises(NonHalfIntegerFlux):
        fl.build_cover(fl.as_edge_graph(annulus, f))
    with pytest.raises(NonHalfIntegerFlux):
        conjugation_operator(annulus, fl.aharonov_bohm_potential(annulus, [0.26]))


def test_circle_cover_phase_closed_form():
    cg = fl.circle_graph(8, 0.5)
    cov = fl.build_cover(cg)
    assert cov.connected and cov.n == 16
    th = fl.build_theta(cov)
    # gradient of the cover phase is pi/8 on every cover edge, mod 2 pi
    for (x, y), t in zip(cov.cover_edges(), np.tile(cg.theta, 2)):
        d = th[y] - th[x] - t
        assert abs(d - 2 * np.pi * round(d / (2 * np.pi))) < 1e-10
    # half-turn on the base accumulates pi on the cover
    z = np.exp(1j * th)
    assert np.max(np.abs(z[cov.deck(np.arange(16))] + z)) < 1e-10


def test_annulus_cover_phase_single_valued(annulus, annulus_cover):
    cov, th = annulus_cover
    cg = cov.as_edge_graph()
    a, b = cg.edges[:, 0], cg.edges[:, 1]
    mism = th[a] + cg.theta - th[b]
    off = np.abs(mism - 2 * np.pi * np.round(mism / (2 * np.pi)))
    assert off.max() < 1e-10


def test_lift_isometry_and_antisymmetry(annulus, annulus_cover):
    cov, th = annulus_cover
    rng = np.random.default_rng(5)
    u = rng.standard_normal(annulus.n_vertices) + 1j * rng.standard_normal(annulus.n_vertices)
    lu = fl.lift_to_cover(u, th)
    assert abs(np.linalg.norm(lu) / np.linalg.norm(u) - 1.0) < 1e-12
    assert np.max(np.abs(lu[cov.deck(np.arange(cov.n))] + lu)) < 1e-10 * np.max(np.abs(lu))
    assert np.all(fl.lift_to_cover(np.zeros(annulus.n_vertices), th) == 0)


def test_lift_intertwines(annulus, annulus_half_solve, annulus_cover):
    H, r = annulus_half_solve
    cov, th = annulus_cover
    Hl = fl.assemble_lifted(cov)
    for j in range(2):
        lu = fl.lift_to_cover(r.eigenvectors[:, j], th)
        res = np.linalg.norm(Hl.matrix @ lu - r.eigenvalues[j] * lu)
        assert res <= 10 * 1e-11 * max(map(abs, gershgorin_bounds(Hl.matrix)))


def test_trivial_cover_two_copies(annulus):
    cov = fl.build_cover(fl.as_edge_graph(annulus, fl.zero_field(annulus)))
    H0 = fl.assemble_magnetic(annulus, fl.zero_field(annulus))
    r0 = fl.lowest_eigenpairs(H0, 2, tol=1e-11)
    rl = fl.lowest_eigenpairs(fl.assemble_lifted(cov), 4, tol=1e-11)
    doubled = np.repeat(r0.eigenvalues, 2)
    assert np.max(np.abs(rl.eigenvalues - doubled) / (1 + np.abs(doubled))) < 1e-9


def test_circle_antisymmetric_spectrum_is_magnetic():
    n = 64
    cov = fl.build_cover(fl.circle_graph(n, 0.5))
    ra = fl.lowest_eigenpairs(fl.antisymmetric_block(cov), 3, tol=1e-12)
    rm = fl.lowest_eigenpairs(fl.assemble_circle(n, 0.5), 3, tol=1e-12)
    assert np.max(np.abs(ra.eigenvalues - rm.eigenvalues) / np.abs(rm.eigenvalues)) < 1e-10


def test_annulus_antisymmetric_spectrum(annulus, annulus_half_solve, annulus_cover):
    _, r = annulus_half_solve
    cov, _ = annulus_cover
    ra = fl.lowest_eigenpairs(fl.antisymmetric_block(cov), 3, tol=1e-11)
    assert np.max(np.abs(ra.eigenvalues - r.eigenvalues) / np.abs(r.eigenvalues)) < 1e-8


def test_antisymmetric_block_bit_identical_to_signed_hops(annulus, annulus_cover):
    # reference: the block written out directly, hop +1/h^2 on cut edges
    cov, _ = annulus_cover
    n, (a, b) = annulus.n_vertices, annulus.edges.T
    V = np.random.default_rng(3).uniform(0.0, 5.0, n)
    inv_h2 = 1.0 / annulus.spacing**2
    deg = np.bincount(annulus.edges.ravel(), minlength=n).astype(float)
    hop = np.where(cov.cuts, inv_h2, -inv_h2)
    for pot in (None, V):
        diag = deg * inv_h2 + (0.0 if pot is None else pot)
        want = sparse.csr_matrix(
            (np.concatenate([hop, hop, diag]),
             (np.concatenate([a, b, np.arange(n)]), np.concatenate([b, a, np.arange(n)]))),
            shape=(n, n),
        )
        want.sum_duplicates()
        got = fl.antisymmetric_block(cov, V=pot).matrix
        assert got.dtype == np.float64
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
    # the magnetic side of the cover equivalence stays an independent complex solve
    assert np.iscomplexobj(fl.assemble_magnetic(annulus, fl.aharonov_bohm_potential(annulus, [0.5])).matrix)


def test_symmetric_block_is_zero_flux(annulus, annulus_cover):
    # the symmetric sector 1/2 P^T Hl P of the lifted operator, P = [I; I],
    # is the zero-flux operator entry for entry, with and without V
    cov, _ = annulus_cover
    n = annulus.n_vertices
    V = np.random.default_rng(5).uniform(0.0, 5.0, n)
    P = sparse.vstack([sparse.identity(n)] * 2)
    for pot in (None, V):
        Hs = 0.5 * (P.T @ fl.assemble_lifted(cov, V=pot).matrix @ P)
        H0 = fl.assemble_magnetic(annulus, fl.zero_field(annulus), V=pot)
        d = (Hs - H0.matrix).tocoo()
        assert d.nnz == 0 or np.max(np.abs(d.data)) == 0.0


def test_conjugation_zero_flux_is_plain_conjugation(annulus):
    K = conjugation_operator(annulus, fl.zero_field(annulus))
    u = np.linspace(0, 1, annulus.n_vertices)  # real vector
    assert np.max(np.abs(K.apply(u) - u)) < 1e-14


def test_conjugation_squares_to_identity(annulus, annulus_half):
    K = conjugation_operator(annulus, annulus_half)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(annulus.n_vertices) + 1j * rng.standard_normal(annulus.n_vertices)
    assert np.max(np.abs(K.apply(K.apply(u)) - u)) <= 1e-12 * np.max(np.abs(u))


def test_conjugation_commutes(annulus, annulus_half, annulus_half_solve):
    H, _ = annulus_half_solve
    K = conjugation_operator(annulus, annulus_half)
    rng = np.random.default_rng(13)
    for _ in range(5):
        u = rng.standard_normal(annulus.n_vertices) + 1j * rng.standard_normal(annulus.n_vertices)
        lhs = K.apply(H.matrix @ u)
        rhs = H.matrix @ K.apply(u)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(map(abs, gershgorin_bounds(H.matrix))) * np.linalg.norm(u)


def test_simple_eigenvector_is_k_eigenvector(offset_annulus):
    # off-center hole: simple ground state, so Ku = cu with |c| = 1
    f = fl.aharonov_bohm_potential(offset_annulus, [0.5])
    H = fl.assemble_magnetic(offset_annulus, f)
    r = fl.lowest_eigenpairs(H, 3, tol=1e-11)
    assert r.eigenvalues[1] - r.eigenvalues[0] > 1e-3  # genuinely simple
    K = conjugation_operator(offset_annulus, f)
    u = r.eigenvectors[:, 0]
    ku = K.apply(u)
    c = np.vdot(u, ku)
    assert abs(abs(c) - 1.0) < 1e-8
    assert np.linalg.norm(ku - c * u) < 1e-7


def test_real_representatives_simple(offset_annulus):
    f = fl.aharonov_bohm_potential(offset_annulus, [0.5])
    H = fl.assemble_magnetic(offset_annulus, f)
    r = fl.lowest_eigenpairs(H, 1, tol=1e-11)
    K = conjugation_operator(offset_annulus, f)
    # unique up to sign: representatives from gauge-rotated inputs agree
    a = real_representative(r.eigenvectors[:, 0], K)
    b = real_representative(np.exp(1j * 0.8) * r.eigenvectors[:, 0], K)
    assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) < 1e-7


def test_real_representatives_pair_span(annulus, annulus_half, annulus_half_solve):
    _, r = annulus_half_solve
    K = conjugation_operator(annulus, annulus_half)
    U = r.eigenvectors[:, :2]
    reps = real_representatives(U, K)
    assert reps.shape[1] == 2
    for j in range(2):
        q = reps[:, j]
        assert np.max(np.abs(K.apply(q) - q)) < 1e-8
    # a random unitary rotation of the basis gives the same fixed span
    rng = np.random.default_rng(23)
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    Qr, _ = np.linalg.qr(M)
    reps2 = real_representatives(U @ Qr, K)
    P1 = reps @ reps.conj().T
    P2 = reps2 @ reps2.conj().T
    assert np.max(np.abs(P1 - P2)) < 1e-8


def test_degenerate_projection_error(annulus, annulus_half):
    K = conjugation_operator(annulus, annulus_half)
    with pytest.raises(DegenerateProjection):
        real_representatives(np.zeros((annulus.n_vertices, 1), dtype=complex), K)


def oracle_tree_and_potential(graph):
    """Reference BFS over sorted Python adjacency lists and the per-vertex potential loop."""
    adj = [[] for _ in range(graph.n)]
    for e, (a, b) in enumerate(graph.edges):
        adj[a].append((int(b), e, 1))
        adj[b].append((int(a), e, -1))
    parent = np.full(graph.n, -1, dtype=np.int64)
    parent_edge = np.full(graph.n, -1, dtype=np.int64)
    parent_sign = np.zeros(graph.n, dtype=np.int8)
    is_tree = np.zeros(graph.edges.shape[0], dtype=bool)
    seen = np.zeros(graph.n, dtype=bool)
    seen[0] = True
    order, q = [], deque([0])
    while q:
        v = q.popleft()
        order.append(v)
        for w, e, sign in sorted(adj[v]):
            if not seen[w]:
                seen[w] = True
                parent[w], parent_edge[w], parent_sign[w] = v, e, sign
                is_tree[e] = True
                q.append(w)
    eta = np.zeros(graph.n)
    for v in order[1:]:
        eta[v] = eta[parent[v]] + parent_sign[v] * graph.theta[parent_edge[v]]
    return (np.array(order), parent, parent_edge, parent_sign, is_tree), eta


def test_spanning_tree_and_potential_match_oracle(annulus, annulus_cover):
    cov, _ = annulus_cover
    generic = fl.as_edge_graph(annulus, fl.aharonov_bohm_potential(annulus, [0.3]))
    for graph in (generic, cov.as_edge_graph()):
        tree = spanning_tree(graph)
        want_tree, want_eta = oracle_tree_and_potential(graph)
        for got, want in zip(tree, want_tree):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(tree_potential(graph, tree), want_eta)


def test_adjacency_rejects_repeated_edge():
    graph = fl.EdgeGraph(n=3, edges=np.array([[0, 1], [1, 2], [1, 0]]), theta=np.zeros(3), spacing=1.0)
    with pytest.raises(ValueError):
        graph.adjacency()


def test_spanning_tree_disconnected():
    graph = fl.EdgeGraph(n=4, edges=np.array([[0, 1], [2, 3]]), theta=np.zeros(2), spacing=1.0)
    with pytest.raises(DisconnectedDomain):
        spanning_tree(graph)


def test_inconsistent_holonomy():
    # corrupt one link phase so a cover cycle no longer closes mod 2 pi
    cg = fl.circle_graph(8, 0.5)
    cov = fl.build_cover(cg)
    bad = fl.CoverGraph(
        base=fl.EdgeGraph(n=8, edges=cg.edges, theta=cg.theta + np.eye(8)[0] * 0.3, spacing=cg.spacing),
        cuts=cov.cuts,
        eta=cov.eta,
    )
    with pytest.raises(InconsistentHolonomy):
        fl.build_theta(bad)


def test_wrong_cut_raises_inconsistent_holonomy(annulus, annulus_cover):
    cov, _ = annulus_cover
    cuts = cov.cuts.copy()
    cuts[np.argmax(~cuts)] = True
    bad = fl.CoverGraph(base=cov.base, cuts=cuts, eta=cov.eta)
    with pytest.raises(InconsistentHolonomy):
        fl.build_theta(bad)


def test_build_theta_builds_no_tree(annulus, annulus_cover, monkeypatch):
    cov, th = annulus_cover

    def no_tree(graph):
        raise AssertionError(f"spanning_tree called on {graph.n} vertices")

    monkeypatch.setattr(fl.cover, "spanning_tree", no_tree)
    monkeypatch.setattr(fl.cover, "tree_potential", no_tree)
    assert np.array_equal(fl.build_theta(cov), th)


@pytest.mark.parametrize("case", ["annulus", "two_holes", "circle"])
def test_conjugation_reads_the_cover_potential(request, case, monkeypatch):
    if case == "circle":
        graph = fl.circle_graph(64, 0.5)
    else:
        grid = request.getfixturevalue(case)
        graph = fl.as_edge_graph(grid, fl.aharonov_bohm_potential(grid, [0.5] * grid.k))
    cov = fl.build_cover(graph)
    # psi as integrated along a tree of the base graph of its own
    want = -2.0 * tree_potential(graph, spanning_tree(graph))

    def no_tree(graph, *tree):
        raise AssertionError(f"tree built on {graph.n} vertices")

    monkeypatch.setattr(fl.cover, "spanning_tree", no_tree)
    monkeypatch.setattr(fl.cover, "tree_potential", no_tree)
    assert np.array_equal(fl.ConjugationOperator(cov).psi, want)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(small_domains())
def test_cover_phase_is_the_base_gauge_on_random_domains(grid):
    assume(grid.k == 1)
    field = fl.aharonov_bohm_potential(grid, [0.5])
    cov = fl.build_cover(fl.as_edge_graph(grid, field))
    th = fl.build_theta(cov)
    # oracle: the lifted link phases integrated along a tree of the cover
    cg = cov.as_edge_graph()
    want = tree_potential(cg, spanning_tree(cg))
    assert np.max(np.abs(np.exp(1j * th) - np.exp(1j * want))) <= 1e-10
    # the lift carries magnetic eigenpairs to lifted ones, within the
    # lift-intertwines-eigenpairs budget
    tol = 1e-10
    r = fl.lowest_eigenpairs(fl.assemble_magnetic(grid, field), 3, tol=tol)
    Hl = fl.assemble_lifted(cov).matrix
    budget = 10 * tol * max(map(abs, gershgorin_bounds(Hl)))
    for j in range(3):
        lu = fl.lift_to_cover(r.eigenvectors[:, j], th)
        assert np.linalg.norm(Hl @ lu - r.eigenvalues[j] * lu) <= budget
