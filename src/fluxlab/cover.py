"""Twofold covering lattice for half-integer circulations.

The cover doubles every vertex into sheets 0 and 1.  A spanning tree of the
base graph never changes sheet; a non-tree edge crosses sheets exactly when
the fundamental cycle it closes carries half-integer circulation.  On the
resulting graph every cycle has integer circulation, so the lifted link
phases integrate to a vertex phase that is single-valued mod 2*pi and flips
sign between sheets.  Multiplying by that phase turns the magnetic problem
into a real one: the magnetic spectrum is the antisymmetric part of the
spectrum of the plain lifted Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DisconnectedCover,
    DisconnectedDomain,
    InconsistentHolonomy,
    NonHalfIntegerFlux,
)
from .operators import EdgeGraph, HamiltonianMatrix, assemble

TWO_PI = 2.0 * np.pi
_CIRCULATION_TOL = 2e-9  # off an integer, for a doubled fundamental-cycle circulation
_PHASE_TOL = 1e-10  # radians, for the cover phase's closure and sign flip


def spanning_tree(graph: EdgeGraph):
    """BFS spanning tree from vertex 0 with sorted neighbor order.

    Returns (order, parent_vertex, parent_edge, parent_sign, is_tree_edge).
    Deterministic; raises DisconnectedDomain if the graph is disconnected.
    """
    from scipy.sparse.csgraph import breadth_first_order  # see geometry.link_components

    adj = graph.adjacency()
    # on sorted CSR rows the traversal visits neighbors in ascending order
    order, pred = breadth_first_order(adj, 0, directed=True, return_predecessors=True)
    if order.size != graph.n:
        raise DisconnectedDomain("graph is not connected")
    order = order.astype(np.int64)
    parent = pred.astype(np.int64)
    parent[0] = -1
    parent_edge = np.full(graph.n, -1, dtype=np.int64)
    parent_sign = np.zeros(graph.n, dtype=np.int8)
    child = order[1:]
    # the signed id of each tree edge, looked up in place in the CSR rows
    signed = np.asarray(adj[parent[child], child]).ravel()
    parent_edge[child] = np.abs(signed) - 1
    parent_sign[child] = np.sign(signed)
    is_tree = np.zeros(graph.edges.shape[0], dtype=bool)
    is_tree[parent_edge[child]] = True
    return order, parent, parent_edge, parent_sign, is_tree


def tree_potential(graph: EdgeGraph, tree) -> np.ndarray:
    """Integral of the link phases along the spanning tree, rooted at 0."""
    order, parent, parent_edge, parent_sign, _ = tree
    position = np.empty(graph.n, dtype=np.int64)
    position[order] = np.arange(graph.n)
    # parents' BFS positions are nondecreasing along the order, so the
    # children of the slice order[lo:hi] are the next contiguous slice
    parent_position = position[parent[order[1:]]]
    eta = np.zeros(graph.n)
    lo, hi = 0, 1
    while hi < graph.n:
        lo, hi = hi, 1 + int(np.searchsorted(parent_position, hi))
        v = order[lo:hi]
        eta[v] = eta[parent[v]] + parent_sign[v] * graph.theta[parent_edge[v]]
    return eta


@dataclass
class CoverGraph:
    """Twofold cover of a phased graph, cut edges chosen by cycle parity."""

    base: EdgeGraph
    cuts: np.ndarray        # (m,) bool, True where the edge crosses sheets
    eta: np.ndarray         # (n,) base tree potential, rooted at vertex 0
    _cover_edges: np.ndarray = field(default=None, repr=False)

    @property
    def n_base(self):
        return self.base.n

    @property
    def n(self):
        return 2 * self.base.n

    @property
    def connected(self):
        return bool(self.cuts.any())

    @property
    def is_trivial(self):
        return not self.connected

    def deck(self, x):
        """Sheet-swapping involution."""
        return (np.asarray(x) + self.base.n) % self.n

    def project(self, x):
        return np.asarray(x) % self.base.n

    def cover_edges(self) -> np.ndarray:
        """(2m, 2) lifted edges; lift j and lift j+m come from base edge j."""
        if self._cover_edges is None:
            n = self.base.n
            a, b = self.base.edges[:, 0], self.base.edges[:, 1]
            c = self.cuts.astype(np.int64)
            e0 = np.column_stack([a, b + n * c])
            e1 = np.column_stack([a + n, b + n * (1 - c)])
            self._cover_edges = np.concatenate([e0, e1])
        return self._cover_edges

    def as_edge_graph(self, zero_phase=False) -> EdgeGraph:
        theta = np.zeros(2 * self.base.theta.size) if zero_phase else np.tile(self.base.theta, 2)
        return EdgeGraph(n=self.n, edges=self.cover_edges(), theta=theta, spacing=self.base.spacing)


def _half_integer_circulations(graph: EdgeGraph):
    """Tree potential and fundamental-cycle circulation per edge (0 on tree edges).

    Raises NonHalfIntegerFlux unless every doubled circulation is within
    _CIRCULATION_TOL of an integer.
    """
    tree = spanning_tree(graph)
    eta = tree_potential(graph, tree)
    a, b = graph.edges[:, 0], graph.edges[:, 1]
    circ = (eta[a] + graph.theta - eta[b]) / TWO_PI
    circ[tree[4]] = 0.0
    doubled = 2.0 * circ
    off = np.abs(doubled - np.round(doubled))
    if np.any(off > _CIRCULATION_TOL):
        worst = int(np.argmax(off))
        raise NonHalfIntegerFlux(
            f"cycle through edge {worst} has circulation {circ[worst]:.9f}"
        )
    return eta, circ


def build_cover(base: EdgeGraph) -> CoverGraph:
    """Construct the cover determined by the link phases.

    Every doubled fundamental-cycle circulation must be an integer within
    _CIRCULATION_TOL, else NonHalfIntegerFlux.  The cover is connected iff
    some cycle is genuinely half-integer; all-integer circulations give the
    trivial two-copy cover.
    """
    eta, circ = _half_integer_circulations(base)
    cuts = np.abs(np.round(2.0 * circ).astype(np.int64)) % 2 == 1
    return CoverGraph(base=base, cuts=cuts, eta=eta)


def build_theta(cover: CoverGraph) -> np.ndarray:
    """(2n,) cover phase in radians whose gradient matches the lifted link field.

    The base tree potential eta on sheet 0 and eta + pi on sheet 1: a cut
    edge closes a half-integer cycle, so pi is the jump it needs.  Raises
    InconsistentHolonomy unless it closes every lifted edge mod 2*pi and
    exp(i*theta) flips sign under the deck map, both within _PHASE_TOL.
    """
    if not cover.connected:
        raise DisconnectedCover("trivial cover: phases integrate per copy, not across sheets")
    cg = cover.as_edge_graph()
    theta = np.concatenate([cover.eta, cover.eta + np.pi])
    a, b = cg.edges[:, 0], cg.edges[:, 1]
    mism = theta[a] + cg.theta - theta[b]
    off = np.abs(mism - TWO_PI * np.round(mism / TWO_PI))
    if off.size and off.max() > _PHASE_TOL:
        raise InconsistentHolonomy(f"cycle phase mismatch up to {off.max():.3e} rad")
    z = np.exp(1j * theta)
    if np.max(np.abs(z[cover.deck(np.arange(cover.n))] + z)) > _PHASE_TOL:
        raise InconsistentHolonomy("cover phase does not flip sign between sheets")
    return theta


def lift_to_cover(u, theta) -> np.ndarray:
    """Isometry onto antisymmetric cover functions.

    (Lu)(x) = exp(-i*theta(x)) * u(project(x)) / sqrt(2).  The negative
    exponent pairs with the -exp(-i*theta) hop convention of the assembly,
    so eigenvectors of the magnetic operator map to eigenvectors of the
    lifted non-magnetic operator.
    """
    u = np.asarray(u).reshape(-1)
    if 2 * u.size != theta.size:
        raise ValueError(f"expected {theta.size // 2} values, got {u.size}")
    return np.exp(-1j * theta) * np.tile(u, 2) / np.sqrt(2.0)


def assemble_lifted(cover: CoverGraph, V=None) -> HamiltonianMatrix:
    """Real Neumann Laplacian plus lifted potential on the cover."""
    if V is not None:
        V = np.asarray(V, dtype=float).reshape(-1)
        if V.size == cover.n_base:
            V = np.tile(V, 2)
    return assemble(cover.as_edge_graph(zero_phase=True), V=V)


def antisymmetric_block(cover: CoverGraph, V=None) -> HamiltonianMatrix:
    """Lifted operator restricted to antisymmetric functions.

    In the explicit basis (delta(v,0) - delta(v,1))/sqrt(2) the operator
    lives on the base vertex set with the hop sign flipped on cut edges.
    Its spectrum is the magnetic spectrum, as a real symmetric problem.
    """
    base = cover.base
    graph = EdgeGraph(n=base.n, edges=base.edges, theta=np.pi * cover.cuts, spacing=base.spacing)
    return assemble(graph, V=V)


class ConjugationOperator:
    """Antilinear involution commuting with the half-flux operator.

    Ku = exp(-i*psi) * conj(u) with psi = -2 * eta, minus twice the cover's
    base tree potential; exp(i*psi) is single-valued because doubled
    circulations are integers.  Fixed vectors of K are the representatives
    whose cover lift has constant phase.
    """

    def __init__(self, cover: CoverGraph):
        self.psi = -2.0 * cover.eta

    def apply(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=complex).reshape(-1)
        return np.exp(-1j * self.psi) * np.conj(u)

    __call__ = apply
