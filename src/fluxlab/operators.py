"""Sparse Hermitian assembly of the discrete magnetic Schrodinger operator.

The operator is defined through the lattice quadratic form

    Q(u) = sum_edges |u_v - exp(i*theta(w,v)) u_w|^2 / h^2 + sum_v V_v |u_v|^2

so off-diagonal entries are -exp(-i*theta(v,w))/h^2 and each diagonal is
deg(v)/h^2 + V(v) with deg counting active neighbors.  Boundary conditions
only change the unknown set: Neumann keeps every active vertex (the natural
condition of the form), Dirichlet drops boundary vertices, slit-Dirichlet
additionally drops the vertices of a boundary-to-boundary path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import BadSlit, InconsistentSizes, TooFewPoints
from .gauge import LinkField, zero_field
from .geometry import GridDomain


@dataclass(frozen=True)
class EdgeGraph:
    """Minimal phased-graph view: enough structure to assemble an operator."""

    n: int
    edges: np.ndarray   # (m, 2) tail/head indices, canonical direction
    theta: np.ndarray   # (m,) link phase per canonical edge
    spacing: float

    def adjacency(self) -> sparse.csr_matrix:
        """Symmetric signed adjacency in CSR form with sorted indices.

        Entry (v, w) is e + 1 for the canonical edge e = v -> w and -(e + 1)
        for its reverse, stored as float64 (exact below 2**53 edges) with
        int32 indices: the types csgraph works in, so a traversal converts
        no copy.  Raises ValueError on a loop or a repeated edge, which
        would merge two entries.
        """
        m = self.edges.shape[0]
        rows, cols = np.empty(2 * m, dtype=np.int32), np.empty(2 * m, dtype=np.int32)
        rows[:m], rows[m:], cols[:m], cols[m:] = self.edges[:, 0], self.edges[:, 1], self.edges[:, 1], self.edges[:, 0]
        ids = np.empty(2 * m)
        ids[:m] = np.arange(1, m + 1)
        np.negative(ids[:m], out=ids[m:])
        adj = sparse.csr_matrix((ids, (rows, cols)), shape=(self.n, self.n))
        if adj.nnz != 2 * m:
            raise ValueError("edge list has a loop or a repeated edge")
        adj.sort_indices()
        return adj


def as_edge_graph(grid: GridDomain, field: LinkField) -> EdgeGraph:
    if field.grid is not grid:
        raise InconsistentSizes("link field was built on a different grid")
    return EdgeGraph(n=grid.n_vertices, edges=grid.edges, theta=field.theta, spacing=grid.spacing)


def circle_graph(n: int, alpha: float) -> EdgeGraph:
    """Cycle of n points with uniform link phase alpha * (2*pi/n)."""
    if n < 8:
        raise TooFewPoints("circle discretization needs n >= 8")
    h = 2.0 * np.pi / n
    edges = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
    return EdgeGraph(n=n, edges=edges, theta=np.full(n, alpha * h), spacing=h)


@dataclass
class HamiltonianMatrix:
    """Sparse Hermitian operator restricted to its unknown vertices."""

    matrix: sparse.csr_matrix

    @property
    def n(self):
        return self.matrix.shape[0]


def _as_potential(V, n):
    if V is None:
        return np.zeros(n)
    V = np.asarray(V, dtype=float).reshape(-1)
    if V.size == 1:
        return np.full(n, V[0])
    if V.size != n:
        raise InconsistentSizes(f"potential has {V.size} values for {n} vertices")
    if not np.all(np.isfinite(V)):
        raise InconsistentSizes("potential must be finite")
    return V


def assemble(graph: EdgeGraph, V=None, keep=None) -> HamiltonianMatrix:
    """Assemble the form operator of a phased graph on the kept vertices.

    Edges to removed vertices still contribute to diagonals (the form term
    |u_v|^2/h^2 survives when the neighbor is pinned to zero), which is what
    distinguishes a Dirichlet removal from shrinking the graph.  When every
    phase is exactly 0 or pi the hops -cos(theta)/h^2 are real and so is the
    matrix.
    """
    n = graph.n
    V = _as_potential(V, n)
    if keep is None:
        keep = np.ones(n, dtype=bool)
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (n,):
        raise InconsistentSizes("keep mask size mismatch")

    inv_h2 = 1.0 / graph.spacing**2
    tails, heads = graph.edges[:, 0], graph.edges[:, 1]
    deg = np.bincount(tails, minlength=n) + np.bincount(heads, minlength=n)

    # int32, the CSR index type, so the COO input needs no converted copy
    unk = np.full(n, -1, dtype=np.int32)
    vtx = np.flatnonzero(keep)
    unk[vtx] = np.arange(vtx.size, dtype=np.int32)

    real = bool(np.all((graph.theta == 0.0) | (graph.theta == np.pi)))
    dtype = np.float64 if real else np.complex128
    a, b, theta = unk[tails], unk[heads], graph.theta
    both = (a >= 0) & (b >= 0)
    if not both.all():
        a, b, theta = a[both], b[both], theta[both]
    hop = -(np.cos(theta) if real else np.exp(-1j * theta)) * inv_h2

    # the COO triplets written in place: hops both ways, then the diagonal
    m, nnz = a.size, 2 * a.size + vtx.size
    rows, cols = np.empty(nnz, dtype=np.int32), np.empty(nnz, dtype=np.int32)
    vals = np.empty(nnz, dtype=dtype)
    rows[:m], rows[m : 2 * m], cols[:m], cols[m : 2 * m] = a, b, b, a
    rows[2 * m :] = cols[2 * m :] = unk[vtx]
    vals[:m] = hop
    np.conj(hop, out=vals[m : 2 * m])
    vals[2 * m :] = deg[vtx] * inv_h2 + V[vtx]
    del a, b, theta, hop, deg, unk
    mat = sparse.csr_matrix((vals, (rows, cols)), shape=(vtx.size, vtx.size))
    return HamiltonianMatrix(matrix=mat)


def assemble_magnetic(grid: GridDomain, field: LinkField, V=None, bc="neumann") -> HamiltonianMatrix:
    """Magnetic operator under Neumann or Dirichlet boundary conditions."""
    graph = as_edge_graph(grid, field)
    if bc == "neumann":
        keep = None
    elif bc == "dirichlet":
        keep = grid.boundary_labels < 0
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")
    return assemble(graph, V=V, keep=keep)


@dataclass(frozen=True)
class SlitPath:
    """Lattice path of active vertices joining two boundary components."""

    vertices: tuple
    start_label: int
    end_label: int


def make_slit(grid: GridDomain, vertices) -> SlitPath:
    """Validate a vertex path as a slit: adjacent steps, and boundary
    endpoints on distinct components.  Interior vertices may touch the
    boundary too; nothing checks them."""
    verts = [int(v) for v in vertices]
    if len(verts) < 2:
        raise BadSlit("slit needs at least two vertices")
    if min(verts) < 0 or max(verts) >= grid.n_vertices:
        raise BadSlit(f"slit vertex ids must lie in 0..{grid.n_vertices - 1}")
    steps = np.abs(np.diff(grid.ij[verts], axis=0)).sum(axis=1)
    off = np.nonzero(steps != 1)[0]
    if off.size:
        v, w = verts[off[0]], verts[off[0] + 1]
        raise BadSlit(f"slit vertices {v} and {w} are not lattice neighbors")
    la = int(grid.boundary_labels[verts[0]])
    lb = int(grid.boundary_labels[verts[-1]])
    if la < 0 or lb < 0:
        raise BadSlit("slit endpoints must lie on the boundary")
    if la == lb:
        raise BadSlit("slit endpoints must lie on distinct boundary components")
    return SlitPath(vertices=tuple(verts), start_label=la, end_label=lb)


def assemble_slit(grid: GridDomain, field: LinkField, V=None, slit: SlitPath = None) -> HamiltonianMatrix:
    """Neumann assembly with the slit vertices pinned to zero."""
    if slit is None:
        raise BadSlit("no slit path given")
    if not isinstance(slit, SlitPath):
        slit = make_slit(grid, slit)
    keep = np.ones(grid.n_vertices, dtype=bool)
    keep[list(slit.vertices)] = False
    return assemble(as_edge_graph(grid, field), V=V, keep=keep)


def radial_slit(grid: GridDomain, hole: int, angle: float) -> SlitPath:
    """Slit along the ray from a hole reference point at the given angle.

    Walks the 4-connected rasterization of the ray and keeps the contiguous
    active run, so it starts on the hole's boundary staircase and ends on
    the first boundary component the ray meets.  Validate's 3h gaps keep
    the points of two shapes from being lattice neighbours, so the walk
    meets an active point, and then an excluded one, inside the window.
    """
    if not 1 <= hole <= grid.k:
        raise BadSlit(f"hole index {hole} outside 1..{grid.k}")
    h = grid.spacing
    cx, cy = grid.hole_refs[hole - 1]
    dx, dy = np.cos(angle), np.sin(angle)
    i0, j0, _, _ = grid._window

    # 4-connected ray walk from the hole center outwards
    a = int(round(cx / h)) - i0
    b = int(round(cy / h)) - j0
    run = []
    while True:
        v = int(grid._vid[a, b])
        if v >= 0:
            run.append(v)
        elif run:
            break
        # the step ahead of us closest to the continuous ray; the position t
        # along the ray strictly increases, so no point repeats
        best, best_err = None, None
        for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            na, nb = a + da, b + db
            px, py = (na + i0) * h - cx, (nb + j0) * h - cy
            t = px * dx + py * dy
            if t <= ((a + i0) * h - cx) * dx + ((b + j0) * h - cy) * dy:
                continue
            err = abs(px * dy - py * dx)
            if best is None or err < best_err - 1e-15:
                best, best_err = (na, nb), err
        a, b = best

    # trim interior boundary contacts at the ends
    lab = grid.boundary_labels
    while len(run) > 2 and lab[run[1]] >= 0 and lab[run[1]] == lab[run[0]]:
        run = run[1:]
    while len(run) > 2 and lab[run[-2]] >= 0 and lab[run[-2]] == lab[run[-1]]:
        run = run[:-1]
    return make_slit(grid, run)


def shortest_slit(grid: GridDomain, hole: int, outer_vertex: int) -> SlitPath:
    """Shortest lattice path from a given outer-boundary vertex to the hole's
    boundary component, by breadth-first search with index tie-breaking:
    neighbors are visited in ascending vertex order, and the path ends at
    the first vertex of the hole's boundary that the search reaches."""
    if not 1 <= hole <= grid.k:
        raise BadSlit(f"hole index {hole} outside 1..{grid.k}")
    if grid.boundary_labels[outer_vertex] != 0:
        raise BadSlit("starting vertex must lie on the outer boundary")
    from scipy.sparse.csgraph import breadth_first_order  # see geometry.link_components

    adj = as_edge_graph(grid, zero_field(grid)).adjacency()
    order, pred = breadth_first_order(adj, int(outer_vertex), directed=True, return_predecessors=True)
    reached = order[grid.boundary_labels[order] == hole]
    if reached.size == 0:
        raise BadSlit(f"no lattice path reaches hole {hole}")
    path = [int(reached[0])]
    while pred[path[-1]] >= 0:
        path.append(int(pred[path[-1]]))
    return make_slit(grid, path[::-1])


def assemble_circle(n: int, alpha: float, V=None) -> HamiltonianMatrix:
    """Circulant operator of the flux-threaded circle with n points."""
    return assemble(circle_graph(n, alpha), V=V)
