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
from .gauge import LinkField
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
        for its reverse.  Raises ValueError on a loop or a repeated edge,
        which would merge two entries.
        """
        m = self.edges.shape[0]
        ids = np.arange(1, m + 1, dtype=np.int64)
        tails, heads = self.edges[:, 0], self.edges[:, 1]
        adj = sparse.csr_matrix(
            (np.concatenate([ids, -ids]), (np.concatenate([tails, heads]), np.concatenate([heads, tails]))),
            shape=(self.n, self.n),
        )
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
    vertex_of_unknown: np.ndarray  # (n_unknowns,) source vertex per row
    unknown_of_vertex: np.ndarray  # (n_vertices,) row per vertex, -1 if removed
    bc: str
    spacing: float

    @property
    def n(self):
        return self.matrix.shape[0]

    def norm_bound(self) -> float:
        """Gershgorin upper bound on the spectral norm."""
        absrow = np.asarray(np.abs(self.matrix).sum(axis=1)).ravel()
        return float(absrow.max()) if absrow.size else 0.0

    def hermiticity_defect(self) -> float:
        d = self.matrix - self.matrix.getH()
        return float(np.max(np.abs(d.data))) if d.nnz else 0.0


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


def assemble(graph: EdgeGraph, V=None, keep=None, bc="neumann") -> HamiltonianMatrix:
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
    deg = np.zeros(n)
    np.add.at(deg, graph.edges[:, 0], 1.0)
    np.add.at(deg, graph.edges[:, 1], 1.0)

    unk = np.full(n, -1, dtype=np.int64)
    vtx = np.nonzero(keep)[0]
    unk[vtx] = np.arange(vtx.size)

    real = bool(np.all((graph.theta == 0.0) | (graph.theta == np.pi)))
    dtype = np.float64 if real else np.complex128
    tails, heads = graph.edges[:, 0], graph.edges[:, 1]
    both = keep[tails] & keep[heads]
    a, b = unk[tails[both]], unk[heads[both]]
    theta = graph.theta[both]
    hop = -(np.cos(theta) if real else np.exp(-1j * theta)) * inv_h2

    rows = np.concatenate([a, b, unk[vtx]])
    cols = np.concatenate([b, a, unk[vtx]])
    vals = np.concatenate([hop, np.conj(hop), (deg[vtx] * inv_h2 + V[vtx]).astype(dtype)])
    mat = sparse.csr_matrix((vals, (rows, cols)), shape=(vtx.size, vtx.size))
    mat.sum_duplicates()
    return HamiltonianMatrix(
        matrix=mat, vertex_of_unknown=vtx, unknown_of_vertex=unk, bc=bc, spacing=graph.spacing
    )


def assemble_magnetic(grid: GridDomain, field: LinkField, V=None, bc="neumann") -> HamiltonianMatrix:
    """Magnetic operator under Neumann or Dirichlet boundary conditions."""
    graph = as_edge_graph(grid, field)
    if bc == "neumann":
        keep = None
    elif bc == "dirichlet":
        keep = grid.boundary_labels < 0
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")
    return assemble(graph, V=V, keep=keep, bc=bc)


@dataclass(frozen=True)
class SlitPath:
    """Lattice path of active vertices joining two boundary components."""

    vertices: tuple
    start_label: int
    end_label: int


def make_slit(grid: GridDomain, vertices) -> SlitPath:
    """Validate a vertex path as a slit: adjacent steps, boundary endpoints
    on distinct components, interior strictly off the boundary."""
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
    return assemble(as_edge_graph(grid, field), V=V, keep=keep, bc="slit-dirichlet")


def radial_slit(grid: GridDomain, hole: int, angle: float) -> SlitPath:
    """Slit along the ray from a hole reference point at the given angle.

    Walks the 4-connected rasterization of the ray and keeps the contiguous
    active run, so it starts on the hole's boundary staircase and ends on
    the first boundary component the ray leaves through.
    """
    if not 1 <= hole <= grid.k:
        raise BadSlit(f"hole index {hole} outside 1..{grid.k}")
    h = grid.spacing
    cx, cy = grid.hole_refs[hole - 1]
    dx, dy = np.cos(angle), np.sin(angle)
    i0, j0, ni, nj = grid._window

    # 4-connected ray walk from the hole center outwards
    a = int(round(cx / h)) - i0
    b = int(round(cy / h)) - j0
    path = []
    guard = 4 * (ni + nj)
    for _ in range(guard):
        if not (0 <= a < ni and 0 <= b < nj):
            break
        path.append((a, b))
        # candidate steps; pick the one closest to the continuous ray, ahead of us
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
        if best is None:
            break
        a, b = best

    vids = [int(grid._vid[a, b]) for a, b in path]
    active_run = [v for v in vids if v >= 0]
    if not active_run:
        raise BadSlit(f"ray at angle {angle} misses the active set")
    # clip to the span between the first and last boundary vertices
    lab = grid.boundary_labels
    onb = [t for t, v in enumerate(active_run) if lab[v] >= 0]
    if len(onb) < 2:
        raise BadSlit(f"ray at angle {angle} does not join two boundary components")
    run = active_run[onb[0] : onb[-1] + 1]
    # trim interior boundary contacts at the ends
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
    from scipy.sparse.csgraph import breadth_first_order  # see cover.spanning_tree

    tails, heads = grid.edges[:, 0], grid.edges[:, 1]
    n = grid.n_vertices
    adj = sparse.csr_matrix(
        (np.ones(2 * tails.size, dtype=np.int8), (np.concatenate([tails, heads]), np.concatenate([heads, tails]))),
        shape=(n, n),
    )
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
    return assemble(circle_graph(n, alpha), V=V, bc="periodic")
