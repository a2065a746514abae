"""Lattice discretization of planar domains with holes.

A domain is an outer shape (disk or axis-aligned rectangle) minus k open
holes (disks or rectangles).  Vertices live on the square lattice h*Z^2;
a vertex is active iff it lies in the closed outer shape and outside every
open hole.  Edges are 4-neighbor pairs of active vertices.  Boundary
vertices are labeled by the boundary component they touch: 0 for the outer
boundary, 1..k for the holes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import DisconnectedDomain, NoSuchHole, SpecTooCoarse, SpecTooFine

# containment tolerance: keeps lattice points that land on the analytic
# boundary (e.g. 150*0.02 vs 3.0) inside the closed shape
EPS = 1e-9


@dataclass(frozen=True)
class Disk:
    cx: float
    cy: float
    r: float

    def contains(self, x, y, closed=True):
        d2 = (x - self.cx) ** 2 + (y - self.cy) ** 2
        r2 = self.r**2
        return d2 <= r2 + EPS if closed else d2 < r2 - EPS

    def bbox(self):
        return (self.cx - self.r, self.cy - self.r, self.cx + self.r, self.cy + self.r)

    def reference_point(self):
        return (self.cx, self.cy)


@dataclass(frozen=True)
class Rect:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError("rectangle corners must be ordered")

    def contains(self, x, y, closed=True):
        if closed:
            return (
                (x >= self.x0 - EPS)
                & (x <= self.x1 + EPS)
                & (y >= self.y0 - EPS)
                & (y <= self.y1 + EPS)
            )
        return (
            (x > self.x0 + EPS)
            & (x < self.x1 - EPS)
            & (y > self.y0 + EPS)
            & (y < self.y1 - EPS)
        )

    def bbox(self):
        return (self.x0, self.y0, self.x1, self.y1)

    def reference_point(self):
        return (0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))


def _point_rect_distance(px, py, rect):
    dx = max(rect.x0 - px, px - rect.x1, 0.0)
    dy = max(rect.y0 - py, py - rect.y1, 0.0)
    return math.hypot(dx, dy)


def shape_gap(a, b):
    """Euclidean distance between the closures of two hole shapes."""
    if isinstance(a, Disk) and isinstance(b, Disk):
        return math.hypot(a.cx - b.cx, a.cy - b.cy) - a.r - b.r
    if isinstance(a, Disk) and isinstance(b, Rect):
        return _point_rect_distance(a.cx, a.cy, b) - a.r
    if isinstance(a, Rect) and isinstance(b, Disk):
        return shape_gap(b, a)
    dx = max(b.x0 - a.x1, a.x0 - b.x1, 0.0)
    dy = max(b.y0 - a.y1, a.y0 - b.y1, 0.0)
    if dx == 0.0 and dy == 0.0:
        return -1.0  # overlapping rectangles
    return math.hypot(dx, dy)


def outer_margin(outer, hole):
    """Distance from a hole's closure to the outer boundary (hole assumed inside)."""
    if isinstance(outer, Rect):
        if isinstance(hole, Disk):
            return min(
                hole.cx - hole.r - outer.x0,
                outer.x1 - hole.cx - hole.r,
                hole.cy - hole.r - outer.y0,
                outer.y1 - hole.cy - hole.r,
            )
        return min(
            hole.x0 - outer.x0,
            outer.x1 - hole.x1,
            hole.y0 - outer.y0,
            outer.y1 - hole.y1,
        )
    if isinstance(hole, Disk):
        return outer.r - (math.hypot(hole.cx - outer.cx, hole.cy - outer.cy) + hole.r)
    corners = [(hole.x0, hole.y0), (hole.x1, hole.y0), (hole.x0, hole.y1), (hole.x1, hole.y1)]
    return outer.r - max(math.hypot(cx - outer.cx, cy - outer.cy) for cx, cy in corners)


@dataclass(frozen=True)
class DomainSpec:
    """Analytic description of a domain: outer shape, holes, grid step."""

    outer: object
    holes: tuple = ()
    spacing: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "holes", tuple(self.holes))
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")

    @property
    def k(self):
        return len(self.holes)

    def validate(self):
        """Check the analytic invariants; raise SpecTooCoarse on violation."""
        h = self.spacing
        for hole in self.holes:
            if outer_margin(self.outer, hole) < 3 * h:
                raise SpecTooCoarse(
                    f"gap between hole {hole} and the outer boundary is below 3h"
                )
        for a, b in itertools.combinations(self.holes, 2):
            if shape_gap(a, b) < 3 * h:
                raise SpecTooCoarse(f"gap between holes {a} and {b} is below 3h")


@dataclass(frozen=True)
class LatticeLoop:
    """Closed path of directed lattice edges, (tail, head) vertex indices."""

    edges: tuple

    def __post_init__(self):
        for (_, h0), (t1, _) in zip(self.edges, self.edges[1:]):
            if h0 != t1:
                raise ValueError("loop edges must chain head-to-tail")
        if self.edges and self.edges[-1][1] != self.edges[0][0]:
            raise ValueError("loop must close")

    def vertices(self):
        return [e[0] for e in self.edges]


@dataclass
class GridDomain:
    """Immutable lattice discretization of a DomainSpec.

    Vertices are stored in lexicographic (i, j) order; coordinates are
    ij * spacing.  Edges are canonical: each edge points in the +x or +y
    direction, x-edges first.
    """

    spec: DomainSpec
    spacing: float
    ij: np.ndarray            # (n, 2) lattice indices
    xy: np.ndarray            # (n, 2) physical coordinates
    edges: np.ndarray         # (m, 2) vertex indices, canonical direction
    boundary_labels: np.ndarray  # (n,) component label, -1 for interior
    hole_refs: np.ndarray     # (k, 2) interior reference points
    # internal rasters on the padded index window
    _window: tuple = field(repr=False, default=None)       # (i0, j0, ni, nj)
    _active: np.ndarray = field(repr=False, default=None)  # (ni, nj) bool
    # (ni, nj) int16: -1 on active points, 0 outside the outer shape, i in hole i
    _excl: np.ndarray = field(repr=False, default=None)
    _vid: np.ndarray = field(repr=False, default=None)     # (ni, nj) vertex id or -1
    # (2, ni, nj) id of the +x (plane 0) and +y (plane 1) edge leaving each
    # window point, -1 where there is none
    _edge_raster: np.ndarray = field(repr=False, default=None)

    @property
    def n_vertices(self):
        return self.ij.shape[0]

    @property
    def n_edges(self):
        return self.edges.shape[0]

    @property
    def k(self):
        return len(self.hole_refs)

    def edge_id(self, v, w):
        """Edge index and direction sign for the directed edge v -> w.

        (None, 0) when v and w are not lattice neighbors or either id is
        out of range.
        """
        n = self.n_vertices
        if not (0 <= v < n and 0 <= w < n):
            return None, 0
        di, dj = self.ij[w] - self.ij[v]
        if abs(di) + abs(dj) != 1:
            return None, 0
        # canonical edges point in +x or +y, from the tail's raster point;
        # two active lattice neighbors always share an edge
        sign = 1 if di + dj > 0 else -1
        a, b = self.ij[v if sign > 0 else w] - self._window[:2]
        return int(self._edge_raster[abs(dj), a, b]), sign

    def boundary_vertices(self, component=None):
        mask = self.boundary_labels >= 0
        if component is not None:
            mask = self.boundary_labels == component
        return np.nonzero(mask)[0]


def wrap_angle(d):
    """Wrap angle difference(s) into (-pi, pi]."""
    return d - 2.0 * np.pi * np.round(d / (2.0 * np.pi))


def winding_number(points, center):
    """Winding of a closed polygonal path around a point, by summed angle increments."""
    pts = np.asarray(points, dtype=float)
    ang = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
    inc = wrap_angle(np.diff(np.concatenate([ang, ang[:1]])))
    return float(np.sum(inc) / (2.0 * np.pi))


def raster_links(mask, steps):
    """(n, len(steps)) int32 array whose entry (v, s) numbers the cell one
    step steps[s] = (di, dj), di >= 0, on from cell v of mask, or reads -1
    where that cell lies off the mask or the raster.

    Cells are numbered from 0 in raster order, in int32, the index type of
    scipy.sparse.csgraph.
    """
    ni, nj = mask.shape
    n = int(np.count_nonzero(mask))
    index = np.full(mask.shape, -1, dtype=np.int32)
    index[mask] = np.arange(n, dtype=np.int32)
    ahead = np.full((n, len(steps)), -1, dtype=np.int32)
    for s, (di, dj) in enumerate(steps):
        # cell (a, b) of src steps to cell (a + di, b + dj) of dst
        src = (slice(0, ni - di), slice(max(0, -dj), nj - max(0, dj)))
        dst = (slice(di, ni), slice(max(0, dj), nj + min(0, dj)))
        on = mask[src]
        ahead[index[src][on], s] = index[dst][on]
    return ahead


def link_components(ahead):
    """(count, labels) of the connected components of the graph that links
    node v to each node ahead[v, s] >= 0, labelled from 0 in order of each
    component's lowest node.

    The graph goes to csgraph in CSR form read straight off ahead: no COO
    copy, and its int32 indices and float64 ones are the types csgraph
    works in, so it converts nothing.
    """
    # imported here and not with the module, so that loading fluxlab and a
    # config stays free of it (about 3 ms and 1 MB of RSS); every grid build
    # loads it here, so only `fluxlab circle`, which builds no grid, skips it
    from scipy.sparse.csgraph import connected_components

    n = ahead.shape[0]
    linked = ahead >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(linked, axis=1), out=indptr[1:])
    heads = ahead[linked]
    del linked
    g = sparse.csr_matrix((np.ones(heads.size), heads, indptr), shape=(n, n))
    return connected_components(g, directed=False)


def full_cells(mask):
    """The (ni - 1, nj - 1) raster of lattice cells whose four corners all lie in mask."""
    return mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:] & mask[1:, 1:]


# lattice points in the index window of build_grid: its rasters peak at
# about 130 bytes per point, so the cap stands for about 1.3 GB
MAX_WINDOW_POINTS = 10_000_000


def build_grid(spec: DomainSpec) -> GridDomain:
    """Discretize a DomainSpec on the lattice spacing*Z^2.

    Raises SpecTooCoarse when a hole fails to swallow a full lattice cell or
    a gap is narrower than three cells, SpecTooFine when the index window
    would hold more than MAX_WINDOW_POINTS points or EPS reaches its rim,
    DisconnectedDomain when the active set splits.
    """
    spec.validate()
    h = spec.spacing
    xmin, ymin, xmax, ymax = spec.outer.bbox()
    # sized in floats before any allocation; a bbox too wide for floats is inf
    points = ((xmax - xmin) / h + 5) * ((ymax - ymin) / h + 5)
    if points > MAX_WINDOW_POINTS:
        raise SpecTooFine(f"a lattice window of {points:.3g} points exceeds the cap of {MAX_WINDOW_POINTS:.0e}")
    i0 = math.floor(xmin / h) - 2
    i1 = math.ceil(xmax / h) + 2
    j0 = math.floor(ymin / h) - 2
    j1 = math.ceil(ymax / h) + 2
    ni, nj = i1 - i0 + 1, j1 - j0 + 1

    # a column of x and a row of y: the shapes test them on the whole window
    # by broadcasting, with no window-sized coordinate rasters
    xx = (np.arange(i0, i1 + 1) * h)[:, None]
    yy = (np.arange(j0, j1 + 1) * h)[None, :]
    inside = [hole.contains(xx, yy, closed=False) for hole in spec.holes]
    active = spec.outer.contains(xx, yy, closed=True)
    for m in inside:
        active &= ~m

    if not active.any():
        raise SpecTooCoarse("no lattice point falls inside the domain")
    # the window pads the outer bbox by two points; only an h below about
    # EPS / r lets the containment tolerance reach past that to its rim
    if active[[0, -1]].any() or active[:, [0, -1]].any():
        raise SpecTooFine(f"spacing {h:g} is below the containment tolerance's reach")

    # connectivity of the active set (4-neighbor)
    nlab, _ = link_components(raster_links(active, ((1, 0), (0, 1))))
    if nlab != 1:
        raise DisconnectedDomain(f"active set splits into {nlab} components")

    # an excluded point belongs to the boundary component of the shape that
    # holds it: validate keeps each hole 3h inside the outer shape and 3h
    # from the others, so no two shapes hold neighbouring points
    excl = np.negative(active, dtype=np.int16)
    for idx, m in enumerate(inside):
        excl[m] = idx + 1
        # every hole must contain at least one fully excluded cell
        if not full_cells(m).any():
            raise SpecTooCoarse(f"hole {idx + 1} contains no fully excluded cell")

    # vertex table in lexicographic (i, j) order; the rasters hold int32 ids
    vid = np.full((ni, nj), -1, dtype=np.int32)
    aw, bw = np.nonzero(active)
    vid[aw, bw] = np.arange(aw.size)
    ij = np.column_stack([aw + i0, bw + j0]).astype(np.int64, copy=False)
    xy = ij * h

    # canonical edges: +x then +y, each kind in raster order of its tail
    ex = active[:-1, :] & active[1:, :]
    ey = active[:, :-1] & active[:, 1:]
    mx = int(np.count_nonzero(ex))
    edge_raster = np.full((2, ni, nj), -1, dtype=np.int32)
    edge_raster[0, :-1][ex] = np.arange(mx)
    edge_raster[1, :, :-1][ey] = np.arange(mx, mx + np.count_nonzero(ey))
    edges = np.empty((mx + np.count_nonzero(ey), 2), dtype=np.int64)
    edges[:mx, 0], edges[:mx, 1] = vid[:-1][ex], vid[1:][ex]
    edges[mx:, 0], edges[mx:, 1] = vid[:, :-1][ey], vid[:, 1:][ey]

    # boundary labels in one pass: each active vertex takes the largest label
    # of its four neighbours, -1 when all are active.  The rim is inactive,
    # so they lie in the window (a negative index would wrap silently), and
    # validate's 3h gaps leave each vertex at most one component to touch
    labels = np.maximum.reduce([excl[aw + di, bw + dj] for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))])

    hole_refs = np.array([hole.reference_point() for hole in spec.holes], dtype=float)
    grid = GridDomain(
        spec=spec,
        spacing=h,
        ij=ij,
        xy=xy,
        edges=edges,
        boundary_labels=labels,
        hole_refs=hole_refs.reshape(spec.k, 2),
        _window=(i0, j0, ni, nj),
        _active=active,
        _excl=excl,
        _vid=vid,
        _edge_raster=edge_raster,
    )
    return grid


def lattice_symmetries(grid: GridDomain) -> np.ndarray:
    """Vertex permutations of the square's symmetries (D4) that map the
    active set onto itself, the identity first.

    Row g sends vertex v to vertex out[g, v], in int32 like the vertex
    raster.  A symmetry of a finite point
    set fixes its bounding box, so the candidates are the flips of the
    vertex raster cropped to that box, and its transposes when the box is
    square.  Each maps lattice neighbours to lattice neighbours, so a row
    that maps the active set onto itself maps the edges onto the edges.
    """
    rows = np.flatnonzero(grid._active.any(axis=1))
    cols = np.flatnonzero(grid._active.any(axis=0))
    box = grid._vid[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    active = box >= 0
    # image[p] is the vertex that the symmetry moves to point p
    images = [
        image
        for t in ((box, box.T) if box.shape[0] == box.shape[1] else (box,))
        for image in (t, t[::-1], t[:, ::-1], t[::-1, ::-1])
        if np.array_equal(image >= 0, active)
    ]
    perms = np.empty((len(images), grid.n_vertices), dtype=np.int32)
    for perm, image in zip(perms, images):
        perm[image[active]] = box[active]
    return perms


# directed boundary edges around a cell blob, region kept on the left (CCW)
_SIDE_EDGES = {
    "S": lambda a, b: ((a, b), (a + 1, b)),
    "E": lambda a, b: ((a + 1, b), (a + 1, b + 1)),
    "N": lambda a, b: ((a + 1, b + 1), (a, b + 1)),
    "W": lambda a, b: ((a, b + 1), (a, b)),
}


def hole_loop(grid: GridDomain, i: int) -> LatticeLoop:
    """Lattice cycle encircling hole i (1-based) once anticlockwise.

    The loop is the anticlockwise boundary of the one-cell dilation of the
    hole's excluded region, so it winds +1 around hole i and 0 around the
    others.
    """
    if not 1 <= i <= grid.k:
        raise NoSuchHole(f"hole index {i} outside 1..{grid.k}")
    m = grid._excl == i
    bad = m[:-1, :-1] | m[1:, :-1] | m[:-1, 1:] | m[1:, 1:]

    # the sides of bad cells that face good ones, corner -> next corner; the
    # hole lies 3h inside the outer shape, so no index leaves the window.  An
    # open disk or rect is convex: it holds the point between two of its
    # points two diagonal steps apart, so no corner starts two sides
    succ = {}
    for a, b in zip(*np.nonzero(bad)):
        for side, (na, nb) in (("S", (a, b - 1)), ("E", (a + 1, b)), ("N", (a, b + 1)), ("W", (a - 1, b))):
            if not bad[na, nb]:
                tail, head = _SIDE_EDGES[side](a, b)
                if succ.setdefault(tail, head) != head:
                    raise SpecTooCoarse(f"loop around hole {i} pinches at a corner")

    walk = [min(succ)]
    while succ[walk[-1]] != walk[0]:
        walk.append(succ[walk[-1]])

    vids = [int(grid._vid[a, b]) for a, b in walk]
    if any(v < 0 for v in vids):
        raise SpecTooCoarse(f"loop around hole {i} leaves the active set")
    loop_edges = tuple((vids[t], vids[(t + 1) % len(vids)]) for t in range(len(vids)))
    loop = LatticeLoop(edges=loop_edges)

    pts = grid.xy[vids]
    for j, ref in enumerate(grid.hole_refs):
        w = winding_number(pts, ref)
        want = 1.0 if j == i - 1 else 0.0
        if abs(w - want) > 0.25:
            raise SpecTooCoarse(f"loop around hole {i} winds {w:.3f} about hole {j + 1}")
    return loop
