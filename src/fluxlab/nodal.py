"""Nodal sets of half-flux ground states and their slitting topology.

At half flux a real eigenvector u of the antisymmetric block lifts to the
twofold cover as u on sheet 0 and -u on sheet 1, and sign information
exists there.  Marching squares reads every fully active lattice cell on
one lift, and antisymmetry guarantees the projection does not depend on
the choice.  The topology report then answers the questions that matter
for the slitting structure: how many boundary-to-boundary lines, endpoint
parity per boundary component, connectivity of the cell complement, and
the number of components the lifted complement has on the cover.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .cover import CoverGraph
from .errors import NoSignChange
from .geometry import GridDomain, full_cells, link_components, raster_links


@dataclass
class NodalSet:
    """Zero contour as polylines plus the lattice cells it crosses."""

    polylines: list            # list of (p, 2) float arrays
    endpoint_labels: list      # (start, end) component labels, None for closed curves
    crossed_cells: frozenset   # window cell coordinates (a, b)
    crossings: list            # (tail, head, t) per contour node: the lifted edge read, t from its tail
    cover: CoverGraph

    @property
    def n_open(self):
        return sum(1 for lab in self.endpoint_labels if lab is not None)

    @property
    def n_closed(self):
        return sum(1 for lab in self.endpoint_labels if lab is None)


@dataclass
class SlitReport:
    n_lines: int
    n_closed: int
    endpoints_per_component: dict
    unclassified_endpoints: int
    complement_connected: bool
    cover_domain_count: int
    parity_ok: bool
    bounds_ok: bool

    @property
    def passes_slitting(self) -> bool:
        """All checkable slitting conditions: boundary-to-boundary lines only,
        connected complement, odd parity at every interior component."""
        return (
            self.n_closed == 0
            and self.unclassified_endpoints == 0
            and self.complement_connected
            and self.parity_ok
            and self.n_lines > 0
        )

    def to_json_line(self) -> str:
        d = {
            "n_lines": self.n_lines,
            "n_closed": self.n_closed,
            "endpoints_per_component": {str(k): v for k, v in sorted(self.endpoints_per_component.items())},
            "unclassified_endpoints": self.unclassified_endpoints,
            "complement_connected": self.complement_connected,
            "cover_domain_count": self.cover_domain_count,
            "parity_ok": self.parity_ok,
            "bounds_ok": self.bounds_ok,
            "passes_slitting": self.passes_slitting,
        }
        return json.dumps(d, sort_keys=True)


# lattice values within this fraction of max|u| are zero up to round-off
# (a nodal line along a lattice line holds values of a few eps there)
_ZERO_BAND = 1e3 * np.finfo(float).eps


def _zero_band(u):
    """u with its round-off zeros (|u| <= _ZERO_BAND * max|u|) set to +0.0.

    Whatever sign bit the solver left on a zero, its lift then reads +0.0 on
    sheet 0 and -0.0 on sheet 1, so its two lifts read opposite signs, as
    nonzero values do; and a crossing at such a vertex sits exactly on the
    vertex, so a round-off change moves no polyline.
    """
    return np.where(np.abs(u) <= _ZERO_BAND * np.max(np.abs(u)), 0.0, u)


def _cut_rasters(grid: GridDomain, cover: CoverGraph):
    """Cut bits of x- and y-edges placed on the index window."""
    # the appended False is what the -1 of a missing edge reads
    cuts = np.append(cover.cuts, False)
    ex, ey = grid._edge_raster
    return cuts[ex], cuts[ey]


# the edges of a cell as (axis, da, db, i, j): the edge key is (axis, a + da,
# b + db), and it runs from corner i to corner j; south, north, west, east
_CELL_EDGES = (("x", 0, 0, 0, 1), ("x", 0, 1, 2, 3), ("y", 0, 0, 0, 2), ("y", 1, 0, 1, 3))


def _mixed_cells(u, cover: CoverGraph, grid: GridDomain):
    """(cells, base, lifted, value) for the fully active cells whose corners
    differ in sign on the lift that puts their (a, b) corner on sheet 0.

    cells is (c, 2), the window coordinates (a, b) in raster order; the
    others are (4, c), one row per corner (a, b), (a + 1, b), (a, b + 1),
    (a + 1, b + 1): its vertex id, its lifted id (sheet 1 adds n) and its
    lifted value.  A corner's sheet is the parity of the cut edges crossed
    from (a, b), and the lift negates u on sheet 1, so its sign is that of u
    flipped by its sheet: only bit rasters span the window, and ids and
    values are read for the mixed cells alone.
    """
    n = grid.n_vertices
    cx, cy = _cut_rasters(grid, cover)
    # sign bit of u at each window point (inactive points read False)
    neg = np.zeros(grid._active.shape, dtype=bool)
    neg[grid._active] = np.signbit(u)
    s10, s01 = cx[:-1, :-1], cy[:-1, :-1]
    sheet = (s10, s01, s10 ^ cy[1:, :-1])
    corner_neg = (neg[:-1, :-1], neg[1:, :-1] ^ sheet[0], neg[:-1, 1:] ^ sheet[1], neg[1:, 1:] ^ sheet[2])
    some = corner_neg[0] | corner_neg[1] | corner_neg[2] | corner_neg[3]
    every = corner_neg[0] & corner_neg[1] & corner_neg[2] & corner_neg[3]
    cells = np.argwhere(full_cells(grid._active) & some & ~every)
    a, b = cells[:, 0], cells[:, 1]
    vid = grid._vid
    base = np.stack([vid[a, b], vid[a + 1, b], vid[a, b + 1], vid[a + 1, b + 1]])
    flip = np.stack([np.zeros(a.size, dtype=bool)] + [s[a, b] for s in sheet])
    return cells, base, base + n * flip, np.where(flip, -u[base], u[base])


def extract_nodal_set(u, cover: CoverGraph, grid: GridDomain) -> NodalSet:
    """Marching-squares zero contour of a half-flux real eigenvector.

    u holds the n real base values of an eigenvector of the antisymmetric
    block: its lift to the cover is u on sheet 0 and -u on sheet 1.  Each
    cell is read on the lift that puts its (a, b) corner on sheet 0.  Contour
    chains ending near the staircase boundary are snapped to the nearest
    labeled boundary vertex, and the cells along the snap are added to the
    crossed-cell mask.  Values that are zero up to round-off count as zero
    (`_zero_band`).
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    n = grid.n_vertices
    if u.size != n:
        raise ValueError(f"expected {n} base values, got {u.size}")
    if not np.any(u):
        raise NoSignChange("function vanishes identically")
    u = _zero_band(u)

    i0, j0, ni, nj = grid._window
    h = grid.spacing
    cells, base, lifted, value = _mixed_cells(u, cover, grid)
    positive = ~np.signbit(value)

    nodes = {}     # edge key -> crossing point
    crossings = []  # (tail, head, t) per node
    segments = []  # (key1, key2, (a, b))

    for c, (a, b) in enumerate(cells):
        ids, x, pos = lifted[:, c], value[:, c], positive[:, c]
        hits = []
        for axis, da, db, i, j in _CELL_EDGES:
            if pos[i] == pos[j]:
                hits.append(None)
                continue
            key = (axis, a + da, b + db)
            if key not in nodes:
                # two zeros read on opposite sides (+0.0 and -0.0, one per
                # sheet) meet midway, where 0 / 0 would be nan
                t = x[i] / (x[i] - x[j]) if x[i] != x[j] else 0.5
                pa, pb = grid.xy[base[i, c]], grid.xy[base[j, c]]
                nodes[key] = pa + t * (pb - pa)
                crossings.append((ids[i], ids[j], t))
            hits.append(key)
        south, north, west, east = hits
        hits = [kk for kk in (south, east, north, west) if kk is not None]
        cell = (int(a), int(b))
        if len(hits) == 2:
            segments.append((hits[0], hits[1], cell))
        elif len(hits) == 4:
            # a saddle: cut off the two corners whose sign the cell centre
            # (the sum of the four) does not take
            if np.signbit(x[0] + x[1] + x[2] + x[3]) == np.signbit(x[0]):
                segments.append((south, east, cell))
                segments.append((north, west, cell))
            else:
                segments.append((south, west, cell))
                segments.append((north, east, cell))
        else:
            raise RuntimeError(f"cell {cell} has {len(hits)} crossings")

    if not segments:
        raise NoSignChange("no sign change on any fully active cell")

    # chain the per-cell segments into polylines.  A node sits on an edge
    # that at most two cells share, so it has at most two neighbours, and two
    # cells share at most one edge, so no two segments join the same nodes
    nbrs = {}
    for k1, k2, _ in segments:
        nbrs.setdefault(k1, []).append(k2)
        nbrs.setdefault(k2, []).append(k1)

    def walk(cur):
        chain = [cur]
        while nbrs[cur]:
            nxt = nbrs[cur].pop(0)
            nbrs[nxt].remove(cur)
            cur = nxt
            chain.append(cur)
        return chain

    # open chains from their lower end first; what is left are closed loops
    ends = sorted(key for key, nb in nbrs.items() if len(nb) == 1)
    chains = [(walk(key), False) for key in ends if nbrs[key]]
    chains += [(walk(key), True) for key in sorted(nbrs) if nbrs[key]]

    # boundary vertices for endpoint snapping
    bverts = np.nonzero(grid.boundary_labels >= 0)[0]
    bxy = grid.xy[bverts]
    blab = grid.boundary_labels[bverts]

    def classify(point):
        d2 = np.sum((bxy - point) ** 2, axis=1)
        # the lowest-id vertex among the nearest up to round-off: an endpoint
        # midway between two (on a mirror line) snaps to the same one
        # whatever its last bits
        t = int(np.argmax(d2 <= d2.min() + 1e-9 * h * h))
        if d2[t] <= (2.5 * h) ** 2:
            return int(blab[t]), bxy[t]
        return -1, None

    def seal_cells(p, q, bag):
        steps = max(2, int(np.hypot(*(q - p)) / (0.25 * h)) + 2)
        for s in range(steps + 1):
            pt = p + (q - p) * (s / steps)
            ca = int(np.floor(pt[0] / h)) - i0
            cb = int(np.floor(pt[1] / h)) - j0
            if 0 <= ca < ni - 1 and 0 <= cb < nj - 1:
                bag.add((ca, cb))

    crossed = {c for _, _, c in segments}
    polylines, endpoint_labels = [], []
    for chain, closed in chains:
        pts = np.array([nodes[k] for k in chain])
        polylines.append(pts)
        if closed:
            endpoint_labels.append(None)
            continue
        la, pa = classify(pts[0])
        lb, pb = classify(pts[-1])
        if pa is not None:
            seal_cells(pts[0], pa, crossed)
        if pb is not None:
            seal_cells(pts[-1], pb, crossed)
        endpoint_labels.append((la, lb))

    return NodalSet(
        polylines=polylines,
        endpoint_labels=endpoint_labels,
        crossed_cells=frozenset(crossed),
        crossings=crossings,
        cover=cover,
    )


def values_at_crossings(g, nodal: NodalSet) -> np.ndarray:
    """g interpolated at each crossing that marching squares found, along the
    lifted edge it read there.

    g holds n real base values, lifted as g on sheet 0 and -g on sheet 1, as
    `extract_nodal_set` lifts u.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    n = nodal.cover.n_base
    if g.size != n:
        raise ValueError(f"expected {n} base values, got {g.size}")

    def lifted(v):
        return g[v] if v < n else -g[v - n]

    return np.array([lifted(a) + t * (lifted(b) - lifted(a)) for a, b, t in nodal.crossings])


def topology_report(nodal: NodalSet, grid: GridDomain) -> SlitReport:
    """Slitting checks for an extracted (or hand-built) nodal set."""
    k = grid.k
    counts = {c: 0 for c in range(k + 1)}
    unclassified = 0
    for lab in nodal.endpoint_labels:
        if lab is None:
            continue
        for c in lab:
            if c < 0:
                unclassified += 1
            else:
                counts[c] += 1

    free = full_cells(grid._active)
    for a, b in nodal.crossed_cells:
        if 0 <= a < free.shape[0] and 0 <= b < free.shape[1]:
            free[a, b] = False
    ahead = raster_links(free, ((1, 0), (0, 1)))
    n_comp, _ = link_components(ahead)
    complement_connected = n_comp == 1

    cover_domain_count = _cover_components(nodal, grid, free, ahead)

    n_lines = nodal.n_open
    parity_ok = unclassified == 0 and all(counts[c] % 2 == 1 for c in range(1, k + 1))
    bounds_ok = 2 * n_lines >= k and n_lines <= k
    return SlitReport(
        n_lines=n_lines,
        n_closed=nodal.n_closed,
        endpoints_per_component=counts,
        unclassified_endpoints=unclassified,
        complement_connected=complement_connected,
        cover_domain_count=cover_domain_count,
        parity_ok=parity_ok,
        bounds_ok=bounds_ok,
    )


def _cover_components(nodal: NodalSet, grid: GridDomain, free, ahead) -> int:
    """Components of the lifted free cells; sheets propagate through cut bits.

    Node (v, s) is free cell v on sheet s, and ahead is
    raster_links(free, ((1, 0), (0, 1))).  A link between free cells keeps
    the sheet, or changes it where it steps across a cut edge: cx[a, b]
    links (a, b) to (a + 1, b), cy[a, b] links (a, b) to (a, b + 1).  The
    links that keep the sheet join the free cells into pieces, each of which
    lifts to one node per sheet; the few links across the cut lines then join
    those, in a graph the size of the cuts, not of the cells.
    """
    from scipy.sparse.csgraph import connected_components  # see geometry.link_components

    if ahead.shape[0] == 0:
        return 0
    cx, cy = _cut_rasters(grid, nodal.cover)
    na, nb = free.shape
    across = np.column_stack([cx[:na, :nb][free], cy[:na, :nb][free]]) & (ahead >= 0)
    count, piece = link_components(np.where(across, -1, ahead))
    # (p, s) is node p + count * s; a link across a cut joins (p, s) to (q, 1 - s)
    p, q = piece[np.nonzero(across)[0]], piece[ahead[across]]
    rows, cols = np.concatenate([p, p + count]), np.concatenate([q + count, q])
    g = sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(2 * count, 2 * count))
    return int(connected_components(g, directed=False)[0])


def polylines_text(nodal: NodalSet, path):
    """Plain-text polyline listing: one line per point, blank line between curves."""
    with open(path, "w") as fh:
        for poly, lab in zip(nodal.polylines, nodal.endpoint_labels):
            tag = "closed" if lab is None else f"{lab[0]} {lab[1]}"
            fh.write(f"# line endpoints {tag}\n")
            for x, y in poly:
                fh.write(f"{float(x)!r} {float(y)!r}\n")
            fh.write("\n")
