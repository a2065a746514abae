"""Nodal sets of half-flux ground states and their slitting topology.

The zero set of a half-flux eigenfunction is extracted from the real
antisymmetric lift on the twofold cover, where sign information exists:
marching squares runs on one chosen lift of every fully active lattice
cell, and antisymmetry guarantees the projection does not depend on the
choice.  The topology report then answers the questions that matter for
the slitting structure: how many boundary-to-boundary lines, endpoint
parity per boundary component, connectivity of the cell complement, and
the number of components the lifted complement has on the cover.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import ndimage, sparse

from .cover import CoverGraph, CoverPhase, build_theta, lift_to_cover
from .eigensolver import multiplicity_estimate
from .errors import NoSignChange, PreconditionViolated
from .geometry import GridDomain


@dataclass
class NodalSet:
    """Zero contour as polylines plus the lattice cells it crosses."""

    polylines: list            # list of (p, 2) float arrays
    endpoint_labels: list      # (start, end) component labels, None for closed curves
    crossed_cells: frozenset   # window cell coordinates (a, b)
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


# lattice values within this fraction of max|f| are zero up to round-off
# (a nodal line along a lattice line holds values of a few eps there)
_ZERO_BAND = 1e3 * np.finfo(float).eps


def _zero_band(f):
    """f with its round-off zeros (|f| <= _ZERO_BAND * max|f|) set to 0.0.

    Every zero then lies on the positive side of `_sign`, whatever sign bit
    the solver left on it, and a crossing at such a vertex sits exactly on
    the vertex, so a round-off change moves no polyline.
    """
    return np.where(np.abs(f) <= _ZERO_BAND * np.max(np.abs(f)), 0.0, f)


def _sign(x):
    # zeros are nudged to the positive side; identical for both lifts since
    # -0.0 == 0.0; elementwise on arrays
    return (x > 0.0) | (x == 0.0)


def _cut_rasters(grid: GridDomain, cover: CoverGraph):
    """Cut bits of x- and y-edges placed on the index window."""
    # the appended False is what the -1 of a missing edge reads
    cuts = np.append(cover.cuts, False)
    ex, ey = grid._edge_raster
    return cuts[ex], cuts[ey]


def _cell_mask(grid: GridDomain):
    act = grid._vid >= 0
    return act[:-1, :-1] & act[1:, :-1] & act[:-1, 1:] & act[1:, 1:]


def extract_nodal_set(f, cover: CoverGraph, grid: GridDomain, anchor_sheet: int = 0) -> NodalSet:
    """Marching-squares zero contour of a real antisymmetric cover function.

    f must be real, antisymmetric under the deck map within 1e-8 (relative),
    and an actual function on the cover of this grid.  Contour chains ending
    near the staircase boundary are snapped to the nearest labeled boundary
    vertex, and the cells along the snap are added to the crossed-cell mask.
    Values that are zero up to round-off count as zero (`_zero_band`).
    """
    f = np.asarray(f, dtype=float).reshape(-1)
    n = grid.n_vertices
    if f.size != 2 * n:
        raise ValueError(f"expected {2 * n} cover values, got {f.size}")
    scale = float(np.max(np.abs(f)))
    if scale == 0.0:
        raise NoSignChange("function vanishes identically")
    asym = np.max(np.abs(f + f[cover.deck(np.arange(2 * n))]))
    if asym > 1e-8 * scale:
        raise PreconditionViolated(f"function is not antisymmetric (defect {asym:.2e})")
    f = _zero_band(f)

    i0, j0, ni, nj = grid._window
    vid = grid._vid
    h = grid.spacing
    cx, cy = _cut_rasters(grid, cover)
    cells = _cell_mask(grid)

    # only cells whose anchored-lift corners differ in sign hold a crossing
    s10 = anchor_sheet ^ cx[:-1, :-1]
    signs = np.stack([
        _sign(f[vid[:-1, :-1] + n * anchor_sheet]),
        _sign(f[vid[1:, :-1] + n * s10]),
        _sign(f[vid[:-1, 1:] + n * (anchor_sheet ^ cy[:-1, :-1])]),
        _sign(f[vid[1:, 1:] + n * (s10 ^ cy[1:, :-1])]),
    ])
    mixed = cells & signs.any(axis=0) & ~signs.all(axis=0)

    nodes = {}     # edge key -> crossing point
    segments = []  # (key1, key2, (a, b))

    def crossing(key, va, vb, sa, sb):
        fa, fb = f[va + n * sa], f[vb + n * sb]
        if _sign(fa) == _sign(fb):
            return None
        if key not in nodes:
            t = fa / (fa - fb)
            pa = grid.xy[va]
            pb = grid.xy[vb]
            nodes[key] = pa + t * (pb - pa)
        return key

    for a, b in np.argwhere(mixed):
        v00, v10 = int(vid[a, b]), int(vid[a + 1, b])
        v01, v11 = int(vid[a, b + 1]), int(vid[a + 1, b + 1])
        s00 = anchor_sheet
        s10 = s00 ^ cx[a, b]
        s01 = s00 ^ cy[a, b]
        s11 = s10 ^ cy[a + 1, b]
        south = crossing(("x", a, b), v00, v10, s00, s10)
        north = crossing(("x", a, b + 1), v01, v11, s01, s11)
        west = crossing(("y", a, b), v00, v01, s00, s01)
        east = crossing(("y", a + 1, b), v10, v11, s10, s11)
        hits = [kk for kk in (south, east, north, west) if kk is not None]
        if not hits:
            continue
        cell = (int(a), int(b))
        if len(hits) == 2:
            segments.append((hits[0], hits[1], cell))
        elif len(hits) == 4:
            center_pos = _sign(f[v00 + n * s00] + f[v10 + n * s10] + f[v01 + n * s01] + f[v11 + n * s11])
            if center_pos == _sign(f[v00 + n * s00]):
                segments.append((south, east, cell))
                segments.append((north, west, cell))
            else:
                segments.append((south, west, cell))
                segments.append((north, east, cell))
        else:
            raise RuntimeError(f"cell {cell} has {len(hits)} crossings")

    if not segments:
        raise NoSignChange("no sign change on any fully active cell")

    # chain the per-cell segments into polylines
    node_segs = {}
    for s, (k1, k2, _) in enumerate(segments):
        node_segs.setdefault(k1, []).append(s)
        node_segs.setdefault(k2, []).append(s)
    for key, ss in node_segs.items():
        if len(ss) > 2:
            raise RuntimeError(f"contour node {key} has degree {len(ss)}")

    used = [False] * len(segments)

    def walk(start_key):
        chain = [start_key]
        cur = start_key
        while True:
            nxt_seg = None
            for s in node_segs[cur]:
                if not used[s]:
                    nxt_seg = s
                    break
            if nxt_seg is None:
                break
            used[nxt_seg] = True
            k1, k2, _ = segments[nxt_seg]
            cur = k2 if k1 == cur else k1
            chain.append(cur)
            if cur == start_key:
                break
        return chain

    chains = []
    for key in sorted(k for k, ss in node_segs.items() if len(ss) == 1):
        if not used[node_segs[key][0]]:
            chains.append((walk(key), False))
    for key in sorted(node_segs):
        if any(not used[s] for s in node_segs[key]):
            chains.append((walk(key), True))

    # boundary vertices for endpoint snapping
    bverts = np.nonzero(grid.boundary_labels >= 0)[0]
    bxy = grid.xy[bverts]
    blab = grid.boundary_labels[bverts]

    def classify(point):
        d2 = np.sum((bxy - point) ** 2, axis=1)
        t = int(np.argmin(d2))
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
        cover=cover,
    )


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

    cells = _cell_mask(grid)
    free = cells.copy()
    for a, b in nodal.crossed_cells:
        if 0 <= a < free.shape[0] and 0 <= b < free.shape[1]:
            free[a, b] = False
    _, n_comp = ndimage.label(free)
    complement_connected = n_comp == 1

    cover_domain_count = _cover_components(nodal, grid, free)

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


def _cover_components(nodal: NodalSet, grid: GridDomain, free) -> int:
    """Components of the lifted free cells; sheets propagate through cut bits."""
    from scipy.sparse.csgraph import connected_components  # see cover.spanning_tree

    n_free = int(np.count_nonzero(free))
    if n_free == 0:
        return 0
    cx, cy = _cut_rasters(grid, nodal.cover)
    na, nb = free.shape
    index = np.full(free.shape, -1, dtype=np.int64)
    index[free] = np.arange(n_free)
    # node t + n_free * s is free cell t on sheet s; a step across a cut edge
    # changes sheet: cx[a, b] links (a, b) to (a + 1, b), cy[a, b] to (a, b + 1)
    x_link = free[:-1, :] & free[1:, :]
    y_link = free[:, :-1] & free[:, 1:]
    t0 = np.concatenate([index[:-1, :][x_link], index[:, :-1][y_link]])
    t1 = np.concatenate([index[1:, :][x_link], index[:, 1:][y_link]])
    cut = np.concatenate([cx[: na - 1, :nb][x_link], cy[:na, : nb - 1][y_link]]).astype(np.int64)
    rows = np.concatenate([t0, t0 + n_free])
    cols = np.concatenate([t1 + n_free * cut, t1 + n_free * (1 - cut)])
    g = sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(2 * n_free, 2 * n_free))
    return int(connected_components(g, directed=False)[0])


def degenerate_pair_check(
    u1,
    u2,
    grid: GridDomain,
    cover: CoverGraph,
    theta: CoverPhase = None,
    eigenvalues=None,
    cluster_tol: float = 1e-3,
    zero_tol: float = 1e-6,
) -> bool:
    """True iff two orthonormal conjugation-fixed ground representatives have
    disjoint nodal cell masks and u1 + i*u2 vanishes nowhere in the interior."""
    if grid.k not in (1, 2):
        raise PreconditionViolated(f"check defined for one or two holes, not k={grid.k}")
    if eigenvalues is not None and multiplicity_estimate(eigenvalues, cluster_tol) != 2:
        raise PreconditionViolated("ground multiplicity estimate is not two")
    u1 = np.asarray(u1, dtype=complex).reshape(-1)
    u2 = np.asarray(u2, dtype=complex).reshape(-1)
    u1 = u1 / np.linalg.norm(u1)
    u2 = u2 / np.linalg.norm(u2)
    if abs(np.vdot(u1, u2)) > 1e-6:
        raise PreconditionViolated("representatives are not orthogonal")
    if theta is None:
        theta = build_theta(cover)

    masks = []
    for u in (u1, u2):
        lift = lift_to_cover(u, theta)
        if np.max(np.abs(lift.imag)) > 1e-6 * np.max(np.abs(lift)):
            raise PreconditionViolated("representative is not conjugation-fixed (complex lift)")
        nod = extract_nodal_set(lift.real, cover, grid)
        masks.append(nod.crossed_cells)
    disjoint = not (masks[0] & masks[1])

    w = u1 + 1j * u2
    interior = grid.boundary_labels < 0
    nowhere_zero = bool(np.min(np.abs(w[interior])) > zero_tol * np.max(np.abs(w)))
    return disjoint and nowhere_zero


def circle_zero_points(f, cover: CoverGraph) -> np.ndarray:
    """Projected zeros of a real antisymmetric function on the circle cover.

    Returns sorted angles in [0, 2*pi); antipodal cover zeros project to one
    point each.
    """
    f = _zero_band(np.asarray(f, dtype=float).reshape(-1))
    n = cover.n_base
    h = cover.base.spacing
    base_tail = cover.project(cover.cover_edges()[:, 0])
    angles = []
    for e, (x, y) in enumerate(cover.cover_edges()):
        fa, fb = f[x], f[y]
        if _sign(fa) == _sign(fb):
            continue
        t = fa / (fa - fb)
        angles.append(((base_tail[e] + t) * h) % (2 * np.pi))
    if not angles:
        raise NoSignChange("no sign change on the cover circle")
    angles = np.sort(np.array(angles))
    keep = [angles[0]]
    for a in angles[1:]:
        if a - keep[-1] > 1e-9 and (2 * np.pi - (a - keep[0])) > 1e-9:
            keep.append(a)
    return np.array(keep)


def polylines_text(nodal: NodalSet, path):
    """Plain-text polyline listing: one line per point, blank line between curves."""
    with open(path, "w") as fh:
        for poly, lab in zip(nodal.polylines, nodal.endpoint_labels):
            tag = "closed" if lab is None else f"{lab[0]} {lab[1]}"
            fh.write(f"# line endpoints {tag}\n")
            for x, y in poly:
                fh.write(f"{float(x)!r} {float(y)!r}\n")
            fh.write("\n")
