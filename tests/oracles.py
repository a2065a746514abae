"""Reference code that only the tests use.

The complex half-flux route (the K-path) finds K-fixed representatives of a
magnetic eigenspace; their real cover lifts are what the real half-flux
block must reproduce.  Beside it: the reflection lift of the half-flux
block read off a two-sheet graph, the mixed cells of marching squares read
off corner stacks over the whole index window, the zeros of a real
antisymmetric function on the circle cover, the plaquette sums of a link
field, the integer flux shift of a link field, the Hermiticity defect of
an assembled operator, the lattice neighbours of a vertex, the
boundary components read off the 8-neighbour regions of the excluded
lattice points, and the radial slit read off a ray walk across the whole
index window.
"""

import numpy as np
from scipy import sparse

import fluxlab as fl
from fluxlab.errors import BadSlit, FluxlabError, LengthMismatch, NoSignChange
from fluxlab.experiments import _symmetries
from fluxlab.geometry import full_cells
from fluxlab.nodal import _cut_rasters, _zero_band
from fluxlab.operators import make_slit

KEEP_TOL = 1e-6  # shortest Gram-Schmidt candidate that adds a K-fixed direction


class DegenerateProjection(FluxlabError):
    """Conjugation-fixed projection of an eigenbasis collapsed."""


def conjugation_operator(grid, field) -> fl.ConjugationOperator:
    return fl.ConjugationOperator(fl.build_cover(fl.as_edge_graph(grid, field)))


def real_representatives(vectors, kop: fl.ConjugationOperator) -> np.ndarray:
    """Orthonormal K-fixed basis of the span of the given eigenvectors.

    For each input column v both v + Kv and i(v - Kv) are K-fixed; a real
    Gram-Schmidt over those candidates recovers one fixed vector per complex
    dimension.  Inner products between K-fixed vectors are real, so the
    returned columns are orthonormal in the full complex inner product too.
    """
    U = np.asarray(vectors, dtype=complex)
    if U.ndim == 1:
        U = U[:, None]
    m = U.shape[1]
    basis = []
    for j in range(m):
        v = U[:, j]
        nv = np.linalg.norm(v)
        if nv == 0:
            continue
        v = v / nv
        kv = kop.apply(v)
        for cand in (v + kv, 1j * (v - kv)):
            if len(basis) == m:
                break
            w = cand.copy()
            for _ in range(2):
                for q in basis:
                    w = w - q * np.real(np.vdot(q, w))
            nw = np.linalg.norm(w)
            if nw > KEEP_TOL:
                basis.append(w / nw)
    if len(basis) < m:
        raise DegenerateProjection(
            f"found {len(basis)} conjugation-fixed directions for a {m}-dimensional span"
        )
    return np.column_stack(basis)


def real_representative(u, kop: fl.ConjugationOperator) -> np.ndarray:
    """Single K-fixed representative of a one-dimensional eigenspace."""
    return real_representatives(u, kop)[:, 0]


def two_sheet_components(t0, t1, flip, n):
    """(count, labels) of the connected components of a two-sheet graph.

    Node t + n * s is base node t on sheet s; each base link t0 -- t1 joins
    equal sheets where flip is 0 and changes sheet where it is 1, as a cut
    edge does on the cover.
    """
    from scipy.sparse.csgraph import connected_components

    rows = np.concatenate([t0, t0 + n])
    cols = np.concatenate([t1 + n * flip, t1 + n * (1 - flip)])
    g = sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(2 * n, 2 * n))
    return connected_components(g, directed=False)


def two_sheet_lift(B, lattice):
    """(p, d) for the first lattice involution p that keeps V for which
    S = D P, (S u)_v = d_v u_p(v), satisfies S B S^T = B bit for bit and
    S^2 = I; None if none does.

    d two-colours the hop signs that the cut edges flip between B and
    B[p][:, p]: in the two-sheet graph of B, where a flipped entry changes
    sheet, d_v says whether (v, 0) lies in the component of (0, 0).
    """
    n = B.shape[0]
    ident = np.arange(n)
    coo = B.tocoo()
    r, c = coo.row, coo.col
    for p in _symmetries(lattice):
        if np.array_equal(p, ident) or not np.array_equal(p[p], ident):
            continue
        image = np.asarray(B[p[r], p[c]]).ravel()
        flip = (np.signbit(image) != np.signbit(coo.data)).astype(np.int64)
        labels = two_sheet_components(r, c, flip, n)[1]
        d = np.where(labels[:n] == labels[0], 1.0, -1.0)
        if np.all(d * d[p] == 1.0) and np.array_equal(d[r] * d[c] * image, coo.data):
            return p, d
    return None


def whole_window_mixed_cells(u, cover: fl.CoverGraph, grid: fl.GridDomain):
    """nodal._mixed_cells read off (4, ni - 1, nj - 1) stacks over the whole
    index window: the corner ids of every cell, the sheet of each corner on
    the lift from its (a, b) corner on sheet 0, their lifted ids and values.
    The mixed cells are the fully active ones whose lifted values differ in
    sign bit."""
    n = grid.n_vertices
    vid = grid._vid.astype(np.int64)
    cx, cy = _cut_rasters(grid, cover)
    base = np.stack([vid[:-1, :-1], vid[1:, :-1], vid[:-1, 1:], vid[1:, 1:]])
    s10, s01 = cx[:-1, :-1], cy[:-1, :-1]
    sheet = np.stack([np.zeros_like(s10), s10, s01, s10 ^ cy[1:, :-1]])
    lifted = base + n * sheet
    value = np.where(sheet, -u[base], u[base])
    positive = ~np.signbit(value)
    cells = np.argwhere(full_cells(grid._active) & positive.any(axis=0) & ~positive.all(axis=0))
    a, b = cells[:, 0], cells[:, 1]
    return cells, base[:, a, b], lifted[:, a, b], value[:, a, b]


def circle_zero_points(f, cover: fl.CoverGraph) -> np.ndarray:
    """Projected zeros of a real antisymmetric function on the circle cover.

    Returns sorted angles in [0, 2*pi); antipodal cover zeros project to one
    point each.
    """
    f = _zero_band(np.asarray(f, dtype=float).reshape(-1))
    h = cover.base.spacing
    base_tail = cover.project(cover.cover_edges()[:, 0])
    angles = []
    for e, (x, y) in enumerate(cover.cover_edges()):
        fa, fb = f[x], f[y]
        if (fa >= 0) == (fb >= 0):
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


def plaquette_sums(field: fl.LinkField) -> np.ndarray:
    """Oriented phase sum around every fully active plaquette.

    Cells come in lexicographic window order; each sum runs anticlockwise
    from the lower-left corner: +x bottom, +y right, -x top, -y left.
    """
    grid = field.grid
    ca, cb = np.nonzero(full_cells(grid._active))
    ex, ey = grid._edge_raster
    th = field.theta
    return th[ex[ca, cb]] + th[ey[ca + 1, cb]] - th[ex[ca, cb + 1]] - th[ey[ca, cb]]


def integer_flux_shift(grid, field: fl.LinkField, l) -> fl.LinkField:
    """Add the canonical potential of an integer flux vector l.

    Circulations shift by l; the spectrum of the assembled operator is
    unchanged because integer-circulation phases are a lattice gradient.
    """
    l = np.asarray(l, dtype=float).reshape(-1)
    if l.size != grid.k:
        raise LengthMismatch(f"expected {grid.k} integers, got {l.size}")
    if np.any(np.abs(l - np.round(l)) > 1e-12):
        raise LengthMismatch("flux shift must be an integer vector")
    return fl.LinkField(grid=grid, theta=field.theta + fl.aharonov_bohm_potential(grid, l).theta)


def hermiticity_defect(A) -> float:
    """Largest entry of A - A^* for a sparse matrix A."""
    d = A - A.getH()
    return float(np.max(np.abs(d.data))) if d.nnz else 0.0


def neighbors(grid: fl.GridDomain, v) -> list:
    """Active 4-neighbours of vertex v, in +x, -x, +y, -y order."""
    i, j = grid.ij[v]
    i0, j0, ni, nj = grid._window
    out = []
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        a, b = i - i0 + di, j - j0 + dj
        if 0 <= a < ni and 0 <= b < nj and grid._vid[a, b] >= 0:
            out.append(grid._vid[a, b])
    return out


def excluded_regions(grid: fl.GridDomain):
    """(excl, boundary_labels) from the 8-neighbour components of the
    excluded lattice points.

    The region holding the window's corner is the outer boundary, 0; every
    other region is hole i, the one whose closed shape holds its first point,
    and each hole must get exactly one region.  An active vertex takes the
    region of its excluded 4-neighbours, which must agree.
    """
    from scipy import ndimage

    i0, j0, ni, nj = grid._window
    h = grid.spacing
    regions, count = ndimage.label(~grid._active, structure=np.ones((3, 3), dtype=bool))
    excl = np.full((ni, nj), -1, dtype=np.int16)
    matched = []
    for r in range(1, count + 1):
        region = regions == r
        if r == regions[0, 0]:
            excl[region] = 0
            continue
        a, b = np.argwhere(region)[0]
        (idx,) = [i for i, hole in enumerate(grid.spec.holes) if hole.contains((a + i0) * h, (b + j0) * h)]
        matched.append(idx)
        excl[region] = idx + 1
    assert sorted(matched) == list(range(grid.k))
    labels = np.full(grid.n_vertices, -1, dtype=np.int16)
    for v, (a, b) in enumerate(grid.ij - (i0, j0)):
        touched = {int(excl[a + da, b + db]) for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1))} - {-1}
        assert len(touched) <= 1
        labels[v] = touched.pop() if touched else -1
    return excl, labels


def window_ray_slit(grid: fl.GridDomain, hole: int, angle: float) -> fl.SlitPath:
    """Radial slit from a ray walk to the edge of the index window.

    The walk keeps every active point it passes, clips them to the span
    between the first and the last boundary vertex, and trims boundary
    contacts at both ends.  A ray that crosses a second hole keeps the
    points on both sides of it, and make_slit rejects the gap.
    """
    h = grid.spacing
    cx, cy = grid.hole_refs[hole - 1]
    dx, dy = np.cos(angle), np.sin(angle)
    i0, j0, ni, nj = grid._window
    a = int(round(cx / h)) - i0
    b = int(round(cy / h)) - j0
    path = []
    for _ in range(4 * (ni + nj)):
        if not (0 <= a < ni and 0 <= b < nj):
            break
        path.append((a, b))
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

    active_run = [v for v in (int(grid._vid[a, b]) for a, b in path) if v >= 0]
    lab = grid.boundary_labels
    onb = [t for t, v in enumerate(active_run) if lab[v] >= 0]
    if len(onb) < 2:
        raise BadSlit(f"ray at angle {angle} does not join two boundary components")
    run = active_run[onb[0] : onb[-1] + 1]
    while len(run) > 2 and lab[run[1]] >= 0 and lab[run[1]] == lab[run[0]]:
        run = run[1:]
    while len(run) > 2 and lab[run[-2]] >= 0 and lab[run[-2]] == lab[run[-1]]:
        run = run[:-1]
    return make_slit(grid, run)
