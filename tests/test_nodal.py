"""Nodal extraction and the slitting topology report."""

import json
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings

import fluxlab as fl
from fluxlab.config import load_config
from fluxlab.errors import NoSignChange
from fluxlab.geometry import full_cells, raster_links
from fluxlab.nodal import NodalSet, _cover_components, _cut_rasters, _mixed_cells, _zero_band, values_at_crossings
from oracles import circle_zero_points, conjugation_operator, real_representatives, whole_window_mixed_cells
from test_geometry import small_domains


def ground_representatives(grid, flux_field, m=None, tol=1e-11):
    H = fl.assemble_magnetic(grid, flux_field)
    r = fl.lowest_eigenpairs(H, 4, tol=tol)
    if m is None:
        m = fl.multiplicity_estimate(r.eigenvalues, 1e-3)
    K = conjugation_operator(grid, flux_field)
    reps = real_representatives(r.eigenvectors[:, :m], K)
    cov = fl.build_cover(fl.as_edge_graph(grid, flux_field))
    th = fl.build_theta(cov)
    return r, reps, cov, th


def base_values(rep, th):
    """Sheet 0 of the real lift sqrt(2) Re(L rep) of a K-fixed representative:
    the n base values that the nodal layer reads."""
    f = np.sqrt(2.0) * fl.lift_to_cover(rep, th).real
    return f[: f.size // 2]


def rasterize_polyline(grid, points):
    """Test-side cell rasterization of a polyline."""
    i0, j0, _, _ = grid._window
    h = grid.spacing
    cells = set()
    for p, q in zip(points, points[1:]):
        steps = max(2, int(np.hypot(*(np.asarray(q) - p)) / (0.2 * h)) + 2)
        for s in range(steps + 1):
            x, y = p + (np.asarray(q) - p) * (s / steps)
            cells.add((int(np.floor(x / h)) - i0, int(np.floor(y / h)) - j0))
    return cells


def test_annulus_single_radial_line(annulus, annulus_half, annulus_cover):
    _, reps, cov, th = ground_representatives(annulus, annulus_half)
    assert reps.shape[1] == 2
    for j in range(2):
        nod = fl.extract_nodal_set(base_values(reps[:, j], th), cov, annulus)
        assert nod.n_open == 1 and nod.n_closed == 0
        assert sorted(nod.endpoint_labels[0]) == [0, 1]
        rep = fl.topology_report(nod, annulus)
        assert rep.passes_slitting and rep.bounds_ok
        assert rep.cover_domain_count == 2
        # the line is roughly radial: endpoints at radii near 0.3 and 1
        r0 = np.hypot(*nod.polylines[0][0])
        r1 = np.hypot(*nod.polylines[0][-1])
        assert abs(min(r0, r1) - 0.3) < 0.12 and abs(max(r0, r1) - 1.0) < 0.12


def test_two_hole_slitting(two_holes):
    f = fl.aharonov_bohm_potential(two_holes, [0.5, 0.5])
    r, reps, cov, th = ground_representatives(two_holes, f)
    assert fl.multiplicity_estimate(r.eigenvalues, 1e-3) <= 3  # never above k+1
    for j in range(reps.shape[1]):
        nod = fl.extract_nodal_set(base_values(reps[:, j], th), cov, two_holes)
        rep = fl.topology_report(nod, two_holes)
        assert rep.passes_slitting
        assert rep.bounds_ok  # 1 <= n <= 2
        assert rep.cover_domain_count == 2
        assert rep.passes_slitting == (rep.cover_domain_count == 2)


def test_a_closed_contour_chains_into_a_closed_polyline(annulus, annulus_cover):
    # u < 0 on a disk of radius 0.15 inside the annulus, beside the line
    # that the cut's sign change makes from the hole to the outer boundary
    cov, _ = annulus_cover
    x, y = annulus.xy.T
    nod = fl.extract_nodal_set((x - 0.6) ** 2 + y**2 - 0.15**2, cov, annulus)
    assert (nod.n_open, nod.n_closed) == (1, 1)
    assert nod.endpoint_labels == [(1, 0), None]
    assert [len(p) for p in nod.polylines] == [20, 15]
    assert np.array_equal(nod.polylines[1][0], nod.polylines[1][-1])
    rep = fl.topology_report(nod, annulus)
    assert rep.n_closed == 1 and not rep.passes_slitting
    d = json.loads(rep.to_json_line())
    assert d["n_closed"] == 1 and d["passes_slitting"] is False


def test_round_off_zeros_do_not_move_the_nodal_set():
    # at spacing 0.05 the line y = 0.5 between the two holes is a lattice
    # line, and the odd ground state is zero there up to a few eps * max|u|
    spec = fl.DomainSpec(
        outer=fl.Rect(0, 0, 3.0, 1.0),
        holes=(fl.Disk(1.0, 0.5, 0.2), fl.Disk(2.0, 0.5, 0.2)),
        spacing=0.05,
    )
    grid = fl.build_grid(spec)
    cov = fl.build_cover(fl.as_edge_graph(grid, fl.aharonov_bohm_potential(grid, [0.5, 0.5])))
    u = fl.lowest_eigenpairs(fl.antisymmetric_block(cov), 1, tol=1e-10).eigenvectors[:, 0]
    scale = np.max(np.abs(u))
    near = np.abs(u) <= 1e-12 * scale
    assert np.count_nonzero(near) >= 10
    assert np.all(np.abs(grid.xy[near, 1] - 0.5) < 1e-12)
    alternating = np.where(np.arange(u.size) % 2 == 0, 1.0, -1.0)
    base = fl.extract_nodal_set(u, cov, grid)
    for delta in (1e-16, -1e-16, 1e-16 * alternating):
        v = u + delta * scale * near
        nod = fl.extract_nodal_set(v, cov, grid)
        assert nod.crossed_cells == base.crossed_cells
        assert len(nod.polylines) == len(base.polylines)
        assert all(np.array_equal(p, q) for p, q in zip(nod.polylines, base.polylines))


def test_zeros_on_a_cut_take_the_side_of_their_sheet():
    # a square with a centred hole: the simple ground state vanishes up to
    # round-off on the diagonal from the hole to a corner, and a cut crosses
    # it, so a cell read from sheet 0 reads two of those zeros on sheet 1;
    # counting every zero as positive on both sheets gave 2 lines from u and
    # 3 from -u where there is one
    spec = fl.DomainSpec(outer=fl.Rect(0.025, 0.025, 1.625, 1.625), holes=(fl.Disk(0.875, 0.875, 0.2),), spacing=0.05)
    grid = fl.build_grid(spec)
    cov = fl.build_cover(fl.as_edge_graph(grid, fl.aharonov_bohm_potential(grid, [0.5])))
    u = fl.lowest_eigenpairs(fl.antisymmetric_block(cov), 1, tol=1e-10).eigenvectors[:, 0]
    assert np.count_nonzero(_zero_band(u) == 0.0) >= 10
    for v in (u, -u):
        rep = fl.topology_report(fl.extract_nodal_set(v, cov, grid), grid)
        assert rep.n_lines == 1 and rep.passes_slitting and rep.bounds_ok


def assert_sign_free(u, cov, grid):
    """u and -u give one nodal set: the same lines with the same endpoint
    labels, and the same report.

    Neither the crossed cells nor the direction a line is traced in are
    compared: where a line runs along round-off zeros, the cells it is
    counted through and the edge each zero crossing is keyed on depend on
    the side the zeros take.
    """
    a, b = (fl.extract_nodal_set(v, cov, grid) for v in (u, -u))
    assert len(a.polylines) == len(b.polylines) > 0
    for p, q, la, lb in zip(a.polylines, b.polylines, a.endpoint_labels, b.endpoint_labels):
        if not np.array_equal(p, q) and lb is not None:
            q, lb = q[::-1], lb[::-1]
        assert np.array_equal(p, q) and la == lb
    assert fl.topology_report(a, grid).to_json_line() == fl.topology_report(b, grid).to_json_line()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(small_domains())
def test_nodal_set_does_not_depend_on_eigenvector_sign(grid):
    # the solver fixes u only up to sign
    assume(grid.k == 1)
    cov = fl.build_cover(fl.as_edge_graph(grid, fl.aharonov_bohm_potential(grid, [0.5])))
    u = fl.lowest_eigenpairs(fl.antisymmetric_block(cov), 1, tol=1e-10).eigenvectors[:, 0]
    assert_sign_free(u, cov, grid)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_domains())
def test_cover_splits_in_two_iff_the_ground_nodal_set_slits(grid):
    # on each half-flux ground state, the lifted complement of the nodal set
    # has two components exactly when the set slits the domain
    assume(grid.k == 1)
    cov = fl.build_cover(fl.as_edge_graph(grid, fl.aharonov_bohm_potential(grid, [0.5])))
    r = fl.lowest_eigenpairs(fl.antisymmetric_block(cov), 3, tol=1e-10)
    for u in r.eigenvectors[:, : fl.multiplicity_estimate(r.eigenvalues, 1e-3)].T:
        rep = fl.topology_report(fl.extract_nodal_set(u, cov, grid), grid)
        assert (rep.cover_domain_count == 2) == rep.passes_slitting, rep.to_json_line()


def test_nodal_set_does_not_depend_on_eigenvector_sign_along_zeros():
    # two holes at spacing 0.05: the nodal line between the holes runs along
    # the lattice row y = 0.5, through vertices in the zero band
    spec = fl.DomainSpec(
        outer=fl.Rect(0, 0, 3.0, 1.0),
        holes=(fl.Disk(1.0, 0.5, 0.2), fl.Disk(2.0, 0.5, 0.2)),
        spacing=0.05,
    )
    grid = fl.build_grid(spec)
    cov = fl.build_cover(fl.as_edge_graph(grid, fl.aharonov_bohm_potential(grid, [0.5, 0.5])))
    u = fl.lowest_eigenpairs(fl.antisymmetric_block(cov), 1, tol=1e-10).eigenvectors[:, 0]
    assert np.count_nonzero(_zero_band(u) == 0.0) >= 10
    assert_sign_free(u, cov, grid)


def half_flux_vectors(grid, m=2):
    """The cover at half flux through every hole and the m lowest vectors of
    its antisymmetric block, each with its negative."""
    cov = fl.build_cover(fl.as_edge_graph(grid, fl.aharonov_bohm_potential(grid, [0.5] * grid.k)))
    U = fl.lowest_eigenpairs(fl.antisymmetric_block(cov), m, tol=1e-10).eigenvectors
    return cov, [s * U[:, j] for j in range(m) for s in (1.0, -1.0)]


def assert_extraction_matches_whole_window(u, cov, grid):
    """The mixed-cell classification equals the whole-window oracle's, and
    extract_nodal_set, with either one, returns the same polylines (bit for
    bit), endpoint labels, crossed cells and crossings."""
    g = _zero_band(u)
    (cells, base, lifted, value), want = _mixed_cells(g, cov, grid), whole_window_mixed_cells(g, cov, grid)
    assert np.array_equal(cells, want[0]) and np.array_equal(base, want[1])
    assert lifted.dtype == want[2].dtype and np.array_equal(lifted, want[2])
    assert value.dtype == want[3].dtype and value.tobytes() == want[3].tobytes()
    got = fl.extract_nodal_set(u, cov, grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fl.nodal, "_mixed_cells", whole_window_mixed_cells)
        oracle = fl.extract_nodal_set(u, cov, grid)
    assert len(got.polylines) == len(oracle.polylines) > 0
    assert all(p.tobytes() == q.tobytes() for p, q in zip(got.polylines, oracle.polylines))
    assert got.endpoint_labels == oracle.endpoint_labels
    assert got.crossed_cells == oracle.crossed_cells
    assert got.crossings == oracle.crossings


@settings(max_examples=15, deadline=None, derandomize=True)
@given(small_domains())
def test_mixed_cell_extraction_matches_the_whole_window(grid):
    assume(grid.k == 1)
    cov, vectors = half_flux_vectors(grid)
    for u in vectors:
        assert_extraction_matches_whole_window(u, cov, grid)


@pytest.fixture(scope="module")
def shipped_grids():
    """The annulus and two holes of the shipped configs, at h = 0.02."""
    specs = (load_config(f"configs/{name}.cfg").domain for name in ("annulus", "two_holes"))
    return [fl.build_grid(fl.DomainSpec(outer=s.outer, holes=s.holes, spacing=0.02)) for s in specs]


def test_mixed_cell_extraction_matches_the_whole_window_on_shipped_domains(shipped_grids):
    for grid in shipped_grids:
        cov, vectors = half_flux_vectors(grid)
        for u in vectors:
            assert_extraction_matches_whole_window(u, cov, grid)


def test_a_crossing_between_two_zeros_sits_midway(shipped_grids):
    # the second vector of the two-hole block at h = 0.02 vanishes along a
    # lattice line that a cut crosses, so a lifted edge reads +0.0 at one end
    # and -0.0 at the other: t = 0 / 0 put nan into the polyline
    grid = shipped_grids[1]
    cov, vectors = half_flux_vectors(grid)
    u = vectors[2]
    nod = fl.extract_nodal_set(u, cov, grid)
    lift = np.concatenate([_zero_band(u), -_zero_band(u)])
    midway = [t for a, b, t in nod.crossings if lift[a] == 0.0 == lift[b]]
    assert midway and all(t == 0.5 for t in midway)
    assert all(np.isfinite(p).all() for p in nod.polylines)


# tracemalloc peak of one extraction on the annulus at h = 0.02 (a 105 x 105
# index window): about 0.19 MB reading the mixed cells alone, against 1.86 MB
# for (4, 104, 104) stacks of corner ids, sheets and values over the window
EXTRACTION_PEAK_BYTES = 500_000


def test_extraction_allocates_nothing_window_sized(shipped_grids):
    grid = shipped_grids[0]
    cov, (u, *_) = half_flux_vectors(grid, 1)
    fl.extract_nodal_set(u, cov, grid)  # a first call may fill caches
    tracemalloc.start()
    try:
        fl.extract_nodal_set(u, cov, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < EXTRACTION_PEAK_BYTES, peak


def free_cells(nodal, grid):
    """The free-cell mask topology_report builds."""
    free = full_cells(grid._active)
    for a, b in nodal.crossed_cells:
        if 0 <= a < free.shape[0] and 0 <= b < free.shape[1]:
            free[a, b] = False
    return free


def oracle_cover_components(nodal, grid, free):
    """Reference BFS over (cell, sheet) pairs; a step across a cut edge changes sheet."""
    cx, cy = _cut_rasters(grid, nodal.cover)
    index = {(int(a), int(b)): t for t, (a, b) in enumerate(np.argwhere(free))}
    seen = np.zeros((len(index), 2), dtype=bool)
    count = 0
    for start in index:
        for sheet0 in (0, 1):
            if seen[index[start], sheet0]:
                continue
            count += 1
            seen[index[start], sheet0] = True
            q = deque([(start[0], start[1], sheet0)])
            while q:
                a, b, s = q.popleft()
                moves = (
                    (a + 1, b, s ^ cx[a, b]),
                    (a - 1, b, s ^ cx[a - 1, b] if a > 0 else s),
                    (a, b + 1, s ^ cy[a, b]),
                    (a, b - 1, s ^ cy[a, b - 1] if b > 0 else s),
                )
                for na, nb, ns in moves:
                    t = index.get((na, nb))
                    if t is not None and not seen[t, int(ns)]:
                        seen[t, int(ns)] = True
                        q.append((na, nb, int(ns)))
    return count


def hand_nodal_set(grid, cover, lines, labels):
    cells = frozenset().union(*[rasterize_polyline(grid, line) for line in lines])
    return NodalSet(polylines=lines, endpoint_labels=labels, crossed_cells=cells, crossings=[], cover=cover)


def test_cover_components_match_oracle(annulus, annulus_half, annulus_cover, two_holes):
    sets = []
    for grid, flux in ((annulus, annulus_half), (two_holes, fl.aharonov_bohm_potential(two_holes, [0.5, 0.5]))):
        _, reps, cov, th = ground_representatives(grid, flux)
        sets.append((fl.extract_nodal_set(base_values(reps[:, 0], th), cov, grid), grid))
    # hand-stripped sets that fail slitting: the two-hole line cut short, and
    # two radial annulus lines that split the complement
    line = sets[1][0].polylines[0]
    sets.append((hand_nodal_set(two_holes, sets[1][0].cover, [line[: len(line) // 2]], [(1, -1)]), two_holes))
    ts = np.linspace(0.3, 1.0, 30)
    radial = [np.column_stack([ts * np.cos(ang), ts * np.sin(ang)]) for ang in (0.3, 2.1)]
    sets.append((hand_nodal_set(annulus, annulus_cover[0], radial, [(1, 0), (1, 0)]), annulus))
    passes = [fl.topology_report(nod, grid).passes_slitting for nod, grid in sets]
    assert passes == [True, True, False, False]

    cases = [(nod, grid, free_cells(nod, grid)) for nod, grid in sets]
    # every cell crossed: nothing free, no components
    cases.append((sets[0][0], annulus, np.zeros_like(cases[0][2])))
    counts = [_cover_components(*case, raster_links(case[2], ((1, 0), (0, 1)))) for case in cases]
    assert counts == [oracle_cover_components(*case) for case in cases]
    assert counts[:2] == [2, 2] and counts[-1] == 0


def test_empty_nodal_set_fails_parity(annulus, annulus_cover):
    cov, _ = annulus_cover
    empty = NodalSet(polylines=[], endpoint_labels=[], crossed_cells=frozenset(), crossings=[], cover=cov)
    rep = fl.topology_report(empty, annulus)
    assert not rep.parity_ok
    assert not rep.passes_slitting
    assert rep.complement_connected  # nothing removed
    assert rep.cover_domain_count == 1  # connected cover stays whole


def test_two_radial_lines_disconnect(annulus, annulus_cover):
    cov, _ = annulus_cover
    lines = []
    for ang in (0.3, 2.1):
        ts = np.linspace(0.3, 1.0, 30)
        lines.append(np.column_stack([ts * np.cos(ang), ts * np.sin(ang)]))
    cells = set()
    for line in lines:
        cells |= rasterize_polyline(annulus, line)
    synth = NodalSet(
        polylines=lines,
        endpoint_labels=[(1, 0), (1, 0)],
        crossed_cells=frozenset(cells),
        crossings=[],
        cover=cov,
    )
    rep = fl.topology_report(synth, annulus)
    assert not rep.complement_connected
    assert not rep.parity_ok  # two lines at the hole: even
    assert not rep.passes_slitting


def test_removing_a_line_breaks_parity(annulus, annulus_half, two_holes):
    # one-hole case: the extracted single line removed leaves nothing
    _, reps, cov, th = ground_representatives(annulus, annulus_half)
    nod = fl.extract_nodal_set(base_values(reps[:, 0], th), cov, annulus)
    assert fl.topology_report(nod, annulus).passes_slitting
    stripped = NodalSet(polylines=[], endpoint_labels=[], crossed_cells=frozenset(), crossings=[], cover=cov)
    assert not fl.topology_report(stripped, annulus).passes_slitting

    # two-hole case: drop each line of a passing set in turn
    f2 = fl.aharonov_bohm_potential(two_holes, [0.5, 0.5])
    _, reps2, cov2, th2 = ground_representatives(two_holes, f2)
    nod2 = fl.extract_nodal_set(base_values(reps2[:, 0], th2), cov2, two_holes)
    assert fl.topology_report(nod2, two_holes).passes_slitting
    for drop in range(len(nod2.polylines)):
        keep = [t for t in range(len(nod2.polylines)) if t != drop]
        sub = NodalSet(
            polylines=[nod2.polylines[t] for t in keep],
            endpoint_labels=[nod2.endpoint_labels[t] for t in keep],
            crossed_cells=frozenset().union(
                *[rasterize_polyline(two_holes, nod2.polylines[t]) for t in keep]
            )
            if keep
            else frozenset(),
            crossings=[],
            cover=cov2,
        )
        assert not fl.topology_report(sub, two_holes).parity_ok


def test_extraction_requires_base_values(annulus, annulus_cover):
    cov, _ = annulus_cover
    n = annulus.n_vertices
    # a lift to the cover has 2n values
    with pytest.raises(ValueError):
        fl.extract_nodal_set(np.ones(2 * n), cov, annulus)
    with pytest.raises(NoSignChange):
        fl.extract_nodal_set(np.zeros(n), cov, annulus)


def test_circle_single_zero_point():
    n = 64
    cg = fl.circle_graph(n, 0.5)
    cov = fl.build_cover(cg)
    th = fl.build_theta(cov)
    H = fl.assemble_circle(n, 0.5)
    r = fl.lowest_eigenpairs(H, 2, tol=1e-12)
    K = fl.ConjugationOperator(cov)
    reps = real_representatives(r.eigenvectors[:, :2], K)
    zeros = []
    for j in range(2):
        lift = fl.lift_to_cover(reps[:, j], th)
        assert np.max(np.abs(lift.imag)) < 1e-8
        pts = circle_zero_points(lift.real, cov)
        assert pts.shape == (1,)
        zeros.append(pts[0])
    # orthogonal representatives have antipodal zeros
    d = abs(zeros[0] - zeros[1])
    assert abs(min(d, 2 * np.pi - d) - np.pi) < 2 * np.pi / n


def test_polylines_text(tmp_path, annulus, annulus_half):
    _, reps, cov, th = ground_representatives(annulus, annulus_half)
    nod = fl.extract_nodal_set(base_values(reps[:, 0], th), cov, annulus)
    p = tmp_path / "lines.txt"
    fl.nodal.polylines_text(nod, p)
    text = p.read_text()
    assert text.startswith("# line endpoints")
    assert len([l for l in text.splitlines() if l and not l.startswith("#")]) == len(nod.polylines[0])
    # plain floats that read back exactly
    assert np.array_equal(np.loadtxt(p, comments="#"), np.vstack(nod.polylines))


def crossing_coordinates(nod, grid, axis):
    """The axis coordinate of each crossing, interpolated along its base edge."""
    x, n = grid.xy[:, axis], grid.n_vertices
    return np.array([x[a % n] + t * (x[b % n] - x[a % n]) for a, b, t in nod.crossings])


@pytest.mark.parametrize("fixture, flux", [("annulus", [0.5]), ("two_holes", [0.5, 0.5])])
def test_values_at_crossings_read_the_marching_squares_nodes(request, fixture, flux):
    grid = request.getfixturevalue(fixture)
    _, reps, cov, th = ground_representatives(grid, fl.aharonov_bohm_potential(grid, flux))
    u = base_values(reps[:, 0], th)
    nod = fl.extract_nodal_set(u, cov, grid)
    nodes = np.unique(np.vstack(nod.polylines), axis=0)
    # one crossing per polyline node, at the fraction t of its edge
    for axis in range(2):
        got = np.sort(crossing_coordinates(nod, grid, axis))
        assert got.shape == (nodes.shape[0],)
        assert np.max(np.abs(got - np.sort(nodes[:, axis]))) <= 1e-12
    # g is read on its lift, g on sheet 0 and -g on sheet 1, along the
    # lifted edge of each crossing
    g = np.random.default_rng(3).standard_normal(grid.n_vertices)
    lift = np.concatenate([g, -g])
    want = [lift[a] + t * (lift[b] - lift[a]) for a, b, t in nod.crossings]
    assert np.array_equal(values_at_crossings(g, nod), want)
    with pytest.raises(ValueError):
        values_at_crossings(lift, nod)
    # u itself vanishes at its crossings
    assert np.max(np.abs(values_at_crossings(u, nod))) <= 1e-12 * np.max(np.abs(u))


def test_crossings_are_the_lifted_edges_marching_squares_read():
    # at spacing 0.05 the nodal line between the two holes runs along the
    # lattice row y = 0.5, through vertices in the zero band
    spec = fl.DomainSpec(
        outer=fl.Rect(0, 0, 3.0, 1.0),
        holes=(fl.Disk(1.0, 0.5, 0.2), fl.Disk(2.0, 0.5, 0.2)),
        spacing=0.05,
    )
    grid = fl.build_grid(spec)
    cov = fl.build_cover(fl.as_edge_graph(grid, fl.aharonov_bohm_potential(grid, [0.5, 0.5])))
    u = fl.lowest_eigenpairs(fl.antisymmetric_block(cov), 1, tol=1e-10).eigenvectors[:, 0]
    nod = fl.extract_nodal_set(u, cov, grid)
    on_row = np.abs(np.vstack(nod.polylines)[:, 1] - 0.5) < 1e-12
    assert np.count_nonzero(on_row) >= 10
    # one crossing per distinct polyline node, each on a lifted edge whose
    # ends the lift puts on opposite sides of zero (a zero is +0.0 on sheet 0
    # and -0.0 on sheet 1)
    nodes = np.unique(np.vstack(nod.polylines), axis=0)
    assert len(nod.crossings) == nodes.shape[0]
    lifted = set(map(tuple, cov.cover_edges().tolist()))
    g = _zero_band(u)
    lift = np.concatenate([g, -g])
    for a, b, t in nod.crossings:
        assert (a, b) in lifted
        assert np.signbit(lift[a]) != np.signbit(lift[b]) and 0.0 <= t <= 1.0
    for axis in range(2):
        got = np.sort(crossing_coordinates(nod, grid, axis))
        assert np.max(np.abs(got - np.sort(nodes[:, axis]))) <= 1e-12


def test_report_json_line(annulus, annulus_half):
    _, reps, cov, th = ground_representatives(annulus, annulus_half)
    nod = fl.extract_nodal_set(base_values(reps[:, 0], th), cov, annulus)
    rep = fl.topology_report(nod, annulus)
    d = json.loads(rep.to_json_line())
    assert d["n_lines"] == 1 and d["passes_slitting"] is True
    # endpoint conservation: classified + unclassified endpoints = 2 per line
    total = sum(rep.endpoints_per_component.values()) + rep.unclassified_endpoints
    assert total == 2 * rep.n_lines
