"""Nodal extraction and the slitting topology report."""

from collections import deque

import numpy as np
import pytest

import fluxlab as fl
from fluxlab.errors import NoSignChange, PreconditionViolated
from fluxlab.nodal import NodalSet, _cell_mask, _cover_components, _cut_rasters


def ground_representatives(grid, flux_field, m=None, tol=1e-11):
    H = fl.assemble_magnetic(grid, flux_field)
    r = fl.lowest_eigenpairs(H, 4, tol=tol)
    if m is None:
        m = fl.multiplicity_estimate(r.eigenvalues, 1e-3)
    K = fl.conjugation_operator(grid, flux_field)
    reps = fl.real_representatives(r.eigenvectors[:, :m], K)
    cov = fl.build_cover(fl.as_edge_graph(grid, flux_field))
    th = fl.build_theta(cov)
    return r, reps, cov, th


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
        f = np.sqrt(2.0) * fl.lift_to_cover(reps[:, j], th).real
        nod = fl.extract_nodal_set(f, cov, annulus)
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
        nod = fl.extract_nodal_set(np.sqrt(2.0) * fl.lift_to_cover(reps[:, j], th).real, cov, two_holes)
        rep = fl.topology_report(nod, two_holes)
        assert rep.passes_slitting
        assert rep.bounds_ok  # 1 <= n <= 2
        assert rep.cover_domain_count == 2
        assert rep.passes_slitting == (rep.cover_domain_count == 2)


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
    base = fl.extract_nodal_set(np.concatenate([u, -u]), cov, grid)
    for delta in (1e-16, -1e-16, 1e-16 * alternating):
        v = u + delta * scale * near
        nod = fl.extract_nodal_set(np.concatenate([v, -v]), cov, grid)
        assert nod.crossed_cells == base.crossed_cells
        assert len(nod.polylines) == len(base.polylines)
        assert all(np.array_equal(p, q) for p, q in zip(nod.polylines, base.polylines))


def test_projection_consistency(annulus, annulus_half, annulus_cover):
    _, reps, cov, th = ground_representatives(annulus, annulus_half)
    f = np.sqrt(2.0) * fl.lift_to_cover(reps[:, 0], th).real
    a = fl.extract_nodal_set(f, cov, annulus, anchor_sheet=0)
    b = fl.extract_nodal_set(f, cov, annulus, anchor_sheet=1)
    assert a.crossed_cells == b.crossed_cells


def test_projection_consistency_two_holes(two_holes):
    _, reps, cov, th = ground_representatives(two_holes, fl.aharonov_bohm_potential(two_holes, [0.5, 0.5]))
    f = np.sqrt(2.0) * fl.lift_to_cover(reps[:, 0], th).real
    a = fl.extract_nodal_set(f, cov, two_holes, anchor_sheet=0)
    b = fl.extract_nodal_set(f, cov, two_holes, anchor_sheet=1)
    assert a.crossed_cells == b.crossed_cells
    assert len(a.polylines) == len(b.polylines) > 0
    assert all(np.array_equal(p, q) for p, q in zip(a.polylines, b.polylines))
    assert a.endpoint_labels == b.endpoint_labels


def free_cells(nodal, grid):
    """The free-cell mask topology_report builds."""
    free = _cell_mask(grid)
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
    return NodalSet(polylines=lines, endpoint_labels=labels, crossed_cells=cells, cover=cover)


def test_cover_components_match_oracle(annulus, annulus_half, annulus_cover, two_holes):
    sets = []
    for grid, flux in ((annulus, annulus_half), (two_holes, fl.aharonov_bohm_potential(two_holes, [0.5, 0.5]))):
        _, reps, cov, th = ground_representatives(grid, flux)
        sets.append((fl.extract_nodal_set(np.sqrt(2.0) * fl.lift_to_cover(reps[:, 0], th).real, cov, grid), grid))
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
    counts = [_cover_components(*case) for case in cases]
    assert counts == [oracle_cover_components(*case) for case in cases]
    assert counts[:2] == [2, 2] and counts[-1] == 0


def test_empty_nodal_set_fails_parity(annulus, annulus_cover):
    cov, _ = annulus_cover
    empty = NodalSet(polylines=[], endpoint_labels=[], crossed_cells=frozenset(), cover=cov)
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
        cover=cov,
    )
    rep = fl.topology_report(synth, annulus)
    assert not rep.complement_connected
    assert not rep.parity_ok  # two lines at the hole: even
    assert not rep.passes_slitting


def test_removing_a_line_breaks_parity(annulus, annulus_half, two_holes):
    # one-hole case: the extracted single line removed leaves nothing
    _, reps, cov, th = ground_representatives(annulus, annulus_half)
    nod = fl.extract_nodal_set(np.sqrt(2.0) * fl.lift_to_cover(reps[:, 0], th).real, cov, annulus)
    assert fl.topology_report(nod, annulus).passes_slitting
    stripped = NodalSet(polylines=[], endpoint_labels=[], crossed_cells=frozenset(), cover=cov)
    assert not fl.topology_report(stripped, annulus).passes_slitting

    # two-hole case: drop each line of a passing set in turn
    f2 = fl.aharonov_bohm_potential(two_holes, [0.5, 0.5])
    _, reps2, cov2, th2 = ground_representatives(two_holes, f2)
    nod2 = fl.extract_nodal_set(np.sqrt(2.0) * fl.lift_to_cover(reps2[:, 0], th2).real, cov2, two_holes)
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
            cover=cov2,
        )
        assert not fl.topology_report(sub, two_holes).parity_ok


def test_degenerate_pair_check_annulus(annulus, annulus_half):
    r, reps, cov, th = ground_representatives(annulus, annulus_half)
    ok = fl.degenerate_pair_check(
        reps[:, 0], reps[:, 1], annulus, cov, theta=th, eigenvalues=r.eigenvalues
    )
    assert ok


def test_degenerate_pair_check_rejects_identical(annulus, annulus_half):
    r, reps, cov, th = ground_representatives(annulus, annulus_half)
    with pytest.raises(PreconditionViolated):
        fl.degenerate_pair_check(reps[:, 0], reps[:, 0], annulus, cov, theta=th)


def test_extraction_requires_antisymmetry(annulus, annulus_cover):
    cov, _ = annulus_cover
    f = np.ones(2 * annulus.n_vertices)
    with pytest.raises(PreconditionViolated):
        fl.extract_nodal_set(f, cov, annulus)
    with pytest.raises(NoSignChange):
        fl.extract_nodal_set(np.zeros(2 * annulus.n_vertices), cov, annulus)


def test_circle_single_zero_point():
    n = 64
    cg = fl.circle_graph(n, 0.5)
    cov = fl.build_cover(cg)
    th = fl.build_theta(cov)
    H = fl.assemble_circle(n, 0.5)
    r = fl.lowest_eigenpairs(H, 2, tol=1e-12)
    K = fl.ConjugationOperator(cg)
    reps = fl.real_representatives(r.eigenvectors[:, :2], K)
    zeros = []
    for j in range(2):
        lift = fl.lift_to_cover(reps[:, j], th)
        assert np.max(np.abs(lift.imag)) < 1e-8
        pts = fl.circle_zero_points(lift.real, cov)
        assert pts.shape == (1,)
        zeros.append(pts[0])
    # orthogonal representatives have antipodal zeros
    d = abs(zeros[0] - zeros[1])
    assert abs(min(d, 2 * np.pi - d) - np.pi) < 2 * np.pi / n


def test_polylines_text(tmp_path, annulus, annulus_half):
    _, reps, cov, th = ground_representatives(annulus, annulus_half)
    nod = fl.extract_nodal_set(np.sqrt(2.0) * fl.lift_to_cover(reps[:, 0], th).real, cov, annulus)
    p = tmp_path / "lines.txt"
    fl.nodal.polylines_text(nod, p)
    text = p.read_text()
    assert text.startswith("# line endpoints")
    assert len([l for l in text.splitlines() if l and not l.startswith("#")]) == len(nod.polylines[0])
    # plain floats that read back exactly
    assert np.array_equal(np.loadtxt(p, comments="#"), np.vstack(nod.polylines))


def test_report_json_line(annulus, annulus_half):
    import json

    _, reps, cov, th = ground_representatives(annulus, annulus_half)
    nod = fl.extract_nodal_set(np.sqrt(2.0) * fl.lift_to_cover(reps[:, 0], th).real, cov, annulus)
    rep = fl.topology_report(nod, annulus)
    d = json.loads(rep.to_json_line())
    assert d["n_lines"] == 1 and d["passes_slitting"] is True
    # endpoint conservation: classified + unclassified endpoints = 2 per line
    total = sum(rep.endpoints_per_component.values()) + rep.unclassified_endpoints
    assert total == 2 * rep.n_lines
