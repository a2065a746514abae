"""Grid construction, boundary labeling and hole-encircling loops."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fluxlab as fl
from fluxlab.errors import DisconnectedDomain, NoSuchHole, SpecTooCoarse, SpecTooFine
from fluxlab.experiments import Lattice, _centrally_symmetric
from fluxlab.geometry import DomainSpec, lattice_symmetries, link_components, raster_links

from conftest import winding_oracle
from oracles import excluded_regions


def flood_components(points, neighbors8=True):
    """Independent BFS flood fill; returns the number of components."""
    points = set(points)
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    if neighbors8:
        steps += [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    seen = set()
    count = 0
    for p in sorted(points):
        if p in seen:
            continue
        count += 1
        stack = [p]
        seen.add(p)
        while stack:
            i, j = stack.pop()
            for di, dj in steps:
                q = (i + di, j + dj)
                if q in points and q not in seen:
                    seen.add(q)
                    stack.append(q)
    return count


def test_unit_square_no_holes():
    spec = fl.DomainSpec(outer=fl.Rect(0, 0, 1, 1), spacing=0.1)
    g = fl.build_grid(spec)
    assert g.n_vertices == 121
    assert g.k == 0
    assert set(g.boundary_labels.tolist()) == {-1, 0}
    # 11x11 grid: 2*11*10 edges
    assert g.n_edges == 220


def test_annulus_labels():
    spec = fl.DomainSpec(outer=fl.Disk(0, 0, 1.0), holes=(fl.Disk(0, 0, 0.3),), spacing=0.02)
    g = fl.build_grid(spec)
    assert g.k == 1
    assert set(g.boundary_labels.tolist()) == {-1, 0, 1}
    # inner labeled vertices hug the hole
    inner = g.xy[g.boundary_labels == 1]
    r = np.hypot(inner[:, 0], inner[:, 1])
    assert r.max() < 0.3 + 3 * 0.02


def test_two_hole_component_count_flood_fill_oracle(two_holes):
    g = two_holes
    assert g.k == 2
    # oracle: excluded lattice points within the padded window split into
    # outer region + one region per hole
    i0, j0, ni, nj = g._window
    excluded = [
        (i, j)
        for i in range(ni)
        for j in range(nj)
        if g._vid[i, j] < 0
    ]
    assert flood_components(excluded) == 3
    assert set(g.boundary_labels.tolist()) == {-1, 0, 1, 2}


def test_euler_consistency(annulus, two_holes):
    for g in (annulus, two_holes):
        n_components = len({l for l in g.boundary_labels.tolist() if l >= 0})
        assert n_components - 1 == g.k


def test_boundary_components_connected(annulus, two_holes):
    for g in (annulus, two_holes):
        for c in range(g.k + 1):
            pts = [tuple(ij) for ij in g.ij[g.boundary_labels == c]]
            assert flood_components(pts) == 1


def test_build_grid_deterministic():
    spec = fl.DomainSpec(outer=fl.Disk(0, 0, 1.0), holes=(fl.Disk(0.2, 0.1, 0.25),), spacing=0.05)
    a = fl.build_grid(spec)
    b = fl.build_grid(spec)
    assert np.array_equal(a.ij, b.ij)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.boundary_labels, b.boundary_labels)


def test_hole_loop_annulus(annulus):
    loop = fl.hole_loop(annulus, 1)
    pts = annulus.xy[loop.vertices()]
    assert abs(winding_oracle(pts, (0.0, 0.0)) - 1.0) < 1e-9
    # all loop edges exist in the lattice
    for v, w in loop.edges:
        assert annulus.edge_id(v, w)[0] is not None


@pytest.mark.parametrize("fixture", ["annulus", "two_holes"])
def test_edge_id_matches_dict_oracle(request, fixture):
    g = request.getfixturevalue(fixture)
    # the (tail, head) -> edge dict the raster index replaced
    oracle = {(int(a), int(b)): e for e, (a, b) in enumerate(g.edges)}
    for (a, b), e in oracle.items():
        assert g.edge_id(a, b) == (e, 1)
        assert g.edge_id(b, a) == (e, -1)
        assert g.edge_id(np.int64(a), np.int64(b)) == (e, 1)
    n = g.n_vertices
    v = int(g.edges[0, 0])
    i, j = g.ij[v]
    diag = int(g._vid[i + 1 - g._window[0], j + 1 - g._window[1]])
    assert diag >= 0 and (v, diag) not in oracle and (diag, v) not in oracle
    far = int(np.argmax(np.abs(g.ij - g.ij[v]).sum(axis=1)))
    for a, b in ((v, v), (v, diag), (diag, v), (v, far), (v, n), (n, v), (n + 5, v), (-1, v), (v, -1)):
        assert g.edge_id(a, b) == (None, 0), (a, b)


def test_hole_loop_two_holes_winding_oracle(two_holes):
    g = two_holes
    for i, ref in ((1, (1.0, 0.5)), (2, (2.0, 0.5))):
        loop = fl.hole_loop(g, i)
        pts = g.xy[loop.vertices()]
        for j, other in ((1, (1.0, 0.5)), (2, (2.0, 0.5))):
            want = 1.0 if i == j else 0.0
            assert abs(winding_oracle(pts, other) - want) < 1e-9


def test_hole_loop_out_of_range(two_holes):
    with pytest.raises(NoSuchHole):
        fl.hole_loop(two_holes, 3)
    with pytest.raises(NoSuchHole):
        fl.hole_loop(two_holes, 0)


def test_hole_loop_rejects_a_pinched_hole(annulus):
    # hole points two diagonal steps apart without the point between them,
    # which no convex hole leaves: their dilations meet at one corner only
    i0, j0, _, _ = annulus._window
    excl = np.where(annulus._excl == 1, -1, annulus._excl)
    excl[-i0, -j0] = excl[2 - i0, 2 - j0] = 1
    with pytest.raises(SpecTooCoarse, match="pinches"):
        fl.hole_loop(dataclasses.replace(annulus, _excl=excl), 1)


def test_spacing_below_the_containment_tolerance_rejected():
    # EPS reaches past the window's two-point pad, onto its rim
    for outer, h in ((fl.Disk(0, 0, 1e-4), 1e-6), (fl.Rect(0, 0, 1e-7, 1e-7), 1e-10)):
        with pytest.raises(SpecTooFine, match="containment tolerance"):
            fl.build_grid(fl.DomainSpec(outer=outer, spacing=h))


def test_too_small_hole_rejected():
    spec = fl.DomainSpec(outer=fl.Rect(0, 0, 1, 1), holes=(fl.Disk(0.5, 0.5, 0.04),), spacing=0.1)
    with pytest.raises(SpecTooCoarse):
        fl.build_grid(spec)


def test_narrow_gap_rejected():
    spec = fl.DomainSpec(
        outer=fl.Rect(0, 0, 2, 1),
        holes=(fl.Disk(0.9, 0.5, 0.2), fl.Disk(1.4, 0.5, 0.2)),
        spacing=0.05,
    )
    with pytest.raises(SpecTooCoarse):
        fl.build_grid(spec)


def test_disconnected_domain_guard(monkeypatch):
    # valid specs cannot disconnect (that is what the 3h gap invariant is
    # for), so bypass the analytic check to exercise the lattice guard
    monkeypatch.setattr(DomainSpec, "validate", lambda self: None)
    spec = fl.DomainSpec(
        outer=fl.Rect(0, 0, 1, 0.4), holes=(fl.Rect(0.45, -0.1, 0.55, 0.5),), spacing=0.1
    )
    with pytest.raises((DisconnectedDomain, SpecTooCoarse)):
        fl.build_grid(spec)


def test_link_components_match_ndimage(annulus, two_holes):
    # scipy.ndimage.label is the oracle: the same count, and the same
    # numbering, each component's first cell in raster order
    from scipy import ndimage

    rng = np.random.default_rng(3)
    masks = [rng.random((31, 27)) < p for p in (0.4, 0.55, 0.7)]
    masks += [np.zeros((4, 5), dtype=bool), np.ones((1, 6), dtype=bool)]
    for g in (annulus, two_holes):
        masks += [g._vid >= 0, g._vid < 0]
    for mask in masks:
        count, labels = link_components(raster_links(mask, ((1, 0), (0, 1))))
        want, want_count = ndimage.label(mask)
        assert count == want_count and np.array_equal(labels + 1, want[mask])


def test_rectangular_holes():
    spec = fl.DomainSpec(outer=fl.Rect(0, 0, 2, 1), holes=(fl.Rect(0.8, 0.4, 1.2, 0.6),), spacing=0.05)
    g = fl.build_grid(spec)
    assert g.k == 1 and set(g.boundary_labels.tolist()) == {-1, 0, 1}
    loop = fl.hole_loop(g, 1)
    assert abs(winding_oracle(g.xy[loop.vertices()], (1.0, 0.5)) - 1.0) < 1e-9
    f = fl.aharonov_bohm_potential(g, [0.5])
    assert abs(fl.circulation(f, loop) - 0.5) < 1e-12


def test_degenerate_chain_grid():
    spec = fl.DomainSpec(outer=fl.Rect(0, 0, 1, 0), spacing=0.1)
    g = fl.build_grid(spec)
    assert g.n_vertices == 11
    assert g.n_edges == 10


def test_central_symmetry():
    # the lattice test: a symmetry of the grid, with no potential, is the point reflection
    def symmetric(spec):
        return _centrally_symmetric(Lattice(fl.build_grid(spec), None))

    def ring(c, h):
        return fl.DomainSpec(outer=fl.Disk(c, 0, 1.0), holes=(fl.Disk(c, 0, 0.3),), spacing=h)

    assert symmetric(ring(0.0, 0.05))
    assert symmetric(ring(0.1, 0.05))  # 2c on the lattice
    assert not symmetric(ring(0.1, 0.08))  # lattice breaks the symmetry
    offset = fl.DomainSpec(outer=fl.Disk(0, 0, 1.0), holes=(fl.Disk(0.25, 0.1, 0.25),), spacing=0.02)
    assert not symmetric(offset)
    pair = (fl.Disk(1.0, 0.5, 0.2), fl.Disk(2.0, 0.5, 0.2))
    assert symmetric(fl.DomainSpec(outer=fl.Rect(0, 0, 3, 1), holes=pair, spacing=0.02))
    assert not symmetric(fl.DomainSpec(outer=fl.Rect(0, 0, 3, 1), holes=pair[:1], spacing=0.02))
    rect_hole = (fl.Rect(0.8, 0.4, 1.2, 0.6),)
    assert symmetric(fl.DomainSpec(outer=fl.Rect(0, 0, 2, 1), holes=rect_hole, spacing=0.05))


# the 8 integer matrices of the square's symmetry group
D4 = [np.array(m) for m in ([[1, 0], [0, 1]], [[-1, 0], [0, 1]], [[1, 0], [0, -1]], [[-1, 0], [0, -1]],
                            [[0, 1], [1, 0]], [[0, -1], [1, 0]], [[0, 1], [-1, 0]], [[0, -1], [-1, 0]])]


def symmetries_oracle(grid):
    """Every D4 matrix M, with the shift that keeps the lattice index box,
    under which the active index set maps onto itself, as vertex maps."""
    vertex = {tuple(ij): v for v, ij in enumerate(grid.ij.tolist())}
    out = set()
    for m in D4:
        image = grid.ij @ m.T
        image += grid.ij.min(axis=0) - image.min(axis=0)
        perm = tuple(vertex.get(tuple(ij), -1) for ij in image.tolist())
        if -1 not in perm:
            out.add(perm)
    return out


@st.composite
def small_domains(draw):
    """Disk or rect domains with at most one hole at h >= 0.05; centres sit
    on the half-lattice, so many of them keep some mirror symmetry."""
    h = draw(st.sampled_from([0.05, 0.1]))

    def coord(reach):
        return draw(st.integers(-reach, reach)) * h / 2

    if draw(st.booleans()):
        outer = fl.Disk(coord(2), coord(2), draw(st.sampled_from([0.8, 1.0])))
    else:
        x0, y0 = coord(2), coord(2)
        outer = fl.Rect(x0, y0, x0 + draw(st.sampled_from([1.6, 2.0])), y0 + draw(st.sampled_from([1.6, 2.0])))
    cx, cy = outer.reference_point()
    holes = ()
    hole = draw(st.sampled_from(["none", "disk", "rect"]))
    if hole != "none":
        hx, hy = cx + coord(3), cy + coord(3)
        a, b = draw(st.sampled_from([0.2, 0.25])), draw(st.sampled_from([0.2, 0.25]))
        holes = (fl.Disk(hx, hy, a),) if hole == "disk" else (fl.Rect(hx - a, hy - b, hx + a, hy + b),)
    try:
        return fl.build_grid(fl.DomainSpec(outer=outer, holes=holes, spacing=h))
    except (SpecTooCoarse, DisconnectedDomain):
        assume(False)


@st.composite
def two_hole_domains(draw):
    """Disk or rect domains with two disk or rect holes side by side at
    h >= 0.05; some gaps fall below 3h, and those draws are dropped."""
    h = draw(st.sampled_from([0.05, 0.1]))

    def coord(reach):
        return draw(st.integers(-reach, reach)) * h / 2

    if draw(st.booleans()):
        outer = fl.Disk(coord(2), coord(2), draw(st.sampled_from([1.0, 1.2])))
    else:
        x0, y0 = coord(2), coord(2)
        outer = fl.Rect(x0, y0, x0 + draw(st.sampled_from([2.0, 2.4])), y0 + draw(st.sampled_from([1.2, 1.6])))
    cx, cy = outer.reference_point()
    holes = []
    for side in (-0.5, 0.5):
        hx, hy = cx + side + coord(2), cy + coord(2)
        a, b = draw(st.sampled_from([0.15, 0.2])), draw(st.sampled_from([0.15, 0.2]))
        holes.append(fl.Disk(hx, hy, a) if draw(st.booleans()) else fl.Rect(hx - a, hy - b, hx + a, hy + b))
    try:
        return fl.build_grid(fl.DomainSpec(outer=outer, holes=holes, spacing=h))
    except (SpecTooCoarse, DisconnectedDomain):
        assume(False)


def assert_components_match_excluded_regions(grid):
    excl, labels = excluded_regions(grid)
    assert grid._excl.dtype == excl.dtype and grid._excl.tobytes() == excl.tobytes()
    assert grid.boundary_labels.dtype == labels.dtype
    assert grid.boundary_labels.tobytes() == labels.tobytes()


def test_boundary_components_match_excluded_regions_on_fixtures(annulus, offset_annulus, two_holes):
    for grid in (annulus, offset_annulus, two_holes):
        assert_components_match_excluded_regions(grid)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_domains())
def test_boundary_components_match_excluded_regions(grid):
    # the shape that holds an excluded point names its boundary component
    assert_components_match_excluded_regions(grid)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(two_hole_domains())
def test_boundary_components_match_excluded_regions_two_holes(grid):
    assert grid.k == 2
    assert_components_match_excluded_regions(grid)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(small_domains())
def test_lattice_symmetries_are_a_group_of_lattice_maps(grid):
    perms = lattice_symmetries(grid)
    n = grid.n_vertices
    assert perms.shape[1] == n and 1 <= len(perms) <= 8
    assert np.array_equal(perms[0], np.arange(n))
    edges = {tuple(e) for e in np.sort(grid.edges, axis=1).tolist()}
    for p in perms:
        assert np.array_equal(np.sort(p), np.arange(n))  # active set onto itself
        assert {tuple(e) for e in np.sort(p[grid.edges], axis=1).tolist()} == edges
    found = {tuple(p) for p in perms.tolist()}
    assert len(found) == len(perms)
    assert all(tuple(p[q]) in found for p, q in itertools.product(perms, perms))
    assert found == symmetries_oracle(grid)


@pytest.mark.parametrize("fixture, order", [("annulus", 8), ("offset_annulus", 1), ("two_holes", 4)])
def test_lattice_symmetries_of_fixtures(request, fixture, order):
    assert len(lattice_symmetries(request.getfixturevalue(fixture))) == order


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(small_domains(), two_hole_domains()), st.lists(st.floats(-2, 2), min_size=2, max_size=2))
def test_hole_loop_circulation_is_the_hole_flux(grid, fluxes):
    # the paper's circulation around each hole, on random domains
    assume(grid.k >= 1)
    f = fl.aharonov_bohm_potential(grid, fluxes[: grid.k])
    for i in range(1, grid.k + 1):
        assert abs(fl.circulation(f, fl.hole_loop(grid, i)) - fluxes[i - 1]) <= 1e-12
