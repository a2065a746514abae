"""Link phases: circulation quantization, flatness, gauge invariance."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fluxlab as fl
from fluxlab.eigensolver import gershgorin_bounds
from fluxlab.errors import LengthMismatch, MissingEdge
from oracles import integer_flux_shift, plaquette_sums
from test_geometry import small_domains

FLUX = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


def test_zero_flux_zero_phases(annulus):
    f = fl.aharonov_bohm_potential(annulus, [0.0])
    assert np.all(f.theta == 0.0)


def test_half_flux_circulation_is_half(annulus):
    f = fl.aharonov_bohm_potential(annulus, [0.5])
    loop = fl.hole_loop(annulus, 1)
    total = sum(f.phase(v, w) for v, w in loop.edges)
    assert abs(total - np.pi) < 1e-12
    assert abs(fl.circulation(f, loop) - 0.5) < 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(FLUX)
def test_plaquette_flatness(annulus, flux):
    f = fl.aharonov_bohm_potential(annulus, [flux])
    assert np.max(np.abs(plaquette_sums(f))) <= 1e-12


def plaquette_oracle(field):
    """The per-cell loop over field.phase that plaquette_sums replaced."""
    vid = field.grid._vid
    act = vid >= 0
    cells = act[:-1, :-1] & act[1:, :-1] & act[:-1, 1:] & act[1:, 1:]
    ca, cb = np.nonzero(cells)
    sums = np.empty(ca.size)
    for t, (a, b) in enumerate(zip(ca, cb)):
        v00, v10 = int(vid[a, b]), int(vid[a + 1, b])
        v11, v01 = int(vid[a + 1, b + 1]), int(vid[a, b + 1])
        sums[t] = (
            field.phase(v00, v10)
            + field.phase(v10, v11)
            + field.phase(v11, v01)
            + field.phase(v01, v00)
        )
    return sums


@pytest.mark.parametrize("fixture, fluxes", [("annulus", [0.5]), ("annulus", [0.37]), ("two_holes", [0.5, -0.2])])
def test_plaquette_sums_bit_identical_to_loop(request, fixture, fluxes):
    grid = request.getfixturevalue(fixture)
    f = fl.aharonov_bohm_potential(grid, fluxes)
    chi = np.random.default_rng(3).uniform(-10, 10, grid.n_vertices)
    for field in (f, fl.gauge_transform(f, chi)):
        got, want = plaquette_sums(field), plaquette_oracle(field)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_contractible_loop_zero_circulation(annulus):
    f = fl.aharonov_bohm_potential(annulus, [0.7])
    # the single plaquette whose lower-left corner sits at (0.6, 0.1)
    h = annulus.spacing
    i0, j0 = annulus._window[0], annulus._window[1]
    a, b = int(round(0.6 / h)) - i0, int(round(0.1 / h)) - j0
    vid = annulus._vid
    quad = [vid[a, b], vid[a + 1, b], vid[a + 1, b + 1], vid[a, b + 1]]
    assert all(q >= 0 for q in quad)
    loop = fl.LatticeLoop(
        edges=tuple((int(quad[t]), int(quad[(t + 1) % 4])) for t in range(4))
    )
    assert abs(fl.circulation(f, loop)) <= 1e-12


def test_gauge_transform_identity(annulus):
    f = fl.aharonov_bohm_potential(annulus, [0.3])
    g = fl.gauge_transform(f, np.zeros(annulus.n_vertices))
    assert np.array_equal(f.theta, g.theta)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_gauge_invariant_circulation(annulus, seed):
    f = fl.aharonov_bohm_potential(annulus, [0.5])
    loop = fl.hole_loop(annulus, 1)
    chi = np.random.default_rng(seed).uniform(-10, 10, annulus.n_vertices)
    g = fl.gauge_transform(f, chi)
    assert abs(fl.circulation(g, loop) - fl.circulation(f, loop)) < 1e-12


def test_circulation_homotopy_invariant(annulus):
    f = fl.aharonov_bohm_potential(annulus, [0.37])
    loop = fl.hole_loop(annulus, 1)
    # a different encircling cycle: lattice square of side 1.0 around the hole
    h = annulus.spacing
    m = int(round(0.5 / h))
    idx = {tuple(ij): t for t, ij in enumerate(map(tuple, annulus.ij))}
    corners = [(-m, -m), (m, -m), (m, m), (-m, m)]
    path = []
    for (a0, b0), (a1, b1) in zip(corners, corners[1:] + corners[:1]):
        da, db = np.sign(a1 - a0), np.sign(b1 - b0)
        a, b = a0, b0
        while (a, b) != (a1, b1):
            path.append(idx[(a, b)])
            a, b = a + da, b + db
    loop2 = fl.LatticeLoop(
        edges=tuple((path[t], path[(t + 1) % len(path)]) for t in range(len(path)))
    )
    assert abs(fl.circulation(f, loop2) - fl.circulation(f, loop)) < 1e-12


def test_integer_flux_shift(annulus):
    f = fl.aharonov_bohm_potential(annulus, [0.5])
    loop = fl.hole_loop(annulus, 1)
    same = integer_flux_shift(annulus, f, [0])
    assert abs(fl.circulation(same, loop) - 0.5) < 1e-12
    up = integer_flux_shift(annulus, f, [1])
    assert abs(fl.circulation(up, loop) - 1.5) < 1e-12
    dn = integer_flux_shift(annulus, f, [-1])
    assert abs(fl.circulation(dn, loop) - (-0.5)) < 1e-12


def test_integer_shift_keeps_spectrum(annulus):
    f = fl.aharonov_bohm_potential(annulus, [0.5])
    dn = integer_flux_shift(annulus, f, [-1])
    lam = fl.lowest_eigenpairs(fl.assemble_magnetic(annulus, f), 2, tol=1e-11).eigenvalues
    lam2 = fl.lowest_eigenpairs(fl.assemble_magnetic(annulus, dn), 2, tol=1e-11).eigenvalues
    assert np.max(np.abs(lam - lam2) / np.abs(lam)) < 1e-10


@settings(max_examples=12, deadline=None, derandomize=True)
@given(small_domains(), st.floats(min_value=-1.0, max_value=1.0), st.integers(min_value=0, max_value=2**31 - 1))
def test_spectrum_unchanged_by_gauge_and_integer_flux_shift(grid, flux, seed):
    assume(grid.k == 1)
    tol = 1e-10
    field = fl.aharonov_bohm_potential(grid, [flux])
    H = fl.assemble_magnetic(grid, field)
    lam = fl.lowest_eigenpairs(H, 3, tol=tol).eigenvalues
    norm = max(map(abs, gershgorin_bounds(H.matrix)))
    chi = np.random.default_rng(seed).uniform(-10, 10, grid.n_vertices)
    # conjugation maps flux t to -t, and with an integer shift to 1 - t
    flipped = (fl.aharonov_bohm_potential(grid, [-flux]), fl.aharonov_bohm_potential(grid, [1 - flux]))
    for same in (fl.gauge_transform(field, chi), integer_flux_shift(grid, field, [1]), integer_flux_shift(grid, field, [-1]), *flipped):
        other = fl.lowest_eigenpairs(fl.assemble_magnetic(grid, same), 3, tol=tol).eigenvalues
        assert np.max(np.abs(other - lam)) <= tol * norm


def test_length_mismatch(annulus):
    with pytest.raises(LengthMismatch):
        fl.aharonov_bohm_potential(annulus, [0.5, 0.5])
    f = fl.aharonov_bohm_potential(annulus, [0.5])
    with pytest.raises(LengthMismatch):
        integer_flux_shift(annulus, f, [1, 1])
    with pytest.raises(LengthMismatch):
        fl.gauge_transform(f, np.zeros(3))


def test_missing_edge(annulus):
    f = fl.aharonov_bohm_potential(annulus, [0.5])
    with pytest.raises(MissingEdge):
        f.phase(0, annulus.n_vertices - 1)


def test_phase_antisymmetry(annulus):
    f = fl.aharonov_bohm_potential(annulus, [0.42])
    v, w = map(int, annulus.edges[annulus.n_edges // 2])
    assert f.phase(v, w) == -f.phase(w, v)
