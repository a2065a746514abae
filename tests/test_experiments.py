"""Config parsing, experiment runners, CSV determinism, the fork fan-out,
the half-flux sectors and CLI exit codes."""

import contextlib
import dataclasses
import io
import math
import multiprocessing
import os
import re
import tempfile
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence

import fluxlab as fl
from fluxlab.cli import cli_main
from fluxlab.config import ExperimentConfig, gaussian_bump, load_config, parse_shape
from fluxlab.eigensolver import gershgorin_bounds
from fluxlab.errors import ConfigError, EmptyFamily, NoConvergence
from fluxlab.experiments import (
    _FLIP_PAIRS,
    _PEAK,
    _SHIFT_PAIRS,
    Check,
    Lattice,
    Verdict,
    _fan_out,
    _flux_class,
    _half_flux_cover,
    _half_flux_ground,
    _reflection,
    _sector_bases,
    _slit_minimum,
    _slit_orbits,
    _sweep_fluxes,
    _sweep_spectra,
    discretize,
    require_sweep_claims,
    run_circle_check,
    run_cover_equivalence,
    run_flux_sweep,
    run_multiplicity_experiment,
    run_nodal,
    run_slit_infimum,
)
from oracles import bfs_reflection, conjugation_operator, real_representatives, two_sheet_lift
from test_geometry import small_domains

COARSE = """
[domain]
outer = disk 0.0 0.0 1.0
hole1 = disk 0.0 0.0 0.3
spacing = 0.05

[sweep]
start = 0.0
stop = 1.0
step = 0.25

[solver]
count = 3
tol = 1e-10
seed = 24301
cluster_tol = 1e-3

[circle]
points = 128
alphas = 0 0.25 0.5
epsilon = {epsilon}

[slit]
count = 8
hole = 1
mode = {slit_mode}
"""

BASE_DOMAIN = COARSE.split("[sweep]")[0]


@pytest.fixture(scope="module")
def coarse_cfg(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "coarse.cfg"
    p.write_text(COARSE.format(epsilon="0.01", slit_mode="radial"))
    return load_config(p)


def test_parse_shapes():
    assert parse_shape("disk 0 0 1.0") == fl.Disk(0, 0, 1.0)
    assert parse_shape("rect 0 0 3 1") == fl.Rect(0, 0, 3, 1)
    with pytest.raises(ConfigError):
        parse_shape("triangle 0 0 1")
    with pytest.raises(ConfigError):
        parse_shape("disk 0 0")


def test_config_round_trip(coarse_cfg):
    assert coarse_cfg.domain.k == 1
    assert coarse_cfg.sweep == (0.0, 1.0, 0.25)
    assert coarse_cfg.solver.seed == 24301
    assert coarse_cfg.circle.alphas == (0.0, 0.25, 0.5)
    assert list(coarse_cfg.sweep_values()) == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_missing_config():
    with pytest.raises(ConfigError):
        load_config("/does/not/exist.cfg")


def test_bad_config(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[domain]\nouter = blob 1 2 3\n")
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text("[solver]\ncount = 3\n")
    with pytest.raises(ConfigError):
        load_config(p)


@pytest.mark.parametrize("name", ["annulus", "annulus_offset", "two_holes"])
def test_shipped_configs_load(tmp_path, name):
    import configparser

    path = os.path.join("configs", f"{name}.cfg")
    assert load_config(path).domain.k >= 1
    # the same file rewritten by configparser, as the benchmark does
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(path)
    cp["solver"]["seed"] = "7"
    cp["domain"]["spacing"] = "0.01"
    copy = tmp_path / f"{name}.cfg"
    with open(copy, "w") as f:
        cp.write(f)
    cfg = load_config(copy)
    assert cfg.solver.seed == 7 and cfg.domain.spacing == 0.01


def test_domain_file_reference_alone(tmp_path):
    base = tmp_path / "base.cfg"
    base.write_text(COARSE.format(epsilon="0.01", slit_mode="radial"))
    ref = tmp_path / "ref.cfg"
    ref.write_text("[domain]\nfile = base.cfg\n")
    assert load_config(ref) == load_config(base)


@pytest.mark.parametrize(
    "text",
    [
        # settings next to a file reference used to be dropped silently
        "[domain]\nfile = base.cfg\n\n[solver]\ncount = 5\nseed = 7\n",
        "[domain]\nfile = base.cfg\nspacing = 0.1\n",
        "[domain]\nfile = base.cfg\n\n[circle]\npoints = 128\n",
        # a reference that refers on, here back to itself, used to recurse
        # until RecursionError
        "[domain]\nfile = c.cfg\n",
        # unknown keys and sections used to be ignored
        BASE_DOMAIN + "[sweep]\nstpo = 0.5\n",
        BASE_DOMAIN + "[slitt]\ncount = 8\n",
        # the [experiment] name that nothing read is gone with its section
        BASE_DOMAIN + "[experiment]\nname = annulus\n",
        BASE_DOMAIN + "[solver]\nseeds = 7\n",
        BASE_DOMAIN.replace("spacing", "spaceing"),
    ],
    ids=[
        "file-beside-solver",
        "file-beside-domain-key",
        "file-beside-circle",
        "file-refers-to-itself",
        "sweep-key-typo",
        "section-typo",
        "experiment-section",
        "solver-key-typo",
        "domain-key-typo",
    ],
)
def test_cli_config_typo_exits_2(tmp_path, text):
    (tmp_path / "base.cfg").write_text(COARSE.format(epsilon="0.01", slit_mode="radial"))
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(text)
    with pytest.raises(ConfigError):
        load_config(cfgp)
    assert cli_main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "r")]) == 2


def test_hole_keys_are_a_prefix(tmp_path):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(
        "[domain]\nouter = rect 0 0 3 1\nhole_left = disk 1 0.5 0.2\nhole_right = disk 2 0.5 0.2\n"
    )
    assert load_config(cfgp).domain.k == 2


def test_potentials(coarse_cfg):
    grid = fl.build_grid(coarse_cfg.domain)
    assert coarse_cfg.potential(grid) is None
    well = ExperimentConfig(
        domain=coarse_cfg.domain,
        potential_kind="radial_well",
        potential_params={"center": (0.0, 0.0), "radius": 0.5, "depth": -2.0},
    )
    V = well.potential(grid)
    r = np.hypot(grid.xy[:, 0], grid.xy[:, 1])
    assert np.all(V[r <= 0.49] == -2.0) and np.all(V[r >= 0.51] == 0.0)
    bump = ExperimentConfig(
        domain=coarse_cfg.domain,
        potential_kind="bump",
        potential_params={"center": (0.6, 0.0), "sigma": 0.2, "amplitude": 3.0},
    )
    Vb = bump.potential(grid)
    assert Vb.max() <= 3.0 and Vb.min() >= 0.0


def test_table_potential(tmp_path):
    # each row lands on the vertex nearest to (x, y); the file is named
    # relative to the config
    (tmp_path / "table.txt").write_text("0.51 -0.01 2.5\n0.01 0.69 -1.0\n-0.6 -0.42 4.0\n")
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(BASE_DOMAIN + "[potential]\nkind = table\nfile = table.txt\n")
    cfg = load_config(cfgp)
    grid = fl.build_grid(cfg.domain)
    V = cfg.potential(grid)
    assert np.count_nonzero(V) == 3
    for x, y, v in ((0.5, 0.0, 2.5), (0.0, 0.7, -1.0), (-0.6, -0.4, 4.0)):
        assert V[np.flatnonzero(np.all(np.isclose(grid.xy, (x, y)), axis=1))].tolist() == [v]
    for rows in ("0.5 0.0\n0.0 0.7\n", "0.5 0.0 2.5 1.0\n"):
        (tmp_path / "table.txt").write_text(rows)
        with pytest.raises(ConfigError, match="columns"):
            load_config(cfgp)
        assert cli_main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "r")]) == 2


def test_flux_sweep_verdicts(coarse_cfg, tmp_path):
    rows, verdicts = run_flux_sweep(coarse_cfg, discretize(coarse_cfg), out_dir=tmp_path)
    assert len(rows) == 5
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]
    names = {v.name for v in verdicts}
    assert {"periodicity", "half-flux-symmetry", "strict-minimum-at-zero-flux", "maximality-at-half-flux"} <= names
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "flux1,lambda1,lambda2,lambda3,multiplicity,max_residual"
    assert len(lines) == 6


def test_sweep_rows_ordered(coarse_cfg):
    rows, _ = run_flux_sweep(coarse_cfg, discretize(coarse_cfg))
    for row in rows:
        lam1, lam2, lam3 = row[1:4]
        assert lam1 <= lam2 + 1e-12 <= lam3 + 2e-12


def test_csv_deterministic(coarse_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    run_flux_sweep(coarse_cfg, discretize(coarse_cfg), out_dir=a)
    run_flux_sweep(coarse_cfg, discretize(coarse_cfg), out_dir=b)
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def square_and_pid(x):
    if x < 0:
        raise ValueError(f"item {x}")
    return x * x, os.getpid()


def assert_no_children():
    """No worker is left running or unreaped.  active_children() sees only
    multiprocessing's own children; waitpid sees those of os.fork too."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fan_out_forks_one_worker_per_cpu(monkeypatch):
    usable_cpus(monkeypatch, 2)
    out = _fan_out(square_and_pid, range(8))
    assert_no_children()
    assert [sq for sq, _ in out] == [x * x for x in range(8)]
    pids = {pid for _, pid in out}
    assert os.getpid() not in pids and 1 <= len(pids) <= 2
    # inside a worker the helper runs in-process
    nested = _fan_out(lambda x: (os.getpid(), _fan_out(square_and_pid, range(3))), range(2))
    assert_no_children()
    for pid, inner in nested:
        assert {p for _, p in inner} == {pid}
    # the first failing item in item order raises in the parent
    with pytest.raises(ValueError, match="item -1"):
        _fan_out(square_and_pid, [3, -1, 2, -2])
    assert_no_children()
    # a worker that dies raises, and the other is stopped
    with pytest.raises(BrokenProcessPool):
        _fan_out(lambda x: os._exit(1) if x == 1 else x, range(4))
    assert_no_children()
    # both workers send more than a pipe buffer (64 KiB) at once
    big = _fan_out(lambda x: np.full(100_000, float(x)), range(2))
    assert_no_children()
    assert [b.shape for b in big] == [(100_000,)] * 2
    assert [float(b[0]) for b in big] == [0.0, 1.0]
    # more item indices than one atomic pipe write holds (1024)
    assert _fan_out(lambda x: -x, range(5000)) == [-x for x in range(5000)]
    assert_no_children()


def test_fan_out_in_process_on_one_cpu(monkeypatch):
    usable_cpus(monkeypatch, 1)
    assert _fan_out(square_and_pid, range(4)) == [(x * x, os.getpid()) for x in range(4)]


def test_pooled_runs_match_one_cpu(coarse_cfg, tmp_path, monkeypatch):
    outputs = []
    for n in (2, 1):
        usable_cpus(monkeypatch, n)
        out = tmp_path / f"cpus{n}"
        out.mkdir()
        sweep_rows, sweep_verdicts = run_flux_sweep(coarse_cfg, discretize(coarse_cfg), out_dir=out)
        assert_no_children()
        slit_rows, slit_verdicts = run_slit_infimum(coarse_cfg, discretize(coarse_cfg), out_dir=out, refine=True)
        assert_no_children()
        lines = [v.line() for v in sweep_verdicts + slit_verdicts]
        outputs.append((sweep_rows, slit_rows, lines, (out / "sweep.csv").read_bytes(), (out / "slit.csv").read_bytes()))
    assert outputs[0] == outputs[1]


TWO_HOLES_COARSE = """
[domain]
outer = rect 0.0 0.0 3.0 1.0
hole1 = disk 1.0 0.5 0.2
hole2 = disk 2.0 0.5 0.2
spacing = 0.05

[sweep]
start = 0.0
stop = 1.0
step = 0.25
"""


def sweep_cfg(holes, coarse_cfg, tmp_path):
    """The coarse one-hole config, or TWO_HOLES_COARSE."""
    if holes == 1:
        return coarse_cfg
    path = tmp_path / "two.cfg"
    path.write_text(TWO_HOLES_COARSE)
    return load_config(path)


def stall_eigsh_at(monkeypatch, grid, flux):
    """Make ARPACK report no convergence on the sweep matrix of one flux."""
    target = fl.assemble_magnetic(grid, fl.aharonov_bohm_potential(grid, [flux] * grid.k)).matrix
    real_eigsh = fl.eigensolver.eigsh

    def eigsh(A, k, **kwargs):
        w, V = real_eigsh(A, k, **kwargs)
        if A.shape == target.shape and abs(A - target).max() == 0:
            raise ArpackNoConvergence("forced stall", w, V)
        return w, V

    monkeypatch.setattr(fl.eigensolver, "eigsh", eigsh)


@pytest.mark.parametrize("holes, flux", [(2, 1.0), (1, 0.25)])
def test_sweep_failure_through_the_pool(holes, flux, coarse_cfg, tmp_path, monkeypatch):
    # the solve of the row's flux class stalls: two holes, the row at flux 1
    # reads flux 0; one hole, flux 0.25 is its own class.  The strict-minimum
    # verdict reads every class, so no row keeps a failed solve: the sweep raises
    cfg = sweep_cfg(holes, coarse_cfg, tmp_path)
    stall_eigsh_at(monkeypatch, fl.build_grid(cfg.domain), _flux_class(flux))  # before the fork
    outcomes = []
    for n in (2, 1):
        usable_cpus(monkeypatch, n)
        out = tmp_path / f"cpus{n}"
        out.mkdir()
        with pytest.raises(NoConvergence) as exc:
            run_flux_sweep(cfg, discretize(cfg), out_dir=out)
        outcomes.append((str(exc.value), exc.value.best_result.eigenvalues.tobytes()))
        assert_no_children()
        assert not (out / "sweep.csv").exists()
    assert outcomes[0] == outcomes[1]


def test_sweep_cache_keeps_no_eigenvectors(coarse_cfg, monkeypatch):
    # workers send back eigenvalues and residuals only, also as the best
    # result of a flux that did not converge
    lattice = discretize(coarse_cfg)
    usable_cpus(monkeypatch, 2)
    spectra = _sweep_spectra(coarse_cfg, lattice, [0.0, 0.5, 0.5 + 1e-13])
    assert list(spectra) == [0.0, 0.5]  # keys rounded to 12 digits
    stall_eigsh_at(monkeypatch, lattice.grid, 0.25)
    with pytest.raises(NoConvergence) as exc:
        _sweep_spectra(coarse_cfg, lattice, [0.0, 0.25, 0.5])
    assert_no_children()
    for r in (spectra[0.0], spectra[0.5], exc.value.best_result):
        assert r._fields == ("eigenvalues", "residuals")
        assert r.eigenvalues.shape == r.residuals.shape == (coarse_cfg.solver.count,)


def test_circle_check(coarse_cfg, tmp_path):
    rows, verdicts = run_circle_check(coarse_cfg, out_dir=tmp_path)
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]
    assert (tmp_path / "circle.csv").exists()


def test_slit_infimum(coarse_cfg, tmp_path):
    rows, verdicts = run_slit_infimum(coarse_cfg, discretize(coarse_cfg), out_dir=tmp_path, refine=True)
    assert len(rows) == 8
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]
    assert {v.name for v in verdicts} == {
        "slit-lower-bound",
        "slit-infimum-tightness",
        "slit-gap-refinement",
    }


def test_slit_refinement_fails_on_a_zero_coarse_gap(coarse_cfg, monkeypatch):
    # the slit minimum meets the half-flux lambda1 bit for bit at h, and a
    # gap opens at h/2: the two-grid ratio is inf, a FAIL, not a ZeroDivisionError
    minima = iter([(1.0, [(0, 5, 1.0)]), (1.0, [(0, 5, 1.1)])])
    monkeypatch.setattr(fl.experiments, "_slit_minimum", lambda cfg, lattice: next(minima))
    _, verdicts = run_slit_infimum(coarse_cfg, None, refine=True)
    (v,) = [v for v in verdicts if v.name == "slit-gap-refinement"]
    assert not v.passed
    assert v.checks == (("gap at h/2 over gap at h", math.inf, "<=", 0.5),)
    assert v.line().endswith("gap at h/2 over gap at h inf (<= 0.5)")


def test_slit_shortest_mode(tmp_path):
    p = tmp_path / "s.cfg"
    p.write_text(COARSE.format(epsilon="0.01", slit_mode="shortest"))
    cfg = load_config(p)
    rows, verdicts = run_slit_infimum(cfg, discretize(cfg))
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]


def test_slit_infimum_off_center():
    # no lattice mirror fixes an off-center slit, so the gap is genuinely
    # O(h): tight at the calibrated spacing and halving under refinement
    cfg = load_config("configs/annulus_offset.cfg")
    _, verdicts = run_slit_infimum(cfg, discretize(cfg), refine=True)
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]
    tight = next(v for v in verdicts if v.name == "slit-infimum-tightness")
    assert "relative gap" in tight.detail


def radial_family(grid, count=32):
    return [fl.radial_slit(grid, 1, 2.0 * np.pi * j / count) for j in range(count)]


def count_solves(monkeypatch):
    """In-process lowest_eigenpairs calls of the experiments, as a list."""
    calls = []
    solve = fl.experiments.lowest_eigenpairs

    def counted(H, *args, **kwargs):
        calls.append(H.n)
        return solve(H, *args, **kwargs)

    usable_cpus(monkeypatch, 1)
    monkeypatch.setattr(fl.experiments, "lowest_eigenpairs", counted)
    return calls


def test_slits_of_one_orbit_have_permuted_matrices(annulus):
    grid = annulus
    group = fl.lattice_symmetries(grid)
    V = (grid.xy**2).sum(axis=1)  # x^2 + y^2: every symmetry keeps it bit for bit
    assert len(group) == 8 and all(np.array_equal(V[p], V) for p in group)
    slits = radial_family(grid)
    orbit = _slit_orbits(slits, Lattice(grid, V))
    zf = fl.zero_field(grid)
    pairs = [(i, j) for j, i in enumerate(orbit) if i != j]
    assert len(pairs) == len(slits) - len(set(orbit)) > 0
    for i, j in pairs:
        si, sj = (np.array(slits[t].vertices) for t in (i, j))
        g = next(p for p in group if set(p[si]) == set(sj))
        keep_i, keep_j = (np.setdiff1d(np.arange(grid.n_vertices), s) for s in (si, sj))
        rank_j = np.full(grid.n_vertices, -1)
        rank_j[keep_j] = np.arange(keep_j.size)
        P = sparse.csr_matrix((np.ones(keep_i.size), (rank_j[g[keep_i]], np.arange(keep_i.size))))
        Ai = fl.assemble_slit(grid, zf, V=V, slit=slits[i]).matrix
        Aj = fl.assemble_slit(grid, zf, V=V, slit=slits[j]).matrix
        assert (P @ Ai @ P.T != Aj).nnz == 0


def test_slit_orbits_match_independent_solves(monkeypatch):
    # the annulus at h=0.02: 32 slits in 5 orbits under the 8 symmetries
    cfg = load_config("configs/annulus.cfg")
    calls = count_solves(monkeypatch)
    lattice = discretize(cfg)
    lam_mag, rows = _slit_minimum(cfg, lattice)
    assert len(calls) == 1 + 5
    grid, s = lattice.grid, cfg.solver
    zf = fl.zero_field(grid)
    for (j, size, lam), slit in zip(rows, radial_family(grid)):
        want = fl.lowest_eigenpairs(fl.assemble_slit(grid, zf, slit=slit), 1, tol=s.tol, seed=s.seed).eigenvalues[0]
        assert size == len(slit.vertices)
        assert abs(lam - want) <= 1e-12 * want, j


@pytest.mark.parametrize("holes", [1, 2])
def test_flux_classes_match_independent_solves(holes, coarse_cfg, tmp_path):
    # rows at 0.75 and 1 read the solves at 0.25 and 0
    cfg = sweep_cfg(holes, coarse_cfg, tmp_path)
    lattice = discretize(cfg)
    grid, s = lattice.grid, cfg.solver
    rows, _ = run_flux_sweep(cfg, lattice)
    assert [r[0] for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    for row in rows:
        H = fl.assemble_magnetic(grid, fl.aharonov_bohm_potential(grid, [row[0]] * grid.k))
        want = fl.lowest_eigenpairs(H, s.count, tol=s.tol, seed=s.seed).eigenvalues
        bound = s.tol * max(map(abs, fl.eigensolver.gershgorin_bounds(H.matrix)))
        assert np.all(np.abs(np.array(row[grid.k : grid.k + 3]) - want[:3]) <= bound), row
        assert row[grid.k + 3] == fl.multiplicity_estimate(want, s.cluster_tol), row


def test_sweep_solves_one_flux_per_class_and_each_verdict_flux():
    ts = load_config("configs/annulus.cfg").sweep_values()
    keys = {round(t, 12) for t in _sweep_fluxes(ts, 1)}
    assert len(ts) == 41 and len(keys) == 29
    verdict_fluxes = [t for pair in _SHIFT_PAIRS + _FLIP_PAIRS for t in pair] + [0.0, *_PEAK]
    # 1.1 and 0.9 are solved as they are, not as their class 0.1
    assert {round(t, 12) for t in verdict_fluxes} <= keys


@pytest.mark.parametrize(
    "hole, potential",
    [
        ("disk 0.25 0.1 0.25", ""),
        ("disk 0.0 0.0 0.3", "[potential]\nkind = bump\ncenter = 0.5 0.2\nsigma = 0.2\namplitude = 5.0\n"),
    ],
    ids=["offset-annulus", "off-centre-bump"],
)
def test_slit_family_without_symmetry_solves_every_slit(hole, potential, tmp_path, monkeypatch):
    p = tmp_path / "c.cfg"
    text = COARSE.format(epsilon="0.01", slit_mode="radial").replace("count = 8", "count = 32")
    p.write_text(text.replace("disk 0.0 0.0 0.3", hole) + potential)
    cfg = load_config(p)
    lattice = discretize(cfg)
    group = fl.lattice_symmetries(lattice.grid)
    if lattice.V is not None:
        # the bump breaks every symmetry of the concentric annulus
        assert len(group) == 8 and [np.array_equal(lattice.V[g], lattice.V) for g in group].count(True) == 1
    else:
        assert len(group) == 1
    calls = count_solves(monkeypatch)
    _, rows = _slit_minimum(cfg, lattice)
    assert len(calls) == 1 + 32 and len(rows) == 32
    assert len({lam for _, _, lam in rows}) == 32


def test_slit_empty_family(coarse_cfg):
    import dataclasses

    cfg = dataclasses.replace(coarse_cfg)
    cfg.slit = dataclasses.replace(cfg.slit, count=0)
    with pytest.raises(EmptyFamily):
        run_slit_infimum(cfg, discretize(cfg))


def test_multiplicity_experiment(coarse_cfg, tmp_path):
    verdicts = run_multiplicity_experiment(coarse_cfg, discretize(coarse_cfg), out_dir=tmp_path)
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]


def test_multiplicity_off_center_hole_wants_simple_ground(tmp_path):
    # no central symmetry: the half-flux ground state is simple, not a pair
    p = tmp_path / "offset.cfg"
    text = COARSE.format(epsilon="0.01", slit_mode="radial")
    p.write_text(text.replace("hole1 = disk 0.0 0.0 0.3", "hole1 = disk 0.25 0.1 0.25"))
    cfg = load_config(p)
    verdicts = run_multiplicity_experiment(cfg, discretize(cfg))
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]
    assert verdicts[0].checks[0] == ("multiplicity", 1, "==", 1)


def test_multiplicity_potential_breaking_the_symmetry_wants_simple_ground(tmp_path):
    # a concentric annulus whose potential no point reflection keeps: the
    # expected multiplicity follows the symmetries that keep V, not the shapes
    p = tmp_path / "bump.cfg"
    p.write_text(
        COARSE.format(epsilon="0.01", slit_mode="radial")
        + "\n[potential]\nkind = bump\ncenter = 0.65 0.0\nsigma = 0.2\namplitude = 40\n"
    )
    cfg = load_config(p)
    verdicts = run_multiplicity_experiment(cfg, discretize(cfg))
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]
    assert verdicts[0].checks[0] == ("multiplicity", 1, "==", 1)


def test_cover_equivalence(coarse_cfg, tmp_path):
    rows, verdicts = run_cover_equivalence(coarse_cfg, discretize(coarse_cfg), out_dir=tmp_path)
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]


def test_symmetric_sector_verdict_needs_exact_equality(coarse_cfg, monkeypatch):
    # one entry of the lifted operator off by 1e-12 relative: the spectra
    # still agree within 1e-8, but the sector is not the zero-flux operator
    lifted = fl.experiments.assemble_lifted

    def nudged(cover, V=None):
        Hl = lifted(cover, V=V)
        Hl.matrix.data[0] *= 1.0 + 1e-12
        return Hl

    monkeypatch.setattr(fl.experiments, "assemble_lifted", nudged)
    _, verdicts = run_cover_equivalence(coarse_cfg, discretize(coarse_cfg))
    (v,) = [v for v in verdicts if v.name == "symmetric-spectrum-equality"]
    assert not v.passed, v.detail


def nudge_hop(A):
    """Put the first stored off-diagonal entry of the CSR matrix A off by
    1e-12 relative, the smallest change a gauge identity must see."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    A.data[np.flatnonzero(rows != A.indices)[0]] *= 1.0 + 1e-12


def test_antisymmetric_verdict_needs_the_gauge_identity(coarse_cfg, monkeypatch):
    # one hop of the half-flux operator H off by 1e-12 relative: its spectrum
    # still matches the block's within 1e-8, but conj(D) H D is not B
    assemble = fl.experiments.assemble

    def nudged(graph, V=None):
        H = assemble(graph, V=V)
        nudge_hop(H.matrix)
        return H

    monkeypatch.setattr(fl.experiments, "assemble", nudged)
    _, verdicts = run_cover_equivalence(coarse_cfg, discretize(coarse_cfg))
    by_name = {v.name: v for v in verdicts}
    circle, gauge, sector = by_name["antisymmetric-spectrum-equality"].checks
    assert circle.holds() and sector.holds() and not gauge.holds(), gauge
    assert by_name["symmetric-spectrum-equality"].passed and by_name["trivial-cover-doubling"].passed


def test_lift_verdict_needs_the_intertwining_identity(coarse_cfg, monkeypatch):
    # one hop of the half-flux lifted operator off by 1e-12 relative: the
    # lifts of H's eigenpairs stay within the solver's residual budget, but
    # Hl L is not L H
    lifted = fl.experiments.assemble_lifted

    def nudged(cover, V=None):
        Hl = lifted(cover, V=V)
        if cover.cuts.any():
            nudge_hop(Hl.matrix)
        return Hl

    monkeypatch.setattr(fl.experiments, "assemble_lifted", nudged)
    _, verdicts = run_cover_equivalence(coarse_cfg, discretize(coarse_cfg))
    by_name = {v.name: v for v in verdicts}
    assert not by_name["lift-intertwines-eigenpairs"].passed, by_name["lift-intertwines-eigenpairs"].detail
    assert by_name["trivial-cover-doubling"].passed


def test_cover_equivalence_solves_the_circle_only(coarse_cfg, monkeypatch):
    # every domain claim is an operator identity: the two solves left are
    # the circle's magnetic operator and its antisymmetric block
    calls = count_solves(monkeypatch)
    lattice = discretize(coarse_cfg)
    rows, verdicts = run_cover_equivalence(coarse_cfg, lattice)
    n = max(64, coarse_cfg.circle.points // 4)
    assert calls == [n, n] and lattice.grid.n_vertices > n
    assert [r[0] for r in rows] == ["circle-antisymmetric", "circle-magnetic"]
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]


def test_trivial_cover_verdict_needs_exact_equality(coarse_cfg, monkeypatch):
    # one entry of the lifted operator on the integer-flux cover off by 1e-12
    # relative: its spectrum still doubles the base within 1e-8, but it is
    # not two copies of the zero-flux operator
    lifted = fl.experiments.assemble_lifted

    def nudged(cover, V=None):
        Hl = lifted(cover, V=V)
        if not cover.cuts.any():
            Hl.matrix.data[0] *= 1.0 + 1e-12
        return Hl

    monkeypatch.setattr(fl.experiments, "assemble_lifted", nudged)
    _, verdicts = run_cover_equivalence(coarse_cfg, discretize(coarse_cfg))
    by_name = {v.name: v for v in verdicts}
    assert by_name["symmetric-spectrum-equality"].passed
    assert not by_name["trivial-cover-doubling"].passed, by_name["trivial-cover-doubling"].detail


def test_nodal_experiment(coarse_cfg, tmp_path):
    reports, verdicts = run_nodal(coarse_cfg, discretize(coarse_cfg), out_dir=tmp_path)
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]
    svg = (tmp_path / "nodal.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert (tmp_path / "nodal_reports.jsonl").read_text().count("\n") == len(reports)


def test_nodal_files_do_not_depend_on_the_solvers_sign(tmp_path, monkeypatch):
    # the nodal line of this domain runs along round-off zeros, where u and
    # -u cross different cells and trace the line in opposite directions;
    # the solver returns u only up to sign, and _half_flux_ground picks one
    spec = fl.DomainSpec(outer=fl.Rect(0.1, -0.1, 1.7, 1.5), holes=(fl.Disk(0.75, 0.85, 0.2),), spacing=0.1)
    grid = fl.build_grid(spec)
    cov = _half_flux_cover(grid)
    u = fl.lowest_eigenpairs(fl.antisymmetric_block(cov), 1, tol=1e-10).eigenvectors[:, 0]
    assert fl.extract_nodal_set(u, cov, grid).crossed_cells != fl.extract_nodal_set(-u, cov, grid).crossed_cells
    solve = fl.experiments.lowest_eigenpairs

    def negated(*args, **kwargs):
        r = solve(*args, **kwargs)
        return dataclasses.replace(r, eigenvectors=-r.eigenvectors)

    files = []
    for job in (solve, negated):
        monkeypatch.setattr(fl.experiments, "lowest_eigenpairs", job)
        out = tmp_path / job.__name__
        out.mkdir()
        run_nodal(ExperimentConfig(domain=spec), Lattice(grid, None), out_dir=out)
        files.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert sorted(files[0]) == ["nodal.svg", "nodal_0.txt", "nodal_reports.jsonl"]
    assert files[0] == files[1]


def test_verdict_passes_iff_every_check_holds():
    # a nan meets no bound, whatever the comparison
    for op in ("<=", ">=", "<", ">", "=="):
        assert not Check("x", np.nan, op, 1.0).holds()
        assert not Verdict("v", "claim", (Check("y", 0, "==", 0), Check("x", np.nan, op, 1.0))).passed
    checks = (Check("count", 0, "==", 0), Check("gap", 0.25, ">=", 1e-4), Check("dev", 3e-14, "<=", 1e-10))
    v = Verdict("v", "a claim", checks)
    assert v.passed
    assert v.line() == "PASS v | a claim: count 0 (== 0), gap 0.25 (>= 0.0001), dev 3e-14 (<= 1e-10)"
    v = Verdict("v", "a claim", checks[:2] + (Check("dev", 2e-10, "<=", 1e-10),))
    assert not v.passed
    assert v.line() == "FAIL v | a claim: count 0 (== 0), gap 0.25 (>= 0.0001), dev 2e-10 (<= 1e-10)"


def test_collinear_pair_fails_both_halves_of_disjointness(coarse_cfg, monkeypatch):
    # u2 := u1: the pair shares every crossed cell, and u2 vanishes on u1's crossings
    ground = fl.experiments._half_flux_ground

    def collinear(cfg, lattice, cover):
        r, mult = ground(cfg, lattice, cover)
        U = r.eigenvectors.copy()
        U[:, 1] = U[:, 0]
        return dataclasses.replace(r, eigenvectors=U), mult

    monkeypatch.setattr(fl.experiments, "_half_flux_ground", collinear)
    _, verdicts = run_nodal(coarse_cfg, discretize(coarse_cfg))
    (v,) = [v for v in verdicts if v.name == "degenerate-pair-disjoint"]
    shared, floor = v.checks
    assert not v.passed and not shared.holds() and not floor.holds()
    assert shared.value > 0 and floor.value <= 1e-6, v.line()


def test_cli_pass_and_outputs(tmp_path):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(COARSE.format(epsilon="0.01", slit_mode="radial"))
    out = tmp_path / "runs"
    code = cli_main(["sweep", "--config", str(cfgp), "--out", str(out)])
    assert code == 0
    assert (out / "sweep.csv").exists()
    text = (out / "verdicts.txt").read_text()
    assert "PASS periodicity" in text


def test_cli_missing_config(tmp_path):
    assert cli_main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "section, line",
    [
        ("sweep", "step = abc"),
        ("sweep", "start = 1.0\nstop = 0.0"),
        ("solver", "count = three"),
        ("solver", "seed = 0xZZ"),
        ("circle", "epsilon = small"),
        ("slit", "count = 8.5"),
        ("multiplicity", "bump_sigma = wide"),
        ("potential", "depth = deep"),
        ("solver", "count = 0"),
        ("solver", "tol = 0"),
        ("solver", "cluster_tol = -1e-3"),
        # potential settings that used to load and fail only when V was
        # evaluated, or be dropped silently
        ("potential", "kind = radial_well\nradius = 0.5"),
        ("potential", "kind = table"),
        ("potential", "kind = radial_well\ncenter = 0.5\nradius = 0.5\ndepth = -2"),
        ("potential", "kind = zero\nradius = 0.5"),
        ("potential", "kind = radial_well\nradius = 0.5\ndepth = deep"),
        # slit and circle values that used to fail only when their run started
        ("slit", "count = 0"),
        ("slit", "hole = 2"),
        ("slit", "hole = 0"),
        ("circle", "points = 32"),
        # alphas that cannot decide circle-degeneracy-at-half-flux, which
        # used to pass with 0 alphas flagged wrongly
        ("circle", "alphas ="),
        ("circle", "alphas = 0 0.25"),
        # non-finite floats: a traceback, or (tol) every residual check passing
        ("sweep", "step = inf"),
        ("sweep", "start = nan"),
        ("sweep", "stop = inf"),
        ("solver", "tol = inf"),
    ],
)
def test_cli_bad_value_exits_2(tmp_path, section, line):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(f"{BASE_DOMAIN}[{section}]\n{line}\n")
    with pytest.raises(ConfigError):
        load_config(cfgp)
    assert cli_main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize(
    "command, section",
    [
        ("sweep", "[potential]\nkind = bump\ncenter = 0.5 0\nsigma = 0\namplitude = 1.0\n"),
        ("multiplicity", "[multiplicity]\nbump_sigma = 0\nbump_radius = 0.5\nbump_angle = 0\n"),
    ],
    ids=["sigma", "bump_sigma"],
)
def test_cli_gaussian_width_not_positive_exits_2(tmp_path, command, section, capsys):
    # the bump is centred on a lattice vertex, where a zero width made the
    # potential 0/0 and the run stop with exit 1
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(BASE_DOMAIN.replace("spacing = 0.05", "spacing = 0.1") + section)
    assert cli_main([command, "--config", str(cfgp), "--out", str(tmp_path / "r")]) == 2
    assert "sigma must be positive" in capsys.readouterr().err


def test_cli_count_beyond_the_grid_exits_2(tmp_path):
    # the coarse annulus has fewer than 5000 vertices
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(f"{BASE_DOMAIN}[solver]\ncount = 5000\n")
    load_config(cfgp)
    assert cli_main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize(
    "domain",
    [
        # the hole's gap to the outer boundary is below 3h
        BASE_DOMAIN.replace("spacing = 0.05", "spacing = 0.4"),
        # the hole contains no lattice cell
        BASE_DOMAIN.replace("disk 0.0 0.0 0.3", "disk 0.0 0.0 0.01"),
        # a 2e7 x 2e7 index window, refused before it is allocated
        BASE_DOMAIN.replace("disk 0.0 0.0 1.0", "disk 0 0 1e6").replace("spacing = 0.05", "spacing = 0.1"),
    ],
    ids=["gap-below-3h", "hole-below-a-cell", "window-beyond-the-cap"],
)
def test_cli_grid_that_does_not_build_exits_2(tmp_path, domain, capsys):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(domain)
    cfg = load_config(cfgp)  # the config loads; its grid does not build
    with pytest.raises(ConfigError):
        discretize(cfg)
    assert cli_main(["all", "--config", str(cfgp), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err.startswith("error: [domain] does not build a grid")


def test_disconnected_grid_exits_2(tmp_path, monkeypatch):
    # valid specs cannot disconnect, so bypass the analytic check
    monkeypatch.setattr(fl.DomainSpec, "validate", lambda self: None)
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("[domain]\nouter = rect 0 0 1 0.4\nhole1 = rect 0.45 -0.1 0.55 0.5\nspacing = 0.1\n")
    with pytest.raises(ConfigError, match="components"):
        discretize(load_config(cfgp))
    assert cli_main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize("command", ["slit", "multiplicity"])
@pytest.mark.parametrize("radius", ["0.2", "0.01"], ids=["grid-builds", "grid-too-coarse"])
def test_cli_one_hole_experiment_on_two_holes_exits_2(tmp_path, command, radius):
    # the one-hole check comes before the grid, which need not build
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(TWO_HOLES_COARSE.replace("0.5 0.2", f"0.5 {radius}"))
    assert cli_main([command, "--config", str(cfgp), "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize(
    "sweep, message",
    [
        # the sweep is the one flux 0, and strict-minimum-at-zero-flux passed
        # with a min margin of inf
        ("step = 5", "holds no flux off the integers"),
        # the argmax is flux 0.3, and maximality-at-half-flux failed
        ("stop = 0.3\nstep = 0.1", "misses flux 1/2"),
    ],
    ids=["no-flux-off-the-integers", "one-hole-without-half-flux"],
)
@pytest.mark.parametrize("command", ["sweep", "all"])
def test_cli_sweep_that_cannot_decide_its_claims_exits_2(tmp_path, monkeypatch, capsys, sweep, message, command):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(f"{BASE_DOMAIN}[sweep]\nstart = 0.0\n{sweep}\n")
    cfg = load_config(cfgp)
    with pytest.raises(ConfigError, match=message):
        run_flux_sweep(cfg, discretize(cfg))
    builds = []
    monkeypatch.setattr(fl.experiments, "build_grid", lambda spec: builds.append(spec))
    out = tmp_path / "r"
    assert cli_main([command, "--config", str(cfgp), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert builds == [] and not (out / "verdicts.txt").exists()


def test_cli_domain_without_a_hole_exits_2(tmp_path, monkeypatch, capsys):
    # every claim but the circle's is about a domain with holes: on a disk the
    # sweep printed FAIL strict-minimum-at-zero-flux, and nodal, cover and all
    # stopped with exit 1
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("[domain]\nouter = disk 0 0 1\nspacing = 0.1\n")
    cfg = load_config(cfgp)
    with pytest.raises(ConfigError, match="no hole"):
        discretize(cfg)
    builds = []
    monkeypatch.setattr(fl.experiments, "build_grid", lambda spec: builds.append(spec))
    for command in ("sweep", "cover", "nodal", "all"):
        out = tmp_path / command
        assert cli_main([command, "--config", str(cfgp), "--out", str(out)]) == 2
        assert "no hole" in capsys.readouterr().err
        assert builds == [] and not (out / "verdicts.txt").exists()
    assert cli_main(["circle", "--config", str(cfgp), "--out", str(tmp_path / "circle")]) == 0


def test_two_hole_sweep_needs_no_half_flux(tmp_path, coarse_cfg):
    # maximality is a one-hole claim: two holes may sweep 0..0.3, one may not
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(TWO_HOLES_COARSE.replace("stop = 1.0\nstep = 0.25", "stop = 0.3\nstep = 0.1"))
    cfg = load_config(cfgp)
    require_sweep_claims(cfg)
    with pytest.raises(ConfigError, match="misses flux 1/2"):
        require_sweep_claims(dataclasses.replace(cfg, domain=coarse_cfg.domain))


# each key's valid value on a coarse annulus, then the values a fuzzed key
# may take instead: not finite, zero, negative, or too big for the grid
FUZZ_KEYS = {
    ("domain", "outer"): (
        "disk 0 0 1.0",
        ["disk 0 0 nan", "disk 0 0 inf", "disk 0 0 0", "disk 0 0 -1", "disk 0 0 0.2", "disk 0 0 1e6"],
    ),
    ("domain", "hole1"): (
        "disk 0 0 0.3",
        ["disk nan 0 0.3", "disk 0 0 inf", "disk 0 0 0", "disk 0 0 -0.3", "disk 0 0 2.0", "disk 5 0 0.3"],
    ),
    ("domain", "spacing"): ("0.1", ["nan", "inf", "0", "-0.1", "0.5"]),
    ("potential", "sigma"): ("0.3", ["nan", "inf", "0", "-0.3", "1e200"]),
    ("potential", "amplitude"): ("1.0", ["nan", "-inf", "0", "-1.0", "1e6"]),
    ("sweep", "step"): ("0.25", ["nan", "inf", "0", "-0.25", "5.0"]),
    ("solver", "count"): ("3", ["0", "-3", "5000"]),
    ("solver", "tol"): ("1e-10", ["nan", "inf", "0", "-1e-10", "1.0"]),
    ("solver", "cluster_tol"): ("1e-3", ["nan", "inf", "0", "-1e-3", "10.0"]),
    ("circle", "points"): ("64", ["0", "-64", "1024"]),
    ("circle", "epsilon"): ("0.01", ["nan", "inf", "0", "-0.01", "1e6"]),
    ("slit", "count"): ("4", ["0", "-4", "64"]),
    ("multiplicity", "bump_sigma"): ("0.2", ["nan", "inf", "0", "-0.2", "1e200"]),
    ("multiplicity", "bump_amplitude"): ("40.0", ["nan", "inf", "0", "-40.0", "1e6"]),
    ("multiplicity", "bump_radius"): ("0.65", ["nan", "inf", "0", "-0.65", "50.0"]),
}


@st.composite
def fuzzed_configs(draw):
    keys = draw(st.lists(st.sampled_from(sorted(FUZZ_KEYS)), min_size=1, max_size=2, unique=True))
    sections = {"potential": {"kind": "bump"}, "sweep": {"stop": "0.5"}}
    for (section, key), (valid, bad) in FUZZ_KEYS.items():
        value = draw(st.sampled_from(bad)) if (section, key) in keys else valid
        sections.setdefault(section, {})[key] = value
    return "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items()) for section, items in sections.items()
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(fuzzed_configs(), st.sampled_from(["sweep", "circle", "slit", "multiplicity", "cover", "nodal", "all"]))
def test_cli_fuzzed_config_exits_cleanly(text, command):
    # either verdicts (exit 0 or 1) or a one-line error (exit 2), never a traceback
    with tempfile.TemporaryDirectory() as d:
        cfgp = os.path.join(d, "c.cfg")
        with open(cfgp, "w") as f:
            f.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([command, "--config", cfgp, "--out", os.path.join(d, "r")])
        wrote = os.path.isfile(os.path.join(d, "r", "verdicts.txt"))
        assert (code in (0, 1) and wrote) or (code == 2 and not wrote and err.getvalue().startswith("error: ")), (
            code,
            err.getvalue(),
        )


def test_cli_all_coarse(tmp_path):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(COARSE.format(epsilon="0.01", slit_mode="radial"))
    out = tmp_path / "runs"
    code = cli_main(["all", "--config", str(cfgp), "--out", str(out)])
    assert code == 0
    produced = {p.name for p in out.iterdir()}
    assert {"sweep.csv", "circle.csv", "slit.csv", "multiplicity.csv", "cover.csv",
            "nodal.svg", "verdicts.txt"} <= produced
    text = (out / "verdicts.txt").read_text()
    assert text.count("PASS") >= 14 and "FAIL" not in text
    # every number is printed next to its bound
    assert all(re.search(r"\((<=|>=|<|>|==) \S+\)$", line) for line in text.splitlines()), text


def test_cli_all_builds_the_grid_once(tmp_path, monkeypatch):
    # `all` shares one grid and potential; each command alone builds its own
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(COARSE.format(epsilon="0.01", slit_mode="radial"))
    builds = []
    build_grid = fl.experiments.build_grid
    monkeypatch.setattr(fl.experiments, "build_grid", lambda spec: builds.append(spec) or build_grid(spec))
    assert cli_main(["all", "--config", str(cfgp), "--out", str(tmp_path / "all")]) == 0
    assert len(builds) == 1
    verdicts = b""
    for name in ("sweep", "circle", "slit", "multiplicity", "cover", "nodal"):
        assert cli_main([name, "--config", str(cfgp), "--out", str(tmp_path / "one")]) == 0
        verdicts += (tmp_path / "one" / "verdicts.txt").read_bytes()
    assert len(builds) == 1 + 5
    files = sorted(p.name for p in (tmp_path / "all").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "one").iterdir())
    for name in files:
        want = verdicts if name == "verdicts.txt" else (tmp_path / "one" / name).read_bytes()
        assert (tmp_path / "all" / name).read_bytes() == want, name


def test_cli_verdict_failure(tmp_path):
    # with no perturbation the circle degeneracy never splits: honest FAIL
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(COARSE.format(epsilon="0.0", slit_mode="radial"))
    code = cli_main(["circle", "--config", str(cfgp), "--out", str(tmp_path / "r")])
    assert code == 1
    assert "FAIL circle-degeneracy-splitting" in (tmp_path / "r" / "verdicts.txt").read_text()


def _k_path(cfg, grid):
    """The complex half-flux route: magnetic solve, cover phase, K-fixed
    representatives and their real lifts sqrt(2) * Re(L rep), one column each."""
    s = cfg.solver
    field = fl.aharonov_bohm_potential(grid, [0.5] * grid.k)
    r = fl.lowest_eigenpairs(fl.assemble_magnetic(grid, field), max(s.count, 4), tol=s.tol, seed=s.seed)
    mult = fl.multiplicity_estimate(r.eigenvalues, s.cluster_tol)
    cov = fl.build_cover(fl.as_edge_graph(grid, field))
    theta = fl.build_theta(cov)
    reps = real_representatives(r.eigenvectors[:, :mult], conjugation_operator(grid, field))
    F = np.column_stack([np.sqrt(2.0) * fl.lift_to_cover(rep, theta).real for rep in reps.T])
    return r, mult, cov, F


def _real_path(cfg, grid):
    cov = _half_flux_cover(grid)
    r, mult = _half_flux_ground(cfg, Lattice(grid, None), cov)
    U = r.eigenvectors[:, :mult]
    return r, mult, cov, np.concatenate([U, -U])


@pytest.mark.parametrize("fixture", ["offset_annulus", "two_holes"])
def test_real_half_flux_simple_ground_matches_k_path(request, fixture):
    grid = request.getfixturevalue(fixture)
    cfg = ExperimentConfig(domain=grid.spec)
    r_old, mult_old, cov_old, F_old = _k_path(cfg, grid)
    r, mult, cov, F = _real_path(cfg, grid)
    assert F.dtype == np.float64
    assert mult == mult_old == 1
    assert abs(r.eigenvalues[0] - r_old.eigenvalues[0]) <= 1e-12 * r_old.eigenvalues[0]
    f, f_old = F[:, 0], F_old[:, 0]
    f_old = np.sign(f @ f_old) * f_old
    assert np.max(np.abs(f - f_old)) <= 1e-12
    # a simple ground state has one nodal set, whichever route solved it
    nod, nod_old = (fl.extract_nodal_set(g[: grid.n_vertices], c, grid) for g, c in ((f, cov), (f_old, cov_old)))
    assert nod.crossed_cells == nod_old.crossed_cells
    assert nod.endpoint_labels == nod_old.endpoint_labels
    assert [len(p) for p in nod.polylines] == [len(p) for p in nod_old.polylines]
    for p, p_old in zip(nod.polylines, nod_old.polylines):
        assert np.max(np.abs(np.asarray(p) - np.asarray(p_old))) <= 1e-12
    lines = [fl.topology_report(n, grid).to_json_line() for n in (nod, nod_old)]
    assert lines[0] == lines[1]


def test_real_half_flux_pair_spans_k_path_plane(annulus):
    grid = annulus
    cfg = ExperimentConfig(domain=grid.spec)
    r_old, mult_old, _, F_old = _k_path(cfg, grid)
    r, mult, _, F = _real_path(cfg, grid)
    assert mult == mult_old == 2
    assert abs(r.eigenvalues[0] - r_old.eigenvalues[0]) <= 1e-12 * r_old.eigenvalues[0]
    # both column pairs are orthogonal with norm sqrt(2): equal planes give
    # singular values 1
    sv = np.linalg.svd(F_old.T @ F / 2.0, compute_uv=False)
    assert np.max(np.abs(sv - 1.0)) <= 1e-10


def same_bits(A, B):
    """Whether two sparse matrices store the same entries, bit for bit."""
    A, B = A.tocsr(), B.tocsr()
    A.sort_indices()
    B.sort_indices()
    return all(np.array_equal(x, y) for x, y in ((A.indptr, B.indptr), (A.indices, B.indices), (A.data.view(np.int64), B.data.view(np.int64))))


def check_half_flux_split(grid, V=None):
    """_half_flux_ground on grid against one solve of the whole block B:
    equal eigenvalues within tol * norm, equal multiplicity and equal ground
    eigenspaces; where B splits, S B S^T = B bit for bit and S^2 = I.
    Returns the number of sectors solved."""
    cfg = ExperimentConfig(domain=grid.spec)
    s = cfg.solver
    lattice = Lattice(grid, V)
    cov = _half_flux_cover(grid)
    B = fl.antisymmetric_block(cov, V=V).matrix
    n = B.shape[0]
    reflection = _reflection(B, lattice, cov)
    if reflection is not None:
        p, d = reflection
        S = sparse.csr_matrix((d, (np.arange(n), p)), shape=(n, n))  # (S u)_v = d_v u_p(v)
        assert same_bits(S @ B @ S.T, B)
        assert same_bits(S @ S, sparse.identity(n, format="csr"))
        assert sum(Q.shape[1] for Q in _sector_bases(p, d)) == n
    # every sector shifts from B's bounds, not its own
    bounds = []
    solve = fl.experiments.lowest_eigenpairs

    def recorded(A, m, **kwargs):
        bounds.append(kwargs["bounds"])
        return solve(A, m, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        usable_cpus(mp, 1)  # in-process, so the recorder sees each sector
        mp.setattr(fl.experiments, "lowest_eigenpairs", recorded)
        r, mult = _half_flux_ground(cfg, lattice, cov)
    assert bounds == [gershgorin_bounds(B)] * len(bounds)
    r0 = fl.lowest_eigenpairs(B, r.eigenvalues.size, tol=s.tol, seed=s.seed)
    assert np.max(np.abs(r.eigenvalues - r0.eigenvalues)) <= s.tol * max(map(abs, gershgorin_bounds(B)))
    assert mult == fl.multiplicity_estimate(r0.eigenvalues, s.cluster_tol)
    sv = np.linalg.svd(r0.eigenvectors[:, :mult].T @ r.eigenvectors[:, :mult], compute_uv=False)
    assert np.max(np.abs(sv - 1.0)) <= 1e-10
    return len(bounds)


# domains whose half-flux block splits, though a sign read off the cover's
# tree potential, exp(i (eta + eta o p)), finds no lift on either: the AB
# reference point lies on no mirror of a symmetric footprint, and a lattice
# that only the point reflection, a rotation, keeps
LIFTED_DOMAINS = {
    "disk-hole-off-mirror": fl.DomainSpec(outer=fl.Disk(0, 0, 1.0), holes=(fl.Disk(0.01, 0.02, 0.25),), spacing=0.1),
    "rect-point-reflection-only": fl.DomainSpec(
        outer=fl.Rect(0, 0, 3.0, 1.0), holes=(fl.Disk(1.0, 0.4, 0.2), fl.Disk(2.0, 0.6, 0.2)), spacing=0.05
    ),
}


@pytest.mark.parametrize(
    "fixture, sectors", [("annulus", 2), ("two_holes", 2), ("offset_annulus", 1), *((name, 2) for name in LIFTED_DOMAINS)]
)
def test_half_flux_sectors_match_one_block(request, fixture, sectors):
    grid = fl.build_grid(LIFTED_DOMAINS[fixture]) if fixture in LIFTED_DOMAINS else request.getfixturevalue(fixture)
    assert check_half_flux_split(grid) == sectors


def check_first_lift(grid, V=None):
    """_reflection returns the first lift of the two-sheet oracle and of the
    oracle that reads it off a BFS tree of B, with d_0 = +1; returns whether
    there is one."""
    lattice = Lattice(grid, V)
    cov = _half_flux_cover(grid)
    B = fl.antisymmetric_block(cov, V=V).matrix
    got = _reflection(B, lattice, cov)
    for want in (two_sheet_lift(B, lattice), bfs_reflection(B, lattice)):
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got[0], want[0])
            assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
    assert got is None or got[1][0] == 1.0
    return got is not None


def test_reflection_is_the_two_sheet_oracles_first_lift(annulus, offset_annulus, two_holes):
    assert [check_first_lift(g) for g in (annulus, offset_annulus, two_holes)] == [True, False, True]
    assert all(check_first_lift(fl.build_grid(spec)) for spec in LIFTED_DOMAINS.values())
    found = []

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_domains())
    def check(grid):
        found.append(check_first_lift(grid))

    check()
    assert set(found) == {True, False}


def test_reflection_returns_a_permutation_of_its_own(annulus):
    # a row of the symmetry group would keep the whole (8, n) group alive
    # through the sector solves
    cov = _half_flux_cover(annulus)
    p, _ = _reflection(fl.antisymmetric_block(cov).matrix, Lattice(annulus, None), cov)
    assert p.base is None and p.flags.owndata


def test_point_reflection_lift_squares_to_minus_one(annulus):
    # two bumps keep only the point reflection, whose lift around the hole at
    # half flux squares to -I: no sectors, and the pair stays degenerate
    V = sum(gaussian_bump(annulus.xy, c, 0.2, 40.0) for c in ((0.5, 0.3), (-0.5, -0.3)))
    assert len(fl.experiments._symmetries(Lattice(annulus, V))) == 2
    assert not check_first_lift(annulus, V)
    assert check_half_flux_split(annulus, V) == 1


def test_half_flux_sectors_on_random_domains():
    sectors = []

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(small_domains())
    def check(grid):
        sectors.append(check_half_flux_split(grid))

    check()
    # the draws hold domains that split and domains that do not
    assert set(sectors) == {1, 2}


def test_half_flux_sectors_through_the_fork(annulus, monkeypatch):
    # two CPUs: the sectors solve in forked workers, with the in-process result
    cfg = ExperimentConfig(domain=annulus.spec)
    lattice, cov = Lattice(annulus, None), _half_flux_cover(annulus)
    results = []
    for n in (2, 1):
        usable_cpus(monkeypatch, n)
        r, mult = _half_flux_ground(cfg, lattice, cov)
        assert_no_children()
        results.append((r.eigenvalues.tobytes(), r.eigenvectors.tobytes(), mult))
    assert results[0] == results[1]
