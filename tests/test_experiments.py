"""Config parsing, experiment runners, CSV determinism, the worker pool and
CLI exit codes."""

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import fluxlab as fl
from fluxlab.cli import cli_main
from fluxlab.config import ExperimentConfig, load_config, parse_shape
from fluxlab.errors import ConfigError, EmptyFamily, NoConvergence
from fluxlab.experiments import (
    _fan_out,
    _half_flux_ground,
    run_circle_check,
    run_cover_equivalence,
    run_flux_sweep,
    run_multiplicity_experiment,
    run_nodal,
    run_slit_infimum,
)

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

[experiment]
name = coarse
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
        "[domain]\nfile = base.cfg\n\n[experiment]\nname = other\n",
        # a reference that refers on, here back to itself, used to recurse
        # until RecursionError
        "[domain]\nfile = c.cfg\n",
        # unknown keys and sections used to be ignored
        BASE_DOMAIN + "[sweep]\nstpo = 0.5\n",
        BASE_DOMAIN + "[slitt]\ncount = 8\n",
        BASE_DOMAIN + "[solver]\nseeds = 7\n",
        BASE_DOMAIN.replace("spacing", "spaceing"),
    ],
    ids=[
        "file-beside-solver",
        "file-beside-domain-key",
        "file-beside-experiment",
        "file-refers-to-itself",
        "sweep-key-typo",
        "section-typo",
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


def test_flux_sweep_verdicts(coarse_cfg, tmp_path):
    rows, verdicts = run_flux_sweep(coarse_cfg, out_dir=tmp_path)
    assert len(rows) == 5
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]
    names = {v.name for v in verdicts}
    assert {"periodicity", "half-flux-symmetry", "strict-minimum-at-zero-flux", "maximality-at-half-flux"} <= names
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "flux1,lambda1,lambda2,lambda3,multiplicity,max_residual"
    assert len(lines) == 6


def test_sweep_rows_ordered(coarse_cfg):
    rows, _ = run_flux_sweep(coarse_cfg)
    for row in rows:
        lam1, lam2, lam3 = row[1:4]
        assert lam1 <= lam2 + 1e-12 <= lam3 + 2e-12


def test_csv_deterministic(coarse_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    run_flux_sweep(coarse_cfg, out_dir=a)
    run_flux_sweep(coarse_cfg, out_dir=b)
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def square_and_pid(x):
    if x < 0:
        raise ValueError(f"item {x}")
    return x * x, os.getpid()


def test_fan_out_forks_one_worker_per_cpu(monkeypatch):
    usable_cpus(monkeypatch, 2)
    out = _fan_out(square_and_pid, range(8))
    assert multiprocessing.active_children() == []
    assert [sq for sq, _ in out] == [x * x for x in range(8)]
    pids = {pid for _, pid in out}
    assert os.getpid() not in pids and 1 <= len(pids) <= 2
    # inside a worker the helper runs in-process
    nested = _fan_out(lambda x: (os.getpid(), _fan_out(square_and_pid, range(3))), range(2))
    assert multiprocessing.active_children() == []
    for pid, inner in nested:
        assert {p for _, p in inner} == {pid}
    # the first failing item in item order raises in the parent
    with pytest.raises(ValueError, match="item -1"):
        _fan_out(square_and_pid, [3, -1, 2, -2])
    assert multiprocessing.active_children() == []
    # a worker that dies raises, and the other is stopped
    with pytest.raises(BrokenProcessPool):
        _fan_out(lambda x: os._exit(1) if x == 1 else x, range(4))
    assert multiprocessing.active_children() == []


def test_fan_out_in_process_on_one_cpu(monkeypatch):
    usable_cpus(monkeypatch, 1)
    assert _fan_out(square_and_pid, range(4)) == [(x * x, os.getpid()) for x in range(4)]


def test_pooled_runs_match_one_cpu(coarse_cfg, tmp_path, monkeypatch):
    outputs = []
    for n in (2, 1):
        usable_cpus(monkeypatch, n)
        out = tmp_path / f"cpus{n}"
        out.mkdir()
        sweep_rows, sweep_verdicts = run_flux_sweep(coarse_cfg, out_dir=out)
        assert multiprocessing.active_children() == []
        slit_rows, slit_verdicts = run_slit_infimum(coarse_cfg, out_dir=out, refine=True)
        assert multiprocessing.active_children() == []
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
    # two holes: flux 1 is a sweep row that no verdict reads, so the sweep
    # passes with a -1 row; one hole: the strict-minimum verdict reads flux
    # 0.25, so the sweep raises
    if holes == 2:
        path = tmp_path / "two.cfg"
        path.write_text(TWO_HOLES_COARSE)
        cfg = load_config(path)
    else:
        cfg = coarse_cfg
    stall_eigsh_at(monkeypatch, fl.build_grid(cfg.domain), flux)  # before the fork
    outcomes = []
    for n in (2, 1):
        usable_cpus(monkeypatch, n)
        out = tmp_path / f"cpus{n}"
        out.mkdir()
        try:
            rows, verdicts = run_flux_sweep(cfg, out_dir=out)
        except NoConvergence as exc:
            outcomes.append(("raised", str(exc), exc.best_result.eigenvalues.tobytes()))
        else:
            outcomes.append((rows, [v.line() for v in verdicts], (out / "sweep.csv").read_bytes()))
        assert multiprocessing.active_children() == []
    assert outcomes[0] == outcomes[1]
    if holes == 2:
        rows = outcomes[0][0]
        assert [r[5] for r in rows if r[0] == flux] == [-1]
        assert all(r[5] >= 1 for r in rows if r[0] != flux)
    else:
        assert outcomes[0][0] == "raised"


def test_circle_check(coarse_cfg, tmp_path):
    rows, verdicts = run_circle_check(coarse_cfg, out_dir=tmp_path)
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]
    assert (tmp_path / "circle.csv").exists()


def test_slit_infimum(coarse_cfg, tmp_path):
    rows, verdicts = run_slit_infimum(coarse_cfg, out_dir=tmp_path, refine=True)
    assert len(rows) == 8
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]
    assert {v.name for v in verdicts} == {
        "slit-lower-bound",
        "slit-infimum-tightness",
        "slit-gap-refinement",
    }


def test_slit_shortest_mode(tmp_path):
    p = tmp_path / "s.cfg"
    p.write_text(COARSE.format(epsilon="0.01", slit_mode="shortest"))
    cfg = load_config(p)
    rows, verdicts = run_slit_infimum(cfg)
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]


def test_slit_infimum_off_center():
    # no lattice mirror fixes an off-center slit, so the gap is genuinely
    # O(h): tight at the calibrated spacing and halving under refinement
    cfg = load_config("configs/annulus_offset.cfg")
    _, verdicts = run_slit_infimum(cfg, refine=True)
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]
    tight = next(v for v in verdicts if v.name == "slit-infimum-tightness")
    assert "relative gap" in tight.detail


def test_slit_empty_family(coarse_cfg):
    import dataclasses

    cfg = dataclasses.replace(coarse_cfg)
    cfg.slit = dataclasses.replace(cfg.slit, count=0)
    with pytest.raises(EmptyFamily):
        run_slit_infimum(cfg)


def test_multiplicity_experiment(coarse_cfg, tmp_path):
    verdicts = run_multiplicity_experiment(coarse_cfg, out_dir=tmp_path)
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]


def test_multiplicity_off_center_hole_wants_simple_ground(tmp_path):
    # no central symmetry: the half-flux ground state is simple, not a pair
    p = tmp_path / "offset.cfg"
    text = COARSE.format(epsilon="0.01", slit_mode="radial")
    p.write_text(text.replace("hole1 = disk 0.0 0.0 0.3", "hole1 = disk 0.25 0.1 0.25"))
    verdicts = run_multiplicity_experiment(load_config(p))
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]
    assert "multiplicity 1 (want 1" in verdicts[0].detail


def test_cover_equivalence(coarse_cfg, tmp_path):
    rows, verdicts = run_cover_equivalence(coarse_cfg, out_dir=tmp_path)
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]


def test_nodal_experiment(coarse_cfg, tmp_path):
    reports, verdicts = run_nodal(coarse_cfg, out_dir=tmp_path)
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]
    svg = (tmp_path / "nodal.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert (tmp_path / "nodal_reports.jsonl").read_text().count("\n") == len(reports)


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
    ],
)
def test_cli_bad_value_exits_2(tmp_path, section, line):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(f"{BASE_DOMAIN}[{section}]\n{line}\n")
    with pytest.raises(ConfigError):
        load_config(cfgp)
    assert cli_main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "r")]) == 2


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
    reps = fl.real_representatives(r.eigenvectors[:, :mult], fl.conjugation_operator(grid, field))
    F = np.column_stack([np.sqrt(2.0) * fl.lift_to_cover(rep, theta).real for rep in reps.T])
    return r, mult, cov, F


def _real_path(cfg, grid):
    cov, r, mult = _half_flux_ground(cfg, None, grid)
    U = r.eigenvectors[:, :mult]
    return r, mult, cov, np.concatenate([U, -U])


def test_real_half_flux_simple_ground_matches_k_path(offset_annulus):
    grid = offset_annulus
    cfg = ExperimentConfig(domain=grid.spec)
    r_old, mult_old, cov_old, F_old = _k_path(cfg, grid)
    r, mult, cov, F = _real_path(cfg, grid)
    assert F.dtype == np.float64
    assert mult == mult_old == 1
    assert abs(r.eigenvalues[0] - r_old.eigenvalues[0]) <= 1e-12 * r_old.eigenvalues[0]
    f, f_old = F[:, 0], F_old[:, 0]
    f_old = np.sign(f @ f_old) * f_old
    assert np.max(np.abs(f - f_old)) <= 1e-12
    lines = [
        fl.topology_report(fl.extract_nodal_set(g, c, grid), grid).to_json_line()
        for g, c in ((f, cov), (f_old, cov_old))
    ]
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
