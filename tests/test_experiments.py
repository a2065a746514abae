"""Config parsing, experiment runners, CSV determinism and CLI exit codes."""

import os

import numpy as np
import pytest

import fluxlab as fl
from fluxlab.cli import cli_main
from fluxlab.config import ExperimentConfig, load_config, parse_shape
from fluxlab.errors import ConfigError, EmptyFamily
from fluxlab.experiments import (
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
    domain = COARSE.split("[sweep]")[0]
    cfgp.write_text(f"{domain}[{section}]\n{line}\n")
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
