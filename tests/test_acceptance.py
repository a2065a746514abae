"""Acceptance suite: every headline claim checked at its stated tolerance,
at the shipped desk scale (annulus h=0.02, circle n=256, two-hole h=0.02).

Criteria 1-9 and 11 assert, by name, the verdicts that `fluxlab` writes:
each experiment runs once per config at tol 1e-11, and every criterion
reads the verdicts of those runs.  Criterion 10 checks the eigensolver
itself against dense diagonalization.  Each criterion prints one
PASS/FAIL line; run with `pytest -s` to see them while the suite runs.
"""

import dataclasses
import time

import numpy as np
import pytest

import fluxlab as fl
from fluxlab.config import load_config
from fluxlab.experiments import (
    discretize,
    run_circle_check,
    run_cover_equivalence,
    run_flux_sweep,
    run_nodal,
    run_slit_infimum,
)

CONFIGS = {"annulus": "configs/annulus.cfg", "two_holes": "configs/two_holes.cfg"}
NODAL = ("nodal-slitting", "cover-two-domain-equivalence", "ground-multiplicity-bound")


def criterion(num, title, verdicts, names, checks=()):
    """Print criterion num's line and assert it: each verdict named in names
    is in the {name: Verdict} dict verdicts and passes, and each (ok, detail)
    of checks holds."""
    lines = [verdicts[n].line() if n in verdicts else f"MISSING {n}" for n in names]
    ok = all(n in verdicts and verdicts[n].passed for n in names) and all(c for c, _ in checks)
    detail = "; ".join(lines + [d for _, d in checks])
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {title} | {detail}")
    assert ok, f"criterion {num} ({title}): {detail}"


def by_name(verdicts, prefix=""):
    """{name: Verdict}, each name (and the name in its line) given prefix."""
    return {prefix + v.name: dataclasses.replace(v, name=prefix + v.name) for v in verdicts}


@pytest.fixture(scope="module")
def cfgs():
    out = {}
    for label, path in CONFIGS.items():
        cfg = out[label] = load_config(path)
        cfg.solver = dataclasses.replace(cfg.solver, tol=1e-11)
    return out


@pytest.fixture(scope="module")
def annulus(cfgs):
    return cfgs["annulus"], discretize(cfgs["annulus"])


@pytest.fixture(scope="module")
def circle_run(annulus):
    """The annulus config's circle check: rows, verdicts and wall time."""
    t0 = time.perf_counter()
    rows, verdicts = run_circle_check(annulus[0])
    return rows, by_name(verdicts), time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_run(annulus):
    rows, verdicts = run_flux_sweep(*annulus)
    return rows, by_name(verdicts)


@pytest.fixture(scope="module")
def cover_verdicts(annulus):
    return by_name(run_cover_equivalence(*annulus)[1])


@pytest.fixture(scope="module")
def nodal_verdicts(cfgs):
    """The nodal verdicts of both configs, named '<config>/<verdict>'."""
    out = {}
    for label, cfg in cfgs.items():
        out.update(by_name(run_nodal(cfg, discretize(cfg))[1], f"{label}/"))
    return out


def test_criterion_1_circle_exact_spectrum(circle_run, annulus):
    rows, verdicts, elapsed = circle_run
    # rows of the alphas come first: (alpha, lambda1, lambda2, lambda3, ...)
    half = rows[list(annulus[0].circle.alphas).index(0.5)]
    pair_gap, third_gap = half[2] - half[1], half[3] - half[1]
    criterion(
        1,
        "circle exact spectrum",
        verdicts,
        ("circle-exact-spectrum", "circle-degeneracy-at-half-flux"),
        [
            (pair_gap <= 1e-10, f"half-flux pair gap {pair_gap:.2e} (<=1e-10)"),
            (third_gap >= 0.5, f"third gap {third_gap:.3f} (>=0.5)"),
            (elapsed < 5.0, f"runtime {elapsed:.2f}s (<5s)"),
        ],
    )


def test_criterion_2_periodicity_and_symmetry(sweep_run):
    criterion(2, "periodicity and flip symmetry", sweep_run[1], ("periodicity", "half-flux-symmetry"))


def test_criterion_3_strict_minimum(sweep_run):
    rows, verdicts = sweep_run
    # the verdict's 1e-6 margin applies at flux 0.25 only if the sweep has it
    quarter = 0.25 in [row[0] for row in rows]
    criterion(
        3, "strict minimum at zero flux", verdicts, ("strict-minimum-at-zero-flux",),
        [(quarter, "flux 0.25 in the sweep")],
    )


def test_criterion_4_one_hole_maximality(sweep_run):
    criterion(4, "one-hole maximality at half flux", sweep_run[1], ("maximality-at-half-flux",))


def test_criterion_5_cover_equivalence(cover_verdicts):
    names = (
        "antisymmetric-spectrum-equality",
        "symmetric-spectrum-equality",
        "lift-intertwines-eigenpairs",
        "trivial-cover-doubling",
    )
    criterion(5, "cover spectral equivalence", cover_verdicts, names)


def test_criterion_6_conjugation_algebra(cover_verdicts):
    criterion(6, "conjugation operator algebra", cover_verdicts, ("conjugation-algebra",))


def test_criterion_7_nodal_slitting(nodal_verdicts):
    names = [f"{label}/{n}" for label in CONFIGS for n in NODAL]
    criterion(7, "half-flux nodal sets slit the domain", nodal_verdicts, names)


def test_criterion_8_degenerate_pair_disjoint(nodal_verdicts):
    criterion(
        8, "degenerate pair has disjoint nodal sets", nodal_verdicts, ("annulus/degenerate-pair-disjoint",)
    )


def test_criterion_9_slit_infimum(annulus):
    verdicts = by_name(run_slit_infimum(*annulus, refine=True)[1])
    names = ("slit-lower-bound", "slit-infimum-tightness", "slit-gap-refinement")
    criterion(9, "slit-pinned infimum matches half flux", verdicts, names)


def test_criterion_10_oracle_equivalence():
    corpus = [fl.assemble_circle(64, a) for a in (0.0, 0.25, 0.5)]
    corpus.append(fl.assemble_circle(256, 0.5))
    spec = fl.DomainSpec(outer=fl.Rect(0, 0, 1, 1), holes=(fl.Disk(0.5, 0.5, 0.2),), spacing=0.08)
    g = fl.build_grid(spec)
    for flux in (0.0, 0.3, 0.5):
        corpus.append(fl.assemble_magnetic(g, fl.aharonov_bohm_potential(g, [flux])))
    worst, biggest = 0.0, 0
    for H in corpus:
        assert H.n <= 400
        biggest = max(biggest, H.n)
        r = fl.lowest_eigenpairs(H, 4, tol=1e-12)
        dense = np.linalg.eigvalsh(H.matrix.toarray())[:4]
        worst = max(worst, float(np.max(np.abs(r.eigenvalues - dense))))
    criterion(
        10,
        "iterative matches dense diagonalization",
        {},
        (),
        [(worst <= 1e-9, f"{len(corpus)} matrices up to dimension {biggest}: worst absolute "
                         f"deviation {worst:.2e} (<=1e-9)")],
    )


def test_criterion_11_degeneracy_splitting(circle_run):
    criterion(11, "perturbation splits the half-flux pair", circle_run[1], ("circle-degeneracy-splitting",))
