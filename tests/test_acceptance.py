"""Acceptance suite: every headline claim checked at its stated tolerance,
at the shipped desk scale (annulus h=0.02, circle n=256, two-hole h=0.02).

Each criterion prints one PASS/FAIL line; run with `pytest -s` to see them
while the suite runs.
"""

import dataclasses
import time

import numpy as np
import pytest

import fluxlab as fl
from fluxlab.config import load_config
from fluxlab.eigensolver import gershgorin_bounds
from fluxlab.experiments import (
    _sweep_fluxes,
    _sweep_spectra,
    circle_exact,
    discretize,
    run_cover_equivalence,
    run_nodal,
    run_slit_infimum,
)

ANNULUS_CFG = "configs/annulus.cfg"
TWO_HOLES_CFG = "configs/two_holes.cfg"


def verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {name} | {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def annulus_cfg():
    cfg = load_config(ANNULUS_CFG)
    cfg.solver = dataclasses.replace(cfg.solver, tol=1e-11)
    return cfg


@pytest.fixture(scope="module")
def two_holes_cfg():
    cfg = load_config(TWO_HOLES_CFG)
    cfg.solver = dataclasses.replace(cfg.solver, tol=1e-11)
    return cfg


@pytest.fixture(scope="module")
def annulus_lattice(annulus_cfg):
    return discretize(annulus_cfg)


@pytest.fixture(scope="module")
def lam1(annulus_cfg, annulus_lattice):
    """lambda1 by flux over the annulus sweep and the fluxes its verdicts read."""
    fluxes = _sweep_fluxes(annulus_cfg.sweep_values(), annulus_lattice.grid.k)
    spectra = _sweep_spectra(annulus_cfg, annulus_lattice, fluxes)
    return lambda t: float(spectra[round(float(t), 12)].eigenvalues[0])


@pytest.fixture(scope="module")
def half_flux_lab(annulus_lattice):
    """Grid, half-flux field/operator/eigenpairs on the default annulus."""
    grid = annulus_lattice.grid
    field = fl.aharonov_bohm_potential(grid, [0.5])
    H = fl.assemble_magnetic(grid, field)
    r = fl.lowest_eigenpairs(H, 4, tol=1e-11)
    return grid, field, H, r


def test_criterion_1_circle_exact_spectrum():
    t0 = time.perf_counter()
    n = 256
    worst = 0.0
    for alpha in (0.0, 0.1, 0.25, 0.4, 0.5):
        r = fl.lowest_eigenpairs(fl.assemble_circle(n, alpha), 3, tol=1e-11)
        exact = circle_exact(alpha)
        rel = abs(r.eigenvalues[0] - exact) / max(abs(exact), 1e-6)
        worst = max(worst, rel)
        if alpha == 0.5:
            pair_gap = r.eigenvalues[1] - r.eigenvalues[0]
            third_gap = r.eigenvalues[2] - r.eigenvalues[0]
    elapsed = time.perf_counter() - t0
    ok = worst <= 5e-4 and pair_gap <= 1e-10 and third_gap >= 0.5 and elapsed < 5.0
    verdict(
        1,
        "circle exact spectrum",
        ok,
        f"worst rel err {worst:.2e} (<=5e-4), half-flux pair gap {pair_gap:.2e} "
        f"(<=1e-10), third gap {third_gap:.3f} (>=0.5), runtime {elapsed:.2f}s (<5s)",
    )


def test_criterion_2_periodicity_and_symmetry(lam1):
    dev_p = max(
        abs(lam1(t) - lam1(t + 1.0)) / (1.0 + abs(lam1(t)))
        for t in (0.1, 0.2, 0.3, 0.4)
    )
    dev_s = max(
        abs(lam1(0.5 + t) - lam1(0.5 - t)) / (1.0 + abs(lam1(0.5 + t)))
        for t in (0.1, 0.2, 0.3, 0.4)
    )
    ok = dev_p <= 1e-10 and dev_s <= 1e-10
    verdict(
        2,
        "periodicity and flip symmetry",
        ok,
        f"max periodicity deviation {dev_p:.2e}, max symmetry deviation {dev_s:.2e} (tol 1e-10)",
    )


def test_criterion_3_strict_minimum(lam1, annulus_cfg):
    lam0 = lam1(0.0)
    ts = [t for t in annulus_cfg.sweep_values() if min(abs(t - round(t)), 1.0) > 1e-9]
    margins = np.array([lam1(t) - lam0 for t in ts])
    margin_quarter = lam1(0.25) - lam0
    ok = bool(np.all(margins > 0) and margin_quarter >= 1e-6)
    verdict(
        3,
        "strict minimum at zero flux",
        ok,
        f"all {len(ts)} non-integer margins positive (min {margins.min():.3e}), "
        f"margin at flux 0.25 = {margin_quarter:.3e} (>=1e-6)",
    )


def test_criterion_4_one_hole_maximality(lam1, annulus_cfg):
    ts = annulus_cfg.sweep_values()
    lams = {t: lam1(t) for t in ts}
    t_max = max(lams, key=lams.get)
    gap = lam1(0.5) - lam1(0.45)
    ok = t_max == 0.5 and gap > 0
    verdict(
        4,
        "one-hole maximality at half flux",
        ok,
        f"argmax over step-0.025 sweep at flux {t_max} (want 0.5), "
        f"lambda1(0.5)-lambda1(0.45) = {gap:.3e} (>0)",
    )


def test_criterion_5_cover_equivalence(annulus_cfg):
    _, verdicts = run_cover_equivalence(annulus_cfg, discretize(annulus_cfg))
    by_name = {v.name: v for v in verdicts}
    anti = by_name["antisymmetric-spectrum-equality"]
    inter = by_name["lift-intertwines-eigenpairs"]
    ok = anti.passed and inter.passed
    verdict(5, "cover spectral equivalence", ok, f"{anti.detail}; {inter.detail}")


def test_criterion_6_conjugation_algebra(half_flux_lab):
    grid, field, H, _ = half_flux_lab
    K = fl.conjugation_operator(grid, field)
    rng = np.random.default_rng(0x5EED)
    worst_sq, worst_comm = 0.0, 0.0
    norm = max(map(abs, gershgorin_bounds(H.matrix)))
    for _ in range(20):
        u = rng.standard_normal(grid.n_vertices) + 1j * rng.standard_normal(grid.n_vertices)
        u /= np.linalg.norm(u)
        worst_sq = max(worst_sq, float(np.linalg.norm(K.apply(K.apply(u)) - u)))
        comm = np.linalg.norm(H.matrix @ K.apply(u) - K.apply(H.matrix @ u))
        worst_comm = max(worst_comm, float(comm / norm))
    ok = worst_sq <= 1e-12 and worst_comm <= 1e-10
    verdict(
        6,
        "conjugation operator algebra",
        ok,
        f"max ||K^2 u - u|| = {worst_sq:.2e} (<=1e-12), "
        f"max ||[K,H]u||/||H|| = {worst_comm:.2e} (<=1e-10), 20 random vectors",
    )


def test_criterion_7_nodal_slitting(annulus_cfg, two_holes_cfg):
    details = []
    ok = True
    for cfg, label in ((annulus_cfg, "one hole"), (two_holes_cfg, "two holes")):
        reports, verdicts = run_nodal(cfg, discretize(cfg))
        for rep in reports:
            ok = ok and rep.passes_slitting and rep.bounds_ok and rep.cover_domain_count == 2
            ok = ok and (rep.passes_slitting == (rep.cover_domain_count == 2))
        details.append(
            f"{label}: {len(reports)} representative(s), lines "
            f"{[r.n_lines for r in reports]}, all reports pass"
        )
        if label == "two holes":
            grid = fl.build_grid(cfg.domain)
            field = fl.aharonov_bohm_potential(grid, [0.5, 0.5])
            r = fl.lowest_eigenpairs(fl.assemble_magnetic(grid, field), 4, tol=1e-11)
            mult = fl.multiplicity_estimate(r.eigenvalues, cfg.solver.cluster_tol)
            ok = ok and mult <= grid.k + 1
            details.append(f"two-hole multiplicity {mult} <= k+1 = {grid.k + 1}")
    verdict(7, "half-flux nodal sets slit the domain", ok, "; ".join(details))


def test_criterion_8_degenerate_pair_disjoint(half_flux_lab, annulus_cfg):
    grid, field, H, r = half_flux_lab
    mult = fl.multiplicity_estimate(r.eigenvalues, annulus_cfg.solver.cluster_tol)
    K = fl.conjugation_operator(grid, field)
    reps = fl.real_representatives(r.eigenvectors[:, :2], K)
    cov = fl.build_cover(fl.as_edge_graph(grid, field))
    theta = fl.build_theta(cov)
    disjoint = fl.degenerate_pair_check(
        reps[:, 0], reps[:, 1], grid, cov, theta=theta, eigenvalues=r.eigenvalues
    )
    w = reps[:, 0] + 1j * reps[:, 1]
    interior = grid.boundary_labels < 0
    floor = float(np.min(np.abs(w[interior])) / np.max(np.abs(w)))
    ok = mult == 2 and disjoint and floor > 1e-6
    verdict(
        8,
        "degenerate pair has disjoint nodal sets",
        ok,
        f"multiplicity {mult} (want 2), masks disjoint and u1+i*u2 interior floor "
        f"{floor:.2e} > 1e-6 of max",
    )


def test_criterion_9_slit_infimum(annulus_cfg):
    _, verdicts = run_slit_infimum(annulus_cfg, discretize(annulus_cfg), refine=True)
    by_name = {v.name: v for v in verdicts}
    ok = all(v.passed for v in verdicts)
    verdict(
        9,
        "slit-pinned infimum matches half flux",
        ok,
        "; ".join(by_name[n].detail for n in ("slit-lower-bound", "slit-infimum-tightness", "slit-gap-refinement")),
    )


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
    ok = worst <= 1e-9
    verdict(
        10,
        "iterative matches dense diagonalization",
        ok,
        f"{len(corpus)} matrices up to dimension {biggest}: worst absolute deviation "
        f"{worst:.2e} (<=1e-9)",
    )


def test_criterion_11_degeneracy_splitting():
    n = 256
    phi = np.arange(n) * (2 * np.pi / n)
    H = fl.assemble_circle(n, 0.5, V=0.01 * np.cos(phi))
    r = fl.lowest_eigenpairs(H, 2, tol=1e-11)
    split = float(r.eigenvalues[1] - r.eigenvalues[0])
    ok = split >= 1e-4
    verdict(
        11,
        "perturbation splits the half-flux pair",
        ok,
        f"eps=0.01 cosine perturbation: lambda2-lambda1 = {split:.3e} (>=1e-4)",
    )
