"""Named experiments: flux sweeps, circle checks, slit infima, multiplicity
and cover equivalence, each emitting CSV rows and pass/fail verdicts.

Every verdict states a checkable mathematical claim about the computed
spectra; the claim text is embedded in the verdict files so a summary run
reads as a list of verified statements.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .config import ExperimentConfig, gaussian_bump
from .cover import (
    ConjugationOperator,
    antisymmetric_block,
    assemble_lifted,
    build_cover,
    build_theta,
    lift_to_cover,
)
from .eigensolver import gershgorin_bounds, lowest_eigenpairs, multiplicity_estimate
from .errors import ConfigError, DisconnectedDomain, EmptyFamily, NoConvergence, SpecTooCoarse, SpecTooFine
from .gauge import aharonov_bohm_potential, zero_field
from .geometry import DomainSpec, GridDomain, build_grid, lattice_symmetries
from .nodal import extract_nodal_set, polylines_text, topology_report, values_at_crossings
from .operators import (
    as_edge_graph,
    assemble,
    assemble_circle,
    assemble_magnetic,
    assemble_slit,
    circle_graph,
    radial_slit,
    shortest_slit,
)
from .svgout import nodal_svg


@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str

    def line(self):
        return f"{'PASS' if self.passed else 'FAIL'} {self.name} | {self.detail}"


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row])


def write_verdicts(path, verdicts):
    with open(path, "w") as f:
        for v in verdicts:
            f.write(v.line() + "\n")


# (job, items) of the _fan_out call that forked this worker; None elsewhere
_worker_job = None


def _start_worker(job, items):
    global _worker_job
    _worker_job = (job, items)


def _worker_call(i):
    job, items = _worker_job
    return job(items[i])


def _fan_out(job, items):
    """[job(x) for x in items], spread over one forked worker per usable CPU.

    Runs in-process when one CPU or one item is available, where fork is
    missing, and inside a worker.  Forked workers inherit the job and the
    items, so only indices and results are pickled.  Results come back in
    item order; the first item whose job raised, in item order, raises here,
    and a worker that dies raises BrokenProcessPool.
    """
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(items))
    if workers > 1 and _worker_job is None:
        # imported here, as cover imports csgraph: no cost to runs that never fork
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # a daemonic process (a multiprocessing.Pool worker) may not fork
        if "fork" in multiprocessing.get_all_start_methods() and not multiprocessing.current_process().daemon:
            with ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_start_worker,
                initargs=(job, items),
            ) as pool:
                return list(pool.map(_worker_call, range(len(items))))
    return [job(x) for x in items]


class Lattice(NamedTuple):
    """A config's grid and its potential on the grid's vertices (None: zero)."""

    grid: GridDomain
    V: np.ndarray | None


def require_one_hole(cfg: ExperimentConfig, experiment: str):
    """Raise ConfigError unless cfg's domain has exactly one hole."""
    if cfg.domain.k != 1:
        raise ConfigError(f"{experiment} experiment needs exactly one hole, got {cfg.domain.k}")


def discretize(cfg: ExperimentConfig, domain: DomainSpec = None) -> Lattice:
    """The grid of domain (default cfg.domain) and cfg's potential on it;
    ConfigError if the grid does not build or has no more vertices than [solver] count."""
    try:
        grid = build_grid(cfg.domain if domain is None else domain)
    except (SpecTooCoarse, SpecTooFine, DisconnectedDomain) as exc:
        raise ConfigError(f"[domain] does not build a grid: {exc}") from exc
    if cfg.solver.count >= grid.n_vertices:
        raise ConfigError(f"[solver] count {cfg.solver.count} needs more than the grid's {grid.n_vertices} vertices")
    return Lattice(grid, cfg.potential(grid))


class _Spectrum(NamedTuple):
    """The part of an EigenResult that a sweep reads: no eigenvectors."""

    eigenvalues: np.ndarray
    residuals: np.ndarray


def _sweep_spectra(cfg: ExperimentConfig, lattice: Lattice, fluxes) -> dict:
    """{flux: _Spectrum} for every flux, keyed by the flux rounded to 12
    digits, solved as one _fan_out batch.

    A flux whose solve raised NoConvergence maps to that exception, with a
    _Spectrum as its best result.
    """
    grid, V = lattice
    s = cfg.solver

    def solve(t):
        H = assemble_magnetic(grid, aharonov_bohm_potential(grid, [t] * grid.k), V=V)
        try:
            r = lowest_eigenpairs(H, s.count, tol=s.tol, seed=s.seed)
        except NoConvergence as exc:
            best = exc.best_result
            exc.best_result = _Spectrum(best.eigenvalues, best.residuals)
            return exc
        return _Spectrum(r.eigenvalues, r.residuals)

    keys = list(dict.fromkeys(round(float(t), 12) for t in fluxes))
    return dict(zip(keys, _fan_out(solve, keys)))


# the flux pairs that the periodicity and half-flux-symmetry verdicts
# compare, and (one hole) the fluxes of the maximality verdict
_SHIFT_PAIRS = tuple((t, t + 1.0) for t in (0.1, 0.2, 0.3, 0.4))
_FLIP_PAIRS = tuple((0.5 + t, 0.5 - t) for t in (0.1, 0.2, 0.3, 0.4))
_PEAK = (0.5, 0.45)


def _flux_class(t):
    """The flux in [0, 1/2] whose spectrum equals that of t: an integer
    shift of the flux is a gauge, and complex conjugation maps t to -t."""
    t = float(t) % 1.0
    return min(t, 1.0 - t)


def _sweep_fluxes(ts, k):
    """Every flux that run_flux_sweep solves: the class of each sweep row,
    and on its own each flux that a verdict compares."""
    pairs = _SHIFT_PAIRS + _FLIP_PAIRS
    rows = [_flux_class(t) for t in ts]
    return rows + [t for pair in pairs for t in pair] + [0.0] + (list(_PEAK) if k == 1 else [])


def run_flux_sweep(cfg: ExperimentConfig, lattice: Lattice, out_dir=None):
    """Sweep the flux and check periodicity, flip symmetry, the strict
    zero-flux minimum and (one hole) maximality at half flux.

    The rows, the margins and the argmax read each flux's class; the
    periodicity and half-flux-symmetry verdicts, the claims that make the
    classes hold, compare two solves of their own.
    """
    grid = lattice.grid
    s = cfg.solver
    ts = cfg.sweep_values()
    spectra = _sweep_spectra(cfg, lattice, _sweep_fluxes(ts, grid.k))

    def spectrum(t):
        r = spectra[round(float(t), 12)]
        if isinstance(r, NoConvergence):
            raise r
        return r

    def lam1(t):
        return float(spectrum(t).eigenvalues[0])

    rows = []
    for t in ts:
        r = spectrum(_flux_class(t))
        rows.append(
            tuple([t] * grid.k)
            + tuple(float(x) for x in r.eigenvalues[:3])
            + (multiplicity_estimate(r.eigenvalues, s.cluster_tol), float(np.max(r.residuals)))
        )

    def max_deviation(pairs):
        return max(abs(lam1(a) - lam1(b)) / (1.0 + abs(lam1(a))) for a, b in pairs)

    verdicts = []
    dev = max_deviation(_SHIFT_PAIRS)
    verdicts.append(
        Verdict(
            "periodicity",
            dev <= 1e-10,
            f"lambda1(flux) = lambda1(flux+1): max relative deviation {dev:.3e} (tol 1e-10)",
        )
    )
    dev = max_deviation(_FLIP_PAIRS)
    verdicts.append(
        Verdict(
            "half-flux-symmetry",
            dev <= 1e-10,
            f"lambda1(1/2+t) = lambda1(1/2-t): max relative deviation {dev:.3e} (tol 1e-10)",
        )
    )
    lam0 = lam1(0.0)
    noninteger = [t for t in ts if min(abs(t - round(t)), 1.0) > 1e-9]
    margins = {t: lam1(_flux_class(t)) - lam0 for t in noninteger}
    min_margin = min(margins.values()) if margins else np.inf
    margin_quarter = margins.get(0.25, np.nan)
    verdicts.append(
        Verdict(
            "strict-minimum-at-zero-flux",
            bool(min_margin > 0 and (np.isnan(margin_quarter) or margin_quarter >= 1e-6)),
            f"lambda1(flux) > lambda1(0) off integers: min margin {min_margin:.3e}, "
            f"margin at flux 0.25 = {margin_quarter:.3e}",
        )
    )
    if grid.k == 1:
        lam_by_t = {t: lam1(_flux_class(t)) for t in ts}
        t_max = max(lam_by_t, key=lam_by_t.get)
        rise = lam1(_PEAK[0]) - lam1(_PEAK[1])
        verdicts.append(
            Verdict(
                "maximality-at-half-flux",
                bool(abs(t_max - _PEAK[0]) < 1e-12 and rise > 0),
                f"argmax of lambda1 over the sweep at flux {t_max}; "
                f"lambda1(0.5)-lambda1(0.45) = {rise:.3e}",
            )
        )

    if out_dir:
        header = [f"flux{i + 1}" for i in range(grid.k)] + [
            "lambda1",
            "lambda2",
            "lambda3",
            "multiplicity",
            "max_residual",
        ]
        write_csv(os.path.join(out_dir, "sweep.csv"), header, rows)
    return rows, verdicts


def circle_exact(alpha: float) -> float:
    m = np.round(alpha)
    return float(min((m - alpha) ** 2, (m - 1 - alpha) ** 2, (m + 1 - alpha) ** 2))


def run_circle_check(cfg: ExperimentConfig, out_dir=None):
    """Flux-threaded circle against its closed-form spectrum, plus the
    perturbative degeneracy splitting at half flux."""
    s = cfg.solver
    n = cfg.circle.points
    if n < 64:
        raise ConfigError(f"circle check needs at least 64 points, got {n}")
    h = 2.0 * np.pi / n
    rows, verdicts = [], []
    worst_rel, worst_alpha = 0.0, None
    deg_flags_ok = True
    for alpha in cfg.circle.alphas:
        H = assemble_circle(n, alpha)
        r = lowest_eigenpairs(H, 3, tol=s.tol, seed=s.seed)
        lam = r.eigenvalues
        exact = circle_exact(alpha)
        rel = abs(lam[0] - exact) / max(abs(exact), 1e-6)
        mult = multiplicity_estimate(lam, 1e-6)
        is_half = abs(alpha - np.floor(alpha) - 0.5) < 1e-12
        if (mult == 2) != is_half:
            deg_flags_ok = False
        if rel > worst_rel:
            worst_rel, worst_alpha = rel, alpha
        rows.append((alpha, float(lam[0]), float(lam[1]), float(lam[2]), exact, float(rel), mult))
    cfit = worst_rel / h**2
    verdicts.append(
        Verdict(
            "circle-exact-spectrum",
            worst_rel <= 5e-4,
            f"lambda1 matches min over integers of (m-alpha)^2: worst relative error "
            f"{worst_rel:.3e} at alpha={worst_alpha} (tol 5e-4); fitted error constant "
            f"C = {cfit:.3f} per h^2",
        )
    )
    verdicts.append(
        Verdict(
            "circle-degeneracy-at-half-flux",
            deg_flags_ok,
            "ground multiplicity 2 exactly at half-integer alpha, 1 elsewhere",
        )
    )

    eps = cfg.circle.epsilon
    phi = np.arange(n) * h
    Hp = assemble_circle(n, 0.5, V=eps * np.cos(phi))
    rp = lowest_eigenpairs(Hp, 3, tol=s.tol, seed=s.seed)
    split = float(rp.eigenvalues[1] - rp.eigenvalues[0])
    verdicts.append(
        Verdict(
            "circle-degeneracy-splitting",
            split >= 1e-4,
            f"perturbation eps*cos(phi), eps={eps}: gap lambda2-lambda1 = {split:.3e} "
            f"(needs >= 1e-4)",
        )
    )
    rows.append((0.5, float(rp.eigenvalues[0]), float(rp.eigenvalues[1]), float(rp.eigenvalues[2]), np.nan, np.nan, multiplicity_estimate(rp.eigenvalues, 1e-6)))

    if out_dir:
        write_csv(
            os.path.join(out_dir, "circle.csv"),
            ["alpha", "lambda1", "lambda2", "lambda3", "exact", "rel_error", "multiplicity"],
            rows,
        )
    return rows, verdicts


def _slit_family(cfg: ExperimentConfig, grid):
    """The SlitPath of every slit of the family."""
    m = cfg.slit.count
    if m <= 0:
        raise EmptyFamily("slit family is empty")
    hole = cfg.slit.hole
    if cfg.slit.mode == "radial":
        return [radial_slit(grid, hole, 2.0 * np.pi * j / m) for j in range(m)]
    outer = grid.boundary_vertices(0)
    picks = outer[np.linspace(0, outer.size - 1, m).astype(int)]
    return [shortest_slit(grid, hole, int(v)) for v in picks]


def _symmetries(lattice: Lattice) -> np.ndarray:
    """The rows of lattice_symmetries(grid) that keep V (None: zero) bit for bit."""
    grid, V = lattice
    group = lattice_symmetries(grid)
    return group if V is None else group[[np.array_equal(V[p], V) for p in group]]


def _centrally_symmetric(lattice: Lattice) -> bool:
    """Whether a lattice symmetry that keeps V is the point reflection:
    a row p for which grid.ij[p] + grid.ij is constant."""
    ij = lattice.grid.ij
    return any((ij[p] + ij == ij[p[0]] + ij[0]).all() for p in _symmetries(lattice))


def _slit_orbits(slits, lattice: Lattice):
    """For each slit, the index of the first slit of its orbit under the
    lattice symmetries that keep V.

    A slit's key is the least sorted image of its vertex set over them,
    so two slits share a key iff a symmetry maps one vertex set onto the other.
    """
    group = _symmetries(lattice)
    first, orbit = {}, []
    for j, slit in enumerate(slits):
        images = np.sort(group[:, list(slit.vertices)], axis=1)
        orbit.append(first.setdefault(min(map(tuple, images.tolist())), j))
    return orbit


def _slit_minimum(cfg: ExperimentConfig, lattice: Lattice):
    """Half-flux lambda1 and one (index, slit length, lambda1) row per slit.

    A slit's matrix depends only on the active set, V, h and the slit's
    vertex set.  So slits that a lattice symmetry keeping V maps onto each
    other have matrices equal up to a renumbering of the unknowns, and one
    solve serves each orbit.  The half-flux solve and the first slit of each
    orbit are one _fan_out batch.
    """
    grid, V = lattice
    s = cfg.solver
    zf = zero_field(grid)

    def solve(slit):
        if slit is None:
            H, size = antisymmetric_block(_half_flux_cover(grid), V=V), None
        else:
            H, size = assemble_slit(grid, zf, V=V, slit=slit), len(slit.vertices)
        return size, float(lowest_eigenpairs(H, 1, tol=s.tol, seed=s.seed).eigenvalues[0])

    family = _slit_family(cfg, grid)
    orbit = _slit_orbits(family, lattice)
    firsts = sorted(set(orbit))
    (_, lam_mag), *solved = _fan_out(solve, [None] + [family[j] for j in firsts])
    # every slit has its orbit's lambda1 and vertex count
    solved = dict(zip(firsts, solved))
    rows = [(j, *solved[first]) for j, first in enumerate(orbit)]
    return lam_mag, rows


def run_slit_infimum(cfg: ExperimentConfig, lattice: Lattice, out_dir=None, refine=False):
    """Minimum of the slit-pinned zero-field ground energy over a slit family
    against the half-flux ground energy, with an optional two-grid check.

    Defined for one hole: a single boundary-to-boundary slit only slits a
    one-hole domain.
    """
    require_one_hole(cfg, "slit")
    lam_mag, rows = _slit_minimum(cfg, lattice)
    lams = np.array([r[2] for r in rows])
    lam_min = float(lams.min())
    gap = lam_min - lam_mag
    rel_gap = abs(gap) / lam_mag
    verdicts = [
        Verdict(
            "slit-lower-bound",
            bool(np.all(lams >= lam_mag * (1.0 - 2e-2))),
            f"every slit-pinned lambda1 >= half-flux lambda1 (2e-2 slack): "
            f"min slack {float((lams / lam_mag - 1.0).min()):.3e}",
        ),
        Verdict(
            "slit-infimum-tightness",
            rel_gap <= 2e-2,
            f"min over {len(rows)} slits = {lam_min!r} vs half-flux lambda1 = {lam_mag!r}: "
            f"relative gap {rel_gap:.3e} (tol 2e-2)",
        ),
    ]
    if refine:
        fine = DomainSpec(
            outer=cfg.domain.outer, holes=cfg.domain.holes, spacing=cfg.domain.spacing / 2
        )
        lam_mag2, rows2 = _slit_minimum(cfg, discretize(cfg, fine))
        lam_min2 = float(min(r[2] for r in rows2))
        gap2 = lam_min2 - lam_mag2
        # axis-aligned slits on a mirror-symmetric lattice make the identity
        # exact, leaving only solver noise to "shrink"; below the floor the
        # two-grid ratio is vacuous
        floor = 1e-8 * lam_mag
        if abs(gap) <= floor and abs(gap2) <= floor:
            verdicts.append(
                Verdict(
                    "slit-gap-refinement",
                    True,
                    f"gaps {gap:.3e} -> {gap2:.3e} both below the solver noise floor "
                    f"{floor:.3e}: identity already exact at the coarse grid",
                )
            )
        else:
            ratio = abs(gap2) / abs(gap)
            verdicts.append(
                Verdict(
                    "slit-gap-refinement",
                    ratio <= 0.5 or abs(gap2) <= floor,
                    f"gap at h/2 over gap at h = {ratio:.3f} (needs <= 0.5); "
                    f"gaps {gap:.3e} -> {gap2:.3e}",
                )
            )
    if out_dir:
        write_csv(
            os.path.join(out_dir, "slit.csv"),
            ["slit_index", "n_vertices", "lambda1"],
            rows,
        )
    return rows, verdicts


def _half_flux_cover(grid):
    """Twofold cover of the grid with circulation 1/2 around every hole."""
    field = aharonov_bohm_potential(grid, [0.5] * grid.k)
    return build_cover(as_edge_graph(grid, field))


def _half_flux_ground(cfg: ExperimentConfig, cover, V, k):
    """Lowest half-flux eigenpairs, solved as the cover's real antisymmetric block.

    The block's spectrum is the magnetic one.  Its eigenvectors u are real,
    and concat(u, -u) is the antisymmetric cover function of each, so the
    nodal sets need no cover phase and no conjugation.  With k holes, at least
    k + 2 pairs are solved, so a multiplicity above the k + 1 bound can show.
    """
    s = cfg.solver
    m = max(s.count, 4, k + 2)
    r = lowest_eigenpairs(antisymmetric_block(cover, V=V), m, tol=s.tol, seed=s.seed)
    return r, multiplicity_estimate(r.eigenvalues, s.cluster_tol)


def run_multiplicity_experiment(cfg: ExperimentConfig, lattice: Lattice, out_dir=None):
    """Ground multiplicity at half flux: two when a lattice symmetry that
    keeps V is the point reflection and one otherwise, and one once a
    potential bump breaks the symmetry."""
    require_one_hole(cfg, "multiplicity")
    grid, V = lattice
    s = cfg.solver
    verdicts = []

    cover = _half_flux_cover(grid)
    r, mult = _half_flux_ground(cfg, cover, V, grid.k)
    width = s.cluster_tol * (1.0 + abs(r.eigenvalues[0]))
    gap_above = float(r.eigenvalues[mult] - r.eigenvalues[mult - 1]) if mult < len(r.eigenvalues) else np.nan
    symmetric = _centrally_symmetric(lattice)
    want = 2 if symmetric else 1
    verdicts.append(
        Verdict(
            "half-flux-ground-multiplicity",
            mult == want and gap_above >= 10 * width,
            f"half-flux ground multiplicity {mult} (want {want}: the lattice symmetries "
            f"that keep V {'include' if symmetric else 'exclude'} the point reflection), "
            f"next gap {gap_above:.3e} >= 10x cluster width {width:.3e}",
        )
    )

    mu = cfg.multiplicity
    bump_center = (mu.bump_radius * np.cos(mu.bump_angle), mu.bump_radius * np.sin(mu.bump_angle))
    Vb = (V if V is not None else 0.0) + gaussian_bump(grid.xy, bump_center, mu.bump_sigma, mu.bump_amplitude)
    rb, multb = _half_flux_ground(cfg, cover, Vb, grid.k)
    u = rb.eigenvectors[:, 0]
    nod = extract_nodal_set(np.concatenate([u, -u]), cover, grid)
    report = topology_report(nod, grid)
    verdicts.append(
        Verdict(
            "asymmetric-simple-ground-state",
            multb == 1 and report.passes_slitting,
            f"with a symmetry-breaking bump: multiplicity {multb} (want 1), "
            f"nodal set still slits: {report.passes_slitting}",
        )
    )
    if out_dir:
        write_csv(
            os.path.join(out_dir, "multiplicity.csv"),
            ["case", "lambda1", "lambda2", "lambda3", "multiplicity"],
            [
                ("symmetric",) + tuple(float(x) for x in r.eigenvalues[:3]) + (mult,),
                ("bump",) + tuple(float(x) for x in rb.eigenvalues[:3]) + (multb,),
            ],
        )
    return verdicts


def run_cover_equivalence(cfg: ExperimentConfig, lattice: Lattice, out_dir=None):
    """Magnetic spectrum == antisymmetric lifted spectrum; symmetric lifted
    spectrum == zero-flux spectrum; the lift intertwines eigenpairs; the
    conjugation K squares to one and commutes with the half-flux operator."""
    s = cfg.solver
    verdicts = []
    rows = []

    def spectra_close(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return float(np.max(np.abs(a - b) / (np.abs(b) + 1e-9))) if a.size else 0.0

    # circle at half flux
    n = max(64, cfg.circle.points // 4)
    cg = circle_graph(n, 0.5)
    ccov = build_cover(cg)
    rmag = lowest_eigenpairs(assemble_circle(n, 0.5), 3, tol=s.tol, seed=s.seed)
    ranti = lowest_eigenpairs(antisymmetric_block(ccov), 3, tol=s.tol, seed=s.seed)
    dev_circle = spectra_close(ranti.eigenvalues, rmag.eigenvalues)
    rows.append(("circle-antisymmetric",) + tuple(float(x) for x in ranti.eigenvalues))
    rows.append(("circle-magnetic",) + tuple(float(x) for x in rmag.eigenvalues))

    # the domain at half flux
    grid, V = lattice
    cov = _half_flux_cover(grid)
    H = assemble(cov.base, V=V)
    r = lowest_eigenpairs(H, 3, tol=s.tol, seed=s.seed)
    ra = lowest_eigenpairs(antisymmetric_block(cov, V=V), 3, tol=s.tol, seed=s.seed)
    dev_dom = spectra_close(ra.eigenvalues, r.eigenvalues)
    rows.append(("domain-antisymmetric",) + tuple(float(x) for x in ra.eigenvalues))
    rows.append(("domain-magnetic",) + tuple(float(x) for x in r.eigenvalues))
    verdicts.append(
        Verdict(
            "antisymmetric-spectrum-equality",
            max(dev_circle, dev_dom) <= 1e-8,
            f"lowest 3 antisymmetric cover eigenvalues match the magnetic ones: "
            f"max relative deviation {max(dev_circle, dev_dom):.3e} (tol 1e-8)",
        )
    )

    r0 = lowest_eigenpairs(assemble_magnetic(grid, zero_field(grid), V=V), 3, tol=s.tol, seed=s.seed)
    # the symmetric sector of the lifted operator, 1/2 P^T Hl P with P = [I; I]
    Hl = assemble_lifted(cov, V=V)
    P = sparse.vstack([sparse.identity(grid.n_vertices, format="csr")] * 2)
    rs = lowest_eigenpairs(0.5 * (P.T @ Hl.matrix @ P), 3, tol=s.tol, seed=s.seed)
    dev_sym = spectra_close(rs.eigenvalues, r0.eigenvalues)
    verdicts.append(
        Verdict(
            "symmetric-spectrum-equality",
            dev_sym <= 1e-8,
            f"symmetric cover eigenvalues match the zero-flux ones: "
            f"max relative deviation {dev_sym:.3e} (tol 1e-8)",
        )
    )

    theta = build_theta(cov)
    worst = 0.0
    for j in range(3):
        lu = lift_to_cover(r.eigenvectors[:, j], theta)
        worst = max(worst, float(np.linalg.norm(Hl.matrix @ lu - r.eigenvalues[j] * lu)))
    budget = 10 * s.tol * max(map(abs, gershgorin_bounds(Hl.matrix)))
    verdicts.append(
        Verdict(
            "lift-intertwines-eigenpairs",
            worst <= budget,
            f"max lifted eigen-residual {worst:.3e} <= 10 * tol * norm = {budget:.3e}",
        )
    )

    K = ConjugationOperator(cov)
    norm = max(map(abs, gershgorin_bounds(H.matrix)))
    rng = np.random.default_rng(s.seed)
    worst_sq = worst_comm = 0.0
    for _ in range(20):
        u = rng.standard_normal(grid.n_vertices) + 1j * rng.standard_normal(grid.n_vertices)
        u /= np.linalg.norm(u)
        worst_sq = max(worst_sq, float(np.linalg.norm(K(K(u)) - u)))
        worst_comm = max(worst_comm, float(np.linalg.norm(H.matrix @ K(u) - K(H.matrix @ u)) / norm))
    verdicts.append(
        Verdict(
            "conjugation-algebra",
            worst_sq <= 1e-12 and worst_comm <= 1e-10,
            f"K^2 = 1 and [K, H] = 0 on 20 random unit vectors: max ||K^2 u - u|| = {worst_sq:.3e} "
            f"(tol 1e-12), max ||[K, H] u|| / norm = {worst_comm:.3e} (tol 1e-10)",
        )
    )

    # integer flux: the cover is two disconnected copies of the base
    field0 = aharonov_bohm_potential(grid, [0.0] * grid.k)
    cov0 = build_cover(as_edge_graph(grid, field0))
    rl0 = lowest_eigenpairs(assemble_lifted(cov0, V=V), 4, tol=s.tol, seed=s.seed)
    doubled = np.repeat(r0.eigenvalues[:2], 2)
    dev_triv = float(np.max(np.abs(rl0.eigenvalues - doubled) / (1.0 + np.abs(doubled))))
    verdicts.append(
        Verdict(
            "trivial-cover-doubling",
            cov0.is_trivial and dev_triv <= 1e-8,
            f"integer flux gives a disconnected cover whose spectrum doubles the base: "
            f"max relative deviation {dev_triv:.3e}",
        )
    )
    if out_dir:
        write_csv(
            os.path.join(out_dir, "cover.csv"),
            ["case", "lambda1", "lambda2", "lambda3"],
            rows,
        )
    return rows, verdicts


def run_nodal(cfg: ExperimentConfig, lattice: Lattice, out_dir=None):
    """Extract the half-flux ground nodal sets and verify the slitting
    topology claims on the reports, the multiplicity bound k + 1 and, for a
    degenerate pair, disjoint nodal sets."""
    grid, V = lattice
    cov = _half_flux_cover(grid)
    r, mult = _half_flux_ground(cfg, cov, V, grid.k)

    verdicts = []
    reports = []
    nodal_sets = []
    all_pass = True
    equiv_ok = True
    lifts = [np.concatenate([u, -u]) for u in r.eigenvectors[:, :mult].T]
    for f in lifts:
        nod = extract_nodal_set(f, cov, grid)
        rep = topology_report(nod, grid)
        reports.append(rep)
        nodal_sets.append(nod)
        all_pass = all_pass and rep.passes_slitting and rep.bounds_ok and rep.cover_domain_count == 2
        equiv_ok = equiv_ok and (rep.passes_slitting == (rep.cover_domain_count == 2))
    verdicts.append(
        Verdict(
            "nodal-slitting",
            bool(all_pass),
            f"{mult} ground representative(s): every nodal set has connected "
            f"complement, odd parity at interior components, k/2 <= n <= k lines, and "
            f"splits the cover into two domains",
        )
    )
    verdicts.append(
        Verdict(
            "cover-two-domain-equivalence",
            bool(equiv_ok),
            "slitting report passes iff the lifted complement has exactly two components",
        )
    )
    verdicts.append(
        Verdict(
            "ground-multiplicity-bound",
            mult <= grid.k + 1,
            f"half-flux ground multiplicity {mult} <= k + 1 = {grid.k + 1}",
        )
    )
    if mult == 2:
        # a degenerate pair: disjoint nodal sets, and u2 vanishes nowhere
        # on the nodal set of u1
        shared = len(nodal_sets[0].crossed_cells & nodal_sets[1].crossed_cells)
        at = values_at_crossings(lifts[1], nodal_sets[0])
        floor = float(np.min(np.abs(at)) / np.max(np.abs(lifts[1])))
        verdicts.append(
            Verdict(
                "degenerate-pair-disjoint",
                shared == 0 and floor > 1e-6,
                f"the two ground representatives share {shared} crossed cells (want 0); "
                f"min |u2| on the crossings of u1 = {floor:.3e} of its max (needs > 1e-6)",
            )
        )
    if out_dir:
        nodal_svg(cfg.domain, nodal_sets, os.path.join(out_dir, "nodal.svg"))
        for j, nod in enumerate(nodal_sets):
            polylines_text(nod, os.path.join(out_dir, f"nodal_{j}.txt"))
        with open(os.path.join(out_dir, "nodal_reports.jsonl"), "w") as f:
            for rep in reports:
                f.write(rep.to_json_line() + "\n")
    return reports, verdicts
