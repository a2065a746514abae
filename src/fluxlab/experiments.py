"""Named experiments: flux sweeps, circle checks, slit infima, multiplicity
and cover equivalence, each emitting CSV rows and pass/fail verdicts.

Every verdict states a checkable mathematical claim about the computed
spectra and the checks that decide it, each a number next to its bound;
the claim text is embedded in the verdict files so a summary run reads as
a list of verified statements.
"""

from __future__ import annotations

import contextlib
import csv
import math
import operator
import os
import pickle
import select
import signal
import struct
import sys
import traceback
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
    tree_potential,
)
from .eigensolver import EigenResult, gershgorin_bounds, lowest_eigenpairs, multiplicity_estimate
from .errors import ConfigError, DisconnectedDomain, EmptyFamily, NoConvergence, SpecTooCoarse, SpecTooFine
from .gauge import aharonov_bohm_potential, zero_field
from .geometry import DomainSpec, GridDomain, build_grid, lattice_symmetries
from .nodal import extract_nodal_set, polylines_text, topology_report, values_at_crossings
from .operators import (
    EdgeGraph,
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


_OPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt, "==": operator.eq}


def _number(x):
    return str(x) if isinstance(x, (int, np.integer)) else f"{x:.4g}"


class Check(NamedTuple):
    """One number of a verdict and the bound it must meet: value op bound.
    A nan value meets no bound."""

    label: str
    value: float
    op: str
    bound: float

    def holds(self) -> bool:
        return bool(_OPS[self.op](self.value, self.bound))

    def __str__(self):
        return f"{self.label} {_number(self.value)} ({self.op} {_number(self.bound)})"


@dataclass
class Verdict:
    """A claim and the checks that decide it: it passes when every check holds."""

    name: str
    claim: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.holds() for c in self.checks)

    @property
    def detail(self) -> str:
        return f"{self.claim}: " + ", ".join(map(str, self.checks))

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


# True in a worker that _fan_out forked
_in_worker = False


def _fan_out(job, items):
    """[job(x) for x in items], spread over one forked worker per usable CPU.

    Runs in-process when one CPU or one item is available, where fork is
    missing, and inside a worker.  The workers inherit the job and the
    items and take item indices from one shared pipe, so a worker that is
    ahead takes more items.  Each pickles its results into a pipe of its
    own once no index is left, so no worker waits on the reader while it
    computes.  Results come back in item order; the first item whose job
    raised, in item order, raises here, and a worker that dies raises
    BrokenProcessPool, once the others are stopped.
    """
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(items))
    if workers < 2 or _in_worker or not hasattr(os, "fork"):
        return [job(x) for x in items]
    # a worker's exit must not write what the parent has buffered again
    sys.stdout.flush()
    sys.stderr.flush()
    pids, pipes, outcomes, read_all = [], [], {}, False
    tasks, feed = (os.fdopen(fd, mode, buffering=0) for fd, mode in zip(os.pipe(), ("rb", "wb")))
    try:
        for _ in range(workers):
            fd, wfd = os.pipe()
            pipes.append(os.fdopen(fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    feed.close()  # else no worker would see the end of the indices
                    _work(job, items, tasks.fileno(), wfd)
                pids.append(pid)
            finally:
                os.close(wfd)
        tasks.close()
        # 4-byte indices in writes of at most PIPE_BUF bytes, each atomic, so
        # a worker's 4-byte read takes one whole index.  A write fails only
        # once every worker is gone, and reading their pipes reports that
        indices = struct.pack(f"<{len(items)}I", *range(len(items)))
        with contextlib.suppress(BrokenPipeError):
            for k in range(0, len(indices), select.PIPE_BUF):
                feed.write(indices[k : k + select.PIPE_BUF])
        feed.close()
        for pipe in pipes:
            try:
                # straight off the pipe: no bytes copy of the results beside them
                outcomes.update(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError) as exc:
                # imported here: only a dead worker needs the executor module
                from concurrent.futures.process import BrokenProcessPool

                raise BrokenProcessPool("a forked worker died before it sent its results") from exc
        read_all = True
    finally:
        for pipe in (tasks, feed, *pipes):
            pipe.close()
        for pid in pids:
            if not read_all:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for i in range(len(items)):
        ok, value = outcomes[i]
        if not ok:
            raise value
    return [outcomes[i][1] for i in range(len(items))]


def _work(job, items, tasks, fd):
    """The body of a forked worker: run job on items[i] for each index i
    read from tasks until none is left, pickle {i: (ok, result or
    exception)} into fd and exit, never returning to the caller."""
    global _in_worker
    _in_worker = True
    code = 1
    try:
        out = {}
        while index := os.read(tasks, 4):
            (i,) = struct.unpack("<I", index)
            try:
                out[i] = (True, job(items[i]))
            except Exception as exc:
                out[i] = (False, exc)
        with os.fdopen(fd, "wb") as f:
            pickle.dump(out, f, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    except Exception:
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


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
    ConfigError if the domain has no hole, which every claim on the grid
    is about, if the grid does not build or has no more vertices than
    [solver] count."""
    domain = cfg.domain if domain is None else domain
    if domain.k == 0:
        raise ConfigError("[domain] has no hole: every experiment but circle needs one")
    try:
        grid = build_grid(domain)
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

    The first flux whose solve raised NoConvergence raises it here, with a
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
            raise
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


def _off_integers(ts):
    """The fluxes of ts that are not integers."""
    return [t for t in ts if min(abs(t - round(t)), 1.0) > 1e-9]


def require_sweep_claims(cfg: ExperimentConfig):
    """Raise ConfigError unless cfg's sweep can decide the sweep's claims:
    it holds a flux off the integers, which the strict minimum at zero flux
    compares with flux 0, and on a one-hole domain it holds flux 1/2, where
    maximality wants the argmax."""
    ts = cfg.sweep_values()
    start, stop, step = cfg.sweep
    if not _off_integers(ts):
        raise ConfigError(f"[sweep] {start} to {stop} by {step} holds no flux off the integers")
    if cfg.domain.k == 1 and not any(abs(t - _PEAK[0]) < 1e-12 for t in ts):
        raise ConfigError(f"[sweep] {start} to {stop} by {step} misses flux 1/2, which a one-hole domain needs")


def run_flux_sweep(cfg: ExperimentConfig, lattice: Lattice, out_dir=None):
    """Sweep the flux and check periodicity, flip symmetry, the strict
    zero-flux minimum and (one hole) maximality at half flux.

    The rows, the margins and the argmax read each flux's class; the
    periodicity and half-flux-symmetry verdicts, the claims that make the
    classes hold, compare two solves of their own.  A sweep that cannot
    decide them raises ConfigError (require_sweep_claims).
    """
    require_sweep_claims(cfg)
    grid = lattice.grid
    s = cfg.solver
    ts = cfg.sweep_values()
    spectra = _sweep_spectra(cfg, lattice, _sweep_fluxes(ts, grid.k))

    def spectrum(t):
        return spectra[round(float(t), 12)]

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

    deviation = "max relative deviation"
    verdicts = [
        Verdict("periodicity", "lambda1(flux) = lambda1(flux+1)",
                (Check(deviation, max_deviation(_SHIFT_PAIRS), "<=", 1e-10),)),
        Verdict("half-flux-symmetry", "lambda1(1/2+t) = lambda1(1/2-t)",
                (Check(deviation, max_deviation(_FLIP_PAIRS), "<=", 1e-10),)),
    ]
    lam0 = lam1(0.0)
    margins = {t: lam1(_flux_class(t)) - lam0 for t in _off_integers(ts)}
    # the margin at flux 0.25 is checked where the sweep holds that flux
    quarter = [Check("margin at flux 0.25", margins[0.25], ">=", 1e-6)] if 0.25 in margins else []
    verdicts.append(Verdict("strict-minimum-at-zero-flux", "lambda1(flux) > lambda1(0) off integers",
                            (Check("min margin", min(margins.values()), ">", 0.0), *quarter)))
    if grid.k == 1:
        lam_by_t = {t: lam1(_flux_class(t)) for t in ts}
        t_max = max(lam_by_t, key=lam_by_t.get)
        verdicts.append(Verdict("maximality-at-half-flux", "lambda1 over the sweep peaks at flux 1/2", (
            Check("|argmax flux - 1/2|", abs(t_max - _PEAK[0]), "<", 1e-12),
            Check(f"lambda1({_PEAK[0]}) - lambda1({_PEAK[1]})", lam1(_PEAK[0]) - lam1(_PEAK[1]), ">", 0.0),
        )))

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
    wrong_flags = 0
    for alpha in cfg.circle.alphas:
        H = assemble_circle(n, alpha)
        r = lowest_eigenpairs(H, 3, tol=s.tol, seed=s.seed)
        lam = r.eigenvalues
        exact = circle_exact(alpha)
        rel = abs(lam[0] - exact) / max(abs(exact), 1e-6)
        mult = multiplicity_estimate(lam, 1e-6)
        is_half = abs(alpha - np.floor(alpha) - 0.5) < 1e-12
        wrong_flags += (mult == 2) != is_half
        if rel > worst_rel:
            worst_rel, worst_alpha = rel, alpha
        rows.append((alpha, float(lam[0]), float(lam[1]), float(lam[2]), exact, float(rel), mult))
    claim = (f"lambda1 matches min over integers of (m-alpha)^2, worst at alpha={worst_alpha}, "
             f"fitted error constant C = {worst_rel / h**2:.3f} per h^2")
    verdicts.append(Verdict("circle-exact-spectrum", claim, (Check("worst relative error", worst_rel, "<=", 5e-4),)))
    verdicts.append(Verdict("circle-degeneracy-at-half-flux",
                            "ground multiplicity 2 exactly at half-integer alpha, 1 elsewhere",
                            (Check("alphas flagged wrongly", wrong_flags, "==", 0),)))

    eps = cfg.circle.epsilon
    phi = np.arange(n) * h
    Hp = assemble_circle(n, 0.5, V=eps * np.cos(phi))
    rp = lowest_eigenpairs(Hp, 3, tol=s.tol, seed=s.seed)
    split = float(rp.eigenvalues[1] - rp.eigenvalues[0])
    verdicts.append(Verdict("circle-degeneracy-splitting", f"perturbation eps*cos(phi), eps={eps}, splits the pair",
                            (Check("gap lambda2-lambda1", split, ">=", 1e-4),)))
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
    lam_min = float(np.array([r[2] for r in rows]).min())
    gap = lam_min - lam_mag
    verdicts = [
        Verdict("slit-lower-bound", "every slit-pinned lambda1 >= half-flux lambda1, less a relative slack",
                (Check("min slit-pinned lambda1", lam_min, ">=", lam_mag * (1.0 - 2e-2)),)),
        Verdict("slit-infimum-tightness",
                f"min over {len(rows)} slits = {lam_min!r} meets half-flux lambda1 = {lam_mag!r}",
                (Check("relative gap", abs(gap) / lam_mag, "<=", 2e-2),)),
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
        if abs(gap2) <= floor:
            check = Check("|gap at h/2| against the solver noise floor", abs(gap2), "<=", floor)
        else:
            # a coarse gap of exactly 0 cannot shrink: the ratio is inf
            ratio = abs(gap2) / abs(gap) if gap else math.inf
            check = Check("gap at h/2 over gap at h", ratio, "<=", 0.5)
        claim = f"the slit gap shrinks with h, from {gap:.3e} at h to {gap2:.3e} at h/2"
        verdicts.append(Verdict("slit-gap-refinement", claim, (check,)))
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


def _reflection(B, lattice: Lattice):
    """(p, d) for the first lattice involution p that keeps V and lifts to
    the half-flux block B as the signed permutation S = D P, (S u)_v =
    d_v u_p(v), with S B S^T = B bit for bit and S^2 = I; None if none does.

    B[p][:, p] has B's entries up to the signs that the cut edges put on
    its hops, and d_v is the parity of those sign flips along the path
    from 0 to v in a BFS spanning tree of B's pattern: tree_potential sums
    them as 0/1 phases.  A lift, where one exists, is that d, so the bit
    for bit check decides.  p is a copy, not a row of the symmetry group.
    """
    from scipy.sparse.csgraph import breadth_first_order  # see geometry.link_components

    n = B.shape[0]
    ident = np.arange(n)
    order, parent = breadth_first_order(B, 0, return_predecessors=True)
    child = order[1:]
    up = parent[child]
    # the tree as a phased graph: edge j joins child[j] to its parent
    tree_edge = np.empty(n, dtype=np.int64)
    tree_edge[child] = np.arange(n - 1)
    tree = (order, parent, tree_edge, np.ones(n, dtype=np.int8), None)
    edges = np.column_stack([up, child])
    signs = np.signbit(np.asarray(B[up, child]).ravel())
    for p in _symmetries(lattice):
        if np.array_equal(p, ident) or not np.array_equal(p[p], ident):
            continue
        # in B's index type, so the lookups convert no index copies
        q = p.astype(B.indices.dtype, copy=False)
        flip = np.signbit(np.asarray(B[q[up], q[child]]).ravel()) != signs
        parity = tree_potential(EdgeGraph(n, edges, flip.astype(float), lattice.grid.spacing), tree) % 2
        d = 1.0 - 2.0 * parity
        if np.all(d * d[p] == 1.0) and _keeps_block(B, q, d):
            return p.copy(), d
    return None


# rows of B per slice of the S B S^T = B check: its temporaries stay a few
# thousand entries long, not B's nonzero count
_CHECK_ROWS = 2048


def _keeps_block(B, q, d):
    """Whether d_v d_w B[q(v), q(w)] equals B[v, w] bit for bit on every
    stored entry (v, w) of B, read off B's CSR arrays a slice of rows at a time."""
    indptr = B.indptr
    for lo in range(0, B.shape[0], _CHECK_ROWS):
        hi = min(lo + _CHECK_ROWS, B.shape[0])
        a, b = indptr[lo], indptr[hi]
        r = np.repeat(np.arange(lo, hi, dtype=indptr.dtype), np.diff(indptr[lo : hi + 1]))
        c = B.indices[a:b]
        if not np.array_equal(d[r] * d[c] * np.asarray(B[q[r], q[c]]).ravel(), B.data[a:b]):
            return False
    return True


def _sector_bases(p, d):
    """Orthonormal sparse bases of the +1 and -1 eigenspaces of S = D P.

    A vertex that p fixes gives e_v to the sector of sign d_v, and a pair
    v < p(v) gives (e_v + sign * d_v e_p(v)) / sqrt(2) to each; columns
    follow their least vertex.
    """
    n = p.size
    v = np.arange(n)
    bases = []
    for sign in (1.0, -1.0):
        lead = np.flatnonzero((v < p) | ((v == p) & (d == sign)))
        pair = p[lead] != lead
        col = np.arange(lead.size)
        w = np.where(pair, np.sqrt(0.5), 1.0)
        vals = np.concatenate([w, sign * d[lead[pair]] * w[pair]])
        rows = np.concatenate([lead, p[lead[pair]]])
        bases.append(sparse.csr_matrix((vals, (rows, np.concatenate([col, col[pair]]))), shape=(n, lead.size)))
    return bases


def _half_flux_ground(cfg: ExperimentConfig, lattice: Lattice, cover):
    """Lowest half-flux eigenpairs, solved as the cover's real antisymmetric
    block B, and their multiplicity.

    The block's spectrum is the magnetic one.  Its eigenvectors u are real,
    and concat(u, -u) is the antisymmetric cover function of each, so the
    nodal sets need no cover phase and no conjugation.  With k holes, at least
    k + 2 pairs are solved, so a multiplicity above the k + 1 bound can show.

    When a lattice reflection lifts to B (_reflection), B splits into its
    two sectors Q^T B Q, each with more than m unknowns, solved as one
    _fan_out batch; else the one sector is B.  Each sector shifts from B's
    Gershgorin bounds: they enclose its spectrum, where its own lower bound
    sinks far lower at the couplings of the mirror.  The lowest m of the
    union, embedded, are checked against B itself.  Each eigenvector
    comes with its largest |u| entry positive.
    """
    s = cfg.solver
    m = max(s.count, 4, lattice.grid.k + 2)
    B = antisymmetric_block(cover, V=lattice.V).matrix
    bounds = gershgorin_bounds(B)
    reflection = _reflection(B, lattice)
    bases = [] if reflection is None else _sector_bases(*reflection)
    del reflection
    if not bases or min(Q.shape[1] for Q in bases) <= m:
        bases = [None]

    def solve(Q):
        try:
            return lowest_eigenpairs(B if Q is None else Q.T @ B @ Q, m, tol=s.tol, seed=s.seed, bounds=bounds)
        except NoConvergence as exc:
            best = exc.best_result
            if Q is not None:
                exc.best_result = EigenResult(best.eigenvalues, Q @ best.eigenvectors, best.residuals)
            raise

    # each sector's vectors come back in its own coordinates, half of B's
    sectors = _fan_out(solve, bases)
    lam = np.concatenate([r.eigenvalues for r in sectors])
    keep = np.argsort(lam, kind="stable")[:m]
    lam = lam[keep]
    # the kept columns, embedded straight into U; the sectors go before the
    # residuals take their temporaries
    columns = [(Q, r.eigenvectors[:, j]) for Q, r in zip(bases, sectors) for j in range(r.eigenvalues.size)]
    U = np.empty((B.shape[0], m), order="F")
    for i, col in enumerate(keep):
        Q, v = columns[col]
        U[:, i] = v if Q is None else Q @ v
    del bases, sectors, columns
    residuals = np.empty(m)
    for i, u in enumerate(U.T):
        # the solver fixes each vector only up to sign: make its largest |u|
        # entry (the first of equal ones) positive, so no output depends on it
        u *= np.sign(u[np.argmax(np.abs(u))])
        residuals[i] = np.linalg.norm(B @ u - lam[i] * u)
    r = EigenResult(lam, U, residuals)
    norm = max(abs(bounds[0]), abs(bounds[1]))
    if np.any(r.residuals > s.tol * norm):
        raise NoConvergence(f"half-flux residuals {r.residuals} exceed {s.tol} * {norm:.3e}", best_result=r)
    return r, multiplicity_estimate(lam, s.cluster_tol)


def run_multiplicity_experiment(cfg: ExperimentConfig, lattice: Lattice, out_dir=None):
    """Ground multiplicity at half flux: two when a lattice symmetry that
    keeps V is the point reflection and one otherwise, and one once a
    potential bump breaks the symmetry."""
    require_one_hole(cfg, "multiplicity")
    grid, V = lattice
    s = cfg.solver
    verdicts = []

    cover = _half_flux_cover(grid)
    r, mult = _half_flux_ground(cfg, lattice, cover)
    width = s.cluster_tol * (1.0 + abs(r.eigenvalues[0]))
    gap_above = float(r.eigenvalues[mult] - r.eigenvalues[mult - 1]) if mult < len(r.eigenvalues) else np.nan
    symmetric = _centrally_symmetric(lattice)
    claim = (f"the half-flux ground state is a pair iff the lattice symmetries that keep V include the point "
             f"reflection (they {'do' if symmetric else 'do not'}), with a wide gap above it")
    verdicts.append(Verdict("half-flux-ground-multiplicity", claim, (
        Check("multiplicity", mult, "==", 2 if symmetric else 1),
        Check("next gap", gap_above, ">=", 10 * width),
    )))

    mu = cfg.multiplicity
    bump_center = (mu.bump_radius * np.cos(mu.bump_angle), mu.bump_radius * np.sin(mu.bump_angle))
    Vb = (V if V is not None else 0.0) + gaussian_bump(grid.xy, bump_center, mu.bump_sigma, mu.bump_amplitude)
    rb, multb = _half_flux_ground(cfg, Lattice(grid, Vb), cover)
    nod = extract_nodal_set(rb.eigenvectors[:, 0], cover, grid)
    report = topology_report(nod, grid)
    verdicts.append(Verdict("asymmetric-simple-ground-state",
                            "with a symmetry-breaking bump the ground state is simple and its nodal set still slits",
                            (Check("multiplicity", multb, "==", 1),
                             Check("nodal sets that do not slit", int(not report.passes_slitting), "==", 0))))
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
    verdicts.append(Verdict("antisymmetric-spectrum-equality",
                            "lowest 3 antisymmetric cover eigenvalues match the magnetic ones",
                            (Check("max relative deviation", max(dev_circle, dev_dom), "<=", 1e-8),)))

    H0 = assemble_magnetic(grid, zero_field(grid), V=V)
    # the symmetric sector of the lifted operator, 1/2 P^T Hl P with P = [I; I],
    # is the zero-flux operator entry for entry, so the two share a spectrum
    Hl = assemble_lifted(cov, V=V)
    P = sparse.vstack([sparse.identity(grid.n_vertices, format="csr")] * 2)
    defect = float(abs(0.5 * (P.T @ Hl.matrix @ P) - H0.matrix).max())
    verdicts.append(Verdict("symmetric-spectrum-equality",
                            "the symmetric cover sector equals the zero-flux operator entry for entry, "
                            "so their spectra match", (Check("max entry difference", defect, "==", 0.0),)))

    theta = build_theta(cov)
    worst = 0.0
    for j in range(3):
        lu = lift_to_cover(r.eigenvectors[:, j], theta)
        worst = max(worst, float(np.linalg.norm(Hl.matrix @ lu - r.eigenvalues[j] * lu)))
    budget = 10 * s.tol * max(map(abs, gershgorin_bounds(Hl.matrix)))
    verdicts.append(Verdict("lift-intertwines-eigenpairs",
                            "the lifts of the lowest 3 magnetic eigenpairs are eigenpairs of the lifted operator "
                            "within the solver's residual budget",
                            (Check("max lifted eigen-residual", worst, "<=", budget),)))

    K = ConjugationOperator(cov)
    norm = max(map(abs, gershgorin_bounds(H.matrix)))
    rng = np.random.default_rng(s.seed)
    worst_sq = worst_comm = 0.0
    for _ in range(20):
        u = rng.standard_normal(grid.n_vertices) + 1j * rng.standard_normal(grid.n_vertices)
        u /= np.linalg.norm(u)
        worst_sq = max(worst_sq, float(np.linalg.norm(K(K(u)) - u)))
        worst_comm = max(worst_comm, float(np.linalg.norm(H.matrix @ K(u) - K(H.matrix @ u)) / norm))
    verdicts.append(Verdict("conjugation-algebra", "K^2 = 1 and [K, H] = 0 on 20 random unit vectors", (
        Check("max ||K^2 u - u||", worst_sq, "<=", 1e-12),
        Check("max ||[K, H] u|| / norm", worst_comm, "<=", 1e-10),
    )))

    # integer flux: the cover is two disconnected copies of the base, and the
    # lifted operator is the zero-flux one on each sheet entry for entry
    field0 = aharonov_bohm_potential(grid, [0.0] * grid.k)
    cov0 = build_cover(as_edge_graph(grid, field0))
    Hl0 = assemble_lifted(cov0, V=V).matrix
    defect0 = float(abs(Hl0 - sparse.block_diag([H0.matrix] * 2, format="csr")).max())
    verdicts.append(Verdict("trivial-cover-doubling",
                            "integer flux gives a disconnected cover whose lifted operator is two copies "
                            "of the zero-flux operator, so its spectrum doubles the base", (
                                Check("cut edges", int(cov0.cuts.sum()), "==", 0),
                                Check("max entry difference", defect0, "==", 0.0),
                            )))
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
    grid = lattice.grid
    cov = _half_flux_cover(grid)
    r, mult = _half_flux_ground(cfg, lattice, cov)

    ground = r.eigenvectors[:, :mult].T
    nodal_sets = [extract_nodal_set(u, cov, grid) for u in ground]
    reports = [topology_report(nod, grid) for nod in nodal_sets]
    failing = sum(not (rep.passes_slitting and rep.bounds_ok and rep.cover_domain_count == 2) for rep in reports)
    differing = sum(rep.passes_slitting != (rep.cover_domain_count == 2) for rep in reports)
    verdicts = [
        Verdict("nodal-slitting",
                f"{mult} ground representative(s): every nodal set has connected complement, odd parity at "
                f"interior components, k/2 <= n <= k lines, and splits the cover into two domains",
                (Check("failing representatives", failing, "==", 0),)),
        Verdict("cover-two-domain-equivalence",
                "slitting report passes iff the lifted complement has exactly two components",
                (Check("representatives where they differ", differing, "==", 0),)),
        Verdict("ground-multiplicity-bound", "the half-flux ground multiplicity is at most k + 1",
                (Check("multiplicity", mult, "<=", grid.k + 1),)),
    ]
    if mult == 2:
        # a degenerate pair: disjoint nodal sets, and u2 vanishes nowhere
        # on the nodal set of u1
        shared = len(nodal_sets[0].crossed_cells & nodal_sets[1].crossed_cells)
        at = values_at_crossings(ground[1], nodal_sets[0])
        floor = float(np.min(np.abs(at)) / np.max(np.abs(ground[1])))
        verdicts.append(Verdict("degenerate-pair-disjoint", "the two ground representatives have disjoint nodal sets", (
            Check("shared crossed cells", shared, "==", 0),
            Check("min |u2| on the crossings of u1 over its max", floor, ">", 1e-6),
        )))
    if out_dir:
        nodal_svg(cfg.domain, nodal_sets, os.path.join(out_dir, "nodal.svg"))
        for j, nod in enumerate(nodal_sets):
            polylines_text(nod, os.path.join(out_dir, f"nodal_{j}.txt"))
        with open(os.path.join(out_dir, "nodal_reports.jsonl"), "w") as f:
            for rep in reports:
                f.write(rep.to_json_line() + "\n")
    return reports, verdicts
