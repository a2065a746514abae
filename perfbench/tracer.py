"""Spans and counters for the traced benchmark run.

The hooks live here, in the benchmark, not in fluxlab: `install` wraps every
public function of each fluxlab module, `EdgeGraph.adjacency`, the `splu`
name that `fluxlab.eigensolver` imports and the `open` that fluxlab modules
use to write their outputs.  Each wrapper records a span (name, layer,
parent, start, end) in memory and returns exactly what the wrapped call
returned.  `layer_metrics` turns the spans and counters of one pass into the
per-layer metrics of `PER_LAYER`.

A metric whose hook target no longer exists, or whose counter can no longer
be read off a result, is left out of the output rather than reported as 0.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import inspect
import statistics
import sys
import time

import numpy as np

from workloads import gershgorin_norm

# fluxlab modules whose public functions are wrapped; the module name is the layer
MODULES = (
    "config",
    "geometry",
    "gauge",
    "operators",
    "eigensolver",
    "cover",
    "nodal",
    "experiments",
    "cli",
    "svgout",
)

# output writers are reported as the io layer, not as the module that holds them
IO_FUNCTIONS = frozenset(
    {
        "experiments.write_csv",
        "experiments.write_verdicts",
        "nodal.polylines_text",
        "svgout.nodal_svg",
    }
)

ADJACENCY = "operators.EdgeGraph.adjacency"
SPLU = "eigensolver.splu"
OPEN = "io.open"
SOLVE = "eigensolver.lowest_eigenpairs"
SLIT_PATHS = ("operators.radial_slit", "operators.shortest_slit", "operators.make_slit")

SELF_TIME_LAYERS = (
    "config",
    "geometry",
    "gauge",
    "operators",
    "eigensolver",
    "cover",
    "nodal",
    "experiments",
    "cli",
)

# (name, unit, better, the end-to-end metric and workloads it should move)
PER_LAYER = (
    ("config.self_s", "s", "lower", "setup_s on all workloads"),
    ("geometry.self_s", "s", "lower", "run_s on halfflux-nodal"),
    ("geometry.vertices", "count", "lower", "run_s on halfflux-nodal"),
    ("gauge.self_s", "s", "lower", "run_s on flux-sweep"),
    ("operators.calls", "count", "lower", "run_s on flux-sweep and slit-family"),
    ("operators.self_s", "s", "lower", "run_s on flux-sweep and slit-family"),
    ("operators.nnz", "count", "lower", "run_s on flux-sweep and slit-family"),
    ("operators.adjacency_calls", "count", "lower", "run_s and peak_rss_mb on halfflux-nodal"),
    ("operators.adjacency_s", "s", "lower", "run_s and peak_rss_mb on halfflux-nodal"),
    ("operators.slit_path_s", "s", "lower", "run_s on slit-family"),
    ("eigensolver.calls", "count", "lower", "run_s on flux-sweep and slit-family"),
    ("eigensolver.self_s", "s", "lower", "run_s on flux-sweep and slit-family"),
    ("eigensolver.call_s_p50", "s", "lower", "run_s on flux-sweep and slit-family"),
    ("eigensolver.call_s_p90", "s", "lower", "run_s on flux-sweep and slit-family"),
    ("eigensolver.factorizations", "count", "lower", "run_s on flux-sweep and slit-family"),
    ("eigensolver.factor_s", "s", "lower", "run_s on flux-sweep and slit-family"),
    ("eigensolver.lu_nnz", "count", "lower", "run_s on flux-sweep and slit-family"),
    ("eigensolver.lu_solves", "count", "lower", "run_s on flux-sweep and slit-family"),
    ("eigensolver.rhs_columns", "count", "lower", "run_s on flux-sweep and slit-family"),
    ("eigensolver.unconverged", "count", "lower", "run_s on flux-sweep and slit-family"),
    ("eigensolver.max_rel_residual", "ratio", "lower", "run_s on flux-sweep and slit-family"),
    ("cover.self_s", "s", "lower", "run_s and peak_rss_mb on halfflux-nodal"),
    ("cover.spanning_tree_calls", "count", "lower", "run_s and peak_rss_mb on halfflux-nodal"),
    ("cover.spanning_tree_s", "s", "lower", "run_s and peak_rss_mb on halfflux-nodal"),
    ("cover.theta_s", "s", "lower", "run_s and peak_rss_mb on halfflux-nodal"),
    ("cover.cut_edges", "count", "lower", "run_s and peak_rss_mb on halfflux-nodal"),
    ("nodal.self_s", "s", "lower", "run_s on halfflux-nodal"),
    ("nodal.extract_s", "s", "lower", "run_s on halfflux-nodal"),
    ("nodal.topology_s", "s", "lower", "run_s on halfflux-nodal"),
    ("nodal.crossed_cells", "count", "lower", "run_s on halfflux-nodal"),
    ("nodal.polylines", "count", "lower", "run_s on halfflux-nodal"),
    ("io.s", "s", "lower", "run_s on all workloads"),
    ("io.bytes", "bytes", "lower", "run_s on all workloads"),
    ("io.files", "count", "lower", "run_s on all workloads"),
    ("experiments.self_s", "s", "lower", "run_s on all workloads"),
    ("cli.self_s", "s", "lower", "run_s on all workloads"),
    ("trace.overhead_s", "s", "lower", "none: traced run_s minus untraced run_s"),
)


class Recorder:
    """In-memory spans and counters of one process; written out once at the end."""

    def __init__(self):
        self.spans = []  # [name, layer, parent index or -1, start, end]
        self.stack = []
        self.counters = {}
        self.hooked = set()  # span names whose hook target was found
        self.unreadable = set()  # counters a result no longer exposes

    def begin(self, name, layer):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, parent, time.perf_counter(), None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, idx):
        self.spans[idx][4] = time.perf_counter()
        self.stack.pop()

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def maximum(self, counter, value):
        self.counters[counter] = max(self.counters.get(counter, value), value)

    def read(self, counter, fn):
        """Add fn() to a counter; mark it unreadable if the result lacks the field."""
        try:
            self.add(counter, fn())
        except (AttributeError, TypeError):
            self.unreadable.add(counter)

    def dump(self):
        return {
            "spans": self.spans,
            "counters": self.counters,
            "hooked": sorted(self.hooked),
            "unreadable": sorted(self.unreadable),
        }


def _observe_solve(rec, signature, args, kwargs, result, raised=False):
    """Record a solve's largest residual relative to the Gershgorin norm.

    `result` is the returned EigenResult, or the best one NoConvergence carries
    when `raised`; a raised solve always counts as unconverged.
    """
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    tol = bound.arguments.get("tol")
    H = bound.arguments.get(next(iter(signature.parameters)))
    try:
        rel = float(np.max(result.residuals)) / gershgorin_norm(getattr(H, "matrix", H))
    except (AttributeError, TypeError, ValueError):
        rec.unreadable.add("eigensolver.max_rel_residual")
        rel = None
    else:
        rec.maximum("eigensolver.max_rel_residual", rel)
    if raised:
        rec.add("eigensolver.unconverged", 1)
    elif rel is None or tol is None:
        rec.unreadable.add("eigensolver.unconverged")
    else:
        rec.add("eigensolver.unconverged", int(rel > tol))


# counters read off the result of a wrapped call
_OBSERVERS = {
    "geometry.build_grid": lambda rec, r: rec.read("geometry.vertices", lambda: int(r.n_vertices)),
    "operators.assemble": lambda rec, r: rec.read("operators.nnz", lambda: int(r.matrix.nnz)),
    "cover.build_cover": lambda rec, r: rec.read("cover.cut_edges", lambda: int(np.count_nonzero(r.cuts))),
    "nodal.extract_nodal_set": lambda rec, r: (
        rec.read("nodal.crossed_cells", lambda: len(r.crossed_cells)),
        rec.read("nodal.polylines", lambda: len(r.polylines)),
    ),
}


def _wrap(rec, fn, name, layer):
    observe = _OBSERVERS.get(name)
    solve_sig = inspect.signature(fn) if name == SOLVE else None
    no_convergence = _no_convergence_type() if name == SOLVE else ()

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(rec, result)
            if solve_sig is not None:
                _observe_solve(rec, solve_sig, args, kwargs, result)
            return result
        except no_convergence as exc:
            _observe_solve(rec, solve_sig, args, kwargs, exc.best_result, raised=True)
            raise
        finally:
            rec.end(idx)

    return traced


def _no_convergence_type():
    try:
        return (importlib.import_module("fluxlab.errors").NoConvergence,)
    except (ImportError, AttributeError):
        return ()


class _LUProxy:
    """Delegates to a SuperLU object, counting solves and right-hand sides."""

    def __init__(self, lu, rec):
        self._lu = lu
        self._rec = rec

    def solve(self, rhs, *args, **kwargs):
        self._rec.add("eigensolver.lu_solves", 1)
        shape = np.shape(rhs)
        self._rec.add("eigensolver.rhs_columns", shape[1] if len(shape) > 1 else 1)
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _wrap_splu(rec, splu):
    @functools.wraps(splu)
    def traced_splu(*args, **kwargs):
        idx = rec.begin(SPLU, "eigensolver")
        try:
            lu = splu(*args, **kwargs)
            rec.read("eigensolver.lu_nnz", lambda: int(lu.nnz))
        finally:
            rec.end(idx)
        return _LUProxy(lu, rec)

    return traced_splu


class _WriteFile:
    """File opened for writing: counts bytes and records an io span at close."""

    def __init__(self, f, rec):
        self._f = f
        self._rec = rec
        self._parent = rec.stack[-1] if rec.stack else -1
        self._start = time.perf_counter()
        self._closed = False
        rec.add("io.files", 1)

    def write(self, data):
        self._rec.add("io.bytes", len(data.encode("utf-8")) if isinstance(data, str) else len(data))
        return self._f.write(data)

    def close(self):
        self._f.close()
        if not self._closed:
            self._closed = True
            self._rec.spans.append([OPEN, "io", self._parent, self._start, time.perf_counter()])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __getattr__(self, attr):
        return getattr(self._f, attr)


def _wrap_open(rec):
    real_open = builtins.open

    def traced_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        if any(c in mode for c in "wax+"):
            return _WriteFile(f, rec)
        return f

    return traced_open


def _rebind(old, new):
    """Point every fluxlab module-level name bound to `old` at `new`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "fluxlab" or modname.startswith("fluxlab.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def install(rec):
    """Wrap the fluxlab hook targets that exist; record which were found."""
    for short in MODULES:
        try:
            mod = importlib.import_module(f"fluxlab.{short}")
        except ImportError:
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            layer = "io" if name in IO_FUNCTIONS else short
            _rebind(obj, _wrap(rec, obj, name, layer))
            rec.hooked.add(name)
        setattr(mod, "open", _wrap_open(rec))

    operators = sys.modules.get("fluxlab.operators")
    graph = getattr(operators, "EdgeGraph", None)
    if graph is not None and inspect.isfunction(getattr(graph, "adjacency", None)):
        graph.adjacency = _wrap(rec, graph.adjacency, ADJACENCY, "operators")
        rec.hooked.add(ADJACENCY)

    eigensolver = sys.modules.get("fluxlab.eigensolver")
    if eigensolver is not None and callable(getattr(eigensolver, "splu", None)):
        eigensolver.splu = _wrap_splu(rec, eigensolver.splu)
        rec.hooked.add(SPLU)


# ---------------------------------------------------------------- analysis


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per-span duration minus the part of it that child spans cover."""
    children = [[] for _ in spans]
    for i, (_, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, _, _, start, end) in enumerate(spans):
        kids = [(max(spans[c][3], start), min(spans[c][4], end)) for c in children[i]]
        out.append(end - start - _union_length([k for k in kids if k[1] > k[0]]))
    return out


def _outermost(spans, names):
    """Spans named in `names` that are not nested in another such span."""
    picked = []
    for name, _, parent, start, end in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][2]
        if p < 0:
            picked.append(end - start)
    return picked


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(dumps):
    """Per-layer metrics of one pass: the sum over its processes' dumps.

    A metric is absent when a hook it needs was not found in any process,
    or when a counter could not be read off a result.
    """
    hooked = set().union(*(set(d["hooked"]) for d in dumps))
    unreadable = set().union(*(set(d["unreadable"]) for d in dumps))
    counters = {}
    rel_residual = None
    self_s = {layer: 0.0 for layer in SELF_TIME_LAYERS}
    durations = {}
    io_s = 0.0
    operator_entries = 0
    for d in dumps:
        spans = d["spans"]
        for key, value in d["counters"].items():
            if key == "eigensolver.max_rel_residual":
                rel_residual = value if rel_residual is None else max(rel_residual, value)
            else:
                counters[key] = counters.get(key, 0) + value
        for (name, layer, parent, start, end), own in zip(spans, self_times(spans)):
            if layer in self_s:
                self_s[layer] += own
            durations.setdefault(name, []).append(end - start)
            if layer == "operators" and name != ADJACENCY and (parent < 0 or spans[parent][1] != "operators"):
                operator_entries += 1
        io_s += sum(_outermost(spans, {n for n, lay, *_ in spans if lay == "io"}))

    def spent(name):
        return sum(durations.get(name, ()))

    def calls(name):
        return len(durations.get(name, ()))

    solves = durations.get(SOLVE, [])
    slit_s = 0.0
    for d in dumps:
        slit_s += sum(_outermost(d["spans"], set(SLIT_PATHS)))

    values = {f"{layer}.self_s": self_s[layer] for layer in SELF_TIME_LAYERS}
    values.update(
        {
            "geometry.vertices": counters.get("geometry.vertices", 0),
            "operators.calls": operator_entries,
            "operators.nnz": counters.get("operators.nnz", 0),
            "operators.adjacency_calls": calls(ADJACENCY),
            "operators.adjacency_s": spent(ADJACENCY),
            "operators.slit_path_s": slit_s,
            "eigensolver.calls": len(solves),
            "eigensolver.call_s_p50": _percentile(solves, 50),
            "eigensolver.call_s_p90": _percentile(solves, 90),
            "eigensolver.factorizations": calls(SPLU),
            "eigensolver.factor_s": spent(SPLU),
            "eigensolver.lu_nnz": counters.get("eigensolver.lu_nnz", 0),
            "eigensolver.lu_solves": counters.get("eigensolver.lu_solves", 0),
            "eigensolver.rhs_columns": counters.get("eigensolver.rhs_columns", 0),
            "eigensolver.unconverged": counters.get("eigensolver.unconverged", 0),
            "eigensolver.max_rel_residual": rel_residual if rel_residual is not None else 0.0,
            "cover.spanning_tree_calls": calls("cover.spanning_tree"),
            "cover.spanning_tree_s": spent("cover.spanning_tree"),
            "cover.theta_s": spent("cover.build_theta"),
            "cover.cut_edges": counters.get("cover.cut_edges", 0),
            "nodal.extract_s": spent("nodal.extract_nodal_set"),
            "nodal.topology_s": spent("nodal.topology_report"),
            "nodal.crossed_cells": counters.get("nodal.crossed_cells", 0),
            "nodal.polylines": counters.get("nodal.polylines", 0),
            "io.s": io_s,
            "io.bytes": counters.get("io.bytes", 0),
            "io.files": counters.get("io.files", 0),
        }
    )

    needs = {
        "geometry.vertices": ("geometry.build_grid",),
        "operators.nnz": ("operators.assemble",),
        "operators.adjacency_calls": (ADJACENCY,),
        "operators.adjacency_s": (ADJACENCY,),
        "eigensolver.calls": (SOLVE,),
        "eigensolver.call_s_p50": (SOLVE,),
        "eigensolver.call_s_p90": (SOLVE,),
        "eigensolver.unconverged": (SOLVE,),
        "eigensolver.max_rel_residual": (SOLVE,),
        "eigensolver.factorizations": (SPLU,),
        "eigensolver.factor_s": (SPLU,),
        "eigensolver.lu_nnz": (SPLU,),
        "eigensolver.lu_solves": (SPLU,),
        "eigensolver.rhs_columns": (SPLU,),
        "cover.spanning_tree_calls": ("cover.spanning_tree",),
        "cover.spanning_tree_s": ("cover.spanning_tree",),
        "cover.theta_s": ("cover.build_theta",),
        "cover.cut_edges": ("cover.build_cover",),
        "nodal.extract_s": ("nodal.extract_nodal_set",),
        "nodal.topology_s": ("nodal.topology_report",),
        "nodal.crossed_cells": ("nodal.extract_nodal_set",),
        "nodal.polylines": ("nodal.extract_nodal_set",),
        "operators.slit_path_s": ("operators.radial_slit",),
    }
    for layer in SELF_TIME_LAYERS:
        if not any(h.startswith(layer + ".") for h in hooked):
            values.pop(f"{layer}.self_s")
    for metric, required in needs.items():
        if not all(r in hooked for r in required) or metric in unreadable:
            values.pop(metric, None)
    return values
