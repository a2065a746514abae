"""Benchmark of the fluxlab command line, run from the root of a checkout.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each iteration ("pass") runs every CLI invocation of the workload in a fresh
single-threaded Python process (perfbench/child.py) that imports fluxlab
from the checkout's `src/` and calls `fluxlab.cli.cli_main`; this is a
closed loop with one caller, so no cache survives from one pass to the next.
BLAS and OpenMP are pinned to one thread, and the children run with address
space randomization off, which otherwise moves peak memory by up to 15%
between identical runs.  Passes repeat until the next one would end after
`--seconds`.  The seed goes into `[solver] seed` of the generated configs
and nowhere else.

With `--trace 0` a run reports the end-to-end metrics (medians over passes):
run_s, the wall time of the cli_main calls of a pass; setup_s, the cold
import of fluxlab, numpy and scipy plus one config load, per process,
including SETUP_PROBES processes that only set up; peak_rss_mb, the largest
peak resident memory among a pass's processes.
With `--trace 1` passes alternate traced and untraced, and the run reports
the per-layer metrics of `tracer.PER_LAYER` from the traced passes.  Without
`--trace` both are measured.  Every invocation's outputs are checked
(checks.py); the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from checks import Tally, check_invocation, load_reference
from tracer import PER_LAYER, layer_metrics
from workloads import WORKLOADS, write_config

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SRC = "src"
CONFIGS = "configs"
WORK_ROOT = ".perfbench_work"
DEFAULT_SEED = 24301  # the seed the shipped configs carry
BLAS_THREADS = "1"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# a measurement stops starting passes, and kills a stuck child, this long
# after it began, so that one run ends within 180 s
MEASURE_BUDGET_S = 165.0
# extra set-up-only processes per untraced measurement, for a steadier setup_s
SETUP_PROBES = 2
ADDR_NO_RANDOMIZE = 0x0040000

META = ("python", "numpy", "scipy", "blas", "personality")
END_TO_END = (
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def child_env():
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.abspath(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _fixed_address_layout():
    """personality(2) in the forked child, before exec: no address randomization."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def run_child(args, env, log_path, timeout):
    """Run one child process to completion; return its exit code or None on timeout."""
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, *args],
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
            preexec_fn=_fixed_address_layout,
        )
        try:
            return proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _tail(path, lines=5):
    try:
        with open(path) as f:
            return " | ".join(f.read().strip().splitlines()[-lines:])
    except OSError:
        return ""


def run_pass(workload, configs, traced, pass_dir, env, reference, tally, deadline):
    """Run every invocation of the workload once; None if a process failed."""
    os.makedirs(pass_dir)
    run_s, setups, rss, dumps, meta = 0.0, [], 0.0, [], None
    for inv, config in zip(workload.invocations, configs):
        out = os.path.join(pass_dir, inv.key)
        result_path = out + ".json"
        args = [CHILD, "--command", inv.command, "--config", config]
        args += ["--out", out, "--result", result_path] + (["--trace"] if traced else [])
        code = run_child(args, env, out + ".log", deadline - time.monotonic())
        if not tally.check(code == 0 and os.path.isfile(result_path), f"{inv.key}: process exit {code}: {_tail(out + '.log')}"):
            return None
        with open(result_path) as f:
            res = json.load(f)
        check_invocation(tally, inv, config, out, res["exit_code"], reference)
        run_s += res["run_s"]
        setups.append(res["setup_s"])
        rss = max(rss, res["peak_rss_mb"])
        dumps.append(res.get("trace"))
        meta = {k: res[k] for k in META}
    shutil.rmtree(pass_dir)
    return {"traced": traced, "run_s": run_s, "setups": setups, "rss": rss, "dumps": dumps, "meta": meta}


def measure(name, seed, seconds, trace, work_dir, env, reference, tally):
    """Repeat passes of one workload for about `seconds`; return (metrics, meta)."""
    workload = WORKLOADS[name]
    mdir = tempfile.mkdtemp(prefix=f"{name}-{'trace' if trace else 'plain'}-", dir=work_dir)
    configs = [
        write_config(inv, CONFIGS, os.path.join(mdir, inv.key + ".cfg"), seed) for inv in workload.invocations
    ]
    start = time.monotonic()
    deadline = start + MEASURE_BUDGET_S
    # untimed: compiles bytecode and loads the libraries into the page cache
    run_child(["-c", "import fluxlab.cli"], env, os.path.join(mdir, "warmup.log"), deadline - start)

    start = time.monotonic()
    setups = []
    for i in range(0 if trace else SETUP_PROBES):
        result_path = os.path.join(mdir, f"probe{i}.json")
        args = [CHILD, "--config", configs[i % len(configs)], "--result", result_path]
        code = run_child(args, env, os.path.join(mdir, f"probe{i}.log"), deadline - time.monotonic())
        if tally.check(code == 0, f"set-up probe exit {code}"):
            with open(result_path) as f:
                setups.append(json.load(f)["setup_s"])
    passes, longest = [], 0.0
    while True:
        t = time.monotonic()
        p = run_pass(
            workload, configs, trace and len(passes) % 2 == 0,
            os.path.join(mdir, f"pass{len(passes)}"), env, reference, tally, deadline,
        )
        if p is None:
            break
        passes.append(p)
        now = time.monotonic()
        longest = max(longest, now - t)
        if now + longest > deadline:
            break
        if now - start + longest > seconds and not (trace and len(passes) < 2):
            break
    if not passes:
        return {}, None

    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    if not trace:
        metrics["run_s"] = statistics.median(p["run_s"] for p in plain)
        metrics["setup_s"] = statistics.median(setups + [s for p in plain for s in p["setups"]])
        metrics["peak_rss_mb"] = statistics.median(p["rss"] for p in plain)
    else:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(p["dumps"]) for p in traced]
        for metric, *_ in PER_LAYER:
            if all(metric in m for m in per_pass):
                metrics[metric] = statistics.median(m[metric] for m in per_pass)
        if plain:
            metrics["trace.overhead_s"] = statistics.median(p["run_s"] for p in traced) - statistics.median(
                p["run_s"] for p in plain
            )
    meta = dict(passes[0]["meta"], pass_run_s=[p["run_s"] for p in passes])
    return metrics, meta


def git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0, help="measured time per workload and mode")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None, help="default: both")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    for needed in (os.path.join(SRC, "fluxlab", "cli.py"), CONFIGS):
        if not os.path.exists(needed):
            print(f"error: {needed} not found; run from the root of a fluxlab checkout", file=sys.stderr)
            return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    units = {n: u for n, u, _ in END_TO_END}
    units.update({n: u for n, u, _, _ in PER_LAYER})
    moves = {n: m for n, _, _, m in PER_LAYER}
    env = child_env()
    reference = load_reference()
    tally = Tally()
    results = {}
    environment = {
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "pythonhashseed": env["PYTHONHASHSEED"],
        "git_commit": git_commit(),
        "seconds": args.seconds,
    }
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        for name in names:
            for trace in modes:
                metrics, meta = measure(name, args.seed, args.seconds, trace, work_dir, env, reference, tally)
                if meta:
                    environment.update({k: meta[k] for k in META if k != "personality"})
                    randomized = not (meta["personality"] or 0) & ADDR_NO_RANDOMIZE
                    environment["address_randomization"] = "on" if randomized else "off"
                pass_run_s = " ".join(f"{t:.3f}" for t in meta["pass_run_s"]) if meta else "none"
                kind = "traced and untraced passes alternating" if trace else "untraced passes"
                print(f"{name}, {kind}, run_s of each: {pass_run_s}")
                for metric, value in metrics.items():
                    note = f"  -> {moves[metric]}" if metric in moves else ""
                    print(f"  {metric} = {value:.6g} {units[metric]}{note}")
                results[(name, trace)] = metrics
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    failed = len(tally.failures)
    print(f"fail_ratio = {failed / max(tally.attempted, 1):.6g} ({failed} of {tally.attempted} checks failed)")
    print("environment " + json.dumps(environment, sort_keys=True))
    for label in tally.failures[:20]:
        print(f"FAILED {label}", file=sys.stderr)
    expected = {False: [n for n, _, _ in END_TO_END], True: [n for n, _, _, _ in PER_LAYER]}
    # a per-layer metric whose hook target is gone is absent, which is not a failure
    for (name, trace), metrics in results.items():
        absent = [m for m in expected[True] if m not in metrics] if trace else []
        if absent:
            print(f"{name} absent: " + " ".join(absent))
    complete = all(set(expected[False]) <= set(m) for (_, t), m in results.items() if not t)
    single = len(results) == 1
    out = {}
    for (name, trace), metrics in results.items():
        for metric in expected[trace]:
            if metric in metrics:
                key = metric if single else f"{name}/{metric}"
                out[key] = {"value": metrics[metric], "unit": units[metric]}
    summary = {"correct": failed == 0 and complete, "attempted": max(tally.attempted, 1), "failed": failed, "metrics": out}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
