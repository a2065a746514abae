"""One benchmark iteration: a fresh process that runs one fluxlab CLI command.

    python3 perfbench/child.py --config CFG --result FILE [--command CMD --out DIR [--trace]]

Times the cold import of fluxlab (with numpy and scipy) plus one config load
as setup, then the `fluxlab.cli.cli_main` call as the run, and writes the
timings, the exit status, the peak resident memory and, when traced, the
spans and counters to FILE as JSON.  Without --command it stops after the
setup.  The parent sets the BLAS thread count, PYTHONPATH and the address
layout before starting it; fluxlab must come from the checkout's `src/`.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

# the checkout's src/, next to the benchmark's directory
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--command")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    t0 = time.perf_counter()
    import fluxlab
    import fluxlab.cli
    from fluxlab.config import load_config

    if not os.path.realpath(fluxlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"fluxlab imported from {fluxlab.__file__}, not from {SRC}")

    rec = None
    if args.trace:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
    load_config(args.config)
    t1 = time.perf_counter()
    code = None
    if args.command:
        try:
            code = fluxlab.cli.cli_main([args.command, "--config", args.config, "--out", args.out])
        except Exception:  # the run counts as failed; the traceback goes to the log
            traceback.print_exc()
            code = "exception"
    t2 = time.perf_counter()

    import numpy
    import scipy

    result = {
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(numpy),
        "personality": _personality(),
    }
    if rec is not None:
        result["trace"] = rec.dump()
    with open(args.result, "w") as f:
        json.dump(result, f)


def _blas_name(numpy):
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps['name']} {deps['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _personality():
    try:
        with open("/proc/self/personality") as f:
            return int(f.read(), 16)
    except (OSError, ValueError):
        return None


if __name__ == "__main__":
    main()
