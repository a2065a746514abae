"""Command line front end: run named experiments from a config file.

Exit codes: 0 all verdicts pass; 1 some verdict failed, or the run stopped
on a FluxlabError, which prints `error:` and writes no verdicts.txt;
2 config/IO error, or a config whose domain or sweep cannot decide a claim
of the experiments asked for (any experiment but circle on a domain with
no hole, a one-hole experiment on k != 1 holes, a sweep with no flux off
the integers, a one-hole sweep without flux 1/2).

Each line of verdicts.txt reads `PASS|FAIL <name> | <claim>: <label>
<value> (<op> <bound>), ...`, one check per number; a verdict passes when
every check holds, and a nan value meets no bound.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_config
from .errors import ConfigError, FluxlabError
from .experiments import (
    discretize,
    require_one_hole,
    require_sweep_claims,
    run_circle_check,
    run_cover_equivalence,
    run_flux_sweep,
    run_multiplicity_experiment,
    run_nodal,
    run_slit_infimum,
    write_verdicts,
)

_EXPERIMENTS = ("sweep", "circle", "slit", "multiplicity", "cover", "nodal")
_ONE_HOLE = ("slit", "multiplicity")


def _parser():
    p = argparse.ArgumentParser(prog="fluxlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in _EXPERIMENTS + ("all",):
        sp = sub.add_parser(name, help=f"run the {name} experiment(s)")
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--out", default="runs", help="output directory")
        sp.add_argument(
            "--grid-refine",
            action="store_true",
            help="repeat the slit study on a half-spacing grid",
        )
    return p


def _dispatch(name, cfg, out, refine, lattice):
    if name == "sweep":
        return run_flux_sweep(cfg, lattice, out_dir=out)[1]
    if name == "circle":
        return run_circle_check(cfg, out_dir=out)[1]
    if name == "slit":
        return run_slit_infimum(cfg, lattice, out_dir=out, refine=refine)[1]
    if name == "multiplicity":
        return run_multiplicity_experiment(cfg, lattice, out_dir=out)
    if name == "cover":
        return run_cover_equivalence(cfg, lattice, out_dir=out)[1]
    if name == "nodal":
        return run_nodal(cfg, lattice, out_dir=out)[1]
    raise ValueError(name)


def cli_main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = _EXPERIMENTS if args.command == "all" else (args.command,)
    if args.command == "all" and cfg.domain.k != 1:
        # the slit identity and the symmetric-pair study are one-hole claims
        names = tuple(n for n in names if n not in _ONE_HOLE)
    verdicts = []
    try:
        # preconditions come before a grid that may not build
        for name in set(names) & set(_ONE_HOLE):
            require_one_hole(cfg, name)
        if "sweep" in names:
            require_sweep_claims(cfg)
        # one grid and potential for every experiment but the circle's
        lattice = discretize(cfg) if set(names) - {"circle"} else None
        for name in names:
            verdicts.extend(_dispatch(name, cfg, args.out, args.grid_refine, lattice))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FluxlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    write_verdicts(os.path.join(args.out, "verdicts.txt"), verdicts)
    for v in verdicts:
        print(v.line())
    return 0 if all(v.passed for v in verdicts) else 1


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
