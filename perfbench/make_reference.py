"""Compute the reference eigenvalues the benchmark checks fluxlab's outputs against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the repository root.  Operators are assembled with fluxlab's own
builders, exactly as the CLI assembles them, but every eigenvalue comes from
`scipy.sparse.linalg.eigsh` in shift-invert mode, never from fluxlab's
solver.  Writes `perfbench/reference.json`; rerun only when a workload or a
shipped config it uses changes.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np
from scipy.sparse.linalg import eigsh

from fluxlab.config import load_config
from fluxlab.gauge import aharonov_bohm_potential, zero_field
from fluxlab.geometry import build_grid
from fluxlab.operators import assemble_magnetic, assemble_slit, radial_slit
from workloads import WORKLOADS, fingerprint, gershgorin_norm, write_config

HERE = os.path.dirname(os.path.abspath(__file__))


def lowest(H, m):
    """The m smallest eigenvalues and the Gershgorin norm of H."""
    A = H.matrix.tocsc()
    norm = gershgorin_norm(A)
    v0 = np.ones(A.shape[0], dtype=A.dtype)
    vals = eigsh(A, k=m + 2, sigma=-1.0, which="LM", v0=v0, tol=0, return_eigenvectors=False)
    return [float(x) for x in np.sort(vals.real)[:m]], norm


def multiplicity(eigs, cluster_tol):
    return int(sum(1 for x in eigs if x - eigs[0] <= cluster_tol * (1.0 + abs(eigs[0]))))


def sweep_reference(cfg):
    grid = build_grid(cfg.domain)
    V = cfg.potential(grid)
    rows = []
    for t in cfg.sweep_values():
        H = assemble_magnetic(grid, aharonov_bohm_potential(grid, [float(t)] * grid.k), V=V)
        eigs, norm = lowest(H, cfg.solver.count)
        rows.append(
            {
                "flux": float(t),
                "eigenvalues": eigs[:3],
                "multiplicity": multiplicity(eigs, cfg.solver.cluster_tol),
                "norm": norm,
            }
        )
    return {"rows": rows}


def slit_reference(cfg):
    if cfg.slit.mode != "radial":
        raise SystemExit("only radial slit families have references")
    grid = build_grid(cfg.domain)
    V = cfg.potential(grid)
    zf = zero_field(grid)
    m = cfg.slit.count
    rows = []
    for j in range(m):
        slit = radial_slit(grid, cfg.slit.hole, 2.0 * np.pi * j / m)
        eigs, norm = lowest(assemble_slit(grid, zf, V=V, slit=slit), 1)
        rows.append({"n_vertices": len(slit.vertices), "lambda1": eigs[0], "norm": norm})
    return {"rows": rows}


def nodal_reference(cfg):
    grid = build_grid(cfg.domain)
    H = assemble_magnetic(grid, aharonov_bohm_potential(grid, [0.5] * grid.k), V=cfg.potential(grid))
    eigs, norm = lowest(H, max(cfg.solver.count, 4))
    return {"eigenvalues": eigs, "multiplicity": multiplicity(eigs, cfg.solver.cluster_tol), "norm": norm}


BUILDERS = {"sweep": sweep_reference, "slit": slit_reference, "nodal": nodal_reference}


def main():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS.values():
            for inv in workload.invocations:
                path = write_config(inv, "configs", os.path.join(tmp, inv.key + ".cfg"), seed=0)
                cfg = load_config(path)
                entry = BUILDERS[inv.command](cfg)
                entry["config"] = fingerprint(path)
                entry["tol"] = cfg.solver.tol
                out[inv.key] = entry
                print(inv.key, "done")
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
