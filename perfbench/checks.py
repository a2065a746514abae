"""Checks on the outputs of one fluxlab CLI invocation.

Every check is one operation: the exit status, each verdict line (a FAIL
counts as failed; none is filtered out), and each comparison of a reported
value with `reference.json`.  Eigenvalues must lie within the solver's
promised bound, `tol` times the Gershgorin norm of the operator, of the
reference values computed with `scipy.sparse.linalg.eigsh`.
"""

from __future__ import annotations

import csv
import json
import os

from workloads import fingerprint

HERE = os.path.dirname(os.path.abspath(__file__))


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


class Tally:
    """Attempted and failed operations, with a label for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, label):
        self.attempted += 1
        if not ok:
            self.failures.append(label)
        return ok


def _rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _close(value, ref, bound):
    return abs(float(value) - ref) <= bound


def _check_verdicts(tally, out_dir, where):
    path = os.path.join(out_dir, "verdicts.txt")
    if not tally.check(os.path.isfile(path), f"{where}: verdicts.txt missing"):
        return
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    tally.check(bool(lines), f"{where}: verdicts.txt is empty")
    for line in lines:
        tally.check(line.startswith("PASS "), f"{where}: {line}")


def _check_sweep(tally, out_dir, ref, where):
    rows = _rows(os.path.join(out_dir, "sweep.csv"))
    tol = ref["tol"]
    if not tally.check(len(rows) == len(ref["rows"]), f"{where}: sweep.csv has {len(rows)} rows"):
        return
    for row, want in zip(rows, ref["rows"]):
        bound = tol * want["norm"]
        at = f"{where}: flux {want['flux']}"
        tally.check(_close(row["flux1"], want["flux"], 1e-12), f"{at}: flux1 = {row['flux1']}")
        for i, lam in enumerate(want["eigenvalues"]):
            got = row[f"lambda{i + 1}"]
            tally.check(_close(got, lam, bound), f"{at}: lambda{i + 1} = {got}, reference {lam!r}")
        tally.check(int(row["multiplicity"]) == want["multiplicity"], f"{at}: multiplicity {row['multiplicity']}")
        tally.check(float(row["max_residual"]) <= bound, f"{at}: max_residual {row['max_residual']}")


def _check_slit(tally, out_dir, ref, where):
    rows = _rows(os.path.join(out_dir, "slit.csv"))
    tol = ref["tol"]
    if not tally.check(len(rows) == len(ref["rows"]), f"{where}: slit.csv has {len(rows)} rows"):
        return
    for j, (row, want) in enumerate(zip(rows, ref["rows"])):
        at = f"{where}: slit {j}"
        tally.check(int(row["slit_index"]) == j, f"{at}: slit_index {row['slit_index']}")
        tally.check(int(row["n_vertices"]) == want["n_vertices"], f"{at}: n_vertices {row['n_vertices']}")
        tally.check(
            _close(row["lambda1"], want["lambda1"], tol * want["norm"]),
            f"{at}: lambda1 = {row['lambda1']}, reference {want['lambda1']!r}",
        )


def _check_nodal(tally, out_dir, ref, where):
    with open(os.path.join(out_dir, "nodal_reports.jsonl")) as f:
        reports = [json.loads(ln) for ln in f if ln.strip()]
    want = ref["multiplicity"]
    tally.check(len(reports) == want, f"{where}: {len(reports)} nodal reports for ground multiplicity {want}")
    for j, rep in enumerate(reports):
        at = f"{where}: report {j}"
        tally.check(rep["passes_slitting"] is True, f"{at}: passes_slitting {rep['passes_slitting']}")
        tally.check(rep["bounds_ok"] is True, f"{at}: bounds_ok {rep['bounds_ok']}")
        tally.check(rep["cover_domain_count"] == 2, f"{at}: cover_domain_count {rep['cover_domain_count']}")
        polylines = os.path.join(out_dir, f"nodal_{j}.txt")
        tally.check(os.path.isfile(polylines) and os.path.getsize(polylines) > 0, f"{at}: nodal_{j}.txt missing or empty")
    tally.check(os.path.isfile(os.path.join(out_dir, "nodal.svg")), f"{where}: nodal.svg missing")


_OUTPUT_CHECKS = {"sweep": _check_sweep, "slit": _check_slit, "nodal": _check_nodal}


def check_invocation(tally, inv, config_path, out_dir, exit_code, reference):
    """Record the checks of one invocation's exit status and output files."""
    where = f"{inv.command} {inv.key}"
    ref = reference.get(inv.key)
    if not tally.check(ref is not None, f"{where}: no reference entry"):
        return
    tally.check(
        fingerprint(config_path) == ref["config"],
        f"{where}: config differs from the one the reference was computed for",
    )
    tally.check(exit_code == 0, f"{where}: exit status {exit_code}")
    _check_verdicts(tally, out_dir, where)
    try:
        _OUTPUT_CHECKS[inv.command](tally, out_dir, ref, where)
    except (OSError, KeyError, ValueError) as exc:
        tally.check(False, f"{where}: unreadable output: {exc!r}")
