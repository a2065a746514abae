"""The benchmark's workloads and the configs it generates for them.

Each workload is a list of fluxlab CLI invocations on a shipped config from
`configs/`.  The config is copied into the run's work directory with the
benchmark seed written into `[solver] seed` and, where the workload says so,
the lattice spacing rewritten; the shipped files are never modified.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Invocation:
    command: str  # fluxlab subcommand
    config: str  # file name under configs/
    spacing: float = None  # rewritten [domain] spacing, None keeps the shipped one

    @property
    def key(self):
        """Name of this invocation's entry in the reference file."""
        stem = os.path.splitext(self.config)[0]
        return f"{self.command}-{stem}" + (f"-h{self.spacing:g}" if self.spacing else "")


@dataclass(frozen=True)
class Workload:
    why: str
    invocations: tuple


WORKLOADS = {
    # the lambda1(flux) traffic: 45 complex solves on one sparsity pattern,
    # where solver swaps, factorization reuse across flux points and
    # assembly cost show; cover and nodal code do not run
    "flux-sweep": Workload(
        why="fluxlab sweep on the annulus at h=0.02: 45 complex solves on one sparsity "
        "pattern, eigensolver-bound",
        invocations=(Invocation("sweep", "annulus.cfg"),),
    ),
    # half flux at h=0.01 (about 28k vertices): one solve, then the cover,
    # theta, conjugation and nodal layers in pure Python dominate and memory
    # peaks; a degenerate pair with one hole against a simple state with two
    "halfflux-nodal": Workload(
        why="fluxlab nodal on the annulus and two holes at h=0.01: one solve, then the "
        "Python cover and nodal graph layers dominate",
        invocations=(
            Invocation("nodal", "annulus.cfg", spacing=0.01),
            Invocation("nodal", "two_holes.cfg", spacing=0.01),
        ),
    ),
    # the same eigensolver used differently from the sweep: 32 real slit
    # solves with m=1, each on its own sparsity pattern, so reuse across
    # flux points cannot help; annulus_offset has a nonzero slit gap
    "slit-family": Workload(
        why="fluxlab slit on the annulus and the offset annulus at h=0.02: 32 real one-pair "
        "solves per config, each on its own sparsity pattern, plus one complex solve",
        invocations=(
            Invocation("slit", "annulus.cfg"),
            Invocation("slit", "annulus_offset.cfg"),
        ),
    ),
}

# config sections the reference values depend on; [solver] seed is excluded
FINGERPRINT_SECTIONS = ("domain", "potential", "sweep", "solver", "slit")


def _read(path):
    cp = configparser.ConfigParser(interpolation=None)
    with open(path) as f:
        cp.read_file(f)
    return cp


def write_config(inv: Invocation, configs_dir, dest, seed):
    """Write the invocation's config to `dest` with the seed and spacing set."""
    cp = _read(os.path.join(configs_dir, inv.config))
    if not cp.has_section("solver"):
        cp.add_section("solver")
    cp["solver"]["seed"] = str(seed)
    if inv.spacing is not None:
        cp["domain"]["spacing"] = repr(inv.spacing)
    with open(dest, "w") as f:
        cp.write(f)
    return dest


def fingerprint(path):
    """The config values a reference was computed for, without the seed."""
    cp = _read(path)
    out = {}
    for section in FINGERPRINT_SECTIONS:
        if cp.has_section(section):
            out[section] = {k: v for k, v in cp[section].items() if not (section == "solver" and k == "seed")}
    return out


def gershgorin_norm(A):
    """Gershgorin bound on the spectral radius of the sparse Hermitian matrix A."""
    diag = A.diagonal()
    off = np.asarray(abs(A).sum(axis=1)).ravel() - np.abs(diag)
    return max(abs(float((diag.real - off).min())), abs(float((diag.real + off).max())))
