"""Zero-field vector potentials as per-edge link phases.

The canonical potential with circulations (f_1, ..., f_k) is the sum of
angular fields f_i / (2*pi*r_i^2) * (-(y-y_i), x-x_i) centered at the hole
reference points.  Its line integral along a straight lattice edge is
exactly f_i times the signed angle the edge subtends at the center, which
makes plaquette sums vanish and hole circulations quantize to machine
precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, MissingEdge
from .geometry import GridDomain, LatticeLoop, wrap_angle


@dataclass(frozen=True)
class LinkField:
    """Real phase per canonical directed edge; reversal negates the phase."""

    grid: GridDomain
    theta: np.ndarray  # (n_edges,) radians, aligned with grid.edges

    def __post_init__(self):
        if self.theta.shape != (self.grid.n_edges,):
            raise LengthMismatch("theta length must equal the edge count")

    def phase(self, v, w):
        """Phase of the directed edge v -> w."""
        e, sign = self.grid.edge_id(v, w)
        if e is None:
            raise MissingEdge(f"no lattice edge between vertices {v} and {w}")
        return sign * float(self.theta[e])


def aharonov_bohm_potential(grid: GridDomain, fluxes) -> LinkField:
    """Canonical zero-field link phases with the given hole circulations."""
    fluxes = np.asarray(fluxes, dtype=float).reshape(-1)
    if fluxes.size != grid.k:
        raise LengthMismatch(f"expected {grid.k} circulations, got {fluxes.size}")
    theta = np.zeros(grid.n_edges)
    tails, heads = grid.edges[:, 0], grid.edges[:, 1]
    for f, ref in zip(fluxes, grid.hole_refs):
        ang = np.arctan2(grid.xy[:, 1] - ref[1], grid.xy[:, 0] - ref[0])
        theta += f * wrap_angle(ang[heads] - ang[tails])
    return LinkField(grid=grid, theta=theta)


def zero_field(grid: GridDomain) -> LinkField:
    return LinkField(grid=grid, theta=np.zeros(grid.n_edges))


def circulation(field: LinkField, loop: LatticeLoop) -> float:
    """(1/2pi) * sum of link phases along the loop."""
    total = 0.0
    for v, w in loop.edges:
        total += field.phase(v, w)
    return total / (2.0 * np.pi)


def gauge_transform(field: LinkField, chi) -> LinkField:
    """Shift link phases by the gradient of a single-valued vertex phase."""
    chi = np.asarray(chi, dtype=float).reshape(-1)
    if chi.size != field.grid.n_vertices:
        raise LengthMismatch("chi must be defined on every active vertex")
    tails, heads = field.grid.edges[:, 0], field.grid.edges[:, 1]
    return LinkField(grid=field.grid, theta=field.theta + chi[heads] - chi[tails])
