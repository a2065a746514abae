"""Lattice laboratory for zero-field magnetic Schrodinger operators on
multiply connected planar domains: flux-dependent spectra, twofold covers,
conjugation symmetry and the slitting topology of half-flux nodal sets."""

from .eigensolver import EigenResult, lowest_eigenpairs, multiplicity_estimate
from .gauge import (
    LinkField,
    aharonov_bohm_potential,
    circulation,
    gauge_transform,
    zero_field,
)
from .geometry import (
    Disk,
    DomainSpec,
    GridDomain,
    LatticeLoop,
    Rect,
    build_grid,
    hole_loop,
    lattice_symmetries,
)
from .cover import (
    ConjugationOperator,
    CoverGraph,
    antisymmetric_block,
    assemble_lifted,
    build_cover,
    build_theta,
    lift_to_cover,
)
from .nodal import (
    NodalSet,
    SlitReport,
    extract_nodal_set,
    topology_report,
)
from .operators import (
    EdgeGraph,
    HamiltonianMatrix,
    SlitPath,
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

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
