"""Nodal sets of half-flux ground states slit the domain.

A conjugation-fixed ground representative lifts to a real antisymmetric
eigenfunction on the double cover; its zero contour, projected back down,
is a union of boundary-to-boundary lines with connected complement and an
odd number of endpoints on every hole.  For one hole: a single line from
the inner to the outer boundary.
"""

import numpy as np

import fluxlab as fl

for name, spec, fluxes in (
    ("annulus", fl.DomainSpec(fl.Disk(0, 0, 1.0), (fl.Disk(0, 0, 0.3),), 0.05), [0.5]),
    ("two holes", fl.DomainSpec(fl.Rect(0, 0, 3, 1), (fl.Disk(1, 0.5, 0.2), fl.Disk(2, 0.5, 0.2)), 0.04), [0.5, 0.5]),
):
    grid = fl.build_grid(spec)
    field = fl.aharonov_bohm_potential(grid, fluxes)
    H = fl.assemble_magnetic(grid, field)
    r = fl.lowest_eigenpairs(H, 4, tol=1e-11)
    mult = fl.multiplicity_estimate(r.eigenvalues, 1e-3)

    cover = fl.build_cover(fl.as_edge_graph(grid, field))
    reps = fl.real_representatives(r.eigenvectors[:, :mult], fl.ConjugationOperator(cover))
    theta = fl.build_theta(cover)

    print(f"== {name}: k={grid.k}, ground multiplicity {mult}")
    nodal_sets = []
    for j in range(mult):
        f = np.sqrt(2) * fl.lift_to_cover(reps[:, j], theta).real
        nod = fl.extract_nodal_set(f, cover, grid)
        nodal_sets.append(nod)
        print("  ", fl.topology_report(nod, grid).to_json_line())
    fl.nodal_svg(spec, nodal_sets, f"nodal_{name.replace(' ', '_')}.svg")
    print(f"   figure written to nodal_{name.replace(' ', '_')}.svg")
