"""Nodal sets of half-flux ground states slit the domain.

At half flux the magnetic operator is the twofold cover's real
antisymmetric block, as `fluxlab nodal` solves it.  Each real ground
eigenvector u is conjugation-fixed, and it lifts to the cover as u on one
sheet and -u on the other.  The zero contour of that lift, projected back
down, is a union of boundary-to-boundary lines with connected complement
and an odd number of endpoints on every hole.  For one hole: a
single line from the inner to the outer boundary.
"""

import fluxlab as fl

for name, spec, fluxes in (
    ("annulus", fl.DomainSpec(fl.Disk(0, 0, 1.0), (fl.Disk(0, 0, 0.3),), 0.05), [0.5]),
    ("two holes", fl.DomainSpec(fl.Rect(0, 0, 3, 1), (fl.Disk(1, 0.5, 0.2), fl.Disk(2, 0.5, 0.2)), 0.04), [0.5, 0.5]),
):
    grid = fl.build_grid(spec)
    field = fl.aharonov_bohm_potential(grid, fluxes)
    cover = fl.build_cover(fl.as_edge_graph(grid, field))
    r = fl.lowest_eigenpairs(fl.antisymmetric_block(cover), 4, tol=1e-11)
    mult = fl.multiplicity_estimate(r.eigenvalues, 1e-3)

    print(f"== {name}: k={grid.k}, ground multiplicity {mult}")
    nodal_sets = []
    for u in r.eigenvectors[:, :mult].T:
        nod = fl.extract_nodal_set(u, cover, grid)
        nodal_sets.append(nod)
        print("  ", fl.topology_report(nod, grid).to_json_line())
    fl.nodal_svg(spec, nodal_sets, f"nodal_{name.replace(' ', '_')}.svg")
    print(f"   figure written to nodal_{name.replace(' ', '_')}.svg")
