"""Half flux through the twofold cover: the magnetic problem turns real.

At half-integer circulations the domain has a double cover on which every
loop carries integer circulation.  The link phases integrate to a vertex
phase that flips sign between sheets; multiplying by it maps the magnetic
eigenproblem onto the antisymmetric part of a plain real Laplacian.
"""

import numpy as np

import fluxlab as fl

spec = fl.DomainSpec(outer=fl.Disk(0, 0, 1.0), holes=(fl.Disk(0, 0, 0.3),), spacing=0.05)
grid = fl.build_grid(spec)
field = fl.aharonov_bohm_potential(grid, [0.5])

cover = fl.build_cover(fl.as_edge_graph(grid, field))
print("cover connected:", cover.connected, "| cut edges:", int(cover.cuts.sum()))
loop = fl.hole_loop(grid, 1)
parity = sum(int(cover.cuts[grid.edge_id(v, w)[0]]) for v, w in loop.edges) % 2
print("hole loop crosses the cuts an odd number of times:", parity == 1)

# the magnetic spectrum is the antisymmetric cover spectrum
H = fl.assemble_magnetic(grid, field)
r = fl.lowest_eigenpairs(H, 3, tol=1e-11)
ra = fl.lowest_eigenpairs(fl.antisymmetric_block(cover), 3, tol=1e-11)
print("\nmagnetic      :", r.eigenvalues)
print("antisymmetric :", ra.eigenvalues)

# the lift intertwines eigenvectors with the plain cover Laplacian
theta = fl.build_theta(cover)
lifted = fl.assemble_lifted(cover)
lu = fl.lift_to_cover(r.eigenvectors[:, 0], theta)
print("\nlift isometry |Lu| =", np.linalg.norm(lu))
print("eigen-residual of Lu under the real cover operator:",
      np.linalg.norm(lifted.matrix @ lu - r.eigenvalues[0] * lu))

# the antilinear conjugation symmetry that makes all this possible
K = fl.ConjugationOperator(cover)
u = r.eigenvectors[:, 0]
print("K^2 = identity:", np.max(np.abs(K.apply(K.apply(u)) - u)) < 1e-12)
