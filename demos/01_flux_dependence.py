"""How the ground energy of a zero-field magnetic operator depends on the
flux threaded through the hole of an annulus.

The magnetic field vanishes everywhere in the domain; only the circulation
of the vector potential around the hole matters.  The first eigenvalue is
periodic in the flux, symmetric about half-integers, strictly positive off
integers, and (for a single hole) largest exactly at half flux.
"""

import numpy as np

import fluxlab as fl

# an annulus: unit disk with a concentric hole, coarse grid for speed
spec = fl.DomainSpec(outer=fl.Disk(0, 0, 1.0), holes=(fl.Disk(0, 0, 0.3),), spacing=0.05)
grid = fl.build_grid(spec)
print(f"annulus grid: {grid.n_vertices} vertices, {grid.n_edges} edges")

# sweep the circulation from 0 to 1
print("\n flux    lambda1      lambda2")
lams = {}
for flux in np.round(np.arange(0.0, 1.01, 0.1), 12):
    field = fl.aharonov_bohm_potential(grid, [flux])
    H = fl.assemble_magnetic(grid, field)
    r = fl.lowest_eigenpairs(H, 2, tol=1e-10)
    lams[flux] = r.eigenvalues[0]
    print(f" {flux:4.2f}  {r.eigenvalues[0]:10.6f}  {r.eigenvalues[1]:10.6f}")

# the curve rises from 0, peaks at half flux, and returns to ~0 at flux 1
print("\nlambda1(0)   =", lams[0.0], " (zero mode)")
print("lambda1(0.5) =", lams[0.5], " (maximum)")
print("lambda1(1.0) =", lams[1.0], " (gauge equivalent to zero flux)")
print("symmetry |lambda1(0.3) - lambda1(0.7)| =", abs(lams[0.3] - lams[0.7]))

# only the circulation matters: a gauge change chi leaves the spectrum alone
chi = np.random.default_rng(0).uniform(-np.pi, np.pi, grid.n_vertices)
gauged = fl.gauge_transform(fl.aharonov_bohm_potential(grid, [0.3]), chi)
lam = fl.lowest_eigenpairs(fl.assemble_magnetic(grid, gauged), 2, tol=1e-10).eigenvalues[0]
print("gauge change |lambda1(0.3) - lambda1(0.3, chi)| =", abs(lams[0.3] - lam))
