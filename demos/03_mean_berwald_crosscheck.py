"""Mean Berwald curvature: closed form against the Hessian oracle.

E_ij = (1/2) d^2 S / dy_i dy_j.  The closed form differentiates
S = W(s) <[v,y],y>/alpha + W(s) Q(s) <[v,y],v> analytically, with the factor
W = Phi/(2 Delta^2) and its s-derivatives derived from Q = N/D; the oracle
differentiates the generic-path S numerically (central differences with one
Richardson refinement).  Agreement is at the 1e-5 scale set by second-order
numeric differentiation.
"""

import numpy as np

import homfinsler as hf

entry = hf.catalog_get("solvable2")
model, v = entry.model, entry.v
y = np.array([1.0, 0.3])

for family in ("infinite_series", "exponential"):
    spec = hf.MetricSpec.for_vector(hf.phi_family(family), v)
    closed = hf.mean_berwald(model, v, spec, y, path="closed_form")
    oracle = hf.mean_berwald(model, v, spec, y, path="finite_difference")
    print(f"== {family} on solvable2 at y = {y}")
    print("closed form:")
    print(np.array2string(closed, precision=12))
    print("finite-difference Hessian of S:")
    print(np.array2string(oracle, precision=12))
    print(f"max |difference| = {np.max(np.abs(closed - oracle)):.3e}")
    print()

# E is homogeneous of degree -1: doubling y halves E.
spec = hf.MetricSpec.for_vector(hf.phi_family("exponential"), v)
e1 = hf.mean_berwald(model, v, spec, y)
e2 = hf.mean_berwald(model, v, spec, 2.0 * y)
print("max |E(2y) - E(y)/2| =", np.max(np.abs(e2 - e1 / 2.0)))

# S is homogeneous of degree 1 in y, so its Hessian annihilates y (Euler).
print("max |E(y) y| =", np.max(np.abs(e1 @ y)))
