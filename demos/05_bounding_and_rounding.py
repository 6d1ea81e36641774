#!/usr/bin/env python3
# The two halves of the certificate: Lagrangian-dual lower bounds and
# rounded feasible upper bounds.

import numpy as np

from scpsolve import brute_force, random_instance, relative_gap
from scpsolve.bounds import (
    EIGENVECTOR,
    FIRST_COLUMN,
    dual_lower_bound,
    extract_fractional,
    round_to_feasible,
    upper_bound,
)
from scpsolve.lifting import build_geometry
from scpsolve.solver import initialize

instance = random_instance(p=4, m_max=4, energy_range=(-10, 10), seed=3)
geometry = build_geometry(instance)
oracle = brute_force(instance)
print("exact optimum:", oracle.optimum)

# Any symmetric multiplier gives a valid lower bound; the initialized dual
# (diagonal pinned to minus the lifted cost diagonal) is already a decent one.
_, _, Z0 = initialize(geometry)
print("dual bound at the initial multiplier:", dual_lower_bound(Z0, geometry))
rng = np.random.default_rng(1)
W = rng.normal(size=Z0.shape)
print("dual bound at a random multiplier:  ", dual_lower_bound(0.5 * (W + W.T), geometry))

# Upper bounds round a lifted vector, a multiple of [1; x] when x is
# feasible.  The solver rounds two: the first column of Y, and R's top
# eigenvector lifted by V (the last column of F = VG, which every iteration
# forms anyway).  The exact lift of a feasible point is Y = VRV' with
# R = V'YV of rank one, and both vectors recover the point.
x_opt = oracle.argmin.to_indicator(instance.partition)
v = np.concatenate([[1.0], x_opt])
Y = np.outer(v, v)
V = geometry.face.matrix
_, U = np.linalg.eigh(V.T @ Y @ V)
top = V @ U[:, -1]  # of either sign
col = extract_fractional(Y[:, 0])
eig = extract_fractional(top)
print("\nfirst-column extraction:", np.round(col, 3))
print("eigenvector extraction: ", np.round(eig, 3), "(same direction, unit scale)")
assert round_to_feasible(col, instance.partition) == oracle.argmin
assert round_to_feasible(eig, instance.partition) == oracle.argmin

for source, v in ((FIRST_COLUMN, Y[:, 0]), (EIGENVECTOR, top)):
    value, assignment = upper_bound(v, instance, source)
    print(f"upper bound via {source}: {value:g} at {assignment.choice}")

# A fuzzy lifted vector still rounds to something feasible, just not optimal.
noisy = Y[:, 0] + rng.normal(scale=0.3, size=Y.shape[0])
value, assignment = upper_bound(noisy, instance, FIRST_COLUMN)
print(f"\nnoisy vector rounds to {assignment.choice} with energy {value:g}")
print("gap between that and the exact optimum:", relative_gap(value, oracle.optimum))
