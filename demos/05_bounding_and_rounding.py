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
from scpsolve.lifting import build_geometry, lift_indicator
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

# Upper bounds round a fractional solution read off a lifted matrix.  On the
# exact lift of a feasible point both extraction routes recover it.
x_opt = oracle.argmin.to_indicator(instance.partition)
Y = lift_indicator(x_opt)
col = extract_fractional(Y, FIRST_COLUMN)
eig = extract_fractional(Y, EIGENVECTOR)
print("\nfirst-column extraction:", np.round(col, 3))
print("eigenvector extraction: ", np.round(eig, 3), "(same direction, unit scale)")
assert round_to_feasible(col, instance.partition) == oracle.argmin
assert round_to_feasible(eig, instance.partition) == oracle.argmin

for source in (FIRST_COLUMN, EIGENVECTOR):
    value, assignment = upper_bound(Y, instance, source)
    print(f"upper bound via {source}: {value:g} at {assignment.choice}")

# A fuzzy lifted matrix still rounds to something feasible, just not optimal.
noisy = np.clip(Y + rng.normal(scale=0.3, size=Y.shape), 0.0, 1.0)
noisy = 0.5 * (noisy + noisy.T)
value, assignment = upper_bound(noisy, instance, FIRST_COLUMN)
print(f"\nnoisy matrix rounds to {assignment.choice} with energy {value:g}")
print("gap between that and the exact optimum:", relative_gap(value, oracle.optimum))
