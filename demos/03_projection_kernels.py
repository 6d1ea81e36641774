#!/usr/bin/env python3
# The three projection kernels the splitting solver is made of, and the mask
# of its dual steps.

import numpy as np

from scpsolve import random_instance
from scpsolve.lifting import build_geometry
from scpsolve.projections import project_box_gangster, project_psd_trace, project_simplex
from scpsolve.solver import dual_step

# 1. Scaled simplex: nearest nonnegative vector with a fixed coordinate sum.
print("simplex projection of (3, 1) with total 2:", project_simplex([3.0, 1.0], 2.0))
print("simplex projection of (5, -1, 0) with total 3:", project_simplex([5.0, -1.0, 0.0], 3.0))

# 2. PSD with fixed trace: eigendecompose and project the spectrum.  The
# result comes back as a factor G with one column per unit of rank; the
# projection is G @ G.T.
M = np.diag([3.0, 1.0])
G = project_psd_trace(M, 2.0)
print(f"\nPSD/trace projection of diag(3, 1) to trace 2 (rank {G.shape[1]}):")
print(G @ G.T)
M = np.diag([-1.0, -1.0])
G = project_psd_trace(M, 2.0)
print(f"negative spectrum lifts to the uniform one (rank {G.shape[1]}):")
print(G @ G.T)

# 3. Box with gangster pattern: clamp into [0, 1], then pin the gangster
# entries (0 inside blocks, 1 at the corner).  The input must be symmetric,
# as it always is in a solve, and is overwritten with the projection.  The
# lifted geometry of a 2 x 2 instance holds the gangster set as a boolean
# mask, False on the pinned entries.
geometry = build_geometry(random_instance(2, 2, (-10, 10), seed=0))
rng = np.random.default_rng(0)
M = rng.normal(scale=2.0, size=(5, 5))
boxed = project_box_gangster(M + M.T, geometry.free)
print("\nbox/gangster projection of a random symmetric matrix:")
print(np.round(boxed, 3))
print("corner:", boxed[0, 0], " pinned zeros:", boxed[1, 2], boxed[3, 4])

# 4. Border/diagonal mask: the dual coordinates with known optimal values
# are zeroed out of every dual residual, so they never drift.  The mask is
# the geometry's ``dual_fixed``; a dual step from Z = 0 with unit step
# shows it.
print("\nmask applied to the identity (all support is pinned):")
print(dual_step(np.zeros((5, 5)), np.eye(5), 1.0, geometry.dual_fixed))
