#!/usr/bin/env python3
# The lifted geometry behind the relaxation: one-per-block constraints, the
# gangster pattern of pinned entries, and the orthonormal face basis.

import numpy as np

from scpsolve import RotamerPartition
from scpsolve.lifting import (
    exposing_matrix,
    gangster_indices,
    gangster_values,
    homogenized_constraints,
    lift_indicator,
    null_space_basis,
    row_sum_matrix,
)

partition = RotamerPartition((2, 2))

# Row i of the constraint matrix sums block i; feasible x solve Ax = 1.
A = row_sum_matrix(partition)
print("row-sum constraint matrix:")
print(A)

# A feasible indicator lifts to the rank-one matrix [1; x][1; x]'.
x = np.array([1.0, 0.0, 0.0, 1.0])
Y = lift_indicator(x)
print("\nlifted matrix of x =", x)
print(Y)

# The gangster index list pins entries of every lifted matrix: the corner
# (0,0) is 1, within-block off-diagonal pairs are 0.
gangster = gangster_indices(partition)
print("\ngangster indices:", [tuple(r) for r in gangster])
print("values at those indices:", gangster_values(Y, gangster))

# Every feasible lift is annihilated by the exposing matrix, so the whole
# feasible set lives on a face of the PSD cone...
K = exposing_matrix(partition)
print("\n|K Y| max:", np.max(np.abs(K @ Y)))

# ...parametrized by an orthonormal null-space basis V: Y = V R V' with R
# of order n0 + 1 - p and trace p + 1.
V = null_space_basis(partition)
H = homogenized_constraints(partition)
print("V shape:", V.shape)
print("|V'V - I| max:", np.max(np.abs(V.T @ V - np.eye(V.shape[1]))))
print("|[-1 A] V| max:", np.max(np.abs(H @ V)))
R = V.T @ Y @ V
print("trace of reduced variable:", np.trace(R), "(= p + 1 =", partition.p + 1, ")")
print("reconstruction error:", np.max(np.abs(V @ R @ V.T - Y)))
