#!/usr/bin/env python3
# The lifted geometry behind the relaxation: one-per-block constraints, the
# gangster pattern of pinned entries, and the orthonormal face basis.

import numpy as np

from scpsolve import RotamerPartition
from scpsolve.lifting import FaceBasis

partition = RotamerPartition((2, 2))

# Row i of the constraint matrix sums block i; feasible x solve Ax = 1.
A = np.zeros((partition.p, partition.n0))
for i in range(partition.p):
    A[i, partition.block_slice(i)] = 1.0
print("row-sum constraint matrix:")
print(A)

# A feasible indicator lifts to the rank-one matrix [1; x][1; x]'.
x = np.array([1.0, 0.0, 0.0, 1.0])
v = np.concatenate([[1.0], x])
Y = np.outer(v, v)
print("\nlifted matrix of x =", x)
print(Y)

# The gangster index list, in row-major order, pins entries of every lifted
# matrix: the corner (0,0) is 1, within-block off-diagonal pairs are 0.
gangster = np.concatenate([[[0, 0]], np.argwhere(partition.same_block) + 1])
print("\ngangster indices:", [tuple(r) for r in gangster.tolist()])
print("values at those indices:", Y[gangster[:, 0], gangster[:, 1]])

# [1; x] solves the homogenized constraints H = [-1 | A], so every feasible
# lift is annihilated by the exposing matrix H'H and the whole feasible set
# lives on a face of the PSD cone...
H = np.hstack([-np.ones((partition.p, 1)), A])
K = H.T @ H
print("\n|K Y| max:", np.max(np.abs(K @ Y)))

# ...parametrized by an orthonormal basis V of H's null space: Y = V R V'
# with R of order n0 + 1 - p and trace p + 1.  V depends only on the block
# sizes, so it is written down in closed form, one block at a time.
V = FaceBasis(partition).matrix
print("V shape:", V.shape)
print(np.round(V, 4))
print("|V'V - I| max:", np.max(np.abs(V.T @ V - np.eye(V.shape[1]))))
print("|[-1 A] V| max:", np.max(np.abs(H @ V)))
R = V.T @ Y @ V
print("trace of reduced variable:", np.trace(R), "(= p + 1 =", partition.p + 1, ")")
print("reconstruction error:", np.max(np.abs(V @ R @ V.T - Y)))
