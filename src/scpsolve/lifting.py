"""Lifted geometry for the semidefinite relaxation.

The binary model is lifted to symmetric matrices of order ``n0 + 1`` via
``[1; x][1; x]'``.  This module builds everything the relaxation needs:

* the one-per-block row-sum constraint matrix,
* the lifted cost matrix (zero border row/column, energies in the rest),
* the gangster index list (entries pinned to 0, plus the (0,0) entry pinned
  to 1),
* an orthonormal basis of the null space of the homogenized constraints,
  which parametrizes the minimal face containing every feasible lifted
  matrix (facial reduction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .instances import RotamerPartition, ScpInstance


def row_sum_matrix(partition: RotamerPartition) -> np.ndarray:
    """p x n0 matrix whose row i has ones exactly on block i's columns."""
    A = np.zeros((partition.p, partition.n0))
    for i, (off, mi) in enumerate(zip(partition.offsets, partition.m)):
        A[i, off : off + mi] = 1.0
    return A


def homogenized_constraints(partition: RotamerPartition) -> np.ndarray:
    """p x (n0+1) matrix [-1 | A]; feasible lifted vectors lie in its null space."""
    A = row_sum_matrix(partition)
    return np.hstack([-np.ones((partition.p, 1)), A])


def null_space_basis(partition: RotamerPartition) -> np.ndarray:
    """Orthonormal basis of the null space of the homogenized constraints.

    Computed from a complete QR factorization of the transposed constraint
    matrix (Householder, no pivoting), so the result is deterministic for a
    fixed partition.  Shape (n0+1) x (n0+1-p).
    """
    H = homogenized_constraints(partition)
    Q, _ = np.linalg.qr(H.T, mode="complete")
    return Q[:, partition.p :]


def exposing_matrix(partition: RotamerPartition) -> np.ndarray:
    """H'H for the homogenized constraints H: PSD, rank p, annihilates every
    feasible lifted matrix.  Used for invariant checks, not in the solver."""
    H = homogenized_constraints(partition)
    return H.T @ H


def gangster_indices(partition: RotamerPartition) -> np.ndarray:
    """Pinned entries of the lifted matrix as a sorted (N, 2) index array.

    Contains (0, 0) and every ordered off-diagonal pair inside each block's
    diagonal block (lifted indices 1..n0); equals the support of
    blkdiag(0, A'A - I).  Row-major order is the canonical ordering shared
    by extraction and the box projection.
    """
    pairs = [(0, 0)]
    for off, mi in zip(partition.offsets, partition.m):
        lo = off + 1
        for r in range(lo, lo + mi):
            for c in range(lo, lo + mi):
                if r != c:
                    pairs.append((r, c))
    return np.array(pairs, dtype=np.intp)


def lift_energy(energy: np.ndarray) -> np.ndarray:
    """Embed E as the lower-right block of an (n0+1) matrix with zero border."""
    n0 = energy.shape[0]
    out = np.zeros((n0 + 1, n0 + 1))
    out[1:, 1:] = energy
    return out


def lift_indicator(x) -> np.ndarray:
    """Rank-one lifted matrix [1; x][1; x]' of an indicator vector."""
    v = np.concatenate([[1.0], np.asarray(x, dtype=float)])
    return np.outer(v, v)


def gangster_values(M, gangster: np.ndarray) -> np.ndarray:
    """Entries of M at the gangster indices, in their canonical order."""
    return np.asarray(M)[gangster[:, 0], gangster[:, 1]]


@dataclass(frozen=True, eq=False)
class LiftedGeometry:
    """All fixed data of the lifted relaxation of one instance."""

    partition: RotamerPartition
    lifted_cost: np.ndarray = field(repr=False)
    gangster: np.ndarray = field(repr=False)
    null_basis: np.ndarray = field(repr=False)

    @property
    def order(self) -> int:
        """Order of the lifted matrices, n0 + 1."""
        return self.lifted_cost.shape[0]

    @property
    def face_dim(self) -> int:
        """Order of the reduced PSD variable, n0 + 1 - p."""
        return self.null_basis.shape[1]


def build_geometry(instance: ScpInstance) -> LiftedGeometry:
    partition = instance.partition
    arrays = (
        lift_energy(instance.energy),
        gangster_indices(partition),
        null_space_basis(partition),
    )
    for arr in arrays:
        arr.flags.writeable = False
    return LiftedGeometry(partition, *arrays)
