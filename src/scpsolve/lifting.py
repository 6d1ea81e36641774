"""Lifted geometry for the semidefinite relaxation.

The binary model is lifted to symmetric matrices of order ``n0 + 1`` via
``[1; x][1; x]'``.  This module builds everything the relaxation needs:

* the lifted cost matrix (zero border row/column, energies in the rest),
* the gangster index list (entries pinned to 0, plus the (0,0) entry pinned
  to 1),
* an orthonormal basis V of the null space of the homogenized one-per-block
  constraints [-1 | A] (row i of A sums block i).  V spans the minimal face
  containing every feasible lifted matrix (facial reduction); it depends
  only on the block sizes and is written down in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .instances import RotamerPartition, ScpInstance


def null_space_basis(partition: RotamerPartition) -> np.ndarray:
    """Orthonormal basis of the null space of the homogenized constraints.

    Column 0 is [1; x] normalized, with x = 1/m_i on block i.  Each block
    with m_i > 1 adds m_i - 1 columns supported on its own rows,
    [1'/sqrt(m_i); I - 11'/(m_i - sqrt(m_i))]: the last columns of the
    Householder reflector mapping e_1 to the block's unit constant vector.
    They sum to zero over the block, so they are orthogonal to column 0.
    Shape (n0+1) x (n0+1-p).
    """
    V = np.zeros((partition.n0 + 1, partition.n0 + 1 - partition.p))
    V[0, 0] = 1.0
    col = 1
    for off, mi in zip(partition.offsets, partition.m):
        rows = slice(off + 1, off + 1 + mi)
        V[rows, 0] = 1.0 / mi
        if mi > 1:  # a singleton block adds no column (m_i - sqrt(m_i) = 0)
            root = math.sqrt(mi)
            block = V[rows, col : col + mi - 1]
            block[0] = 1.0 / root
            block[1:] = np.eye(mi - 1) - 1.0 / (mi - root)
            col += mi - 1
    V[:, 0] /= np.linalg.norm(V[:, 0])
    return V


def gangster_indices(partition: RotamerPartition) -> np.ndarray:
    """Pinned entries of the lifted matrix as a sorted (N, 2) ``intp`` array.

    Row 0 is (0, 0); the rest are the entries of ``partition.same_block``,
    shifted to lifted indices 1..n0, so the rows index the support of
    blkdiag(1, A'A - I).  Row-major order is the canonical ordering shared
    by extraction and the box projection.
    """
    pairs = np.argwhere(partition.same_block) + 1
    return np.concatenate([np.zeros((1, 2), dtype=np.intp), pairs])


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
