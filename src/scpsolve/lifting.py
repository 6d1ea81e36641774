"""Lifted geometry for the semidefinite relaxation.

The binary model is lifted to symmetric matrices of order ``n0 + 1`` via
``[1; x][1; x]'``.  This module builds everything the relaxation needs:

* the lifted cost matrix (zero border row/column, energies in the rest),
* the gangster set (entries pinned to 0, plus the (0,0) entry pinned to
  1): the pairs of rotamers of one block, and any pairs of rotamers of
  distinct blocks that the caller excludes (``oracle.dead_end_pairs``),
* an orthonormal basis V of the null space of the homogenized one-per-block
  constraints [-1 | A] (row i of A sums block i).  V spans the minimal face
  containing every feasible lifted matrix (facial reduction); it depends
  only on the block sizes, is written down in closed form, and is applied
  through its block-reflector structure (``FaceBasis``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .instances import RotamerPartition, ScpInstance


# Order n0 from which build_geometry applies V through its reflector
# structure (FaceBasis) rather than as a dense matrix (DenseFaceBasis): below
# it the few dense BLAS calls beat the structured form's dozen numpy calls.
# Measured on one core; see README, "The R-update's transforms".
FACE_CROSSOVER = 120


def face_columns(partition: RotamerPartition) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The numbers V is made of (``FaceBasis``): a, D's entry d on each
    rotamer's row (1/sqrt(m_i) at the leading row of block i,
    -1/(m_i - sqrt(m_i)) on its others), the latter per block, and
    sqrt(m_i) per block."""
    m = np.asarray(partition.m)
    root = np.sqrt(m)
    # a singleton block adds no column (m_i - sqrt(m_i) = 0)
    rest_value = np.divide(-1.0, m - root, out=np.zeros(partition.p), where=m > 1)
    d = np.repeat(rest_value, m)
    d[list(partition.offsets)] = 1.0 / root
    a = np.concatenate([[1.0], np.repeat(1.0 / m, m)])
    return a / np.linalg.norm(a), d, rest_value, root


class FaceBasis:
    """The closed-form orthonormal basis V of the face and its products.

    Column 0 of V is a = [1; x] normalized, with x = 1/m_i on block i.  Each
    block with m_i > 1 adds m_i - 1 columns supported on its own rows,
    [1'/sqrt(m_i); I - 11'/(m_i - sqrt(m_i))]: the last columns of the
    Householder reflector I - w_i w_i' mapping e_1 to the block's unit
    constant vector.  They sum to zero over the block, so they are
    orthogonal to a.  So V = P [a~ | E_rest] with P = blkdiag(1, I - w_i w_i'),
    a = P a~, and E_rest the columns of the identity at the non-leading rows
    of each block.  As w_i is constant on those rows, the columns past the
    first are B = P E_rest = E_rest + D J': D holds one column per block,
    1/sqrt(m_i) at its leading row and -1/(m_i - sqrt(m_i)) on the others,
    and J marks the columns of each block.  The products below use only
    row gathers, block sums and D, in O(n0^2) work for V'XV where the
    dense product costs O(n0^2 (n0 + 1 - p)).
    """

    def __init__(self, partition: RotamerPartition):
        m = np.asarray(partition.m)
        self.order = partition.n0 + 1
        self.leads = np.asarray(partition.offsets, dtype=np.intp) + 1
        self.counts = m - 1  # columns of B per block
        not_rest = np.zeros(self.order, dtype=bool)
        not_rest[0] = not_rest[self.leads] = True
        self.rest = np.flatnonzero(~not_rest)
        self.rows = np.concatenate([[0], self.rest])  # V'XV reads X only here
        self.dim = self.rows.size  # n0 + 1 - p, V's width
        self.block_of_rest = np.repeat(np.arange(partition.p), self.counts)
        self.a, self.d, self.rest_value, root = face_columns(partition)
        self.lead_weight = 1.0 / root - self.rest_value  # D'A = lead_weight A_lead + rest_value sum(A)
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    @cached_property
    def matrix(self) -> np.ndarray:
        """V itself, of shape (n0+1) x (n0+1-p), read-only: ``apply`` of
        the identity."""
        V = self.apply(np.eye(self.dim))
        V.flags.writeable = False
        return V

    def _dt(self, A, symmetric=False) -> np.ndarray:
        """D'A for a 2-D A with n0+1 rows: one row per block.  For a
        symmetric A the block sums of its rows are read along its columns,
        which is faster and gives the same sums bit for bit."""
        if symmetric:
            out = np.add.reduceat(A, self.leads, axis=1).T
        else:
            out = np.add.reduceat(A, self.leads, axis=0)  # row 0 has no block
        out *= self.rest_value[:, None]
        out += self.lead_weight[:, None] * A[self.leads]
        return out

    def congruence(self, X) -> np.ndarray:
        """V'XV for symmetric X.  With T = D'X and K = D'XD, the block past
        the first row and column is B'XB = X_rest + JQ + (JQ)' with
        Q = T_rest + K J'/2; the first column is V'(Xa)."""
        X = np.asarray(X, dtype=float)
        T = self._dt(X, symmetric=True)
        Q = T[:, self.rest]
        Q += 0.5 * self._dt(T.T)[:, self.block_of_rest]
        out = X.take(self.rows, axis=0).take(self.rows, axis=1)
        JQ = np.repeat(Q, self.counts, axis=0)
        inner = out[1:, 1:]
        inner += JQ
        inner += JQ.T
        out[0] = out[:, 0] = self.apply_transpose(X @ self.a)
        return out

    def apply(self, G) -> np.ndarray:
        """VG for a 2-D G with n0+1-p rows: a G[0] plus BG[1:], which
        scatters G[1:] to the non-leading rows and adds D J'G[1:]."""
        G = np.asarray(G, dtype=float)
        F = np.zeros((self.order, G.shape[1]))
        F[self.rest] = G[1:]
        # block sums of G[1:]: F is still zero at row 0 and the leading rows
        sums = np.add.reduceat(F, self.leads, axis=0)
        F[1:] += self.d[:, None] * np.repeat(sums, self.counts + 1, axis=0)
        F += np.outer(self.a, G[0])
        return F

    def apply_transpose(self, Y) -> np.ndarray:
        """V'Y for Y with n0+1 rows: a'Y, then B'Y = Y_rest + J D'Y."""
        Y = np.asarray(Y, dtype=float)
        flat = Y if Y.ndim == 2 else Y[:, None]
        out = np.empty((self.dim, flat.shape[1]))
        out[0] = self.a @ flat
        out[1:] = flat[self.rest]
        out[1:] += self._dt(flat)[self.block_of_rest]
        return out if Y.ndim == 2 else out[:, 0]


class DenseFaceBasis:
    """FaceBasis's products as dense products with V: fewer numpy calls,
    so faster below FACE_CROSSOVER.  V is written down entry by entry, bit
    for bit ``FaceBasis.apply`` of the identity: column 0 is a, and the
    column of each non-leading row of block i holds 1 + d at that row, d on
    the block's other non-leading rows and 1/sqrt(m_i) at its leading row,
    with d = -1/(m_i - sqrt(m_i)), and 0 elsewhere."""

    def __init__(self, partition: RotamerPartition):
        self.order = partition.n0 + 1
        self.dim = self.order - partition.p
        a, d, _, _ = face_columns(partition)
        block = partition.block_index
        rest = np.ones(partition.n0, dtype=bool)
        rest[list(partition.offsets)] = False
        rest = np.flatnonzero(rest)  # the rows past the leading one of each block, less 1
        V = np.zeros((self.order, self.dim))
        V[:, 0] = a
        V[1:, 1:] = np.where(block[:, None] == block[rest], d[:, None], 0.0)
        V[rest + 1, np.arange(1, self.dim)] += 1.0
        V.flags.writeable = False
        self.matrix = V

    def congruence(self, X) -> np.ndarray:
        V = self.matrix
        return V.T @ X @ V

    def apply(self, G) -> np.ndarray:
        return self.matrix @ G

    def apply_transpose(self, Y) -> np.ndarray:
        return self.matrix.T @ Y


def null_space_basis(partition: RotamerPartition) -> np.ndarray:
    """Orthonormal basis V of the null space of the homogenized constraints,
    shape (n0+1) x (n0+1-p), in the closed form of ``FaceBasis``."""
    return FaceBasis(partition).matrix


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
    free: np.ndarray = field(repr=False)
    face: FaceBasis = field(repr=False)

    @property
    def order(self) -> int:
        """Order of the lifted matrices, n0 + 1."""
        return self.lifted_cost.shape[0]

    @property
    def face_dim(self) -> int:
        """Order of the reduced PSD variable, n0 + 1 - p."""
        return self.face.dim

    @cached_property
    def gangster(self) -> np.ndarray:
        """The entries ``free`` leaves out, as a sorted read-only (N, 2)
        ``intp`` array in the row-major order of ``gangster_indices``."""
        pairs = np.argwhere(~self.free)
        pairs.flags.writeable = False
        return pairs

    @cached_property
    def dual_fixed(self) -> np.ndarray:
        """Row 0, column 0 and the diagonal as read-only indices into the
        raveled lifted matrix: the dual coordinates whose optimal values
        are known, which the dual steps leave at their initialized values."""
        fixed = np.zeros((self.order, self.order), dtype=bool)
        fixed[0] = fixed[:, 0] = True
        np.fill_diagonal(fixed, True)
        flat = np.flatnonzero(fixed)
        flat.flags.writeable = False
        return flat


def build_geometry(instance: ScpInstance, excluded: np.ndarray | None = None) -> LiftedGeometry:
    """The lifted geometry of ``instance``.  ``free`` is a read-only boolean
    mask of the lifted matrix, False on the gangster set: (0, 0), the pairs
    of rotamers of one block, and the pairs in ``excluded``, an n0 x n0
    symmetric boolean mask (``oracle.dead_end_pairs``) or None for none.
    A product with ``free`` zeroes the gangster entries in one pass, whose
    cost does not grow with their number, as indexing does."""
    partition = instance.partition
    free = np.empty((partition.n0 + 1, partition.n0 + 1), dtype=bool)
    free[0] = free[:, 0] = True
    free[0, 0] = False
    free[1:, 1:] = ~partition.same_block  # gangster_indices' pairs
    if excluded is not None:
        free[1:, 1:] &= ~excluded
    arrays = (lift_energy(instance.energy), free)
    for arr in arrays:
        arr.flags.writeable = False
    face_type = FaceBasis if partition.n0 >= FACE_CROSSOVER else DenseFaceBasis
    return LiftedGeometry(partition, *arrays, face_type(partition))
