"""Shared fixtures and helpers for the test suite.

Besides the fixtures and the enumeration of feasible points, this holds the
explicit constraint matrices of the lifted geometry ([-1 | A], its exposing
matrix H'H) and the QR face basis.  The solver never forms them; the tests
use them as independent references for the closed-form basis in
``scpsolve.lifting``."""

import itertools

import numpy as np
import pytest

from scpsolve import RotamerPartition, ScpInstance, canonicalize_energy, random_instance

# the acceptance gate's fixed corpus
CORPUS_SIZE = 200
CORPUS_SEED = 20260808
INSTANCE_SEED = 42000

# 2 positions x 2 rotamers; diagonal self energies (1, 3, 2, 1), cross-block
# pair energies [[5, 2], [1, 4]].  The four feasible selections cost
# 13, 6, 7, 12, so the optimum is 6 at choice (1, 2).
DERIVED_E = np.array(
    [
        [1.0, 0.0, 5.0, 2.0],
        [0.0, 3.0, 1.0, 4.0],
        [5.0, 1.0, 2.0, 0.0],
        [2.0, 4.0, 0.0, 1.0],
    ]
)


def make_instance(m, entries, name="test"):
    partition = RotamerPartition(tuple(m))
    return ScpInstance(partition, canonicalize_energy(np.asarray(entries, dtype=float), partition), name)


def acceptance_corpus():
    """The acceptance corpus: p uniform in 2..6, m_max 5, energies in (-10, 10)."""
    rng = np.random.default_rng(CORPUS_SEED)
    for i in range(CORPUS_SIZE):
        p = int(rng.integers(2, 7))
        yield random_instance(p, 5, (-10, 10), seed=INSTANCE_SEED + i)


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


def exposing_matrix(partition: RotamerPartition) -> np.ndarray:
    """H'H for the homogenized constraints H: PSD, rank p, annihilates every
    feasible lifted matrix.  Used for invariant checks, not in the solver."""
    H = homogenized_constraints(partition)
    return H.T @ H


def gangster_values(M, gangster: np.ndarray) -> np.ndarray:
    """Entries of M at the gangster indices, in their canonical order."""
    return np.asarray(M)[gangster[:, 0], gangster[:, 1]]


def qr_face_basis(partition: RotamerPartition) -> np.ndarray:
    """Reference face basis: the null space of [-1 | A] from a complete QR
    of its transpose, dropping the first p columns."""
    H = homogenized_constraints(partition)
    Q, _ = np.linalg.qr(H.T, mode="complete")
    return Q[:, partition.p :]


def feasible_indicators(partition):
    """All feasible 0/1 vectors of a partition, in lexicographic choice order."""
    for combo in itertools.product(*[range(mi) for mi in partition.m]):
        x = np.zeros(partition.n0)
        for off, c in zip(partition.offsets, combo):
            x[off + c] = 1.0
        yield x


@pytest.fixture
def derived_instance():
    return make_instance((2, 2), DERIVED_E, name="derived-2x2")
