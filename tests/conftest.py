"""Shared fixtures and enumeration helpers for the test suite."""

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
