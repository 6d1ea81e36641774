"""Exact reference solver and dead-end elimination preprocessing.

``brute_force`` enumerates every feasible assignment, so it only runs on
desk-scale instances; it is the ground truth the relaxation bounds are
verified against.  ``goldstein_reduce`` removes rotamers that provably
cannot occur in any optimal assignment, which shrinks instances without
changing the optimal value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import (
    Assignment,
    RotamerPartition,
    ScpInstance,
    objective,
)


class OracleSizeError(ValueError):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class OracleResult:
    optimum: float
    argmin: Assignment
    enumerated: int


def brute_force(instance: ScpInstance, limit: int = 1_000_000) -> OracleResult:
    """Exact minimum energy over all feasible assignments.

    Enumerates the full product of rotamer choices (must not exceed
    ``limit``); ties are broken by the lexicographically smallest
    assignment.
    """
    partition = instance.partition
    count = math.prod(partition.m)
    if count > limit:
        raise OracleSizeError(
            f"{count} feasible assignments exceed the enumeration limit {limit}"
        )
    E = instance.energy
    grids = np.meshgrid(
        *[np.arange(mi, dtype=np.intp) for mi in partition.m], indexing="ij"
    )
    local = [g.reshape(-1) for g in grids]
    glob = [off + loc for off, loc in zip(partition.offsets, local)]
    values = np.zeros(count)
    for i in range(partition.p):
        values += E[glob[i], glob[i]]
        for j in range(i + 1, partition.p):
            values += 2.0 * E[glob[i], glob[j]]
    idx = int(np.argmin(values))
    argmin = Assignment(tuple(int(loc[idx]) + 1 for loc in local))
    optimum = objective(argmin.to_indicator(partition), instance.energy)
    return OracleResult(optimum=optimum, argmin=argmin, enumerated=count)


@dataclass(frozen=True)
class DeeReduction:
    """Result of dead-end elimination: per-block survivors and the reduced
    instance.  ``kept[i]`` lists the surviving 1-based original indices of
    block i, which is also the reduced-to-original index mapping."""

    kept: tuple[tuple[int, ...], ...]
    reduced: ScpInstance

    def to_original(self, assignment: Assignment) -> Assignment:
        """Translate an assignment on the reduced instance back to original
        block-local indices.  An assignment that does not fit the reduced
        partition raises ``InstanceError``."""
        assignment.to_indicator(self.reduced.partition)  # validates it
        return Assignment(
            tuple(block[c - 1] for block, c in zip(self.kept, assignment.choice))
        )


def block_contacts(instance: ScpInstance) -> np.ndarray:
    """p x p boolean matrix, True where the pair block of blocks i and j
    has a nonzero entry (the diagonal holds the self blocks)."""
    offsets = instance.partition.offsets
    rows = np.logical_or.reduceat(instance.energy != 0.0, offsets, axis=0)
    return np.logical_or.reduceat(rows, offsets, axis=1)


def goldstein_reduce(instance: ScpInstance) -> DeeReduction:
    """Iterated dead-end elimination with the Goldstein dominance test.

    Rotamer r of block i is eliminated when some surviving t in the same
    block satisfies

        (E_rr - E_tt) + sum_{j != i} min_{s surviving in j} 2 (E_rs - E_ts) > 0,

    i.e. swapping r for t strictly lowers the energy whatever the other
    blocks choose.  The pair terms carry a factor 2 because the quadratic
    form counts each cross pair twice.  Scanning is deterministic (blocks
    ascending, rotamers ascending) and repeats until a fixed point; a block
    is never emptied because elimination needs a surviving witness.

    The scores of block i depend only on the survivors of the other blocks,
    so each block evaluates all its (r, t) scores at once: one broadcast
    difference of the surviving rows of block i against the surviving
    columns of every other block in contact with it (``block_contacts``),
    reduced to per-block minima.  A block out of contact adds exactly 0.0
    to every score, so it is skipped.  A pass costs O(n0^2 m_max) at most
    and holds m_i^2 n0 floats transiently.  The j terms are summed left to
    right in ascending j, so every score is the same float as evaluating
    one (r, t) pair at a time against every other block gives.
    """
    partition = instance.partition
    E = instance.energy
    offsets = partition.offsets
    contacts = block_contacts(instance)
    # global indices of the surviving rotamers of each block, ascending
    surviving = [off + np.arange(mi) for off, mi in zip(offsets, partition.m)]

    changed = True
    while changed:
        changed = False
        for i in range(partition.p):
            rows = surviving[i]
            others = [surviving[j] for j in range(partition.p) if j != i and contacts[i, j]]
            self_energy = E[rows, rows]
            terms = [(self_energy[:, None] - self_energy[None, :])[:, :, None]]
            if others:
                B = E[np.ix_(rows, np.concatenate(others))]
                starts = np.cumsum([0] + [len(block) for block in others[:-1]])
                diff = B[:, None, :] - B[None, :, :]
                terms.append(2.0 * np.minimum.reduceat(diff, starts, axis=2))
            # accumulate adds strictly left to right, so score[r, t] is the
            # same float as adding the j terms one at a time in ascending j
            score = np.cumsum(np.concatenate(terms, axis=2), axis=2)[:, :, -1]
            # score[r, r] is exactly 0 (energies are finite), so a rotamer
            # never witnesses against itself
            dominated = score > 0.0
            alive = np.ones(len(rows), dtype=bool)
            for a in range(len(rows)):
                if np.any(dominated[a] & alive):
                    alive[a] = False
                    changed = True
            surviving[i] = rows[alive]

    kept = tuple(
        tuple(int(g) - off + 1 for g in block) for off, block in zip(offsets, surviving)
    )
    keep_global = np.concatenate(surviving)
    reduced_partition = RotamerPartition(tuple(len(block) for block in surviving))
    reduced_entries = E[np.ix_(keep_global, keep_global)].copy()
    reduced_entries.flags.writeable = False
    reduced = ScpInstance(reduced_partition, reduced_entries, instance.name)
    return DeeReduction(kept=kept, reduced=reduced)
