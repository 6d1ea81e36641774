"""Exact reference solver and dead-end elimination preprocessing.

``brute_force`` enumerates every feasible assignment, so it only runs on
desk-scale instances; it is the ground truth the relaxation bounds are
verified against.  ``goldstein_reduce`` removes rotamers that provably
cannot occur in any optimal assignment, which shrinks instances without
changing the optimal value.  ``dead_end_pairs`` finds the pairs of
rotamers that no assignment of energy at most a given cutoff uses, which
a solve pins to 0 in its relaxation.
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
    # block i's choice in each assignment, the i-th digit of its index in
    # row-major order; not np.meshgrid, whose p-dimensional grids numpy
    # caps at 64 dimensions
    index = np.arange(count)
    local, stride = [], count
    for mi in partition.m:
        stride //= mi
        local.append(index // stride % mi)
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


# Pair bounds.  For rotamer r of block i and s of block j (i != j), every
# assignment that uses both costs at least the ordered pair bound
#
#     LB_rs = E_rr + E_ss + 2 E_rs
#             + sum_{k not in {i, j}} min_{t in k} [E_tt + 2 E_rt + 2 E_st
#                                      + 2 sum_{l > k, l not in {i, j}} min_{u in l} E_tu]:
#
# write the assignment's energy block by block, charging each pair of
# other blocks k < l to k, and bound each block's share by its minimum.
# With b_t = E_tt + 2 sum_{l > k} min_{u in l} E_tu for t in block k and
# T[t, r] = b_t + 2 E_tr - 2 [i > k] min_{u in i} E_tu, block k's share is
# min_t (T[t, r] + T[t, s] - b_t).  A block out of contact with i
# (``block_contacts``) has E_tr = 0 and min_{u in i} E_tu = 0, so
# T[t, r] = b_t exactly, and a block in contact with only one of i, j
# contributes a term of r alone or of s alone.  ``pair_bounds`` sums those
# O(n0^2) terms; only the blocks in contact with both i and j need the joint
# minimum over t (``pair_lower_bounds``).


def block_terms(instance: ScpInstance, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """The tables of the pair bounds above: b (length n0) and the ``rows``
    of T (n0 x n0; T[t, r] is used for t and r in distinct blocks only),
    in O(n0^2)."""
    partition, E = instance.partition, instance.energy
    block = np.repeat(np.arange(partition.p), partition.m)
    least = np.minimum.reduceat(E, partition.offsets, axis=1)  # least[t, l] = min_{u in l} E_tu
    b = 2.0 * (least * (np.arange(partition.p)[None, :] > block[:, None])).sum(axis=1)
    b += np.diagonal(E)
    later = block[None, :] > block[rows, None]  # r's block after t's
    T = least[rows][:, block]
    T *= later
    T *= -2.0
    T += 2.0 * E[rows]
    T += b[rows, None]
    return b, T


def pair_bounds(instance: ScpInstance, share: np.ndarray, const: np.ndarray) -> np.ndarray:
    """n0 x n0 symmetric matrix, at (r, s) for r and s in distinct blocks
    i and j: E_rr + E_ss + 2 E_rs + sum_{k not in {i, j}} (share[k, r] +
    share[k, s] - const[k]), for a p x n0 ``share`` and a length-p
    ``const``.  Entries with r and s in one block are not meaningful."""
    partition, E = instance.partition, instance.energy
    block = np.repeat(np.arange(partition.p), partition.m)
    share = share.copy()
    share[block, np.arange(partition.n0)] = 0.0  # a rotamer's own block is no k
    own = np.diagonal(E) + share.sum(axis=0) + const[block]
    bound = share.T[:, block]  # share[block of s, r] at (r, s)
    bound += bound.T
    np.subtract(np.add.outer(own, own), bound, out=bound)
    bound += E
    bound += E
    bound -= const.sum()
    return bound


def pair_upper_bounds(instance: ScpInstance, start: Assignment) -> np.ndarray:
    """An upper bound on every ordered pair bound LB_rs, in O(n0^2): each
    block's minimum over t taken at the rotamer ``start`` chooses there
    instead (``pair_bounds`` on the rows of T at those rotamers)."""
    rows = instance.partition.block_table[:, 0] + np.asarray(start.choice) - 1
    b, T = block_terms(instance, rows)
    return pair_bounds(instance, T, b[rows])


# the joint minima of ``pair_lower_bounds`` hold at most this many floats
JOINT_CHUNK = 1 << 20


def pair_lower_bounds(instance: ScpInstance) -> np.ndarray:
    """The ordered pair bound LB_rs of every pair of rotamers in distinct
    blocks, as an n0 x n0 symmetric matrix (entries within a block are not
    meaningful).  Each block's minimum is first taken for r and s apart
    (``pair_bounds``), exact for the blocks in contact with at most one of
    i and j; the blocks in contact with both then add their joint minimum
    over t less those two.  So the cost is O(n0^2) plus, per block k,
    O(m_k c_k^2) for the c_k rotamers of the blocks in contact with it."""
    partition = instance.partition
    b, T = block_terms(instance)
    offsets = partition.offsets
    share = np.minimum.reduceat(T, offsets, axis=0)
    const = np.minimum.reduceat(b, offsets)
    bound = pair_bounds(instance, share, const)
    contacts = block_contacts(instance)
    np.fill_diagonal(contacts, False)
    block = np.repeat(np.arange(partition.p), partition.m)
    for k in np.flatnonzero(contacts.sum(axis=1) >= 2):
        cols = np.flatnonzero(contacts[k, block])  # the rotamers of k's contacts
        end = offsets[k] + partition.m[k]
        step = max(1, JOINT_CHUNK // cols.size**2)
        joint = np.inf
        for lo in range(offsets[k], end, step):
            t = slice(lo, min(lo + step, end))
            here = np.ascontiguousarray(T[t, cols])  # fancy indexing returns it in F order
            here = here[:, :, None] + here[:, None, :]
            here -= b[t, None, None]
            joint = np.minimum(joint, here.min(axis=0))
        joint -= np.add.outer(share[k, cols], share[k, cols])
        joint += const[k]
        bound[cols[:, None], cols] += joint
    return bound


def pair_rounding(instance: ScpInstance) -> float:
    """A bound on how far rounding moves any computed pair bound, upper
    bound or assignment energy, twice over: 256 (p + 2)^4 eps max|E|.

    Each is a sum built from entries of E by additions and minima (and
    exact doublings): at most 9 (p + 2)^2 rounded additions feed it, a
    minimum passing on the largest error of its arguments and adding none,
    and no partial sum exceeds 18 (p + 2)^2 max|E|, so each errs by at most
    81 (p + 2)^4 eps max|E| (eps/2 per addition); two of them, 162.  inf
    when those partial sums could overflow."""
    p = instance.partition.p
    scale = float(np.abs(instance.energy).max(initial=0.0))
    if not math.isfinite(18.0 * (p + 2) ** 2 * scale):
        return math.inf
    return 256.0 * (p + 2) ** 4 * np.finfo(float).eps * scale


def dead_end_pairs(instance: ScpInstance, start: Assignment, cutoff: float) -> np.ndarray | None:
    """n0 x n0 symmetric boolean mask of the rotamer pairs in distinct
    blocks whose ordered pair bound (``pair_lower_bounds``) exceeds
    ``cutoff``, the energy of ``start``, by more than ``pair_rounding``:
    no assignment of energy at most the cutoff uses such a pair, so no
    optimum does, and none of ``start``'s pairs is ever in the mask.

    None, with the exact bound not taken, when no pair can go: when the
    O(n0^2) ``pair_upper_bounds`` at ``start`` is at most the cutoff
    everywhere (each pair bound is at most its upper bound, and the
    allowance covers the rounding of both), as on large i.i.d. instances,
    and when the allowance is infinite."""
    partition = instance.partition
    allowance = pair_rounding(instance)
    if partition.p < 2 or not math.isfinite(allowance):
        return None
    distinct = ~partition.same_block
    np.fill_diagonal(distinct, False)
    if not np.any(pair_upper_bounds(instance, start)[distinct] > cutoff):
        return None
    excluded = pair_lower_bounds(instance) > cutoff + allowance
    excluded &= distinct
    return excluded
