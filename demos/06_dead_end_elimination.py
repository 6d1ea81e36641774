#!/usr/bin/env python3
# Dead-end elimination: provably safe removal of rotamers that cannot occur
# in any optimal assignment.

import numpy as np

from scpsolve import (
    RotamerPartition,
    ScpInstance,
    brute_force,
    canonicalize_energy,
    goldstein_reduce,
    random_instance,
    solve,
)
from scpsolve.oracle import dead_end_pairs

# A rigged instance: in every block the first rotamer beats the others in
# self energy and in every pair energy, so elimination collapses each block.
m = (3, 2, 3)
partition = RotamerPartition(m)
n0 = partition.n0
E = np.zeros((n0, n0))
for off, mi in zip(partition.offsets, m):
    for r in range(mi):
        E[off + r, off + r] = 10.0 * r
        for off2, mj in zip(partition.offsets, m):
            if off2 <= off:
                continue
            for s in range(mj):
                E[off + r, off2 + s] = E[off2 + s, off + r] = 2.0 * (r + s)
rigged = ScpInstance(partition, canonicalize_energy(E, partition), "rigged")

reduction = goldstein_reduce(rigged)
print("rigged instance blocks:", rigged.partition.m)
print("after elimination:     ", reduction.reduced.partition.m)
print("survivors per block:   ", reduction.kept)

# On random instances elimination keeps the optimum bit-for-bit.
for seed in range(3):
    inst = random_instance(p=4, m_max=4, energy_range=(-10, 10), seed=500 + seed)
    reduction = goldstein_reduce(inst)
    before = brute_force(inst)
    after = brute_force(reduction.reduced)
    kept = reduction.reduced.partition.n0
    print(
        f"\nseed {500 + seed}: {inst.partition.n0} -> {kept} rotamers, "
        f"optimum {before.optimum:.6f} == {after.optimum:.6f}"
    )
    assert before.optimum == after.optimum
    # the solver agrees, and the reduced assignment maps back to the original
    report = solve(reduction.reduced)
    mapped = reduction.to_original(report.assignment)
    print(f"  solve on reduced instance: ubd {report.ubd:.6f} at {mapped.choice}")
    print(f"  dead-end pairs the solve pinned to 0: {report.excluded_pairs}")

# Dead-end pairs: a pair of rotamers whose pair bound exceeds the energy of
# a known assignment is in no optimum.  The solver takes its 1-opt start as
# that assignment and pins such pairs to 0 in the relaxation; here the
# optimum itself is the cutoff, and none of its pairs goes.
inst = random_instance(p=5, m_max=5, energy_range=(-10, 10), seed=42147)
best = brute_force(inst)
excluded = dead_end_pairs(inst, best.argmin, best.optimum)
rows = np.flatnonzero(best.argmin.to_indicator(inst.partition))
assert not excluded[np.ix_(rows, rows)].any()
print(
    f"\nseed 42147: {int(excluded.sum()) // 2} rotamer pairs excluded at the optimum "
    f"{best.optimum:.6f}; its own pairs all kept"
)
