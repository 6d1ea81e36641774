"""Seeded protein-like instances for the ``structured`` workload.

Positions sit on a compact random 3-D chain with 3.8 Å steps; two
positions interact only when they lie within the contact cutoff.  Every
position has one planted rotamer: low self energy, no clash, -2 with the
planted rotamers of its contacts and mildly repulsive (0 to 1) to their
other rotamers.  Half the other rotamers of each position carry a
backbone-clash self energy (50 to 100) and are mildly repulsive (0 to 1)
to every contact rotamer; the rest interact uniformly in -1 to 1.  About a
tenth of the pairs of non-planted rotamers carry a pair clash (20 to 50).

The planted structure makes the relaxation tight, and Goldstein
dead-end elimination removes exactly the self-clash rotamers in its
first pass and nothing in the second, so the work per instance varies
little between seeds.  Block sizes are a seeded permutation of a fixed
multiset, so every seed gives the same number of positions (60) and
rotamers (630).
"""

from __future__ import annotations

import numpy as np

from scpsolve import Assignment, RotamerPartition, ScpInstance, canonicalize_energy

STEP = 3.8
CONTACT_CUTOFF = 8.0
MIN_SEPARATION = 4.0
BLOCK_SIZES = tuple(range(6, 16)) * 6
RADIUS = 14.0
STEP_TRIES = 32
PAIR_CLASH_RATE = 0.1


def chain_positions(rng, p: int) -> np.ndarray:
    """Self-avoiding walk of p beads with fixed step length, confined to a
    sphere so the chain is compact; a walk that gets stuck starts over."""
    while True:
        points = [np.zeros(3)]
        for _ in range(p - 1):
            steps = rng.normal(size=(STEP_TRIES, 3))
            candidates = points[-1] + STEP * steps / np.linalg.norm(steps, axis=1)[:, None]
            ok = np.linalg.norm(candidates, axis=1) <= RADIUS
            if len(points) > 1:
                earlier = np.asarray(points[:-1])
                gaps = np.linalg.norm(candidates[:, None, :] - earlier[None], axis=2)
                ok &= gaps.min(axis=1) >= MIN_SEPARATION
            if not ok.any():
                break
            points.append(candidates[np.argmax(ok)])
        else:
            return np.asarray(points)


def structured_instance(seed: int) -> tuple[ScpInstance, Assignment]:
    """Instance and its planted assignment, both determined by ``seed``."""
    rng = np.random.default_rng(seed)
    m = tuple(int(v) for v in rng.permutation(BLOCK_SIZES))
    partition = RotamerPartition(m)
    p, offsets = partition.p, partition.offsets
    planted = tuple(int(rng.integers(1, mi + 1)) for mi in m)
    coords = chain_positions(rng, p)
    E = np.zeros((partition.n0, partition.n0))
    clashing = []

    for i in range(p):
        sl = partition.block_slice(i)
        self_energy = rng.uniform(-3.0, 3.0, size=m[i])
        others = [r for r in range(m[i]) if r != planted[i] - 1]
        clash = rng.choice(others, size=m[i] // 2, replace=False)
        self_energy[clash] += rng.uniform(50.0, 100.0, size=clash.size)
        clashing.append(clash)
        self_energy[planted[i] - 1] = rng.uniform(-3.0, -1.0)
        E[sl, sl] = np.diag(self_energy)

    for i in range(p):
        for j in range(i + 1, p):
            if np.linalg.norm(coords[i] - coords[j]) > CONTACT_CUTOFF:
                continue
            block = rng.uniform(-1.0, 1.0, size=(m[i], m[j]))
            block[clashing[i], :] = rng.uniform(0.0, 1.0, size=(clashing[i].size, m[j]))
            block[:, clashing[j]] = rng.uniform(0.0, 1.0, size=(m[i], clashing[j].size))
            clash = rng.random(block.shape) < PAIR_CLASH_RATE
            block += np.where(clash, rng.uniform(20.0, 50.0, size=block.shape), 0.0)
            a, b = planted[i] - 1, planted[j] - 1
            block[a, :] = rng.uniform(0.0, 1.0, size=m[j])
            block[:, b] = rng.uniform(0.0, 1.0, size=m[i])
            block[a, b] = -2.0
            E[offsets[i] : offsets[i] + m[i], offsets[j] : offsets[j] + m[j]] = block
            E[offsets[j] : offsets[j] + m[j], offsets[i] : offsets[i] + m[i]] = block.T

    energy = canonicalize_energy(E, partition)
    return ScpInstance(partition, energy, f"structured-seed{seed}"), Assignment(planted)
