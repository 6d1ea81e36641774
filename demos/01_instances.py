#!/usr/bin/env python3
# Building side-chain positioning instances: partitions, energy matrices,
# canonicalization, feasibility, and the instance file format.

import numpy as np

from scpsolve import (
    Assignment,
    RotamerPartition,
    ScpInstance,
    canonicalize_energy,
    is_feasible,
    objective,
    parse_instance,
    random_instance,
    serialize_instance,
)

# Two positions with two candidate rotamers each.  Diagonal entries are
# rotamer/backbone self energies; off-diagonal entries are pair energies.
partition = RotamerPartition((2, 2))
raw = np.array(
    [
        [1.0, 9.0, 5.0, 2.0],   # the 9s sit inside a block and will be zeroed:
        [9.0, 3.0, 1.0, 4.0],   # two rotamers of one position never co-occur
        [5.0, 1.0, 2.0, 0.0],
        [2.0, 4.0, 0.0, 1.0],
    ]
)
energy = canonicalize_energy(raw, partition)
print("canonical energy matrix:")
print(energy)

instance = ScpInstance(partition, energy, name="demo-2x2")

# Feasible selections pick exactly one rotamer per block.
print("\nfeasible?", is_feasible([1, 0, 0, 1], partition))   # True
print("feasible?", is_feasible([1, 1, 0, 0], partition))     # False, two picks

# Energies of all four selections; the best one picks rotamer 1 then 2.
for c1 in (1, 2):
    for c2 in (1, 2):
        x = Assignment((c1, c2)).to_indicator(partition)
        print(f"choice ({c1}, {c2}) -> energy {objective(x, energy):g}")

# Instances serialize to a single-line JSON document and round-trip exactly.
text = serialize_instance(instance)
print("\nserialized:", text.strip()[:80], "...")
assert parse_instance(text) == instance

# Seeded generation is deterministic: same seed, same instance.
a = random_instance(p=3, m_max=4, energy_range=(-10, 10), seed=42)
b = random_instance(p=3, m_max=4, energy_range=(-10, 10), seed=42)
assert a == b
print("random instance block sizes:", a.partition.m, "n0 =", a.partition.n0)
