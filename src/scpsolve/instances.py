"""Side-chain positioning instances.

An instance is a partition of ``n0`` rotamers into ``p`` position blocks
together with a symmetric energy matrix ``E``.  Diagonal entries hold
rotamer/backbone self energies, off-diagonal entries pairwise energies.
Within-block off-diagonal entries are pinned to zero by canonicalization:
the exclusion between rotamers of the same position is carried by the
one-per-block constraint, not by the matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

SYMMETRY_RTOL = 1e-8


class InstanceError(ValueError):
    """Malformed instance data: bad dimensions, asymmetry, or file contents."""


@dataclass(frozen=True)
class RotamerPartition:
    """Grouping of n0 rotamers into p positions; block i holds m[i] rotamers."""

    m: tuple[int, ...]

    def __post_init__(self):
        m = tuple(int(v) for v in self.m)
        if len(m) < 1:
            raise InstanceError("partition needs at least one position")
        if any(v < 1 for v in m):
            raise InstanceError("every block size must be at least 1")
        object.__setattr__(self, "m", m)

    @property
    def p(self) -> int:
        return len(self.m)

    @property
    def n0(self) -> int:
        return sum(self.m)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """0-based column offset of each block in the energy matrix."""
        out, acc = [], 0
        for mi in self.m:
            out.append(acc)
            acc += mi
        return tuple(out)

    def block_slice(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i] + self.m[i])


@dataclass(frozen=True)
class Assignment:
    """One chosen rotamer per position, as 1-based indices within each block."""

    choice: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "choice", tuple(int(c) for c in self.choice))

    def to_indicator(self, partition: RotamerPartition) -> np.ndarray:
        """Expand to the 0/1 vector with a single 1 inside every block."""
        if len(self.choice) != partition.p:
            raise InstanceError("assignment length does not match partition")
        x = np.zeros(partition.n0)
        for off, mi, c in zip(partition.offsets, partition.m, self.choice):
            if not 1 <= c <= mi:
                raise InstanceError(f"choice {c} outside block of size {mi}")
            x[off + c - 1] = 1.0
        return x

    @classmethod
    def from_indicator(cls, x, partition: RotamerPartition) -> "Assignment":
        x = np.asarray(x)
        if x.shape != (partition.n0,):
            raise InstanceError("indicator length does not match partition")
        if not np.all((x == 0) | (x == 1)):
            raise InstanceError("indicator vector must be binary")
        choice = []
        for i in range(partition.p):
            block = x[partition.block_slice(i)]
            ones = np.nonzero(block == 1)[0]
            if len(ones) != 1 or block.sum() != 1:
                raise InstanceError(f"block {i} does not contain exactly one 1")
            choice.append(int(ones[0]) + 1)
        return cls(tuple(choice))


@dataclass(frozen=True, eq=False)
class ScpInstance:
    """A named side-chain positioning instance."""

    partition: RotamerPartition
    energy: np.ndarray = field(repr=False)
    name: str = ""

    def __post_init__(self):
        if self.energy.shape[0] != self.partition.n0:
            raise InstanceError(
                f"energy order {self.energy.shape[0]} != total rotamers {self.partition.n0}"
            )

    def __eq__(self, other):
        if not isinstance(other, ScpInstance):
            return NotImplemented
        return (
            self.name == other.name
            and self.partition == other.partition
            and np.array_equal(self.energy, other.energy)
        )


def canonicalize_energy(raw_matrix, partition: RotamerPartition) -> np.ndarray:
    """Symmetrize a raw energy matrix and zero its within-block off-diagonals.

    The input must be square of order ``partition.n0``, finite, at most
    half the largest float in magnitude, and symmetric within
    ``SYMMETRY_RTOL`` (relative to its largest entry).  The output is a
    read-only array, exactly symmetric (averaged with its transpose); every
    other entry is preserved.
    """
    arr = np.array(raw_matrix, dtype=float)
    n0 = partition.n0
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InstanceError(f"energy matrix must be square, got shape {arr.shape}")
    if arr.shape[0] != n0:
        raise InstanceError(f"energy order {arr.shape[0]} != total rotamers {n0}")
    # NaN would slip through the symmetry comparison below
    if not np.all(np.isfinite(arr)):
        raise InstanceError("energy matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(arr))) if arr.size else 1.0)
    # beyond half the float range, arr - arr.T and arr + arr.T can overflow
    if scale > 0.5 * np.finfo(float).max:
        raise InstanceError("energy magnitude exceeds half the float range")
    if float(np.max(np.abs(arr - arr.T))) > SYMMETRY_RTOL * scale:
        raise InstanceError("energy matrix is asymmetric beyond tolerance")
    sym = 0.5 * (arr + arr.T)
    for i in range(partition.p):
        sl = partition.block_slice(i)
        block = sym[sl, sl]
        sym[sl, sl] = np.diag(np.diag(block))
    sym.flags.writeable = False
    return sym


def objective(x, energy: np.ndarray) -> float:
    """Quadratic energy x'Ex of an indicator vector x.

    Self energies are counted once (diagonal), each cross pair twice
    (symmetry of E).  Computed as the sum of the chosen submatrix, which is
    exact for indicators and independent of the matrix order, so restricting
    an instance to surviving rotamers cannot move the value by an ulp.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (energy.shape[0],):
        raise InstanceError(f"indicator length {x.shape} != energy order {energy.shape[0]}")
    if not np.all((x == 0.0) | (x == 1.0)):
        raise InstanceError("indicator vector must be binary")
    chosen = np.nonzero(x)[0]
    return float(energy[np.ix_(chosen, chosen)].sum())


def is_feasible(x, partition: RotamerPartition) -> bool:
    """True iff x is binary with exactly one 1 in every position block."""
    x = np.asarray(x)
    if x.shape != (partition.n0,):
        raise InstanceError("indicator length does not match partition")
    if not np.all((x == 0) | (x == 1)):
        return False
    for i in range(partition.p):
        if x[partition.block_slice(i)].sum() != 1:
            return False
    return True


def random_instance(p, m_max, energy_range, seed, name=None) -> ScpInstance:
    """Seeded random instance: block sizes uniform in 1..m_max, energies
    i.i.d. uniform on ``energy_range``, then canonicalized."""
    if p < 1 or m_max < 1:
        raise InstanceError("p and m_max must be at least 1")
    lo, hi = float(energy_range[0]), float(energy_range[1])
    if lo > hi:
        raise InstanceError("empty energy range")
    rng = np.random.default_rng(seed)
    m = tuple(int(v) for v in rng.integers(1, m_max + 1, size=p))
    partition = RotamerPartition(m)
    raw = rng.uniform(lo, hi, size=(partition.n0, partition.n0))
    # the i.i.d. draw is not symmetric; averaging is the first half of the
    # canonical transform, applied here so the symmetry gate passes
    energy = canonicalize_energy(0.5 * (raw + raw.T), partition)
    if name is None:
        name = f"random-p{p}-mmax{m_max}-seed{seed}"
    return ScpInstance(partition, energy, name)


def serialize_instance(inst: ScpInstance) -> str:
    """Render an instance as a one-line JSON document (lossless floats)."""
    doc = {
        "name": inst.name,
        "p": inst.partition.p,
        "m": list(inst.partition.m),
        "E": inst.energy.tolist(),
    }
    return json.dumps(doc) + "\n"


def parse_instance(text: str) -> ScpInstance:
    """Parse the JSON instance format; the matrix is re-canonicalized."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"not valid instance JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    for key in ("name", "p", "m", "E"):
        if key not in doc:
            raise InstanceError(f"instance document missing field {key!r}")
    name = doc["name"]
    p, m, E = doc["p"], doc["m"], doc["E"]
    if not isinstance(name, str):
        raise InstanceError("field 'name' must be a string")
    if not isinstance(p, int) or isinstance(p, bool):
        raise InstanceError("field 'p' must be an integer")
    if not isinstance(m, list) or len(m) != p:
        raise InstanceError("field 'm' must be a list of p block sizes")
    if any(not isinstance(v, int) or isinstance(v, bool) for v in m):
        raise InstanceError("block sizes must be integers")
    partition = RotamerPartition(tuple(m))
    if not isinstance(E, list) or len(E) != partition.n0:
        raise InstanceError(f"field 'E' must be a {partition.n0}-row matrix")
    if any(not isinstance(row, list) or len(row) != partition.n0 for row in E):
        raise InstanceError("field 'E' must be square")
    # numpy would convert strings ("3.5") and booleans to floats
    if not set().union(*(map(type, row) for row in E)) <= {int, float}:
        raise InstanceError("field 'E' must contain only numbers")
    try:
        entries = np.array(E, dtype=float)
    except OverflowError as exc:
        raise InstanceError(f"field 'E' has an entry too large for a float: {exc}") from exc
    energy = canonicalize_energy(entries, partition)
    return ScpInstance(partition, energy, name)


def save_instance(inst: ScpInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(inst))


def load_instance(path) -> ScpInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())
