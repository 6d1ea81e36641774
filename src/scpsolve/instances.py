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
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

SYMMETRY_RTOL = 1e-8

# the types a JSON number decodes to; bool is an int subclass but not one of them
_NUMBER_TYPES = frozenset((int, float))
# the standard scanner (C where built); every nested value stays on it
_SCAN = json.JSONDecoder().scan_once


class InstanceError(ValueError):
    """Malformed instance data: bad dimensions, asymmetry, or file contents."""


def _as_integers(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of Python ints.  Each must be an integer
    (numpy's included) and not a bool; anything else, a float with an
    integral value included, raises ``InstanceError``."""
    try:
        values = tuple(values)
        if not any(isinstance(v, bool) for v in values):
            return tuple(operator.index(v) for v in values)
    except TypeError:
        pass
    raise InstanceError(f"{what} must be integers, got {values!r}")


@dataclass(frozen=True)
class RotamerPartition:
    """Grouping of n0 rotamers into p positions; block i holds m[i] rotamers."""

    m: tuple[int, ...]

    def __post_init__(self):
        m = _as_integers(self.m, "block sizes")
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

    @cached_property
    def block_table(self) -> np.ndarray:
        """p x max(m) index array: row i holds block i's indices in order,
        padded with n0, one past the last rotamer."""
        columns = np.arange(max(self.m))
        table = np.asarray(self.offsets)[:, None] + columns
        table[columns >= np.asarray(self.m)[:, None]] = self.n0
        table.flags.writeable = False
        return table

    @cached_property
    def block_index(self) -> np.ndarray:
        """Length-n0 read-only array: the 0-based block of each rotamer."""
        block = np.repeat(np.arange(self.p), self.m)
        block.flags.writeable = False
        return block

    @property
    def same_block(self) -> np.ndarray:
        """n0 x n0 boolean mask of the pairs of distinct rotamers at one
        position: the off-diagonal support of A'A, with A the one-per-block
        row-sum matrix.  Built on each access rather than cached, because
        each instance reads it once or twice and a cache would keep n0^2
        bytes alive beside every partition."""
        block = self.block_index
        mask = block[:, None] == block[None, :]
        np.fill_diagonal(mask, False)
        return mask


@dataclass(frozen=True)
class Assignment:
    """One chosen rotamer per position, as 1-based indices within each block."""

    choice: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "choice", _as_integers(self.choice, "choices"))

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
        """Read the choices off a feasible indicator (see ``is_feasible``);
        any other vector raises ``InstanceError``."""
        if not is_feasible(x, partition):
            raise InstanceError("indicator vector is not binary with one 1 per block")
        return cls(tuple(np.flatnonzero(x) - partition.offsets + 1))


@dataclass(frozen=True, eq=False)
class ScpInstance:
    """A named side-chain positioning instance."""

    partition: RotamerPartition
    energy: np.ndarray = field(repr=False)
    name: str = ""

    def __post_init__(self):
        energy, n0 = self.energy, self.partition.n0
        if not (
            isinstance(energy, np.ndarray)
            and energy.shape == (n0, n0)
            and energy.dtype.kind in "fiu"
            and np.isfinite(energy).all()
        ):
            raise InstanceError(f"energy must be a finite real {n0} x {n0} array")

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
    read-only array, exactly symmetric (averaged with its transpose), with
    the entries under ``partition.same_block`` set to +0.0; every other
    entry is preserved.
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
    scale = max(1.0, float(arr.max()), -float(arr.min()))
    # beyond half the float range, arr - arr.T and arr + arr.T can overflow
    if scale > 0.5 * np.finfo(float).max:
        raise InstanceError("energy magnitude exceeds half the float range")
    asymmetry = arr - arr.T
    np.abs(asymmetry, out=asymmetry)
    if float(asymmetry.max()) > SYMMETRY_RTOL * scale:
        raise InstanceError("energy matrix is asymmetric beyond tolerance")
    del asymmetry
    # (arr + arr.T) * 0.5 is 0.5 * (arr + arr.T) bit for bit: IEEE products commute
    sym = arr + arr.T
    sym *= 0.5
    sym[partition.same_block] = 0.0
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
    """True iff x is binary with exactly one 1 in every position block; a
    vector of the wrong length raises ``InstanceError``."""
    x = np.asarray(x)
    if x.shape != (partition.n0,):
        raise InstanceError("indicator length does not match partition")
    if not np.all((x == 0) | (x == 1)):
        return False
    return bool(np.all(np.add.reduceat(x, partition.offsets) == 1))


def random_instance(p, m_max, energy_range, seed, name=None) -> ScpInstance:
    """Seeded random instance: block sizes uniform in 1..m_max, energies
    i.i.d. uniform on ``energy_range``, then canonicalized.  Both ends of
    the range must be finite and at most half the largest float in
    magnitude, as ``canonicalize_energy`` requires of the entries."""
    if p < 1 or m_max < 1:
        raise InstanceError("p and m_max must be at least 1")
    lo, hi = float(energy_range[0]), float(energy_range[1])
    # a finite width for numpy's uniform draw, and no overflow in the
    # symmetrization below (NaN fails the comparison too)
    limit = 0.5 * np.finfo(float).max
    if not (abs(lo) <= limit and abs(hi) <= limit):
        raise InstanceError("energy range must be finite and within half the float range")
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


def instance_chunks(inst: ScpInstance):
    """The one-line JSON document of an instance, in pieces: the fields
    before ``E``, then one row of ``E`` at a time.  Joined, the pieces are
    ``json.dumps`` of the whole document plus a newline, byte for byte, so
    a writer never holds more than one row's text."""
    head = json.dumps({"name": inst.name, "p": inst.partition.p, "m": list(inst.partition.m)})
    yield head[:-1] + ', "E": ['
    separator = ""
    for row in inst.energy:
        yield separator + json.dumps(row.tolist())
        separator = ", "
    yield "]}\n"


def serialize_instance(inst: ScpInstance) -> str:
    """Render an instance as a one-line JSON document (lossless floats)."""
    return "".join(instance_chunks(inst))


def _scan_row(text: str, idx: int):
    """Scan one element of an array value of the top-level object with the
    standard scanner: a list of JSON numbers that all fit a float becomes a
    float64 array, anything else is returned as decoded, for
    ``parse_instance``'s checks to judge if its ``E`` is the one that counts."""
    row, idx = _SCAN(text, idx)
    if isinstance(row, list) and set(map(type, row)) <= _NUMBER_TYPES:
        try:
            return np.array(row, dtype=float), idx
        except OverflowError:
            pass
    return row, idx


def _scan_field(text: str, idx: int):
    """Scan one value of the top-level object: an array one ``_scan_row``
    at a time, anything else with the standard scanner."""
    if text[idx : idx + 1] == "[":
        return json.decoder.JSONArray((text, idx + 1), _scan_row)
    return _SCAN(text, idx)


def _scan_document(text: str, idx: int):
    """Scan the top-level value: an object one ``_scan_field`` at a time,
    anything else with the standard scanner."""
    if text[idx : idx + 1] == "{":
        return json.decoder.JSONObject((text, idx + 1), True, _scan_field, None, None, {})
    return _SCAN(text, idx)


class _RowDecoder(json.JSONDecoder):
    """``json.JSONDecoder`` with ``_scan_document`` as its value scanner."""

    def __init__(self):
        super().__init__()
        self.scan_once = _scan_document


def parse_instance(text: str) -> ScpInstance:
    """Parse the JSON instance format; the matrix is re-canonicalized.

    ``json.loads`` runs the standard library's object and array parsers on
    the top-level object and its array values, and the standard scanner on
    every other value, so ``E`` is read one row at a time (each row of
    numbers becomes a float64 array as soon as it is scanned) and a document
    is accepted or rejected as ``json.loads`` alone does it.  One difference:
    a row is scanned a few Python frames deeper, so nesting inside a row of
    ``E`` is "nested too deeply" a few levels sooner (past 985 levels, not
    989, on Python 3.11 at the default recursion limit).  Invalid JSON, an
    integer longer than Python's int-string limit included, raises
    ``InstanceError``."""
    try:
        doc = json.loads(text, cls=_RowDecoder)
    except ValueError as exc:
        raise InstanceError(f"not valid instance JSON: {exc}") from exc
    except RecursionError as exc:
        raise InstanceError("instance JSON is nested too deeply") from exc
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
    if any(not isinstance(row, (list, np.ndarray)) or len(row) != partition.n0 for row in E):
        raise InstanceError("field 'E' must be square")
    # numpy would convert strings ("3.5") and booleans to floats
    if not all(isinstance(row, np.ndarray) or set(map(type, row)) <= _NUMBER_TYPES for row in E):
        raise InstanceError("field 'E' must contain only numbers")
    try:
        entries = np.array(E, dtype=float)
    except OverflowError as exc:
        raise InstanceError(f"field 'E' has an entry too large for a float: {exc}") from exc
    del doc, E
    return ScpInstance(partition, canonicalize_energy(entries, partition), name)


def save_instance(inst: ScpInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(instance_chunks(inst))


def load_instance(path) -> ScpInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InstanceError(f"instance file is not UTF-8: {exc}") from exc
    return parse_instance(text)
