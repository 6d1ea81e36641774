import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import (
    DERIVED_E,
    feasible_indicators,
    make_instance,
    reference_canonicalize_energy,
    reference_parse_instance,
    reference_serialize_instance,
    row_sum_matrix,
)
from perfbench.structured import structured_instance
from scpsolve import (
    Assignment,
    InstanceError,
    RotamerPartition,
    ScpInstance,
    canonicalize_energy,
    is_feasible,
    load_instance,
    objective,
    parse_instance,
    random_instance,
    save_instance,
    serialize_instance,
)


class TestPartition:
    def test_offsets_and_sizes(self):
        part = RotamerPartition((2, 3, 1))
        assert part.p == 3
        assert part.n0 == 6
        assert part.offsets == (0, 2, 5)

    def test_rejects_empty_and_zero_blocks(self):
        with pytest.raises(InstanceError):
            RotamerPartition(())
        with pytest.raises(InstanceError):
            RotamerPartition((2, 0))

    def test_rejects_fractional_size(self):
        with pytest.raises(InstanceError):
            RotamerPartition((2.5, 3))

    def test_rejects_string_size(self):
        with pytest.raises(InstanceError):
            RotamerPartition(("3",))

    def test_rejects_boolean_size(self):
        with pytest.raises(InstanceError):
            RotamerPartition((True, 2))
        with pytest.raises(InstanceError):
            RotamerPartition((np.True_, 2))

    def test_rejects_nan_size(self):
        with pytest.raises(InstanceError):
            RotamerPartition((math.nan, 2))

    def test_accepts_numpy_integers_as_python_ints(self):
        part = RotamerPartition((np.int64(2), np.int32(3)))
        assert part.m == (2, 3)
        assert all(type(v) is int for v in part.m)


class TestCanonicalize:
    def test_zeroes_within_block(self):
        part = RotamerPartition((2,))
        energy = canonicalize_energy(np.array([[1.0, 5.0], [5.0, 3.0]]), part)
        assert np.array_equal(energy, [[1.0, 0.0], [0.0, 3.0]])
        assert not energy.flags.writeable

    def test_zeroes_exactly_the_off_diagonal_support_of_AtA(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            p = int(rng.integers(1, 9))
            part = RotamerPartition(tuple(int(v) for v in rng.integers(1, 7, size=p)))
            raw = rng.normal(size=(part.n0, part.n0))
            sym = 0.5 * (raw + raw.T)
            energy = canonicalize_energy(sym, part)
            A = row_sum_matrix(part)
            within = (A.T @ A != 0) & ~np.eye(part.n0, dtype=bool)
            assert np.array_equal(part.same_block, within)
            assert np.all(energy[within] == 0.0)
            assert not np.any(np.signbit(energy[within]))
            # every other entry is kept bit for bit
            assert energy[~within].tobytes() == sym[~within].tobytes()

    def test_identity_unchanged(self):
        part = RotamerPartition((2, 3))
        energy = canonicalize_energy(np.eye(5), part)
        assert np.array_equal(energy, np.eye(5))

    def test_all_sevens_block_enumeration(self):
        part = RotamerPartition((2, 2))
        energy = canonicalize_energy(np.full((4, 4), 7.0), part)
        # enumerate the block structure directly
        within = {(0, 1), (1, 0), (2, 3), (3, 2)}
        for r in range(4):
            for c in range(4):
                expected = 0.0 if (r, c) in within else 7.0
                assert energy[r, c] == expected

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        part = RotamerPartition((3, 2, 4))
        raw = rng.normal(size=(9, 9))
        once = canonicalize_energy(0.5 * (raw + raw.T), part)
        twice = canonicalize_energy(once, part)
        assert np.array_equal(once, twice)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InstanceError):
            canonicalize_energy(np.eye(3), RotamerPartition((2, 2)))

    def test_rejects_asymmetry(self):
        raw = np.array([[0.0, 1.0], [1.0 + 1e-3, 0.0]])
        with pytest.raises(InstanceError):
            canonicalize_energy(raw, RotamerPartition((2,)))

    def test_tolerates_tiny_asymmetry(self):
        raw = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
        energy = canonicalize_energy(raw, RotamerPartition((1, 1)))
        assert np.array_equal(energy, energy.T)

    def test_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(29)
        for trial in range(60):
            p = int(rng.integers(1, 8))
            part = RotamerPartition(tuple(int(v) for v in rng.integers(1, 6, size=p)))
            n0 = part.n0
            scale = 10.0 ** rng.integers(-3, 300)
            sym = rng.normal(size=(n0, n0)) * scale
            sym = sym + sym.T
            # asymmetry around the tolerance, signed zeros and integer input
            raw = sym * (1.0 + rng.choice([0.0, 1e-12, 1e-9, 1e-7]) * rng.normal(size=(n0, n0)))
            raw[rng.random((n0, n0)) < 0.2] = -0.0
            if trial % 5 == 0:
                raw = np.rint(raw / scale).astype(int)
            before = raw.copy()
            try:
                expected = reference_canonicalize_energy(raw, part)
            except InstanceError as exc:
                with pytest.raises(InstanceError, match=re.escape(str(exc))):
                    canonicalize_energy(raw, part)
            else:
                energy = canonicalize_energy(raw, part)
                assert energy.tobytes() == expected.tobytes()
                assert not energy.flags.writeable
            assert raw.tobytes() == before.tobytes()  # the input is never written


class TestObjective:
    def test_zero_vector(self, derived_instance):
        assert objective(np.zeros(4), derived_instance.energy) == 0.0

    def test_single_rotamer(self):
        inst = make_instance((1,), [[4.5]])
        assert objective([1], inst.energy) == 4.5

    def test_derived_instance_exhaustive(self, derived_instance):
        # independent evaluation: self energies once, cross pairs twice
        E = DERIVED_E
        expected = {}
        for c1 in range(2):
            for c2 in range(2):
                u, v = c1, 2 + c2
                expected[(c1 + 1, c2 + 1)] = E[u, u] + E[v, v] + 2 * E[u, v]
        assert sorted(expected.values()) == [6.0, 7.0, 12.0, 13.0]
        for choice, value in expected.items():
            x = Assignment(choice).to_indicator(derived_instance.partition)
            assert objective(x, derived_instance.energy) == value

    def test_matches_pair_sum_on_random_instances(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            p = int(rng.integers(1, 5))
            inst = random_instance(p, 4, (-5, 5), seed=100 + trial)
            part, E = inst.partition, inst.energy
            choice = [int(rng.integers(mi)) for mi in part.m]
            chosen = [off + c for off, c in zip(part.offsets, choice)]
            direct = sum(E[u, u] for u in chosen)
            direct += 2 * sum(
                E[u, v] for i, u in enumerate(chosen) for v in chosen[i + 1 :]
            )
            x = np.zeros(part.n0)
            x[chosen] = 1.0
            assert objective(x, inst.energy) == pytest.approx(direct, abs=1e-12)
            # and against the plain quadratic form
            assert objective(x, inst.energy) == pytest.approx(
                float(x @ E @ x), abs=1e-12
            )

    def test_length_mismatch(self, derived_instance):
        with pytest.raises(InstanceError):
            objective(np.zeros(5), derived_instance.energy)

    def test_rejects_fractional_vector(self, derived_instance):
        with pytest.raises(InstanceError):
            objective([0.5, 0.5, 0.0, 1.0], derived_instance.energy)


class TestFeasibility:
    part = RotamerPartition((2, 2))

    def test_one_per_block(self):
        assert is_feasible([1, 0, 0, 1], self.part)

    def test_two_picks_in_first_block(self):
        assert not is_feasible([1, 1, 0, 1], self.part)

    def test_empty_first_block(self):
        assert not is_feasible([0, 0, 1, 0], self.part)

    def test_rejects_fractional(self):
        assert not is_feasible([0.5, 0.5, 1, 0], self.part)

    def test_feasible_count_is_product_of_block_sizes(self):
        # exhaustive over all binary vectors
        for m in [(2, 3, 2), (1, 4), (3, 3)]:
            part = RotamerPartition(m)
            count = 0
            for bits in range(2**part.n0):
                x = [(bits >> k) & 1 for k in range(part.n0)]
                count += is_feasible(x, part)
            expected = int(np.prod(m))
            assert count == expected
            enumerated = sum(1 for _ in feasible_indicators(part))
            assert enumerated == expected


class TestAssignment:
    def test_indicator_round_trip(self):
        part = RotamerPartition((3, 1, 2))
        for x in feasible_indicators(part):
            a = Assignment.from_indicator(x, part)
            assert np.array_equal(a.to_indicator(part), x)

    def test_rejects_out_of_range_choice(self):
        with pytest.raises(InstanceError):
            Assignment((3,)).to_indicator(RotamerPartition((2,)))

    def test_rejects_fractional_choice(self):
        with pytest.raises(InstanceError):
            Assignment((1.7, 2))
        assert Assignment((np.int64(1), 2)).choice == (1, 2)

    def test_rejects_infeasible_indicator(self):
        part = RotamerPartition((2,))
        # two picks, non-binary, wrong length
        for x in ([1, 1], [0.5, 0.5], [1, 0, 1]):
            with pytest.raises(InstanceError):
                Assignment.from_indicator(x, part)


class TestScpInstance:
    partition = RotamerPartition((2, 2))

    def test_rejects_a_single_column(self):
        with pytest.raises(InstanceError):
            ScpInstance(self.partition, np.zeros((4, 1)))

    def test_rejects_a_three_dimensional_energy(self):
        with pytest.raises(InstanceError):
            ScpInstance(self.partition, np.zeros((4, 4, 1)))

    def test_rejects_non_finite_energy(self):
        with pytest.raises(InstanceError):
            ScpInstance(self.partition, np.full((4, 4), math.nan))
        energy = np.zeros((4, 4))
        energy[1, 2] = energy[2, 1] = math.inf
        with pytest.raises(InstanceError):
            ScpInstance(self.partition, energy)

    def test_rejects_an_energy_that_is_not_an_array(self):
        with pytest.raises(InstanceError):
            ScpInstance(self.partition, [[0.0] * 4] * 4)


class TestRandomInstance:
    def test_trivial_zero_instance(self):
        inst = random_instance(1, 1, (0.0, 0.0), seed=5)
        assert inst.partition.m == (1,)
        assert np.array_equal(inst.energy, [[0.0]])

    def test_deterministic_for_fixed_seed(self):
        a = random_instance(4, 3, (-2, 2), seed=99)
        b = random_instance(4, 3, (-2, 2), seed=99)
        assert a == b

    def test_zero_count_matches_block_structure(self):
        inst = random_instance(3, 4, (-10, 10), seed=42)
        m = inst.partition.m
        expected_zeros = sum(mi * (mi - 1) for mi in m)
        assert int(np.sum(inst.energy == 0.0)) == expected_zeros

    def test_rejects_bad_arguments(self):
        with pytest.raises(InstanceError):
            random_instance(0, 3, (-1, 1), seed=1)
        with pytest.raises(InstanceError):
            random_instance(2, 3, (1, -1), seed=1)

    def test_rejects_range_beyond_half_the_float_range(self):
        # numpy's uniform draw fails on an infinite or NaN end or width,
        # and symmetrizing overflows on entries near the float maximum
        inf, nan = math.inf, math.nan
        for bad in ((0, inf), (-inf, 0), (nan, nan), (0, nan), (-1e308, 1e308), (1e308, 1e308)):
            with pytest.raises(InstanceError, match="energy range"):
                random_instance(3, 3, bad, seed=1)


def instance_document(**fields):
    """A valid one-line document of a 3-rotamer instance in two blocks,
    with ``fields`` replacing or adding keys (a value is inserted as its
    raw JSON text)."""
    parts = {"name": '"doc"', "p": "2", "m": "[2, 1]", "E": "[[1.5, 9, -2], [9, 0, 0.25], [-2, 0.25, 3]]"}
    parts.update(fields)
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in parts.items()) + "}"


VALID = instance_document()
ROWS = "[[1.5, 9, -2], [9, 0, 0.25], [-2, 0.25, 3]]"
# every document is parsed by both readers; they must agree on each
DOCUMENTS = {
    "one line": VALID,
    "pretty": json.dumps(json.loads(VALID), indent=2),
    "reordered keys": '{"E": ' + ROWS + ', "m": [2, 1], "name": "doc", "p": 2}',
    "tabs and CRLF": VALID.replace(", ", ",\t\r\n").replace(": ", "\r\n:\t").replace("[", "[\r\n"),
    "outer whitespace": " \t\r\n" + VALID + "\n\t ",
    "no whitespace": VALID.replace(" ", ""),
    "extra keys": instance_document(note='"x"', meta='{"E": [[1, 2]], "p": 7}', more="[1, null, true]"),
    "escaped keys": VALID.replace('"E"', '"\\u0045"').replace('"name"', '"n\\u0061me"'),
    "escaped name": instance_document(name='"\\u00e9\\n\\"x\\""'),
    "duplicate E, last valid": '{"E": [["x"]], ' + VALID[1:],
    "duplicate E, first overflows": '{"E": [[' + "1" * 400 + "]], " + VALID[1:],
    "duplicate E, last bad": VALID[:-1] + ', "E": [[1, 2, 3], [4, 5, 6]]}',
    "duplicate E, last not a list": VALID[:-1] + ', "E": 5}',
    "duplicate E, last empty": VALID[:-1] + ', "E": []}',
    "E not a list": instance_document(E='"rows"'),
    "E an object": instance_document(E='{"0": [1]}'),
    "E empty": instance_document(E="[]"),
    "E of empty rows": instance_document(E="[[], [], []]"),
    "E ragged": instance_document(E="[[1, 9, -2], [9, 0], [-2, 0.25, 3]]"),
    "E too many rows": instance_document(E="[[1, 9, -2], [9, 0, 0], [-2, 0, 3], [0, 0, 0]]"),
    "E row a number": instance_document(E="[[1, 9, -2], 7, [-2, 0.25, 3]]"),
    "E row a string": instance_document(E='[[1, 9, -2], "abc", [-2, 0.25, 3]]'),
    "E row an object": instance_document(E='[[1, 9, -2], {"a": 1, "b": 2, "c": 3}, [-2, 0.25, 3]]'),
    "E row null": instance_document(E="[[1, 9, -2], null, [-2, 0.25, 3]]"),
    "E nested row": instance_document(E="[[1, 9, -2], [9, [0], 0.25], [-2, 0.25, 3]]"),
    "E integer entries": instance_document(E="[[1, 9, -2], [9, 0, 4], [-2, 4, 3]]"),
    "E signed zeros": instance_document(E="[[-0.0, 9, -0], [9, -0.0, 0.0], [-0, 0.0, 1e-320]]"),
    "E asymmetric": instance_document(E="[[1, 9, -2], [9.5, 0, 0], [-2, 0, 3]]"),
    "E string and overflow": instance_document(E='[[1, 9, -2], [9, 0, "x"], [-2, 0, ' + "9" * 400 + "]]"),
    "E overflow then string": instance_document(E='[[1, 9, ' + "9" * 400 + '], [9, 0, "x"], [-2, 0, 3]]'),
    "E two overflows": instance_document(E="[[1, 9, -" + "9" * 400 + "], [9, 0, 0], [" + "9" * 400 + ", 0, 3]]"),
    "E huge float": instance_document(E="[[1, 9, -2], [9, 0, 0], [-2, 0, 1" + "0" * 400 + ".0]]"),
    "E half the float range": instance_document(E="[[1, 1.7e308, 0], [1.7e308, 0, 0], [0, 0, 3]]"),
    "deep nesting in a row": instance_document(E="[[1, 9, " + "[" * 100_000 + "]" * 100_000 + "], [9, 0, 0], [-2, 0, 3]]"),
    "deep nesting in an extra key": instance_document(x="[" * 100_000 + "]" * 100_000),
    # json.loads accepts both; a reader that scans nested values in Python
    # frames, not in C, runs out of recursion depth on them
    "object nested 500 deep in an extra key": instance_document(x='{"a": ' * 500 + "1" + "}" * 500),
    "array nested 500 deep in an extra key": instance_document(x="[" * 500 + "]" * 500),
    "trailing comma in object": VALID[:-1] + ", }",
    "trailing comma in E": instance_document(E=ROWS[:-1] + ", ]"),
    "trailing comma in a row": instance_document(E="[[1.5, 9, -2, ], [9, 0, 0.25], [-2, 0.25, 3]]"),
    "missing comma between rows": instance_document(E="[[1.5, 9, -2] [9, 0, 0.25], [-2, 0.25, 3]]"),
    "missing comma between keys": VALID.replace(', "p"', ' "p"'),
    "missing colon": VALID.replace('"p": ', '"p" '),
    "unquoted key": VALID.replace('"p"', "p"),
    "unterminated E": VALID[:-3],
    "unterminated name": '{"name": "doc',
    "control character in name": instance_document(name='"a\tb"'),
    "single quotes": VALID.replace('"', "'"),
    "trailing garbage": VALID + " x",
    "two documents": VALID + VALID,
    "BOM": "\ufeff" + VALID,
    "empty text": "",
    "only whitespace": " \n",
    "top level array": "[" + VALID + "]",
    "top level number": "3",
    "top level string": '"doc"',
    "top level null": "null",
    "deep array": "[" * 100_000 + "]" * 100_000,
    "deep object": '{"a": ' * 100_000 + "}" * 100_000,
    "empty object": "{}",
    "missing E": '{"name": "doc", "p": 2, "m": [2, 1]}',
    "name not a string": instance_document(name="3"),
    "p a bool": instance_document(p="true"),
    "m wrong length": instance_document(m="[2, 1, 1]"),
    "m a bool": instance_document(m="[true, 2]"),
    "m zero block": instance_document(p="3", m="[2, 1, 0]"),
}
for entry in ("true", "false", '"3.5"', "null", "NaN", "Infinity", "-Infinity", "1" + "0" * 400, "-" + "1" * 400, "1e400", "[3]", "{}"):
    DOCUMENTS[f"E entry {entry[:12]}"] = instance_document(E=f"[[1, 9, -2], [9, {entry}, 0.25], [-2, 0.25, 3]]")
# json.loads also takes bytes in any UTF encoding, a BOM included
for key in ("one line", "pretty", "BOM", "trailing garbage", "E entry NaN"):
    DOCUMENTS[f"{key}, UTF-8 bytes"] = DOCUMENTS[key].encode("utf-8")
DOCUMENTS["UTF-16 bytes"] = VALID.encode("utf-16")


def parse_outcome(parse, text):
    """What a reader makes of ``text``: the instance's name, block sizes and
    energy bytes, or the ``InstanceError`` message.  Messages from the JSON
    decoder itself differ between Python versions, so only their kind is
    kept."""
    try:
        inst = parse(text)
    except InstanceError as exc:
        message = str(exc)
        return "not valid instance JSON" if message.startswith("not valid instance JSON") else message
    return inst.name, inst.partition.m, inst.energy.dtype, inst.energy.tobytes()


class TestMatchesReference:
    @pytest.mark.parametrize("text", DOCUMENTS.values(), ids=DOCUMENTS.keys())
    def test_parse_matches_reference(self, text):
        assert parse_outcome(parse_instance, text) == parse_outcome(reference_parse_instance, text)

    def test_documents_cover_both_outcomes(self):
        accepted = [k for k, text in DOCUMENTS.items() if not isinstance(parse_outcome(parse_instance, text), str)]
        assert "one line" in accepted and "duplicate E, last valid" in accepted
        assert "BOM" not in accepted and "trailing comma in E" not in accepted
        assert len(DOCUMENTS) - len(accepted) > 50

    def test_written_bytes_match_reference(self, tmp_path):
        instances = [structured_instance(seed)[0] for seed in (1000, 1001)]
        instances += [random_instance(p, 5, (-1e3, 1e3), seed=seed) for seed, p in enumerate((1, 3, 8))]
        instances.append(make_instance((2, 1), [[1, 9, -2], [9, 0, 4], [-2, 4, 3]], name="\u00e9 \"q\""))
        instances.append(ScpInstance(RotamerPartition((2, 1)), np.array([[1, 0, -2], [0, 0, 4], [-2, 4, 3]]), "ints"))
        for k, inst in enumerate(instances):
            path = tmp_path / f"{k}.json"
            save_instance(inst, path)
            expected = reference_serialize_instance(inst)
            assert path.read_bytes() == expected.encode("utf-8")
            assert serialize_instance(inst) == expected
            assert parse_outcome(parse_instance, expected) == parse_outcome(reference_parse_instance, expected)


def traced_peak(action) -> int:
    """Peak bytes that ``action()`` allocates, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInstanceIOMemory:
    """Reading and writing a file hold one row of E at a time, never a
    Python float per energy: the bounds are in units of one n0 x n0 float
    matrix (n0 = 630, 3.2 MB)."""

    @pytest.fixture(scope="class")
    def structured(self):
        return structured_instance(1000)[0]

    def test_parse_peak(self, structured):
        text = serialize_instance(structured)
        matrix = structured.partition.n0**2 * 8
        assert traced_peak(lambda: parse_instance(text)) < 5 * matrix

    def test_save_peak(self, structured, tmp_path):
        matrix = structured.partition.n0**2 * 8
        assert traced_peak(lambda: save_instance(structured, tmp_path / "s.json")) < matrix


class TestInstanceIO:
    def test_round_trip(self, derived_instance):
        text = serialize_instance(derived_instance)
        assert parse_instance(text) == derived_instance

    def test_round_trip_random(self):
        inst = random_instance(4, 4, (-10, 10), seed=17)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_rejects_size_mismatch(self, derived_instance):
        text = serialize_instance(derived_instance)
        broken = text.replace('"m": [2, 2]', '"m": [2, 3]')
        with pytest.raises(InstanceError):
            parse_instance(broken)

    def test_rejects_asymmetric_matrix(self):
        doc = '{"name": "bad", "p": 1, "m": [2], "E": [[0.0, 1.0], [2.0, 0.0]]}'
        with pytest.raises(InstanceError):
            parse_instance(doc)

    def test_rejects_malformed_json(self):
        with pytest.raises(InstanceError):
            parse_instance("not json at all {")

    def test_rejects_an_integer_beyond_the_digit_limit(self):
        # where Python limits the digits of an int (3.11 on, 4300 by
        # default) json.loads raises a bare ValueError on a longer literal;
        # before that an integer field or entry this long is still refused
        digits = "7" * 5000
        for doc in (instance_document(p=digits), instance_document(E=f"[[1, 9, -2], [9, {digits}, 0.25], [-2, 0.25, 3]]")):
            with pytest.raises(InstanceError):
                parse_instance(doc)
        extra = instance_document(x=digits)
        if hasattr(sys, "get_int_max_str_digits"):
            with pytest.raises(InstanceError, match="not valid instance JSON"):
                parse_instance(extra)
        else:
            assert parse_instance(extra).name == "doc"

    def test_load_rejects_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(VALID.replace('"doc"', '"d\xff"').encode("latin-1"))
        with pytest.raises(InstanceError, match="not UTF-8"):
            load_instance(path)

    def test_rejects_deeply_nested_json(self):
        for text in ("[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000 + "}" * 100_000):
            with pytest.raises(InstanceError, match="nested too deeply"):
                parse_instance(text)

    def test_rejects_missing_fields(self):
        with pytest.raises(InstanceError):
            parse_instance('{"name": "x", "p": 1, "m": [1]}')

    def test_rejects_nonsquare_matrix(self):
        doc = '{"name": "bad", "p": 1, "m": [2], "E": [[0.0, 1.0]]}'
        with pytest.raises(InstanceError):
            parse_instance(doc)

    def test_rejects_nonnumeric_entries(self):
        # strings and booleans would otherwise be read as floats; a huge
        # integer overflows the conversion to float
        for entry in ('"x"', '"3.5"', '" 2 "', "true", "NaN", "Infinity", "-Infinity", "1" + "0" * 400):
            doc = f'{{"name": "bad", "p": 1, "m": [1], "E": [[{entry}]]}}'
            with pytest.raises(InstanceError):
                parse_instance(doc)

    def test_rejects_energies_that_overflow_when_symmetrized(self):
        # each entry is finite, but their sum in 0.5 * (E + E') is not
        doc = '{"name": "bad", "p": 2, "m": [1, 1], "E": [[0.0, 1.7e308], [1.7e308, 0.0]]}'
        with pytest.raises(InstanceError, match="half the float range"):
            parse_instance(doc)

    def test_accepts_energy_at_half_the_float_range(self):
        limit = float(0.5 * np.finfo(float).max)
        doc = f'{{"name": "edge", "p": 2, "m": [1, 1], "E": [[0.0, {limit!r}], [{-limit!r}, 0.0]]}}'
        with pytest.raises(InstanceError, match="asymmetric"):
            parse_instance(doc)
        doc = f'{{"name": "edge", "p": 2, "m": [1, 1], "E": [[0.0, {limit!r}], [{limit!r}, 0.0]]}}'
        assert parse_instance(doc).energy[0, 1] == limit
