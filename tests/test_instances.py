import numpy as np
import pytest

from conftest import DERIVED_E, feasible_indicators, make_instance
from scpsolve import (
    Assignment,
    InstanceError,
    RotamerPartition,
    canonicalize_energy,
    is_feasible,
    objective,
    parse_instance,
    random_instance,
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


class TestCanonicalize:
    def test_zeroes_within_block(self):
        part = RotamerPartition((2,))
        energy = canonicalize_energy(np.array([[1.0, 5.0], [5.0, 3.0]]), part)
        assert np.array_equal(energy, [[1.0, 0.0], [0.0, 3.0]])
        assert not energy.flags.writeable

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

    def test_rejects_infeasible_indicator(self):
        with pytest.raises(InstanceError):
            Assignment.from_indicator([1, 1], RotamerPartition((2,)))


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
