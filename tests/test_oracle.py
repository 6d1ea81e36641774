import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    acceptance_corpus,
    feasible_indicators,
    make_instance,
    reference_pair_lower_bounds,
    solve_start,
)
from perfbench.structured import structured_instance
from scpsolve import oracle
from scpsolve import (
    Assignment,
    InstanceError,
    OracleSizeError,
    SolverParams,
    brute_force,
    goldstein_reduce,
    objective,
    random_instance,
    solve,
)


class TestBruteForce:
    def test_derived_instance(self, derived_instance):
        result = brute_force(derived_instance)
        assert result.optimum == 6.0
        assert result.argmin.choice == (1, 2)
        assert result.enumerated == 4

    def test_diagonal_pick(self):
        inst = make_instance((3,), np.diag([5.0, 2.0, 9.0]))
        result = brute_force(inst)
        assert result.optimum == 2.0
        assert result.argmin.choice == (2,)
        assert result.enumerated == 3

    def test_zero_matrix_tie_break(self):
        inst = make_instance((2, 3, 2), np.zeros((7, 7)))
        result = brute_force(inst)
        assert result.optimum == 0.0
        assert result.argmin.choice == (1, 1, 1)
        assert result.enumerated == 12

    def test_size_limit(self, derived_instance):
        with pytest.raises(OracleSizeError):
            brute_force(derived_instance, limit=3)

    def test_optimum_is_objective_of_argmin(self):
        inst = random_instance(4, 4, (-9, 9), seed=61)
        result = brute_force(inst)
        x = result.argmin.to_indicator(inst.partition)
        assert result.optimum == objective(x, inst.energy)


def dominated_instance():
    """First rotamer of each block strictly dominates all alternatives, in
    both self and pair energies."""
    m = (3, 2, 3)
    n0 = sum(m)
    E = np.zeros((n0, n0))
    offsets = (0, 3, 5)
    rng = np.random.default_rng(62)
    for i, (off, mi) in enumerate(zip(offsets, m)):
        for r in range(mi):
            E[off + r, off + r] = r * 10.0 + rng.uniform(0, 1)
        for j, (off2, mj) in enumerate(zip(offsets, m)):
            if j <= i:
                continue
            for r in range(mi):
                for s in range(mj):
                    value = (r + s) * 5.0 + rng.uniform(0, 1)
                    E[off + r, off2 + s] = value
                    E[off2 + s, off + r] = value
    return make_instance(m, E, name="dominated")


def goldstein_reference(instance):
    """Survivors of the one-pair-at-a-time Goldstein elimination that the
    vectorised ``goldstein_reduce`` must reproduce exactly."""
    partition = instance.partition
    E = instance.energy
    offsets = partition.offsets
    surviving: list[list[int]] = [list(range(mi)) for mi in partition.m]

    def dominates(i: int, r: int, t: int) -> bool:
        gr, gt = offsets[i] + r, offsets[i] + t
        score = E[gr, gr] - E[gt, gt]
        for j in range(partition.p):
            if j == i:
                continue
            others = offsets[j] + np.asarray(surviving[j], dtype=np.intp)
            score += 2.0 * float(np.min(E[gr, others] - E[gt, others]))
        return score > 0.0

    changed = True
    while changed:
        changed = False
        for i in range(partition.p):
            for r in list(surviving[i]):
                if any(t != r and dominates(i, r, t) for t in surviving[i]):
                    surviving[i].remove(r)
                    changed = True

    return tuple(tuple(r + 1 for r in block) for block in surviving)


def symmetric_instance(m, seed, integer):
    """Instance with the given block sizes and seeded symmetric energies;
    ``integer`` draws from -3..3, which makes exact ties common."""
    rng = np.random.default_rng(seed)
    n0 = sum(m)
    if integer:
        raw = rng.integers(-3, 4, size=(n0, n0)).astype(float)
    else:
        raw = rng.uniform(-10, 10, size=(n0, n0))
    upper = np.triu(raw)
    return make_instance(m, upper + np.triu(upper, 1).T)


def two_chains(seed):
    """Two random 3-position instances side by side, with every pair energy
    between them zero."""
    first = random_instance(3, 4, (-10, 10), seed=seed)
    second = random_instance(3, 4, (-10, 10), seed=seed + 1000)
    n1, n2 = first.partition.n0, second.partition.n0
    E = np.zeros((n1 + n2, n1 + n2))
    E[:n1, :n1] = first.energy
    E[n1:, n1:] = second.energy
    return make_instance(first.partition.m + second.partition.m, E, name=f"two-chains-{seed}")


class TestGoldsteinReduce:
    def test_dominated_rotamers_all_removed(self):
        reduction = goldstein_reduce(dominated_instance())
        assert reduction.reduced.partition.m == (1, 1, 1)
        assert reduction.kept == ((1,), (1,), (1,))

    def test_singleton_blocks_identity(self):
        inst = make_instance((1, 1, 1), np.arange(9.0).reshape(3, 3) + np.arange(9.0).reshape(3, 3).T)
        reduction = goldstein_reduce(inst)
        assert reduction.reduced == inst
        assert reduction.kept == ((1,), (1,), (1,))

    def test_optimum_invariant(self):
        for trial in range(30):
            inst = random_instance(4, 4, (-10, 10), seed=700 + trial)
            reduction = goldstein_reduce(inst)
            before = brute_force(inst)
            after = brute_force(reduction.reduced)
            assert before.optimum == after.optimum
            # the mapped-back argmin must reach the same energy
            mapped = reduction.to_original(after.argmin)
            assert objective(mapped.to_indicator(inst.partition), inst.energy) == before.optimum

    def test_to_original_rejects_assignments_off_the_reduced_partition(self):
        # every block keeps one rotamer, so only choice 1 fits; a choice of
        # 0 used to map to the block's last survivor, a short assignment
        # came back cut short and choice 9 raised an IndexError
        reduction = goldstein_reduce(random_instance(4, 4, (-10, 10), seed=11003))
        assert reduction.kept == ((1,), (3,), (1,), (1,))
        assert reduction.to_original(Assignment((1, 1, 1, 1))) == Assignment((1, 3, 1, 1))
        for choice in [(0, 1, 1, 1), (1, 1, 1), (9, 1, 1, 1)]:
            with pytest.raises(InstanceError):
                reduction.to_original(Assignment(choice))

    def test_idempotent(self):
        for trial in range(10):
            inst = random_instance(3, 5, (-10, 10), seed=800 + trial)
            once = goldstein_reduce(inst)
            twice = goldstein_reduce(once.reduced)
            assert twice.reduced == once.reduced
            assert all(block == tuple(range(1, len(block) + 1)) for block in twice.kept)

    def test_never_empties_blocks(self):
        for trial in range(10):
            inst = random_instance(5, 4, (0, 1), seed=880 + trial)
            reduction = goldstein_reduce(inst)
            assert all(len(block) >= 1 for block in reduction.kept)

    def test_matches_reference_on_acceptance_corpus(self):
        for inst in acceptance_corpus():
            assert goldstein_reduce(inst).kept == goldstein_reference(inst), inst.name

    def test_matches_reference_on_criterion_09_instances(self):
        for trial in range(100):
            inst = random_instance(4, 4, (-10, 10), seed=11000 + trial)
            assert goldstein_reduce(inst).kept == goldstein_reference(inst), inst.name

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.lists(st.integers(1, 6), min_size=1, max_size=7),
        seed=st.integers(0, 2**32 - 1),
        integer=st.booleans(),
    )
    @example(m=[5], seed=0, integer=True)
    @example(m=[1, 1, 1, 1], seed=1, integer=False)
    @example(m=[3, 3, 3], seed=2, integer=True)
    def test_matches_reference_on_random_partitions(self, m, seed, integer):
        inst = symmetric_instance(tuple(m), seed, integer)
        assert goldstein_reduce(inst).kept == goldstein_reference(inst)

    @pytest.mark.parametrize("case", ["structured", "corpus", "two_chains"])
    def test_skipping_blocks_out_of_contact_keeps_the_survivors(self, case, monkeypatch):
        # a block whose pair block with i is all zero adds exactly 0.0 to
        # each score of block i; the scan that skips it keeps what the scan
        # over all pairs keeps.  Reduced structured instances have a mean
        # contact degree of 9-13 out of 59 blocks, the corpus is dense, and
        # two chains out of contact have no pair block between them
        if case == "structured":
            instances = [structured_instance(seed)[0] for seed in range(101, 111)]
        elif case == "corpus":
            instances = list(acceptance_corpus())
        else:
            instances = [two_chains(seed) for seed in range(10)]
        if case == "two_chains":
            for inst in instances:
                contacts = oracle.block_contacts(inst)
                assert not contacts[:3, 3:].any() and contacts[:3, :3].all() and contacts[3:, 3:].all()
                assert goldstein_reduce(inst).kept == goldstein_reference(inst)
        skipping = [goldstein_reduce(inst) for inst in instances]
        monkeypatch.setattr(oracle, "block_contacts", lambda inst: np.ones((inst.partition.p,) * 2, bool))
        for inst, reduction in zip(instances, skipping):
            assert reduction.kept == goldstein_reduce(inst).kept, inst.name

    def test_identical_rotamers_both_survive(self):
        # rotamers 1 and 2 of block 0 have equal self and pair energies, so
        # each scores exactly 0 against the other and the strict test keeps both
        E = np.array(
            [
                [1.0, 0.0, 0.0, 2.0, -1.0],
                [0.0, 1.0, 0.0, 2.0, -1.0],
                [0.0, 0.0, 5.0, 9.0, 9.0],
                [2.0, 2.0, 9.0, 0.0, 0.0],
                [-1.0, -1.0, 9.0, 0.0, 3.0],
            ]
        )
        inst = make_instance((3, 2), E)
        reduction = goldstein_reduce(inst)
        assert reduction.kept[0] == (1, 2)
        assert reduction.kept == goldstein_reference(inst)

    def test_scores_sum_in_ascending_block_order(self):
        # score(1, 2) of block 0 is 0.5 + 1e16 - 1e16: left to right the 0.5
        # is absorbed and the score is 0, so both rotamers survive; summing
        # the terms in another order gives 0.5 and would eliminate rotamer 1
        E = np.zeros((4, 4))
        E[0, 0] = 0.5
        E[0, 2] = E[2, 0] = 5e15
        E[0, 3] = E[3, 0] = -5e15
        inst = make_instance((2, 1, 1), E)
        reduction = goldstein_reduce(inst)
        assert reduction.kept == ((1, 2), (1,), (1,))
        assert reduction.kept == goldstein_reference(inst)

    def test_single_block_keeps_minimum_self_energies(self):
        inst = make_instance((5,), np.diag([3.0, 1.0, 4.0, 1.0, 2.0]))
        reduction = goldstein_reduce(inst)
        assert reduction.kept == ((2, 4),)
        assert reduction.kept == goldstein_reference(inst)

    def test_cascade_reaches_reference_fixpoint(self):
        # pass 1: rotamer 2 of block 0 survives because rotamer 2 of block 1
        # favours it by 10; block 1 then loses its rotamer 2 (self energy 5,
        # never better in a pair).  Pass 2: with only rotamer 1 left in
        # block 1, block 0's rotamer 2 loses by its self energy.
        E = np.array(
            [
                [0.0, 0.0, 0.0, 10.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [10.0, 0.0, 0.0, 5.0],
            ]
        )
        inst = make_instance((2, 2), E)
        # the premise: with every rotamer of block 1 alive, block 0 keeps both
        pair_min = np.min(E[1, 2:] - E[0, 2:])
        assert (E[1, 1] - E[0, 0]) + 2.0 * pair_min <= 0.0
        reduction = goldstein_reduce(inst)
        assert reduction.kept == ((1,), (1,))
        assert reduction.kept == goldstein_reference(inst)


def distinct_blocks(partition):
    """n0 x n0 mask of the pairs of rotamers in distinct blocks."""
    distinct = ~partition.same_block
    np.fill_diagonal(distinct, False)
    return distinct


def dead_end_bounds(inst, start, cutoff=-np.inf):
    """What ``dead_end_pairs`` computes at ``start`` and ``cutoff`` on its
    way to the mask, as n0 x n0 matrices whose entries within a block are
    not meaningful: the O(n0^2) upper bounds, and the ordered pair bounds
    LB_rs or None where it skips them, as it never does at the default."""
    calls = {}

    def record(name, real):
        return lambda *args: calls.setdefault(name, real(*args))

    upper, lower = record("upper", oracle.pair_bounds), record("lower", oracle.joint_minima)
    with mock.patch.multiple(oracle, pair_bounds=upper, joint_minima=lower):
        oracle.dead_end_pairs(inst, start, cutoff)
    return calls["upper"][0], calls.get("lower")


def dense_instance():
    """The benchmark's dense i.i.d. instance shape: p = 80, n0 = 803."""
    sizes = random_instance(80, 20, (-10, 10), seed=3).partition.m
    rng = np.random.default_rng(1)
    m = tuple(int(v) for v in rng.permutation(sizes))
    raw = rng.uniform(-10.0, 10.0, size=(sum(m), sum(m)))
    return make_instance(m, 0.5 * (raw + raw.T))


@st.composite
def small_instances(draw):
    """p 2-5, m 1-4 and energies in -10..10, integers or floats: integer
    energies make pair bounds that meet an assignment's energy exactly."""
    m = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=5)))
    seed = draw(st.integers(0, 2**32 - 1))
    return symmetric_instance(m, seed, integer=draw(st.booleans()))


class TestDeadEndPairs:
    def test_no_pair_of_the_optimum_is_excluded(self):
        # the acceptance corpus: the brute-force optimum and the solve's
        # start keep every pair, while the corpus as a whole loses thousands
        excluded_total = 0
        for inst in acceptance_corpus():
            start, energy = solve_start(inst)
            excluded = oracle.dead_end_pairs(inst, start, energy)
            assert excluded is not None
            for choice in (brute_force(inst).argmin, start):
                rows = np.flatnonzero(choice.to_indicator(inst.partition))
                assert not excluded[np.ix_(rows, rows)].any()
            assert np.array_equal(excluded, excluded.T)
            assert not (excluded & ~distinct_blocks(inst.partition)).any()
            excluded_total += int(excluded.sum()) // 2
        assert excluded_total == 9306

    @settings(max_examples=60, deadline=None)
    @given(inst=small_instances())
    def test_pair_bounds_hold_on_every_assignment(self, inst):
        # LB_rs is at most the energy of every assignment using r and s,
        # the O(n0^2) upper bound at the start is never below it, and the
        # decomposed bound is the O(n0^3) one: each within the rounding
        # allowance.  No pair of the start goes, whatever the cutoff's ties
        partition = inst.partition
        allowance = oracle.pair_rounding(inst)
        start, energy = solve_start(inst)
        upper, lower = dead_end_bounds(inst, start)
        distinct = distinct_blocks(partition)
        assert np.array_equal(lower, lower.T)
        for x in feasible_indicators(partition):
            rows = np.flatnonzero(x)
            pairs = lower[np.ix_(rows, rows)][distinct[np.ix_(rows, rows)]]
            assert np.all(pairs <= objective(x, inst.energy) + allowance)
        assert np.all(upper[distinct] >= lower[distinct] - allowance)
        reference = reference_pair_lower_bounds(inst)
        assert np.all(np.abs(lower[distinct] - reference[distinct]) <= allowance)
        excluded = oracle.dead_end_pairs(inst, start, energy)
        if excluded is not None:
            rows = np.flatnonzero(start.to_indicator(partition))
            assert not excluded[np.ix_(rows, rows)].any()

    def test_decomposed_bound_matches_the_cubic_form_on_structured(self):
        reduced = goldstein_reduce(structured_instance(101)[0]).reduced
        distinct = distinct_blocks(reduced.partition)
        lower = dead_end_bounds(reduced, solve_start(reduced)[0])[1][distinct]
        reference = reference_pair_lower_bounds(reduced)[distinct]
        assert np.all(np.abs(lower - reference) <= 1e-12 * (1.0 + np.abs(reference)))

    @pytest.mark.parametrize("group, chunk", [(0, oracle.JOINT_CHUNK), (0, 500), (1 << 22, oracle.JOINT_CHUNK)])
    def test_grouping_and_chunking_leave_the_bound(self, group, chunk, monkeypatch):
        # the joint minima taken block by block (JOINT_GROUP 0), in passes
        # of one row (JOINT_CHUNK 500), or with the reduced structured
        # instance's blocks in groups of several over the union of their
        # contacts' columns (JOINT_GROUP 2^22) give every pair bound of
        # distinct blocks bit for bit as the default grouping
        instances = list(itertools.islice(acceptance_corpus(), 40))
        instances.append(goldstein_reduce(structured_instance(101)[0]).reduced)
        starts = [solve_start(inst)[0] for inst in instances]
        want = [dead_end_bounds(inst, start)[1] for inst, start in zip(instances, starts)]
        monkeypatch.setattr(oracle, "JOINT_GROUP", group)
        monkeypatch.setattr(oracle, "JOINT_CHUNK", chunk)
        for inst, start, bound in zip(instances, starts, want):
            distinct = distinct_blocks(inst.partition)
            assert dead_end_bounds(inst, start)[1][distinct].tobytes() == bound[distinct].tobytes()

    @pytest.mark.parametrize("allowance", [None, 0.0])
    def test_a_start_pair_whose_bound_is_the_cutoff_stays(self, allowance, monkeypatch):
        # at p = 2 each pair bound is the energy of the pair, exactly for
        # integers: the start's pair bound is the cutoff itself, and the
        # strict test keeps it even with no allowance, while every pair
        # above the cutoff goes
        if allowance is not None:
            monkeypatch.setattr(oracle, "pair_rounding", lambda inst: allowance)
        inst = symmetric_instance((3, 3), 7, integer=True)
        start, energy = solve_start(inst)
        lower = dead_end_bounds(inst, start)[1]
        rows = np.flatnonzero(start.to_indicator(inst.partition))
        assert lower[rows[0], rows[1]] == energy
        excluded = oracle.dead_end_pairs(inst, start, energy)
        assert not excluded[rows[0], rows[1]]
        top = lower[:3, 3:]
        assert excluded[:3, 3:].sum() == (top > energy).sum() > 0

    def test_dense_instance_skips_the_exact_bound(self, monkeypatch):
        # on a dense-sized i.i.d. instance the O(n0^2) upper bound lies far
        # below the start's energy, so the solve never takes the exact
        # bound's joint minima
        calls = []
        exact = oracle.joint_minima
        monkeypatch.setattr(oracle, "joint_minima", lambda *args: calls.append(args) or exact(*args))
        inst = dense_instance()
        start, energy = solve_start(inst)
        distinct = distinct_blocks(inst.partition)
        upper, lower = dead_end_bounds(inst, start, energy)
        assert upper[distinct].max() < energy - 10_000 and lower is None
        report = solve(inst, SolverParams(beta=5.0, max_iter=1))
        assert report.excluded_pairs is None
        assert calls == []

    def test_non_finite_allowance_excludes_nothing(self):
        # energies whose sums could overflow give up the exclusion
        inst = make_instance((2, 2), np.diag([1e306, 0.0, -1e306, 0.0]))
        assert oracle.pair_rounding(inst) == np.inf
        start, energy = solve_start(inst)
        assert oracle.dead_end_pairs(inst, start, energy) is None
