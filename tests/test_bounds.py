import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import acceptance_corpus, feasible_indicators, make_instance
import scpsolve.bounds as bounds_module
from perfbench.structured import structured_instance
from scpsolve import (
    Assignment,
    RotamerPartition,
    brute_force,
    goldstein_reduce,
    is_feasible,
    objective,
    random_instance,
    relative_gap,
    solve,
)
from scpsolve.bounds import (
    EIGENVECTOR,
    FIRST_COLUMN,
    GAP_CLOSE_RTOL,
    box_term,
    certified,
    dual_lower_bound,
    extract_fractional,
    one_opt,
    round_to_feasible,
    screen_declines,
    top_ritz_value,
    upper_bound,
)
from scpsolve.lifting import FACE_CROSSOVER, build_geometry, lift_indicator
from scpsolve.solver import initialize


def inner_minimum_oracle(Z, geometry):
    """Direct minimization of <cost + Z, Y> over the pinned box: free entries
    set to 0 or 1 entrywise, gangster entries fixed."""
    C = geometry.lifted_cost + Z
    Y = (C < 0.0).astype(float)
    Y[geometry.gangster[:, 0], geometry.gangster[:, 1]] = 0.0
    Y[0, 0] = 1.0
    return float(np.sum(C * Y))


class TestDualLowerBound:
    def test_zero_multiplier_nonnegative_energies(self):
        inst = make_instance((2, 2), np.abs(np.arange(16.0)).reshape(4, 4) + np.arange(16.0).reshape(4, 4).T)
        geo = build_geometry(inst)
        assert dual_lower_bound(np.zeros((5, 5)), geo) == 0.0

    def test_initial_multiplier_on_derived_instance(self, derived_instance):
        geo = build_geometry(derived_instance)
        _, _, Z0 = initialize(geo)
        value = dual_lower_bound(Z0, geo)
        # closed form must agree with direct extreme-point minimization
        inner = box_term(Z0, geo)
        assert abs(inner - inner_minimum_oracle(Z0, geo)) <= 1e-12
        V = geo.face.matrix
        top = np.linalg.eigvalsh(V.T @ Z0 @ V)[-1]
        assert value == pytest.approx(inner - 3.0 * top, abs=1e-12)
        assert value <= 6.0

    def test_sandwich_for_arbitrary_multipliers(self):
        rng = np.random.default_rng(21)
        for trial in range(25):
            inst = random_instance(int(rng.integers(2, 5)), 4, (-8, 8), seed=300 + trial)
            geo = build_geometry(inst)
            opt = brute_force(inst).optimum
            n = geo.order
            M = rng.normal(scale=float(rng.choice([0.5, 2.0, 10.0])), size=(n, n))
            Z = 0.5 * (M + M.T)
            value = dual_lower_bound(Z, geo)
            assert value <= opt + 1e-8 * (1.0 + abs(opt))

    @pytest.mark.parametrize("p, m_max", [(3, 4), (20, 12)])
    def test_reads_z_only(self, p, m_max):
        # Z is left as it was, bit for bit, through the dense face products
        # and the structured ones (n0 >= FACE_CROSSOVER), and the value is
        # the one of a symmetrized copy of V'ZV
        inst = random_instance(p, m_max, (-10, 10), seed=4)
        geo = build_geometry(inst)
        assert (inst.partition.n0 >= FACE_CROSSOVER) == (p == 20)
        rng = np.random.default_rng(22)
        for Z in (rng.normal(size=(geo.order, geo.order)), initialize(geo)[2]):
            before = Z.copy()
            value = dual_lower_bound(Z, geo)
            assert Z.tobytes() == before.tobytes()
            W = geo.face.congruence(Z)
            top = np.linalg.eigvalsh(0.5 * (W + W.T))[-1]
            assert value == box_term(Z, geo) - (p + 1) * float(top)

    def test_nan_multiplier_raises_as_numpy_eigvalsh(self, monkeypatch):
        # below MIN_ORDER, on the first four corpus geometries: a NaN in Z
        # reaches the eigensolve, which does not converge and raises
        # LinAlgError, as np.linalg.eigvalsh, which it replaces, does
        for inst in itertools.islice(acceptance_corpus(), 4):
            geo = build_geometry(inst)
            Z = initialize(geo)[2]
            Z[2, 4] = Z[4, 2] = np.nan
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                dual_lower_bound(Z, geo)
            with monkeypatch.context() as patched:
                patched.setattr(bounds_module, "eigvalsh", np.linalg.eigvalsh)
                with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                    dual_lower_bound(Z, geo)


# block sizes whose face dimension f = n0 + 1 - p is 80 (products with a
# dense V, n0 < FACE_CROSSOVER), 271 and 724 (through V's reflectors): the
# orders of the smallest screened, the structured and the dense solves
SCREEN_BLOCKS = {80: (9,) * 9 + (8,), 271: (5,) * 30 + (6,) * 30, 724: (10,) * 77 + (11,) * 3}


def screen_case(f, rng, nonnegative=False):
    """A geometry of face dimension f and a random symmetric Z for it.
    With ``nonnegative``, the energies and Z are, so the box term is Z's
    corner, 0, and the lower bound is exactly -(p + 1) times the top
    eigenvalue, where a larger box would round away its last bits."""
    m = SCREEN_BLOCKS[f]
    raw = rng.uniform(0.0 if nonnegative else -10.0, 10.0, size=(sum(m), sum(m)))
    geo = build_geometry(make_instance(m, 0.5 * (raw + raw.T)))
    assert geo.face_dim == f
    M = rng.normal(size=(geo.order, geo.order))
    if nonnegative:
        M = np.abs(M)
        M[0, 0] = 0.0
    return geo, M + M.T


def reduced_spectrum(Z, geo):
    """The eigenpairs of V'ZV symmetrized as ``dual_lower_bound`` does, and
    the top eigenvalue it computes."""
    W = geo.face.congruence(Z)
    np.add(W, W.T.copy(), out=W)
    W *= 0.5
    return np.linalg.eigh(W), float(np.linalg.eigvalsh(W)[-1])


class TestScreen:
    @pytest.mark.parametrize("f, trials", [(80, 4), (271, 3), (724, 2)])
    def test_ritz_value_exceeds_the_top_eigenvalue_by_at_most_the_margin(self, f, trials):
        # from random starts, from the top eigenvector and from a perturbed
        # one; from the top eigenvector the Ritz value is the top eigenvalue
        # to within the margin, and the margin is a small part of |Z|_F
        rng = np.random.default_rng(f)
        for _ in range(trials):
            geo, Z = screen_case(f, rng)
            (_, U), top = reduced_spectrum(Z, geo)
            starts = [U[:, -1], U[:, -1] + 1e-3 * rng.normal(size=f), rng.normal(size=f), rng.normal(size=f)]
            for k, start in enumerate(starts):
                rho, margin = top_ritz_value(Z, geo.face, start)
                assert type(rho) is type(margin) is float
                assert rho - margin <= top
                assert 0.0 < margin < 1e-9 * np.linalg.norm(Z)
                if k == 0:
                    assert rho + margin >= top

    @pytest.mark.parametrize("f", [80, 271])
    def test_never_declines_a_check_that_certifies(self, f):
        # from the top eigenvector, where the screen is sharpest, with the
        # lower bound within 2 margins (times p + 1) of the bottom of
        # certified's window, and on a finer grid across the window: a
        # check that would certify is never declined, and some whose bound
        # lies below the window are
        rng = np.random.default_rng(f + 1)
        for _ in range(3):
            geo, Z = screen_case(f, rng, nonnegative=True)
            assert box_term(Z, geo) == 0.0
            (_, U), _ = reduced_spectrum(Z, geo)
            start = U[:, -1]
            lower = dual_lower_bound(Z, geo)
            band = (geo.partition.p + 1) * top_ritz_value(Z, geo.face, start)[1]
            slack = GAP_CLOSE_RTOL * (1.0 + abs(lower))
            offsets = np.concatenate([np.linspace(-2.0, 2.0, 81) * band, np.linspace(-3.0, 1.0, 401) * slack])
            declined = certifying = 0
            for offset in offsets:
                bottom = lower + offset  # the window's bottom, upper - slack
                upper = bottom + GAP_CLOSE_RTOL * (1.0 + abs(bottom))
                declines = screen_declines(Z, geo, start, -math.inf, upper)
                assert type(declines) is bool
                certifies = certified(lower, upper)
                assert not (declines and certifies)
                declined += declines
                certifying += certifies
            assert declined > 0 and certifying > 0

    def test_zero_start_or_non_finite_z_never_declines(self):
        geo, Z = screen_case(80, np.random.default_rng(5))
        (_, U), _ = reduced_spectrum(Z, geo)
        upper = dual_lower_bound(Z, geo) + 1e3
        assert screen_declines(Z, geo, U[:, -1], -math.inf, upper)
        assert top_ritz_value(Z, geo.face, np.zeros(80)) == (-math.inf, math.inf)
        assert not screen_declines(Z, geo, np.zeros(80), -math.inf, upper)
        for bad in (math.nan, math.inf, -math.inf):
            broken = Z.copy()
            broken[3, 5] = broken[5, 3] = bad
            assert top_ritz_value(broken, geo.face, U[:, -1]) == (-math.inf, math.inf)
            assert not screen_declines(broken, geo, U[:, -1], -math.inf, upper)

    def test_declines_at_once_above_the_window(self):
        # a best lower bound above certified's window fails it whatever the
        # check's own bound, so Z is not read; one inside it does not
        geo, _ = screen_case(80, np.random.default_rng(6))
        unread = np.full((geo.order, geo.order), math.nan)
        upper = -100.0
        slack = GAP_CLOSE_RTOL * (1.0 + abs(upper))
        assert screen_declines(unread, geo, np.ones(80), upper + 2.0 * slack, upper)
        assert not screen_declines(unread, geo, np.ones(80), upper + 0.5 * slack, upper)


def lifted_vector(x, scale=1.0):
    """scale * [1; x], which rounds to a feasible x at any nonzero scale."""
    return scale * np.concatenate([[1.0], x])


class TestExtractFractional:
    part = RotamerPartition((2, 2))

    def test_first_column_recovers_indicator(self):
        for x in feasible_indicators(self.part):
            assert np.array_equal(extract_fractional(lift_indicator(x)[:, 0]), x)

    def test_eigenvector_recovers_direction(self):
        # the top eigenvector of the lift, either sign, and any multiple
        # c [1; x] give |c| x
        for x in feasible_indicators(self.part):
            w, U = np.linalg.eigh(lift_indicator(x))
            top = U[:, -1] * np.sqrt(w[-1])
            assert np.allclose(extract_fractional(top), x, atol=1e-12)
            for c in (2.5, 0.3, -0.3, -2.5):
                assert np.array_equal(extract_fractional(lifted_vector(x, c)), abs(c) * x)

    def test_negative_entries_set_to_zero(self):
        got = extract_fractional([-1.0, -0.5, 0.25, -2.0, -0.5])
        assert np.array_equal(got, [0.5, 0.0, 2.0, 0.5])

    def test_corner_only_matrix_gives_zeros(self):
        # the first column and the top eigenvector of a matrix whose only
        # nonzero entry is Y[0, 0] = 1 are e_0, up to sign
        for v in (np.eye(5)[0], -np.eye(5)[0]):
            assert np.array_equal(extract_fractional(v), np.zeros(4))

    def test_first_column_identity_on_box_member(self):
        rng = np.random.default_rng(22)
        Y = rng.uniform(0.0, 1.0, size=(5, 5))
        Y = 0.5 * (Y + Y.T)
        assert np.array_equal(extract_fractional(Y[:, 0]), Y[1:, 0])


class TestRounding:
    part = RotamerPartition((2, 2))

    def test_blockwise_argmax(self):
        a = round_to_feasible([0.7, 0.3, 0.2, 0.8], self.part)
        assert a.choice == (1, 2)
        assert np.array_equal(a.to_indicator(self.part), [1, 0, 0, 1])

    def test_tie_takes_lowest_index(self):
        assert round_to_feasible([0.5, 0.5], RotamerPartition((2,))).choice == (1,)

    def test_feasible_indicator_unchanged(self):
        for x in feasible_indicators(self.part):
            a = round_to_feasible(x, self.part)
            assert np.array_equal(a.to_indicator(self.part), x)

    def test_attains_nearest_feasible_point(self):
        # enumeration oracle: rounding must reach the minimum of |x - x_approx|^2
        rng = np.random.default_rng(23)
        for trial in range(60):
            p = int(rng.integers(1, 5))
            part = RotamerPartition(tuple(int(v) for v in rng.integers(1, 6, size=p)))
            x_approx = rng.uniform(0.0, 1.0, size=part.n0)
            best = min(
                float(np.sum((x - x_approx) ** 2)) for x in feasible_indicators(part)
            )
            rounded = round_to_feasible(x_approx, part).to_indicator(part)
            assert float(np.sum((rounded - x_approx) ** 2)) == best


    def test_matches_per_block_argmax(self):
        # the one-gather rounding against a loop over the blocks, with ties
        # (entries drawn from a few levels) and singleton blocks
        rng = np.random.default_rng(26)
        for trial in range(300):
            p = int(rng.integers(1, 8))
            part = RotamerPartition(tuple(int(v) for v in rng.integers(1, 7, size=p)))
            x = rng.choice([0.0, 0.25, 0.5, 1.0, -np.inf], size=part.n0)
            expected = tuple(
                int(np.argmax(x[part.block_slice(i)])) + 1 for i in range(part.p)
            )
            assert round_to_feasible(x, part).choice == expected

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            round_to_feasible([0.5, 0.5, 0.5], self.part)


class TestUpperBound:
    def test_optimal_lift_gives_optimal_value(self, derived_instance):
        x = Assignment((1, 2)).to_indicator(derived_instance.partition)
        for source in (FIRST_COLUMN, EIGENVECTOR):
            for c in (1.0, 0.2, -0.2, -3.0):
                value, assignment = upper_bound(lifted_vector(x, c), derived_instance, source)
                assert value == 6.0
                assert assignment.choice == (1, 2)

    def test_zero_energy_instance(self):
        inst = make_instance((2, 2), np.zeros((4, 4)))
        value, _ = upper_bound(np.zeros(5), inst, FIRST_COLUMN)
        assert value == 0.0

    def test_never_below_optimum(self):
        rng = np.random.default_rng(24)
        for trial in range(20):
            inst = random_instance(3, 3, (-6, 6), seed=500 + trial)
            opt = brute_force(inst).optimum
            v = rng.normal(size=inst.partition.n0 + 1)
            for source in (FIRST_COLUMN, EIGENVECTOR):
                value, assignment = upper_bound(v, inst, source)
                assert value >= opt
                assert value == objective(
                    assignment.to_indicator(inst.partition), inst.energy
                )

    def test_unknown_source_rejected(self, derived_instance):
        with pytest.raises(ValueError, match="median"):
            upper_bound(np.ones(5), derived_instance, "median")


def energy_of(assignment, instance):
    return objective(assignment.to_indicator(instance.partition), instance.energy)


def single_block_changes(assignment, partition):
    """Every assignment that differs from ``assignment`` in one block."""
    for i, size in enumerate(partition.m):
        for c in range(1, size + 1):
            if c != assignment.choice[i]:
                yield Assignment(assignment.choice[:i] + (c,) + assignment.choice[i + 1 :])


@st.composite
def descent_cases(draw, integer=False):
    """A small ``random_instance`` and a start drawn over its assignments;
    ``integer`` rounds the energies to a few integers, so sums are exact and
    ties between choices are common."""
    p, m_max = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    low = draw(st.sampled_from([2, 10]))
    inst = random_instance(p, m_max, (-low, low), seed=draw(st.integers(0, 10**6)))
    if integer:
        inst = make_instance(inst.partition.m, np.round(inst.energy))
    choice = tuple(draw(st.integers(1, size)) for size in inst.partition.m)
    return inst, Assignment(choice)


class TestOneOpt:
    @settings(max_examples=60, deadline=None)
    @given(case=descent_cases())
    def test_feasible_and_no_single_block_change_lowers_the_energy(self, case):
        # up to rounding: the descent and ``objective`` sum in different orders
        inst, start = case
        result = one_opt(start, inst)
        assert is_feasible(result.to_indicator(inst.partition), inst.partition)
        value = energy_of(result, inst)
        slack = 1e-12 * (1.0 + np.abs(inst.energy).sum())
        assert value <= energy_of(start, inst) + slack
        for neighbour in single_block_changes(result, inst.partition):
            assert energy_of(neighbour, inst) >= value - slack

    @settings(max_examples=60, deadline=None)
    @given(case=descent_cases(integer=True))
    def test_deterministic_and_changes_only_on_a_strict_decrease(self, case):
        # integer energies: every sum is exact and choices often tie, so a
        # descent that moved on a tie would leave the energy unchanged
        inst, start = case
        result = one_opt(start, inst)
        assert one_opt(start, inst) == result
        assert result == start or energy_of(result, inst) < energy_of(start, inst)
        assert one_opt(result, inst) == result
        for neighbour in single_block_changes(result, inst.partition):
            assert energy_of(neighbour, inst) >= energy_of(result, inst)

    def test_ties_keep_the_choice_or_take_the_lowest_index(self):
        inst = make_instance((3, 2), np.diag([1.0, 0.0, 0.0, 5.0, 5.0]))
        assert one_opt(Assignment((1, 2)), inst).choice == (2, 2)
        assert one_opt(Assignment((3, 2)), inst).choice == (3, 2)
        zero = make_instance((3, 2), np.zeros((5, 5)))
        for choice in itertools.product((1, 2, 3), (1, 2)):
            assert one_opt(Assignment(choice), zero).choice == choice

    @pytest.mark.parametrize("big", [1e20, 1e14])
    def test_huge_self_energy_raises_no_warning(self, big):
        base = random_instance(4, 4, (-10, 10), seed=5)
        energy = np.array(base.energy)
        energy[0, 0] = big
        inst = make_instance(base.partition.m, energy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for choice in itertools.product(*(range(1, size + 1) for size in inst.partition.m)):
                result = one_opt(Assignment(choice), inst)
                assert energy_of(result, inst) <= energy_of(Assignment(choice), inst)
                assert result.choice[0] != 1 or inst.partition.m[0] == 1

    @pytest.mark.parametrize("seed", [1000, 1001, 1002, 1003])
    def test_reaches_the_certified_optimum_on_reduced_structured_instances(self, seed):
        # the structured generator's planted instances are easy: after DEE
        # the descent from the smallest self energies alone finds the
        # optimum that the relaxation certifies, so the solve's gain from
        # this start on them is a best case
        reduced = goldstein_reduce(structured_instance(seed)[0]).reduced
        start = round_to_feasible(-np.diagonal(reduced.energy), reduced.partition)
        report = solve(reduced)
        assert report.certified
        assert one_opt(start, reduced) == report.assignment


class TestRelativeGap:
    def test_equal_bounds(self):
        assert relative_gap(-48.46, -48.46) == 0.0

    def test_unit_gap(self):
        assert relative_gap(1.0, 0.0) == 1.0

    def test_zero_bounds(self):
        assert relative_gap(0.0, 0.0) == 0.0

    def test_matches_formula(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            u, l = float(rng.normal(scale=50)), float(rng.normal(scale=50))
            if abs(u + l + 1.0) < 1e-6:
                continue
            assert relative_gap(u, l) == 2.0 * abs(u - l) / abs(u + l + 1.0)


class TestCertified:
    def test_equal_bounds(self):
        assert certified(-41.5, -41.5)

    def test_lower_within_tolerance_on_either_side(self):
        upper = -41.5
        slack = GAP_CLOSE_RTOL * (1.0 + abs(upper))
        assert certified(upper - 0.5 * slack, upper)
        assert certified(upper + 0.5 * slack, upper)

    def test_lower_too_far_below(self):
        assert not certified(-41.51, -41.5)

    def test_lower_too_far_above(self):
        # a lower bound above the upper bound shows rounding error in the
        # bound, not optimality
        assert not certified(-41.4999, -41.5081)
        assert not certified(126.39, -27.20)

    def test_infinite_or_nan_bounds(self):
        assert not certified(-math.inf, 1.0)
        assert not certified(0.0, math.inf)
        assert not certified(math.inf, math.inf)
        assert not certified(math.nan, 1.0)
