import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import feasible_indicators, make_instance
from scpsolve import (
    Assignment,
    RotamerPartition,
    brute_force,
    objective,
    random_instance,
    relative_gap,
)
from scpsolve.bounds import (
    EIGENVECTOR,
    FIRST_COLUMN,
    GAP_CLOSE_RTOL,
    box_term,
    certified,
    dual_lower_bound,
    extract_fractional,
    lower_bound_ceiling,
    round_to_feasible,
    upper_bound,
)
from scpsolve.lifting import build_geometry, lift_indicator
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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.lists(st.integers(1, 5), min_size=1, max_size=5),
    zero_energy=st.booleans(),
    start=st.sampled_from(["random", "top_eigenvector", "zero"]),
)
def test_lower_bound_ceiling_is_at_least_the_bound(seed, m, zero_energy, start):
    rng = np.random.default_rng(seed)
    n0 = sum(m)
    energy = np.zeros((n0, n0)) if zero_energy else rng.uniform(-10, 10, (n0, n0))
    geo = build_geometry(make_instance(m, 0.5 * (energy + energy.T)))
    if zero_energy:
        # the initial multiplier of an all-zero instance is zero, so V'ZVx
        # vanishes and the Ritz space has one direction
        Z = initialize(geo)[2]
    else:
        M = rng.normal(scale=float(rng.choice([0.1, 1.0, 10.0])), size=(geo.order,) * 2)
        Z = M + M.T
    V = geo.face.matrix
    if start == "random":
        x = rng.normal(size=geo.face_dim)
    elif start == "top_eigenvector":
        x = np.linalg.eigh(V.T @ Z @ V)[1][:, -1]
    else:
        x = np.zeros(geo.face_dim)
    ceiling = lower_bound_ceiling(Z, geo, x)
    # rounding in the Ritz value and in eigvalsh came to at most about
    # 8 n eps |Z|_F (p + 1) over 12,000 random cases
    slack = 64 * geo.order * np.finfo(float).eps * (len(m) + 1) * np.linalg.norm(Z)
    assert ceiling >= dual_lower_bound(Z, geo) - slack
    if start == "zero":
        assert ceiling == math.inf
    if start == "top_eigenvector":
        # on the top eigenvector the ceiling is the bound itself
        assert ceiling <= dual_lower_bound(Z, geo) + slack


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


class TestCouldCertify:
    # a screened check caps its estimate of the lower bound at the upper
    # bound, so ``certified`` tests only whether the estimate reaches it

    @staticmethod
    def capped(lower, upper):
        return certified(min(lower, upper), upper)

    def test_lower_within_tolerance_below_or_anywhere_above(self):
        upper = -41.5
        slack = GAP_CLOSE_RTOL * (1.0 + abs(upper))
        assert self.capped(upper - 0.5 * slack, upper)
        assert self.capped(upper, upper)
        assert self.capped(126.39, upper)
        assert not self.capped(upper - 2.0 * slack, upper)

    def test_infinite_or_nan_bounds(self):
        assert not self.capped(0.0, math.inf)
        assert not self.capped(math.nan, 1.0)
        assert not self.capped(-math.inf, 1.0)
