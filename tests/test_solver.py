import dataclasses
import itertools

import numpy as np
import pytest

from conftest import acceptance_corpus, make_instance
import scpsolve.solver as solver_module
from perfbench.structured import structured_instance
from scpsolve import (
    RotamerPartition,
    SolverParams,
    brute_force,
    default_params,
    goldstein_reduce,
    objective,
    random_instance,
    solve,
)
from scpsolve.bounds import EIGENVECTOR, FIRST_COLUMN, certified, upper_bound
from scpsolve.lifting import build_geometry
from scpsolve.projections import zero_border_diag
from scpsolve.solver import check_stop, dual_step, initialize, r_update, y_update


class TestDefaultParams:
    def test_iteration_cap_small_instance(self):
        inst = make_instance((2,) * 8, np.zeros((16, 16)))  # p=8, n0=16
        params = default_params(inst)
        assert params.max_iter == 8 * 17 + 10_000 == 10136

    def test_penalty_floor(self):
        m = (4,) * 19 + (3,) * 18  # p=37, n0=76+54=130
        assert RotamerPartition(m).n0 == 130
        inst = make_instance(m, np.zeros((130, 130)))
        assert default_params(inst).beta == 1.0

    def test_penalty_at_double_ratio(self):
        inst = make_instance((2, 2, 2), np.zeros((6, 6)))  # n0 = 2p
        assert default_params(inst).beta == 1.0

    def test_remaining_defaults(self, derived_instance):
        params = default_params(derived_instance)
        assert params.gamma == 0.9
        assert params.epsilon == 1e-10
        assert params.t_consecutive == 100
        assert params.bound_period == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverParams(beta=0.5)
        with pytest.raises(ValueError):
            SolverParams(beta=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            SolverParams(beta=1.0, epsilon=0.0)
        with pytest.raises(ValueError):
            SolverParams(beta=1.0, max_iter=0)


class TestInitialize:
    def test_zero_energy_gives_zero_dual(self):
        geo = build_geometry(make_instance((2, 2), np.zeros((4, 4))))
        _, Y, Z = initialize(geo)
        assert np.array_equal(Z, np.zeros((5, 5)))
        assert np.array_equal(Y, np.zeros((5, 5)))

    def test_derived_instance_dual_diagonal(self, derived_instance):
        _, _, Z = initialize(build_geometry(derived_instance))
        assert np.array_equal(Z, np.diag([0.0, -1.0, -3.0, -2.0, -1.0]))

    def test_dual_starts_inside_pinned_set(self, derived_instance):
        geo = build_geometry(derived_instance)
        G, _, Z = initialize(geo)
        # off the pinned coordinates (border and diagonal) the dual is zero
        assert np.array_equal(zero_border_diag(Z), np.zeros_like(Z))
        assert np.array_equal(G @ G.T, np.zeros((geo.face_dim, geo.face_dim)))


class TestRUpdate:
    def test_zero_iterates_give_uniform_spectrum(self, derived_instance):
        geo = build_geometry(derived_instance)
        n, p = geo.face_dim, geo.partition.p
        G = r_update(np.zeros((5, 5)), np.zeros((5, 5)), geo, beta=1.0)
        R = G @ G.T
        assert np.allclose(R, ((p + 1) / n) * np.eye(n), atol=1e-14)

    def test_membership_properties(self, derived_instance):
        rng = np.random.default_rng(31)
        geo = build_geometry(derived_instance)
        for _ in range(10):
            Y = rng.normal(size=(5, 5))
            Z = rng.normal(size=(5, 5))
            G = r_update(0.5 * (Y + Y.T), 0.5 * (Z + Z.T), geo, beta=2.0)
            R = G @ G.T
            assert abs(np.trace(R) - 3.0) <= 1e-10
            assert np.linalg.eigvalsh(R)[0] >= -1e-10


class TestDualStep:
    def test_zero_residual_is_fixed_point(self, derived_instance):
        _, _, Z = initialize(build_geometry(derived_instance))
        out = dual_step(Z, np.zeros((5, 5)), step=0.9)
        assert np.array_equal(out, Z)

    def test_diagonal_never_moves(self):
        rng = np.random.default_rng(32)
        Z = rng.normal(size=(6, 6))
        residual = rng.normal(size=(6, 6))
        out = dual_step(Z, residual, step=1.7)
        assert np.array_equal(np.diag(out), np.diag(Z))

    def test_border_stays_zero_through_one_iteration(self, derived_instance):
        geo = build_geometry(derived_instance)
        params = default_params(derived_instance)
        _, Y, Z = initialize(geo)
        F = geo.null_basis @ r_update(Y, Z, geo, params.beta)
        vrv = F @ F.T
        Z_half = dual_step(Z, Y - vrv, params.gamma * params.beta)
        assert np.all(Z_half[0, :] == 0.0)
        assert np.all(Z_half[:, 0] == 0.0)
        Y1 = y_update(vrv, Z_half, geo, params.beta)
        Z1 = dual_step(Z_half, Y1 - vrv, params.gamma * params.beta)
        assert np.all(Z1[0, :] == 0.0)
        assert np.array_equal(np.diag(Z1), np.diag(Z))


class TestYUpdate:
    def test_gangster_and_box_exact(self, derived_instance):
        rng = np.random.default_rng(33)
        geo = build_geometry(derived_instance)
        vrv = rng.normal(size=(5, 5))
        vrv = 0.5 * (vrv + vrv.T)
        Z = rng.normal(size=(5, 5))
        Y = y_update(vrv, 0.5 * (Z + Z.T), geo, beta=2.0)
        assert Y[0, 0] == 1.0
        g = geo.gangster
        assert np.all(Y[g[1:, 0], g[1:, 1]] == 0.0)
        assert Y.min() >= 0.0 and Y.max() <= 1.0

    def test_huge_energy_entry_forces_zero(self):
        # a collision-scale energy acts like an extra pinned zero
        E = np.zeros((4, 4))
        E[0, 2] = E[2, 0] = 1e12
        inst = make_instance((2, 2), E)
        geo = build_geometry(inst)
        _, Y0, Z0 = initialize(geo)
        params = default_params(inst)
        F = geo.null_basis @ r_update(Y0, Z0, geo, params.beta)
        vrv = F @ F.T
        Z_half = dual_step(Z0, Y0 - vrv, params.gamma * params.beta)
        Y = y_update(vrv, Z_half, geo, params.beta)
        assert Y[1, 3] == 0.0 and Y[3, 1] == 0.0


class TestCheckStop:
    params = SolverParams(beta=1.0, max_iter=500, t_consecutive=100)

    def test_iteration_cap(self):
        assert check_stop(500, 0, -np.inf, np.inf, self.params) == "max_iter"

    def test_residual_streak(self):
        assert check_stop(200, 100, -np.inf, np.inf, self.params) == "residual"

    def test_gap_closure_on_equal_bounds(self):
        assert check_stop(200, 0, -48.46, -48.46, self.params) == "gap_closed"

    def test_keep_running(self):
        assert check_stop(200, 50, -50.0, -48.0, self.params) is None


class TestSolve:
    @pytest.mark.parametrize("c", [3.5, -7.25])
    def test_single_rotamer_instance(self, c):
        inst = make_instance((1,), [[c]], name="one")
        report = solve(inst)
        assert report.termination == "gap_closed"
        assert report.ubd == c
        assert abs(report.lbd - c) <= 1e-9 * (1.0 + abs(c))
        assert report.assignment.choice == (1,)

    def test_derived_instance_certified(self, derived_instance):
        report = solve(derived_instance)
        assert report.ubd == 6.0
        assert report.assignment.choice == (1, 2)
        assert report.lbd <= 6.0 + 1e-9
        assert report.termination in ("gap_closed", "residual")
        assert report.rel_gap <= 1e-9

    def test_zero_energy_instance(self):
        inst = make_instance((2, 3), np.zeros((5, 5)))
        report = solve(inst)
        assert report.ubd == 0.0
        assert abs(report.lbd) <= 1e-8

    def test_deterministic_reports(self, derived_instance):
        a = solve(derived_instance)
        b = solve(derived_instance)
        assert (a.lbd, a.ubd, a.rel_gap, a.iterations, a.termination) == (
            b.lbd,
            b.ubd,
            b.rel_gap,
            b.iterations,
            b.termination,
        )
        assert a.assignment == b.assignment
        assert a.residuals == b.residuals
        assert a.bound_history == b.bound_history

    def test_max_iter_termination(self, derived_instance):
        params = dataclasses.replace(default_params(derived_instance), max_iter=1)
        report = solve(derived_instance, params)
        assert report.termination == "max_iter"
        assert report.iterations == 1
        # bounds still evaluated once, at the final iterate
        assert len(report.bound_history) == 1

    def test_report_consistency(self, derived_instance):
        report = solve(derived_instance)
        history = report.bound_history
        assert report.lbd == max(r.lower for r in history)
        assert report.ubd == min(r.upper for r in history)
        assert report.certified == certified(report.lbd, report.ubd)
        assert report.ubd == objective(
            report.assignment.to_indicator(derived_instance.partition),
            derived_instance.energy,
        )

    def test_iterate_feasibility_and_pinned_dual(self):
        inst = random_instance(4, 4, (-10, 10), seed=77)
        geo = build_geometry(inst)
        _, _, z0 = initialize(geo)
        g = geo.gangster
        seen = []

        def cb(iteration, R, Y, Z):
            assert abs(np.trace(R) - (inst.partition.p + 1)) <= 1e-10
            assert np.linalg.eigvalsh(R)[0] >= -1e-10
            assert Y[0, 0] == 1.0
            assert np.all(Y[g[1:, 0], g[1:, 1]] == 0.0)
            assert Y.min() >= 0.0 and Y.max() <= 1.0
            assert np.array_equal(Z[0, :], z0[0, :])
            assert np.array_equal(Z[:, 0], z0[:, 0])
            assert np.array_equal(np.diag(Z), np.diag(z0))
            seen.append(iteration)

        report = solve(inst, on_checkpoint=cb)
        assert seen, "no checkpoints ran"
        assert seen[-1] == report.iterations

    def test_arrow_identity_at_convergence(self, derived_instance):
        captured = {}

        def cb(iteration, R, Y, Z):
            captured["Y"] = Y.copy()
            captured["R"] = R.copy()

        report = solve(derived_instance, on_checkpoint=cb)
        assert report.termination in ("gap_closed", "residual")
        Y, R = captured["Y"], captured["R"]
        assert np.max(np.abs(np.diag(Y) - Y[:, 0])) <= 1e-6
        assert abs(np.trace(R) - 3.0) <= 1e-10

    def test_oracle_sandwich_on_random_instances(self):
        for trial in range(6):
            inst = random_instance(3, 4, (-10, 10), seed=900 + trial)
            opt = brute_force(inst).optimum
            report = solve(inst)
            tol = 1e-6 * (1.0 + abs(opt))
            assert report.lbd - tol <= opt <= report.ubd
            # validity holds at every checkpoint, not just for the best pair
            for record in report.bound_history:
                assert record.lower - tol <= opt <= record.upper

    def test_all_singleton_blocks(self):
        # p == n0: the reduced variable is 1x1 and the only assignment wins
        inst = make_instance((1, 1, 1), np.diag([2.0, -1.0, 0.5]))
        report = solve(inst)
        assert report.termination == "gap_closed"
        assert report.ubd == 1.5
        assert report.assignment.choice == (1, 1, 1)

    def test_collision_scale_energies_certify(self):
        # huge pair energies mark collisions; the box projection keeps those
        # pairs out and the certificate still closes on the clean optimum
        E = np.array(
            [
                [5.0, 0.0, 1e12, 2.0, 1.0],
                [0.0, 3.0, 1.0, 1e12, 2.0],
                [1e12, 1.0, 2.0, 0.0, 3.0],
                [2.0, 1e12, 0.0, 1.0, 1.0],
                [1.0, 2.0, 3.0, 1.0, 4.0],
            ]
        )
        inst = make_instance((2, 2, 1), E, name="collisions")
        oracle = brute_force(inst)
        report = solve(inst)
        assert report.ubd == oracle.optimum == 18.0
        assert report.assignment == oracle.argmin
        assert report.lbd - 1e-6 * (1.0 + abs(oracle.optimum)) <= oracle.optimum

    def test_eigenvector_rounding_only_while_gap_open(self, monkeypatch):
        # seed 703 checks bounds three times: two open gaps, then a closing one
        inst = random_instance(4, 4, (-10, 10), seed=703)
        tried, per_checkpoint = [], []

        def recording_upper_bound(Y, instance, source):
            value, assignment = upper_bound(Y, instance, source)
            tried.append((source, value))
            return value, assignment

        def end_checkpoint(iteration, R, Y, Z):
            per_checkpoint.append(list(tried))
            tried.clear()

        monkeypatch.setattr(solver_module, "upper_bound", recording_upper_bound)
        report = solve(inst, on_checkpoint=end_checkpoint)
        assert len(per_checkpoint) == len(report.bound_history) == 3
        best_lower = -np.inf
        closing = []
        for calls, record in zip(per_checkpoint, report.bound_history):
            best_lower = max(best_lower, record.lower)
            column_value = calls[0][1]
            closing.append(certified(best_lower, column_value))
            sources = [source for source, _ in calls]
            expected = [FIRST_COLUMN] if closing[-1] else [FIRST_COLUMN, EIGENVECTOR]
            assert sources == expected
            assert record.upper == min(value for _, value in calls)
        assert closing == [False, False, True]
        assert report.termination == "gap_closed"

    def test_rank_one_on_reduced_structured_instance(self):
        instance, _ = structured_instance(101)
        report = solve(goldstein_reduce(instance).reduced)
        assert report.bound_history
        assert all(record.rank == 1 for record in report.bound_history)

    def test_rank_bounds_rank_of_checkpoint_r(self):
        # the factor may keep eigenvalues below matrix_rank's cutoff, never
        # fewer columns than the rank of R
        for inst in itertools.islice(acceptance_corpus(), 5):
            ranks = []
            report = solve(
                inst,
                on_checkpoint=lambda it, R, Y, Z: ranks.append(np.linalg.matrix_rank(R)),
            )
            assert len(ranks) == len(report.bound_history) > 0
            for record, rank in zip(report.bound_history, ranks):
                assert 1 <= rank <= record.rank <= inst.partition.n0 + 1 - inst.partition.p
