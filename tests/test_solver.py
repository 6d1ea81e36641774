import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import acceptance_corpus, make_instance, reference_iterations, zero_border_diag
import scpsolve.bounds as bounds_module
import scpsolve.solver as solver_module
from perfbench.structured import structured_instance
from scpsolve import (
    RotamerPartition,
    SolverParams,
    brute_force,
    default_params,
    goldstein_reduce,
    objective,
    parse_instance,
    random_instance,
    serialize_instance,
    solve,
)
from scpsolve.bounds import (
    EIGENVECTOR,
    FIRST_COLUMN,
    GAP_CLOSE_RTOL,
    certified,
    lower_bound_ceiling,
    upper_bound,
)
from scpsolve import lifting, projections
from scpsolve.lifting import build_geometry
from scpsolve.projections import project_simplex
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

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverParams(beta=0.5)
        with pytest.raises(ValueError):
            SolverParams(beta=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            SolverParams(beta=1.0, epsilon=0.0)
        with pytest.raises(ValueError):
            SolverParams(beta=1.0, max_iter=0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="beta"):
                SolverParams(beta=bad)
            with pytest.raises(ValueError, match="epsilon"):
                SolverParams(beta=1.0, epsilon=bad)


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
        geo = build_geometry(derived_instance)
        _, _, Z = initialize(geo)
        out = dual_step(Z, np.zeros((5, 5)), 0.9, geo.dual_fixed)
        assert np.array_equal(out, Z)

    def test_diagonal_never_moves(self):
        rng = np.random.default_rng(32)
        geo = build_geometry(make_instance((2, 3), np.zeros((5, 5))))
        Z = rng.normal(size=(6, 6))
        residual = rng.normal(size=(6, 6))
        expected = zero_border_diag(residual) * 1.7 + Z
        out = dual_step(Z, residual, 1.7, geo.dual_fixed)
        assert out is residual  # the step overwrites the residual
        assert np.array_equal(np.diag(out), np.diag(Z))
        assert np.array_equal(out, expected)

    def test_border_stays_zero_through_one_iteration(self, derived_instance):
        geo = build_geometry(derived_instance)
        params = default_params(derived_instance)
        _, Y, Z = initialize(geo)
        F = geo.face.matrix @ r_update(Y, Z, geo, params.beta)
        vrv = F @ F.T
        Z_half = dual_step(Z, Y - vrv, params.gamma * params.beta, geo.dual_fixed)
        assert np.all(Z_half[0, :] == 0.0)
        assert np.all(Z_half[:, 0] == 0.0)
        Y1 = y_update(vrv, Z_half, geo, params.beta)
        Z1 = dual_step(Z_half, Y1 - vrv, params.gamma * params.beta, geo.dual_fixed)
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
        F = geo.face.matrix @ r_update(Y0, Z0, geo, params.beta)
        vrv = F @ F.T
        Z_half = dual_step(Z0, Y0 - vrv, params.gamma * params.beta, geo.dual_fixed)
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

    def test_lower_bound_above_upper_bound_does_not_certify(self):
        # an energy of 1e20 or 1e14 on a rotamer the optimum never uses
        # swamps the lower bound with rounding error: it rises above the
        # rounded upper bound, and must not certify it.  The screened checks
        # round often enough to reach the optimum, so only the order of the
        # bounds, not the ubd's distance from the optimum, is asserted.
        base = random_instance(4, 4, (-10, 10), seed=5)
        for big in (1e20, 1e14):
            energy = np.array(base.energy)
            energy[0, 0] = big
            inst = make_instance(base.partition.m, energy)
            optimum = brute_force(inst)
            assert optimum.argmin.choice == (3, 1, 1, 2)
            report = solve(inst, dataclasses.replace(default_params(inst), max_iter=2000))
            assert report.lbd > report.ubd >= optimum.optimum
            assert not report.certified
            assert report.termination == "max_iter"

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

    def test_every_recorded_check_tries_both_roundings(self, monkeypatch):
        # seed 736 checks bounds at iteration 100 and at every screened
        # iteration that passes from 180 on; only the last check, at 210,
        # closes the gap, and it too rounds R's top eigenvector
        inst = random_instance(4, 4, (-10, 10), seed=736)
        tried, per_checkpoint = [], []

        def recording_upper_bound(v, instance, source):
            value, assignment = upper_bound(v, instance, source)
            tried.append((source, value))
            return value, assignment

        def end_checkpoint(iteration, R, Y, Z):
            # the screened iterations that stopped early since the last
            # checkpoint rounded the first column too: the checkpoint's own
            # roundings start at the last first-column call
            sources = [source for source, _ in tried]
            last_column = len(sources) - 1 - sources[::-1].index(FIRST_COLUMN)
            assert set(sources[:last_column]) <= {FIRST_COLUMN}
            per_checkpoint.append(tried[last_column:])
            tried.clear()

        monkeypatch.setattr(solver_module, "upper_bound", recording_upper_bound)
        report = solve(inst, on_checkpoint=end_checkpoint)
        assert len(per_checkpoint) == len(report.bound_history) > 2
        best_lower = -np.inf
        closing = []
        for calls, record in zip(per_checkpoint, report.bound_history):
            best_lower = max(best_lower, record.lower)
            (_, column_value), (_, eigenvector_value) = calls
            closing.append(certified(best_lower, column_value))
            assert [source for source, _ in calls] == [FIRST_COLUMN, EIGENVECTOR]
            assert record.upper == min(column_value, eigenvector_value)
            winner = EIGENVECTOR if eigenvector_value < column_value else FIRST_COLUMN
            assert record.upper_source == winner
        assert closing == [False] * (len(closing) - 1) + [True]
        assert report.termination == "gap_closed"

    def test_eigenvector_rounding_runs_no_lifted_eigensolve(self, eigh_orders, monkeypatch):
        # the eigenvector rounding reads R's top eigenvector off the
        # iteration's factor: no eigh of a lifted matrix, order n0 + 1, runs
        inst = random_instance(4, 4, (-10, 10), seed=736)
        sources = []

        def recording_upper_bound(v, instance, source):
            sources.append(source)
            return upper_bound(v, instance, source)

        monkeypatch.setattr(solver_module, "upper_bound", recording_upper_bound)
        report = solve(inst)
        assert report.certified
        assert EIGENVECTOR in sources
        assert eigh_orders, "the projection's eigensolves were not counted"
        assert inst.partition.n0 + 1 not in eigh_orders

    def test_rank_one_on_reduced_structured_instance(self):
        # guards the certificate's margin: each reduced instance certifies
        # at its first bound check, a screened one before iteration 100,
        # with R of rank 1
        for seed in (101, 102, 103):
            instance, _ = structured_instance(seed)
            report = solve(goldstein_reduce(instance).reduced)
            assert report.iterations < 100
            assert report.iterations % solver_module.SCREEN_PERIOD == 0
            assert report.termination == "gap_closed" and report.certified
            assert [record.rank for record in report.bound_history] == [1]

    def test_partial_eigensolve_serves_most_r_updates(self, eigh_orders):
        # a projection that always fell back to the full eigh would give
        # the same answers, so count the order-f eigh calls instead
        instance, _ = structured_instance(101)
        reduced = goldstein_reduce(instance).reduced
        report = solve(reduced)
        assert report.certified
        full = eigh_orders.count(build_geometry(reduced).face_dim)
        assert full < 0.4 * report.iterations

    def test_rank_leaves_out_rounding_level_eigenvalues(self, monkeypatch):
        # corpus solve 197 certifies a rank-1 optimum, and at its last
        # R-update the simplex still gives an eigenvalue of 4e-15 beside
        # one of about 5, which the projection leaves out of G
        last = {}

        def recording_simplex(d, total):
            w = project_simplex(d, total)
            last["positive"] = int(np.count_nonzero(w > 0.0))
            return w

        monkeypatch.setattr(projections, "project_simplex", recording_simplex)
        report = solve(list(itertools.islice(acceptance_corpus(), 198))[197])
        assert report.certified
        assert report.bound_history[-1].rank == 1 < last["positive"]

    def test_failed_screens_leave_the_report_unchanged(self, monkeypatch):
        # a capped p=20 solve that never certifies: its screened checks all
        # stop early, so the report is that of the CHECK_PERIOD checks alone
        inst = random_instance(20, 10, (-10, 10), seed=3)
        params = dataclasses.replace(default_params(inst), max_iter=250)
        estimates = []

        def recording_ceiling(*args):
            estimates.append(lower_bound_ceiling(*args))
            return estimates[-1]

        monkeypatch.setattr(solver_module, "lower_bound_ceiling", recording_ceiling)
        screened = solve(inst, params)
        assert len(estimates) == 23
        monkeypatch.setattr(solver_module, "lower_bound_ceiling", lambda *args: -math.inf)
        fixed = solve(inst, params)
        assert not screened.certified
        assert [record.iteration for record in screened.bound_history] == [100, 200, 250]
        assert screened.bound_history == fixed.bound_history
        assert (screened.lbd, screened.ubd, screened.assignment, screened.residuals) == (
            fixed.lbd,
            fixed.ubd,
            fixed.assignment,
            fixed.residuals,
        )

    def test_screen_certifies_as_early_as_checks_every_screen_period(self, monkeypatch):
        # a screened check that stops early never skips one that would
        # certify: the solve stops where one whose screened checks always
        # go on, so bounds evaluated at every SCREEN_PERIOD-th iteration,
        # stops, on the reduced structured instance and on every fifth of
        # the first 100 corpus instances (the whole corpus agrees too, but
        # takes longer)
        instance, _ = structured_instance(101)
        instances = [goldstein_reduce(instance).reduced]
        instances += list(itertools.islice(acceptance_corpus(), 0, 100, 5))
        screened = [solve(inst) for inst in instances]
        assert screened[0].iterations < solver_module.CHECK_PERIOD
        monkeypatch.setattr(solver_module, "lower_bound_ceiling", lambda *args: math.inf)
        for inst, report in zip(instances, screened):
            every = solve(inst)
            assert (report.iterations, report.termination, report.ubd) == (
                every.iterations,
                every.termination,
                every.ubd,
            )
            assert report.certified == every.certified

    def test_one_first_column_rounding_per_screened_iteration(self, monkeypatch):
        # a screened check that goes on reuses the rounding it screened
        # with, and the final check reuses that of a screened check at the
        # same iteration that stopped early: each of these solves ends at a
        # screened iteration, the two structured ones certifying there and
        # the p=20 one at its cap, and rounds the first column once at each
        # SCREEN_PERIOD-th iteration
        columns = []

        def counting(original):
            def wrapper(Y, instance, source):
                columns.append(source == FIRST_COLUMN)
                return original(Y, instance, source)

            return wrapper

        monkeypatch.setattr(solver_module, "upper_bound", counting(solver_module.upper_bound))
        monkeypatch.setattr(bounds_module, "upper_bound", counting(bounds_module.upper_bound))
        solves = []
        for seed in (101, 102):
            instance, _ = structured_instance(seed)
            solves.append((goldstein_reduce(instance).reduced, None, "gap_closed"))
        capped = random_instance(20, 10, (-10, 10), seed=3)
        solves.append((capped, dataclasses.replace(default_params(capped), max_iter=250), "max_iter"))
        for instance, params, termination in solves:
            columns.clear()
            report = solve(instance, params)
            assert report.termination == termination
            assert report.iterations % solver_module.CHECK_PERIOD != 0
            assert sum(columns) == report.iterations // solver_module.SCREEN_PERIOD

    def test_structured_face_products_keep_the_solve(self, monkeypatch):
        # a capped solve above the crossover runs the same iterations and
        # roundings with V applied through its reflectors as with dense V
        inst = random_instance(20, 12, (-10, 10), seed=1)
        assert inst.partition.n0 >= lifting.FACE_CROSSOVER
        params = dataclasses.replace(default_params(inst), max_iter=250)
        structured = solve(inst, params)
        monkeypatch.setattr(lifting, "FACE_CROSSOVER", inst.partition.n0 + 1)
        dense = solve(inst, params)
        assert structured.iterations == dense.iterations == 250
        assert structured.termination == dense.termination
        assert (structured.ubd, structured.assignment) == (dense.ubd, dense.assignment)
        assert [r.rank for r in structured.bound_history] == [r.rank for r in dense.bound_history]
        assert abs(structured.lbd - dense.lbd) <= 1e-9 * abs(dense.lbd)

    @pytest.mark.parametrize("case", ["corpus", "above_crossover", "singletons"])
    def test_iterates_match_the_unfused_reference(self, case, monkeypatch):
        # the solver's fused passes give the reference's G, Y, Z and
        # residuals bit for bit, sign bits included, through the dense
        # products (corpus instance 0, which has a singleton block) and the
        # structured ones (a p=20 instance, and one with many singletons)
        if case == "corpus":
            inst = next(acceptance_corpus())
        elif case == "above_crossover":
            inst = random_instance(20, 12, (-10, 10), seed=1)
        else:
            m = (1, 2, 1, 7, 1, 3) * 8
            raw = np.random.default_rng(9).uniform(-10.0, 10.0, size=(sum(m), sum(m)))
            inst = make_instance(m, raw + raw.T)
        geometry = build_geometry(inst)
        assert (case == "corpus") == (inst.partition.n0 < lifting.FACE_CROSSOVER)
        assert case != "singletons" or 1 in inst.partition.m
        params = dataclasses.replace(default_params(inst), max_iter=30)
        factors, iterates = [], []

        def recording_r_update(*args):
            factors.append(r_update(*args))
            return factors[-1]

        monkeypatch.setattr(solver_module, "r_update", recording_r_update)
        report = solve(inst, params, on_checkpoint=lambda i, R, Y, Z: iterates.append((Y.copy(), Z.copy())))
        assert report.iterations == 30
        G, Y, Z, residuals = reference_iterations(geometry, params, 30)
        for ours, reference in zip((factors[-1], *iterates[-1]), (G, Y, Z)):
            assert ours.shape == reference.shape
            assert ours.tobytes() == reference.tobytes()
        assert report.residuals == residuals

    def test_beta_follows_the_schedule(self):
        # a capped p=20 solve that never certifies records its checks at
        # 100, 200, 300 and 350: the first follows iterations at the
        # starting beta, and each CHECK_PERIOD check multiplies it by
        # BETA_GROWTH until it reaches BETA_GROWTH_CAP times the start
        inst = random_instance(20, 10, (-10, 10), seed=3)
        params = dataclasses.replace(default_params(inst), max_iter=350)
        report = solve(inst, params)
        assert not report.certified
        history = report.bound_history
        assert [record.iteration for record in history] == [100, 200, 300, 350]
        growth, cap = solver_module.BETA_GROWTH, solver_module.BETA_GROWTH_CAP
        assert growth > 1.0 and growth * growth == cap
        assert [record.beta for record in history] == [
            params.beta,
            growth * params.beta,
            cap * params.beta,
            cap * params.beta,
        ]

    def test_solves_within_one_check_period_keep_the_starting_beta(self, monkeypatch):
        # with BETA_GROWTH 1 the penalty stays fixed; a solve that ends by
        # iteration CHECK_PERIOD reports the same with and without growth,
        # every field but the time, while one that runs on does not
        instance, _ = structured_instance(101)
        capped = random_instance(20, 10, (-10, 10), seed=3)
        solves = [
            (goldstein_reduce(instance).reduced, None),
            (capped, dataclasses.replace(default_params(capped), max_iter=100)),
        ]
        solves += [(inst, None) for inst in itertools.islice(acceptance_corpus(), 0, 200, 10)]
        growing = [solve(inst, params) for inst, params in solves]
        monkeypatch.setattr(solver_module, "BETA_GROWTH", 1.0)
        short = 0
        for (inst, params), report in zip(solves, growing):
            fixed = solve(inst, params)
            same = dataclasses.replace(report, time_sec=0.0) == dataclasses.replace(fixed, time_sec=0.0)
            assert same == (report.iterations <= solver_module.CHECK_PERIOD)
            short += same
        assert 2 < short < len(solves)

    @pytest.mark.parametrize("p, m_max, seed, cap", [(5, 4, 2, None), (20, 10, 3, 130)])
    def test_last_record_carries_the_report_residuals(self, p, m_max, seed, cap):
        # a solve checks the bounds at its last iteration, whether it
        # certifies there (the first) or stops at the cap (the second)
        inst = random_instance(p, m_max, (-10, 10), seed=seed)
        params = default_params(inst)
        if cap is not None:
            params = dataclasses.replace(params, max_iter=cap)
        report = solve(inst, params)
        last = report.bound_history[-1]
        assert report.termination == ("max_iter" if cap else "gap_closed")
        assert last.iteration == report.iterations
        assert last.residuals == report.residuals
        assert all(math.isfinite(r) for record in report.bound_history for r in record.residuals)

    def test_rank_bounds_rank_of_checkpoint_r(self):
        # the recorded rank, G's width, is the rank of R at the cutoff
        # order*eps*trace
        for inst in itertools.islice(acceptance_corpus(), 5):
            face_dim = inst.partition.n0 + 1 - inst.partition.p
            cutoff = face_dim * np.finfo(float).eps * (inst.partition.p + 1)
            ranks = []
            report = solve(
                inst,
                on_checkpoint=lambda it, R, Y, Z: ranks.append(
                    np.linalg.matrix_rank(R, tol=cutoff)
                ),
            )
            assert len(ranks) == len(report.bound_history) > 0
            for record, rank in zip(report.bound_history, ranks):
                assert 1 <= rank == record.rank <= face_dim


def test_held_out_solves_bracket_the_optimum():
    # corpus-like instances the acceptance gate does not use: every solve
    # brackets the exhaustive optimum, and every certified one attains it;
    # 47 of the 50 certify (44 with a fixed beta)
    held_out = acceptance_corpus(size=50, corpus_seed=90000, instance_seed=90000)
    certified_count = 0
    for inst in held_out:
        report = solve(inst)
        opt = brute_force(inst).optimum
        assert report.lbd - 1e-6 * (1.0 + abs(opt)) <= opt <= report.ubd
        if report.certified:
            certified_count += 1
            assert report.ubd == opt
    assert certified_count >= 45


@st.composite
def instance_documents(draw):
    """JSON instance documents with p 1-4, m 1-4 and energies in -10..10;
    integer energies make ties between assignments likely."""
    m = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n0 = sum(m)
    entry = st.one_of(st.integers(-10, 10), st.floats(-10, 10))
    E = [[0] * n0 for _ in range(n0)]
    for r in range(n0):
        for c in range(r, n0):
            E[r][c] = E[c][r] = draw(entry)
    return json.dumps({"name": "property", "p": len(m), "m": m, "E": E})


@settings(max_examples=30, deadline=None)
@given(text=instance_documents())
def test_parse_solve_sandwich(text):
    inst = parse_instance(text)
    assert parse_instance(serialize_instance(inst)) == inst
    report = solve(inst)
    opt = brute_force(inst).optimum
    slack = 1e-6 * (1.0 + abs(opt))
    assert report.lbd <= opt + slack <= report.ubd + slack
    x = report.assignment.to_indicator(inst.partition)
    assert report.ubd == objective(x, inst.energy)
    if report.certified:
        # certified: ubd is within the certification tolerance of the optimum
        assert abs(report.ubd - opt) <= GAP_CLOSE_RTOL * (1.0 + abs(opt))
