import dataclasses
import itertools
import json
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    acceptance_corpus,
    make_instance,
    reference_iterations,
    reference_pair_lower_bounds,
    zero_border_diag,
)
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
    dual_lower_bound,
    screen_declines,
    upper_bound,
)
from scpsolve import lifting, oracle, projections
from scpsolve.lifting import build_geometry
from scpsolve.projections import project_simplex
from scpsolve.solver import dual_step, initialize, r_update, y_update


def record_screens(monkeypatch) -> list[bool]:
    """Patch solve's screen to append each of its answers, True for a
    declined check, to the list returned."""
    answers = []

    def recording(*args):
        answers.append(screen_declines(*args))
        return answers[-1]

    monkeypatch.setattr(solver_module, "screen_declines", recording)
    return answers


def screen_period(instance) -> int:
    """The iterations between the checks of a solve of ``instance``:
    RITZ_SCREEN_PERIOD from face dimension MIN_ORDER on, where the Ritz
    screen runs, and SCREEN_PERIOD below it."""
    if build_geometry(instance).face_dim >= projections.MIN_ORDER:
        return solver_module.RITZ_SCREEN_PERIOD
    return solver_module.SCREEN_PERIOD


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
        # a NaN cap would never be reached: the iteration limits must be
        # integers >= 1, numpy's included, and not bools
        for bad in (math.nan, math.inf, 2.5, 3.0, True, "5", None, 0, -1):
            with pytest.raises(ValueError, match="max_iter"):
                SolverParams(beta=1.0, max_iter=bad)
            with pytest.raises(ValueError, match="t_consecutive"):
                SolverParams(beta=1.0, t_consecutive=bad)
        assert SolverParams(beta=1.0, max_iter=np.int64(7), t_consecutive=1).max_iter == 7
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


def assert_residuals_match(report, residuals):
    """The report's residuals and every record's, bit for bit, against the
    reference's of the iterations they follow."""
    ours = [report.residuals] + [record.residuals for record in report.bound_history]
    iterations = [report.iterations] + [record.iteration for record in report.bound_history]
    assert np.array(ours).tobytes() == np.array([residuals[k - 1] for k in iterations]).tobytes()


class TestStopOrder:
    # a single rotamer certifies at its first check; the cap, then the
    # residual rule, decide after the iteration, and a certificate ends
    # the solve only when neither has
    instance = make_instance((1,), [[3.5]])

    def solve_with(self, **changes):
        return solve(self.instance, dataclasses.replace(default_params(self.instance), **changes))

    def test_cap_at_the_certifying_check(self):
        report = self.solve_with(max_iter=10)
        assert (report.termination, report.iterations) == ("max_iter", 10)
        assert report.certified
        assert len(report.bound_history) == 1

    def test_residual_rule_before_the_first_check(self):
        report = self.solve_with(epsilon=1e6, t_consecutive=1)
        assert (report.termination, report.iterations) == ("residual", 1)
        assert report.certified

    def test_cap_before_the_residual_rule(self):
        report = self.solve_with(epsilon=1e6, t_consecutive=1, max_iter=1)
        assert (report.termination, report.iterations) == ("max_iter", 1)


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
        # Such a lower bound fails every screen, so only full checks are
        # recorded.
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
            history = report.bound_history
            assert all(r.iteration % solver_module.CHECK_PERIOD == 0 for r in history[:-1])

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

    @pytest.mark.parametrize(
        "m",
        [(5,), (1,) * 130, (1,) * 40 + (100,), (1, 90, 1, 1, 40)],
        ids=["one-block", "singletons", "singletons-beside-100", "singletons-beside-90-and-40"],
    )
    def test_degenerate_partitions_certify(self, m, monkeypatch):
        # one block, singletons alone (face dimension 1), and singletons
        # beside blocks whose faces (f = 100, 129) are above MIN_ORDER:
        # those two take the reflector face basis, the rank-one path and
        # the tridiagonal route.  Each solve certifies brute force's
        # optimum and warns of nothing
        n0 = sum(m)
        raw = np.random.default_rng(1).uniform(-10.0, 10.0, size=(n0, n0))
        inst = make_instance(m, 0.5 * (raw + raw.T))
        routes = set()
        for name in ("rank_one_psd_trace", "tridiagonal_psd_trace"):

            def recording(*args, route=getattr(projections, name), name=name):
                routes.add(name)
                return route(*args)

            monkeypatch.setattr(projections, name, recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = solve(inst)
        best = brute_force(inst)
        assert report.certified and report.termination == "gap_closed"
        assert report.ubd == best.optimum and report.assignment == best.argmin
        geometry = build_geometry(inst)
        if geometry.face_dim >= projections.MIN_ORDER:
            assert type(geometry.face) is lifting.FaceBasis
            assert "rank_one_psd_trace" in routes
            assert ("tridiagonal_psd_trace" in routes) == (projections.lapack() is not None)
        else:
            assert not routes

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
        # seed 1020 records the full checks at iterations 100 and 200 and
        # the screened check at 260; only the last closes the gap, and it
        # too rounds R's top eigenvector
        inst = random_instance(4, 4, (-10, 10), seed=1020)
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
        assert [record.iteration for record in report.bound_history] == [100, 200, 260]
        assert len(per_checkpoint) == 3
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

    @pytest.mark.parametrize("dense", [False, True])
    def test_eigensolves_start_on_a_lean_working_set(self, dense, monkeypatch):
        # when the R-update's tridiagonal route (or, without the LAPACK
        # binding, its eigh, ``projections.eigh``) and the lower bound's
        # eigvalsh (``projections.eigvalsh``, as bounds reads it) start, the
        # solve holds Y, Z, the lifted cost and the matrix being
        # decomposed, and no n x n temporary of the iteration: the traced
        # bytes above the level before the solve stay under five n x n
        # matrices, plus V where the dense basis holds it.  About 4.4 n^2
        # here; each kept temporary adds n^2, a symmetrized copy
        # (f/n)^2 = 0.71 n^2.  When the route's dstedc starts, the solve
        # holds two f x f arrays more, the route's reduced copy of S and
        # the eigenvectors that dstedc writes: about 5.9 n^2 here.  The
        # corpus instances are too small to tell: at n = 19 the solve's
        # Python objects alone weigh about 3 n^2.  The start is written
        # into initialize's Y: from there to the first R-update the traced
        # peak rises by under half an n x n matrix (the descent's p x n0
        # array is 0.16 n^2 here), where a fresh Y would add a whole one
        inst = random_instance(20, 12, (-10, 10), seed=1)
        n, f = inst.partition.n0 + 1, inst.partition.n0 + 1 - inst.partition.p
        allowance = 5 * n * n * 8
        if dense:
            monkeypatch.setattr(lifting, "FACE_CROSSOVER", inst.partition.n0 + 1)
            allowance += n * f * 8
        lapack = projections.lapack()
        eigensolves = [(bounds_module, "eigvalsh")]
        if lapack is None:
            eigensolves.append((projections, "eigh"))
        else:
            eigensolves += [(projections, "tridiagonal_psd_trace"), (lapack, "dstedc")]
        readings = [(owner, name, []) for owner, name in eigensolves]
        start = []
        initialize, r_update = solver_module.initialize, solver_module.r_update

        def reading(eigensolve, seen):
            def traced(a, *args, **kwargs):
                seen.append(tracemalloc.get_traced_memory()[0])
                return eigensolve(a, *args, **kwargs)

            return traced

        def traced_initialize(geometry):
            iterates = initialize(geometry)
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])
            return iterates

        def traced_r_update(*args):
            if len(start) == 1:
                start.append(tracemalloc.get_traced_memory()[1])
            return r_update(*args)

        for owner, name, seen in readings:
            monkeypatch.setattr(owner, name, reading(getattr(owner, name), seen))
        monkeypatch.setattr(solver_module, "initialize", traced_initialize)
        monkeypatch.setattr(solver_module, "r_update", traced_r_update)
        params = dataclasses.replace(default_params(inst), max_iter=30)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            solve(inst, params)
        finally:
            tracemalloc.stop()
        for _, name, seen in readings:
            assert seen, f"no {name} ran"
            route_arrays = 2 * f * f * 8 if name == "dstedc" else 0
            assert max(seen) - before < allowance + route_arrays, name
        level, peak = start
        assert peak - level < 0.5 * n * n * 8

    def test_rank_one_on_reduced_structured_instance(self):
        # guards the certificate's margin: each reduced instance certifies
        # at a screened check before iteration 100, with R of rank 1
        for seed in (101, 102, 103):
            instance, _ = structured_instance(seed)
            reduced = goldstein_reduce(instance).reduced
            report = solve(reduced)
            assert report.iterations < 100
            assert report.iterations % screen_period(reduced) == 0
            assert report.termination == "gap_closed" and report.certified
            assert [record.rank for record in report.bound_history] == [1]

    def test_partial_eigensolve_serves_most_r_updates(self, eigh_orders, monkeypatch):
        # a projection that always fell back to the full eigh would give
        # the same answers, so count the routes instead: the rank-one path
        # tries the R-updates whose start is of rank 1, the tridiagonal
        # route the others and those whose rank-one proof failed, reducing
        # S once each time, and the order-f eigh runs only without the
        # LAPACK binding.  On this instance no LAPACK routine fails
        instance, _ = structured_instance(101)
        reduced = goldstein_reduce(instance).reduced
        widths, failed, routed = [], [], []
        project = solver_module.project_psd_trace
        rank_one, tridiagonal = projections.rank_one_psd_trace, projections.tridiagonal_psd_trace
        lapack = projections.lapack()
        reductions = []

        def recording_project(M, total, start, proof):
            widths.append(start.shape[1])
            return project(M, total, start, proof)

        def recording_rank_one(S, total, start, proof):
            G = rank_one(S, total, start, proof)
            failed.append(G is None)
            return G

        def recording_tridiagonal(S, total, k, lapack):
            routed.append(k)
            return tridiagonal(S, total, k, lapack)

        monkeypatch.setattr(solver_module, "project_psd_trace", recording_project)
        monkeypatch.setattr(projections, "rank_one_psd_trace", recording_rank_one)
        monkeypatch.setattr(projections, "tridiagonal_psd_trace", recording_tridiagonal)
        if lapack is not None:
            dsytrd = lapack.dsytrd
            monkeypatch.setattr(lapack, "dsytrd", lambda *args: reductions.append(args[2]) or dsytrd(*args))
        report = solve(reduced)
        assert report.certified
        assert [record.rank for record in report.bound_history] == [1]
        f = build_geometry(reduced).face_dim
        full = eigh_orders.count(f)
        not_rank_one = len(widths) - widths.count(1)
        assert len(widths) == report.iterations and len(failed) == widths.count(1)
        if lapack is not None:
            assert len(routed) == not_rank_one + sum(failed) and reductions == [f] * len(routed)
            assert full == 0
        else:
            assert routed == [] and full == not_rank_one + sum(failed)
            assert full < 0.4 * report.iterations

    @pytest.mark.parametrize("seed", [1000, 8105001])
    def test_carried_proofs_keep_the_solve(self, seed, monkeypatch):
        # on DEE-reduced structured instances most served rank-one
        # R-updates reuse an earlier proof, so there are fewer Cholesky
        # factorizations than served calls; without carrying, each served
        # call factors.  In the second, the second eigenvalue stays within
        # 1e-3 |tau| of tau, so the margin must halve before it proves.
        # The report, and the rank-one path's served or fallback decision
        # at every R-update, are those without carrying
        reduced = goldstein_reduce(structured_instance(seed)[0]).reduced
        cholesky, rank_one = projections.cholesky_succeeds, projections.rank_one_psd_trace
        factorizations, decisions = [], []

        def counting_cholesky(T):
            factorizations.append(T.shape)
            return cholesky(T)

        def recording_rank_one(S, total, start, proof):
            G = rank_one(S, total, start, proof)
            decisions.append(G is not None)
            return G

        def run():
            factorizations.clear()
            decisions.clear()
            report = dataclasses.replace(solve(reduced), time_sec=0.0)
            return report, len(factorizations), list(decisions)

        monkeypatch.setattr(projections, "cholesky_succeeds", counting_cholesky)
        monkeypatch.setattr(projections, "rank_one_psd_trace", recording_rank_one)
        carried, carried_factorizations, served = run()
        monkeypatch.setattr(solver_module, "CarriedProof", lambda: None)
        plain, plain_factorizations, plain_served = run()
        assert carried.certified and carried == plain and served == plain_served
        assert carried_factorizations < sum(served) <= plain_factorizations

    def test_corpus_never_reaches_the_rank_one_path(self):
        # so the corpus solves are those of the full eigh alone, bit for bit
        orders = [build_geometry(inst).face_dim for inst in acceptance_corpus()]
        assert max(orders) < projections.MIN_ORDER

    def test_rank_leaves_out_rounding_level_eigenvalues(self, monkeypatch):
        # held-out corpus-like solve 152 at the fixed penalty (the step
        # patched to 1) and without dead-end pairs (with its 22 pairs
        # excluded it certifies at 40, at rank 1) certifies at iteration 130
        # with R of rank 2, and at its last R-update the simplex still gives
        # a third eigenvalue, of 3e-15, which the projection leaves out of
        # G.  No solve of the corpus, at either penalty, ends this way from
        # the 1-opt start
        last = {}

        def recording_simplex(d, total):
            w = project_simplex(d, total)
            last["positive"] = int(np.count_nonzero(w > 0.0))
            return w

        monkeypatch.setattr(projections, "project_simplex", recording_simplex)
        monkeypatch.setattr(solver_module, "BETA_STEP", 1.0)
        monkeypatch.setattr(solver_module, "dead_end_pairs", lambda *args: None)
        report = solve(list(itertools.islice(acceptance_corpus(200, 90000, 90000), 153))[152])
        assert report.certified and report.iterations == 130
        assert report.bound_history[-1].rank == 2 < last["positive"]

    def test_failed_screens_leave_the_report_unchanged(self, monkeypatch):
        # capped p=20 solves that never certify: their screened checks all
        # stop early, so the report is that of the full checks alone, as
        # when the checks come only every CHECK_PERIOD iterations, but for
        # the incumbent (ubd, assignment and so rel_gap), which the screened
        # checks' roundings may lower.  The
        # checks run at every screen_period-th iteration up to 250, the
        # full ones at 100, 200 and 250, the last.  Each check takes
        # exactly one of a declining screen or the lower bound: seed 3's
        # face (f = 68) is below MIN_ORDER, so it checks every
        # SCREEN_PERIOD iterations, 25 times, and takes the bound at each;
        # seed 6's (f = 96) checks every RITZ_SCREEN_PERIOD iterations, 50
        # times, and its 47 screened checks run the screen
        bounds = []

        def recording_bound(*args, **kwargs):
            bounds.append(dual_lower_bound(*args, **kwargs))
            return bounds[-1]

        monkeypatch.setattr(solver_module, "dual_lower_bound", recording_bound)
        periods = {name: getattr(solver_module, name) for name in ("SCREEN_PERIOD", "RITZ_SCREEN_PERIOD")}
        for seed, checks, screened_at in ((3, 25, 0), (6, 50, 47)):
            inst = random_instance(20, 10, (-10, 10), seed=seed)
            params = dataclasses.replace(default_params(inst), max_iter=250)
            for name, period in periods.items():
                monkeypatch.setattr(solver_module, name, period)
            screens = record_screens(monkeypatch)
            bounds.clear()
            screened = solve(inst, params)
            assert len(bounds) + sum(screens) == checks == 250 // screen_period(inst)
            assert len(screens) == screened_at
            for name in periods:
                monkeypatch.setattr(solver_module, name, solver_module.CHECK_PERIOD)
            bounds.clear()
            unscreened = solve(inst, params)
            assert len(bounds) == 3
            assert not screened.certified
            assert [record.iteration for record in screened.bound_history] == [100, 200, 250]
            assert screened.ubd <= unscreened.ubd
            incumbent = {"time_sec": 0.0, "ubd": 0.0, "assignment": None, "rel_gap": 0.0}
            assert dataclasses.replace(screened, **incumbent) == dataclasses.replace(unscreened, **incumbent)

    def test_declined_screens_leave_the_report_unchanged(self, monkeypatch):
        # a screen declines only checks whose lower bound would not
        # certify, so with its declines patched away every report field
        # but time_sec is the same, bit for bit (pickled): on the reduced
        # structured instances 101-103 (f = 271), p=20 seed 6 capped at
        # 250 (f = 96) and a p=80 instance capped at 30 (f = 193), each
        # with at least one declined check
        solves = [(goldstein_reduce(structured_instance(seed)[0]).reduced, None) for seed in (101, 102, 103)]
        for inst, cap in ((random_instance(20, 10, (-10, 10), seed=6), 250), (random_instance(80, 6, (-10, 10), seed=1), 30)):
            solves.append((inst, dataclasses.replace(default_params(inst), max_iter=cap)))

        def fields(report):
            return pickle.dumps(dataclasses.asdict(dataclasses.replace(report, time_sec=0.0)))

        for inst, params in solves:
            screens = record_screens(monkeypatch)
            screened = solve(inst, params)
            assert any(screens)
            monkeypatch.setattr(solver_module, "screen_declines", lambda *args: False)
            assert fields(solve(inst, params)) == fields(screened)

    def test_screen_certifies_as_early_as_checks_every_screen_period(self, monkeypatch):
        # a screened check that stops early never skips one that would
        # certify: the solve stops where one whose checks are all full,
        # CHECK_PERIOD patched to its screen_period, stops, on the reduced
        # structured instance (every RITZ_SCREEN_PERIOD iterations) and on
        # every fifth of the first 100 corpus instances (every
        # SCREEN_PERIOD).  The whole corpus agrees too, but takes longer;
        # only 147, which never certifies, ends with a lower ubd when every
        # check is full.  The relaxation stop, which runs at full checks,
        # is off in both
        monkeypatch.setattr(solver_module, "RELAXATION_GAP_RTOL", 0.0)
        instance, _ = structured_instance(101)
        instances = [goldstein_reduce(instance).reduced]
        instances += list(itertools.islice(acceptance_corpus(), 0, 100, 5))
        screened = [solve(inst) for inst in instances]
        assert screened[0].iterations < solver_module.CHECK_PERIOD
        assert screen_period(instances[0]) != screen_period(instances[1])
        skipped = 0
        for inst, report in zip(instances, screened):
            period = screen_period(inst)
            monkeypatch.setattr(solver_module, "CHECK_PERIOD", period)
            every = solve(inst)
            assert [r.iteration for r in every.bound_history] == list(
                range(period, every.iterations + 1, period)
            )
            assert (report.iterations, report.termination, report.ubd) == (
                every.iterations,
                every.termination,
                every.ubd,
            )
            assert report.certified == every.certified
            skipped += len(every.bound_history) - len(report.bound_history)
        assert skipped > 0

    def test_ritz_schedule_stops_no_later(self, monkeypatch):
        # the iterates do not depend on when a check runs, and a screened
        # check records nothing unless it certifies, so checking every
        # RITZ_SCREEN_PERIOD iterations from MIN_ORDER on runs every check
        # of the schedule with SCREEN_PERIOD alone, on the same state: the
        # solve stops no later, with the same ubd, assignment and
        # certificate.  The reduced structured instance 101 (f = 271)
        # certifies at 45 instead of 50, 102-104 at 40 under both; the p=80
        # instance (f = 193) never certifies and stops on the relaxation
        # stop at 700 under both, with the same report
        instances = [goldstein_reduce(structured_instance(seed)[0]).reduced for seed in (101, 102, 103, 104)]
        instances.append(random_instance(80, 6, (-10, 10), seed=1))
        assert all(screen_period(inst) == solver_module.RITZ_SCREEN_PERIOD for inst in instances)
        ritz = [solve(inst) for inst in instances]
        monkeypatch.setattr(solver_module, "RITZ_SCREEN_PERIOD", solver_module.SCREEN_PERIOD)
        earlier = 0
        for inst, report in zip(instances, ritz):
            every_tenth = solve(inst)
            assert report.iterations <= every_tenth.iterations
            assert (report.certified, report.ubd, report.assignment) == (
                every_tenth.certified,
                every_tenth.ubd,
                every_tenth.assignment,
            )
            earlier += report.iterations < every_tenth.iterations
        assert [report.certified for report in ritz] == [True] * 4 + [False]
        assert earlier == 1
        assert dataclasses.replace(ritz[-1], time_sec=0.0) == dataclasses.replace(every_tenth, time_sec=0.0)

    def test_below_min_order_checks_every_screen_period(self, monkeypatch):
        # a face below MIN_ORDER is checked every SCREEN_PERIOD iterations
        # whatever RITZ_SCREEN_PERIOD is, so its solve is bit-identical
        # (pickled, every field but time_sec) with RITZ_SCREEN_PERIOD
        # patched to 1: every tenth of the first 100 corpus instances (f <=
        # 31) and the p=20 solve capped at 255 (f = 68), whose last check
        # is off the schedule
        capped = random_instance(20, 10, (-10, 10), seed=3)
        solves = [(capped, dataclasses.replace(default_params(capped), max_iter=255))]
        solves += [(inst, None) for inst in itertools.islice(acceptance_corpus(), 0, 100, 10)]
        iterations, checked = [0], []
        r_update, upper_bound_here = solver_module.r_update, solver_module.upper_bound

        def counting_r_update(*args):
            iterations[0] += 1
            return r_update(*args)

        def recording_upper_bound(v, instance, source):
            if source == FIRST_COLUMN:
                checked.append(iterations[0])
            return upper_bound_here(v, instance, source)

        def fields(report):
            return pickle.dumps(dataclasses.asdict(dataclasses.replace(report, time_sec=0.0)))

        monkeypatch.setattr(solver_module, "r_update", counting_r_update)
        monkeypatch.setattr(solver_module, "upper_bound", recording_upper_bound)
        reports, lasts = [], []
        for inst, params in solves:
            assert screen_period(inst) == solver_module.SCREEN_PERIOD == 10
            iterations[0] = 0
            checked.clear()
            report = solve(inst, params)
            last = report.iterations
            assert checked == [*range(10, last, 10), last]
            reports.append(fields(report))
            lasts.append(last)
        assert lasts[0] == 255
        monkeypatch.setattr(solver_module, "RITZ_SCREEN_PERIOD", 1)
        assert [fields(solve(inst, params)) for inst, params in solves] == reports

    def test_one_first_column_rounding_per_screened_iteration(self, monkeypatch):
        # a solve checks at every screen_period-th iteration and at the
        # last, rounding the first column once at each, then taking exactly
        # one of a declining screen or the lower bound, and recording the
        # last; a screened check that goes on reuses the rounding and the
        # bound it screened with.  The two structured solves (f = 271)
        # decline some screens and certify at a screened iteration, the
        # p=20 ones (f = 68, below MIN_ORDER, so no screen declines) stop
        # at their caps (250 a SCREEN_PERIOD-th iteration, 255 not) and
        # corpus instance 115, with the relaxation stop switched off, on
        # the residual rule at 898; a solve that stops on the cap or the
        # residual rule knows its last iteration before the check, so it
        # runs no screen there
        monkeypatch.setattr(solver_module, "RELAXATION_GAP_RTOL", 0.0)
        events = []

        def counting(original):
            def wrapper(Y, instance, source):
                events.append(source)
                return original(Y, instance, source)

            return wrapper

        def bound(*args, **kwargs):
            events.append("lower")
            return dual_lower_bound(*args, **kwargs)

        def screen(*args):
            declined = screen_declines(*args)
            if declined:
                events.append("declined")
            return declined

        monkeypatch.setattr(solver_module, "upper_bound", counting(solver_module.upper_bound))
        monkeypatch.setattr(bounds_module, "upper_bound", counting(bounds_module.upper_bound))
        monkeypatch.setattr(solver_module, "dual_lower_bound", bound)
        monkeypatch.setattr(solver_module, "screen_declines", screen)
        solves = []
        for seed in (101, 102):
            instance, _ = structured_instance(seed)
            solves.append((goldstein_reduce(instance).reduced, None, "gap_closed"))
        capped = random_instance(20, 10, (-10, 10), seed=3)
        for cap in (250, 255):
            solves.append((capped, dataclasses.replace(default_params(capped), max_iter=cap), "max_iter"))
        residual = next(itertools.islice(acceptance_corpus(), 115, None))
        solves.append((residual, None, "residual"))
        declines = []
        for instance, params, termination in solves:
            events.clear()
            report = solve(instance, params)
            assert report.termination == termination
            assert report.iterations % solver_module.CHECK_PERIOD != 0
            checked = math.ceil(report.iterations / screen_period(instance))
            assert events.count(FIRST_COLUMN) == checked
            assert events.count("lower") + events.count("declined") == checked
            follows = {events[i + 1] for i, event in enumerate(events) if event == FIRST_COLUMN}
            assert follows <= {"lower", "declined"}
            declines.append(events.count("declined"))
            recorded = [r.iteration for r in report.bound_history]
            assert recorded == sorted({*range(100, report.iterations, 100), report.iterations})
            last = len(events) - events[::-1].index(FIRST_COLUMN)
            assert events[last:] == ["lower", EIGENVECTOR]
        assert report.iterations == 898
        assert declines[0] > 0 and declines[1] > 0 and sum(declines[2:]) == 0

    def test_off_period_records_only_certify(self, monkeypatch):
        # the bound history holds the full checks and the check that
        # certifies: a record off a multiple of CHECK_PERIOD is the last
        # and closes the gap, and each check, screened or full, takes
        # exactly one of a declining screen or the lower bound.  Over the
        # corpus, the reduced structured instances 101-103 and every fifth
        # p=4 seed from 700, 745 among them, whose stall recorded 175
        # checks with a screen estimated from above and records 16 now: the
        # full checks to 1,600, the last of which certifies
        counts = []

        def counting(*args, **kwargs):
            counts[-1] += 1
            return dual_lower_bound(*args, **kwargs)

        monkeypatch.setattr(solver_module, "dual_lower_bound", counting)
        screens = record_screens(monkeypatch)
        instances = list(acceptance_corpus())
        for seed in (101, 102, 103):
            instances.append(goldstein_reduce(structured_instance(seed)[0]).reduced)
        seeds = range(700, 900, 5)
        instances += [random_instance(4, 4, (-10, 10), seed=seed) for seed in seeds]
        lengths = []
        for inst in instances:
            counts.append(0)
            screens.clear()
            report = solve(inst)
            assert counts[-1] + sum(screens) == math.ceil(report.iterations / screen_period(inst))
            history = report.bound_history
            for index, record in enumerate(history):
                if record.iteration % solver_module.CHECK_PERIOD != 0:
                    assert index == len(history) - 1
                    assert record.iteration == report.iterations
                    assert report.termination == "gap_closed" and report.certified
            lengths.append(len(history))
        assert lengths[-len(seeds) + seeds.index(745)] == 16

    def test_lifted_lower_bound_records_only_full_checks(self):
        # the 1e20 and 1e14 instances at default parameters: a lower bound
        # lifted above the upper bound by rounding certifies no screen, so
        # the history is the 100 full checks at multiples of CHECK_PERIOD
        # and the last, at the cap
        base = random_instance(4, 4, (-10, 10), seed=5)
        for big in (1e20, 1e14):
            energy = np.array(base.energy)
            energy[0, 0] = big
            report = solve(make_instance(base.partition.m, energy))
            assert (report.termination, report.iterations) == ("max_iter", 10_052)
            assert not report.certified
            history = report.bound_history
            assert len(history) == 101
            assert all(r.iteration % solver_module.CHECK_PERIOD == 0 for r in history[:-1])
            assert history[-1].iteration == report.iterations

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
        G, Y, Z, residuals = reference_iterations(inst, params, 30)
        for ours, reference in zip((factors[-1], *iterates[-1]), (G, Y, Z)):
            assert ours.shape == reference.shape
            assert ours.tobytes() == reference.tobytes()
        assert_residuals_match(report, residuals)

    @pytest.mark.parametrize(
        "changes, stop, taken",
        [
            ({"epsilon": 1e6, "t_consecutive": 3}, (3, "residual"), 3),
            ({"epsilon": 1e-3, "t_consecutive": 3}, (33, "residual"), 14),
            ({"max_iter": 37}, (37, "max_iter"), 4),
        ],
    )
    def test_residuals_off_the_check_schedule(self, changes, stop, taken, monkeypatch):
        # the solve takes the residual norms only at the checks, at the cap
        # and where the primal norm lets the residual rule count the
        # iteration: at epsilon 1e-3 on 14 of 33 iterations, and capped at
        # 37 on 10, 20, 30 and 37.  A solve that stops between the checks
        # stops where the reference's residuals say, and reports and
        # records those of its last iteration.  The dead-end pairs are
        # patched away in the solve and its reference: with corpus
        # instance 0's 111 pairs excluded the solve converges by iteration
        # 15 at epsilon 1e-3, and certifies at 30, before the cap at 37
        monkeypatch.setattr(solver_module, "dead_end_pairs", lambda *args: None)
        monkeypatch.setattr(oracle, "dead_end_pairs", lambda *args: None)
        inst = next(acceptance_corpus())
        params = dataclasses.replace(default_params(inst), **changes)
        norms = []
        frobenius = solver_module.frobenius

        def counting_frobenius(x):
            norms.append(x.shape)
            return frobenius(x)

        monkeypatch.setattr(solver_module, "frobenius", counting_frobenius)
        report = solve(inst, params)
        assert (report.iterations, report.termination) == stop
        # one primal norm per iteration, two more where the residuals are taken
        assert len(norms) == report.iterations + 2 * taken
        residuals = reference_iterations(inst, params, report.iterations)[3]
        if report.termination == "residual":
            below = [max(r) < params.epsilon for r in residuals]
            t = params.t_consecutive
            first = next(k for k in range(t, len(below) + 1) if all(below[k - t : k]))
            assert first == report.iterations
        assert_residuals_match(report, residuals)

    def test_beta_follows_the_schedule(self):
        # a p=20 solve that never certifies, capped at BETA_STEP_AT, records
        # its last check at the starting beta; capped one iteration later,
        # its last check follows the step, and so do all of those of a
        # solve capped at 350, which records at 100, 200, 300 and 350
        inst = random_instance(20, 10, (-10, 10), seed=3)
        at, factor = solver_module.BETA_STEP_AT, solver_module.BETA_STEP
        assert factor > 1.0
        history = {}
        for cap in (at, at + 1, 350):
            report = solve(inst, dataclasses.replace(default_params(inst), max_iter=cap))
            assert not report.certified
            history[cap] = report.bound_history
        beta = default_params(inst).beta
        assert [(r.iteration, r.beta) for r in history[at]] == [(at, beta)]
        assert [(r.iteration, r.beta) for r in history[at + 1]] == [(at + 1, factor * beta)]
        assert [record.iteration for record in history[350]] == [100, 200, 300, 350]
        assert [record.beta for record in history[350]] == [factor * beta] * 4

    def test_solves_ending_by_the_step_keep_the_starting_beta(self, monkeypatch):
        # with BETA_STEP 1 the penalty stays fixed; a solve that ends by
        # iteration BETA_STEP_AT reports the same with and without the
        # step, every field but the time, while one that runs on does not.
        # The reduced structured instances 101 and 102 certify at 45 and
        # 40, and 7 corpus instances end at iteration 20, the rest at 30
        # to 1,060
        solves = []
        for seed in (101, 102):
            instance, _ = structured_instance(seed)
            solves.append((goldstein_reduce(instance).reduced, None))
        capped = random_instance(20, 10, (-10, 10), seed=3)
        for cap in (solver_module.BETA_STEP_AT, 100):
            solves.append((capped, dataclasses.replace(default_params(capped), max_iter=cap)))
        solves += [(inst, None) for inst in acceptance_corpus()]
        stepped = [solve(inst, params) for inst, params in solves]
        monkeypatch.setattr(solver_module, "BETA_STEP", 1.0)
        short = 0
        for (inst, params), report in zip(solves, stepped):
            fixed = solve(inst, params)
            same = dataclasses.replace(report, time_sec=0.0) == dataclasses.replace(fixed, time_sec=0.0)
            assert same == (report.iterations <= solver_module.BETA_STEP_AT)
            short += same
        assert short == 8

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


# the corpus solves whose relaxation, with the dead-end pairs excluded, is
# not tight (146's is not tight without them)
RELAXATION_GAP_SOLVES = (115, 121, 147)


@pytest.fixture(scope="module")
def corpus_reports():
    """Every corpus instance with its report, with the relaxation stop on
    and switched off (RELAXATION_GAP_RTOL 0), time_sec zeroed."""
    runs = []
    for inst in acceptance_corpus():
        on = solve(inst)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_module, "RELAXATION_GAP_RTOL", 0.0)
            off = solve(inst)
        runs.append((inst, dataclasses.replace(on, time_sec=0.0), dataclasses.replace(off, time_sec=0.0)))
    return runs


def relaxation_ratios(instance, report, Y_at):
    """|<L, Y> - best lbd| / (best ubd - best lbd) at each full check whose
    Y is in ``Y_at``, the best bounds over the records up to it.  A check
    whose best bounds pass ``certified`` is left out: the solve stops there
    on the closed gap, not by the relaxation stop, and the gap may be 0."""
    cost = build_geometry(instance).lifted_cost.ravel()
    ratios = {}
    for iteration, Y in Y_at.items():
        lower = max(r.lower for r in report.bound_history if r.iteration <= iteration)
        upper = min(r.upper for r in report.bound_history if r.iteration <= iteration)
        if certified(lower, upper):
            continue
        ratios[iteration] = abs(cost.dot(Y.ravel()) - lower) / (upper - lower)
    return ratios


def full_check_iterates(instance):
    """Solve ``instance``, keeping a copy of Y at each check at a multiple
    of CHECK_PERIOD."""
    Y_at = {}

    def keep(iteration, R, Y, Z):
        if iteration % solver_module.CHECK_PERIOD == 0:
            Y_at[iteration] = Y.copy()

    return solve(instance, on_checkpoint=keep), Y_at


class TestRelaxationStop:
    def test_loose_relaxations_stop_at_two_converged_full_checks(self, corpus_reports):
        # the three stop at a full check, where <L, Y> sits within 1% of the
        # open gap above the best lbd at that check and at the one before;
        # the rule off, they run on to the residual rule or the cap, with
        # the same incumbent
        period = solver_module.CHECK_PERIOD
        stops = {}
        for index in RELAXATION_GAP_SOLVES:
            inst, on, off = corpus_reports[index]
            assert on.termination == "relaxation_gap"
            assert not on.certified and not certified(on.lbd, on.ubd)
            assert on.iterations % period == 0
            assert on.bound_history[-1].iteration == on.iterations
            assert off.termination in ("residual", "max_iter")
            assert off.iterations > on.iterations
            assert (on.ubd, on.assignment) == (off.ubd, off.assignment)
            opt = brute_force(inst).optimum
            assert on.lbd - 1e-6 * (1.0 + abs(opt)) <= opt <= on.ubd
            rerun, Y_at = full_check_iterates(inst)
            assert dataclasses.replace(rerun, time_sec=0.0) == on
            ratios = relaxation_ratios(inst, on, Y_at)
            last = on.iterations
            assert ratios[last] < solver_module.RELAXATION_GAP_RTOL
            assert ratios[last - period] < solver_module.RELAXATION_GAP_RTOL
            stops[index] = last
        assert stops == {115: 400, 121: 700, 147: 300}

    def test_certified_reports_do_not_change(self, corpus_reports):
        # the rule runs only at full checks that leave the gap open and
        # never touches the iterates, so every certified solve is the same;
        # only the three loose relaxations stop by it
        stopped = []
        for index, (inst, on, off) in enumerate(corpus_reports):
            if on.termination == "relaxation_gap":
                stopped.append(index)
            else:
                assert on == off
        assert stopped == list(RELAXATION_GAP_SOLVES)
        assert sum(on.certified for _, on, _ in corpus_reports) == 197
        assert sum(on.iterations for _, on, _ in corpus_reports) == 13_970
        assert sum(off.iterations for _, _, off in corpus_reports) == 25_685

    def test_one_converged_check_does_not_stop(self):
        # random_instance(8, 6, ...) seed 7070: <L, Y> meets the best lbd
        # at iteration 100 and moves away by 200; the solve certifies at
        # 2,470, which a rule on one full check would have stopped at 100
        inst = random_instance(8, 6, (-10, 10), seed=7070)
        report, Y_at = full_check_iterates(inst)
        assert report.certified and report.termination == "gap_closed"
        assert report.iterations == 2470
        assert report.ubd == brute_force(inst).optimum
        ratios = relaxation_ratios(inst, report, Y_at)
        rtol = solver_module.RELAXATION_GAP_RTOL
        assert [ratios[k] < rtol for k in (100, 200, 300)] == [True, False, False]


class ReferenceDenseFaceBasis(lifting.DenseFaceBasis):
    """The dense face basis with V taken as ``FaceBasis.apply`` of the
    identity, the reflector products' own V."""

    def __init__(self, partition):
        face = lifting.FaceBasis(partition)
        self.order, self.dim, self.matrix = face.order, face.dim, face.matrix


def reference_dead_end_pairs(instance, start, cutoff):
    """``oracle.dead_end_pairs`` from the O(n0^3) definition of the pair
    bound, for instances where its upper-bound screen passes (entries
    within a block are NaN there, and NaN exceeds nothing)."""
    return reference_pair_lower_bounds(instance) > cutoff + oracle.pair_rounding(instance)


def test_corpus_reports_match_the_reference_routines(monkeypatch):
    # the solve's own small eigensolves, dense V and dead-end pairs give
    # every report field but time_sec bit for bit as numpy's wrapped
    # eigh and eigvalsh, FaceBasis.apply of the identity and the cubic
    # pair bound do, on the 200 corpus instances (none of which the
    # upper-bound screen lets off)
    def fields(report):
        values = dataclasses.asdict(report)
        del values["time_sec"]
        return pickle.dumps(values)

    instances = list(acceptance_corpus())
    reports = [fields(solve(inst)) for inst in instances]
    monkeypatch.setattr(projections, "eigh", np.linalg.eigh)
    monkeypatch.setattr(bounds_module, "eigvalsh", np.linalg.eigvalsh)
    monkeypatch.setattr(lifting, "DenseFaceBasis", ReferenceDenseFaceBasis)
    monkeypatch.setattr(solver_module, "dead_end_pairs", reference_dead_end_pairs)
    for inst, report in zip(instances, reports):
        assert fields(solve(inst)) == report, inst.name


def test_held_out_solves_bracket_the_optimum():
    # corpus-like instances the acceptance gate does not use, as many as
    # it has: every solve brackets the exhaustive optimum, and every
    # certified one attains it.  197 of the 200 certify in 29,702
    # iterations, pinned so that a change to the penalty or the check
    # schedule is judged here as well as on the gate corpus
    held_out = acceptance_corpus(corpus_seed=90000, instance_seed=90000)
    total = certified_count = 0
    for inst in held_out:
        report = solve(inst)
        total += report.iterations
        opt = brute_force(inst).optimum
        assert report.lbd - 1e-6 * (1.0 + abs(opt)) <= opt <= report.ubd
        if report.certified:
            certified_count += 1
            assert report.ubd == opt
    assert (total, certified_count) == (29_702, 197)


def test_small_instances_certify_within_an_iteration_budget():
    # random_instance(4, 4, ...) seeds 700-899, which the acceptance gate
    # does not use: every solve certifies the exhaustive optimum, and all
    # 200 take at most 21,000 iterations (9,200 with the penalty step;
    # a fixed beta takes 15,880)
    total = 0
    for seed in range(700, 900):
        inst = random_instance(4, 4, (-10, 10), seed=seed)
        report = solve(inst)
        assert report.certified
        assert report.ubd == brute_force(inst).optimum
        total += report.iterations
    assert total <= 21_000


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
