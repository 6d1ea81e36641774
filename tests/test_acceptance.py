"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Criteria 1-4 share one pass over a fixed 200-instance corpus
(seeded, so every run sees the same instances).
"""

import json
import time

import numpy as np
import pytest

from conftest import (
    acceptance_corpus,
    exposing_matrix,
    feasible_indicators,
    homogenized_constraints,
    lift,
    make_instance,
)
from scpsolve import (
    RotamerPartition,
    brute_force,
    default_params,
    goldstein_reduce,
    is_feasible,
    objective,
    random_instance,
    solve,
)
from scpsolve.bounds import certified, dual_lower_bound, round_to_feasible
from scpsolve.cli import build_report
from scpsolve.lifting import FaceBasis, build_geometry
from scpsolve.projections import project_simplex
from scpsolve.solver import initialize
from test_projections import geometry_of, psd_trace_matrix, simplex_oracle

INVARIANT_SUBSET = 20


def _criterion(num, name, ok, detail):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def corpus():
    return list(acceptance_corpus())


@pytest.fixture(scope="session")
def corpus_results(corpus):
    """One solve + oracle pass over the corpus.

    The first INVARIANT_SUBSET instances carry a checkpoint callback that
    records iterate-feasibility diagnostics; every instance records the
    final iterates for the convergence checks.
    """
    results = []
    started = time.perf_counter()
    for index, inst in enumerate(corpus):
        geometry = build_geometry(inst)
        _, _, pinned = initialize(geometry)
        gangster = ~geometry.free
        gangster[0, 0] = False  # pinned to 1, the rest to 0
        p = inst.partition.p
        final = {}
        invariants = {
            "trace_err": 0.0,
            "min_eig": 0.0,
            "gangster_exact": True,
            "box_exact": True,
            "pinned_exact": True,
            "checkpoints": 0,
        }
        collect = index < INVARIANT_SUBSET

        def on_checkpoint(iteration, R, Y, Z):
            final["Y"], final["R"] = Y.copy(), R.copy()
            if not collect:
                return
            invariants["checkpoints"] += 1
            invariants["trace_err"] = max(
                invariants["trace_err"], abs(float(np.trace(R)) - (p + 1))
            )
            invariants["min_eig"] = min(
                invariants["min_eig"], float(np.linalg.eigvalsh(R)[0])
            )
            if Y[0, 0] != 1.0 or not np.all(Y[gangster] == 0.0):
                invariants["gangster_exact"] = False
            if Y.min() < 0.0 or Y.max() > 1.0:
                invariants["box_exact"] = False
            if not (
                np.array_equal(Z[0, :], pinned[0, :])
                and np.array_equal(Z[:, 0], pinned[:, 0])
                and np.array_equal(np.diag(Z), np.diag(pinned))
            ):
                invariants["pinned_exact"] = False

        report = solve(inst, on_checkpoint=on_checkpoint)
        oracle = brute_force(inst)
        results.append(
            {
                "instance": inst,
                "report": report,
                "oracle": oracle,
                "final_Y": final["Y"],
                "final_R": final["R"],
                "invariants": invariants if collect else None,
            }
        )
    elapsed = time.perf_counter() - started
    return {"results": results, "elapsed": elapsed}


def test_criterion_01_oracle_sandwich(corpus_results):
    results = corpus_results["results"]
    elapsed = corpus_results["elapsed"]
    good = 0
    for row in results:
        opt = row["oracle"].optimum
        rep = row["report"]
        tol = 1e-6 * (1.0 + abs(opt))
        if rep.lbd - tol <= opt <= rep.ubd:
            good += 1
    ok = good == len(results) and elapsed < 600.0
    _criterion(
        1,
        "oracle sandwich on 200 random instances",
        ok,
        f"{good}/{len(results)} bracketed, corpus pass {elapsed:.1f}s < 600s",
    )


def test_criterion_02_certified_optimality(corpus_results):
    # the optimum is checked on every solve that is certified (gap_closed
    # stops included) or within rel_gap 1e-6; the closure rate counts
    # certificates only
    results = corpus_results["results"]
    checked = matched = closed = within = 0
    for row in results:
        rep = row["report"]
        is_certified = certified(rep.lbd, rep.ubd)
        is_within = rep.rel_gap <= 1e-6
        assert rep.certified == is_certified
        closed += is_certified
        within += is_within
        if not (is_certified or is_within):
            continue
        checked += 1
        opt = row["oracle"].optimum
        inst = row["instance"]
        x = rep.assignment.to_indicator(inst.partition)
        if (
            abs(rep.ubd - opt) <= 1e-6 * (1.0 + abs(opt))
            and is_feasible(x, inst.partition)
            and objective(x, inst.energy) == rep.ubd
        ):
            matched += 1
    ok = matched == checked
    _criterion(
        2,
        "certified solves match the exact optimum",
        ok,
        f"{matched}/{checked} match, closure rate {closed}/{len(results)} certified, "
        f"{within}/{len(results)} within rel_gap 1e-6",
    )


def test_criterion_03_arrow_identity_at_convergence(corpus_results):
    results = corpus_results["results"]
    checked = passed = 0
    worst = 0.0
    for row in results:
        rep = row["report"]
        if rep.termination not in ("gap_closed", "residual"):
            continue
        checked += 1
        Y, R = row["final_Y"], row["final_R"]
        arrow = float(np.max(np.abs(np.diag(Y) - Y[:, 0])))
        trace_err = abs(float(np.trace(R)) - (row["instance"].partition.p + 1))
        worst = max(worst, arrow)
        if arrow <= 1e-6 and trace_err <= 1e-10:
            passed += 1
    ok = passed == checked and checked > 0
    _criterion(
        3,
        "diagonal equals first column at convergence",
        ok,
        f"{passed}/{checked} converged solves, worst gap {worst:.2e}",
    )


def test_criterion_04_iterate_feasibility(corpus_results):
    rows = [r for r in corpus_results["results"] if r["invariants"] is not None]
    ok_count = 0
    worst_trace = 0.0
    worst_eig = 0.0
    for row in rows:
        inv = row["invariants"]
        worst_trace = max(worst_trace, inv["trace_err"])
        worst_eig = min(worst_eig, inv["min_eig"])
        if (
            inv["checkpoints"] > 0
            and inv["trace_err"] <= 1e-10
            and inv["min_eig"] >= -1e-10
            and inv["gangster_exact"]
            and inv["box_exact"]
            and inv["pinned_exact"]
        ):
            ok_count += 1
    ok = ok_count == len(rows) == INVARIANT_SUBSET
    _criterion(
        4,
        "iterate feasibility at every checkpoint",
        ok,
        f"{ok_count}/{len(rows)} instances clean, worst trace err {worst_trace:.1e}, "
        f"worst min eig {worst_eig:.1e}",
    )


def test_criterion_05_geometry_invariants():
    rng = np.random.default_rng(505)
    basis_ok = count_ok = 0
    trials = 50
    for _ in range(trials):
        p = int(rng.integers(1, 9))
        part = RotamerPartition(tuple(int(v) for v in rng.integers(1, 7, size=p)))
        V = FaceBasis(part).matrix
        H = homogenized_constraints(part)
        eye_err = float(np.max(np.abs(V.T @ V - np.eye(V.shape[1]))))
        ann_err = float(np.max(np.abs(H @ V)))
        if eye_err <= 1e-12 and ann_err <= 1e-12:
            basis_ok += 1
        if np.count_nonzero(~geometry_of(part.m).free) == 1 + sum(mi * (mi - 1) for mi in part.m):
            count_ok += 1
    expose_ok = 0
    for trial in range(20):
        p = int(rng.integers(1, 6))
        part = RotamerPartition(tuple(int(v) for v in rng.integers(1, 5, size=p)))
        K = exposing_matrix(part)
        x = np.zeros(part.n0)
        for off, mi in zip(part.offsets, part.m):
            x[off + int(rng.integers(mi))] = 1.0
        if float(np.max(np.abs(K @ lift(x)))) <= 1e-10:
            expose_ok += 1
    ok = basis_ok == trials and count_ok == trials and expose_ok == 20
    _criterion(
        5,
        "null basis, gangster count, exposing annihilation",
        ok,
        f"basis {basis_ok}/{trials}, count {count_ok}/{trials}, exposing {expose_ok}/20",
    )


def test_criterion_06_projection_oracles():
    rng = np.random.default_rng(606)
    simplex_ok = 0
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(1, 40))
        scale = float(rng.choice([0.1, 1.0, 10.0]))
        d = rng.normal(scale=scale, size=n)
        total = float(rng.uniform(0.05, 20.0))
        if np.max(np.abs(project_simplex(d, total) - simplex_oracle(d, total))) <= 1e-10:
            simplex_ok += 1
    psd_ok = 0
    psd_trials = 200
    for _ in range(psd_trials):
        n = int(rng.integers(1, 15))
        M = rng.normal(scale=2.0, size=(n, n))
        total = float(rng.uniform(0.5, 8.0))
        out = psd_trace_matrix(M, total)
        again = psd_trace_matrix(out, total)
        if (
            np.linalg.eigvalsh(out)[0] >= -1e-10
            and abs(np.trace(out) - total) <= 1e-10
            and np.max(np.abs(again - out)) <= 1e-10
        ):
            psd_ok += 1
    ok = simplex_ok == trials and psd_ok == psd_trials
    _criterion(
        6,
        "projection kernels match their oracles",
        ok,
        f"simplex {simplex_ok}/{trials}, psd {psd_ok}/{psd_trials}",
    )


def test_criterion_07_rounding_equivalence():
    rng = np.random.default_rng(707)
    trials = 500
    good = 0
    for _ in range(trials):
        p = int(rng.integers(1, 5))
        part = RotamerPartition(tuple(int(v) for v in rng.integers(1, 6, size=p)))
        x_approx = rng.uniform(0.0, 1.0, size=part.n0)
        best = min(
            float(np.sum((x - x_approx) ** 2)) for x in feasible_indicators(part)
        )
        rounded = round_to_feasible(x_approx, part).to_indicator(part)
        if float(np.sum((rounded - x_approx) ** 2)) == best:
            good += 1
    ok = good == trials
    _criterion(
        7,
        "blockwise argmax solves the nearest-feasible problem",
        ok,
        f"{good}/{trials}",
    )


def test_criterion_08_lower_bound_formula():
    rng = np.random.default_rng(808)
    trials = 100
    formula_ok = sandwich_ok = 0
    for trial in range(trials):
        inst = random_instance(
            int(rng.integers(2, 6)), 4, (-10, 10), seed=9000 + trial
        )
        geometry = build_geometry(inst)
        n = geometry.order
        M = rng.normal(scale=float(rng.choice([0.5, 2.0, 8.0])), size=(n, n))
        Z = 0.5 * (M + M.T)
        # closed-form inner minimum vs direct 0/1 extreme-point minimization
        C = geometry.lifted_cost + Z
        clipped = np.minimum(C, 0.0)
        clipped[~geometry.free] = 0.0
        closed = float(C[0, 0] + clipped.sum())
        Ymin = (C < 0.0).astype(float)
        Ymin[~geometry.free] = 0.0
        Ymin[0, 0] = 1.0
        direct = float(np.sum(C * Ymin))
        if abs(closed - direct) <= 1e-10:
            formula_ok += 1
        opt = brute_force(inst).optimum
        if dual_lower_bound(Z, geometry) <= opt + 1e-8 * (1.0 + abs(opt)):
            sandwich_ok += 1
    ok = formula_ok == trials and sandwich_ok == trials
    _criterion(
        8,
        "dual bound closed form and validity",
        ok,
        f"inner minimum {formula_ok}/{trials}, below optimum {sandwich_ok}/{trials}",
    )


def test_criterion_09_elimination_safety():
    trials = 100
    value_ok = idem_ok = 0
    for trial in range(trials):
        inst = random_instance(4, 4, (-10, 10), seed=11000 + trial)
        reduction = goldstein_reduce(inst)
        if brute_force(inst).optimum == brute_force(reduction.reduced).optimum:
            value_ok += 1
        again = goldstein_reduce(reduction.reduced)
        if again.reduced == reduction.reduced:
            idem_ok += 1
    ok = value_ok == trials and idem_ok == trials
    _criterion(
        9,
        "dead-end elimination preserves the optimum",
        ok,
        f"value {value_ok}/{trials}, idempotent {idem_ok}/{trials}",
    )


def test_criterion_10_determinism_and_defaults(corpus):
    # byte-identical reports (timing excluded; wall time is not input-determined)
    det_ok = True
    for inst in corpus[:3]:
        params = default_params(inst)
        docs = []
        for _ in range(2):
            report = solve(inst, params)
            doc = build_report(inst, report, report.assignment, params)
            del doc["time_sec"]
            docs.append((json.dumps(doc, indent=2) + "\n").encode())
        det_ok = det_ok and docs[0] == docs[1]

    # dimension pairs (p, n0) and the parameter formulas
    dims = [(37, 130), (8, 16), (247, 975)]
    defaults_ok = True
    for p, n0 in dims:
        base, extra = divmod(n0, p)
        m = (base + 1,) * extra + (base,) * (p - extra)
        inst = make_instance(m, np.zeros((n0, n0)))
        assert inst.partition.p == p and inst.partition.n0 == n0
        params = default_params(inst)
        expected_beta = float(max(int(np.floor(0.5 * n0 / p)), 1))
        defaults_ok = defaults_ok and (
            params.beta == expected_beta
            and params.gamma == 0.9
            and params.epsilon == 1e-10
            and params.t_consecutive == 100
            and params.max_iter == p * (n0 + 1) + 10_000
        )
    ok = det_ok and defaults_ok
    _criterion(
        10,
        "deterministic reports and dimension-based defaults",
        ok,
        f"byte-identical {det_ok}, defaults on {dims} {defaults_ok}",
    )
