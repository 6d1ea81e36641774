"""Optional cross-check of the relaxation against an independent conic solver.

Skipped automatically when cvxpy is not installed; the core suite never
depends on it.  This rebuilds the exact same relaxation (face basis,
gangster pattern, box, trace) as a cvxpy program and compares its optimal
value with the splitting solver's certified bounds.
"""

import numpy as np
import pytest

from scpsolve import brute_force, random_instance, solve
from scpsolve.lifting import build_geometry

cp = pytest.importorskip("cvxpy")


@pytest.mark.parametrize("seed", [1, 4])
def test_relaxation_value_matches_reference_solver(seed):
    inst = random_instance(3, 3, (-8, 8), seed=seed)
    geometry = build_geometry(inst)
    R = cp.Variable((geometry.face_dim, geometry.face_dim), symmetric=True)
    Y = geometry.face.matrix @ R @ geometry.face.matrix.T
    constraints = [R >> 0, cp.trace(R) == geometry.partition.p + 1]
    constraints += [
        Y[r, c] == (1.0 if (r, c) == (0, 0) else 0.0)
        for r, c in map(tuple, geometry.gangster)
    ]
    constraints += [Y >= 0, Y <= 1]
    problem = cp.Problem(
        cp.Minimize(cp.sum(cp.multiply(geometry.lifted_cost, Y))), constraints
    )
    problem.solve(solver=cp.SCS, eps=1e-9)
    assert problem.status == cp.OPTIMAL

    report = solve(inst)
    optimum = brute_force(inst).optimum
    # the dual bound can never exceed the true relaxation value, and the
    # relaxation value can never exceed the integer optimum
    assert report.lbd <= problem.value + 1e-6
    assert problem.value <= optimum + 1e-6
    # on these instances the relaxation is tight and both solvers agree
    assert abs(problem.value - optimum) <= 1e-6 * (1.0 + abs(optimum))
    assert abs(report.lbd - problem.value) <= 1e-5 * (1.0 + abs(problem.value))
