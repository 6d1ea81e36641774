"""Peaceman-Rachford splitting solver for the lifted relaxation.

The relaxation couples a reduced PSD variable R (order n0+1-p, trace p+1)
to a lifted box variable Y (order n0+1, gangster pattern fixed, entries in
[0, 1]) through the facial constraint Y = V R V'.  Each iteration solves
the two blocks in closed form and takes two damped dual steps, one after
each block:

    R  <- nearest PSD/trace matrix to V'(Y + Z/beta)V
    Z  <- Z + gamma*beta * mask(Y - VRV')          (half step)
    Y  <- box/gangster projection of VRV' - (cost + Z)/beta
    Z  <- Z + gamma*beta * mask(Y - VRV')          (full step)

The mask zeroes the dual coordinates whose optimal values are known (row 0,
column 0, diagonal), so those entries stay at their initialized values for
the entire run.  R is kept as its factor G with R = GG' and rank r, G's
width, so VRV' is the rank-r product (VG)(VG)'.  Each R-update passes the previous G to the
projection: while R has low rank, a partial eigensolve warm-started on G's
columns replaces the full eigendecomposition whenever its residual test
and a Cholesky check prove that it gives the same projection.  Lower and
upper bounds are checked on the schedule stated in ``solve``; the solve
stops on a closed gap, on persistently small residuals, or at the
iteration cap.

The penalty beta starts at ``SolverParams.beta`` and grows on a fixed
schedule: after every CHECK_PERIOD-th iteration whose check leaves the
solve running, beta is multiplied by BETA_GROWTH, up to BETA_GROWTH_CAP
times its starting value.  A solve that ends by iteration CHECK_PERIOD
never changes it.  The penalty changes finitely often, which keeps the
splitting's convergence, and every lower bound is valid for any Z, so the
certificate does not depend on beta.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bounds import (
    EIGENVECTOR,
    FIRST_COLUMN,
    BoundRecord,
    certified,
    dual_lower_bound,
    lower_bound_ceiling,
    relative_gap,
    upper_bound,
)
from .instances import Assignment, ScpInstance
from .lifting import LiftedGeometry, build_geometry
from .projections import project_box_gangster, project_psd_trace

TERMINATION_MAX_ITER = "max_iter"
TERMINATION_RESIDUAL = "residual"
TERMINATION_GAP = "gap_closed"

# the bound-check schedule, stated in ``solve``; CHECK_PERIOD is a multiple
# of SCREEN_PERIOD
SCREEN_PERIOD = 10
CHECK_PERIOD = 100
# the penalty schedule, stated in the module docstring
BETA_GROWTH = 4.0
BETA_GROWTH_CAP = 16.0

@dataclass(frozen=True)
class SolverParams:
    """Penalty, step and stopping parameters.

    beta         starting quadratic penalty, finite and >= 1 (``solve``
                 raises it on a fixed schedule)
    gamma        dual damping factor, in (0, 1)
    epsilon      residual tolerance, finite and > 0
    max_iter     iteration cap
    t_consecutive  number of consecutive sub-epsilon residual checks required

    When the bounds are checked is not a parameter (see ``solve``).
    """

    beta: float
    gamma: float = 0.9
    epsilon: float = 1e-10
    max_iter: int = 10_000
    t_consecutive: int = 100

    def __post_init__(self):
        if not 1.0 <= self.beta < math.inf:
            raise ValueError("beta must be finite and at least 1")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")
        if self.max_iter < 1 or self.t_consecutive < 1:
            raise ValueError("max_iter and t_consecutive must be >= 1")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: certified bounds and the recovered assignment."""

    lbd: float
    ubd: float
    rel_gap: float
    iterations: int
    time_sec: float
    assignment: Assignment
    termination: str
    certified: bool
    residuals: tuple[float, float]
    bound_history: tuple[BoundRecord, ...]


def default_params(instance: ScpInstance) -> SolverParams:
    """Dimension-based defaults: beta = max(floor(0.5 n0 / p), 1) and an
    iteration cap of p (n0 + 1) + 10^4."""
    p, n0 = instance.partition.p, instance.partition.n0
    return SolverParams(
        beta=float(max(math.floor(0.5 * n0 / p), 1)),
        max_iter=p * (n0 + 1) + 10_000,
    )


def initialize(geometry: LiftedGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero primal iterates (R as its factor G with no columns, Y) and dual
    Z started inside its known-optimal affine set (diagonal at minus the
    lifted cost diagonal, zero border)."""
    n = geometry.order
    Y = np.zeros((n, n))
    Z = np.zeros((n, n))
    # adding 0.0 normalizes -0.0 so later in-place updates stay bit-identical
    np.fill_diagonal(Z, -np.diag(geometry.lifted_cost) + 0.0)
    Z[0, 0] = 0.0
    G = np.zeros((geometry.face_dim, 0))
    return G, Y, Z


def r_update(Y, Z, geometry: LiftedGeometry, beta: float, start=None) -> np.ndarray:
    """Closed-form PSD block update: project V'(Y + Z/beta)V onto
    {R PSD, trace(R) = p + 1}; returns the factor G with R = GG'.
    ``start``, the previous factor, warm-starts the projection."""
    shifted = Z / beta
    shifted += Y
    W = geometry.face.congruence(shifted)
    return project_psd_trace(W, geometry.partition.p + 1.0, start)


def dual_step(Z, residual, step: float, fixed: np.ndarray) -> np.ndarray:
    """Damped dual update Z + step * mask(residual), computed in place in
    ``residual``, which it overwrites and returns.  The mask zeroes the
    coordinates ``fixed`` (flat indices, ``LiftedGeometry.dual_fixed``), so
    there the update keeps Z's values exactly, barring a -0.0 in Z, which
    would come out as 0.0 (``initialize`` leaves none)."""
    residual *= step
    residual.put(fixed, 0.0)
    residual += Z
    return residual


def y_update(vrv, Z_half, geometry: LiftedGeometry, beta: float) -> np.ndarray:
    """Closed-form box block update: project VRV' - (cost + Z)/beta onto the
    gangster-pinned unit box."""
    target = geometry.lifted_cost + Z_half
    target /= beta
    np.subtract(vrv, target, out=target)
    return project_box_gangster(target, geometry.pinned)


def frobenius(x) -> float:
    """Frobenius norm of an array, computed as ``np.linalg.norm`` does,
    bit for bit, without its wrapper."""
    flat = x.ravel()
    return math.sqrt(flat.dot(flat))


def check_stop(
    iteration: int,
    consec_ok: int,
    best_lower: float,
    best_upper: float,
    params: SolverParams,
) -> str | None:
    """Termination decision after a full iteration, or None to continue."""
    if iteration >= params.max_iter:
        return TERMINATION_MAX_ITER
    if consec_ok >= params.t_consecutive:
        return TERMINATION_RESIDUAL
    if certified(best_lower, best_upper):
        return TERMINATION_GAP
    return None


def solve(
    instance: ScpInstance,
    params: SolverParams | None = None,
    *,
    on_checkpoint=None,
) -> SolveReport:
    """Run the splitting method on one instance until termination.

    The bounds are checked at every SCREEN_PERIOD-th iteration and once
    more at termination unless a check at that iteration was recorded.
    Each check rounds the first column of Y.  At a screened iteration,
    one that CHECK_PERIOD does not divide, it then estimates the lower
    bound from above with a few mat-vecs (``lower_bound_ceiling`` from
    R's top eigenvector) and stops there, recording and keeping nothing,
    unless the estimate, capped at the smaller of the best and the column
    upper bound, passes ``certified`` with it.  So a solve whose screened
    checks all stop reports as with the CHECK_PERIOD checks alone.  A
    check that goes on takes the lower bound ``dual_lower_bound`` and also
    rounds R's top eigenvector lifted by V, the last column of F = VG,
    which the iteration has already formed, so no eigensolve is needed;
    it keeps that rounding only when strictly lower.  After a
    CHECK_PERIOD check that does not stop the solve, beta and the dual
    step gamma*beta grow as the module docstring states; each record
    carries the beta of the iteration it follows.  The report carries
    the best lower/upper bounds recorded and the feasible assignment of
    smallest energy found by rounding.
    ``on_checkpoint(iteration, R, Y, Z)``, if given, is called at every
    recorded check with R formed from its factor and the live Y, Z
    (read-only use).  Deterministic for fixed instance and parameters.

    Returns a SolveReport; ``termination`` is one of "gap_closed",
    "residual" or "max_iter".
    """
    if params is None:
        params = default_params(instance)

    geometry = build_geometry(instance)
    G, Y, Z = initialize(geometry)
    face = geometry.face
    fixed = geometry.dual_fixed
    beta = params.beta
    step = params.gamma * beta

    iterations = consec_ok = 0
    bounds: list[BoundRecord] = []
    best_lower = -math.inf
    best_upper = math.inf
    best_assignment: Assignment | None = None

    # the iteration of the last column rounding and its result: a screened
    # check that stops at the last iteration leaves it to the final check
    column_at, column = -1, None

    def check(screened):
        nonlocal best_lower, best_upper, best_assignment, column_at, column
        if column_at != iterations:
            column_at, column = iterations, upper_bound(Y[:, 0], instance, FIRST_COLUMN)
        source_here = FIRST_COLUMN
        upper_here, assignment_here = column
        if screened:
            # the ceiling is at least the lower bound; capped at the target
            # it fails ``certified`` only when no lower bound so far or here
            # reaches the target, and then the check is skipped
            target = min(best_upper, upper_here)
            ceiling = lower_bound_ceiling(Z, geometry, G[:, -1])
            if not certified(min(max(best_lower, ceiling), target), target):
                return
        lower = dual_lower_bound(Z, geometry)
        value, assignment = upper_bound(F[:, -1], instance, EIGENVECTOR)
        if value < upper_here:
            source_here, upper_here, assignment_here = EIGENVECTOR, value, assignment
        bounds.append(
            BoundRecord(
                iteration=iterations,
                lower=lower,
                upper=upper_here,
                upper_source=source_here,
                rank=G.shape[1],
                residuals=(primal_res, dual_res),
                beta=beta,
            )
        )
        best_lower = max(best_lower, lower)
        if upper_here < best_upper:
            best_upper, best_assignment = upper_here, assignment_here
        if on_checkpoint is not None:
            on_checkpoint(iterations, G @ G.T, Y, Z)

    started = time.perf_counter()
    primal_res = dual_res = math.inf
    reason = None
    while reason is None:
        G = r_update(Y, Z, geometry, beta, G)
        F = face.apply(G)
        # F @ F.T runs as a symmetric rank-r update, so vrv is exactly
        # symmetric, and so are Z, Y and the box projection's input
        vrv = F @ F.T
        Z_half = dual_step(Z, Y - vrv, step, fixed)
        Y_new = y_update(vrv, Z_half, geometry, beta)
        primal = Y_new - vrv
        primal_norm = frobenius(primal)  # before the dual step overwrites it
        Z = dual_step(Z_half, primal, step, fixed)
        dual_res = beta * frobenius(Y_new - Y)
        Y = Y_new
        iterations += 1
        # (0,0) entry is pinned to 1, so the norm never vanishes
        primal_res = primal_norm / frobenius(Y)
        if max(primal_res, dual_res) < params.epsilon:
            consec_ok += 1
        else:
            consec_ok = 0
        if iterations % SCREEN_PERIOD == 0:
            check(screened=iterations % CHECK_PERIOD != 0)
        reason = check_stop(iterations, consec_ok, best_lower, best_upper, params)
        if reason is None and iterations % CHECK_PERIOD == 0:
            beta = min(BETA_GROWTH * beta, BETA_GROWTH_CAP * params.beta)
            step = params.gamma * beta
    if not bounds or bounds[-1].iteration != iterations:
        check(screened=False)
    elapsed = time.perf_counter() - started

    return SolveReport(
        lbd=best_lower,
        ubd=best_upper,
        rel_gap=relative_gap(best_upper, best_lower),
        iterations=iterations,
        time_sec=elapsed,
        assignment=best_assignment,
        termination=reason,
        certified=certified(best_lower, best_upper),
        residuals=(primal_res, dual_res),
        bound_history=tuple(bounds),
    )

