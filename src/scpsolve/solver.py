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
the entire run.  R is kept as its factor G with R = GG', so VRV' is the
rank-r product (VG)(VG)'.  Lower/upper bounds are evaluated periodically;
the solve stops on a closed gap, on persistently small residuals, or at
the iteration cap.
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
    relative_gap,
    upper_bound,
)
from .instances import Assignment, ScpInstance
from .lifting import LiftedGeometry, build_geometry
from .projections import project_box_gangster, project_psd_trace, zero_border_diag

TERMINATION_MAX_ITER = "max_iter"
TERMINATION_RESIDUAL = "residual"
TERMINATION_GAP = "gap_closed"

@dataclass(frozen=True)
class SolverParams:
    """Penalty, step and stopping parameters.

    beta         quadratic penalty, >= 1
    gamma        dual damping factor, in (0, 1)
    epsilon      residual tolerance
    max_iter     iteration cap
    t_consecutive  number of consecutive sub-epsilon residual checks required
    bound_period   iterations between bound evaluations
    """

    beta: float
    gamma: float = 0.9
    epsilon: float = 1e-10
    max_iter: int = 10_000
    t_consecutive: int = 100
    bound_period: int = 100

    def __post_init__(self):
        if not self.beta >= 1.0:
            raise ValueError("beta must be at least 1")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_iter < 1 or self.t_consecutive < 1 or self.bound_period < 1:
            raise ValueError("max_iter, t_consecutive and bound_period must be >= 1")


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


def r_update(Y, Z, geometry: LiftedGeometry, beta: float) -> np.ndarray:
    """Closed-form PSD block update: project V'(Y + Z/beta)V onto
    {R PSD, trace(R) = p + 1}; returns the factor G with R = GG'."""
    V = geometry.null_basis
    W = V.T @ (Y + Z / beta) @ V
    return project_psd_trace(W, geometry.partition.p + 1.0)


def dual_step(Z, residual, step: float) -> np.ndarray:
    """Damped dual update Z + step * mask(residual); masked coordinates keep
    their current values exactly."""
    return Z + step * zero_border_diag(residual)


def y_update(vrv, Z_half, geometry: LiftedGeometry, beta: float) -> np.ndarray:
    """Closed-form box block update: project VRV' - (cost + Z)/beta onto the
    gangster-pinned unit box."""
    target = vrv - (geometry.lifted_cost + Z_half) / beta
    return project_box_gangster(target, geometry.gangster)


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

    Bounds are evaluated every ``params.bound_period`` iterations and once
    more at termination if it falls between checkpoints; the report carries
    the best lower/upper bounds seen and the feasible assignment of smallest
    energy found by rounding.  Every checkpoint rounds the first column of
    Y; it also rounds the dominant eigenvector, keeping it only when
    strictly lower, unless the column value already closes the gap with the
    best lower bound so far.
    ``on_checkpoint(iteration, R, Y, Z)``, if given, is called at every bound
    evaluation with R formed from its factor and the live Y, Z (read-only
    use).  Deterministic for fixed instance and parameters.

    Returns a SolveReport; ``termination`` is one of "gap_closed",
    "residual" or "max_iter".
    """
    if params is None:
        params = default_params(instance)

    geometry = build_geometry(instance)
    G, Y, Z = initialize(geometry)
    V = geometry.null_basis
    step = params.gamma * params.beta

    iterations = consec_ok = 0
    bounds: list[BoundRecord] = []
    best_lower = -math.inf
    best_upper = math.inf
    best_assignment: Assignment | None = None

    def evaluate_bounds():
        nonlocal best_lower, best_upper, best_assignment
        lower = dual_lower_bound(Z, geometry)
        source_here = FIRST_COLUMN
        upper_here, assignment_here = upper_bound(Y, instance, FIRST_COLUMN)
        # no feasible energy lies below the lower bound, so once the column
        # rounding meets it the eigenvector rounding cannot win
        if not certified(max(best_lower, lower), upper_here):
            value, assignment = upper_bound(Y, instance, EIGENVECTOR)
            if value < upper_here:
                source_here, upper_here, assignment_here = EIGENVECTOR, value, assignment
        bounds.append(
            BoundRecord(
                iteration=iterations,
                lower=lower,
                upper=upper_here,
                upper_source=source_here,
                rank=G.shape[1],
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
        G = r_update(Y, Z, geometry, params.beta)
        F = V @ G
        # F @ F.T runs as a symmetric rank-r update, so vrv is exactly symmetric
        vrv = F @ F.T
        Z_half = dual_step(Z, Y - vrv, step)
        Y_new = y_update(vrv, Z_half, geometry, params.beta)
        primal = Y_new - vrv
        Z = dual_step(Z_half, primal, step)
        dual_res = params.beta * float(np.linalg.norm(Y_new - Y))
        Y = Y_new
        iterations += 1
        # (0,0) entry is pinned to 1, so the norm never vanishes
        primal_res = float(np.linalg.norm(primal) / np.linalg.norm(Y))
        if max(primal_res, dual_res) < params.epsilon:
            consec_ok += 1
        else:
            consec_ok = 0
        if iterations % params.bound_period == 0:
            evaluate_bounds()
        reason = check_stop(iterations, consec_ok, best_lower, best_upper, params)
    if iterations % params.bound_period != 0:
        evaluate_bounds()
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

