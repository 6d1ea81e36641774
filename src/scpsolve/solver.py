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

Y starts at [1; x][1; x]' for the 1-opt assignment x that
``bounds.one_opt`` reaches from each block's smallest self energy (lowest
index on ties); R's factor starts with no columns and Z inside its
known-optimal affine set (``initialize``).  PRSM converges from any start
and every lower bound is valid for any Z, so the start moves only the
path.  From Y = 0 the first R-update projects V'(Z/beta)V, of high rank
on protein-like instances, and full eigendecompositions run until R's
rank falls; from a 1-opt x that projection has low rank.

Before iteration 1, x's energy U0 is the cutoff of
``oracle.dead_end_pairs``: a pair of rotamers in distinct blocks whose
ordered pair bound exceeds U0, by more than the bound's rounding, is in
no optimum, so ``build_geometry`` adds it to the gangster set and the
iterates keep Y_rs = Y_sr = 0 there.  The relaxation that is left is
tighter and still holds every optimum, so each lower bound stays a bound
on the global optimum; V and the dual mask do not change, and a solve
that excludes no pair runs the same iterates.  The incumbent starts at x
and U0 and takes every lower rounding of a check, the first-column
rounding of a screened check that stops included; it is what
``certified``, the screen's target and the report's ubd and assignment
use.  The relaxation stop measures the open gap against the best
rounding of the recorded checks alone, the bound history's: a lower
incumbent narrows that gap, and measured against it the stop would end
acceptance corpus instance 147 at 1,000 iterations instead of 200.

The mask zeroes the dual coordinates whose optimal values are known (row 0,
column 0, diagonal), so those entries stay at their initialized values for
the entire run.  R is kept as its factor G with R = GG' and rank r, G's
width, so VRV' is the rank-r product (VG)(VG)'.  Each R-update passes the
previous G to the projection.  From face dimension
``projections.MIN_ORDER`` on, G's width r picks one of two routes that
give the same projection up to rounding: at r = 1 a power iteration
warm-started on G's column, whenever its residual test and a Cholesky
check show its answer; else one LAPACK reduction of the matrix to
tridiagonal form, from which MRRR (LAPACK's dstemr) finds only the top
r + GUARD eigenpairs while r + GUARD is small against the face dimension
and the smallest of them projects to zero, and divide and conquer the
whole spectrum otherwise; only the kept eigenvectors are transformed back
(``projections.project_psd_trace``).  The full eigendecomposition runs
below MIN_ORDER, and where LAPACK is not bound (``projections.lapack``)
or reports an error.  The solve keeps
one ``CarriedProof`` beside G: a Cholesky check made with a margin covers
the later R-updates whose matrices stay within half of it.  Lower and
upper bounds are checked on the schedule stated in ``solve``, every 5th
iteration from face dimension ``projections.MIN_ORDER`` on and every 10th
below it, each check taking at most one lower bound,
``dual_lower_bound``, and none where a Ritz value shows it cannot
certify; the solve stops on a closed gap, on persistently small
residuals, on a relaxation that has converged below the incumbent (at a
recorded full check, like a closed gap), or at the iteration cap.

The penalty beta starts at ``SolverParams.beta`` and changes once, 8x,
after iteration 20: when the solve is still running after iteration
BETA_STEP_AT, beta becomes BETA_STEP times its starting value.  A solve
that ends by iteration BETA_STEP_AT never changes it.  The penalty changes
finitely often, which keeps the splitting's convergence, and every lower
bound is valid for any Z, so the certificate does not depend on beta.
"""

from __future__ import annotations

import math
import numbers
import operator
import time
from dataclasses import dataclass

import numpy as np

from .bounds import (
    EIGENVECTOR,
    FIRST_COLUMN,
    BoundRecord,
    box_term,
    certified,
    dual_lower_bound,
    one_opt,
    relative_gap,
    round_to_feasible,
    screen_declines,
    upper_bound,
)
from .instances import Assignment, ScpInstance, objective
from .lifting import LiftedGeometry, build_geometry
from .oracle import dead_end_pairs
from .projections import MIN_ORDER, CarriedProof, project_box_gangster, project_psd_trace

TERMINATION_MAX_ITER = "max_iter"
TERMINATION_RESIDUAL = "residual"
TERMINATION_GAP = "gap_closed"
TERMINATION_RELAXATION_GAP = "relaxation_gap"

# the bound-check schedule, stated in ``solve``: a check every
# SCREEN_PERIOD iterations below face dimension MIN_ORDER, and every
# RITZ_SCREEN_PERIOD from it on, where a Ritz value declines most screened
# checks that cannot certify for a fraction of an iteration's cost;
# CHECK_PERIOD is a multiple of both
SCREEN_PERIOD = 10
RITZ_SCREEN_PERIOD = 5
CHECK_PERIOD = 100
# the relaxation stop, stated in ``solve``
RELAXATION_GAP_RTOL = 0.01
# the penalty step, stated in the module docstring
BETA_STEP = 8.0
BETA_STEP_AT = 20

@dataclass(frozen=True)
class SolverParams:
    """Penalty, step and stopping parameters.

    beta         starting quadratic penalty, a real number, finite and >= 1
                 (``solve`` changes it once, 8x, after iteration 20)
    gamma        dual damping factor, a real number in (0, 1)
    epsilon      residual tolerance, a real number, finite and > 0
    max_iter     iteration cap, an integer >= 1
    t_consecutive  number of consecutive sub-epsilon residual checks
                 required, an integer >= 1

    When the bounds are checked is not a parameter (see ``solve``).
    """

    beta: float
    gamma: float = 0.9
    epsilon: float = 1e-10
    max_iter: int = 10_000
    t_consecutive: int = 100

    def __post_init__(self):
        for name, in_range, rule in (
            ("beta", lambda v: 1.0 <= v < math.inf, "finite and at least 1"),
            ("gamma", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
            ("epsilon", lambda v: 0.0 < v < math.inf, "finite and positive"),
        ):
            value = getattr(self, name)
            # a bool would solve as 1.0 and be reported as true
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not in_range(value):
                raise ValueError(f"{name} must be a real number {rule}, got {value!r}")
        for name in ("max_iter", "t_consecutive"):
            value = getattr(self, name)
            try:
                valid = not isinstance(value, bool) and operator.index(value) >= 1
            except TypeError:
                valid = False
            if not valid:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


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
    # pairs of rotamers pinned to 0 by ``oracle.dead_end_pairs`` before
    # iteration 1; None where its upper bound showed that none can go
    excluded_pairs: int | None = None


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
    lifted cost diagonal, zero border).  ``solve`` then writes its start,
    a lifted 1-opt assignment, into this Y in place."""
    n = geometry.order
    Y = np.zeros((n, n))
    Z = np.zeros((n, n))
    # adding 0.0 normalizes -0.0 so later in-place updates stay bit-identical
    np.fill_diagonal(Z, -np.diag(geometry.lifted_cost) + 0.0)
    Z[0, 0] = 0.0
    G = np.zeros((geometry.face_dim, 0))
    return G, Y, Z


def r_update(Y, Z, geometry: LiftedGeometry, beta: float, start=None, proof=None) -> np.ndarray:
    """Closed-form PSD block update: project V'(Y + Z/beta)V onto
    {R PSD, trace(R) = p + 1}; returns the factor G with R = GG'.
    ``start``, the previous factor, warm-starts the projection, and
    ``proof``, the solve's ``CarriedProof``, may spare its Cholesky check."""
    shifted = Z / beta
    shifted += Y
    W = geometry.face.congruence(shifted)
    del shifted  # else this n x n array lives through the eigensolve
    return project_psd_trace(W, geometry.partition.p + 1.0, start, proof)


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


def y_update(vrv, Z_half, geometry: LiftedGeometry, beta: float, out=None) -> np.ndarray:
    """Closed-form box block update: project VRV' - (cost + Z)/beta onto the
    gangster-pinned unit box.  The result is written into ``out``, an
    n x n float64 array other than vrv, when given (``solve`` hands it the
    retired Z), and into a new array otherwise."""
    target = np.add(geometry.lifted_cost, Z_half, out=out)
    target /= beta
    np.subtract(vrv, target, out=target)
    return project_box_gangster(target, geometry.free)


def frobenius(x) -> float:
    """Frobenius norm of an array, computed as ``np.linalg.norm`` does,
    bit for bit, without its wrapper."""
    flat = x.ravel()
    return math.sqrt(flat.dot(flat))


def solve(
    instance: ScpInstance,
    params: SolverParams | None = None,
    *,
    on_checkpoint=None,
) -> SolveReport:
    """Run the splitting method on one instance until termination.

    The solve starts from the lifted 1-opt assignment of the module
    docstring, written into ``initialize``'s Y in place, on the gangster
    set with its dead-end pairs excluded; the descent, the exclusion and
    the geometry count in ``time_sec``.

    The solve decides once per iteration whether to stop: after the
    iteration, at the cap ("max_iter"), else on t_consecutive residual
    checks in a row below epsilon ("residual"); after a check, if neither
    fired, on the best lower bound and the incumbent passing ``certified``
    ("gap_closed"), else on the relaxation stop below.  The residuals,
    primal |Y - VRV'|/|Y| and dual beta |Y - Y_before|, are taken only where
    they are read: at an iteration whose primal norm lets the residual rule
    count it, at a check and at the cap.  The bounds are checked every
    period iterations and at the last one, the period being
    RITZ_SCREEN_PERIOD (5) at a face dimension of at least
    ``projections.MIN_ORDER`` and SCREEN_PERIOD (10) below it; the check is
    full at a multiple of CHECK_PERIOD and at the last iteration, and
    screened otherwise.  The iterates do not depend on when a check runs, so
    the shorter period runs every check of the longer one on the same state,
    and a solve stops no later.  Each check rounds the first column of Y,
    and a full check takes the lower bound ``dual_lower_bound``.  The column
    rounding joins the incumbent when it is lower.  A screened check then
    stops, recording nothing, unless the best lower bound, its own included,
    passes ``certified`` with the incumbent.  At a face dimension of at
    least ``projections.MIN_ORDER`` it first asks
    ``bounds.screen_declines``, which shows from a Ritz value of V'ZV on R's
    top eigenvector, G's last column, that the bound cannot pass, and then
    stops without taking it; otherwise it takes the bound, handing on the
    box term the screen computed.  So each check takes exactly one of a
    declining screen or the lower bound, the screened checks that do not
    certify leave the report as the full checks alone give it but for the
    incumbent (ubd, assignment, rel_gap), and the bound history holds
    exactly the full checks and the check that certifies.  A check that goes
    on also rounds R's top eigenvector lifted by V, the last column of
    F = VG, which the iteration has already formed, so no eigensolve is needed;
    it records that rounding only when strictly lower, and it joins the
    incumbent the same way.  beta changes once, 8x, after iteration 20
    (BETA_STEP after BETA_STEP_AT) if the solve is still running, and the
    dual step gamma*beta with it; each record carries the beta of the
    iteration it follows.  The report carries the best lower bound recorded,
    the incumbent as ubd and assignment, and ``excluded_pairs``, the number
    of pairs ``oracle.dead_end_pairs`` excluded (None where its upper bound
    showed that none can go and the exact bound was not taken).
    ``on_checkpoint(iteration, R, Y, Z)``, if given, is called at every
    recorded check with R formed from its factor and the live Y, Z
    (read-only use, within the call: the next iteration writes its Y into
    Z's buffer).  Deterministic for fixed instance and parameters.

    The relaxation stop: at each full check at a multiple of CHECK_PERIOD
    that leaves the gap open, the relaxation's primal value <L, Y> (L the
    lifted cost) is compared with the best recorded bounds.  When it lies
    within RELAXATION_GAP_RTOL times the open gap (best recorded upper
    bound - best lbd) of the best lbd, strictly, at this check and at the
    previous one, the solve stops with "relaxation_gap", uncertified: no
    dual bound rises above the relaxation's optimum, so the gap cannot
    close.  One such check is not enough (``random_instance(8, 6, (-10, 10),
    seed=7070)`` meets it at 100 and certifies at 2,470).  The rule leaves
    the iterates alone, and a RELAXATION_GAP_RTOL of 0 switches it off.

    Returns a SolveReport; ``termination`` is one of "gap_closed",
    "relaxation_gap", "residual" or "max_iter".
    """
    if params is None:
        params = default_params(instance)

    started = time.perf_counter()
    partition = instance.partition
    start = one_opt(round_to_feasible(-np.diagonal(instance.energy), partition), instance)
    start_indicator = start.to_indicator(partition)
    incumbent = objective(start_indicator, instance.energy)
    incumbent_assignment = start
    excluded = dead_end_pairs(instance, start, incumbent)
    geometry = build_geometry(instance, excluded)
    G, Y, Z = initialize(geometry)
    proof = CarriedProof()
    face = geometry.face
    fixed = geometry.dual_fixed
    ritz = face.dim >= MIN_ORDER
    period = RITZ_SCREEN_PERIOD if ritz else SCREEN_PERIOD
    beta = params.beta
    step = params.gamma * beta

    iterations = consec_ok = 0
    bounds: list[BoundRecord] = []
    best_lower = -math.inf
    best_upper = math.inf

    def check(screened):
        nonlocal best_lower, best_upper, incumbent, incumbent_assignment
        source_here = FIRST_COLUMN
        upper_here, assignment_here = upper_bound(Y[:, 0], instance, FIRST_COLUMN)
        if upper_here < incumbent:
            incumbent, incumbent_assignment = upper_here, assignment_here
        box = None
        if screened and ritz:
            box = box_term(Z, geometry)
            if screen_declines(Z, geometry, G[:, -1], best_lower, incumbent, box):
                return
        lower = dual_lower_bound(Z, geometry, box=box)
        if screened and not certified(max(best_lower, lower), incumbent):
            return
        value, assignment = upper_bound(F[:, -1], instance, EIGENVECTOR)
        if value < upper_here:
            source_here, upper_here, assignment_here = EIGENVECTOR, value, assignment
        if upper_here < incumbent:
            incumbent, incumbent_assignment = upper_here, assignment_here
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
        best_upper = min(best_upper, upper_here)
        if on_checkpoint is not None:
            on_checkpoint(iterations, G @ G.T, Y, Z)

    # Y is zero, so [1; x][1; x]' is set at its (p + 1)^2 ones, in place,
    # with no second n x n array
    support = np.flatnonzero(np.concatenate(([1.0], start_indicator)))
    Y[np.ix_(support, support)] = 1.0
    primal_res = dual_res = math.inf
    cost = geometry.lifted_cost.ravel()
    # |Y|_F <= n, Y being n x n with entries in [0, 1], so from a primal
    # norm of 2 epsilon n on the primal residual is epsilon or more, with
    # room for the division's rounding, and the iteration cannot count
    counting_norm = 2.0 * params.epsilon * geometry.order
    near_before = False
    reason = None
    while reason is None:
        G = r_update(Y, Z, geometry, beta, G, proof)
        F = face.apply(G)
        # F @ F.T runs as a symmetric rank-r update, so vrv is exactly
        # symmetric, and so are Z, Y and the box projection's input
        vrv = F @ F.T
        Z_half = dual_step(Z, Y - vrv, step, fixed)
        # Z is dead once Z_half exists: Y_new goes into its buffer, and the
        # primal residual Y_new - vrv into vrv's, which the full dual step
        # turns into the new Z; so Y, vrv, Z_half and Y_new are the n x n
        # arrays alive when the Y-update returns
        Y_new = y_update(vrv, Z_half, geometry, beta, out=Z)
        primal = np.subtract(Y_new, vrv, out=vrv)
        primal_norm = frobenius(primal)  # before the dual step overwrites it
        Z = dual_step(Z_half, primal, step, fixed)
        # the check reads only Y, Z, F and G: dropping Z_half keeps it out
        # of the check's eigensolve and the next R-update's
        del Z_half
        iterations += 1
        # the residuals are read only by the residual rule, where it can
        # count the iteration, by a check and at the cap; elsewhere they keep
        # an earlier iteration's values, which nothing reads
        countable = primal_norm < counting_norm
        if countable or iterations % period == 0 or iterations >= params.max_iter:
            dual_res = beta * frobenius(Y_new - Y)
            # (0,0) entry is pinned to 1, so the norm never vanishes
            primal_res = primal_norm / frobenius(Y_new)
        if countable and max(primal_res, dual_res) < params.epsilon:
            consec_ok += 1
        else:
            consec_ok = 0
        Y = Y_new
        if iterations >= params.max_iter:
            reason = TERMINATION_MAX_ITER
        elif consec_ok >= params.t_consecutive:
            reason = TERMINATION_RESIDUAL
        if reason is not None:
            check(screened=False)
        elif iterations % period == 0:
            check(screened=iterations % CHECK_PERIOD != 0)
            if certified(best_lower, incumbent):
                reason = TERMINATION_GAP
            elif iterations % CHECK_PERIOD == 0:
                relaxed = cost.dot(Y.ravel())
                near = abs(relaxed - best_lower) < RELAXATION_GAP_RTOL * (best_upper - best_lower)
                if near and near_before:
                    reason = TERMINATION_RELAXATION_GAP
                near_before = near
        if reason is None and iterations == BETA_STEP_AT:
            beta = BETA_STEP * params.beta
            step = params.gamma * beta
    elapsed = time.perf_counter() - started

    return SolveReport(
        lbd=best_lower,
        ubd=incumbent,
        rel_gap=relative_gap(incumbent, best_lower),
        iterations=iterations,
        time_sec=elapsed,
        assignment=incumbent_assignment,
        termination=reason,
        certified=certified(best_lower, incumbent),
        residuals=(primal_res, dual_res),
        bound_history=tuple(bounds),
        excluded_pairs=None if excluded is None else int(np.count_nonzero(excluded)) // 2,
    )

