"""Certified bounds around the binary optimum.

Lower bounds come from the Lagrangian dual of the relaxation evaluated at
the current multiplier (``dual_lower_bound``, the one lower bound a solve
computes); they are valid for any symmetric multiplier, so every value
recorded during a solve is a true lower bound.  Its top eigenvalue of
V'ZV is at least any Rayleigh quotient, so a Ritz value from two products
with Z (``top_ritz_value``), less a margin for rounding, caps the bound
from above without the eigensolve; ``screen_declines`` uses the cap to
show that a check's bound cannot pass ``certified``.  Upper bounds
come from rounding a lifted vector (a column of Y, or R's top eigenvector
lifted by V) to the nearest feasible assignment, then evaluating the exact
energy.  ``one_opt``, a 1-opt descent over assignments, gives the
assignment a solve starts from.
``certified`` is the one test that decides whether they prove optimality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .instances import Assignment, RotamerPartition, ScpInstance
from .lifting import LiftedGeometry
from .projections import EPS, eigvalsh

FIRST_COLUMN = "first_column"
EIGENVECTOR = "dominant_eigenvector"

# Bounds are compared at machine-precision scale.  A looser tolerance (e.g.
# 1e-9) lets the gap close while the primal iterate is still far from the
# face, which breaks the diagonal/first-column identity that certified
# iterates must satisfy; exact comparison is too brittle for bounds that
# agree only up to the last ulp.
GAP_CLOSE_RTOL = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class BoundRecord:
    """Bounds computed at one solver checkpoint."""

    iteration: int
    lower: float
    upper: float
    upper_source: str
    rank: int  # rank of the projected R: the width of its factor G
    residuals: tuple[float, float]  # primal and dual, as in the solve's report
    beta: float  # the penalty of the iteration the check follows


def box_term(Z, geometry: LiftedGeometry) -> float:
    """Minimum of <cost + Z, Y> over the lifted box, in closed form: the
    (0, 0) entry of (cost + Z) is taken at value 1, every free entry
    contributes min(0, entry), gangster entries are fixed at 0."""
    C = geometry.lifted_cost + Z
    corner = C[0, 0]
    np.minimum(C, 0.0, out=C)
    C *= geometry.free
    return float(corner + C.sum())


def dual_lower_bound(Z, geometry: LiftedGeometry, *, box: float | None = None) -> float:
    """Lagrangian dual value of the relaxation at multiplier Z: the box
    term (``box_term``) minus (p + 1) times the top eigenvalue of V'ZV, the
    reduced PSD term.  Z is only read.  ``box``, ``box_term(Z, geometry)``
    already computed, spares computing it again."""
    Z = np.asarray(Z, dtype=float)
    W = geometry.face.congruence(Z)
    # symmetrized in place, so no second order-f array lives through the
    # eigensolve
    np.add(W, W.T.copy(), out=W)
    W *= 0.5
    top = float(eigvalsh(W)[-1])
    if box is None:
        box = box_term(Z, geometry)
    return box - (geometry.partition.p + 1) * top


def top_ritz_value(Z, face, start) -> tuple[float, float]:
    """A Ritz value rho of W = V'ZV and a margin such that rho - margin is
    at most the top eigenvalue ``dual_lower_bound`` computes at Z, from
    two products with Z through ``face.apply`` and
    ``face.apply_transpose``: O(n^2) work where W's eigensolve is O(f^3)
    (n the order of Z, f that of W).  (-inf, inf) where it cannot tell: at
    a zero or non-finite start, a non-finite Z, and a start that W maps
    exactly onto its own multiple.

    With q1 = start / |start|, r = Wq1 - (q1'Wq1) q1 orthogonalized
    against q1 twice, and q2 = r / |r|, rho is the top eigenvalue of the
    2 x 2 matrix K = Q'WQ over Q = [q1 q2].  Every Rayleigh quotient of W
    is at most its top eigenvalue (Rayleigh-Ritz; Parlett, The Symmetric
    Eigenvalue Problem, 1998), and the margin covers the rounding on both
    sides.  In units of eps z, with eps the machine epsilon and z = |Z|_F,
    which bounds the 2-norm of |Z| (entrywise absolute values), and with
    M = |a| e_0' + E_rest + |D||J'| in ``FaceBasis``'s terms, the sum of
    the absolute terms that the products with V add up, whose 2-norm is
    below 4 (1 for a, 1 for E_rest, at most 1.85 for |D||J'|, at m_i = 2);
    |V| <= M, so a dense V is covered too:

    * a computed product V'ZVq sums at most n + 2 rounded terms at each
      of three stages, so for n >= 10 it is off by at most 2n eps
      M'|Z|M|q| entry by entry, and by at most 32n |q| in norm; so is the
      V'ZV that ``dual_lower_bound`` computes, which moves its top
      eigenvalue by at most 32n + 1 (Weyl), symmetrization included;
    * ``eigvalsh`` is backward stable: its top eigenvalue is exact for a
      matrix within p(f) eps |W|_F of the one it is given (LAPACK Users'
      Guide, 3rd ed., 4.7), and p(f) = 2f^2 covers the worst growth of
      Householder reduction (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., 2002, 19.3), plus 1 for |W|_F <= z;
    * K's entries come from those products and dot products of length f,
      with |q_i|^2 <= 1.5, so K is off by at most 3 (32n + f) in norm,
      and its closed-form top eigenvalue and rho - margin round by at
      most 9 more.

    These sum to 2f^2 + 128n + 3f + 11 < 2f^2 + 140n.  Q is not exactly
    orthonormal: for delta >= |Q'Q - I|_2, read off the computed Q'Q plus
    its own rounding, the quotient of the Ritz vector Qy, y a unit top
    eigenvector of the computed K, falls below y'Ky by at most 3 delta z
    while delta <= 1/2, so the margin adds 4 delta z; a larger delta gives
    (-inf, inf)."""
    Z = np.asarray(Z, dtype=float)
    start = np.asarray(start, dtype=float)
    scale = float(np.linalg.norm(Z))
    size = float(np.linalg.norm(start))
    if not (math.isfinite(scale) and 0.0 < size < math.inf):
        return -math.inf, math.inf

    def product(q):  # Wq, without forming W
        return face.apply_transpose(Z @ face.apply(q[:, None]))[:, 0]

    q1 = start / size
    w1 = product(q1)
    a = float(q1 @ w1)
    r = w1 - a * q1
    r -= float(q1 @ r) * q1
    norm_r = float(np.linalg.norm(r))
    if not 0.0 < norm_r < math.inf:
        return -math.inf, math.inf
    q2 = r / norm_r
    w2 = product(q2)
    b, c = float(q1 @ w2), float(q2 @ w2)
    f, n = face.dim, face.order
    delta = float(abs(q1 @ q1 - 1.0) + abs(q2 @ q2 - 1.0) + 2.0 * abs(q1 @ q2)) + 6.0 * f * EPS
    if not delta <= 0.5:
        return -math.inf, math.inf
    rho = 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)
    return rho, ((2.0 * f * f + 140.0 * n) * EPS + 4.0 * delta) * scale


def extract_fractional(v) -> np.ndarray:
    """Nonnegative rotamer weights read off a lifted vector v of length
    n0+1, a multiple of [1; x] for a feasible x: entries 1..n0, negated when
    they sum below zero, with negative entries set to 0.  The scale is left
    as it is, which the rounding does not see."""
    x = np.asarray(v, dtype=float)[1:]
    if np.add.reduce(x) < 0.0:  # x.sum() without its wrapper
        x = -x
    return np.maximum(x, 0.0)


def block_argmax(x, partition: RotamerPartition) -> np.ndarray:
    """Index within its block, 0-based, of each block's largest entry of x,
    the lowest on ties: one gather through ``partition.block_table``, whose
    padding reads a trailing -inf that no entry falls below."""
    x = np.asarray(x, dtype=float)
    if x.shape != (partition.n0,):
        raise ValueError("fractional vector length does not match partition")
    return np.concatenate((x, (-np.inf,)))[partition.block_table].argmax(axis=1)


def round_to_feasible(x_approx, partition: RotamerPartition) -> Assignment:
    """Nearest feasible assignment: within each block pick the largest entry
    (lowest index on ties)."""
    return Assignment(tuple((block_argmax(x_approx, partition) + 1).tolist()))


def upper_bound(v, instance: ScpInstance, source: str) -> tuple[float, Assignment]:
    """Feasible objective value obtained by rounding the lifted vector v,
    and the rounding.  The value is ``objective`` of the rounding's
    indicator, summed over the chosen rows and columns of E without
    building the indicator.  ``source`` names where v came from, Y's first
    column (``first_column``) or R's top eigenvector lifted by V
    (``dominant_eigenvector``); any other is rejected.  Both are rounded
    alike: the source only labels the call, for ``perfbench/tracing.py``,
    which wraps this function and names its per-layer spans after it."""
    if source not in (FIRST_COLUMN, EIGENVECTOR):
        raise ValueError(f"unknown upper-bound source {source!r}")
    choice = block_argmax(extract_fractional(v), instance.partition)
    rows = instance.partition.block_table[:, 0] + choice
    value = float(instance.energy[rows[:, None], rows].sum())
    return value, Assignment(tuple((choice + 1).tolist()))


def one_opt(assignment: Assignment, instance: ScpInstance) -> Assignment:
    """A 1-opt assignment reached from ``assignment`` by iterated
    conditional modes (Besag, JRSS-B 1986).  It sweeps the blocks in order
    and re-chooses block i's rotamer r to minimize E_rr + 2 sum_{j != i}
    E[r, c_j], with c_j the current choices: for a symmetric E, the energy
    as a function of that choice alone, less a constant.  A choice changes
    only on a strict decrease, to the lowest such index on ties.  It stops
    once every block has been visited since the last change without
    changing, one sweep's worth of visits, with the choices a further
    sweep that changes nothing would end at: then no single-block change
    lowers the energy.  Each change lowers the energy, so no assignment
    repeats and the descent ends.  A sweep costs O(n0 p)."""
    partition, energy = instance.partition, instance.energy
    rows = np.flatnonzero(assignment.to_indicator(partition))
    diag = np.diagonal(energy)
    # pairs[j, r] = E[c_j, r], zeroed on block j's own rows, so a column
    # sum over a block's rows leaves that block's own choice out
    pairs = np.asarray(energy[rows], dtype=float)
    blocks = []
    for i, (offset, size) in enumerate(zip(partition.offsets, partition.m)):
        pairs[i, offset : offset + size] = 0.0
        if size > 1:
            blocks.append((i, offset, offset + size))
    unchanged = 0
    for i, offset, end in itertools.cycle(blocks):
        if unchanged == len(blocks):
            break
        score = np.add.reduce(pairs[:, offset:end], axis=0)  # the column sums, without .sum's wrapper
        score *= 2.0
        score += diag[offset:end]
        best = score.argmin()
        if score[best] < score[rows[i] - offset]:
            rows[i] = offset + best
            pairs[i] = energy[rows[i]]
            pairs[i, offset:end] = 0.0
            unchanged = 1  # block i now holds its best choice
        else:
            unchanged += 1
    return Assignment(tuple((rows - partition.offsets + 1).tolist()))


def certified(lower: float, upper: float) -> bool:
    """True when the lower bound meets a finite upper bound to within
    GAP_CLOSE_RTOL relative to the upper bound, which proves the upper
    bound's assignment optimal.  A lower bound above the upper bound by
    more than that proves nothing: it shows rounding error in the bound."""
    slack = GAP_CLOSE_RTOL * (1.0 + abs(upper))
    return math.isfinite(upper) and bool(upper - slack <= lower <= upper + slack)


def screen_declines(
    Z, geometry: LiftedGeometry, start, best_lower: float, upper: float, box: float | None = None
) -> bool:
    """True when no lower bound that ``dual_lower_bound`` can return at Z
    lets ``certified(max(best_lower, lower), upper)`` pass, shown without
    its eigensolve; False means the bound may certify and must be taken.
    ``box``, ``box_term(Z, geometry)`` already computed, spares computing
    it again, and a check that goes on hands it to the bound.

    At once when best_lower lies above the window ``certified`` accepts.
    Otherwise from ``top_ritz_value`` on ``start`` (in ``solve``, R's top
    eigenvector): the cap box - (p + 1) (rho - margin) takes the same two
    rounded operations as ``dual_lower_bound`` on the same box term, and
    rho - margin is at most the top eigenvalue the bound subtracts, so, as
    rounding is monotone, the cap is no smaller than the bound.  It
    declines when the larger of best_lower and the cap lies below the
    window: when rho - margin > lambda* = (box - upper + slack) / (p + 1),
    slack being ``certified``'s.  A check within (p + 1) margin of that
    window runs the eigensolve."""
    if best_lower > upper:
        return not certified(best_lower, upper)
    rho, margin = top_ritz_value(Z, geometry.face, start)
    floor = rho - margin
    if not math.isfinite(floor):
        return False
    if box is None:
        box = box_term(Z, geometry)
    cap = box - (geometry.partition.p + 1) * floor
    reach = max(best_lower, cap)
    return math.isfinite(cap) and bool(reach < upper) and not certified(reach, upper)


def relative_gap(ubd: float, lbd: float) -> float:
    """2 |ubd - lbd| / |ubd + lbd + 1|, only reported; ``certified`` decides."""
    num = 2.0 * abs(ubd - lbd)
    if num == 0.0:
        return 0.0
    den = abs(ubd + lbd + 1.0)
    if den == 0.0:
        return float("inf")
    return num / den
