"""Certified bounds around the binary optimum.

Lower bounds come from the Lagrangian dual of the relaxation evaluated at
the current multiplier (``dual_lower_bound``, the one lower bound a solve
computes); they are valid for any symmetric multiplier, so every value
recorded during a solve is a true lower bound.  Upper bounds
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
    C.put(geometry.pinned, 0.0)
    return float(corner + C.sum())


def dual_lower_bound(Z, geometry: LiftedGeometry) -> float:
    """Lagrangian dual value of the relaxation at multiplier Z: the box
    term (``box_term``) minus (p + 1) times the top eigenvalue of V'ZV, the
    reduced PSD term.  Z is only read."""
    Z = np.asarray(Z, dtype=float)
    W = geometry.face.congruence(Z)
    # symmetrized in place, so no second order-f array lives through the
    # eigensolve
    np.add(W, W.T.copy(), out=W)
    W *= 0.5
    top = float(np.linalg.eigvalsh(W)[-1])
    return box_term(Z, geometry) - (geometry.partition.p + 1) * top


def extract_fractional(v) -> np.ndarray:
    """Nonnegative rotamer weights read off a lifted vector v of length
    n0+1, a multiple of [1; x] for a feasible x: entries 1..n0, negated when
    they sum below zero, with negative entries set to 0.  The scale is left
    as it is, which the rounding does not see."""
    x = np.asarray(v, dtype=float)[1:]
    if x.sum() < 0.0:
        x = -x
    return np.maximum(x, 0.0)


def block_argmax(x, partition: RotamerPartition) -> np.ndarray:
    """Index within its block, 0-based, of each block's largest entry of x,
    the lowest on ties: one gather through ``partition.block_table``, whose
    padding reads a trailing -inf that no entry falls below."""
    x = np.asarray(x, dtype=float)
    if x.shape != (partition.n0,):
        raise ValueError("fractional vector length does not match partition")
    return np.argmax(np.append(x, -np.inf)[partition.block_table], axis=1)


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
        score = pairs[:, offset:end].sum(axis=0)
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


def relative_gap(ubd: float, lbd: float) -> float:
    """2 |ubd - lbd| / |ubd + lbd + 1|, only reported; ``certified`` decides."""
    num = 2.0 * abs(ubd - lbd)
    if num == 0.0:
        return 0.0
    den = abs(ubd + lbd + 1.0)
    if den == 0.0:
        return float("inf")
    return num / den
