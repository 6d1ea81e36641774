"""Certified bounds around the binary optimum.

Lower bounds come from the Lagrangian dual of the relaxation evaluated at
the current multiplier; they are valid for any symmetric multiplier, so
every value recorded during a solve is a true lower bound.  Upper bounds
come from rounding a fractional solution extracted from the lifted iterate
to the nearest feasible assignment, then evaluating the exact energy.
``certified`` is the one test that decides whether they prove optimality.
"""

from __future__ import annotations

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
    reduced PSD term."""
    Z = np.asarray(Z, dtype=float)
    W = geometry.face.congruence(Z)
    top = float(np.linalg.eigvalsh(0.5 * (W + W.T))[-1])
    return box_term(Z, geometry) - (geometry.partition.p + 1) * top


def lower_bound_ceiling(Z, geometry: LiftedGeometry, x) -> float:
    """A value at least ``dual_lower_bound(Z)``, up to rounding, from two
    products with W = V'ZV: the box term minus (p + 1) times the larger
    Ritz value of W on span{x, Wx}, one power step from x.  A Ritz value is
    at most the top eigenvalue.  Each product is three mat-vecs, and W is
    never formed.  A zero x gives inf.
    """
    Z = np.asarray(Z, dtype=float)
    face = geometry.face
    x = np.asarray(x, dtype=float)
    norm = math.sqrt(x @ x)
    if norm == 0.0:
        return math.inf
    x = x / norm
    Wx = face.apply_transpose(Z @ face.apply(x))
    a = float(x @ Wx)
    box = box_term(Z, geometry)
    weight = geometry.partition.p + 1
    ceiling = box - weight * a
    Wx -= a * x
    b = math.sqrt(Wx @ Wx)
    if b > 0.0:  # otherwise x is an eigenvector and a its eigenvalue
        q = Wx / b
        c = float(q @ face.apply_transpose(Z @ face.apply(q)))
        # top eigenvalue of the Ritz matrix [[a, b], [b, c]]
        theta = 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)
        ceiling = box - weight * theta
    return ceiling


def extract_fractional(Y, source: str) -> np.ndarray:
    """Fractional rotamer weights in [0, 1]^n0 read off a lifted matrix.

    ``first_column`` takes entries 1..n0 of column 0; ``dominant_eigenvector``
    takes entries 1..n0 of the top unit eigenvector, sign-flipped so its
    entrywise sum is nonnegative.  Both are clamped into [0, 1] to absorb
    finite-precision excursions.
    """
    Y = np.asarray(Y, dtype=float)
    if source == FIRST_COLUMN:
        return Y[1:, 0].clip(0.0, 1.0)
    if source == EIGENVECTOR:
        _, U = np.linalg.eigh(0.5 * (Y + Y.T))
        v = U[:, -1]
        if v.sum() < 0.0:
            v = -v
        return np.clip(v[1:], 0.0, 1.0)
    raise ValueError(f"unknown upper-bound source {source!r}")


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


def upper_bound(Y, instance: ScpInstance, source: str) -> tuple[float, Assignment]:
    """Feasible objective value obtained by extracting and rounding Y, and
    the rounding.  The value is ``objective`` of the rounding's indicator,
    summed over the chosen rows and columns of E without building the
    indicator."""
    choice = block_argmax(extract_fractional(Y, source), instance.partition)
    rows = instance.partition.block_table[:, 0] + choice
    value = float(instance.energy[rows[:, None], rows].sum())
    return value, Assignment(tuple((choice + 1).tolist()))


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
