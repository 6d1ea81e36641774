"""Certified bounds around the binary optimum.

Lower bounds come from the Lagrangian dual of the relaxation evaluated at
the current multiplier; they are valid for any symmetric multiplier, so
every value recorded during a solve is a true lower bound.  Upper bounds
come from rounding a fractional solution extracted from the lifted iterate
to the nearest feasible assignment, then evaluating the exact energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import Assignment, RotamerPartition, ScpInstance, objective
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


def dual_lower_bound(Z, geometry: LiftedGeometry) -> float:
    """Lagrangian dual value of the relaxation at multiplier Z.

    The inner minimum over the lifted box has a closed form: the (0, 0)
    entry of (cost + Z) is taken at value 1, every free entry contributes
    min(0, entry), gangster entries are fixed at 0.  The reduced PSD term
    contributes -(p + 1) times the top eigenvalue of V'ZV.
    """
    Z = np.asarray(Z, dtype=float)
    C = geometry.lifted_cost + Z
    clipped = np.minimum(C, 0.0)
    clipped[geometry.gangster[:, 0], geometry.gangster[:, 1]] = 0.0
    inner = float(C[0, 0] + clipped.sum())
    V = geometry.null_basis
    W = V.T @ Z @ V
    top = float(np.linalg.eigvalsh(0.5 * (W + W.T))[-1])
    return inner - (geometry.partition.p + 1) * top


def extract_fractional(Y, source: str) -> np.ndarray:
    """Fractional rotamer weights in [0, 1]^n0 read off a lifted matrix.

    ``first_column`` takes entries 1..n0 of column 0; ``dominant_eigenvector``
    takes entries 1..n0 of the top unit eigenvector, sign-flipped so its
    entrywise sum is nonnegative.  Both are clamped into [0, 1] to absorb
    finite-precision excursions.
    """
    Y = np.asarray(Y, dtype=float)
    if source == FIRST_COLUMN:
        return np.clip(Y[1:, 0], 0.0, 1.0)
    if source == EIGENVECTOR:
        _, U = np.linalg.eigh(0.5 * (Y + Y.T))
        v = U[:, -1]
        if v.sum() < 0.0:
            v = -v
        return np.clip(v[1:], 0.0, 1.0)
    raise ValueError(f"unknown upper-bound source {source!r}")


def round_to_feasible(x_approx, partition: RotamerPartition) -> Assignment:
    """Nearest feasible assignment: within each block pick the largest entry
    (lowest index on ties)."""
    x = np.asarray(x_approx, dtype=float)
    if x.shape != (partition.n0,):
        raise ValueError("fractional vector length does not match partition")
    choice = tuple(
        int(np.argmax(x[partition.block_slice(i)])) + 1 for i in range(partition.p)
    )
    return Assignment(choice)


def upper_bound(Y, instance: ScpInstance, source: str) -> tuple[float, Assignment]:
    """Feasible objective value obtained by extracting and rounding Y."""
    x = extract_fractional(Y, source)
    assignment = round_to_feasible(x, instance.partition)
    value = objective(assignment.to_indicator(instance.partition), instance.energy)
    return value, assignment


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
