"""Projection kernels used by the splitting solver.

All four operators are Euclidean projections (the last one onto a linear
subspace), hence nonexpansive and idempotent.
"""

from __future__ import annotations

import numpy as np


def project_simplex(d, total) -> np.ndarray:
    """Project d onto the scaled simplex {x >= 0, sum(x) = total}.

    Sort-and-threshold method, O(n log n): with the entries sorted in
    decreasing order, find the largest active-set size k whose threshold
    (partial sum - total) / k still lies below the k-th entry.
    """
    d = np.asarray(d, dtype=float)
    total = float(total)
    if total <= 0.0:
        raise ValueError("simplex total must be positive")
    u = np.sort(d)[::-1]
    thresholds = (np.cumsum(u) - total) / np.arange(1, d.size + 1)
    k = np.nonzero(u > thresholds)[0][-1]
    return np.maximum(d - thresholds[k], 0.0)


def project_psd_trace(M, total) -> np.ndarray:
    """Nearest PSD matrix with fixed trace ``total`` (Frobenius norm), as
    a factor G: the projection is ``G @ G.T``.

    Symmetrizes the input, eigendecomposes and projects the spectrum onto
    the scaled simplex; G's columns are the eigenvectors with a positive
    projected eigenvalue, each scaled by its square root (no zero column).
    """
    M = np.asarray(M, dtype=float)
    S = 0.5 * (M + M.T)
    w, U = np.linalg.eigh(S)
    w = project_simplex(w, total)
    keep = w > 0.0
    return U[:, keep] * np.sqrt(w[keep])


def project_box_gangster(M, gangster: np.ndarray) -> np.ndarray:
    """Project onto the lifted feasible box: entries clamped into [0, 1],
    gangster entries pinned to 0 and the (0, 0) entry to 1."""
    M = np.asarray(M, dtype=float)
    out = np.clip(0.5 * (M + M.T), 0.0, 1.0)
    out[gangster[:, 0], gangster[:, 1]] = 0.0
    out[0, 0] = 1.0
    return out


def zero_border_diag(M) -> np.ndarray:
    """Zero row 0, column 0 and the diagonal; keep every other entry.

    This is the mask applied to residuals in the dual updates: the zeroed
    coordinates are exactly those where the optimal multiplier is known, so
    a dual iterate initialized at those values never moves off them.
    """
    out = np.array(M, dtype=float)
    out[0, :] = 0.0
    out[:, 0] = 0.0
    np.fill_diagonal(out, 0.0)
    return out
