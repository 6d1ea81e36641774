"""Projection kernels used by the splitting solver.

All three operators are Euclidean projections, hence nonexpansive and
idempotent.  The PSD/trace projection of a low-rank matrix can come from a
warm-started partial eigensolve, used only when its Ritz residuals are at
rounding level and a Cholesky factorization proves that it missed no
eigenvalue above the simplex threshold.
"""

from __future__ import annotations

import numpy as np

# The partial eigensolve's block holds the start's columns plus PAD_COLUMNS
# seeded ones.  It is tried only while the order is at least MIN_ORDER_RATIO
# times the block width: a wider block buys little over the full eigh.  It
# runs at most MAX_SWEEPS sweeps; from sweep MIN_SWEEPS on it gives up as
# soon as the residual falls too slowly to reach RESIDUAL_RTOL * |S|_F in
# the sweeps left.
PAD_COLUMNS = 4
PAD_SEED = 0
MIN_ORDER_RATIO = 16
MAX_SWEEPS = 16
MIN_SWEEPS = 3
RESIDUAL_RTOL = 1e-13
EPS = float(np.finfo(float).eps)


def project_simplex(d, total) -> np.ndarray:
    """Project d onto the scaled simplex {x >= 0, sum(x) = total}.

    Sort-and-threshold method, O(n log n): with the entries sorted in
    decreasing order, the threshold is (partial sum - total) / k at the
    largest active-set size k whose threshold still lies below the k-th
    entry.  One scan over the sorted entries finds it: on the few dozen
    eigenvalues of a small projection a Python loop costs less than the
    numpy calls that would build every threshold at once.
    """
    d = np.asarray(d, dtype=float)
    total = float(total)
    if total <= 0.0:
        raise ValueError("simplex total must be positive")
    tau = None
    partial = 0.0
    # np.sort puts NaNs last, so a NaN starts the scan, every partial sum
    # is NaN and no threshold lies below an entry
    for k, u in enumerate(reversed(np.sort(d).tolist()), 1):
        partial += u
        threshold = (partial - total) / k
        if u > threshold:
            tau = threshold
    if tau is None:  # total lost to rounding beside the entries, or a NaN
        raise ValueError(f"simplex total {total} is lost to rounding beside the entries")
    return np.maximum(d - tau, 0.0)


def kept(w, order: int, total: float) -> np.ndarray:
    """Mask of the projected eigenvalues above rounding level, order*eps*total."""
    return w > order * EPS * total


def project_psd_trace(M, total, start=None) -> np.ndarray:
    """Nearest PSD matrix with fixed trace ``total`` (Frobenius norm), as
    a factor G: the projection is ``G @ G.T``.

    Symmetrizes the input, eigendecomposes and projects the spectrum onto
    the scaled simplex; G's columns are the eigenvectors whose projected
    eigenvalue is above rounding level (``kept``), each scaled by its
    square root, in increasing order of eigenvalue, so ``G.shape[1]`` is
    the rank of the projection and ``G[:, -1]`` its top eigenvector.

    ``start``, a factor from a nearby earlier projection, warm-starts a
    partial eigensolve when its rank is small beside the order of M (see
    ``partial_psd_trace``); when that cannot prove its answer, the full
    eigendecomposition runs as without it.
    """
    M = np.asarray(M, dtype=float)
    S = M + M.T
    S *= 0.5
    if start is not None and MIN_ORDER_RATIO * (start.shape[1] + PAD_COLUMNS) <= S.shape[0]:
        G = partial_psd_trace(S, total, start)
        if G is not None:
            return G
    w, U = np.linalg.eigh(S)
    w = project_simplex(w, total)
    # eigh's eigenvalues ascend and so do their projections, so the kept
    # ones are the last r; G is F-ordered like a gather of U's columns,
    # which fixes how later products with G round
    n = S.shape[0]
    first = n - np.count_nonzero(kept(w, n, total))
    return np.multiply(U[:, first:], np.sqrt(w[first:]), order="F")


def partial_psd_trace(S, total, start) -> np.ndarray | None:
    """``project_psd_trace`` of symmetric S from its top eigenpairs alone,
    or None when they cannot be proven to be all it keeps.

    Block subspace sweeps with Rayleigh-Ritz, started from an orthonormal
    basis of ``start`` and PAD_COLUMNS seeded columns, run until every Ritz
    pair above rounding level (``kept``, also the returned factor's columns)
    has a residual at rounding level.  The simplex threshold tau of the Ritz
    values is then that of the whole spectrum exactly when no other
    eigenvalue exceeds tau, and one Cholesky factorization of tau I - S +
    sum_kept (theta_i - tau + 1) u_i u_i' proves that: on the kept Ritz
    vectors the matrix is the identity, on their complement it is tau I - S.
    """
    n = S.shape[0]
    pad = np.random.default_rng(PAD_SEED).standard_normal((n, PAD_COLUMNS))
    X = np.linalg.qr(np.hstack([start, pad]))[0]
    tol = RESIDUAL_RTOL * np.linalg.norm(S)
    for sweep in range(MAX_SWEEPS):
        SX = S @ X
        theta, W = np.linalg.eigh(X.T @ SX)
        U, SU = X @ W, SX @ W
        w = project_simplex(theta, total)
        keep = kept(w, n, total)
        residual = np.linalg.norm(SU[:, keep] - U[:, keep] * theta[keep], axis=0).max()
        if residual <= tol:
            break
        # the last sweep's rate of decrease, kept up, would still miss tol
        sweeps_left = MAX_SWEEPS - 1 - sweep
        if sweep >= MIN_SWEEPS and residual * (residual / previous) ** sweeps_left > tol:
            return None
        previous = residual
        X = np.linalg.qr(SU)[0]
    else:  # reached only when the residual is not finite
        return None
    tau = theta[-1] - w[-1]
    U = U[:, keep]
    T = (U * (theta[keep] - tau + 1.0)) @ U.T
    T -= S
    T.flat[:: n + 1] += tau
    try:
        np.linalg.cholesky(T)
    except np.linalg.LinAlgError:
        return None
    return U * np.sqrt(w[keep])


def project_box_gangster(M, pinned: np.ndarray) -> np.ndarray:
    """Project symmetric M onto the lifted feasible box, overwriting M:
    entries clamped into [0, 1], the gangster entries (``pinned``, flat
    indices as in ``LiftedGeometry.pinned``) to 0 and the (0, 0) entry to 1.
    A symmetric M needs no symmetrization, and the result is symmetric."""
    M = np.asarray(M, dtype=float)
    M.clip(0.0, 1.0, out=M)
    M.put(pinned, 0.0)
    M[0, 0] = 1.0
    return M
