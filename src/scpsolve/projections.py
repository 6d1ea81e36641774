"""Projection kernels used by the splitting solver.

All three operators are Euclidean projections, hence nonexpansive and
idempotent.  A PSD/trace projection of rank one can come from a
warm-started power iteration, used only when its residual is at rounding
level and a Cholesky factorization proves that no other eigenvalue lies
above the simplex threshold.  A proof made with a margin carries over, by
Weyl's inequality, to the nearby matrices of later projections
(``CarriedProof``).
"""

from __future__ import annotations

import numpy as np

# The rank-one path is tried only from order MIN_ORDER on: below it the
# full eigh costs under half a millisecond, and small solves, the
# acceptance corpus's among them, stay those of the full eigh alone.  Its
# power iteration runs at most MAX_STEPS steps; from step MIN_STEPS on it
# gives up as soon as the residual falls too slowly to reach
# RESIDUAL_RTOL * |S|_F in the steps left.
MIN_ORDER = 80
MAX_STEPS = 16
MIN_STEPS = 3
RESIDUAL_RTOL = 1e-13
# A carried proof (``CarriedProof``) is first tried with the margin
# PROOF_MARGIN * |tau|, halved after each failure: of 5e-4 to 8e-3, 4e-3
# spared the most factorizations on the structured benchmark instances.
PROOF_MARGIN = 4e-3
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


def project_psd_trace(M, total, start=None, proof=None) -> np.ndarray:
    """Nearest PSD matrix with fixed trace ``total`` (Frobenius norm), as
    a factor G: the projection is ``G @ G.T``.

    Symmetrizes the input in place, overwriting M with (M + M')/2, which
    leaves a symmetric M as it is, bit for bit; then eigendecomposes and
    projects the spectrum onto the scaled simplex.  G's columns are the
    eigenvectors whose projected eigenvalue is above rounding level
    (``kept``), each scaled by its square root, in increasing order of
    eigenvalue, so ``G.shape[1]`` is the rank of the projection and
    ``G[:, -1]`` its top eigenvector.

    ``start``, a factor from a nearby earlier projection, warm-starts
    ``rank_one_psd_trace`` when it has one column and M has order
    MIN_ORDER or more; when that cannot prove its answer, the full
    eigendecomposition runs as without it.  ``proof``, a ``CarriedProof``
    that travels with the starts of one sequence of projections, lets that
    path reuse an earlier proof; it changes no result.
    """
    S = np.asarray(M, dtype=float)
    # in place, so no second order-f array lives through the eigensolve
    np.add(S, S.T.copy(), out=S)
    S *= 0.5
    if start is not None and start.shape[1] == 1 and S.shape[0] >= MIN_ORDER:
        G = rank_one_psd_trace(S, total, start[:, 0], proof)
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


class CarriedProof:
    """The last rank-one proof made with a margin, for later projections of
    the same order to reuse.

    A successful Cholesky factorization of tau_j I - S_j + (total + 1) uu'
    - delta I proves every eigenvalue of S_j but its top one below
    tau_j - delta.  By Weyl's inequality the second eigenvalue moves by at
    most |S - S_j|_F, so a later S with threshold tau and
    |S - S_j|_F + (tau_j - tau) <= delta / 2 has its second eigenvalue at
    most tau - delta / 2, below tau: the unshifted factorization would
    succeed too, and ``covers`` says so without running it.  S_j is held
    by reference: in a solve it is the array ``r_update`` hands to
    ``project_psd_trace``, symmetrized there in place, which nothing
    writes after that call.  ``margin``, delta relative to |tau|, starts
    at PROOF_MARGIN and halves after each failed margin factorization, so
    a second eigenvalue that stays within the margin of tau costs a few
    failed factorizations, not one for every projection.
    """

    __slots__ = ("S", "tau", "delta", "margin")

    def __init__(self):
        self.S = None
        self.tau = self.delta = 0.0
        self.margin = PROOF_MARGIN

    def covers(self, S, tau) -> bool:
        """Whether the held proof covers S with threshold tau."""
        if self.S is None:
            return False
        return np.linalg.norm(S - self.S) + (self.tau - tau) <= 0.5 * self.delta


def rank_one_psd_trace(S, total, start, proof=None) -> np.ndarray | None:
    """``project_psd_trace`` of symmetric S when it has rank one, or None
    when that cannot be proven.

    A power iteration from the vector ``start`` runs until its Rayleigh
    quotient theta and unit vector u have a residual |Su - theta u| at
    rounding level.  The projection is then total * uu' exactly when no
    other eigenvalue of S exceeds the simplex threshold tau = theta - total,
    and one Cholesky factorization of tau I - S + (total + 1) uu' proves
    that: on u the matrix is 1, on its complement it is tau I - S.

    With a ``CarriedProof``, a proof it holds that covers S stands in for
    the factorization.  Otherwise the factorization is made with the
    proof's margin times |tau| subtracted, and its success is kept in
    ``proof``; when it fails, the unshifted one decides, as without
    ``proof``, ``proof`` is emptied and its margin halved.
    """
    n = S.shape[0]
    size = np.linalg.norm(start)
    if not size > 0.0:
        return None
    u = start / size
    tol = RESIDUAL_RTOL * np.linalg.norm(S)
    for step in range(MAX_STEPS):
        Su = S @ u
        theta = u @ Su
        residual = np.linalg.norm(Su - theta * u)
        if residual <= tol:
            break
        # the last step's rate of decrease, kept up, would still miss tol
        steps_left = MAX_STEPS - 1 - step
        if step >= MIN_STEPS and residual * (residual / previous) ** steps_left > tol:
            return None
        previous = residual
        u = Su / np.linalg.norm(Su)
    else:  # reached only when the residual is not finite
        return None
    G = (np.sqrt(total) * u)[:, None]
    tau = theta - total
    if proof is not None and proof.covers(S, tau):
        return G
    T = np.outer(u, (total + 1.0) * u)
    T -= S
    diagonal = T.diagonal() + tau
    if proof is not None:
        delta = proof.margin * abs(tau)
        T.flat[:: n + 1] = diagonal - delta
        if cholesky_succeeds(T):
            proof.S, proof.tau, proof.delta = S, tau, delta
            return G
        proof.S = None
        proof.margin *= 0.5
    T.flat[:: n + 1] = diagonal
    return G if cholesky_succeeds(T) else None


def cholesky_succeeds(T) -> bool:
    """Whether a floating-point Cholesky factorization of symmetric T
    succeeds, which proves T positive definite (Rump, BIT 2006)."""
    try:
        np.linalg.cholesky(T)
    except np.linalg.LinAlgError:
        return False
    return True


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
