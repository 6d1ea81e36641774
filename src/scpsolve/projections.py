"""Projection kernels used by the splitting solver.

All three operators are Euclidean projections, hence nonexpansive and
idempotent.  A warm-started PSD/trace projection takes one of three
routes, chosen from the start's width r and the order f.  At r = 1 a
power iteration serves it when its residual is at rounding level and a
Cholesky factorization shows that no other eigenvalue lies above the
simplex threshold; a proof made with a margin carries over, by Weyl's
inequality, to the nearby matrices of later projections
(``CarriedProof``).  Otherwise, while the k = r + GUARD top eigenpairs are
at most f / CROSSOVER, LAPACK's ``dsyevr`` computes only those, and serves
the projection when the smallest of them projects to zero.  Every other
call runs the full ``eigh``.
"""

from __future__ import annotations

import ctypes
import functools

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
# The top-k route (``top_k_psd_trace``) asks for the top k = r + GUARD
# eigenpairs, r the start's width, or FIRST_GUESS at r = 0, and runs only
# while k <= f / CROSSOVER.  Timed against the full eigh at orders 120,
# 271 and 724 (one BLAS thread, 2-core host), dsyevr for the top k breaks
# even with it at k = f/7, f/6 and f/5 respectively: below f/6 it wins at
# the structured benchmark's 271 and the dense benchmark's 724, with room
# for the calls whose rank outgrows k and pay both.
GUARD = 6
FIRST_GUESS = 16
CROSSOVER = 6
# The exported names of LAPACKE_dsyevr in the LAPACK numpy loads that fix
# the integer width: scipy-openblas's ILP64 and LP64 builds.
LAPACKE_DSYEVR = (
    ("scipy_LAPACKE_dsyevr64_", ctypes.c_int64),
    ("scipy_LAPACKE_dsyevr", ctypes.c_int32),
)
LAPACK_COL_MAJOR = 102
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

    ``start``, a factor from a nearby earlier projection, picks the route
    when M has order f >= MIN_ORDER.  With one column it warm-starts
    ``rank_one_psd_trace``.  When that does not serve the call, and for a
    start of any other width r, ``top_k_psd_trace`` computes the top
    k = r + GUARD eigenpairs (FIRST_GUESS at r = 0) if k <= f / CROSSOVER.
    When neither route can prove its answer, and without a start, the full
    eigendecomposition runs.  ``proof``, a ``CarriedProof`` that travels
    with the starts of one sequence of projections, lets the rank-one path
    reuse an earlier proof; it changes no result.
    """
    S = np.asarray(M, dtype=float)
    # in place, so no second order-f array lives through the eigensolve
    np.add(S, S.T.copy(), out=S)
    S *= 0.5
    n = S.shape[0]
    if start is not None and n >= MIN_ORDER:
        r = start.shape[1]
        if r == 1:
            G = rank_one_psd_trace(S, total, start[:, 0], proof)
            if G is not None:
                return G
        k = r + GUARD if r else FIRST_GUESS
        if k * CROSSOVER <= n:
            G = top_k_psd_trace(S, total, k)
            if G is not None:
                return G
    w, U = np.linalg.eigh(S)
    w = project_simplex(w, total)
    return kept_factor(U, w, n, total)


def kept_factor(U, w, order: int, total: float) -> np.ndarray:
    """G from eigenvectors U and their projected eigenvalues w, ascending:
    the kept ones are the last, since the projection keeps the order.  G
    is F-ordered like a gather of U's columns, which fixes how later
    products with G round."""
    first = len(w) - np.count_nonzero(kept(w, order, total))
    return np.multiply(U[:, first:], np.sqrt(w[first:]), order="F")


def top_k_psd_trace(S, total, k: int) -> np.ndarray | None:
    """``project_psd_trace`` of symmetric S from its top k eigenpairs, or
    None when they cannot show it.

    The simplex projection of the top k eigenvalues alone has the full
    spectrum's threshold tau exactly when its smallest one projects to 0:
    that eigenvalue is at most tau, and so is every one not computed, so
    none of them is kept and none moves tau.  None where the LAPACK binding
    is absent (``lapacke_dsyevr``), S is not finite, dsyevr reports an
    error, or the smallest of the k projects above 0.
    """
    dsyevr = lapacke_dsyevr()
    # a sum with an inf or NaN is not finite; one that overflows sends a
    # finite S to the full eigh, which gives the same answer
    if dsyevr is None or not np.isfinite(S.sum()):
        return None
    top = dsyevr(S, k)
    if top is None:
        return None
    w, U = top
    w = project_simplex(w, total)
    if w[0] != 0.0:
        return None
    return kept_factor(U, w, S.shape[0], total)


@functools.cache
def lapacke_dsyevr():
    """The top-k eigensolver ``top_eigenpairs`` bound to the LAPACK that
    numpy loads, or None where that LAPACK exports none of the
    ``LAPACKE_DSYEVR`` names.  Resolved on first use, through the symbols
    that numpy's own linalg extension sees, so no library is searched for
    and nothing is imported beyond ctypes."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for name, integer in LAPACKE_DSYEVR:
        function = getattr(lib, name, None)
        if function is None:
            continue
        pointer = ctypes.c_void_p
        function.restype = integer
        function.argtypes = (
            ctypes.c_int,  # matrix_layout
            ctypes.c_char,  # jobz
            ctypes.c_char,  # range
            ctypes.c_char,  # uplo
            integer,  # n
            pointer,  # a
            integer,  # lda
            ctypes.c_double,  # vl
            ctypes.c_double,  # vu
            integer,  # il
            integer,  # iu
            ctypes.c_double,  # abstol
            ctypes.POINTER(integer),  # m
            pointer,  # w
            pointer,  # z
            integer,  # ldz
            pointer,  # isuppz
        )
        return functools.partial(top_eigenpairs, function, integer)
    return None


def top_eigenpairs(dsyevr, integer, S, k: int):
    """The k largest eigenvalues of symmetric S, ascending, and their unit
    eigenvectors as the columns of an F-ordered n x k array, from LAPACKE
    function ``dsyevr`` with integer type ``integer``; None when it
    reports an error.  dsyevr reduces a copy of S to tridiagonal form and
    computes only these k eigenpairs of it, with eigenvalues to rounding
    level (abstol 0); it overwrites a triangle of its input, so S is left
    as it is."""
    n = S.shape[0]
    # S is symmetric, so its C-ordered copy is its F-ordered one
    A = np.array(S, dtype=float, order="C")
    w = np.empty(n)
    U = np.empty((n, k), order="F")
    isuppz = np.empty(2 * k, dtype=np.dtype(integer))
    found = integer(0)
    info = dsyevr(
        LAPACK_COL_MAJOR, b"V", b"I", b"L", n, A.ctypes.data, n, 0.0, 0.0,
        n - k + 1, n, 0.0, ctypes.byref(found), w.ctypes.data, U.ctypes.data,
        n, isuppz.ctypes.data,
    )
    if info != 0 or found.value != k:
        return None
    return w[:k], U


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
    succeeds.

    Success shows T positive definite only up to rounding: Rump's
    criterion (BIT 2006) proves definiteness from a factorization of T
    less a shift that covers its rounding errors, and none is subtracted
    here.  So a T whose smallest eigenvalue lies within rounding of 0 may
    pass.  The answer decides only which projection a call returns, the
    rank-one one or a fallback's, which differ by at most that rounding;
    it never decides a certificate, which rests on ``bounds``.
    """
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
