"""Projection kernels used by the splitting solver.

All three operators are Euclidean projections, hence nonexpansive and
idempotent.  A warm-started PSD/trace projection takes one of three
routes, chosen from the start's width r and the order f.  At r = 1 a
power iteration serves it when its residual is at rounding level and a
Cholesky factorization shows that no other eigenvalue lies above the
simplex threshold; a proof made with a margin carries over, by Weyl's
inequality, to the nearby matrices of later projections
(``CarriedProof``).  Otherwise LAPACK reduces S to tridiagonal form once,
in place, and restores S from the triangle the reduction leaves alone
(``tridiagonal_psd_trace``).  While the k = r + GUARD top eigenpairs are
at most f / CROSSOVER, MRRR finds only those, and serves the
projection when the smallest of them projects to zero; else
divide and conquer solves the tridiagonal matrix whole.  Either way only
the kept eigenvectors are transformed back.  Calls without a start,
below MIN_ORDER, on a non-finite S, and where LAPACK is not bound
(``lapack``) or reports an error, run the full ``eigh``; where it is not
bound, ``np.linalg.cholesky`` makes the rank-one path's check.  ``eigh``
and ``eigvalsh``, the latter for ``bounds.dual_lower_bound``, are numpy's
own eigensolvers without their Python wrappers.
"""

from __future__ import annotations

import ctypes
import functools
import types

import numpy as np
from numpy.linalg import _umath_linalg

# MIN_ORDER is the order from which a projection with a start tries the
# rank-one path and the tridiagonal route: below it the full eigh costs
# under half a millisecond, and small solves, the acceptance corpus's
# among them, stay those of the full eigh alone.  From face dimension
# MIN_ORDER on, ``solver`` also screens each check with a Ritz value and
# checks every RITZ_SCREEN_PERIOD iterations.  The rank-one path's power
# iteration makes at most MAX_STEPS products with S, and serves the call
# only once its residual reaches RESIDUAL_RTOL * |S|_F.
MIN_ORDER = 80
MAX_STEPS = 16
RESIDUAL_RTOL = 1e-13
# A carried proof (``CarriedProof``) is first tried with the margin
# PROOF_MARGIN * |tau|, halved after each failure: of 5e-4 to 8e-3, 4e-3
# spared the most factorizations on the structured benchmark instances.
PROOF_MARGIN = 4e-3
# The tridiagonal route (``tridiagonal_psd_trace``) asks dstemr for the
# top k = r + GUARD eigenpairs, r the start's width, or FIRST_GUESS at
# r = 0, only while k <= f / CROSSOVER; above it, and when the k cannot
# show tau, dstedc solves for the whole spectrum.  CROSSOVER gates only
# that attempt: both branches share the one reduction and back-transform
# only the kept eigenvectors.  It is where dsyevr for the top k broke
# even with the full eigh.  Timed on one BLAS thread (2-core host), on
# reductions of captured and random matrices, dstemr for k eigenpairs
# costs as much as dstedc at about k = f/6 at orders 120 and 724 (0.7 ms
# and 27-36 ms) and k = f/7 at 271 (3.2-3.8 ms); bisection and inverse
# iteration broke even at about f/9 to f/10.
GUARD = 6
FIRST_GUESS = 16
CROSSOVER = 6
# The names of the LAPACKE functions in the LAPACK numpy loads fix the
# integer width: scipy-openblas's ILP64 build appends 64_, its LP64 build
# nothing.
LAPACKE_BUILDS = (
    ("scipy_LAPACKE_{}64_", ctypes.c_int64),
    ("scipy_LAPACKE_{}", ctypes.c_int32),
)
# The argument types of the routines that ``lapack`` binds, with INTEGER
# for the LAPACK integer and a void pointer for each array.  dormtr is
# called with the workspace it is given: LAPACK's dormtr asks for too
# little for dormqr's blocked update, which then halves its block size,
# and dormqr takes at most DORMQR_NBMAX reflectors per block and
# DORMQR_TSIZE entries for the block's triangular factor.  dpotrf is the
# routine np.linalg.cholesky calls on a column-major copy of its input,
# reading the lower triangle; ``cholesky_succeeds`` calls it the same way,
# through the LAPACKE wrapper that adds no NaN check, without the copy
# back and the zeroed triangle.
INTEGER = object()
_CHAR, _DOUBLE, _POINTER = ctypes.c_char, ctypes.c_double, ctypes.c_void_p
LAPACK_ROUTINES = {
    # matrix_layout, uplo, n, a, lda, d, e, tau
    "dsytrd": (ctypes.c_int, _CHAR, INTEGER, _POINTER, INTEGER, _POINTER, _POINTER, _POINTER),
    # matrix_layout, jobz, range, n, d, e, vl, vu, il, iu, m, w, z, ldz, nzc, isuppz, tryrac
    "dstemr": (
        ctypes.c_int, _CHAR, _CHAR, INTEGER, _POINTER, _POINTER, _DOUBLE, _DOUBLE, INTEGER, INTEGER,
        _POINTER, _POINTER, _POINTER, INTEGER, INTEGER, _POINTER, _POINTER,
    ),
    # matrix_layout, compz, n, d, e, z, ldz
    "dstedc": (ctypes.c_int, _CHAR, INTEGER, _POINTER, _POINTER, _POINTER, INTEGER),
    # matrix_layout, side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork
    "dormtr_work": (
        ctypes.c_int, _CHAR, _CHAR, _CHAR, INTEGER, INTEGER, _POINTER, INTEGER, _POINTER,
        _POINTER, INTEGER, _POINTER, INTEGER,
    ),
    # matrix_layout, uplo, n, a, lda
    "dpotrf_work": (ctypes.c_int, _CHAR, INTEGER, _POINTER, INTEGER),
}
DORMQR_NBMAX = 64
DORMQR_TSIZE = (DORMQR_NBMAX + 1) * DORMQR_NBMAX
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
    # sorting puts NaNs last, so a NaN starts the scan, every partial sum
    # is NaN and no threshold lies below an entry
    ordered = d.copy()  # np.sort(d) without its wrapper
    ordered.sort()
    for k, u in enumerate(reversed(ordered.tolist()), 1):
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
    projects the spectrum onto the scaled simplex.  Every route leaves
    the symmetrized M as it is, bit for bit, also where LAPACK reports an
    error: the tridiagonal route reduces M itself, when it is a C-ordered
    float64 array, and restores it before it returns or falls back.  G's
    columns are the eigenvectors whose projected eigenvalue is above
    rounding level (``kept``), each scaled by its square root, in
    increasing order of eigenvalue, so ``G.shape[1]`` is the rank of the
    projection and ``G[:, -1]`` its top eigenvector.

    ``start``, a factor from a nearby earlier projection, picks the route
    when M has order f >= MIN_ORDER.  With one column it warm-starts
    ``rank_one_psd_trace``.  When that does not serve the call, and for a
    start of any other width r, ``tridiagonal_psd_trace`` serves it from
    one reduction of S, trying the top k = r + GUARD eigenpairs
    (FIRST_GUESS at r = 0) first if k <= f / CROSSOVER.  Without a start,
    below MIN_ORDER, where the LAPACK binding is absent (``lapack``), on a
    non-finite S and on an error from LAPACK, the full eigendecomposition
    runs.  ``proof``, a ``CarriedProof`` that travels with the starts of
    one sequence of projections, lets the rank-one path reuse an earlier
    proof; it changes no result.
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
        routines = lapack()
        # a sum with an inf or NaN is not finite; one that overflows sends a
        # finite S to the full eigh, which gives the same answer
        if routines is not None and np.isfinite(S.sum()):
            try:
                return tridiagonal_psd_trace(S, total, r + GUARD if r else FIRST_GUESS, routines)
            except LapackError:
                pass
    w, U = eigh(S)
    w = project_simplex(w, total)
    return kept_factor(U, w, n, total)


def _raise_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# the error state np.linalg.eigh and np.linalg.eigvalsh call their gufuncs in
EIGEN_ERRSTATE = dict(call=_raise_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore")


def eigh(S) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(S)`` of a square float64 S, bit for bit, without
    its wrapper: the gufunc it calls (LAPACK's dsyevd on the lower
    triangle) under its error state, where a driver that fails marks its
    output invalid, which raises ``LinAlgError`` as there.  The wrapper's
    checks add about 4 us to every call, against 6 us for the whole solve
    at order 6."""
    with np.errstate(**EIGEN_ERRSTATE):
        return _umath_linalg.eigh_lo(S, signature="d->dd")


def eigvalsh(S) -> np.ndarray:
    """``np.linalg.eigvalsh(S)`` of a square float64 S, bit for bit,
    without its wrapper, as ``eigh``."""
    with np.errstate(**EIGEN_ERRSTATE):
        return _umath_linalg.eigvalsh_lo(S, signature="d->d")


def kept_factor(U, w, order: int, total: float) -> np.ndarray:
    """G from eigenvectors U and their projected eigenvalues w, ascending:
    the kept ones are the last, since the projection keeps the order.  G
    is F-ordered like a gather of U's columns, which fixes how later
    products with G round."""
    first = len(w) - np.count_nonzero(kept(w, order, total))
    return np.multiply(U[:, first:], np.sqrt(w[first:]), order="F")


class LapackError(Exception):
    """A LAPACK routine of the tridiagonal route reported an error."""


def tridiagonal_psd_trace(S, total, k: int, lapack) -> np.ndarray:
    """``project_psd_trace`` of finite symmetric S through one reduction
    to tridiagonal form, by the routines ``lapack`` that ``lapack()``
    binds; raises ``LapackError`` when one of them reports an
    error.

    dsytrd reduces S to tridiagonal T = Q'SQ in place when S is a
    writeable C-ordered float64 array, so no order-f copy lives through
    the eigensolve, and a C-ordered copy of any other S.  In place, S's
    diagonal is saved first, and S is restored from it and from its strict
    lower triangle, which dsytrd leaves alone, before the call returns or
    raises: a symmetric S comes back bit for bit, as ``project_psd_trace``
    and a ``CarriedProof`` holding S need.  While k <= f / CROSSOVER,
    dstemr finds T's k largest eigenvalues and their eigenvectors.  The
    simplex projection of those eigenvalues alone has the full spectrum's
    threshold tau exactly when its smallest one projects to 0: that
    eigenvalue is at most tau, and so is every one not computed, so none
    of them is kept and none moves tau.  Otherwise dstedc solves T for its
    whole spectrum by divide and conquer.  Either way dormtr applies Q to
    the kept eigenvectors alone.
    """
    n = S.shape[0]
    # S is symmetric, so its C-ordered form is its F-ordered one; dsytrd,
    # on "L" in column-major terms, overwrites its C-order upper triangle,
    # diagonal included, with T and the reflectors that make up Q, and
    # leaves the strict lower triangle alone
    in_place = S.dtype == np.float64 and S.flags.carray
    A = S if in_place else np.array(S, dtype=float, order="C")
    diagonal = S.diagonal().copy() if in_place else None
    try:
        d, e, tau = np.empty(n), np.empty(n), np.empty(n)
        if lapack.dsytrd(LAPACK_COL_MAJOR, b"L", n, A.ctypes.data, n, d.ctypes.data, e.ctypes.data, tau.ctypes.data):
            raise LapackError("dsytrd")
        top = top_tridiagonal(lapack, d, e, k, total) if k * CROSSOVER <= n else None
        if top is None:
            # dstedc overwrites d with the eigenvalues, ascending, and e
            U = np.empty((n, n), order="F")
            if lapack.dstedc(LAPACK_COL_MAJOR, b"I", n, d.ctypes.data, e.ctypes.data, U.ctypes.data, n):
                raise LapackError("dstedc")
            w = project_simplex(d, total)
        else:
            w, U = top
        first = len(w) - np.count_nonzero(kept(w, n, total))
        G = np.array(U[:, first:], order="F")
        del U
        r = G.shape[1]
        work = np.empty(r * DORMQR_NBMAX + DORMQR_TSIZE)
        if lapack.dormtr_work(
            LAPACK_COL_MAJOR, b"L", b"L", b"N", n, r, A.ctypes.data, n, tau.ctypes.data, G.ctypes.data, n,
            work.ctypes.data, work.size,
        ):
            raise LapackError("dormtr")
    finally:
        if in_place:
            # one row at a time, so no order-f temporary is made
            for i in range(n - 1):
                S[i, i + 1 :] = S[i + 1 :, i]
            np.fill_diagonal(S, diagonal)
    G *= np.sqrt(w[first:])
    return G


def top_tridiagonal(lapack, d, e, k: int, total):
    """The simplex projection of tridiagonal T's k largest eigenvalues,
    ascending, and T's unit eigenvectors for them as the columns of an
    n x k array, in the same order; None when the k cannot show the
    threshold: the smallest of them projects above 0.  T has diagonal d
    and subdiagonal e, which are left as they are.  dstemr finds the k
    eigenpairs in one call by multiple relatively robust representations
    (MRRR), ascending also where T splits."""
    n = len(d)
    integer = np.dtype(lapack.integer)
    # dstemr overwrites d and e, which a declined call hands on to dstedc
    d, e = d.copy(), e.copy()
    w, U = np.empty(n), np.empty((n, k), order="F")
    found, support = np.zeros(1, dtype=integer), np.empty(2 * k, dtype=integer)
    tryrac = np.zeros(1, dtype=integer)  # false: no test for high relative accuracy
    if lapack.dstemr(
        LAPACK_COL_MAJOR, b"V", b"I", n, d.ctypes.data, e.ctypes.data, 0.0, 0.0, n - k + 1, n,
        found.ctypes.data, w.ctypes.data, U.ctypes.data, n, k, support.ctypes.data, tryrac.ctypes.data,
    ) or found[0] != k:
        raise LapackError("dstemr")
    projected = project_simplex(w[:k], total)
    if projected[0] != 0.0:
        return None
    return projected, U


@functools.cache
def lapack() -> types.SimpleNamespace | None:
    """``LAPACK_ROUTINES`` bound to the LAPACK that numpy loads, on first
    use, or None where no build of ``LAPACKE_BUILDS`` exports them all: a
    namespace with one ctypes function for each name, returning LAPACK's
    info (0 on success), and the LAPACK integer type they take,
    ``integer``.  Bound through the symbols that numpy's own linalg
    extension sees, so no library is searched for and nothing is imported
    beyond ctypes."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for pattern, integer in LAPACKE_BUILDS:
        functions = {}
        for name, arguments in LAPACK_ROUTINES.items():
            function = getattr(lib, pattern.format(name), None)
            if function is None:
                break
            function.restype = integer
            function.argtypes = tuple(integer if a is INTEGER else a for a in arguments)
            functions[name] = function
        else:
            return types.SimpleNamespace(integer=integer, **functions)
    return None


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
    rounding level, RESIDUAL_RTOL * |S|_F; a call whose residual has not
    reached it after MAX_STEPS products with S returns None.  The
    projection is then total * uu' exactly when no other eigenvalue of S
    exceeds the simplex threshold tau = theta - total, and one Cholesky
    factorization of tau I - S + (total + 1) uu' proves that: on u the
    matrix is 1, on its complement it is tau I - S.

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
    for _ in range(MAX_STEPS):
        Su = S @ u
        theta = u @ Su
        if np.linalg.norm(Su - theta * u) <= tol:
            break
        u = Su / np.linalg.norm(Su)
    else:  # the residual never reached tol
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
    """Whether a floating-point Cholesky factorization of T's lower
    triangle succeeds, T square; T is only read.

    It is ``np.linalg.cholesky``'s factorization, the same LAPACK routine
    on the same column-major copy, so the two decide alike, also on a T
    that is not exactly symmetric, whose upper triangle neither reads.
    Where ``lapack`` binds no routines, ``np.linalg.cholesky`` runs.

    Success shows T positive definite only up to rounding: Rump's
    criterion (BIT 2006) proves definiteness from a factorization of T
    less a shift that covers its rounding errors, and none is subtracted
    here.  So a T whose smallest eigenvalue lies within rounding of 0 may
    pass.  The answer decides only which projection a call returns, the
    rank-one one or a fallback's, which differ by at most that rounding;
    it never decides a certificate, which rests on ``bounds``.
    """
    routines = lapack()
    if routines is None:
        try:
            np.linalg.cholesky(T)
        except np.linalg.LinAlgError:
            return False
        return True
    n = T.shape[0]
    A = np.array(T, dtype=float, order="F")
    return routines.dpotrf_work(LAPACK_COL_MAJOR, b"L", n, A.ctypes.data, n) == 0


def project_box_gangster(M, free: np.ndarray) -> np.ndarray:
    """Project symmetric M onto the lifted feasible box, overwriting M:
    entries clamped into [0, 1], the gangster entries (those where the
    boolean mask ``free``, ``LiftedGeometry.free``, is False) to 0 by one
    product with the mask (a -0.0 that the clamp leaves there stays -0.0)
    and the (0, 0) entry to 1.  A symmetric M needs no symmetrization, and
    the result is symmetric."""
    M = np.asarray(M, dtype=float)
    M.clip(0.0, 1.0, out=M)
    np.multiply(M, free, out=M)
    M[0, 0] = 1.0
    return M
