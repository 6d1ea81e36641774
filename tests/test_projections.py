import warnings

import numpy as np
import pytest

from conftest import (
    feasible_indicators,
    make_instance,
    reference_psd_trace,
    reference_simplex,
)
from scpsolve import RotamerPartition, projections
from scpsolve.lifting import build_geometry, lift_indicator
from scpsolve.projections import (
    MIN_ORDER,
    PROOF_MARGIN,
    CarriedProof,
    LapackError,
    project_box_gangster,
    project_psd_trace,
    project_simplex,
)
from scpsolve.solver import dual_step


def simplex_oracle(d, total):
    """O(n^2) threshold scan: for each active-set size verify the optimality
    conditions directly, independent of sorting tricks."""
    d = np.asarray(d, dtype=float)
    u = sorted(d, reverse=True)
    n = len(u)
    for k in range(1, n + 1):
        tau = (sum(u[:k]) - total) / k
        if u[k - 1] > tau and (k == n or u[k] <= tau):
            return np.maximum(d - tau, 0.0)
    raise AssertionError("no consistent active set found")


def geometry_of(m):
    """Lifted geometry of a zero-energy instance with block sizes m."""
    return build_geometry(make_instance(m, np.zeros((sum(m), sum(m)))))


def box_matrix(M, free):
    """The box/gangster projection of a copy of M, which is left as it is."""
    return project_box_gangster(np.array(M, dtype=float), free)


def dual_mask(M, fixed):
    """The dual steps' mask applied to a copy of M: a dual step from a zero
    Z with unit step."""
    return dual_step(np.zeros_like(M), np.array(M, dtype=float), 1.0, fixed)


def psd_trace_matrix(M, total):
    """The PSD/trace projection as a matrix, from the factor it returns."""
    G = project_psd_trace(M, total)
    return G @ G.T


class TestSimplex:
    def test_fixed_point(self):
        assert np.array_equal(project_simplex([1.0, 1.0], 2.0), [1.0, 1.0])

    def test_one_coordinate_clipped(self):
        assert np.allclose(project_simplex([3.0, 1.0], 2.0), [2.0, 0.0], atol=1e-14)

    def test_single_active_coordinate(self):
        assert np.allclose(
            project_simplex([5.0, -1.0, 0.0], 3.0), [3.0, 0.0, 0.0], atol=1e-14
        )

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            scale = float(rng.choice([0.1, 1.0, 10.0]))
            d = rng.normal(scale=scale, size=n)
            total = float(rng.uniform(0.1, 20.0))
            got = project_simplex(d, total)
            want = simplex_oracle(d, total)
            assert np.max(np.abs(got - want)) <= 1e-10
            assert np.all(got >= 0.0)
            assert abs(got.sum() - total) <= 1e-12 * (1.0 + total)

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ValueError):
            project_simplex([1.0], 0.0)

    def test_rejects_total_lost_to_rounding(self):
        # 1e17 - 3 rounds to 1e17, so no threshold lies below an entry
        with pytest.raises(ValueError, match="lost to rounding"):
            project_simplex([1e17, 1e17], 3.0)

    @pytest.mark.parametrize(
        "d",
        [
            [np.nan, 2.0, 1.0],
            [2.0, np.nan, 1.0],
            [2.0, 1.0, np.nan],
            [1.0, np.nan],
            [5.0, 1.0, np.nan, -3.0],
            [np.inf, 1.0],
            [np.inf, -np.inf],
        ],
    )
    def test_rejects_nan_and_positive_infinity(self, d):
        # no threshold lies below an entry: a NaN makes every partial sum
        # NaN, and +inf makes every threshold +inf or NaN
        with pytest.raises(ValueError, match="lost to rounding"):
            project_simplex(d, 1.0)

    def test_clips_negative_infinity(self):
        assert np.array_equal(project_simplex([1.0, -np.inf], 1.0), [1.0, 0.0])

    def test_matches_reference_bit_for_bit(self):
        # the threshold scan against the vectorized sort-and-threshold
        # formula, on random entries and on entries tied at the threshold
        rng = np.random.default_rng(17)
        for trial in range(400):
            n = int(rng.integers(1, 40))
            if trial % 2:
                d = rng.normal(scale=float(rng.choice([0.1, 1.0, 10.0])), size=n)
            else:
                d = rng.choice([-1.0, 0.0, 0.5, 2.5], size=n)
            total = float(rng.choice([0.5, 2.0, float(rng.uniform(0.1, 20.0))]))
            got, want = project_simplex(d, total), reference_simplex(d, total)
            assert got.tobytes() == want.tobytes()


class TestPsdTrace:
    def test_scaled_identity_fixed_point(self):
        M = (2.0 / 3.0) * np.eye(3)
        assert np.allclose(psd_trace_matrix(M, 2.0), M, atol=1e-14)

    def test_clips_top_eigenvalue(self):
        out = psd_trace_matrix(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-14)

    def test_lifts_negative_spectrum(self):
        out = psd_trace_matrix(np.diag([-1.0, -1.0]), 2.0)
        assert np.allclose(out, np.eye(2), atol=1e-14)

    def test_leaves_out_rounding_level_eigenvalue(self):
        # the simplex keeps about 5.6e-16 of the second eigenvalue, below the
        # cutoff order*eps*total = 8.9e-16, so G has one column
        w = project_simplex([3.0, 1.0 + 1e-15], 2.0)
        assert 0.0 < w[1] < 2 * np.finfo(float).eps * 2.0
        G = project_psd_trace(np.diag([3.0, 1.0 + 1e-15]), 2.0)
        assert G.shape == (2, 1)
        assert np.allclose(G @ G.T, np.diag([2.0, 0.0]), atol=1e-15)

    def test_spectrum_and_trace_properties(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            M = rng.normal(size=(n, n))
            total = float(rng.uniform(0.5, 8.0))
            out = psd_trace_matrix(M, total)
            assert np.array_equal(out, out.T)
            assert np.linalg.eigvalsh(out)[0] >= -1e-10
            assert abs(np.trace(out) - total) <= 1e-10
            again = psd_trace_matrix(out, total)
            assert np.max(np.abs(again - out)) <= 1e-10

    def test_factor_matches_reassembled_projection(self):
        # the factor against the full reassembly (U * w) U' it replaces, on
        # random, rank-1 and scaled-identity inputs, where the simplex keeps
        # one, some or all of the eigenpairs; the factor leaves out those
        # kept at rounding level, order*eps*total
        rng = np.random.default_rng(16)
        for trial in range(600):
            n = int(rng.integers(1, 16))
            total = float(rng.uniform(0.1, 20.0))
            kind = trial % 3
            if kind == 0:
                M = rng.normal(scale=float(rng.choice([0.1, 1.0, 10.0])), size=(n, n))
            elif kind == 1:
                v = rng.normal(size=n)
                M = np.outer(v, v) * float(rng.uniform(0.1, 30.0))
            else:
                M = float(rng.normal()) * np.eye(n)
            w, U = np.linalg.eigh(0.5 * (M + M.T))
            want = (U * project_simplex(w, total)) @ U.T
            G = project_psd_trace(M, total)
            out = G @ G.T
            cutoff = n * np.finfo(float).eps * total
            assert G.shape == (n, np.count_nonzero(project_simplex(w, total) > cutoff))
            # the last column belongs to the top eigenvalue
            norms = np.linalg.norm(G, axis=0)
            assert np.all(norms > 0.0) and norms[-1] >= norms.max() * (1.0 - 1e-12)
            assert np.array_equal(out, out.T)
            assert np.max(np.abs(out - want)) <= 1e-12


def assert_reference_factor(M, total):
    """The factor of the PSD/trace projection is, byte for byte and in
    memory layout, the gather of eigh's kept columns that it replaces."""
    G = project_psd_trace(M, total)
    want = reference_psd_trace(np.asarray(M, dtype=float), total)
    assert G.shape == want.shape
    assert G.flags.f_contiguous == want.flags.f_contiguous
    assert G.flags.c_contiguous == want.flags.c_contiguous
    assert G.tobytes(order="A") == want.tobytes(order="A")
    return G


class TestPsdTraceReference:
    def test_random_symmetric(self):
        rng = np.random.default_rng(18)
        for n in range(1, 41):
            for _ in range(5):
                M = rng.normal(scale=float(rng.choice([0.1, 1.0, 10.0])), size=(n, n))
                assert_reference_factor(M + M.T, float(rng.uniform(0.1, 20.0)))

    def test_eigenvalues_tied_at_threshold(self):
        # the top eigenvalue 2.5 alone gives the threshold 0.5 at total 2,
        # which the tied ones equal: exactly on the diagonal, to rounding
        # once rotated
        rng = np.random.default_rng(19)
        for n in range(2, 21):
            ties = int(rng.integers(1, n))
            below = rng.uniform(-3.0, 0.4, size=n - 1 - ties)
            values = np.concatenate([[2.5], np.full(ties, 0.5), below])
            assert assert_reference_factor(np.diag(values), 2.0).shape[1] == 1
            assert_reference_factor(with_spectrum(orthonormal(rng, n), values), 2.0)

    def test_every_eigenvalue_kept(self):
        rng = np.random.default_rng(20)
        for n in range(1, 31):
            # the spectrum reaches less than total / n below its mean, so
            # the threshold, the mean less total / n, lies below all of it
            M = rng.normal(scale=0.5, size=(n, n))
            assert assert_reference_factor(M + M.T, 10.0 * n).shape[1] == n

    def test_rank_one_beside_rounding_level_eigenvalue(self):
        assert assert_reference_factor(np.diag([3.0, 1.0 + 1e-15]), 2.0).shape[1] == 1
        rng = np.random.default_rng(27)
        for n in range(2, 21):
            Q = orthonormal(rng, n)
            values = np.concatenate([[3.0, 1.0 + 1e-15], np.full(n - 2, -1.0)])
            assert assert_reference_factor(with_spectrum(Q, values), 2.0).shape[1] == 1

    def test_symmetrizes_its_input_in_place(self):
        # a symmetric input comes back unchanged, bit for bit; an asymmetric
        # one is overwritten with its symmetric part, and the factor is the
        # reference's of the original, through the full eigh and, with a
        # start at order MIN_ORDER, the rank-one path and both branches of
        # the tridiagonal route, whose dsytrd overwrites a triangle of its
        # own copy
        rng = np.random.default_rng(29)
        for n, width in ((1, 0), (7, 0), (30, 0), (MIN_ORDER, 1), (MIN_ORDER, 2), (MIN_ORDER, 30)):
            v = rng.normal(size=n)
            start = None if n < MIN_ORDER else v[:, None] if width == 1 else rng.normal(size=(n, width))
            M = 50.0 * np.outer(v, v) + rng.normal(size=(n, n))
            S = M + M.T
            before = S.copy()
            project_psd_trace(S, 3.0, start)
            assert S.tobytes() == before.tobytes()
            original = M.copy()
            G = project_psd_trace(M, 3.0, start)
            assert M.tobytes() == ((original + original.T) * 0.5).tobytes()
            want = reference_psd_trace(original, 3.0, start)
            assert G.shape == want.shape and G.tobytes(order="A") == want.tobytes(order="A")


def test_binding_resolves_with_scipy_openblas():
    # where numpy's LAPACK is scipy-openblas, the one numpy's own wheels
    # ship, every routine of the tridiagonal route and the Cholesky
    # factorization, dpotrf_work, must bind, with the integer type of one
    # build, so none can go missing unnoticed; elsewhere they may not
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        pytest.skip("this numpy cannot report its build configuration")
    lapack = config.get("Build Dependencies", {}).get("lapack", {}).get("name", "")
    if "scipy-openblas" not in lapack:
        pytest.skip(f"numpy's LAPACK is {lapack!r}, not scipy-openblas")
    lapack = projections.lapack()
    assert lapack is not None
    assert {*DECLINED, "dpotrf_work"} == projections.LAPACK_ROUTINES.keys()
    pattern = next(pattern for pattern, integer in projections.LAPACKE_BUILDS if integer is lapack.integer)
    for name, arguments in projections.LAPACK_ROUTINES.items():
        function = getattr(lapack, name)
        assert function.__name__ == pattern.format(name)
        assert function.restype is lapack.integer and len(function.argtypes) == len(arguments)


class TestCholeskySucceeds:
    """The bound dpotrf decides as ``np.linalg.cholesky`` does, on both
    sides of definiteness and at rounding level between them."""

    @staticmethod
    def numpy_decides(T):
        try:
            np.linalg.cholesky(T)
        except np.linalg.LinAlgError:
            return False
        return True

    def assert_decides_as_numpy(self, matrices):
        """Both decisions on every matrix, which must agree; returns them."""
        decisions = []
        for T in matrices:
            original = T.copy()
            decision = projections.cholesky_succeeds(T)
            assert T.tobytes() == original.tobytes()
            assert decision == self.numpy_decides(T)
            decisions.append(decision)
        return decisions

    @pytest.mark.parametrize("n", [5, 80, 271])
    def test_definite_and_indefinite(self, n):
        rng = np.random.default_rng(40)
        Q = orthonormal(rng, n)
        values = rng.uniform(0.1, 10.0, size=n)
        definite = with_spectrum(Q, values)
        indefinite = [with_spectrum(Q, np.concatenate([[low], values[1:]])) for low in (-1e-3, -5.0)]
        assert self.assert_decides_as_numpy([definite, *indefinite]) == [True, False, False]
        assert self.assert_decides_as_numpy([np.zeros((n, n)), -np.eye(n)]) == [False, False]

    @pytest.mark.parametrize("n", [80, 271])
    def test_barely_definite(self, n):
        # a smallest eigenvalue swept across rounding level, where the
        # factorization's own rounding decides: some pass and some fail
        rng = np.random.default_rng(41)
        Q = orthonormal(rng, n)
        T = with_spectrum(Q, np.concatenate([[0.0], rng.uniform(0.5, 2.0, size=n - 1)]))
        T = 0.5 * (T + T.T)
        unit = n * np.finfo(float).eps
        shifts = unit * np.linspace(-4.0, 4.0, 81)
        decisions = self.assert_decides_as_numpy([T + shift * np.eye(n) for shift in shifts])
        assert decisions[0] is False and decisions[-1] is True
        assert 0 < sum(decisions) < len(decisions)

    @pytest.mark.parametrize("n", [80, 271])
    def test_not_exactly_symmetric(self, n):
        # T = tau I - S + (total + 1) uu', as the rank-one path forms it,
        # is not exactly symmetric; S's second eigenvalue is tau, so T is
        # singular but for rounding, and a diagonal shift swept across
        # rounding level makes some factorizations pass and some fail.
        # One with garbage above the diagonal is far from symmetric: both
        # read the lower triangle alone, also where the upper one would
        # decide otherwise
        rng = np.random.default_rng(42)
        Q = orthonormal(rng, n)
        total, tau = 60.0, 1.0
        values = np.concatenate([[total + tau, tau], rng.uniform(-1.0, 0.5, size=n - 2)])
        S = with_spectrum(Q, values)
        S = 0.5 * (S + S.T)
        u = Q[:, 0]
        T = np.outer(u, (total + 1.0) * u)
        T -= S
        assert not np.array_equal(T, T.T)
        diagonal = T.diagonal() + tau
        unit = n * np.finfo(float).eps * (total + tau)
        matrices = []
        for shift in unit * np.linspace(-4.0, 4.0, 81):
            shifted = T.copy()
            shifted.flat[:: n + 1] = diagonal + shift
            matrices.append(shifted)
        decisions = self.assert_decides_as_numpy(matrices)
        assert decisions[0] is False and decisions[-1] is True
        assert 0 < sum(decisions) < len(decisions)
        garbage = T.copy()
        garbage.flat[:: n + 1] = diagonal + 0.5
        upper = np.triu_indices(n, 1)
        for value in (-1e6, 1e6, np.nan):
            garbage[upper] = value
            assert self.assert_decides_as_numpy([garbage]) == [True]

    def test_without_the_binding_numpy_decides(self, monkeypatch):
        # where dpotrf is not bound, np.linalg.cholesky runs
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a):
            calls.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(projections, "lapack", lambda: None)
        monkeypatch.setattr(np.linalg, "cholesky", counting)
        assert projections.cholesky_succeeds(np.eye(4)) and not projections.cholesky_succeeds(-np.eye(4))
        assert calls == [(4, 4), (4, 4)]


def with_spectrum(Q, values):
    """Symmetric matrix with eigenvectors Q's columns and the given values."""
    return (Q * values) @ Q.T


def orthonormal(rng, n, k=None):
    return np.linalg.qr(rng.normal(size=(n, n if k is None else k)))[0]


class CountingMatrix:
    """A matrix that counts its products with vectors, ``S @ v``; numpy
    reads it as the array it wraps."""

    def __init__(self, S):
        self.S, self.shape, self.products = S, S.shape, 0

    def __array__(self, dtype=None, copy=None):
        return self.S

    def __matmul__(self, v):
        self.products += 1
        return self.S @ v


@pytest.fixture
def rank_one_results(monkeypatch):
    """The result of every call of ``rank_one_psd_trace`` during the test,
    None for one that could not prove its answer."""
    results = []
    rank_one = projections.rank_one_psd_trace

    def recording(S, total, start, proof=None):
        results.append(rank_one(S, total, start, proof))
        return results[-1]

    monkeypatch.setattr(projections, "rank_one_psd_trace", recording)
    return results


@pytest.fixture
def tridiagonal_results(monkeypatch):
    """The k and the outcome of every call of ``tridiagonal_psd_trace``
    during the test: the factor, or the ``LapackError`` it raised."""
    results = []
    route = projections.tridiagonal_psd_trace

    def recording(S, total, k, lapack):
        try:
            results.append((k, route(S, total, k, lapack)))
        except LapackError as error:
            results.append((k, error))
            raise
        return results[-1][1]

    monkeypatch.setattr(projections, "tridiagonal_psd_trace", recording)
    return results


# the bound LAPACK routines, where numpy's LAPACK exports them all; where
# it does not, the tridiagonal route never runs and the full eigh serves
LAPACK = projections.lapack()
# the LAPACK calls of each branch of the tridiagonal route: top-k
# eigenpairs that show tau, top-k eigenpairs that cannot and the whole
# tridiagonal solve after them, and the whole solve alone above the
# crossover
TOP_K = ["dsytrd", "dstemr", "dormtr_work"]
DECLINED = ["dsytrd", "dstemr", "dstedc", "dormtr_work"]
WHOLE = ["dsytrd", "dstedc", "dormtr_work"]


def reduction(S):
    """The diagonal d and subdiagonal e (its last entry unset) of the
    tridiagonal matrix to which the bound dsytrd reduces symmetric S."""
    n = S.shape[0]
    A = np.array(S, order="C")
    d, e, tau = np.empty(n), np.empty(n), np.empty(n)
    info = LAPACK.dsytrd(
        projections.LAPACK_COL_MAJOR, b"L", n, A.ctypes.data, n, d.ctypes.data, e.ctypes.data, tau.ctypes.data
    )
    assert info == 0
    return d, e


@pytest.fixture
def lapack_calls(monkeypatch):
    """The name of every LAPACK routine of the tridiagonal route called
    during the test, in order; the rank-one path's dpotrf is not counted."""
    calls = []

    def counting(name, function):
        def counted(*args):
            calls.append(name)
            return function(*args)

        return counted

    for name in DECLINED if LAPACK is not None else ():
        monkeypatch.setattr(LAPACK, name, counting(name, getattr(LAPACK, name)))
    return calls


class TestPartialPsdTrace:
    """The warm-started rank-one path and the tridiagonal route, against
    the full eigh path."""

    n = 120
    total = 60.0

    @pytest.fixture(autouse=True)
    def counters(self, eigh_orders, rank_one_results, tridiagonal_results, lapack_calls):
        self.eigh_orders = eigh_orders
        self.rank_one_results = rank_one_results
        self.tridiagonal_results = tridiagonal_results
        self.lapack_calls = lapack_calls

    def project(self, S, start):
        """The projection with ``start``, its attempts at the rank-one path
        and at the tridiagonal route, the LAPACK routines that route
        called, and its eigh calls at S's order (the full path); the factor
        must give the full path's projection."""
        self.eigh_orders.clear()
        self.rank_one_results.clear()
        self.tridiagonal_results.clear()
        self.lapack_calls.clear()
        G = project_psd_trace(S, self.total, start)
        attempts = list(self.rank_one_results)
        routes = list(self.tridiagonal_results)
        calls = list(self.lapack_calls)
        full_calls = self.eigh_orders.count(S.shape[0])
        assert np.max(np.abs(G @ G.T - psd_trace_matrix(S, self.total))) <= 1e-12
        return G, attempts, routes, calls, full_calls

    def assert_served(self, S, start):
        G, attempts, routes, calls, full_calls = self.project(S, start)
        assert len(attempts) == 1 and attempts[0] is G and routes == [] and calls == [] and full_calls == 0
        assert G.shape == (S.shape[0], 1) and G.flags.f_contiguous
        assert np.isclose(G[:, 0] @ G[:, 0], self.total)

    def assert_tridiagonal(self, S, start, rank_one_tried=False, branch=TOP_K):
        """The tridiagonal route serves the projection with k = width +
        GUARD, or FIRST_GUESS for a start with no columns, through the
        LAPACK calls of ``branch``, after a failed rank-one attempt when
        ``rank_one_tried``; where the binding is absent the full eigh
        serves it.  Returns the factor."""
        G, attempts, routes, calls, full_calls = self.project(S, start)
        assert attempts == ([None] if rank_one_tried else [])
        width = start.shape[1]
        k = width + projections.GUARD if width else projections.FIRST_GUESS
        if LAPACK is not None:
            assert len(routes) == 1 and routes[0][0] == k and routes[0][1] is G
            assert calls == branch and full_calls == 0
        else:
            assert routes == [] and full_calls == 1
        # F-ordered, with the columns' squared norms, the projected
        # eigenvalues, ascending
        assert G.flags.f_contiguous
        norms = np.linalg.norm(G, axis=0)
        assert np.all(np.diff(norms) >= -1e-12 * norms[-1])
        return G

    def assert_falls_back(self, S, start):
        self.assert_tridiagonal(S, start, rank_one_tried=True)

    def assert_no_attempt(self, S, start):
        _, attempts, routes, calls, full_calls = self.project(S, start)
        assert attempts == [] and routes == [] and calls == [] and full_calls == 1

    def spectrum(self, rng, n, rank):
        """Eigenvectors Q and a symmetric matrix with them whose projection
        has the given rank: eigenvalues 1 + total * (a Dirichlet draw) above
        the threshold 1, the rest below it."""
        Q = orthonormal(rng, n)
        kept_values = 1.0 + self.total * rng.dirichlet(np.ones(rank))
        return Q, with_spectrum(Q, np.concatenate([kept_values, rng.uniform(-5.0, 0.5, size=n - rank)]))

    def test_random(self):
        # projections of rank 2 or 3: starts of 2 and 3 columns take the
        # tridiagonal route without trying the rank-one one
        rng = np.random.default_rng(21)
        for _ in range(10):
            Q = orthonormal(rng, self.n)
            top = rng.uniform(40.0, 80.0, size=3)
            values = np.concatenate([top, rng.uniform(-5.0, 5.0, size=self.n - 3)])
            noise = 1e-3 * rng.normal(size=(self.n, self.n))
            start = project_psd_trace(with_spectrum(Q, values) + noise, self.total)
            assert start.shape[1] in (2, 3)
            M = with_spectrum(Q, values) + 1e-2 * rng.normal(size=(self.n, self.n))
            self.assert_tridiagonal(M, start)
            self.assert_tridiagonal(M, rng.normal(size=(self.n, 2)))
            self.assert_tridiagonal(M, rng.normal(size=(self.n, 3)))

    @pytest.mark.parametrize("n", [MIN_ORDER, 120, 271])
    def test_top_k_route_at_ranks_two_to_twelve(self, n):
        # a projection of rank q, from a start of width r = max(2, q - 5),
        # so k = r + GUARD exceeds q and lies within n / CROSSOVER: the
        # top-k branch serves it; the crossover check must let these
        # through at order MIN_ORDER too
        rng = np.random.default_rng(n)
        for q in range(2, 13):
            width = max(2, q - 5)
            assert (width + projections.GUARD) * projections.CROSSOVER <= n
            _, S = self.spectrum(rng, n, q)
            G = self.assert_tridiagonal(S, rng.normal(size=(n, width)))
            assert G.shape == (n, q)

    @pytest.mark.parametrize("n, rank", [(120, 30), (271, 60)])
    def test_whole_tridiagonal_solve_above_the_crossover(self, n, rank):
        # a start as wide as the rank puts k = rank + GUARD above
        # n / CROSSOVER: dstedc solves the reduction whole, with no
        # top-k attempt, and only the kept eigenvectors are transformed back
        rng = np.random.default_rng(38)
        assert rank * projections.CROSSOVER > n
        _, S = self.spectrum(rng, n, rank)
        G = self.assert_tridiagonal(S, rng.normal(size=(n, rank)), branch=WHOLE)
        assert G.shape == (n, rank)

    @pytest.mark.skipif(LAPACK is None, reason="numpy's LAPACK lacks the tridiagonal route's routines")
    def test_rank_outgrowing_k_reduces_once(self):
        # rank 10 from a start of 2 columns: the smallest of the top
        # k = 8 eigenvalues that dstemr finds is kept, so they cannot show
        # tau and dstedc solves the same reduction whole: S is reduced
        # once and the full eigh does not run
        rng = np.random.default_rng(34)
        Q = orthonormal(rng, self.n)
        values = np.concatenate([1.0 + 6.0 * np.ones(10), rng.uniform(-5.0, 0.5, size=self.n - 10)])
        G, attempts, routes, calls, full_calls = self.project(with_spectrum(Q, values), rng.normal(size=(self.n, 2)))
        assert attempts == [] and len(routes) == 1 and routes[0][0] == 2 + projections.GUARD and routes[0][1] is G
        assert calls.count("dsytrd") == 1 and calls == DECLINED
        assert full_calls == 0 and G.shape == (self.n, 10)

    def test_reduction_that_splits(self):
        # block-diagonal S of orders 70 and 60 whose top eigenvalues
        # alternate between the blocks: its reduction has an exact zero
        # off the diagonal, so T splits in two, and the top-k branch must
        # still give the ascending eigenpairs of the whole T
        rng = np.random.default_rng(40)
        S = np.zeros((130, 130))
        at = 0
        for order, top in ((70, [10.0, 30.0, 50.0]), (60, [20.0, 40.0])):
            values = np.concatenate([top, rng.uniform(-5.0, 5.0, size=order - len(top))])
            S[at : at + order, at : at + order] = with_spectrum(orthonormal(rng, order), values)
            at += order
        S = 0.5 * (S + S.T)
        if LAPACK is not None:
            _, e = reduction(S)
            assert np.any(e[:-1] == 0.0)
        G = self.assert_tridiagonal(S, rng.normal(size=(130, 3)))
        assert G.shape == (130, 3)

    @pytest.mark.skipif(LAPACK is None, reason="numpy's LAPACK lacks the tridiagonal route's routines")
    def test_top_k_leaves_the_tridiagonal_matrix_as_it_is(self):
        # dstemr overwrites the d and e it is given, and a declined top-k
        # attempt hands the same d and e to dstedc: top_tridiagonal must
        # leave them bit for bit as they were, served or declined
        rng = np.random.default_rng(41)
        for rank, served in ((4, True), (10, False)):
            _, S = self.spectrum(rng, self.n, rank)
            d, e = reduction(S)
            before = d.tobytes(), e.tobytes()
            top = projections.top_tridiagonal(LAPACK, d, e, 8, self.total)
            assert (top is not None) == served
            assert (d.tobytes(), e.tobytes()) == before

    @pytest.mark.skipif(LAPACK is None, reason="numpy's LAPACK lacks the tridiagonal route's routines")
    @pytest.mark.parametrize(
        "routine, rank",
        [
            ("dsytrd", 4), ("dsytrd", 30), ("dstemr", 4), ("dstedc", 30),
            ("dormtr_work", 4), ("dormtr_work", 30),
        ],
    )
    def test_lapack_error_runs_the_full_path(self, routine, rank, monkeypatch):
        # a nonzero info from any step of either branch sends the call to
        # the full eigh: the factor is its, byte for byte and in memory
        # layout
        def failing(*args):
            self.lapack_calls.append(routine)
            return 1

        monkeypatch.setattr(LAPACK, routine, failing)
        rng = np.random.default_rng(39)
        _, S = self.spectrum(rng, self.n, rank)
        G, _, routes, calls, full_calls = self.project(S.copy(), rng.normal(size=(self.n, rank)))
        assert len(routes) == 1 and isinstance(routes[0][1], LapackError)
        assert calls[-1] == routine and full_calls == 1
        want = project_psd_trace(S.copy(), self.total)
        assert G.flags.f_contiguous == want.flags.f_contiguous
        assert G.shape == want.shape and G.tobytes(order="A") == want.tobytes(order="A")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("width", [0, 1, 3])
    def test_non_finite_input_raises_as_the_full_path(self, bad, width):
        # the rank-one path declines, the tridiagonal route does not run,
        # and the full eigh's spectrum makes the simplex projection raise,
        # as without a start
        rng = np.random.default_rng(35)
        M = rng.normal(size=(self.n, self.n))
        M[3, 5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the power iteration's
            with pytest.raises(ValueError, match="lost to rounding"):
                project_psd_trace(M, self.total, rng.normal(size=(self.n, width)))
        assert self.tridiagonal_results == [] and self.lapack_calls == []
        assert self.eigh_orders == [self.n]

    def test_without_the_binding_the_full_path_runs(self, monkeypatch):
        # with no LAPACK binding the route does not run, and the factor is
        # the full eigh's, byte for byte and in memory layout
        monkeypatch.setattr(projections, "lapack", lambda: None)
        rng = np.random.default_rng(36)
        for width in (0, 2, 5, 30):
            _, S = self.spectrum(rng, self.n, 4)
            G, attempts, routes, calls, full_calls = self.project(S.copy(), rng.normal(size=(self.n, width)))
            assert routes == [] and calls == [] and full_calls == 1
            want = project_psd_trace(S.copy(), self.total)
            assert G.flags.f_contiguous == want.flags.f_contiguous
            assert G.shape == want.shape and G.tobytes(order="A") == want.tobytes(order="A")

    def test_rank_one(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            v = orthonormal(rng, self.n, 1)
            noise = rng.normal(scale=0.05, size=(self.n, self.n))
            M = float(rng.uniform(60.0, 200.0)) * (v @ v.T) + noise
            start = v + 1e-3 * rng.normal(size=(self.n, 1))
            self.assert_served(M, start)

    def test_crowded_spectrum_just_below_threshold(self):
        # one kept eigenvalue 61 gives tau = 1; twenty more sit 1e-6 apart
        # just under it, so the Cholesky check has almost no margin
        rng = np.random.default_rng(23)
        for _ in range(5):
            Q = orthonormal(rng, self.n)
            crowd = 1.0 - 1e-6 * np.arange(1, 21)
            rest = rng.uniform(-1.0, 0.9, size=self.n - 21)
            S = with_spectrum(Q, np.concatenate([[self.total + 1.0], crowd, rest]))
            start = Q[:, :1] + 1e-4 * rng.normal(size=(self.n, 1))
            self.assert_served(S, start)

    def test_zero_column_start(self):
        # a start with no columns makes no rank-one attempt and takes the
        # tridiagonal route; one whose only column is zero falls back without
        # dividing by its norm
        rng = np.random.default_rng(24)
        for _ in range(5):
            Q = orthonormal(rng, self.n)
            values = np.concatenate([[90.0], rng.uniform(-4.0, 4.0, size=self.n - 1)])
            S = with_spectrum(Q, values)
            self.assert_tridiagonal(S, np.zeros((self.n, 0)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                self.assert_falls_back(S, np.zeros((self.n, 1)))

    def test_start_orthogonal_to_top_eigenvector(self):
        # the start is another eigenvector, so the iteration converges at
        # once to the wrong eigenpair and only the Cholesky check rejects it
        rng = np.random.default_rng(25)
        for _ in range(5):
            Q = orthonormal(rng, self.n)
            values = np.concatenate([[80.0], rng.uniform(-4.0, 4.0, size=self.n - 1)])
            self.assert_falls_back(with_spectrum(Q, values), Q[:, 1:2])

    def test_second_eigenvalue_above_threshold_falls_back(self):
        # 90 alone gives tau = 30, which 70 exceeds: the projection has rank
        # 2, so even the exact top eigenvector fails the Cholesky check
        rng = np.random.default_rng(26)
        for _ in range(5):
            Q = orthonormal(rng, self.n)
            values = np.concatenate([[90.0, 70.0], rng.uniform(-4.0, 4.0, size=self.n - 2)])
            S = with_spectrum(Q, values)
            self.assert_falls_back(S, Q[:, :1])
            self.assert_falls_back(S, Q[:, :1] + 1e-3 * rng.normal(size=(self.n, 1)))

    def test_negative_eigenvalue_dominating_falls_back(self):
        # |lambda_min| = 100 > lambda_1 = 70: the power iteration turns
        # towards the negative eigenvector, and stalls or fails the proof
        rng = np.random.default_rng(27)
        for _ in range(5):
            Q = orthonormal(rng, self.n)
            values = np.concatenate([[70.0, -100.0], rng.uniform(-4.0, 4.0, size=self.n - 2)])
            S = with_spectrum(Q, values)
            self.assert_falls_back(S, Q[:, :1] + 1e-3 * rng.normal(size=(self.n, 1)))

    def test_power_iteration_declines_only_after_max_steps(self):
        # lambda_2 = 0.99 lambda_1 and a start even on both eigenvectors:
        # the residual falls about 1% a product and never reaches rounding
        # level, so the power iteration makes all MAX_STEPS products with S
        # before it declines, and the tridiagonal route serves the call
        rng = np.random.default_rng(44)
        Q = orthonormal(rng, self.n)
        values = np.concatenate([[100.0, 99.0], rng.uniform(-4.0, 4.0, size=self.n - 2)])
        S = with_spectrum(Q, values)
        S = 0.5 * (S + S.T)
        start = Q[:, 0] + Q[:, 1]
        counted = CountingMatrix(S)
        assert projections.rank_one_psd_trace(counted, self.total, start) is None
        assert counted.products == projections.MAX_STEPS
        self.assert_falls_back(S, start[:, None])

    def test_below_min_order_makes_no_attempt(self):
        rng = np.random.default_rng(28)
        for n in (MIN_ORDER - 1, MIN_ORDER):
            v = orthonormal(rng, n, 1)
            S = 100.0 * (v @ v.T) + rng.normal(scale=0.05, size=(n, n))
            if n < MIN_ORDER:
                self.assert_no_attempt(S, v)
            else:
                self.assert_served(S, v)


class TestCarriedProof:
    """A rank-one proof made with a margin stands in for the factorization
    of later matrices within half of it, and changes no result."""

    n = 120
    total = 60.0
    tau = 1.0  # S's top eigenvalue is total + tau
    delta = PROOF_MARGIN * tau

    @pytest.fixture(autouse=True)
    def counters(self, eigh_orders, rank_one_results, monkeypatch):
        self.eigh_orders = eigh_orders
        self.rank_one_results = rank_one_results
        self.factorizations = 0
        cholesky = projections.cholesky_succeeds

        def counting(T):
            self.factorizations += 1
            return cholesky(T)

        monkeypatch.setattr(projections, "cholesky_succeeds", counting)

    def matrix(self, rng, second):
        """Eigenvectors Q and S with eigenvalues total + tau, ``second`` and
        the rest in [-1, 0.5), symmetric exactly, so the projection's
        symmetrization leaves it as it is."""
        Q = orthonormal(rng, self.n)
        rest = rng.uniform(-1.0, 0.5, size=self.n - 2)
        S = with_spectrum(Q, np.concatenate([[self.total + self.tau, second], rest]))
        return Q, 0.5 * (S + S.T)

    def start(self, rng, Q):
        return Q[:, :1] + 1e-4 * rng.normal(size=(self.n, 1))

    def project(self, S, start, proof):
        """The projection with ``proof``, its rank-one attempts, and its
        factorizations and full-order eigh calls; the factor must be the
        one the projection gives without ``proof``, bit for bit."""
        self.factorizations = 0
        self.eigh_orders.clear()
        self.rank_one_results.clear()
        G = project_psd_trace(S, self.total, start, proof)
        attempts = list(self.rank_one_results)
        counts = (self.factorizations, self.eigh_orders.count(self.n))
        assert G.tobytes() == project_psd_trace(S, self.total, start).tobytes()
        return G, attempts, counts

    def test_perturbation_within_half_the_margin_is_carried(self):
        # a change along the second eigenvector leaves tau as it was, to
        # rounding, and moves S by its size in the Frobenius norm
        rng = np.random.default_rng(31)
        for _ in range(3):
            Q, S = self.matrix(rng, 0.5)
            proof = CarriedProof()
            G, attempts, counts = self.project(S, self.start(rng, Q), proof)
            assert attempts[0] is G and counts == (1, 0) and np.array_equal(proof.S, S)
            base = proof.S
            w = Q[:, 1:2]
            near = S + 0.49 * self.delta * (w @ w.T)
            carried, attempts, counts = self.project(near, G, proof)
            assert attempts[0] is carried and counts == (0, 0) and proof.S is base
            outside = S + 0.51 * self.delta * (w @ w.T)
            _, attempts, counts = self.project(outside, carried, proof)
            assert attempts[0] is not None and counts == (1, 0)
            assert np.array_equal(proof.S, outside)

    def test_second_eigenvalue_within_the_margin_halves_it(self):
        # the margin factorization fails and the unshifted one proves the
        # projection, as without a carried proof; no proof is kept, an
        # earlier one goes, and the margin halves, so the next projection
        # of the same S proves with half the margin and keeps that proof
        rng = np.random.default_rng(32)
        for _ in range(3):
            fresh, held = CarriedProof(), CarriedProof()
            P, earlier = self.matrix(rng, 0.5)
            self.project(earlier, self.start(rng, P), held)
            assert held.S is not None
            Q, S = self.matrix(rng, self.tau - 0.75 * self.delta)
            start = self.start(rng, Q)
            for proof in (fresh, held):
                G, attempts, counts = self.project(S, start, proof)
                assert attempts[0] is G and counts == (2, 0) and proof.S is None
                assert proof.margin == 0.5 * PROOF_MARGIN
                G, attempts, counts = self.project(S, start, proof)
                assert attempts[0] is G and counts == (1, 0) and np.array_equal(proof.S, S)
                assert np.isclose(proof.delta, 0.5 * self.delta)

    def test_second_eigenvalue_lifted_above_threshold_is_never_carried(self):
        # lifting the second eigenvalue past tau, by a little or a lot,
        # moves S beyond half the margin: both factorizations fail, the
        # tridiagonal route serves (the full eigh where it is absent) and
        # no proof is kept
        rng = np.random.default_rng(33)
        for _ in range(3):
            Q, S = self.matrix(rng, self.tau - 2.0 * self.delta)
            proof = CarriedProof()
            G, attempts, counts = self.project(S, self.start(rng, Q), proof)
            assert attempts[0] is G and counts == (1, 0)
            base = proof.S, proof.tau, proof.delta
            w = Q[:, 1:2]
            for lift in (3.0 * self.delta, 1.0):
                proof.S, proof.tau, proof.delta = base
                lifted, attempts, counts = self.project(S + lift * (w @ w.T), G, proof)
                assert attempts == [None] and counts == (2, int(LAPACK is None)) and proof.S is None
                assert lifted.shape[1] == 2


class TestBoxGangster:
    part = RotamerPartition((2, 2))
    geometry = geometry_of(part.m)
    free = geometry.free

    def test_zero_matrix_gets_unit_corner(self):
        out = project_box_gangster(np.zeros((5, 5)), self.free)
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        assert np.array_equal(out, expected)

    def test_upper_clamp(self):
        M = np.zeros((5, 5))
        M[1, 3] = M[3, 1] = 7.3
        out = project_box_gangster(M, self.free)
        assert out[1, 3] == 1.0 and out[3, 1] == 1.0
        assert out is M  # the projection overwrites its input

    def test_feasible_lift_unchanged(self):
        for x in feasible_indicators(self.part):
            Y = lift_indicator(x)
            assert np.array_equal(box_matrix(Y, self.free), Y)

    def test_output_in_feasible_box_exactly(self):
        rng = np.random.default_rng(13)
        M = rng.normal(scale=4.0, size=(5, 5))
        out = project_box_gangster(M + M.T, self.free)
        assert np.array_equal(out, out.T)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out[0, 0] == 1.0
        g = self.geometry.gangster
        assert np.all(out[g[1:, 0], g[1:, 1]] == 0.0)


class TestBorderDiagMask:
    def test_identity_maps_to_zero(self):
        fixed = geometry_of((1, 2)).dual_fixed
        assert np.array_equal(dual_mask(np.eye(4), fixed), np.zeros((4, 4)))

    def test_interior_off_diagonal_unchanged(self):
        fixed = geometry_of((1, 2)).dual_fixed
        M = np.zeros((4, 4))
        M[1, 2] = M[2, 1] = 3.5
        assert np.array_equal(dual_mask(M, fixed), M)

    def test_idempotent(self):
        rng = np.random.default_rng(14)
        fixed = geometry_of((2, 3)).dual_fixed
        M = rng.normal(size=(6, 6))
        once = dual_mask(M, fixed)
        assert np.array_equal(dual_mask(once, fixed), once)

    def test_fixed_coordinates_are_the_border_and_the_diagonal(self):
        for m in [(1,), (1, 2), (2, 3), (1, 1, 4)]:
            geometry = geometry_of(m)
            n = geometry.order
            rows, cols = np.unravel_index(geometry.dual_fixed, (n, n))
            fixed = np.zeros((n, n), dtype=bool)
            fixed[rows, cols] = True
            expected = np.eye(n, dtype=bool)
            expected[0] = expected[:, 0] = True
            assert np.array_equal(fixed, expected)
            assert not geometry.dual_fixed.flags.writeable


class TestNonexpansiveness:
    def test_all_four_operators(self):
        rng = np.random.default_rng(15)
        part = RotamerPartition((2, 3))
        geometry = geometry_of(part.m)
        n = part.n0 + 1
        for _ in range(40):
            a = rng.normal(scale=3.0, size=(n, n))
            b = rng.normal(scale=3.0, size=(n, n))
            a = 0.5 * (a + a.T)
            b = 0.5 * (b + b.T)
            dist = np.linalg.norm(a - b)
            va, vb = rng.normal(size=n), rng.normal(size=n)
            c = float(rng.uniform(0.5, 5.0))
            pairs = [
                (project_simplex(va, c), project_simplex(vb, c)),
                (psd_trace_matrix(a, c), psd_trace_matrix(b, c)),
                (box_matrix(a, geometry.free), box_matrix(b, geometry.free)),
                (dual_mask(a, geometry.dual_fixed), dual_mask(b, geometry.dual_fixed)),
            ]
            assert np.linalg.norm(pairs[0][0] - pairs[0][1]) <= np.linalg.norm(va - vb) + 1e-12
            for pa, pb in pairs[1:]:
                assert np.linalg.norm(pa - pb) <= dist + 1e-12
