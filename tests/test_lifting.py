import numpy as np

from conftest import (
    blockwise_face_basis,
    exposing_matrix,
    feasible_indicators,
    gangster_values,
    homogenized_constraints,
    make_instance,
    qr_face_basis,
    row_sum_matrix,
)
from scpsolve import RotamerPartition, random_instance
from scpsolve.lifting import (
    FACE_CROSSOVER,
    DenseFaceBasis,
    FaceBasis,
    build_geometry,
    gangster_indices,
    lift_energy,
    lift_indicator,
    null_space_basis,
)


def random_partition(rng, p_max=8, m_max=6):
    p = int(rng.integers(1, p_max + 1))
    return RotamerPartition(tuple(int(v) for v in rng.integers(1, m_max + 1, size=p)))


class TestRowSums:
    def test_two_blocks_of_two(self):
        A = row_sum_matrix(RotamerPartition((2, 2)))
        assert np.array_equal(A, [[1, 1, 0, 0], [0, 0, 1, 1]])

    def test_singleton_blocks_give_identity(self):
        assert np.array_equal(row_sum_matrix(RotamerPartition((1, 1, 1))), np.eye(3))

    def test_single_block_gives_ones_row(self):
        assert np.array_equal(row_sum_matrix(RotamerPartition((4,))), np.ones((1, 4)))

    def test_full_row_rank(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            part = random_partition(rng)
            A = row_sum_matrix(part)
            assert np.linalg.matrix_rank(A) == part.p


class TestNullBasis:
    def test_single_rotamer_column(self):
        V = null_space_basis(RotamerPartition((1,)))
        assert V.shape == (2, 1)
        expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(np.abs(V[:, 0]), expected, atol=1e-14)

    def test_shape(self):
        V = null_space_basis(RotamerPartition((2, 2)))
        assert V.shape == (5, 3)

    def test_orthonormal_and_annihilating(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            part = random_partition(rng)
            V = null_space_basis(part)
            H = homogenized_constraints(part)
            n0, p = part.n0, part.p
            assert V.shape == (n0 + 1, n0 + 1 - p)
            assert np.max(np.abs(V.T @ V - np.eye(n0 + 1 - p))) <= 1e-12
            assert np.max(np.abs(H @ V)) <= 1e-12

    def test_closed_form_spans_the_qr_face(self):
        # the closed-form basis and the QR reference span the same face, and
        # the closed form has its stated structure: column 0 proportional to
        # [1; 1/m_i on block i], every other column supported in one block
        # and summing to zero over it
        rng = np.random.default_rng(7)
        parts = [random_partition(rng, p_max=11, m_max=8) for _ in range(50)]
        parts += [RotamerPartition((5,)), RotamerPartition((1,) * 6), RotamerPartition((20, 1, 13, 20))]
        for part in parts:
            V = null_space_basis(part)
            Q = qr_face_basis(part)
            assert V.shape == Q.shape
            assert np.max(np.abs(V @ V.T - Q @ Q.T)) <= 1e-12
            u = np.concatenate([[1.0], np.repeat([1.0 / mi for mi in part.m], part.m)])
            assert np.max(np.abs(V[:, 0] - u / np.linalg.norm(u))) <= 1e-15
            assert np.all(V[0, 1:] == 0.0)
            blocks = np.repeat(np.arange(part.p), part.m)
            for col in V[1:, 1:].T:
                support = blocks[np.nonzero(col)[0]]
                assert support.size and np.all(support == support[0])
                assert abs(col.sum()) <= 1e-14

    def test_materialised_from_reflectors_bit_for_bit(self):
        # the corpus runs the dense products with this V, so its answers
        # stay bit-identical only while V keeps every bit
        rng = np.random.default_rng(8)
        parts = [random_partition(rng, p_max=11, m_max=8) for _ in range(50)]
        parts += [RotamerPartition((1,)), RotamerPartition((1,) * 6), RotamerPartition((20, 1, 13, 20))]
        for part in parts:
            assert np.array_equal(null_space_basis(part), blockwise_face_basis(part))

    def test_deterministic(self):
        part = RotamerPartition((3, 1, 4))
        assert np.array_equal(null_space_basis(part), null_space_basis(part))


def assert_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    if want.size:
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestFaceBasis:
    def test_structured_products_match_dense_v(self):
        # V'XV, VG for G with 0, 1 and many columns (a solve starts from G
        # with none), and the mat-vec V'y, against the dense V
        rng = np.random.default_rng(13)
        parts = [random_partition(rng, p_max=11, m_max=8) for _ in range(50)]
        parts += [RotamerPartition((7,)), RotamerPartition((1,) * 6), RotamerPartition((20, 1, 13, 20))]
        for part in parts:
            face = FaceBasis(part)
            V = null_space_basis(part)
            n, f = V.shape
            X = rng.standard_normal((n, n))
            X += X.T
            assert_close(face.congruence(X), V.T @ X @ V)
            for width in (0, 1, 9):
                G = rng.standard_normal((f, width))
                assert_close(face.apply(G), V @ G)
            y = rng.standard_normal(n)
            assert_close(face.apply_transpose(y), V.T @ y)
            assert_close(face.apply_transpose(X[:, :3]), V.T @ X[:, :3])

    def test_symmetric_block_sums_read_along_rows_are_the_same(self):
        # congruence reads the block sums of its symmetric X along the
        # rows; they must be the column sums bit for bit, for blocks of
        # every size up to the benchmark's m = 20 and singletons
        rng = np.random.default_rng(15)
        parts = [random_partition(rng, p_max=11, m_max=8) for _ in range(20)]
        parts.append(random_instance(80, 20, (-10, 10), seed=3).partition)
        parts.append(RotamerPartition((20, 1, 13, 20, 1)))
        for part in parts:
            face = FaceBasis(part)
            X = rng.standard_normal((part.n0 + 1,) * 2)
            X += X.T
            assert face._dt(X, symmetric=True).tobytes() == face._dt(X).tobytes()

    def test_dense_products_are_those_of_v(self):
        # below the crossover the solve must run exactly the dense products
        rng = np.random.default_rng(14)
        part = RotamerPartition((3, 1, 5, 2))
        face, V = DenseFaceBasis(part), null_space_basis(part)
        X = rng.standard_normal((part.n0 + 1,) * 2)
        G = rng.standard_normal((V.shape[1], 2))
        assert np.array_equal(face.congruence(X), V.T @ X @ V)
        assert np.array_equal(face.apply(G), V @ G)
        assert np.array_equal(face.apply_transpose(X), V.T @ X)

    def test_dense_v_is_the_reflector_products_v(self):
        # DenseFaceBasis writes V down entry by entry: bit for bit
        # FaceBasis.apply of the identity, singletons and blocks of the
        # benchmark's m = 20 included
        rng = np.random.default_rng(16)
        parts = [random_partition(rng, p_max=11, m_max=20) for _ in range(200)]
        parts += [RotamerPartition((1,)), RotamerPartition((1,) * 6), RotamerPartition((20, 1, 13, 20))]
        for part in parts:
            dense, face = DenseFaceBasis(part), FaceBasis(part)
            assert (dense.order, dense.dim) == (face.order, face.dim)
            assert dense.matrix.tobytes() == face.apply(np.eye(face.dim)).tobytes()
            assert not dense.matrix.flags.writeable

    def test_build_geometry_chooses_the_form_by_size(self):
        for n0, kind in ((FACE_CROSSOVER - 1, DenseFaceBasis), (FACE_CROSSOVER, FaceBasis)):
            inst = make_instance((n0,), np.zeros((n0, n0)))
            assert type(build_geometry(inst).face) is kind


class TestGangster:
    def test_two_blocks_of_two(self):
        idx = gangster_indices(RotamerPartition((2, 2)))
        assert [tuple(r) for r in idx] == [(0, 0), (1, 2), (2, 1), (3, 4), (4, 3)]

    def test_singleton_blocks_only_corner(self):
        idx = gangster_indices(RotamerPartition((1, 1, 1)))
        assert [tuple(r) for r in idx] == [(0, 0)]

    def test_count_formula_and_operator_support(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            part = random_partition(rng)
            idx = gangster_indices(part)
            assert len(idx) == 1 + sum(mi * (mi - 1) for mi in part.m)
            # independent oracle: support of blkdiag(0, A'A - I)
            A = row_sum_matrix(part)
            S = np.zeros((part.n0 + 1, part.n0 + 1))
            S[1:, 1:] = A.T @ A - np.eye(part.n0)
            support = {(r, c) for r, c in zip(*np.nonzero(S))}
            assert {tuple(r) for r in idx} == support | {(0, 0)}
            # and as an array: row-major order and intp dtype, after (0, 0)
            oracle = np.argwhere(A.T @ A - np.eye(part.n0))
            assert idx.dtype == oracle.dtype == np.intp
            assert np.array_equal(idx[0], [0, 0])
            assert np.array_equal(idx[1:] - 1, oracle)


class TestLiftEnergy:
    def test_zero_matrix(self):
        inst = make_instance((2,), np.zeros((2, 2)))
        assert np.array_equal(lift_energy(inst.energy), np.zeros((3, 3)))

    def test_scalar(self):
        inst = make_instance((1,), [[7.0]])
        assert np.array_equal(lift_energy(inst.energy), [[0.0, 0.0], [0.0, 7.0]])

    def test_trace_preserved_and_zero_border(self):
        inst = random_instance(3, 3, (-4, 4), seed=8)
        lifted = lift_energy(inst.energy)
        assert np.trace(lifted) == np.trace(inst.energy)
        assert np.all(lifted[0, :] == 0) and np.all(lifted[:, 0] == 0)


class TestGangsterValues:
    part = RotamerPartition((2, 2))

    def test_lifted_indicator_pattern(self):
        idx = gangster_indices(self.part)
        for x in feasible_indicators(self.part):
            vals = gangster_values(lift_indicator(x), idx)
            assert vals[0] == 1.0
            assert np.all(vals[1:] == 0.0)

    def test_identity(self):
        idx = gangster_indices(self.part)
        vals = gangster_values(np.eye(5), idx)
        assert vals[0] == 1.0 and np.all(vals[1:] == 0.0)

    def test_all_ones(self):
        idx = gangster_indices(self.part)
        assert np.all(gangster_values(np.ones((5, 5)), idx) == 1.0)


class TestExposingMatrix:
    def test_annihilates_feasible_lifts(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            part = random_partition(rng, p_max=5, m_max=4)
            K = exposing_matrix(part)
            for x in feasible_indicators(part):
                assert np.max(np.abs(K @ lift_indicator(x))) <= 1e-10

    def test_rank_equals_block_count(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            part = random_partition(rng)
            K = exposing_matrix(part)
            sv = np.linalg.svd(K, compute_uv=False)
            assert int(np.sum(sv > 1e-8 * sv[0])) == part.p


class TestFaceParametrization:
    def test_feasible_lift_round_trips_through_basis(self):
        # any feasible lifted matrix lies on the face: Y = V (V'YV) V',
        # the reduced matrix has trace p + 1, and the reconstruction keeps
        # the first column equal to the diagonal
        rng = np.random.default_rng(6)
        for _ in range(8):
            part = random_partition(rng, p_max=5, m_max=4)
            V = null_space_basis(part)
            for x in feasible_indicators(part):
                Y = lift_indicator(x)
                R = V.T @ Y @ V
                assert abs(np.trace(R) - (part.p + 1)) <= 1e-10
                back = V @ R @ V.T
                assert np.max(np.abs(back - Y)) <= 1e-10
                assert np.max(np.abs(np.diag(back) - back[:, 0])) <= 1e-10

    def test_build_geometry_fields(self, derived_instance):
        geo = build_geometry(derived_instance)
        assert geo.order == 5
        assert geo.face_dim == 3
        assert geo.lifted_cost[0, 0] == 0.0
        assert not geo.face.matrix.flags.writeable
