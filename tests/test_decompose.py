import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpred.decompose import (
    CutSet,
    Decomposition,
    Permutation,
    cut_matrix,
    decompose_cut,
    decompose_permutation,
    decompose_trace_norm,
    decompose_triangular,
    hadamard,
    perm_matrix,
    singular_values_T,
    triangular,
    validate,
)
from matpred.linalg import sym_block, symmetrize, trace_norm


def random_cut(rng, n):
    return CutSet(n=n, members=frozenset(int(i) + 1 for i in np.flatnonzero(rng.integers(0, 2, n))))


def random_permutation(rng, n):
    return Permutation(n=n, mapping=tuple(int(v) for v in rng.permutation(n) + 1))


class TestCutMatrix:
    def test_empty_cut(self):
        W = cut_matrix(CutSet(2, frozenset()))
        assert np.array_equal(W, -np.ones((2, 2)))

    def test_singleton(self):
        W = cut_matrix(CutSet(2, frozenset({1})))
        assert np.array_equal(W, np.array([[-1.0, 1.0], [1.0, -1.0]]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 16), st.integers(0, 10_000))
    def test_rank_one_form(self, n, seed):
        c = random_cut(np.random.default_rng(seed), n)
        w = c.sign_vector()
        assert np.array_equal(cut_matrix(c), -np.outer(w, w))


class TestDecomposeCut:
    def test_singleton_explicit(self):
        d = decompose_cut(CutSet(2, frozenset({1})))
        assert np.array_equal(d.N, np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.array_equal(d.P, np.zeros((2, 2)))
        assert (d.beta, d.tau) == (1.0, 2.0)

    def test_trace_is_n_exactly(self):
        rng = np.random.default_rng(1)
        for n in (3, 7, 12):
            d = decompose_cut(random_cut(rng, n))
            assert np.trace(d.N) == float(n)

    def test_empty_cut_all_ones(self):
        d = decompose_cut(CutSet(3, frozenset()))
        assert np.array_equal(d.N, np.ones((3, 3)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 16), st.integers(0, 10_000))
    def test_validates(self, n, seed):
        c = random_cut(np.random.default_rng(seed), n)
        assert validate(decompose_cut(c), cut_matrix(c)).passed


class TestDecomposeTraceNorm:
    def test_swap_matrix_by_hand(self):
        d = decompose_trace_norm(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(d.P, 0.5 * np.array([[1, 1], [1, 1]]))
        assert np.allclose(d.N, 0.5 * np.array([[1, -1], [-1, 1]]))
        assert d.realized_trace() == pytest.approx(2.0)

    def test_psd_input_untouched(self):
        d = decompose_trace_norm(np.eye(2))
        assert np.allclose(d.P, np.eye(2))
        assert np.allclose(d.N, 0.0, atol=1e-12)

    def test_row_vector_trace_sum(self):
        d = decompose_trace_norm(np.array([[1.0, -1.0]]))
        assert d.realized_trace() == pytest.approx(2 * np.sqrt(2.0), abs=1e-10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            decompose_trace_norm(np.array([[1.5]]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_rectangular_validates(self, seed):
        rng = np.random.default_rng(seed)
        W = rng.uniform(-1, 1, (4, 6))
        d = decompose_trace_norm(W)
        assert validate(d, W).passed
        # tightness: trace sum equals the trace norm of sym(W) exactly
        assert d.realized_trace() == pytest.approx(trace_norm(sym_block(W)), abs=1e-7)

    def test_abs_square_identity(self):
        rng = np.random.default_rng(2)
        W = rng.uniform(-1, 1, (5, 5))
        W = 0.5 * (W + W.T)
        d = decompose_trace_norm(W)
        S = symmetrize(W)
        assert np.max(np.abs((d.P + d.N) @ (d.P + d.N) - S @ S)) <= 1e-7

    def test_entry_bound_sqrt_p(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            W = rng.uniform(-1, 1, (6, 4))
            d = decompose_trace_norm(W)
            assert np.max(np.abs(d.P + d.N)) <= np.sqrt(d.order) + 1e-7


class TestTriangular:
    def test_small_cases(self):
        assert np.array_equal(triangular(1), [[1.0]])
        assert np.array_equal(triangular(2), [[1.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(triangular(3).sum(axis=1), [3.0, 2.0, 1.0])

    def test_singular_values_closed_form(self):
        assert singular_values_T(1) == pytest.approx([1.0])
        assert np.allclose(singular_values_T(2),
                           [1 / (2 * np.cos(np.pi / 5)), 1 / (2 * np.cos(2 * np.pi / 5))])

    def test_singular_values_match_svd(self):
        for n in (1, 2, 4, 8):
            sv = np.sort(np.linalg.svd(triangular(n), compute_uv=False))
            assert np.max(np.abs(np.sort(singular_values_T(n)) - sv)) <= 1e-10

    def test_trace_norm_nlogn_bracket(self):
        for n in (8, 16, 32, 64):
            ratio = singular_values_T(n).sum() / (n * np.log(n))
            assert 0.2 <= ratio <= 2.0


class TestDecomposeTriangular:
    def test_base_case(self):
        d = decompose_triangular(0)
        assert np.array_equal(d.P, np.ones((2, 2)))
        assert np.array_equal(d.N, np.eye(2))

    def test_k1_by_hand(self):
        d = decompose_triangular(1)
        assert d.order == 4
        assert np.max(np.diag(d.P)) <= 2.0 and np.max(np.diag(d.N)) <= 2.0
        assert np.array_equal(d.P - d.N, sym_block(triangular(2)))

    @pytest.mark.parametrize("k", range(6))
    def test_validates_with_stated_bounds(self, k):
        d = decompose_triangular(k)
        assert (d.beta, d.tau) == (k + 1.0, 4.0 * 2 ** k * (k + 1))
        assert validate(d, triangular(2 ** k)).passed


class TestPermutations:
    def test_identity_gives_triangular(self):
        pi = Permutation(3, (1, 2, 3))
        assert np.array_equal(perm_matrix(pi), triangular(3))

    def test_transposition(self):
        pi = Permutation(2, (2, 1))
        assert np.array_equal(perm_matrix(pi), np.array([[1.0, 0.0], [1.0, 1.0]]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_conjugation_identity(self, n, seed):
        pi = random_permutation(np.random.default_rng(seed), n)
        P = pi.matrix()
        assert np.array_equal(perm_matrix(pi), P @ triangular(n) @ P.T)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 10_000))
    def test_is_conjugated_triangular_submatrix(self, n, seed):
        # Q P_sub Q.T with Q = diag(P_pi, P_pi) and P_sub the principal
        # submatrix of the padded triangular (P, N) on sym(T_n)'s indices
        pi = random_permutation(np.random.default_rng(seed), n)
        k = int(np.ceil(np.log2(n)))
        base = decompose_triangular(k)
        idx = np.concatenate([np.arange(n), 2 ** k + np.arange(n)])
        Q = np.kron(np.eye(2), pi.matrix())
        d = decompose_permutation(pi)
        assert np.array_equal(d.P, Q @ base.P[np.ix_(idx, idx)] @ Q.T)
        assert np.array_equal(d.N, Q @ base.N[np.ix_(idx, idx)] @ Q.T)

    def test_identity_power_of_two_matches_triangular(self):
        pi = Permutation(4, (1, 2, 3, 4))
        d = decompose_permutation(pi)
        base = decompose_triangular(2)
        assert np.allclose(d.P, base.P) and np.allclose(d.N, base.N)

    def test_n5_validates(self):
        pi = Permutation(5, (3, 1, 4, 5, 2))
        d = decompose_permutation(pi)
        assert d.beta == 4.0 and d.tau == 128.0
        assert validate(d, perm_matrix(pi)).passed

    def test_diagonal_is_permuted(self):
        rng = np.random.default_rng(8)
        pi = random_permutation(rng, 8)
        d = decompose_permutation(pi)
        base = decompose_triangular(3)
        assert sorted(np.diag(d.P)) == pytest.approx(sorted(np.diag(base.P)))

    def test_bad_mapping_rejected(self):
        with pytest.raises(ValueError):
            Permutation(3, (1, 1, 2))


class TestValidate:
    def test_corrupted_decomposition_fails(self):
        c = CutSet(3, frozenset({2}))
        d = decompose_cut(c)
        bad = Decomposition(P=d.P, N=-d.N, beta=d.beta, tau=d.tau)
        report = validate(bad, cut_matrix(c))
        assert not report.passed
        assert report.residuals["reconstruction"] > 1e-3

    # validate reconstructs W itself when W has the decomposition's order and
    # its block embedding [[0, W], [W.T, 0]] otherwise.
    @pytest.mark.parametrize("d, W", [
        (decompose_cut(CutSet(4, frozenset({1, 3}))), cut_matrix(CutSet(4, frozenset({1, 3})))),
        (decompose_trace_norm(np.array([[0.5, -0.25], [-0.25, 1.0]])),
         np.array([[0.5, -0.25], [-0.25, 1.0]])),
    ], ids=["cut", "tracenorm"])
    def test_own_order_reconstructs_w(self, d, W):
        assert d.order == W.shape[0]
        self._assert_reconstructs(d, W)

    @pytest.mark.parametrize("d, W", [
        (decompose_triangular(0), triangular(1)),
        (decompose_permutation(Permutation(1, (1,))), perm_matrix(Permutation(1, (1,)))),
    ], ids=["triangular", "permutation"])
    def test_twice_the_order_reconstructs_the_embedding(self, d, W):
        assert np.array_equal(W, W.T) and d.order == 2 * W.shape[0]
        self._assert_reconstructs(d, W)

    @staticmethod
    def _assert_reconstructs(d, W):
        report = validate(d, W)
        assert report.passed
        assert set(report.residuals) == {"symmetry", "psd_p", "psd_n", "diag_excess",
                                         "trace_excess", "reconstruction"}
        assert report.residuals["reconstruction"] <= 1e-12

    def test_non_finite_rejected(self):
        d = decompose_cut(CutSet(2, frozenset()))
        with pytest.raises(ValueError):
            validate(d, np.array([[np.nan, 1.0], [1.0, 0.0]]))

    def test_dimension_mismatch(self):
        d = decompose_cut(CutSet(3, frozenset()))
        with pytest.raises(ValueError):
            validate(d, np.zeros((5, 5)))


class TestHadamard:
    def test_small(self):
        assert np.array_equal(hadamard(1), [[1.0]])
        assert np.array_equal(hadamard(2), [[1.0, 1.0], [1.0, -1.0]])

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_orthogonal_rows(self, n):
        H = hadamard(n)
        assert np.array_equal(H @ H.T, n * np.eye(n))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            hadamard(6)
