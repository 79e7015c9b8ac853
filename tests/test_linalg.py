import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpred.linalg import (
    exp_overflows,
    inner,
    matrix_exp,
    matrix_log,
    qre,
    spectrum,
    sym_block,
    symmetrize,
    trace_norm,
)


def random_symmetric(rng, d, scale=1.0):
    M = rng.standard_normal((d, d))
    return scale * 0.5 * (M + M.T)


class TestSymmetrize:
    def test_rectangular_row(self):
        S = symmetrize(np.array([[1.0, -1.0]]))
        expected = np.array([[0, 1, -1], [1, 0, 0], [-1, 0, 0]], dtype=float)
        assert np.array_equal(S, expected)

    def test_symmetric_fixed_point(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(symmetrize(W), W)

    def test_square_nonsymmetric_embeds(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        S = symmetrize(W)
        assert S.shape == (4, 4)
        assert np.array_equal(S[:2, 2:], W)
        assert np.array_equal(S, S.T)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            symmetrize(np.array([[np.inf, 0.0]]))


class TestSpectrum:
    def test_identity(self):
        lam, V = spectrum(np.eye(3))
        assert np.allclose(lam, 1.0)
        assert np.allclose(V @ V.T, np.eye(3))

    def test_swap_matrix(self):
        # characteristic polynomial x^2 - 1 by hand
        lam, _ = spectrum(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(lam, [-1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        lam, _ = spectrum(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(lam, [1.0, 2.0, 3.0])

    def test_reconstruction_battery(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(2, 33))
            M = random_symmetric(rng, d, scale=rng.uniform(0.1, 10))
            lam, V = spectrum(M)
            scale = 1.0 + np.max(np.abs(M))
            assert np.all(np.diff(lam) >= 0.0)
            assert np.max(np.abs((V * lam) @ V.T - M)) <= 1e-8 * scale
            assert np.max(np.abs(V @ V.T - np.eye(d))) <= 1e-8

    def test_sym_spectrum_matches_singular_values(self):
        # independent oracle: singular values from the spectrum of W.T W
        rng = np.random.default_rng(11)
        for _ in range(50):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            W = rng.uniform(-2, 2, (m, n))
            sigma = np.sqrt(np.maximum(np.linalg.eigvalsh(W.T @ W), 0.0))
            sigma = np.sort(sigma)[-min(m, n):]
            lam = np.linalg.eigvalsh(sym_block(W))
            expected = np.sort(np.concatenate([sigma, -sigma, np.zeros(abs(m - n))]))
            assert np.max(np.abs(np.sort(lam) - expected)) <= 1e-7


class TestMatrixFn:
    def test_exp_identity(self):
        assert np.allclose(matrix_exp(np.eye(3)), np.e * np.eye(3))

    def test_exp_diagonal(self):
        M = np.diag([0.0, np.log(2.0)])
        assert np.allclose(matrix_exp(M), np.diag([1.0, 2.0]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_exp_log_round_trip(self, d, seed):
        rng = np.random.default_rng(seed)
        M = random_symmetric(rng, d)
        M *= min(1.0, 5.0 / (np.linalg.norm(M, 2) + 1e-12))
        back = matrix_log(matrix_exp(M))
        assert np.max(np.abs(back - M)) <= 1e-8

    def test_exp_of_stack_is_exp_of_each(self):
        rng = np.random.default_rng(4)
        for d in (1, 3, 16, 32):
            stack = np.stack([random_symmetric(rng, d), random_symmetric(rng, d)])
            E = matrix_exp(stack)
            assert E.shape == (2, d, d)
            for k in range(2):
                single = matrix_exp(stack[k])
                assert np.max(np.abs(E[k] - single)) <= 1e-13 * np.max(np.abs(single))

    def test_exp_is_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        for d in (2, 7, 32, 64):
            E = matrix_exp(random_symmetric(rng, d, scale=3.0))
            assert np.array_equal(E, E.T)
            S = matrix_exp(np.stack([random_symmetric(rng, d), random_symmetric(rng, d)]))
            assert np.array_equal(S, np.swapaxes(S, 1, 2))

    def test_exp_of_traceless_diagonal_has_unit_det(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(2, 8))
            vals = rng.standard_normal(d)
            vals -= vals.mean()
            E = matrix_exp(np.diag(vals))
            assert abs(np.linalg.det(E) - 1.0) <= 1e-8

    def test_exp_range_boundary(self):
        # The exp-range rule refuses eigenvalues lam once max(lam) passes
        # log(float max) - log(lam.size), where Tr exp may leave the float
        # range: order d for a matrix, 2d for a (2, d, d) stack, whose traces
        # add up. Just inside, the trace is about float max / lam.size. The
        # exponential refuses before it takes any exp (a numpy overflow
        # warning fails the test): `spectrum` returns None in its place
        # exactly when the rule flags the spectrum, and otherwise the
        # exponential `matrix_exp` returns, bit for bit.
        rng = np.random.default_rng(6)
        for d in (3, 16):
            Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            for k in (1, 2):
                edge = math.log(sys.float_info.max) - math.log(k * d)
                for delta in (-1e-9, 1e-9, 300.0):
                    lam = np.zeros((k, d))
                    lam[-1, -1] = edge + delta
                    M = (Q * lam[:, None, :]) @ Q.T
                    M = 0.5 * (M + np.swapaxes(M, 1, 2))
                    if k == 1:
                        lam, M = lam[0], M[0]
                    lam_M, _, X = spectrum(M, exp=True)
                    assert exp_overflows(lam) == exp_overflows(lam_M) == (delta > 0)
                    assert (X is None) == (delta > 0)
                    assert np.array_equal(lam_M, spectrum(M)[0])
                    if delta > 0:
                        with pytest.raises(OverflowError, match="exp overflows: largest eigenvalue"):
                            matrix_exp(M)
                    else:
                        assert np.array_equal(X, matrix_exp(M))
                        trace = np.trace(X, axis1=-2, axis2=-1).sum()
                        assert trace == pytest.approx(sys.float_info.max / (k * d), rel=1e-6)

    @pytest.mark.parametrize("shape", [(0, 0), (2, 0, 0)])
    def test_empty_spectrum(self, shape):
        # An empty spectrum does not overflow, and the exponential of a 0 x 0
        # matrix (or of a stack of them) is one.
        M = np.zeros(shape)
        lam, _, X = spectrum(M, exp=True)
        assert lam.size == 0 and not exp_overflows(lam)
        assert X.shape == matrix_exp(M).shape == shape


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(np.eye(2)) == pytest.approx(2.0)

    def test_row_vector(self):
        # singular value of a 1 x 2 row is its Euclidean norm
        assert trace_norm(np.array([[1.0, -1.0]])) == pytest.approx(np.sqrt(2.0))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
    def test_sym_doubles_trace_norm(self, m, n, seed):
        rng = np.random.default_rng(seed)
        W = rng.uniform(-1, 1, (m, n))
        assert trace_norm(sym_block(W)) == pytest.approx(2 * trace_norm(W), abs=1e-8)


class TestQre:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4))
        X = A @ A.T + 0.1 * np.eye(4)
        assert qre(X, X) == pytest.approx(0.0, abs=1e-9)

    def test_scaled_identity(self):
        # scalar reduction d(a log(a/b) - a + b) with d=2, a=1, b=2
        assert qre(np.eye(2), 2 * np.eye(2)) == pytest.approx(2 * (1 - np.log(2)), abs=1e-12)

    def test_initialization_point(self):
        X = 0.5 * np.eye(4)
        assert qre(X, X) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10_000))
    def test_nonnegative_on_psd_pairs(self, d, seed):
        rng = np.random.default_rng(seed)
        A1 = rng.standard_normal((d, d))
        A2 = rng.standard_normal((d, d))
        X = A1 @ A1.T
        A = A2 @ A2.T + 0.01 * np.eye(d)
        assert qre(X, A) >= -1e-9

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            qre(np.eye(2), np.eye(3))


class TestInner:
    def test_identity(self):
        assert inner(np.eye(5), np.eye(5)) == 5.0

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        A, B = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        assert inner(A, B) == pytest.approx(inner(B, A))

    def test_traceless_against_scaled_identity(self):
        L = np.diag([1.0, -1.0, 2.0, -2.0])
        assert inner(0.5 * np.eye(4), L) == pytest.approx(0.0)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            inner(np.eye(2), np.eye(3))
