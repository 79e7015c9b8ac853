import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpred.linalg import inner, matrix_exp, matrix_log, qre
from matpred.mmw import ConstraintSet, LinConstraint, ProjectionError, project_qre
from matpred.omp import constraints_Kt
from matpred.problems import cf_config


def trace_set(order, b, tau=None):
    return ConstraintSet(
        constraints=(LinConstraint(A=np.eye(order), b=float(b)),),
        order=order,
        tau=float(tau if tau is not None else b),
    )


class TestProjectTrace:
    def test_feasible_point_untouched(self):
        Y = np.diag([0.25, 0.25])
        X, alpha = project_qre(Y, trace_set(2, 1.0))
        assert np.allclose(X, Y)
        assert np.all(alpha == 0.0)

    def test_scaled_identity_by_hand(self):
        # exp(log(2I) - a I) = 2 e^{-a} I; trace 1 forces a = log 4
        X, alpha = project_qre(2.0 * np.eye(2), trace_set(2, 1.0))
        assert np.allclose(X, 0.5 * np.eye(2), atol=1e-9)
        assert alpha[0] == pytest.approx(np.log(4.0), abs=1e-9)

    def test_trace_projection_is_rescaling(self):
        # with only a trace cap the projection rescales Y to trace b
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4))
        Y = A @ A.T + 0.1 * np.eye(4)
        b = 1.5
        X, _ = project_qre(Y, trace_set(4, b, tau=5.0))
        assert np.max(np.abs(X - (b / np.trace(Y)) * Y)) <= 1e-7


class TestProjectGeneral:
    def test_diagonal_two_constraints_by_hand(self):
        # Y = diag(4, 1); X11 <= 1 and Tr <= 2 give X = I exactly,
        # with duals (log 4, 0).
        Y = np.diag([4.0, 1.0])
        cs = ConstraintSet(
            constraints=(
                LinConstraint(A=np.diag([1.0, 0.0]), b=1.0),
                LinConstraint(A=np.eye(2), b=2.0),
            ),
            order=2,
            tau=2.0,
        )
        X, alpha = project_qre(Y, cs)
        assert np.allclose(X, np.eye(2), atol=1e-7)
        assert alpha[0] == pytest.approx(np.log(4.0), abs=1e-6)
        assert alpha[1] == pytest.approx(0.0, abs=1e-6)

    def test_kkt_certificate_random(self):
        rng = np.random.default_rng(3)
        cases = []
        for _ in range(25):
            d = int(rng.integers(2, 6))
            A0 = rng.standard_normal((d, d))
            Y = A0 @ A0.T + 0.05 * np.eye(d)
            D = np.zeros((d, d))
            D[0, 0] = 1.0
            cs = ConstraintSet(
                constraints=(
                    LinConstraint(A=D, b=float(rng.uniform(0.02, 0.3))),
                    LinConstraint(A=np.eye(d), b=float(rng.uniform(0.5, 2.0))),
                ),
                order=d,
                tau=4.0,
            )
            cases.append((Y, cs))
        # K_t of a non-symmetric class at p = 2, 4, 8, where the queried
        # entry (1, 1 + q) lies off the diagonal. A random weight on that
        # entry makes the range constraint active in about half the cases.
        for m in (1, 2, 4):
            cfg = cf_config(m, m, float(m), 1.0, 100)
            N = 2 * cfg.p
            w = np.zeros(N)
            w[[0, m]] = 1.0
            for _ in range(10):
                M = rng.standard_normal((N, N))
                Y = 0.1 * (M @ M.T) / N + 0.05 * np.eye(N) + rng.uniform(0, 3) * np.outer(w, w)
                cases.append((Y, constraints_Kt(1, 1, cfg)))
        for Y, cs in cases:
            X, alpha = project_qre(Y, cs)
            # stationarity holds by construction; check it numerically anyway
            B = matrix_log(Y) - sum(a * c.A for a, c in zip(alpha, cs.constraints))
            assert np.max(np.abs(matrix_exp(B) - X)) <= 1e-6
            for a, c in zip(alpha, cs.constraints):
                assert a >= 0.0
                assert inner(c.A, X) <= c.b + 1e-6
                assert a * (c.b - inner(c.A, X)) <= 1e-6 * (1 + abs(c.b))

    def test_beats_random_feasible_points(self):
        # the projection minimizes divergence from Y over the polytope
        rng = np.random.default_rng(5)
        A0 = rng.standard_normal((3, 3))
        Y = A0 @ A0.T + 0.1 * np.eye(3)
        cs = trace_set(3, 1.0, tau=2.0)
        X, _ = project_qre(Y, cs)
        dx = qre(X, Y)
        for _ in range(50):
            Z0 = rng.standard_normal((3, 3))
            Z = Z0 @ Z0.T + 1e-3 * np.eye(3)
            Z *= rng.uniform(0.1, 1.0) / np.trace(Z)
            assert qre(Z, Y) >= dx - 1e-8

    def test_infeasible_polytope_raises(self):
        cs = ConstraintSet(
            constraints=(
                LinConstraint(A=-np.eye(2), b=-5.0),  # Tr >= 5
                LinConstraint(A=np.eye(2), b=1.0),    # Tr <= 1
            ),
            order=2,
            tau=1.0,
        )
        with pytest.raises(ProjectionError):
            project_qre(np.eye(2), cs)


class TestDual:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_optimal_duals_are_stationary(self, seed):
        rng = np.random.default_rng(seed)
        A0 = rng.standard_normal((3, 3))
        Y = A0 @ A0.T + 0.1 * np.eye(3)
        cs = trace_set(3, 0.8, tau=2.0)
        X, alpha = project_qre(Y, cs)
        # the dual gradient in alpha_j is A_j . X(alpha) - b_j
        g = [inner(c.A, X) - c.b for c in cs.constraints]
        # active coordinate: gradient near zero; inactive: gradient <= 0
        for j in range(len(alpha)):
            if alpha[j] > 1e-9:
                assert abs(g[j]) <= 1e-6
            else:
                assert g[j] <= 1e-6


def olo_play(L_seq, N, eta, cs):
    """Density-matrix multiplicative weights from (tau / N) I: pay X . L,
    step in log form and project. Returns the total loss and last iterate."""
    X = (cs.tau / N) * np.eye(N)
    log_X = np.log(cs.tau / N) * np.eye(N)
    total = 0.0
    for L in L_seq:
        total += inner(X, L)
        log_Y = log_X - eta * L
        X, alpha = project_qre(matrix_exp(log_Y), cs)
        log_X = log_Y - sum(a * c.A for a, c in zip(alpha, cs.constraints))
    return total, X


class TestOloRound:
    def test_regret_against_spectral_comparator(self):
        # density-matrix multiplicative weights on random sign losses:
        # regret against tau * min(0, lambda_min(sum L)) within 2 sqrt(T log N)
        rng = np.random.default_rng(13)
        T, N = 300, 4
        Ls = [np.diag(rng.choice([-1.0, 1.0], N)) for _ in range(T)]
        total, _ = olo_play(Ls, N, np.sqrt(np.log(N) / T), trace_set(N, 1.0))
        comparator = min(0.0, float(np.linalg.eigvalsh(sum(Ls)).min()))
        assert total - comparator <= 2.0 * np.sqrt(T * np.log(N))

    def test_iterates_track_smallest_cumulative_loss(self):
        # with a fixed diagonal loss, mass concentrates on the min-loss axis
        L = np.diag([0.0, -1.0])  # rewards axis 2, so the trace cap binds
        _, X = olo_play([L] * 30, 2, 0.3, trace_set(2, 1.0))
        assert X[1, 1] > 0.99
