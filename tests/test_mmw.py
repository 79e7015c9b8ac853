import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpred import mmw
from matpred.linalg import inner, matrix_exp, matrix_log, qre
from matpred.mmw import (PROJECTION_TOL, ConstraintSet, LinConstraint, ProjectionError, project_qre,
                         project_qre_log)
from matpred.omp import constraints_Kt
from matpred.problems import cf_config


def trace_set(order, b, tau=None):
    return ConstraintSet(
        constraints=(LinConstraint(A=np.eye(order), b=float(b)),),
        tau=float(tau if tau is not None else b),
    )


class TestConstraints:
    @pytest.mark.parametrize("A, b", [
        (np.array([[1.0, 1.0], [0.0, 0.0]]), 1.0),  # not symmetric
        (np.ones((2, 3)), 1.0),  # not square
        (np.ones(2), 1.0),  # not a matrix
        (np.eye(2), np.nan),
        (np.eye(2), np.inf),
        (np.eye(2), -np.inf),
    ])
    def test_rejects_malformed_constraint(self, A, b):
        with pytest.raises(ValueError):
            LinConstraint(A=A, b=b)

    def test_set_order_is_the_common_order(self):
        c2, c3 = LinConstraint(A=np.eye(2), b=1.0), LinConstraint(A=np.eye(3), b=1.0)
        assert len(ConstraintSet(constraints=(c3, c3), tau=1.0).constraints[0].A) == 3
        for bad in ((), (c2, c3)):
            with pytest.raises(ValueError):
                ConstraintSet(constraints=bad, tau=1.0)


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

    def test_trace_dual_is_not_capped(self):
        # the trace coordinate's closed form gives the dual log(Tr Y / b) =
        # log(2e6), far above b and tau
        X, alpha = project_qre(1e6 * np.eye(2), trace_set(2, 1.0, tau=1.0))
        assert np.allclose(X, 0.5 * np.eye(2), rtol=0.0, atol=1e-12)
        assert alpha[0] == pytest.approx(np.log(2e6), rel=1e-14)

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
            tau=2.0,
        )
        X, alpha = project_qre(Y, cs)
        assert np.allclose(X, np.eye(2), atol=1e-7)
        assert alpha[0] == pytest.approx(np.log(4.0), abs=1e-6)
        assert alpha[1] == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("Y, A, b, dual, X_want", [
        # X11 <= b on diag(1e6, 1): exp(log Y - a e1 e1^T) = diag(1e6 e^{-a}, 1),
        # so the dual is log(1e6 / b).
        (np.diag([1e6, 1.0]), np.diag([1.0, 0.0]), 1.0, np.log(1e6), np.eye(2)),
        (np.diag([1e6, 1.0]), np.diag([1.0, 0.0]), 0.25, np.log(4e6), np.diag([0.25, 1.0])),
        # E . X = X12 <= 0 on [[1, .5], [.5, 1]]: the dual cancels (log Y)12 =
        # log(3) / 2, leaving X = sqrt(3) / 2 I.
        (np.array([[1.0, 0.5], [0.5, 1.0]]), np.array([[0.0, 0.5], [0.5, 0.0]]), 0.0,
         np.log(3.0), 0.5 * np.sqrt(3.0) * np.eye(2)),
    ], ids=["diag-b1", "diag-b0.25", "offdiag-b0"])
    def test_bisection_widens_its_bracket(self, Y, A, b, dual, X_want):
        # Each dual lies above bisection's first bracket [0, 1]. Bisection
        # stops once the coordinate's value is within PROJECTION_TOL (1 +
        # |b|) / max(1, dual) of b, so the dual is held to about that over
        # the gradient's slope.
        cs = ConstraintSet(constraints=(LinConstraint(A=A, b=b),), tau=1.0)
        X, alpha = project_qre(Y, cs)
        assert np.allclose(X, X_want, rtol=0.0, atol=1e-7)
        assert alpha[0] == pytest.approx(dual, rel=0.0, abs=1e-7)

    def test_coupled_duals_by_hand(self, monkeypatch):
        # Y = diag(8, 1, 1) with X11 <= 1 and Tr X <= 1.5 gives X = diag(1,
        # 1/4, 1/4) with duals (log 2, log 4). The sweep bisects X11 alone to
        # log 8, then the trace to log 2, which leaves X11 = 0.5 < 1 with a
        # positive dual: the Newton finish must run. It takes at most 8
        # eigh of order 3 beyond the sweep, which costs what projecting onto
        # X11 <= 1 alone costs (its bisection and one exp).
        log_Y = np.diag(np.log([8.0, 1.0, 1.0]))
        x11 = LinConstraint(A=np.diag([1.0, 0.0, 0.0]), b=1.0)
        eigh, calls = np.linalg.eigh, []

        def counted(M):
            calls.append(M.shape == (3, 3))
            return eigh(M)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        project_qre_log(log_Y, ConstraintSet(constraints=(x11,), tau=1.5))
        sweep = sum(calls)
        calls.clear()
        X, alpha = project_qre_log(
            log_Y, ConstraintSet(constraints=(x11, LinConstraint(A=np.eye(3), b=1.5)), tau=1.5))
        assert np.allclose(X, np.diag([1.0, 0.25, 0.25]), rtol=0.0, atol=1e-7)
        assert np.allclose(alpha, np.log([2.0, 4.0]), rtol=0.0, atol=1e-7)
        assert sum(calls) <= sweep + 8

    @pytest.mark.parametrize("diag_Y, constraints, X_want, duals, most_eigh", [
        # X11 <= 1 and X22 <= 1 on diag(8, 8, 1) are both violated on the
        # first zero test's exponential, so Newton starts from zero duals:
        # 13 eigh, where a bisection of X11 first took 46.
        ((8.0, 8.0, 1.0), ((np.diag([1.0, 0.0, 0.0]), 1.0), (np.diag([0.0, 1.0, 0.0]), 1.0)),
         (1.0, 1.0, 1.0), (np.log(8.0), np.log(8.0)), 13),
        # Tr X <= 2 on diag(4, 4) meets the violated X11 <= 1 by itself: the
        # zero test's one eigh, shifted by the trace dual, is the projection.
        ((4.0, 4.0), ((np.diag([1.0, 0.0]), 1.0), (np.eye(2), 2.0)), (1.0, 1.0), (0.0, np.log(4.0)), 1),
    ], ids=["coupled", "trace-alone"])
    def test_no_bisection_before_newton(self, diag_Y, constraints, X_want, duals, most_eigh,
                                        monkeypatch):
        def no_bisection(*args):
            raise AssertionError("entered bisection")
        monkeypatch.setattr(mmw, "_bisect_coordinate", no_bisection)
        eigh, calls = np.linalg.eigh, []

        def counted(M):
            calls.append(M.shape)
            return eigh(M)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        X, alpha = project_qre_log(np.diag(np.log(diag_Y)), ConstraintSet(
            constraints=tuple(LinConstraint(A=A, b=b) for A, b in constraints), tau=3.0))
        assert np.allclose(X, np.diag(X_want), rtol=0.0, atol=1e-7)
        assert np.allclose(alpha, duals, rtol=0.0, atol=1e-7)
        assert len(calls) <= most_eigh

    def test_zero_test_is_the_feasibility_rule(self):
        # X11 <= 1 is violated at zero duals by half its tolerance
        # PROJECTION_TOL (1 + |b|), which `satisfied` accepts: its dual stays
        # exactly 0 while the trace dual takes Tr X <= 2 on diag(1 + 1e-7, 3).
        b = 1.0
        y11 = b + 0.5 * PROJECTION_TOL * (1.0 + abs(b))
        X, alpha = project_qre_log(np.diag(np.log([y11, 3.0])), ConstraintSet(constraints=(
            LinConstraint(A=np.diag([1.0, 0.0]), b=b), LinConstraint(A=np.eye(2), b=2.0)), tau=2.0))
        assert alpha[0] == 0.0
        assert alpha[1] == pytest.approx(np.log((y11 + 3.0) / 2.0), rel=1e-12)
        assert np.trace(X) == pytest.approx(2.0, rel=1e-12)

    def test_trace_closed_form_iterate(self):
        # With the trace last (K_t's order D, E, -E, I) a sweep's iterate is
        # e^{-a} exp(B) from the trace coordinate; it is exp(log Y - sum
        # alpha_j A_j) to round-off.
        rng = np.random.default_rng(7)
        for m in (1, 2, 4):
            cfg = cf_config(m, m, float(m), 1.0, 100)
            cs = constraints_Kt(1, 1, cfg)
            order = len(cs.constraints[0].A)
            assert np.array_equal(cs.constraints[-1].A, np.eye(order))
            for _ in range(10):
                M = rng.standard_normal((order, order))
                log_Y = 0.5 * (M + M.T)
                X, alpha = project_qre_log(log_Y, cs)
                assert alpha[-1] > 0.0
                want = matrix_exp(log_Y - sum(a * c.A for a, c in zip(alpha, cs.constraints)))
                assert np.max(np.abs(X - want)) <= 1e-12 * np.max(np.abs(want))

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
