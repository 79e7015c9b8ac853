import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpred.decompose import CutSet, Decomposition, cut_matrix, decompose_cut
from matpred.harness import PROBLEMS, Params, run_learner
from matpred.linalg import inner, matrix_exp, matrix_log
from matpred.mmw import PROJECTION_TOL, project_qre
from matpred import linalg, mmw, omp
from matpred.omp import (
    InvariantViolation,
    OmpConfig,
    block_values,
    constraints_Kt,
    eta_default,
    exp_step,
    full_iterate,
    in_Kt,
    new_session,
    omp_round,
    predict,
)
from matpred.problems import LossFn, cf_config, gambling_config, maxcut_config


def small_cfg(**kw):
    base = dict(m=3, n=3, symmetric_class=True, beta=1.0, tau=3.0, G=0.5, T=100)
    base.update(kw)
    return OmpConfig(**base)


class TestOmpConfig:
    def test_symmetric_shape(self):
        cfg = small_cfg()
        assert (cfg.q, cfg.p) == (0, 3)

    def test_nonsymmetric_shape(self):
        cfg = OmpConfig(m=2, n=3, symmetric_class=False, beta=2.0, tau=4.0, G=1.0, T=10)
        assert (cfg.q, cfg.p) == (2, 5)

    def test_eta_default_formula(self):
        cfg = small_cfg()
        assert cfg.eta == pytest.approx(math.sqrt(3.0 * math.log(6) / (1.0 * 100)))
        assert cfg.eta == pytest.approx(eta_default(3.0, 3, 1.0, 0.5, 100))

    def test_regret_bound_formula(self):
        cfg = small_cfg()
        assert cfg.regret_bound() == pytest.approx(math.sqrt(3.0 * math.log(6) * 100))

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            small_cfg(beta=0.5)
        with pytest.raises(ValueError):
            OmpConfig(m=2, n=3, symmetric_class=True, beta=1.0, tau=1.0, G=1.0, T=10)
        with pytest.raises(ValueError):
            small_cfg(tau=100.0)  # exceeds 2 p beta
        with pytest.raises(ValueError):
            small_cfg(eta=0.0)
        nonsym = dict(m=2, n=3, symmetric_class=False, beta=2.0, tau=4.0, G=1.0, T=10)
        for bad in (dict(G=0.0), dict(G=-1.0), dict(tau=0.0), dict(tau=-1.0),
                    dict(m=0), dict(n=0), dict(T=0),
                    dict(G=0.0, eta=0.1), dict(tau=0.0, eta=0.1), dict(T=0, eta=0.1),
                    dict(G=math.inf), dict(G=math.nan), dict(tau=math.inf), dict(tau=math.nan),
                    dict(eta=math.inf), dict(eta=math.nan), dict(eta=-math.inf), dict(G=1e200),
                    # beta 4 G^2 T underflows to 0; the default eta overflows
                    # to inf, or underflows to 0
                    dict(G=1e-200), dict(G=1e-160), dict(tau=1e-300, G=1e150),
                    dict(prediction_range=(1.0, -1.0)), dict(prediction_range=(0.0, 0.0)),
                    dict(prediction_range=(0.0, math.nan)),
                    dict(prediction_range=(-math.inf, 1.0))):
            with pytest.raises(ValueError):
                OmpConfig(**{**nonsym, **bad})
        # eta G just past the step's exp-range limit is refused, and just
        # inside it the config constructs. 1e-12 of eta G is about 7e-10,
        # well inside the 1e-7 the limit keeps for the trace tolerance.
        for cfg in (gambling_config(5, T=10), cf_config(7, 7, 7.0, 2.0, T=10)):
            eta = eta_g_limit(cfg) / cfg.G
            with pytest.raises(ValueError, match="exp range"):
                dataclasses.replace(cfg, eta=eta * (1 + 1e-12))
            assert dataclasses.replace(cfg, eta=eta * (1 - 1e-12)).eta == eta * (1 - 1e-12)


def eta_g_limit(cfg: OmpConfig) -> float:
    """The eta G limit, log(float max) - log(2p (tau + PROJECTION_TOL (1 +
    tau))): after a round Tr X <= tau within the projection's tolerance,
    so the step's log Y has no eigenvalue above log(Tr X) + eta G."""
    tr = cfg.tau + PROJECTION_TOL * (1 + cfg.tau)
    return math.log(sys.float_info.max) - math.log(2 * cfg.p * tr)


def loss_matrix(g: float, i: int, j: int, cfg: OmpConfig) -> np.ndarray:
    """The 4-sparse symmetric loss matrix L_t: +g at (i, j+q) and its
    mirror, -g at the shifted pair. Traceless, with Tr(L^2) = 4 g^2 and
    spectral norm |g|. The learner never builds it: `exp_step` subtracts
    its blocks."""
    omp.check_lipschitz("|g|", abs(g), cfg.G)
    return full_iterate(omp._pair_term(i, j, cfg, off=g), cfg)


class TestLossMatrix:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3),
           st.floats(-0.5, 0.5, allow_nan=False))
    def test_invariants(self, i, j, g):
        cfg = small_cfg()
        L = loss_matrix(g, i, j, cfg)
        assert np.array_equal(L, L.T)
        assert np.trace(L) == 0.0
        # diagonal queries collapse the pair, halving the Frobenius mass
        assert np.trace(L @ L) == pytest.approx((4 if i != j else 2) * g * g)
        assert np.max(np.abs(np.linalg.eigvalsh(L))) == pytest.approx(abs(g), abs=1e-12)

    def test_placement_nonsymmetric(self):
        cfg = OmpConfig(m=2, n=2, symmetric_class=False, beta=1.0, tau=4.0, G=1.0, T=10)
        L = loss_matrix(1.0, 1, 2, cfg)  # p = 4, q = 2 -> entries (0,3) and (4,7)
        assert L[0, 3] == 1.0 and L[3, 0] == 1.0
        assert L[4, 7] == -1.0 and L[7, 4] == -1.0
        assert np.count_nonzero(L) == 4

    def test_rejects_large_subgradient(self):
        with pytest.raises(ValueError):
            loss_matrix(0.6, 1, 1, small_cfg())


class TestPredict:
    def test_reads_difference_of_halves(self):
        cfg = small_cfg()
        X = np.zeros((6, 6))
        X[0, 1] = 0.9
        X[3, 4] = 0.2
        assert predict(X, 1, 2, cfg) == pytest.approx(0.7)

    def test_index_validation(self):
        with pytest.raises(IndexError):
            predict(np.zeros((6, 6)), 0, 1, small_cfg())
        with pytest.raises(IndexError):
            predict(np.zeros((6, 6)), 1, 4, small_cfg())


def nonzeros(A):
    """The non-zero entries of A as {(row, column): value}."""
    return {(int(r), int(c)): float(A[r, c]) for r, c in zip(*np.nonzero(A))}


class TestConstraints:
    def test_structure(self):
        cfg = small_cfg()
        cs = constraints_Kt(1, 2, cfg)
        assert len(cs.constraints) == 4
        D, E, negE, I = cs.constraints
        assert D.b == 4.0
        assert E.b == 1.0 and negE.b == 1.0
        assert I.b == 3.0
        assert np.array_equal(negE.A, -E.A)
        assert np.trace(D.A) == 4.0
        assert np.array_equal(I.A, np.eye(6))
        # The exact non-zero entries of D and E, written out by hand (0-based
        # row, column of the 2p x 2p matrix). A diagonal query on a
        # symmetric class sets each of its entries once.
        nonsym = OmpConfig(m=2, n=3, symmetric_class=False, beta=2.0, tau=4.0, G=1.0, T=10)
        for c, (i, j), d_at, e_hi, e_lo in (
                (cfg, (1, 2), ((0, 0), (1, 1), (3, 3), (4, 4)), ((0, 1), (1, 0)), ((3, 4), (4, 3))),
                (cfg, (2, 2), ((1, 1), (4, 4)), ((1, 1),), ((4, 4),)),
                (cfg, (3, 1), ((0, 0), (2, 2), (3, 3), (5, 5)), ((2, 0), (0, 2)), ((5, 3), (3, 5))),
                (nonsym, (2, 3), ((1, 1), (4, 4), (6, 6), (9, 9)), ((1, 4), (4, 1)), ((6, 9), (9, 6))),
                (nonsym, (1, 1), ((0, 0), (2, 2), (5, 5), (7, 7)), ((0, 2), (2, 0)), ((5, 7), (7, 5)))):
            D, E = (k.A for k in constraints_Kt(i, j, c).constraints[:2])
            assert nonzeros(D) == dict.fromkeys(d_at, 1.0)
            assert nonzeros(E) == {**dict.fromkeys(e_hi, 0.5), **dict.fromkeys(e_lo, -0.5)}

    def test_prediction_is_linear_in_E(self):
        cfg = small_cfg()
        cs = constraints_Kt(2, 3, cfg)
        E = cs.constraints[1].A
        rng = np.random.default_rng(0)
        M = rng.standard_normal((6, 6))
        X = 0.5 * (M + M.T)
        assert inner(E, X) == pytest.approx(predict(X, 2, 3, cfg))

    def test_initial_iterate_feasible(self):
        cfg = small_cfg()
        s = new_session(cfg)
        for c in constraints_Kt(1, 3, cfg).constraints:
            assert inner(c.A, full_iterate(s.pending, cfg)) <= c.b + 1e-12


def embed_phi(d: Decomposition) -> np.ndarray:
    """Block-diagonal embedding diag(P, N) of a decomposition; the feasible
    comparator point in the OLO problem."""
    p = d.order
    Phi = np.zeros((2 * p, 2 * p))
    Phi[:p, :p] = d.P
    Phi[p:, p:] = d.N
    return Phi


class TestEmbedPhi:
    def test_cut_embedding_feasible_and_linearizes(self):
        # phi(W) is in every K_t and phi . L = 2 g W(i, j): the two facts
        # behind the reduction's regret transfer.
        cfg = maxcut_config(n=4, T=10)
        c = CutSet(4, frozenset({1, 3}))
        W = cut_matrix(c)
        Phi = embed_phi(decompose_cut(c))
        rng = np.random.default_rng(2)
        for _ in range(20):
            i, j = sorted(rng.choice(4, size=2, replace=False) + 1)
            for cons in constraints_Kt(int(i), int(j), cfg).constraints:
                assert inner(cons.A, Phi) <= cons.b + 1e-9
            g = float(rng.uniform(-0.5, 0.5))
            L = loss_matrix(g, int(i), int(j), cfg)
            assert inner(Phi, L) == pytest.approx(2 * g * W[i - 1, j - 1])

    def test_block_structure(self):
        d = decompose_cut(CutSet(2, frozenset({1})))
        Phi = embed_phi(d)
        assert Phi.shape == (4, 4)
        assert np.array_equal(Phi[2:, 2:], d.N)
        assert np.count_nonzero(Phi[:2, 2:]) == 0


def flip(cfg):
    """The diagonal of S = diag(1_m, -1_n)."""
    return np.concatenate((np.ones(cfg.m), -np.ones(cfg.n)))


def random_blocks(cfg, rng):
    """A random stack of symmetric p x p blocks of the session's shape:
    two on a symmetric class, one on a non-symmetric one."""
    M = rng.standard_normal((2 if cfg.symmetric_class else 1, cfg.p, cfg.p))
    return 0.5 * (M + np.swapaxes(M, 1, 2))


BOTH_CLASSES = pytest.mark.parametrize(
    "cfg", [maxcut_config(n=4, T=10), cf_config(2, 3, 2.0, 1.0, T=10)],
    ids=["symmetric", "nonsymmetric"])


@BOTH_CLASSES
def test_block_values_are_Kt_left_hand_sides(cfg):
    rng = np.random.default_rng(3)
    for i, j in ((1, 2), (2, 3), (2, 1), (1, 3)):
        Y = random_blocks(cfg, rng)
        lhs = [inner(c.A, full_iterate(Y, cfg)) for c in constraints_Kt(i, j, cfg).constraints]
        assert np.allclose(block_values(Y, i, j, cfg), lhs, rtol=1e-12, atol=0.0)


@BOTH_CLASSES
def test_projection_folds_duals_into_log_iterate(cfg, monkeypatch):
    # A round that projects subtracts sum_j alpha_j A_j over K_t from the
    # log iterate before the step subtracts eta L_t.
    rng = np.random.default_rng(4)
    project = omp.project_qre
    for i, j in ((1, 2), (2, 3), (2, 1)):
        duals = rng.uniform(0.0, 2.0, 4)
        monkeypatch.setattr(omp, "project_qre", lambda Y, cs: (project(Y, cs)[0], duals))
        s = new_session(cfg)
        s.pending, s.log_pending = 2.0 * s.pending, s.log_pending + math.log(2.0)  # Tr > tau
        log_X = full_iterate(s.log_pending, cfg)
        _, s = omp_round(s, i, j, LossFn("linear", 0.5))
        fold = sum(a * c.A for a, c in zip(duals, constraints_Kt(i, j, cfg).constraints))
        want = log_X - fold - cfg.eta * loss_matrix(0.5, i, j, cfg)
        assert np.allclose(full_iterate(s.log_pending, cfg), want, rtol=0.0, atol=1e-12)


class TestExpStep:
    def test_commuting_diagonal(self):
        # n = 2 from log X = log(2) I, which commutes with L_t: the step puts
        # -eta g on the upper block's off-diagonal and +eta g on the lower
        # one's, and exp [[0, x], [x, 0]] = [[cosh x, sinh x], [sinh x, cosh x]].
        cfg = maxcut_config(n=2, T=10, eta=0.5)
        Y, log_Y = exp_step(np.log(2.0) * np.stack((np.eye(2), np.eye(2))), 0.5, 1, 2, cfg)
        x, l2 = 0.25, np.log(2.0)
        assert np.array_equal(log_Y, np.array([[[l2, -x], [-x, l2]], [[l2, x], [x, l2]]]))
        c, sh = 2 * np.cosh(x), 2 * np.sinh(x)
        assert np.allclose(Y, np.array([[[c, -sh], [-sh, c]], [[c, sh], [sh, c]]]),
                           rtol=1e-14, atol=0.0)
        assert np.allclose(matrix_log(full_iterate(Y, cfg)), full_iterate(log_Y, cfg))

    @BOTH_CLASSES
    def test_update_is_blocks_of_loss_step(self, cfg):
        rng = np.random.default_rng(1)
        log_X = random_blocks(cfg, rng)
        for i, j in ((1, 2), (2, 3), (2, 1)):
            _, log_Y = exp_step(log_X, -0.3, i, j, cfg)
            L = loss_matrix(-0.3, i, j, cfg)
            assert np.array_equal(full_iterate(log_Y, cfg), full_iterate(log_X, cfg) - cfg.eta * L)

    @BOTH_CLASSES
    def test_matches_full_exponential(self, cfg):
        # On a block-diagonal log iterate (lower block S A S on a
        # non-symmetric class) the block step is the full exponential.
        Y, log_Y = exp_step(random_blocks(cfg, np.random.default_rng(2)), 0.5, 1, 2, cfg)
        full = matrix_exp(full_iterate(log_Y, cfg))
        assert np.max(np.abs(full_iterate(Y, cfg) - full)) <= 1e-12 * np.max(np.abs(full))

    def test_shape_mismatch(self):
        for cfg in (maxcut_config(n=4, T=10), cf_config(2, 3, 2.0, 1.0, T=10)):
            p, k = cfg.p, 2 if cfg.symmetric_class else 1
            for shape in ((2 * p, 2 * p), (p, p), (3 - k, p, p), (k, p + 1, p + 1)):
                with pytest.raises(ValueError):
                    exp_step(np.zeros(shape), 0.1, 1, 2, cfg)

    def test_index_checked(self):
        # numpy would wrap a negative index onto another entry
        cfg = cf_config(2, 3, 2.0, 1.0, T=10)
        for i, j in ((0, 1), (1, 0), (3, 1), (1, 4)):
            with pytest.raises(IndexError):
                exp_step(np.zeros((1, 5, 5)), 0.1, i, j, cfg)

    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_finite_at_the_eta_limit(self, problem):
        # At the largest eta OmpConfig admits, from the worst log iterate
        # with Tr exp = tau (all of it on the eigenvector that the step
        # raises by eta |g| = eta G), the step stays inside exp's range, and
        # close to its edge.
        cfg = PROBLEMS[problem].config(Params(n=4, T=50))
        lo, hi = (eta_g_limit(cfg) / cfg.G * (1 + s) for s in (-1e-6, 1e-6))
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, eta=hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            try:
                dataclasses.replace(cfg, eta=mid)
                lo = mid
            except ValueError:
                hi = mid
        cfg = dataclasses.replace(cfg, eta=lo)
        for i, j in ((1, 2), (2, 4), (4, 3), (3, 1)):
            for g in (cfg.G, -cfg.G):
                raised = np.linalg.eigh(-omp._pair_term(i, j, cfg, off=g)[0])[1][:, -1]
                # exp(-1000) is 0: the other eigenvalues carry no trace
                log_X = np.tile(-1000.0 * np.eye(cfg.p), (omp._block_shape(cfg)[0], 1, 1))
                top = math.log(cfg.tau if cfg.symmetric_class else cfg.tau / 2)
                log_X[0] += (top + 1000.0) * np.outer(raised, raised)
                assert block_values(matrix_exp(log_X), i, j, cfg)[3] == pytest.approx(cfg.tau)
                Y, _ = exp_step(log_X, g, i, j, cfg)
                assert np.isfinite(Y).all()
                assert block_values(Y, i, j, cfg)[3] > 1e-3 * sys.float_info.max / (2 * cfg.p)


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_log_iterate_keeps_block_structure(problem):
    # Every L_t and every constraint of K_t acts on both p x p diagonal
    # blocks alike, which is what lets the session carry the blocks alone.
    p = Params(n=5, T=200)
    entry = PROBLEMS[problem]
    cfg = entry.config(p)
    session, _ = run_learner(cfg, entry.adversary(p, 1))
    P, lp = cfg.p, full_iterate(session.log_pending, cfg)
    assert session.log_pending.shape == (2 if cfg.symmetric_class else 1, P, P)
    assert not np.any(lp[:P, P:]) and not np.any(lp[P:, :P])
    if not cfg.symmetric_class:
        assert np.array_equal(lp[P:, P:], flip(cfg)[:, None] * lp[:P, :P] * flip(cfg))
    full = matrix_exp(lp)
    pending = full_iterate(session.pending, cfg)
    assert np.max(np.abs(pending - full)) <= 1e-12 * np.max(np.abs(full))


@pytest.mark.parametrize("problem, n, eta", [
    (problem, n, eta)
    for problem in sorted(PROBLEMS) for n in (4, 8) for eta in (10.0, 30.0, 100.0, 300.0)
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_eta_projects(problem, n, eta, kkt_checked):
    # An eta override far above the default leaves many projections to the
    # Newton finish: two duals coupled (E or -E with I, D with I), a dual
    # that bisection set and the optimum does not use, or a start where a
    # second coordinate is violated at zero on the first one's exponential.
    # Newton starts that last case from the trace-closed point of zero
    # duals: cf n = 4 at eta 300 once bisected its D dual to 4e18 first,
    # and Newton did not converge from there. No exp is taken of a spectrum
    # past exp's range (a RuntimeWarning fails the test). Every active
    # projection meets KKT (`kkt_checked`).
    play_at_eta(problem, n, eta, 1)


# Runs inside the eta G limit whose failing projection was a coupled start:
# D and E (or -E) both violated at zero, far past their bounds. A sweep that
# bisected D first ran out to exp's range (gambling n = 3 at eta 302 with
# seed 2, cf n = 7 at 600), or started Newton from a D dual of 5e14 or more,
# which it did not bring to KKT within MAX_NEWTON (gambling n = 3 at eta 302
# with seed 3, max-cut n = 4 at 1000). Newton from zero duals projects each.
@pytest.mark.parametrize("problem, n, eta, seed", [
    ("gambling", 3, 302.0, 2), ("gambling", 3, 302.0, 3), ("cf", 7, 600.0, 2), ("maxcut", 4, 1000.0, 1),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_admitted_eta_projects(problem, n, eta, seed, kkt_checked):
    play_at_eta(problem, n, eta, seed)


def play_at_eta(problem, n, eta, seed):
    """Play T = 50 rounds of a problem at an eta override."""
    p = Params(n=n, T=50, eta=eta)
    entry = PROBLEMS[problem]
    session, _ = run_learner(entry.config(p), entry.adversary(p, seed))
    assert session.round == p.T + 1


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_block_test_agrees_with_projection(problem):
    # The block read decides "feasible" exactly when the order-2p
    # projection returns zero duals, and reads the prediction that
    # `predict` reads off the assembled iterate. Where it must project, the
    # round's solver on the log iterate finds the duals and the point that
    # the dense entry finds from log Y of the pending iterate.
    p = Params(n=5, T=150)
    entry = PROBLEMS[problem]
    cfg = entry.config(p)
    s = new_session(cfg)
    feasible = 0
    for (i, j), lf in entry.adversary(p, 3).rounds:
        Y = full_iterate(s.pending, cfg)
        values = block_values(s.pending, i, j, cfg)
        cs = constraints_Kt(i, j, cfg)
        X, duals = project_qre(Y, cs)
        assert in_Kt(values, cfg) == (not np.any(duals))
        assert values[1] == predict(Y, i, j, cfg)
        if not in_Kt(values, cfg):
            X_log, duals_log = omp.project_qre(full_iterate(s.log_pending, cfg), cs)
            assert np.max(np.abs(duals_log - duals)) <= PROJECTION_TOL
            assert np.max(np.abs(X_log - X)) <= 1e-9 * np.max(np.abs(X))
        feasible += in_Kt(values, cfg)
        _, s = omp_round(s, i, j, lf)
    assert 0 < feasible < p.T


def eigh_per_projection(problem, monkeypatch):
    """The numpy eigh calls of each `omp.project_qre` call of the problem's
    n = 5, T = 200, seed 1 run."""
    eigh, project = np.linalg.eigh, omp.project_qre
    calls, counts = [0], []

    def counted_eigh(*args):
        calls[0] += 1
        return eigh(*args)

    def counted_project(*args):
        before = calls[0]
        out = project(*args)
        counts.append(calls[0] - before)
        return out
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(omp, "project_qre", counted_project)
    p = Params(n=5, T=200)
    run_learner(PROBLEMS[problem].config(p), PROBLEMS[problem].adversary(p, 1))
    return counts


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_every_eigh_goes_through_the_spectrum(problem, monkeypatch):
    # `linalg.spectrum` is the one caller of numpy's eigh, and it reads the
    # exp-range rule at most once per spectrum; the line search reads the
    # rule once on its bare spectrum, and the box QP's eigh reads it not at
    # all. So a run reads the rule no more often than it calls eigh.
    calls = dict.fromkeys(("eigh", "spectrum", "exp_overflows"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    p = Params(n=5, T=200)
    cfg, seq = PROBLEMS[problem].config(p), PROBLEMS[problem].adversary(p, 1)
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    for mod in (linalg, mmw, omp):
        for name in ("spectrum", "exp_overflows"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    run_learner(cfg, seq)
    assert calls["eigh"] > 0 and calls["spectrum"] == calls["eigh"]
    assert calls["exp_overflows"] <= calls["eigh"]


def test_cf_projection_takes_four_eigh(monkeypatch):
    # On CF the trace is the only positive dual of every active projection,
    # and one sweep from the log iterate finds it with four eigh: the first
    # gradient of each of D, E and -E, and the trace coordinate's
    # exponential, which is also the sweep's iterate.
    counts = eigh_per_projection("cf", monkeypatch)
    assert len(counts) > 0 and set(counts) == {4}


def test_gambling_projection_bisects_once(monkeypatch):
    # The sweep bisects at most one dual, the first coordinate violated at
    # zero, and only when no later one is violated on the same
    # exponential; otherwise the trace closes on that spectrum and Newton
    # starts from there. Either way the KKT test may hand the point to the
    # Newton finish (two eigh per iteration, the box QP's and the line
    # search's). A projection takes at most 30 eigh here; a second
    # bisection alone would take about 28 more.
    counts = eigh_per_projection("gambling", monkeypatch)
    assert len(counts) > 0 and max(counts) <= 40


def test_gambling_projection_decomposes_no_matrix_twice(monkeypatch):
    # Bisection hands the spectrum its KKT stop read to the sweep, which
    # closes the trace on it, so within one projection no matrix goes to
    # eigh twice but log Y itself, which each non-trace coordinate tests at
    # zero with an eigh of its own.
    eigh, project = np.linalg.eigh, omp.project_qre
    seen, repeats = [], []

    def recorded_eigh(M):
        seen.append(M.tobytes())
        return eigh(M)

    def recorded_project(logY, cs):
        seen.clear()
        out = project(logY, cs)
        repeats.extend(m for m in set(seen) if seen.count(m) > 1 and m != logY.tobytes())
        return out
    monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
    monkeypatch.setattr(omp, "project_qre", recorded_project)
    p = Params(n=5, T=200)
    run_learner(PROBLEMS["gambling"].config(p), PROBLEMS["gambling"].adversary(p, 1))
    assert seen and not repeats


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_feasible_round_builds_no_full_matrix(problem, monkeypatch):
    # Only a round whose step leaves K_t builds K_t, projects and assembles
    # a 2p x 2p iterate: the log one, once, which the projection solves
    # from. No round assembles the pending iterate.
    calls = dict.fromkeys(("full_iterate", "constraints_Kt", "project_qre",
                           "predict", "infeasible"), 0)

    def counted(name):
        fn = getattr(omp, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(omp, name, wrapper)

    for name in ("constraints_Kt", "project_qre", "predict"):
        counted(name)
    in_kt, exp_step, full_iterate = omp.in_Kt, omp.exp_step, omp.full_iterate
    steps = []  # (pending, log_pending) of every step so far

    def decided(values, cfg):
        ok = in_kt(values, cfg)
        calls["infeasible"] += not ok
        return ok

    def step(*args):
        steps.append(exp_step(*args))
        return steps[-1]

    def assemble(Y, cfg):
        # K_t's own D and E are assembled from fresh stacks; only the
        # session's log stack counts.
        pending, log_pending = steps[-1]
        assert Y is not pending
        calls["full_iterate"] += Y is log_pending
        return full_iterate(Y, cfg)
    monkeypatch.setattr(omp, "in_Kt", decided)
    monkeypatch.setattr(omp, "exp_step", step)
    monkeypatch.setattr(omp, "full_iterate", assemble)

    p = Params(n=5, T=200)
    entry = PROBLEMS[problem]
    run_learner(entry.config(p), entry.adversary(p, 1))
    k = calls["infeasible"]
    assert 0 < k < p.T
    assert calls == dict(full_iterate=k, constraints_Kt=k, project_qre=k,
                         predict=k, infeasible=k)


class TestOmpRound:
    def test_single_round_accounting(self):
        cfg = maxcut_config(n=3, T=5)
        s = new_session(cfg)
        yhat, s = omp_round(s, 1, 2, LossFn("absolute_halved", 1.0))
        ev = s.last_event
        assert ev.t == 1 and (ev.i, ev.j) == (1, 2)
        assert ev.yhat == yhat
        assert ev.loss == pytest.approx(0.5 * abs(yhat - 1.0))
        assert ev.g == pytest.approx(0.5 * np.sign(yhat - 1.0))
        assert s.round == 2

    def test_predictions_in_range(self):
        cfg = maxcut_config(n=4, T=60)
        s = new_session(cfg)
        rng = np.random.default_rng(4)
        for _ in range(60):
            i, j = sorted(rng.choice(4, size=2, replace=False) + 1)
            y = float(rng.choice([-1.0, 1.0]))
            yhat, s = omp_round(s, int(i), int(j), LossFn("absolute_halved", y))
            assert -1.0 <= yhat <= 1.0
        assert s.max_eta_norm <= 1.0

    def test_horizon_enforced(self):
        cfg = maxcut_config(n=3, T=1)
        s = new_session(cfg)
        _, s = omp_round(s, 1, 2, LossFn("absolute_halved", 1.0))
        with pytest.raises(InvariantViolation):
            omp_round(s, 1, 2, LossFn("absolute_halved", 1.0))

    @pytest.mark.parametrize("cfg", [maxcut_config(n=3, T=10), cf_config(2, 3, 2.0, 1.0, T=10)],
                             ids=["symmetric", "nonsymmetric"])
    def test_bad_index_leaves_session_unchanged(self, cfg):
        s = new_session(cfg)
        _, s = omp_round(s, 1, 2, LossFn("linear", 0.5))
        pending, log_pending = s.pending.copy(), s.log_pending.copy()
        for i, j in ((0, 2), (1, 0), (0, 0), (cfg.m + 1, 1), (1, cfg.n + 1), (-1, 2)):
            with pytest.raises(IndexError):
                omp_round(s, i, j, LossFn("linear", 0.5))
            assert s.round == 2
            assert np.array_equal(s.pending, pending)
            assert np.array_equal(s.log_pending, log_pending)

    def test_subgradient_above_G_rejected(self):
        cfg = cf_config(2, 2, 2.0, 1.0, T=10)  # G = 1
        s = new_session(cfg)
        with pytest.raises(ValueError, match="exceeds Lipschitz bound"):
            omp_round(s, 1, 2, LossFn("linear", 2.0))
        assert s.round == 1

    def test_iterate_stays_in_polytope(self):
        cfg = maxcut_config(n=3, T=30)
        s = new_session(cfg)
        rng = np.random.default_rng(6)
        for _ in range(30):
            i, j = sorted(rng.choice(3, size=2, replace=False) + 1)
            y = float(rng.choice([-1.0, 1.0]))
            X, _ = project_qre(full_iterate(s.pending, cfg), constraints_Kt(int(i), int(j), cfg))
            assert float(np.trace(X)) <= cfg.tau + 1e-6
            assert np.min(np.linalg.eigvalsh(X)) >= -1e-9
            _, s = omp_round(s, int(i), int(j), LossFn("absolute_halved", y))

    def test_log_pending_is_log_of_pending(self):
        # The session's log form must track the projected iterate through
        # active and inactive projections alike: log_pending = log X - eta L.
        cfg = cf_config(3, 3, 3.0, 1.0, T=40)
        s = new_session(cfg)
        assert np.array_equal(full_iterate(s.pending, cfg), 0.5 * np.eye(12))  # (tau / N) I
        assert np.array_equal(full_iterate(s.log_pending, cfg), np.log(0.5) * np.eye(12))
        rng = np.random.default_rng(8)
        active = 0
        for _ in range(40):
            i, j = (int(v) for v in rng.integers(1, 4, size=2))
            cs = constraints_Kt(i, j, cfg)
            Y = full_iterate(s.pending, cfg)
            active += any(inner(c.A, Y) > c.b for c in cs.constraints)
            X, _ = project_qre(Y, cs)
            _, s = omp_round(s, i, j, LossFn("linear", float(rng.choice([-1.0, 1.0]))))
            L = loss_matrix(s.last_event.g, i, j, cfg)
            log_pending = full_iterate(s.log_pending, cfg)
            assert np.max(np.abs(matrix_log(X) - cfg.eta * L - log_pending)) <= 1e-9
            assert np.max(np.abs(matrix_log(full_iterate(s.pending, cfg)) - log_pending)) <= 1e-9
        assert active > 0

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["maxcut", "cf"]),
           st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4), st.sampled_from([-1.0, 1.0])),
                    min_size=1, max_size=20))
    def test_any_entry_is_rejected_or_predicted_in_range(self, kind, queries):
        # A symmetric class rejects its diagonal; every other entry, the
        # diagonal of a non-symmetric class included, is predicted in range.
        if kind == "maxcut":
            cfg, loss = maxcut_config(n=4, T=20), "absolute_halved"
        else:
            cfg, loss = cf_config(4, 4, 4.0, 1.0, T=20), "linear"
        s = new_session(cfg)
        for i, j, y in queries:
            if cfg.symmetric_class and i == j:
                with pytest.raises(IndexError, match=rf"entry \({i}, {j}\)"):
                    omp_round(s, i, j, LossFn(loss, y))
                continue
            yhat, s = omp_round(s, i, j, LossFn(loss, y))
            assert cfg.prediction_range[0] <= yhat <= cfg.prediction_range[1]

    def test_end_to_end_regret_under_bound(self):
        # regret against the best cut must respect the closed-form bound
        from matpred.problems import best_cut_bruteforce

        n, T = 4, 200
        cfg = maxcut_config(n=n, T=T)
        s = new_session(cfg)
        rng = np.random.default_rng(11)
        records = []
        total = 0.0
        for _ in range(T):
            i, j = sorted(rng.choice(n, size=2, replace=False) + 1)
            lf = LossFn("absolute_halved", float(rng.choice([-1.0, 1.0])))
            records.append(((int(i), int(j)), lf))
            _, s = omp_round(s, int(i), int(j), lf)
            total += s.last_event.loss
        _, best = best_cut_bruteforce(records, n)
        assert total - best <= cfg.regret_bound()
