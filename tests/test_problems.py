import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpred.decompose import (
    CutSet,
    Permutation,
    cut_matrix,
    decompose_cut,
    decompose_permutation,
    padded_size,
    perm_matrix,
)
from matpred.linalg import trace_norm
from matpred.omp import CLAMP_SLACK
from matpred.problems import (
    CF_GAP_TOL,
    LossFn,
    _clip_spectrum,
    best_cf_subgradient,
    best_cut_bruteforce,
    best_permutation_bruteforce,
    cf_config,
    comparator_matrix_value,
    cut_weight,
    evaluate_run,
    gambling_config,
    maxcut_config,
    maxcut_weights,
)


class TestLossFn:
    def test_absolute_halved(self):
        lf = LossFn("absolute_halved", 1.0)
        assert lf.value(-1.0) == 1.0
        assert lf.value(1.0) == 0.0
        assert lf.subgradient(-1.0) == -0.5
        assert lf.subgradient(1.0) == 0.0  # kink
        assert lf.lipschitz == 0.5

    def test_absolute(self):
        lf = LossFn("absolute", 0.0)
        assert lf.value(0.3) == pytest.approx(0.3)
        assert lf.subgradient(0.3) == 1.0
        assert lf.lipschitz == 1.0

    @pytest.mark.parametrize("kind, G", [("absolute_halved", 0.5), ("absolute", 1.0)])
    def test_subgradient_is_zero_near_the_kink(self, kind, G):
        lf = LossFn(kind, 1.0)
        assert lf.subgradient(1.0 - 2.6e-29) == 0.0
        assert lf.subgradient(1.0 + CLAMP_SLACK) == 0.0
        assert lf.subgradient(1.0 - 2 * CLAMP_SLACK) == -G
        assert lf.subgradient(1.0 + 2 * CLAMP_SLACK) == G

    def test_absolute_halved_is_half_of_absolute(self):
        for label in (-1.0, 0.25, 1.0):
            half, full = LossFn("absolute_halved", label), LossFn("absolute", label)
            for d in (0.0, 1e-7, -1e-7, CLAMP_SLACK, -CLAMP_SLACK, 2e-6, -2e-6, 0.3, -1.7):
                assert half.value(label + d) == 0.5 * full.value(label + d)
                assert half.subgradient(label + d) == 0.5 * full.subgradient(label + d)

    def test_linear(self):
        lf = LossFn("linear", -0.7)
        assert lf.value(0.5) == pytest.approx(-0.35)
        assert lf.subgradient(123.0) == -0.7
        assert lf.lipschitz == 0.7

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LossFn("huber", 0.0).value(0.0)

    @pytest.mark.parametrize("param", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_param_rejected(self, param):
        with pytest.raises(ValueError, match="finite"):
            LossFn("linear", param)

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(["absolute_halved", "absolute", "linear"]),
           st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
    def test_convexity_via_subgradient(self, kind, param, x, y):
        lf = LossFn(kind, param)
        # first-order condition f(y) >= f(x) + g(x) (y - x), short by at
        # most G * CLAMP_SLACK where g is zeroed near the kink
        slack = lf.lipschitz * CLAMP_SLACK + 1e-12
        assert lf.value(y) >= lf.value(x) + lf.subgradient(x) * (y - x) - slack


class TestConfigs:
    def test_maxcut(self):
        cfg = maxcut_config(n=8, T=100)
        assert (cfg.beta, cfg.tau, cfg.G) == (1.0, 8.0, 0.5)
        assert cfg.symmetric_class and cfg.p == 8
        with pytest.raises(ValueError):
            maxcut_config(n=1, T=10)

    def test_gambling_padding(self):
        assert padded_size(5) == (8, 3)
        assert padded_size(8) == (8, 3)
        assert padded_size(2) == (2, 1)
        assert padded_size(1) == (1, 0)
        with pytest.raises(ValueError):
            padded_size(0)

    def test_gambling(self):
        cfg = gambling_config(n=5, T=100)
        assert (cfg.m, cfg.n) == (8, 8)
        assert (cfg.beta, cfg.tau) == (4.0, 128.0)
        assert cfg.p == 16 and cfg.prediction_range == (0.0, 1.0)
        # tau / N = beta exactly: initial iterate sits on the diagonal cap
        assert cfg.tau / (2 * cfg.p) == cfg.beta

    @pytest.mark.parametrize("n", range(2, 18))
    def test_bounds_are_the_certificates(self, n):
        rng = np.random.default_rng(n)
        pi = Permutation(n, tuple(int(v) for v in rng.permutation(n) + 1))
        d = decompose_permutation(pi)
        cfg = gambling_config(n, T=10)
        assert (cfg.beta, cfg.tau) == (d.beta, d.tau)
        c = CutSet(n, frozenset(int(i) + 1 for i in np.flatnonzero(rng.integers(0, 2, n))))
        d = decompose_cut(c)
        cfg = maxcut_config(n, T=10)
        assert (cfg.beta, cfg.tau) == (d.beta, d.tau)

    def test_cf(self):
        cfg = cf_config(m=4, n=4, trace_bound=4.0, G=1.0, T=100)
        assert cfg.beta == pytest.approx(math.sqrt(8))
        assert cfg.tau == 8.0 and cfg.q == 4 and cfg.p == 8
        with pytest.raises(ValueError):
            cf_config(m=2, n=4, trace_bound=5.0, G=1.0, T=10)  # > m sqrt(n)


class TestBestCut:
    def test_two_nodes_obvious(self):
        records = [((1, 2), LossFn("absolute_halved", 1.0))] * 3
        c, loss = best_cut_bruteforce(records, 2)
        # separating 1 from 2 predicts +1 on the pair: zero loss
        assert loss == 0.0
        assert c.members in ({frozenset({1}), frozenset({2})})

    def test_tie_breaks_to_smallest_mask(self):
        c, _ = best_cut_bruteforce([], 3)
        assert c.members == frozenset()

    @pytest.mark.parametrize("kind, label", [
        ("absolute_halved", lambda rng: float(rng.choice([-1, 1]))),
        ("absolute", lambda rng: float(rng.uniform(-1, 1))),
        ("linear", lambda rng: float(rng.uniform(-1, 1))),
    ], ids=["integer", "absolute", "linear"])
    def test_matches_exhaustive_recount(self, kind, label):
        rng = np.random.default_rng(0)
        n = 4
        records = []
        for _ in range(30):
            i, j = sorted(rng.choice(n, size=2, replace=False) + 1)
            records.append(((int(i), int(j)), LossFn(kind, label(rng))))
        c, loss = best_cut_bruteforce(records, n)
        assert comparator_matrix_value(records, cut_matrix(c)) == pytest.approx(loss)
        # no cut does better (independent recount through the matrix route)
        for mask in range(2 ** n):
            other = CutSet(n, frozenset(i + 1 for i in range(n) if (mask >> i) & 1))
            assert comparator_matrix_value(records, cut_matrix(other)) >= loss - 1e-12

    def test_loss_minimizer_is_max_weight_cut(self):
        # the aggregated-weights graph: minimizing cumulative loss is the
        # same as maximizing crossing weight
        rng = np.random.default_rng(1)
        n = 5
        for trial in range(20):
            records = []
            for _ in range(40):
                i, j = sorted(rng.choice(n, size=2, replace=False) + 1)
                records.append(((int(i), int(j)),
                                LossFn("absolute_halved", float(rng.choice([-1, 1])))))
            c, _ = best_cut_bruteforce(records, n)
            w = maxcut_weights(records, n)
            best_w = max(
                cut_weight(w, CutSet(n, frozenset(i + 1 for i in range(n) if (mask >> i) & 1)))
                for mask in range(2 ** n)
            )
            assert cut_weight(w, c) == pytest.approx(best_w)


class TestBestPermutation:
    def test_two_teams(self):
        records = [((1, 2), LossFn("absolute", 1.0))] * 4
        pi, loss = best_permutation_bruteforce(records, 2)
        assert loss == 0.0
        assert pi.mapping[0] < pi.mapping[1]  # rank 1 ahead of 2

    def test_tie_breaks_lexicographic(self):
        pi, _ = best_permutation_bruteforce([], 3)
        assert pi.mapping == (1, 2, 3)

    @pytest.mark.parametrize("kind, label, diagonal", [
        ("absolute", lambda rng: float(rng.integers(0, 2)), False),
        ("absolute", lambda rng: float(rng.uniform(0, 1)), False),
        ("linear", lambda rng: float(rng.uniform(-1, 1)), False),
        ("absolute", lambda rng: float(rng.uniform(0, 1)), True),
    ], ids=["integer", "absolute", "linear", "diagonal"])
    def test_matches_exhaustive_recount(self, kind, label, diagonal):
        import itertools
        rng = np.random.default_rng(2)
        n = 4
        records = []
        for _ in range(25):
            i, j = rng.choice(n, size=2, replace=False) + 1
            records.append(((int(i), int(j)), LossFn(kind, label(rng))))
        if diagonal:
            # W_pi is 1 on its diagonal, whatever pi is
            records += [((k, k), LossFn(kind, label(rng))) for k in range(1, n + 1)]
        pi, loss = best_permutation_bruteforce(records, n)
        assert comparator_matrix_value(records, perm_matrix(pi)) == pytest.approx(loss)
        for mapping in itertools.permutations(range(1, n + 1)):
            other = Permutation(n, mapping)
            assert comparator_matrix_value(records, perm_matrix(other)) >= loss - 1e-12


@pytest.mark.parametrize("brute_force", [best_cut_bruteforce, best_permutation_bruteforce])
@pytest.mark.parametrize("pair", [(0, 2), (1, 4)])
def test_bruteforce_rejects_entry_outside_class(brute_force, pair):
    with pytest.raises(IndexError, match="outside"):
        brute_force([(pair, LossFn("absolute", 1.0))], 3)


@pytest.mark.parametrize("pair", [(0, 1), (1, 0), (-1, 1)])
def test_comparators_reject_entry_that_would_wrap(pair):
    # numpy reads index -1 as the last row or column
    halved, linear = [(pair, LossFn("absolute_halved", 1.0))], [(pair, LossFn("linear", 1.0))]
    for compute in (lambda: best_cut_bruteforce(halved, 2),
                    lambda: best_cf_subgradient(linear, 2, 2, 1.0),
                    lambda: comparator_matrix_value(halved, np.ones((2, 2))),
                    lambda: maxcut_weights(halved, 2)):
        with pytest.raises(IndexError, match="outside"):
            compute()


@pytest.mark.parametrize("shape", [(3, 5), (6, 4), (16, 16)])
@pytest.mark.parametrize("excess", ["half", "twice", "tiny"])
def test_clip_spectrum(shape, excess):
    # The CF comparator's dual step. sigma_max is scaled to about
    # 4.25 = 1.0625 * 2^2, where 1e-16 sigma_max is under half an ulp, so
    # "tiny" takes the threshold's fallback: index 0 fails once
    # s[0] - excess rounds to s[0].
    V = np.random.default_rng(shape[0] * shape[1]).normal(size=shape)
    V *= 4.25 / np.linalg.norm(V, 2)
    s = np.linalg.svd(V, compute_uv=False)
    level = {"half": 0.5 * s.sum(), "twice": 2.0 * s.sum(), "tiny": 1e-16 * s[0]}[excess]
    if excess == "tiny":
        assert s[0] - level == s[0]
    Z, op = _clip_spectrum(V, level)
    if excess == "twice":
        assert op == 0.0 and not Z.any()
    assert op == pytest.approx(np.linalg.norm(Z, 2), rel=1e-12)
    assert trace_norm(V - Z) == pytest.approx(min(level, s.sum()), abs=1e-12 * s.sum())
    np.testing.assert_allclose(np.linalg.svd(Z, compute_uv=False), np.minimum(s, op),
                               atol=1e-12 * s[0])


class TestBestCf:
    def test_single_entry_optimum(self):
        # all mass on one entry with slope -1: optimum pins it to +1
        records = [((1, 1), LossFn("linear", -1.0))] * 20
        W, loss = best_cf_subgradient(records, 2, 2, tau0=1.0)
        assert loss <= -19.0
        assert W[0, 0] == pytest.approx(1.0, abs=0.06)
        assert trace_norm(W) <= 1.0 + 1e-6

    def test_feasibility_of_returned_point(self):
        rng = np.random.default_rng(3)
        records = []
        for _ in range(60):
            i, j = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            records.append(((i, j), LossFn("linear", float(rng.uniform(-1, 1)))))
        W, loss = best_cf_subgradient(records, 3, 3, tau0=2.0)
        assert np.max(np.abs(W)) <= 1.0 + 1e-9
        assert trace_norm(W) <= 2.0 + 1e-6
        assert comparator_matrix_value(records, W) == pytest.approx(loss)
        assert loss <= 0.0  # W = 0 is always feasible

    def test_beats_sign_heuristic(self):
        # the descent result should be at least as good as the entrywise
        # sign matrix scaled into the trace-norm ball
        rng = np.random.default_rng(4)
        m = n = 3
        records = [((int(rng.integers(1, m + 1)), int(rng.integers(1, n + 1))),
                    LossFn("linear", float(rng.choice([-0.5, 0.5])))) for _ in range(80)]
        tau0 = 2.0
        coef = np.zeros((m, n))
        for (i, j), lf in records:
            coef[i - 1, j - 1] += lf.param
        S = -np.sign(coef)
        S *= min(1.0, tau0 / max(trace_norm(S), 1e-12))
        _, loss = best_cf_subgradient(records, m, n, tau0)
        assert loss <= comparator_matrix_value(records, S) + 1e-9

    @staticmethod
    def _random_linear(m, n, seed):
        rng = np.random.default_rng(seed)
        records = [((int(rng.integers(1, m + 1)), int(rng.integers(1, n + 1))),
                    LossFn("linear", float(rng.uniform(-1, 1)))) for _ in range(300)]
        C = np.zeros((m, n))
        for (i, j), lf in records:
            C[i - 1, j - 1] += lf.param
        return records, C

    @staticmethod
    def _assert_optimal(records, m, n, tau0, optimum):
        W, loss = best_cf_subgradient(records, m, n, tau0)
        assert np.max(np.abs(W)) <= 1.0
        assert trace_norm(W) <= tau0 + 1e-9
        assert loss >= optimum - 1e-9 * (1.0 + abs(optimum))   # W is a member of the class
        assert loss <= optimum + CF_GAP_TOL * (1.0 + abs(optimum))

    @pytest.mark.parametrize("m, n, tau0, seed", [(4, 4, 1.0, 5), (5, 3, 0.5, 6), (8, 8, 0.2, 7),
                                                  (4, 4, 1e-16, 5), (4, 4, 1e-20, 5)])
    def test_small_ball_optimum_is_top_singular_value(self, m, n, tau0, seed):
        # For tau0 <= 1 the rank-one minimizer -tau0 u v^T has entries of at
        # most tau0, so the box is inactive: the optimum is -tau0 sigma_max(C).
        records, C = self._random_linear(m, n, seed)
        self._assert_optimal(records, m, n, tau0, -tau0 * np.linalg.norm(C, 2))

    @pytest.mark.parametrize("m, n, seed", [(4, 4, 8), (3, 7, 9), (6, 6, 10)])
    def test_large_ball_optimum_is_box_optimum(self, m, n, seed):
        # For tau0 >= ||sign(C)||_* the box optimum -sign(C) is a member,
        # so the optimum is -||C||_1.
        records, C = self._random_linear(m, n, seed)
        self._assert_optimal(records, m, n, trace_norm(np.sign(C)), -np.abs(C).sum())

    def test_rejects_nonlinear_losses(self):
        records = [((1, 1), LossFn("linear", -1.0)), ((1, 2), LossFn("absolute", 0.5))]
        with pytest.raises(ValueError, match="linear losses only"):
            best_cf_subgradient(records, 2, 2, tau0=1.0)


class TestEvaluateRun:
    def test_report_fields(self):
        r = evaluate_run(10.0, 7.5, bound=5.0)
        assert r.regret == pytest.approx(2.5)
        assert r.bound_satisfied
        r2 = evaluate_run(20.0, 7.5, bound=5.0)
        assert not r2.bound_satisfied
