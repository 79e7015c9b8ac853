import math

import numpy as np
import pytest

from matpred.adversaries import (
    Sequence,
    cf_lb,
    cf_lb_comparator,
    maxcut_lb,
    random_adversary,
)
from matpred.linalg import trace_norm
from matpred.problems import CF_GAP_TOL, best_cf_subgradient, comparator_matrix_value


class TestDeterminism:
    def test_same_seed_identical(self):
        a = maxcut_lb(4, 40, seed=7)
        b = maxcut_lb(4, 40, seed=7)
        assert a.rounds == b.rounds

    def test_different_seed_differs(self):
        a = maxcut_lb(8, 64, seed=1)
        b = maxcut_lb(8, 64, seed=2)
        assert a.rounds != b.rounds

    def test_cf_same_seed_identical(self):
        a = cf_lb(4, 4, tau0=4.0, G=1.0, T=64, seed=3)
        b = cf_lb(4, 4, tau0=4.0, G=1.0, T=64, seed=3)
        assert a.rounds == b.rounds


class TestMaxcutLb:
    def test_structure(self):
        n, T = 4, 40
        seq = maxcut_lb(n, T, seed=0)
        assert len(seq) == T
        block = 2 * T // n
        for b in range(n // 2):
            pairs = {seq.rounds[b * block + t][0] for t in range(block)}
            assert pairs == {(b + 1, b + 1 + n // 2)}
        for (_, _), lf in seq.rounds:
            assert lf.kind == "absolute_halved"
            assert lf.param in (-1.0, 1.0)

    def test_labels_are_balanced_on_average(self):
        seq = maxcut_lb(8, 4096, seed=5)
        mean = np.mean([lf.param for _, lf in seq.rounds])
        assert abs(mean) < 0.1

    def test_divisibility_errors(self):
        with pytest.raises(ValueError):
            maxcut_lb(3, 30, seed=0)  # odd n
        with pytest.raises(ValueError):
            maxcut_lb(4, 41, seed=0)  # T not divisible by n/2

    def test_pair_comparator_value(self):
        # per block, the best fixed prediction on the pair loses
        # (block - |sum|)/2; a cut can realize the best sign on every
        # block simultaneously since the pairs are disjoint
        n, T = 4, 400
        seq = maxcut_lb(n, T, seed=9)
        block = 2 * T // n
        expected = 0.0
        for b in range(n // 2):
            s = sum(lf.param for _, lf in seq.rounds[b * block:(b + 1) * block])
            expected += (block - abs(s)) / 2.0
        best = min(
            comparator_matrix_value(seq.rounds, np.array([[0, a, 0, 0], [a, 0, 0, 0],
                                                          [0, 0, 0, c], [0, 0, c, 0]],
                                                         dtype=float)[np.ix_([0, 2, 1, 3],
                                                                             [0, 2, 1, 3])])
            for a in (-1.0, 1.0) for c in (-1.0, 1.0)
        )
        assert best == pytest.approx(expected)


class TestCfLb:
    def test_structure(self):
        m = n = 4
        tau0, G, T = 4.0, 1.0, 64
        seq = cf_lb(m, n, tau0, G, T, seed=0)
        assert len(seq) == T
        rows = round(tau0 / math.sqrt(n))     # 2
        intervals = round(tau0 * math.sqrt(n))  # 8
        length = T // intervals
        used = {ij for ij, _ in seq.rounds}
        assert used == {(i, j) for i in range(1, rows + 1) for j in range(1, n + 1)}
        for _, lf in seq.rounds:
            assert lf.kind == "linear"
            assert abs(lf.param) == G
        # entry (1, 1) owns exactly the first interval
        assert all(ij == (1, 1) for ij, _ in seq.rounds[:length])

    def test_divisibility_errors(self):
        with pytest.raises(ValueError):
            cf_lb(4, 3, tau0=4.0, G=1.0, T=60, seed=0)  # tau0/sqrt(3) not integral
        with pytest.raises(ValueError):
            cf_lb(4, 4, tau0=4.0, G=1.0, T=63, seed=0)  # T not divisible
        with pytest.raises(ValueError):
            cf_lb(1, 4, tau0=4.0, G=1.0, T=64, seed=0)  # rows > m

    def test_comparator_matches_sign_sums(self):
        m = n = 4
        tau0, G, T = 4.0, 1.0, 128
        seq = cf_lb(m, n, tau0, G, T, seed=11)
        W = cf_lb_comparator(seq, tau0, G)
        sums = np.zeros((m, n))
        for (i, j), lf in seq.rounds:
            sums[i - 1, j - 1] += lf.param
        # value is -sum |interval sums| exactly
        assert comparator_matrix_value(seq.rounds, W) == pytest.approx(-np.abs(sums).sum())
        assert set(np.unique(W)) <= {-1.0, 0.0, 1.0}
        assert np.count_nonzero(W[2:, :]) == 0  # inactive rows stay zero

    def test_comparator_is_feasible(self):
        seq = cf_lb(4, 4, tau0=4.0, G=1.0, T=64, seed=2)
        W = cf_lb_comparator(seq, 4.0, 1.0)
        assert np.max(np.abs(W)) <= 1.0
        # rank <= tau0/sqrt(n) rows of unit entries: trace norm <= tau0
        assert trace_norm(W) <= 4.0 + 1e-9

    @pytest.mark.parametrize("m, n, tau0", [(4, 4, 2.0), (4, 4, 4.0), (8, 4, 6.0),
                                            (6, 9, 6.0), (4, 16, 8.0), (16, 16, 8.0)])
    @pytest.mark.parametrize("G", [0.37, 2.5])
    def test_exact_comparator_is_planted(self, m, n, tau0, G):
        # The planted +-1 block on r = tau0/sqrt(n) rows has trace norm at
        # most sqrt(r) ||W||_F = tau0, so the box optimum -G sum |interval
        # sums| is a member of the class: the problem's exact comparator
        # finds the planted value, and lower-bound runs need no other.
        T = 4 * round(tau0 * math.sqrt(n))
        for seed in (1, 2):
            seq = cf_lb(m, n, tau0, G, T, seed)
            planted = comparator_matrix_value(seq.rounds, cf_lb_comparator(seq, tau0, G))
            _, loss = best_cf_subgradient(seq.rounds, m, n, tau0)
            assert abs(loss - planted) <= CF_GAP_TOL * (1 + abs(planted))


class TestRandomAdversary:
    def test_maxcut_kind(self):
        seq = random_adversary("maxcut", 6, 6, T=50, seed=0)
        for (i, j), lf in seq.rounds:
            assert 1 <= i < j <= 6
            assert lf.kind == "absolute_halved" and lf.param in (-1.0, 1.0)

    def test_gambling_kind(self):
        seq = random_adversary("gambling", 5, 5, T=50, seed=0)
        for (i, j), lf in seq.rounds:
            assert 1 <= i <= 5 and 1 <= j <= 5 and i != j
            assert lf.kind == "absolute" and lf.param in (0.0, 1.0)

    def test_cf_kind(self):
        seq = random_adversary("cf", 3, 5, T=50, seed=0, G=0.5)
        for (i, j), lf in seq.rounds:
            assert 1 <= i <= 3 and 1 <= j <= 5
            assert lf.kind == "linear" and abs(lf.param) <= 0.5

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            random_adversary("bandit", 3, 3, T=5, seed=0)

    def test_sequence_len(self):
        assert len(random_adversary("cf", 2, 2, T=17, seed=1)) == 17
