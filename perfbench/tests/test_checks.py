"""The benchmark's own tests: every workload passes at a tiny horizon, and
every correctness check fails on a corrupted result.

    python3 -m pytest perfbench/tests
"""

import dataclasses

import numpy as np
import pytest

import checks
from workloads import WORKLOADS, play_session

TINY_T = 12


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def played(request):
    w = WORKLOADS[request.param]
    return w, play_session(w, seed=7, T=TINY_T)


def test_workload_passes_at_tiny_horizon(played):
    w, res = played
    assert res.failed == 0
    assert len(res.yhat) == TINY_T
    assert w.check(res) == []


def test_prediction_outside_range_fails(played):
    w, res = played
    yhat = res.yhat.copy()
    yhat[3] = w.prediction_range[1] + 1e-3
    assert w.check(dataclasses.replace(res, yhat=yhat))


def test_comparator_loss_off_fails(played):
    w, res = played
    best, loss = res.comparator
    assert w.check(dataclasses.replace(res, comparator=(best, loss + 1e-3)))


def test_reported_regret_off_fails(played):
    w, res = played
    report = dataclasses.replace(res.report, regret=res.report.regret + 1e-3)
    assert w.check(dataclasses.replace(res, report=report))


def test_regret_over_bound_fails():
    assert checks.check_regret(10.0, 4.0, 6.0) == []
    assert checks.check_regret(10.0, 4.0, 5.999)
    assert checks.check_regret(10.0, 4.0, 6.0, reported=6.0) == []
    assert checks.check_regret(10.0, 4.0, 6.0, reported=6.001)


def test_cf_certificate_over_bound_fails():
    i, j, y = np.array([1, 1, 2]), np.array([1, 1, 2]), np.array([0.5, 0.25, -1.0])
    assert checks.cf_box_lower_bound(i, j, y, 2, 2) == -1.75
    assert checks.check_cf_certificate(i, j, y, 2, 2, learner_loss=0.25, bound=2.0) == []
    assert checks.check_cf_certificate(i, j, y, 2, 2, learner_loss=0.26, bound=2.0)


def test_cf_comparator_outside_class_fails():
    i, j, y = np.array([1]), np.array([2]), np.array([1.0])
    W = np.eye(4)
    W[0, 1] = 0.5
    assert checks.check_cf_comparator(i, j, y, W, tau0=4.5, reported=0.5) == []
    assert checks.check_cf_comparator(i, j, y, W, tau0=4.0, reported=0.5)
    W[0, 1] = 1.01
    assert checks.check_cf_comparator(i, j, y, W, tau0=10.0, reported=1.01)


def test_enumeration_is_the_class():
    perms = checks.all_permutation_matrices(3)
    assert len({p.tobytes() for p in perms}) == 6
    assert np.all(perms + np.transpose(perms, (0, 2, 1)) == 1 + np.eye(3))
