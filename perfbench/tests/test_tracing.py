import pytest

from tracing import EIGH, PROJECT, ROUND, STEP, Tracer, layer_metrics
from workloads import WORKLOADS, play_session


def _spans(with_step=True):
    ms = 1_000_000
    spans = [
        ["adversaries.random_adversary", 0, 1 * ms, -1, 0],
        [ROUND, 0, 10 * ms, -1, 0],
        [PROJECT, 1 * ms, 5 * ms, 1, 0],
        [EIGH, 2 * ms, 3 * ms, 2, 0],
    ]
    if with_step:
        spans += [[STEP, 6 * ms, 8 * ms, 1, 0], [EIGH, 6 * ms, 7 * ms, 4, 0]]
    return spans + [["problems.comparator", 11 * ms, 14 * ms, -1, 0]]


def test_self_times_and_counts():
    m = layer_metrics(_spans(), count_session=0)
    assert m["linalg.eigh_per_round"] == 2
    assert m["mmw.eigh_per_project"] == 1
    assert m["linalg.eigh_us"] == pytest.approx(1000.0)
    assert m["mmw.project_ms_per_round"] == pytest.approx(4.0)
    assert m["omp.step_ms_per_round"] == pytest.approx(2.0)
    assert m["omp.self_ms_per_round"] == pytest.approx(4.0)
    assert m["problems.comparator_s"] == pytest.approx(0.003)


def test_removed_entry_point_is_an_absent_metric():
    m = layer_metrics(_spans(with_step=False), count_session=0)
    assert "omp.step_ms_per_round" not in m
    assert m["omp.self_ms_per_round"] == pytest.approx(6.0)


def test_counts_repeat_and_patches_are_undone():
    import numpy as np
    from matpred import omp
    w = WORKLOADS["cf-m16n16"]
    before = (np.linalg.eigh, omp.project_qre, omp.exp_step)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.active(0) as wrap:
            res = play_session(w, seed=3, T=12, wrap=wrap)
        assert w.check(res) == []
        m = layer_metrics(tracer.spans, count_session=0)
        counts.append((m["linalg.eigh_per_round"], m["mmw.eigh_per_project"]))
    assert counts[0] == counts[1]
    assert (np.linalg.eigh, omp.project_qre, omp.exp_step) == before
