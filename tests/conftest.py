import pytest

from matpred import omp
from matpred.linalg import inner


@pytest.fixture
def kkt_checked(monkeypatch):
    """Check KKT on the point every active projection of the test returns:
    `omp.project_qre` is wrapped to assert each constraint's feasibility and
    complementary slackness within 1e-6 (1 + |b|) and a nonnegative dual."""
    project = omp.project_qre

    def checked(log_Y, cs):
        X, duals = project(log_Y, cs)
        for a, c in zip(duals, cs.constraints):
            value = inner(c.A, X)
            assert a >= 0.0 and value <= c.b + 1e-6 * (1 + abs(c.b))
            assert a * (c.b - value) <= 1e-6 * (1 + abs(c.b))
        return X, duals
    monkeypatch.setattr(omp, "project_qre", checked)
