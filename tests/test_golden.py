"""Golden trajectories: one seeded run per registered problem.

Numerically equivalent changes to the engine must leave these sums where
they are. Each row is (sum of yhat, sum of yhat^2, total loss) of
`run_learner` on the problem's random adversary, n = 5, T = 200, seed 1;
yhat is read from the CSV trace.
"""

import pytest

from matpred.harness import PROBLEMS, Params, run_learner

GOLDEN = {
    "maxcut": (0.613142287991343, 23.113863336703265, 99.90964703624161),
    "gambling": (99.96669953576661, 98.42866162811602, 98.75129840675524),
    "cf": (-2.5029754325750564, 2.4954129534670595, 0.37120632098925094),
}


def test_every_problem_has_a_golden_row():
    assert sorted(GOLDEN) == sorted(PROBLEMS)


@pytest.mark.parametrize("problem", sorted(GOLDEN))
def test_trajectory(problem, tmp_path):
    p = Params(n=5, T=200)
    entry = PROBLEMS[problem]
    trace = tmp_path / "trace.csv"
    _, total = run_learner(entry.config(p), entry.adversary(p, 1), trace_path=str(trace))
    yhat = [float(line.split(",")[3]) for line in trace.read_text().splitlines()[1:]]
    assert len(yhat) == 200
    got = (sum(yhat), sum(y * y for y in yhat), total)
    assert got == pytest.approx(GOLDEN[problem], abs=1e-9)
