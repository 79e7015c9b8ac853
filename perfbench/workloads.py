"""The benchmark's workloads and the session that plays one of them.

A workload is one problem class at a fixed horizon T, played against the
seeded `random` adversary. T stays fixed because it sets the learning rate
and so the trajectory: a longer run plays more sessions, each on the
sequence of its own seed. The paper's constants (beta, tau, G, p) are
written here, apart from the program's configs, for the regret check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

import checks
from matpred import adversaries, omp, problems
from matpred.mmw import ProjectionError
from tracing import COMPARATOR, ROUND, SEQUENCE


def direct(name, fn):
    """The identity wrapper: an untraced session calls the program as is."""
    return fn


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # the problem kind the adversary generates
    m: int
    n: int                    # teams for gambling, before padding
    T: int
    beta: float               # the paper's decomposition constants ...
    tau: float
    G: float                  # ... the losses' Lipschitz constant ...
    p: int                    # ... and the symmetrized order
    prediction_range: tuple
    tau0: float = 0.0         # CF trace-norm bound

    @property
    def N(self) -> int:
        """Order of the learner's 2p x 2p iterate."""
        return 2 * self.p

    def regret_bound(self, T: int) -> float:
        return checks.regret_bound(self.beta, self.tau, self.G, self.p, T)

    def config(self, T: int):
        if self.kind == "gambling":
            return problems.gambling_config(self.n, T)
        return problems.cf_config(self.m, self.n, self.tau0, 1.0, T)

    def sequence(self, seed: int, T: int, wrap=direct):
        make = wrap(SEQUENCE, adversaries.random_adversary)
        return make(self.kind, self.m, self.n, T, seed, G=1.0)

    def comparator(self, rounds, wrap=direct):
        """The program's offline comparator: (best member, its loss)."""
        if self.kind == "gambling":
            return wrap(COMPARATOR, problems.best_permutation_bruteforce)(rounds, self.n)
        return wrap(COMPARATOR, problems.best_cf_subgradient)(
            rounds, self.m, self.n, self.tau0)

    def check(self, res: "SessionResult") -> list[str]:
        """Every correctness check on one finished session."""
        lo, hi = self.prediction_range
        failures = checks.check_predictions(res.yhat, lo, hi)
        if res.failed:
            return failures          # failed rounds count in `failed`, not here
        i, j, y = res.i, res.j, res.y
        learner = float(checks.round_losses(self.kind, res.yhat, y).sum())
        failures += checks.check_close("learner loss", res.learner_loss, learner)
        best, comp_loss = res.comparator
        if self.kind == "gambling":
            failures += checks.check_permutation_comparator(i, j, y, self.n, best.mapping, comp_loss)
            best_loss = checks.best_permutation_loss(i, j, y, self.n)
        else:
            failures += checks.check_cf_comparator(i, j, y, best, self.tau0, comp_loss)
            best_loss = float(checks.round_losses("cf", best[i - 1, j - 1], y).sum())
        bound = self.regret_bound(len(y))
        failures += checks.check_regret(learner, best_loss, bound, reported=res.report.regret)
        if self.kind == "cf":
            failures += checks.check_cf_certificate(i, j, y, self.m, self.n, learner, bound)
        return failures


WORKLOADS = {
    w.name: w for w in (
        # 5 teams padded to 8 (k=3): beta = k+1, tau = 4*8*(k+1); the dual
        # solver runs in most rounds.
        Workload("gambling-n5", "gambling", 5, 5, T=1000,
                 beta=4.0, tau=128.0, G=1.0, p=16, prediction_range=(0.0, 1.0)),
        # N=64: each eigh is LAPACK-bound; beta = sqrt(m+n), tau = 2 tau0.
        # At T=2000 p50 falls inside the fast-path rounds (63%); at T=500 it
        # fell among the first solver rounds and flipped with machine speed.
        Workload("cf-m16n16", "cf", 16, 16, T=2000,
                 beta=math.sqrt(32.0), tau=32.0, G=1.0, p=32, prediction_range=(-1.0, 1.0),
                 tau0=16.0),
    )
}


def session_seed(seed: int, k: int) -> int:
    """Adversary seed of the k-th session of a run with seed `seed`."""
    return seed * 100_003 + k


@dataclass
class SessionResult:
    i: np.ndarray             # the adversary's queries, one per round
    j: np.ndarray
    y: np.ndarray             # label or linear coefficient
    yhat: np.ndarray          # one per completed round
    round_s: np.ndarray       # wall time of each completed omp_round call
    failed: int
    error: str | None
    learner_loss: float
    comparator: tuple | None
    report: object | None
    experiment_s: float       # from the ready session to the regret report


def prepare(w: Workload, seed: int, T: int, wrap=direct):
    """Config, sequence and a fresh session: the set-up before round one."""
    cfg = w.config(T)
    seq = w.sequence(seed, T, wrap)
    return cfg, seq, omp.new_session(cfg)


def play_session(w: Workload, seed: int, T: int | None = None, wrap=direct) -> SessionResult:
    """Play one session of T rounds, then run the comparator and report."""
    T = T or w.T
    cfg, seq, session = prepare(w, seed, T, wrap)
    ready = time.perf_counter()
    step = wrap(ROUND, omp.omp_round)
    yhat, round_s, total = [], [], 0.0
    failed, error = 0, None
    for t, ((i, j), lf) in enumerate(seq.rounds):
        a = time.perf_counter()
        try:
            pred, session = step(session, i, j, lf)
        except (omp.InvariantViolation, ProjectionError) as exc:
            failed, error = T - t, f"round {t + 1}: {exc}"
            break
        round_s.append(time.perf_counter() - a)
        yhat.append(pred)
        total += lf.value(pred)
    comparator = report = None
    if not failed:
        comparator = w.comparator(seq.rounds, wrap)
        report = problems.evaluate_run(total, comparator[1], cfg.regret_bound())
    done = time.perf_counter()
    return SessionResult(
        i=np.array([i for (i, _), _ in seq.rounds]),
        j=np.array([j for (_, j), _ in seq.rounds]),
        y=np.array([lf.param for _, lf in seq.rounds]),
        yhat=np.array(yhat), round_s=np.array(round_s), failed=failed, error=error,
        learner_loss=total, comparator=comparator, report=report,
        experiment_s=done - ready)
