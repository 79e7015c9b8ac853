"""Experiment harness: the problem registry and the learner loop.

Each comparison class plugs into the one learner through a `Problem`
entry: its config, its random adversary, its offline comparator and, where
the paper proves one, its lower-bound construction and the theorem's
regret value. The one comparator serves every adversary: on the
lower-bound sequences the exact best member is the planted one. The CLI
reads `PROBLEMS` rather than branching on the problem name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import adversaries, problems
from .adversaries import Sequence
from .omp import OmpConfig, new_session, omp_round


@dataclass(frozen=True)
class Params:
    """Sizes and scales of one experiment.

    m defaults to n, and the trace-norm bound tau0 (read by CF alone)
    defaults to m. The configs of the n x n classes (max-cut, gambling)
    reject any other m. A G or a tau0 that is not finite and > 0 is a
    ValueError, on every problem, and so is an n or an m below 1.
    """

    n: int
    T: int
    m: int | None = None
    tau0: float | None = None
    G: float = 1.0
    eta: float | None = None

    def __post_init__(self):
        if self.m is None:
            object.__setattr__(self, "m", self.n)
        if min(self.n, self.m) < 1:
            raise ValueError(f"n and m must be >= 1, got n={self.n}, m={self.m}")
        if self.tau0 is None:
            object.__setattr__(self, "tau0", float(self.m))
        if not all(math.isfinite(v) and v > 0 for v in (self.G, self.tau0)):
            raise ValueError(f"G and tau0 (default m) must be > 0 and finite, "
                             f"got G={self.G}, tau0={self.tau0}")


@dataclass(frozen=True)
class LowerBound:
    """A stochastic adversary (params, seed) and the regret the theorem
    says it forces. The problem's own comparator scores its sequences."""

    adversary: Callable[[Params, int], Sequence]
    theorem: Callable[[Params], float]


@dataclass(frozen=True)
class Problem:
    """One comparison class: config, random adversary (params, seed), and
    offline comparator loss of a finished sequence."""

    config: Callable[[Params], OmpConfig]
    adversary: Callable[[Params, int], Sequence]
    comparator: Callable[[Params, Sequence], float]
    lower_bound: LowerBound | None = None


def _square(p: Params) -> int:
    """n, for a class of n x n matrices; any other m is a ValueError."""
    if p.m != p.n:
        raise ValueError(f"m = {p.m} differs from n = {p.n}, but this class is n x n")
    return p.n


PROBLEMS = {
    "maxcut": Problem(
        config=lambda p: problems.maxcut_config(_square(p), p.T, eta=p.eta),
        adversary=lambda p, seed: adversaries.random_adversary("maxcut", p.m, p.n, p.T, seed),
        comparator=lambda p, seq: problems.best_cut_bruteforce(seq.rounds, seq.n)[1],
        lower_bound=LowerBound(
            adversary=lambda p, seed: adversaries.maxcut_lb(p.n, p.T, seed),
            theorem=lambda p: math.sqrt(p.n * p.T / 16),
        ),
    ),
    "gambling": Problem(
        config=lambda p: problems.gambling_config(_square(p), p.T, eta=p.eta),
        adversary=lambda p, seed: adversaries.random_adversary("gambling", p.m, p.n, p.T, seed),
        comparator=lambda p, seq: problems.best_permutation_bruteforce(seq.rounds, seq.n)[1],
    ),
    "cf": Problem(
        config=lambda p: problems.cf_config(p.m, p.n, p.tau0, p.G, p.T, eta=p.eta),
        adversary=lambda p, seed: adversaries.random_adversary("cf", p.m, p.n, p.T, seed, G=p.G),
        comparator=lambda p, seq: problems.best_cf_subgradient(seq.rounds, seq.m, seq.n, p.tau0)[1],
        lower_bound=LowerBound(
            adversary=lambda p, seed: adversaries.cf_lb(p.m, p.n, p.tau0, p.G, p.T, seed),
            theorem=lambda p: p.G * math.sqrt(0.5 * p.tau0 * math.sqrt(p.n) * p.T),
        ),
    ),
}


def run_learner(cfg: OmpConfig, seq: Sequence, trace_path: str | None = None):
    """Run the prediction engine over a sequence. Returns (session, total loss)."""
    session = new_session(cfg)
    total = 0.0
    out = open(trace_path, "w") if trace_path else None
    try:
        if out:
            out.write("t,i,j,yhat,g,loss,cumloss\n")
        for (i, j), lf in seq.rounds:
            yhat, session = omp_round(session, i, j, lf)
            ev = session.last_event
            total += ev.loss
            if out:
                out.write(f"{ev.t},{ev.i},{ev.j},{ev.yhat:.12g},{ev.g:.12g},"
                          f"{ev.loss:.12g},{total:.12g}\n")
                out.flush()
    finally:
        if out:
            out.close()
    return session, total
