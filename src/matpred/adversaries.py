"""Sequence generators: stochastic lower-bound adversaries and generic
random adversaries for harness runs.

All randomness flows through a counter-based Philox generator keyed by the
sequence seed, so a (parameters, seed) pair reproduces byte-identically
across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import LossFn


@dataclass(frozen=True)
class Sequence:
    """A deterministic adversary transcript: shape and per-round
    ((i, j), LossFn) choices."""

    m: int
    n: int
    rounds: tuple

    def __len__(self):
        return len(self.rounds)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _sign(x: float) -> float:
    """sgn with ties resolved to +1 (determinism at zero sums)."""
    return 1.0 if x >= 0 else -1.0


def _interval_rounds(rng: np.random.Generator, pairs, length: int, loss) -> tuple:
    """One interval of `length` rounds per pair, in the pairs' order; a
    round's loss is `loss` of a Rademacher sign, an interval's signs drawn
    in one call."""
    return tuple((pair, loss(float(s))) for pair in pairs for s in rng.choice([-1.0, 1.0], size=length))


def maxcut_lb(n: int, T: int, seed: int) -> Sequence:
    """The interval adversary: n/2 blocks of length 2T/n, block i querying
    the fixed pair (i, i + n/2) with independent Rademacher labels."""
    if n % 2 != 0 or T % (n // 2) != 0:
        raise ValueError("need n even and T divisible by n/2")
    pairs = [(i, i + n // 2) for i in range(1, n // 2 + 1)]
    rounds = _interval_rounds(_rng(seed), pairs, 2 * T // n, lambda y: LossFn("absolute_halved", y))
    return Sequence(m=n, n=n, rounds=rounds)


def cf_lb(m: int, n: int, tau0: float, G: float, T: int, seed: int) -> Sequence:
    """The linear-loss adversary on the first tau0/sqrt(n) rows: one
    interval per sub-matrix entry, Rademacher-signed linear losses of
    slope G."""
    rows = tau0 / math.sqrt(n)
    intervals = tau0 * math.sqrt(n)
    if abs(rows - round(rows)) > 1e-9 or abs(intervals - round(intervals)) > 1e-9:
        raise ValueError("need tau0/sqrt(n) integral")
    rows, intervals = round(rows), round(intervals)
    if rows > m:
        raise ValueError("tau0/sqrt(n) exceeds m")
    if T % intervals != 0:
        raise ValueError(f"need T divisible by tau0*sqrt(n) = {intervals}")
    pairs = [(i, j) for i in range(1, rows + 1) for j in range(1, n + 1)]
    rounds = _interval_rounds(_rng(seed), pairs, T // intervals, lambda s: LossFn("linear", s * G))
    return Sequence(m=m, n=n, rounds=rounds)


def cf_lb_comparator(seq: Sequence, tau0: float, G: float) -> np.ndarray:
    """The construction's comparator: W*(i, j) = -sgn(sum of interval signs)
    on the active rows, zero elsewhere."""
    sums = np.zeros((seq.m, seq.n))
    active = np.zeros((seq.m, seq.n), dtype=bool)
    for (i, j), lf in seq.rounds:
        sums[i - 1, j - 1] += lf.param / G
        active[i - 1, j - 1] = True
    W = np.zeros((seq.m, seq.n))
    W[active] = [-_sign(s) for s in sums[active]]
    return W


def random_adversary(kind: str, m: int, n: int, T: int, seed: int, G: float = 1.0) -> Sequence:
    """Uniform random valid queries with seeded labels.

    maxcut: unordered pairs i < j, +/-1 labels, absolute-halved loss.
    gambling: ordered pairs i != j, 0/1 labels, absolute loss.
    cf: any entry, linear loss with coefficient uniform in [-G, G].
    """
    rng = _rng(seed)
    rounds = []
    for _ in range(T):
        if kind == "maxcut":
            i, j = sorted(rng.choice(n, size=2, replace=False) + 1)
            y = float(rng.choice([-1.0, 1.0]))
            rounds.append(((int(i), int(j)), LossFn("absolute_halved", y)))
        elif kind == "gambling":
            i, j = rng.choice(n, size=2, replace=False) + 1
            y = float(rng.integers(0, 2))
            rounds.append(((int(i), int(j)), LossFn("absolute", y)))
        elif kind == "cf":
            i = int(rng.integers(1, m + 1))
            j = int(rng.integers(1, n + 1))
            coef = float(rng.uniform(-G, G))
            rounds.append(((i, j), LossFn("linear", coef)))
        else:
            raise ValueError(f"unknown problem kind {kind!r}")
    return Sequence(m=m, n=n, rounds=tuple(rounds))
