"""Correctness checks computed apart from the program.

Nothing here imports matpred. Each check recomputes a quantity from the
adversary's queries and the learner's predictions with its own code, or
tests a property the paper's method must have, and returns a list of
failure messages (empty when the check passes). Queries are given as
arrays: 1-based row `i`, column `j`, and the loss parameter `y` (the label
for gambling, the linear coefficient for CF).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

COMPARATOR_TOL = 1e-9
NUCLEAR_TOL = 1e-6
BOX_TOL = 1e-9


def round_losses(kind: str, yhat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-round losses of the benchmarked problems."""
    if kind == "gambling":
        return np.abs(yhat - y)
    if kind == "cf":
        return y * yhat
    raise ValueError(f"unknown problem kind {kind!r}")


def regret_bound(beta: float, tau: float, G: float, p: int, T: int) -> float:
    """The paper's guarantee 2 G sqrt(tau beta log(2p) T)."""
    return 2.0 * G * math.sqrt(tau * beta * math.log(2 * p) * T)


def check_predictions(yhat: np.ndarray, lo: float, hi: float) -> list[str]:
    bad = np.flatnonzero((yhat < lo) | (yhat > hi) | ~np.isfinite(yhat))
    if bad.size:
        k = int(bad[0])
        return [f"{bad.size} predictions outside [{lo}, {hi}], first at round {k + 1}: {yhat[k]!r}"]
    return []


def check_close(what: str, reported: float, recomputed: float, tol: float = COMPARATOR_TOL) -> list[str]:
    if not abs(reported - recomputed) <= tol:
        return [f"{what}: program reports {reported!r}, recomputed {recomputed!r}"]
    return []


def all_permutation_matrices(n: int) -> np.ndarray:
    """The n! comparison matrices W(a, b) = 1 iff pi(a) <= pi(b)."""
    ranks = np.array(list(itertools.permutations(range(n))))
    return (ranks[:, :, None] <= ranks[:, None, :]).astype(float)


def best_permutation_loss(i, j, y, n: int) -> float:
    """Least gambling loss over all n! permutations, by enumeration."""
    every = all_permutation_matrices(n)[:, i - 1, j - 1]        # (permutations, rounds)
    return float(round_losses("gambling", every, y[None, :]).sum(axis=1).min())


def check_permutation_comparator(i, j, y, n: int, mapping, reported: float) -> list[str]:
    """The reported best permutation's loss is the least over all n!
    permutations, and the returned permutation attains it."""
    pi = np.asarray(mapping)
    own = (pi[i - 1] <= pi[j - 1]).astype(float)
    best = best_permutation_loss(i, j, y, n)
    return (check_close("best permutation loss (enumeration of all permutations)", reported, best)
            + check_close("loss of the returned permutation", reported,
                          float(round_losses("gambling", own, y).sum())))


def check_cf_comparator(i, j, y, W: np.ndarray, tau0: float, reported: float) -> list[str]:
    """The returned matrix lies in the class (entries in [-1, 1], nuclear
    norm at most tau0) and its loss is what the program reports."""
    failures = []
    if np.max(np.abs(W)) > 1.0 + BOX_TOL:
        failures.append(f"comparator entry {np.max(np.abs(W))!r} outside [-1, 1]")
    nuclear = float(np.linalg.svd(W, compute_uv=False).sum())
    if nuclear > tau0 + NUCLEAR_TOL:
        failures.append(f"comparator nuclear norm {nuclear!r} exceeds {tau0}")
    return failures + check_close("CF comparator loss", reported,
                                  float(round_losses("cf", W[i - 1, j - 1], y).sum()))


def check_regret(learner_loss: float, comparator_loss: float, bound: float,
                 reported: float | None = None) -> list[str]:
    """Regret from losses computed here is at most the bound and, when
    given, equals the regret the program reports."""
    regret = learner_loss - comparator_loss
    failures = [] if reported is None else check_close("reported regret", reported, regret)
    if not regret <= bound:
        failures.append(f"regret {regret!r} exceeds the bound {bound!r}")
    return failures


def cf_box_lower_bound(i, j, y, m: int, n: int) -> float:
    """Least loss over the box |W_ab| <= 1, a relaxation of the CF class:
    -sum over entries of |sum of that entry's coefficients|."""
    sums = np.zeros((m, n))
    np.add.at(sums, (i - 1, j - 1), y)
    return -float(np.abs(sums).sum())


def check_cf_certificate(i, j, y, m: int, n: int, learner_loss: float, bound: float) -> list[str]:
    """Regret against the class optimum, certified through the box
    relaxation: it holds however loose the program's comparator is."""
    certified = learner_loss - cf_box_lower_bound(i, j, y, m, n)
    if not certified <= bound:
        return [f"certified CF regret {certified!r} exceeds the bound {bound!r}"]
    return []
