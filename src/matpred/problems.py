"""Problem adapters: configs, loss functions, and offline comparators.

Three comparison classes are wired to the prediction engine here: graph
cuts, permutations (gambling), and bounded-trace-norm matrices
(collaborative filtering). Each gets a config constructor and an offline
comparator used for regret measurement: for cuts and permutations, one
exact enumeration that sums each queried pair's losses at the class's two
entry values once; for the trace-norm class, a primal-dual solve that takes
linear losses only and is certified optimal within the relative duality
gap CF_GAP_TOL.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .decompose import CutSet, Permutation, cut_matrix, padded_size
from .linalg import trace_norm
from .omp import CLAMP_SLACK, OmpConfig, entry_index

# Relative duality gap at which the CF comparator stops, and its iteration cap.
CF_GAP_TOL = 1e-5
CF_MAX_ITERS = 10000

# Slope of each absolute loss kind: slope * |yhat - label|.
_ABSOLUTE_SLOPE = {"absolute_halved": 0.5, "absolute": 1.0}


@dataclass(frozen=True)
class LossFn:
    """A one-dimensional convex loss.

    kinds: "absolute_halved" (param = label, Lipschitz 1/2), "absolute"
    (param = label, Lipschitz 1), "linear" (param = coefficient,
    Lipschitz |param|). The subgradient of the absolute losses is 0
    within CLAMP_SLACK of the kink, so round-off in a prediction clamped
    onto its label cannot pick a branch; this costs at most
    G * CLAMP_SLACK of regret per round. Any other kind, and a param that
    is not finite, is rejected on construction.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in (*_ABSOLUTE_SLOPE, "linear"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not math.isfinite(self.param):
            raise ValueError(f"loss param must be finite, got {self.param}")

    def value(self, yhat: float) -> float:
        if self.kind == "linear":
            return self.param * yhat
        return _ABSOLUTE_SLOPE[self.kind] * abs(yhat - self.param)

    def subgradient(self, yhat: float) -> float:
        if self.kind == "linear":
            return self.param
        d = yhat - self.param
        sign = 0.0 if abs(d) <= CLAMP_SLACK else float(np.sign(d))
        return _ABSOLUTE_SLOPE[self.kind] * sign

    @property
    def lipschitz(self) -> float:
        return abs(self.param) if self.kind == "linear" else _ABSOLUTE_SLOPE[self.kind]


@dataclass(frozen=True)
class RegretReport:
    learner_loss: float
    comparator_loss: float
    regret: float
    bound: float
    bound_satisfied: bool


def maxcut_config(n: int, T: int, eta: float | None = None) -> OmpConfig:
    """Cuts of an n-node graph: symmetric class, (1, n)-decomposable,
    absolute-halved losses (G = 1/2)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return OmpConfig(m=n, n=n, symmetric_class=True, beta=1.0, tau=float(n),
                     G=0.5, T=T, prediction_range=(-1.0, 1.0), eta=eta)


def gambling_config(n: int, T: int, eta: float | None = None) -> OmpConfig:
    """Permutations over n teams, run on the class padded to n' = 2^k teams
    (decompose.padded_size).

    The padded class keeps the initial iterate feasible (tau / N = beta
    exactly) and carries the triangular decomposition's guaranteed bounds
    beta = k + 1, tau = 4 n' (k + 1). Predictions lie in [0, 1].
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    nprime, k = padded_size(n)
    return OmpConfig(m=nprime, n=nprime, symmetric_class=False,
                     beta=float(k + 1), tau=float(4 * nprime * (k + 1)),
                     G=1.0, T=T, prediction_range=(0.0, 1.0), eta=eta)


def cf_config(m: int, n: int, trace_bound: float, G: float, T: int,
              eta: float | None = None) -> OmpConfig:
    """Bounded-trace-norm m x n matrices: (sqrt(m+n), 2 tau0)-decomposable."""
    if trace_bound > m * math.sqrt(n) + 1e-9:
        raise ValueError(f"trace bound {trace_bound} exceeds m*sqrt(n) = {m * math.sqrt(n)}")
    return OmpConfig(m=m, n=n, symmetric_class=False,
                     beta=math.sqrt(m + n), tau=2.0 * trace_bound,
                     G=G, T=T, prediction_range=(-1.0, 1.0), eta=eta)


def _first_least(records, n: int, on: float, off: float, count: int, selects) -> tuple[int, float]:
    """Index and cumulative loss of the first of `count` n x n members of least
    loss. Member m predicts `on` at (i, j) where selects(i, j)[m] holds and
    `off` elsewhere, so each pair's losses are summed at the two values once."""
    sums = {}
    for (i, j), lf in records:
        entry_index(i, j, n, n)
        at_on, at_off = sums.get((i, j), (0, 0))
        sums[i, j] = (at_on + lf.value(on), at_off + lf.value(off))
    total = np.zeros(count)
    for (i, j), (at_on, at_off) in sums.items():
        total += np.where(selects(i, j), at_on, at_off)
    best = int(np.argmin(total))
    return best, float(total[best])


def best_cut_bruteforce(records, n: int) -> tuple[CutSet, float]:
    """Exact minimizer of the cumulative loss over all 2^n cuts.

    records: iterable of ((i, j), LossFn). Ties break toward the smallest
    bit-set value (members encoded in the low bits).
    """
    if n > 20:
        raise ValueError("brute force limited to n <= 20")
    masks = np.arange(2 ** n)
    bits = [(masks >> i & 1).astype(bool) for i in range(n)]
    mask, loss = _first_least(records, n, 1.0, -1.0, 2 ** n,
                              lambda i, j: bits[i - 1] ^ bits[j - 1])
    members = frozenset(i + 1 for i in range(n) if (mask >> i) & 1)
    return CutSet(n=n, members=members), loss


def maxcut_weights(records, n: int) -> np.ndarray:
    """Aggregated label weights w_ij = sum of labels on the pair (i, j).

    The max-weight cut of this graph is a loss minimizer among cut
    matrices.
    """
    w = np.zeros((n, n))
    for (i, j), lf in records:
        if lf.kind != "absolute_halved":
            raise ValueError("max-cut weights need absolute-halved losses")
        a, b = entry_index(i, j, n, n)
        w[a, b] += lf.param
        w[b, a] += lf.param
    return w


def cut_weight(weights: np.ndarray, c: CutSet) -> float:
    """Total weight crossing the cut."""
    W = cut_matrix(c)
    return float(0.5 * np.sum(weights * (W > 0)))


def best_permutation_bruteforce(records, n: int) -> tuple[Permutation, float]:
    """Exact minimizer over all n! permutations of the cumulative loss on
    W_pi entries. Ties break toward the lexicographically smallest mapping."""
    if n > 8:
        raise ValueError("brute force limited to n <= 8")
    ranks = np.array(list(itertools.permutations(range(1, n + 1))))
    best, loss = _first_least(records, n, 1.0, 0.0, len(ranks),
                              lambda i, j: ranks[:, i - 1] <= ranks[:, j - 1])
    return Permutation(n=n, mapping=tuple(ranks[best].tolist())), loss


def _clip_spectrum(V: np.ndarray, excess: float) -> tuple[np.ndarray, float]:
    """V with its singular values clipped at the level theta >= 0 whose
    excess above it sums to `excess`, and the clip's operator norm
    min(sigma_max(V), theta). theta is 0, and the clip 0, once
    ||V||_* <= excess. By the Moreau decomposition the clip is V minus
    V's projection onto the trace-norm ball of radius `excess`."""
    U, s, Vt = np.linalg.svd(V, full_matrices=False)
    # The capped-simplex threshold; the SVD returns s in descending order.
    css = np.cumsum(s)
    # Index 0 passes in exact arithmetic but fails once s[0] - excess rounds to s[0].
    passing = np.flatnonzero(s * np.arange(1, len(s) + 1) > css - excess)
    rho = passing[-1] if passing.size else 0
    clipped = np.minimum(s, max((css[rho] - excess) / (rho + 1.0), 0.0))
    return (U * clipped) @ Vt, float(clipped[0])


def best_cf_subgradient(records, m: int, n: int, tau0: float) -> tuple[np.ndarray, float]:
    """Least loss over m x n matrices with entries in [-1, 1] and trace
    norm at most tau0, for linear losses.

    Solves min <C, W> over the class, where C holds each entry's sum of
    linear coefficients, by Chambolle & Pock's primal-dual method
    (J. Math. Imaging Vis. 40, 2011) with primal step t = 1/max|C| and
    dual step 1/t; the dual step is one singular-value clip, which also
    gives ||Z||_op. Each iterate, scaled into the trace-norm ball, is a
    member of the class; any dual Z gives the lower bound
    -tau0 ||Z||_op - ||C + Z||_1. The loop stops once the member's loss
    <C, W> is within CF_GAP_TOL (1 + |loss|) of that bound, or after
    CF_MAX_ITERS iterations, and returns the member and that loss. A loss
    of any other kind raises ValueError.
    """
    C = np.zeros((m, n))
    for (i, j), lf in records:
        if lf.kind != "linear":
            raise ValueError(f"the CF comparator takes linear losses only, got {lf.kind!r}")
        C[entry_index(i, j, m, n)] += lf.param
    scale = np.abs(C).max()
    if scale == 0.0:
        return np.zeros((m, n)), 0.0
    t = 1.0 / scale
    W, W_bar, Z = np.zeros((m, n)), np.zeros((m, n)), np.zeros((m, n))
    for _ in range(CF_MAX_ITERS):
        Z, op = _clip_spectrum(Z + W_bar / t, tau0 / t)
        W_new = np.clip(W - t * (Z + C), -1.0, 1.0)
        W_bar, W = 2.0 * W_new - W, W_new
        norm = trace_norm(W)
        member = W if norm <= tau0 else W * (tau0 / norm)
        loss = float(np.sum(C * member))
        dual = -tau0 * op - np.abs(C + Z).sum()
        if loss - dual <= CF_GAP_TOL * (1.0 + abs(loss)):
            break
    return member, loss


def comparator_matrix_value(records, W: np.ndarray) -> float:
    """Cumulative loss of the fixed matrix W on a record sequence."""
    return sum(lf.value(W[entry_index(i, j, *W.shape)]) for (i, j), lf in records)


def evaluate_run(learner_loss: float, comparator_loss: float, bound: float) -> RegretReport:
    """Regret report: learner total minus comparator total, against the
    closed-form bound. Negative regret is reported as-is."""
    regret = learner_loss - comparator_loss
    return RegretReport(
        learner_loss=float(learner_loss),
        comparator_loss=float(comparator_loss),
        regret=float(regret),
        bound=float(bound),
        bound_satisfied=bool(regret <= bound),
    )
