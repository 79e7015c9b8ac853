"""Reduction from online matrix prediction to OLO.

A session maintains a 2p x 2p PSD iterate whose upper-left and lower-right
halves carry the positive and negative parts of the predicted matrix. Each
round proceeds in the order: receive the queried entry, project the pending
exponentiated step onto the four-constraint polytope K_t for that entry,
read off the prediction, evaluate the loss, and stash the next
exponentiated step. The session also carries the pending step's logarithm:
the projection solves from it and subtracts sum_j alpha_j A_j, and the step
subtracts eta L, so no round takes a matrix logarithm.

Every loss matrix and every constraint acts on the two p x p diagonal
blocks alike, so the iterate stays diag(A, B); on a non-symmetric class
B = S A S with S = diag(1_m, -1_n). The session therefore carries only
the blocks, as a (k, p, p) stack: k = 1 (the upper block) on a
non-symmetric class, k = 2 on a symmetric one. A round whose step already
lies in K_t reads D.Y, E.Y and Tr Y from five block entries and the trace,
predicts from the same entries, and builds no 2p x 2p matrix. Only a round
that must project assembles a 2p x 2p matrix: the log iterate
(`full_iterate` of `log_pending`), from which `project_qre` solves, so a
round takes no matrix logarithm and tests feasibility once. L_t, K_t's four
constraints (the rows of `_KT`), the step and the dual fold are all written
on the blocks by `_pair_term`, and the pending iterate is never assembled.

Entry indices on the API surface are 1-based, matching the row/column
numbering of the predicted matrix. `entry_index` is the one range check
for them; the comparators and the sequence reader use it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import exp_overflows, matrix_exp
from .mmw import PROJECTION_TOL, ConstraintSet, LinConstraint, satisfied
# The session keeps log Y, so a round projects with the log-space solver.
# It keeps the name `project_qre` here, the name perfbench's tracer wraps.
from .mmw import project_qre_log as project_qre

# Predictions within this distance outside the range are clamped and
# recorded; anything farther is an invariant violation.
CLAMP_SLACK = 1e-6


class InvariantViolation(RuntimeError):
    pass


@dataclass(frozen=True)
class OmpConfig:
    """Shape and scale parameters of one online matrix prediction problem.

    q is m for a non-symmetric comparison class and 0 for a symmetric one;
    p is the order of the symmetrized matrices; the OLO iterate has order
    N = 2p. gamma is fixed at 4 G^2 by the loss-matrix construction.

    eta G is bounded by the exp range. After any round Tr X <= tau within
    the projection's tolerance, so log X has no eigenvalue above
    log(tau + PROJECTION_TOL (1 + tau)), and the step subtracts eta L_t with
    ||L_t|| <= G. By Weyl the step's log Y has none above that plus eta G.
    A config is refused (ValueError) when `linalg.exp_overflows` flags an
    order-2p spectrum at that bound: eta G must stay below log(float max) -
    log(2p (tau + PROJECTION_TOL (1 + tau))), about 700 on every registered
    problem. For eta >= 1/G the regret bound's form is at least 2 G T
    already, so the limit costs no guarantee.
    """

    m: int
    n: int
    symmetric_class: bool
    beta: float
    tau: float
    G: float
    T: int
    prediction_range: tuple = (-1.0, 1.0)
    eta: float | None = None

    def __post_init__(self):
        if min(self.m, self.n, self.T) < 1:
            raise ValueError(f"m, n and T must be >= 1, got m={self.m}, n={self.n}, T={self.T}")
        if not all(math.isfinite(v) and v > 0 for v in (self.G, self.tau)):
            raise ValueError(f"G and tau must be > 0 and finite, got G={self.G}, tau={self.tau}")
        if not 0 < self.beta * 4 * self.G * self.G * self.T < math.inf:
            raise ValueError(f"G={self.G} out of range: beta * 4 G^2 * T must be > 0 and finite")
        if self.beta < 1.0:
            raise ValueError("beta must be >= 1")
        if self.symmetric_class and self.m != self.n:
            raise ValueError("symmetric class requires m == n")
        lo, hi = self.prediction_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"prediction_range must be finite with lo < hi, got ({lo}, {hi})")
        if self.tau > 2 * self.p * self.beta + 1e-9:
            raise ValueError(
                f"tau={self.tau} exceeds 2*p*beta={2 * self.p * self.beta}; "
                "the initial iterate would be infeasible"
            )
        if self.eta is None:
            object.__setattr__(self, "eta", eta_default(self.tau, self.p, self.beta, self.G, self.T))
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be > 0 and finite, got eta={self.eta}")
        top = math.log(self.tau + PROJECTION_TOL * (1.0 + self.tau)) + self.eta * self.G
        if exp_overflows(np.broadcast_to(top, 2 * self.p)):
            raise ValueError(f"eta * G = {self.eta * self.G:.6g} is past the step's exp range")

    @property
    def q(self) -> int:
        return 0 if self.symmetric_class else self.m

    @property
    def p(self) -> int:
        return self.n if self.symmetric_class else self.m + self.n

    @property
    def gamma(self) -> float:
        return 4.0 * self.G ** 2

    def regret_bound(self) -> float:
        """The closed-form guarantee 2 G sqrt(tau beta log(2p) T)."""
        return 2.0 * self.G * math.sqrt(self.tau * self.beta * math.log(2 * self.p) * self.T)


def eta_default(tau: float, p: int, beta: float, G: float, T: int) -> float:
    """Learning rate sqrt(tau log(N) / (beta gamma T)) with N = 2p, gamma = 4 G^2."""
    return math.sqrt(tau * math.log(2 * p) / (beta * 4.0 * G ** 2 * T))


@dataclass(frozen=True)
class LossEvent:
    t: int
    i: int
    j: int
    yhat: float
    g: float
    loss: float


@dataclass
class OmpSession:
    """State threaded through omp_round; strictly sequential per session."""

    config: OmpConfig
    pending: np.ndarray  # p x p blocks of the exponentiated step awaiting projection
    log_pending: np.ndarray  # the blocks of its logarithm
    round: int = 1
    last_event: LossEvent | None = None
    max_eta_norm: float = 0.0  # max eta * ||L_t|| observed


def new_session(cfg: OmpConfig) -> OmpSession:
    N = 2 * cfg.p
    eye = np.broadcast_to(np.eye(cfg.p), _block_shape(cfg))
    return OmpSession(config=cfg, pending=(cfg.tau / N) * eye,
                      log_pending=math.log(cfg.tau / N) * eye)


def _block_shape(cfg: OmpConfig) -> tuple[int, int, int]:
    """Shape of the session's block stack: the upper block alone on a
    non-symmetric class (the lower one is S upper S), both on a symmetric one."""
    return (2 if cfg.symmetric_class else 1, cfg.p, cfg.p)


def full_iterate(Y: np.ndarray, cfg: OmpConfig) -> np.ndarray:
    """The 2p x 2p block-diagonal matrix whose p x p blocks are the stack Y.

    Holds for the iterate and its logarithm alike, since S exp(A) S =
    exp(S A S).
    """
    if Y.shape != _block_shape(cfg):
        raise ValueError(f"expected blocks of shape {_block_shape(cfg)}, got {Y.shape}")
    p, m = cfg.p, cfg.m
    F = np.zeros((2 * p, 2 * p))
    F[:p, :p] = Y[0]
    F[p:, p:] = Y[-1]
    if not cfg.symmetric_class:
        # S A S negates A's off-diagonal m x n and n x m quadrants.
        F[p:p + m, p + m:] *= -1.0
        F[p + m:, p:p + m] *= -1.0
    return F


def predict(X: np.ndarray, i: int, j: int, cfg: OmpConfig) -> float:
    """Read the prediction X(i, j+q) - X(p+i, p+j+q) (1-based indices)."""
    a, b = _pair(i, j, cfg)
    return float(X[a, b] - X[cfg.p + a, cfg.p + b])


def block_values(Y: np.ndarray, i: int, j: int, cfg: OmpConfig) -> tuple[float, ...]:
    """D . X, E . X, -E . X and Tr X of the iterate X whose block stack is Y:
    the left-hand sides of K_t (see constraints_Kt), read from five block
    entries and the trace. E . X is also the prediction read from X."""
    a, b = _pair(i, j, cfg)
    upper, lower = Y[0], Y[-1]
    # On a non-symmetric class lower = S upper S, and S flips the sign of
    # the queried entry (a < m <= b).
    sign = 1.0 if cfg.symmetric_class else -1.0
    diag = upper[a, a] + upper[b, b] + lower[a, a] + lower[b, b]
    trace = np.trace(Y, axis1=1, axis2=2).sum()
    if not cfg.symmetric_class:
        trace *= 2.0
    e = float(upper[a, b] - sign * lower[a, b])
    return float(diag), e, -e, float(trace)


def in_Kt(values: tuple[float, ...], cfg: OmpConfig) -> bool:
    """Whether `block_values` lie in K_t, within the projection's tolerance."""
    return all(map(satisfied, values, _bounds(cfg)))


def constraints_Kt(i: int, j: int, cfg: OmpConfig) -> ConstraintSet:
    """The four-constraint polytope for the queried entry: diagonal sum
    D . X <= 4 beta, prediction E . X within range, trace <= tau."""
    constraints = [LinConstraint(A=full_iterate(_pair_term(i, j, cfg, *row), cfg), b=b)
                   for row, b in zip(_KT, _bounds(cfg))]
    return ConstraintSet(constraints=tuple(constraints), tau=cfg.tau)


def _pair_term(i: int, j: int, cfg: OmpConfig, diag: float = 0.0, off: float = 0.0,
               trace: float = 0.0) -> np.ndarray:
    """The block stack of diag D + 2 off E + trace I (K_t's D, E and I): diag on
    the pair's two diagonal entries of each block, +off on its mirrored
    entries in the upper block and -off in the lower one, trace on every
    diagonal entry. A diagonal pair (a == b) gets each part once."""
    a, b = _pair(i, j, cfg)
    term = np.zeros(_block_shape(cfg))
    if trace:
        term.reshape(len(term), -1)[:, ::cfg.p + 1] = trace
    for k, sign in zip(range(len(term)), (1.0, -1.0)):
        term[k, a, a] = term[k, b, b] = diag + trace
        term[k, a, b] += sign * off
        term[k, b, a] = term[k, a, b]
    return term


# K_t's constraints D, E, -E and I as `_pair_term` coefficients
# (diag, off, trace), in the order of `_bounds`.
_KT = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, 1.0]])


def _bounds(cfg: OmpConfig) -> tuple[float, float, float, float]:
    """Right-hand sides of K_t's constraints D, E, -E and I."""
    lo, hi = cfg.prediction_range
    return 4.0 * cfg.beta, float(hi), float(-lo), float(cfg.tau)


def omp_round(session: OmpSession, i: int, j: int, loss_fn) -> tuple[float, OmpSession]:
    """Play one round: project, predict, pay, step.

    `loss_fn` provides value(yhat) and subgradient(yhat). Returns the
    prediction and the updated session.
    """
    cfg = session.config
    if session.round > cfg.T:
        raise InvariantViolation(f"round {session.round} exceeds horizon T={cfg.T}")
    entry_index(i, j, cfg.m, cfg.n)
    if cfg.symmetric_class and i == j:
        # K_t and L_t assume two distinct mirrored entries; the diagonal of
        # a symmetric class member (a cut matrix's is -1) is not predicted.
        raise IndexError(f"entry ({i}, {j}) is on the diagonal of a symmetric class")
    values = block_values(session.pending, i, j, cfg)
    if in_Kt(values, cfg):
        yhat, log_X = values[1], session.log_pending
    else:
        X, duals = project_qre(full_iterate(session.log_pending, cfg), constraints_Kt(i, j, cfg))
        yhat = predict(X, i, j, cfg)
        log_X = session.log_pending - _pair_term(i, j, cfg, *(duals @ _KT))
    lo, hi = cfg.prediction_range
    if yhat < lo - CLAMP_SLACK or yhat > hi + CLAMP_SLACK:
        raise InvariantViolation(f"prediction {yhat} outside range [{lo}, {hi}]")
    yhat = min(max(yhat, lo), hi)

    loss = float(loss_fn.value(yhat))
    g = float(loss_fn.subgradient(yhat))
    _check_subgradient(g, cfg)
    session.max_eta_norm = max(session.max_eta_norm, cfg.eta * abs(g))

    session.pending, session.log_pending = exp_step(log_X, g, i, j, cfg)
    session.last_event = LossEvent(t=session.round, i=i, j=j, yhat=yhat, g=g, loss=loss)
    session.round += 1
    return yhat, session


def exp_step(log_X: np.ndarray, g: float, i: int, j: int,
             cfg: OmpConfig) -> tuple[np.ndarray, np.ndarray]:
    """The unprojected update Y = exp(log X - eta L_t) on the block stack,
    returned with log Y.

    L_t is +g at the queried pair of the upper block and -g at that of the
    lower block (on a non-symmetric class the lower block follows as
    S upper S): the step subtracts `_pair_term(off=eta g)` and exponentiates
    the stack with `matrix_exp`, one eigh through `linalg.spectrum` and one
    read of the exp-range rule. OmpConfig's eta G limit keeps every step
    from a feasible X inside the exp range; should the exponential refuse
    anyway (`matrix_exp`'s OverflowError), that is an InvariantViolation.
    """
    if log_X.shape != _block_shape(cfg):
        raise ValueError(f"exp_step: expected blocks of shape {_block_shape(cfg)}, "
                         f"got {log_X.shape}")
    log_Y = log_X - _pair_term(i, j, cfg, off=cfg.eta * g)
    try:
        return matrix_exp(log_Y), log_Y
    except OverflowError as exc:
        raise InvariantViolation(f"the step left the exp range: {exc}") from exc


def entry_index(i: int, j: int, m: int, n: int) -> tuple[int, int]:
    """The 0-based index (i - 1, j - 1) of the 1-based entry (i, j) of an
    m x n matrix; an entry outside [1..m] x [1..n] is an IndexError."""
    if not (1 <= i <= m and 1 <= j <= n):
        raise IndexError(f"entry ({i}, {j}) outside [1..{m}] x [1..{n}]")
    return i - 1, j - 1


def _pair(i: int, j: int, cfg: OmpConfig) -> tuple[int, int]:
    """0-based block coordinates (i - 1, j + q - 1) of the queried entry."""
    a, b = entry_index(i, j, cfg.m, cfg.n)
    return a, b + cfg.q


def _check_subgradient(g: float, cfg: OmpConfig):
    if abs(g) > cfg.G + 1e-12:
        raise ValueError(f"|g|={abs(g)} exceeds Lipschitz bound G={cfg.G}")
