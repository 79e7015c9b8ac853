"""Reduction from online matrix prediction to OLO.

A session maintains a 2p x 2p PSD iterate whose upper-left and lower-right
halves carry the positive and negative parts of the predicted matrix. Each
round proceeds in the order: receive the queried entry, project the pending
exponentiated step onto the four-constraint polytope for that entry, read
off the prediction, evaluate the loss, and stash the next exponentiated
step. The session also carries the pending step's logarithm: the
projection subtracts sum_j alpha_j A_j from it and the step subtracts
eta L, so the step takes no matrix logarithm.

Every loss matrix and every constraint acts on the two p x p diagonal
blocks alike, so the log iterate stays diag(A, B); on a non-symmetric
class B = S A S with S = diag(1_m, -1_n). The step (`exp_step`)
exponentiates the p x p blocks alone: one of them on a non-symmetric
class, both on a symmetric one. The projection works at order 2p.

Entry indices on the API surface are 1-based, matching the row/column
numbering of the predicted matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decompose import Decomposition
from .linalg import matrix_exp
from .mmw import ConstraintSet, LinConstraint, project_qre

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
        if not (self.G > 0 and self.tau > 0):
            raise ValueError(f"G and tau must be > 0, got G={self.G}, tau={self.tau}")
        if self.beta < 1.0:
            raise ValueError("beta must be >= 1")
        if self.symmetric_class and self.m != self.n:
            raise ValueError("symmetric class requires m == n")
        if self.tau > 2 * self.p * self.beta + 1e-9:
            raise ValueError(
                f"tau={self.tau} exceeds 2*p*beta={2 * self.p * self.beta}; "
                "the initial iterate would be infeasible"
            )
        if self.eta is None:
            object.__setattr__(self, "eta", eta_default(self.tau, self.p, self.beta, self.G, self.T))
        elif self.eta <= 0:
            raise ValueError("eta must be > 0")

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
    pending: np.ndarray  # exponentiated step awaiting projection
    log_pending: np.ndarray  # its logarithm
    round: int = 1
    last_event: LossEvent | None = None
    max_eta_norm: float = 0.0  # max eta * ||L_t|| observed


def new_session(cfg: OmpConfig) -> OmpSession:
    N = 2 * cfg.p
    return OmpSession(config=cfg, pending=(cfg.tau / N) * np.eye(N),
                      log_pending=math.log(cfg.tau / N) * np.eye(N))


def predict(X: np.ndarray, i: int, j: int, cfg: OmpConfig) -> float:
    """Read the prediction X(i, j+q) - X(p+i, p+j+q) (1-based indices)."""
    _check_indices(i, j, cfg)
    p, q = cfg.p, cfg.q
    return float(X[i - 1, j + q - 1] - X[p + i - 1, p + j + q - 1])


def loss_matrix(g: float, i: int, j: int, cfg: OmpConfig) -> np.ndarray:
    """The 4-sparse symmetric loss matrix: +g at (i, j+q) and its mirror,
    -g at the shifted pair. Traceless, with Tr(L^2) = 4 g^2 and spectral
    norm |g|."""
    _check_indices(i, j, cfg)
    if abs(g) > cfg.G + 1e-12:
        raise ValueError(f"|g|={abs(g)} exceeds Lipschitz bound G={cfg.G}")
    p, q = cfg.p, cfg.q
    L = np.zeros((2 * p, 2 * p))
    L[i - 1, j + q - 1] = L[j + q - 1, i - 1] = g
    L[p + i - 1, p + j + q - 1] = L[p + j + q - 1, p + i - 1] = -g
    return L


def constraints_Kt(i: int, j: int, cfg: OmpConfig) -> ConstraintSet:
    """The four-constraint polytope for the queried entry: diagonal sum
    <= 4 beta, prediction within range, trace <= tau."""
    _check_indices(i, j, cfg)
    p, q = cfg.p, cfg.q
    N = 2 * p
    lo, hi = cfg.prediction_range

    D = np.zeros((N, N))
    for idx in (i - 1, j + q - 1, p + i - 1, p + j + q - 1):
        D[idx, idx] = 1.0

    E = np.zeros((N, N))
    E[i - 1, j + q - 1] = E[j + q - 1, i - 1] = 0.5
    E[p + i - 1, p + j + q - 1] = E[p + j + q - 1, p + i - 1] = -0.5

    return ConstraintSet(
        constraints=(
            LinConstraint(A=D, b=4.0 * cfg.beta),
            LinConstraint(A=E, b=float(hi)),
            LinConstraint(A=-E, b=float(-lo)),
            LinConstraint(A=np.eye(N), b=float(cfg.tau)),
        ),
        order=N,
        tau=cfg.tau,
    )


def omp_round(session: OmpSession, i: int, j: int, loss_fn) -> tuple[float, OmpSession]:
    """Play one round: project, predict, pay, step.

    `loss_fn` provides value(yhat) and subgradient(yhat). Returns the
    prediction and the updated session.
    """
    cfg = session.config
    if session.round > cfg.T:
        raise InvariantViolation(f"round {session.round} exceeds horizon T={cfg.T}")
    if cfg.symmetric_class and i == j:
        # K_t and L_t assume two distinct mirrored entries; the diagonal of
        # a symmetric class member (a cut matrix's is -1) is not predicted.
        raise IndexError(f"entry ({i}, {j}) is on the diagonal of a symmetric class")
    cs = constraints_Kt(i, j, cfg)
    X, duals = project_qre(session.pending, cs)
    yhat = predict(X, i, j, cfg)
    lo, hi = cfg.prediction_range
    if yhat < lo - CLAMP_SLACK or yhat > hi + CLAMP_SLACK:
        raise InvariantViolation(f"prediction {yhat} outside range [{lo}, {hi}]")
    yhat = min(max(yhat, lo), hi)

    loss = float(loss_fn.value(yhat))
    g = float(loss_fn.subgradient(yhat))
    L = loss_matrix(g, i, j, cfg)
    session.max_eta_norm = max(session.max_eta_norm, cfg.eta * abs(g))

    log_X = session.log_pending - sum(a * c.A for a, c in zip(duals, cs.constraints) if a)
    session.pending, session.log_pending = exp_step(log_X, L, cfg)
    session.last_event = LossEvent(t=session.round, i=i, j=j, yhat=yhat, g=g, loss=loss)
    session.round += 1
    return yhat, session


def exp_step(log_X: np.ndarray, L: np.ndarray, cfg: OmpConfig) -> tuple[np.ndarray, np.ndarray]:
    """The unprojected update Y = exp(log X - eta L), returned with log Y.

    log X must have the reduction's block form diag(A, B), with, on a
    non-symmetric class, B = S A S for S = diag(1_m, -1_n); every loss
    matrix and every constraint of K_t keeps that form. So Y is
    diag(exp A', exp B') for the blocks A', B' of log Y, and on a
    non-symmetric class exp B' = S exp(A') S: the step exponentiates one
    p x p block, or both on a symmetric class.
    """
    p = cfg.p
    log_Y = log_X - cfg.eta * L
    if log_Y.shape != (2 * p, 2 * p):
        raise ValueError(f"exp_step: expected order {2 * p}, got {log_Y.shape}")
    Y = np.zeros_like(log_Y)
    Y[:p, :p] = upper = matrix_exp(log_Y[:p, :p])
    if cfg.symmetric_class:
        Y[p:, p:] = matrix_exp(log_Y[p:, p:])
    else:
        s = np.concatenate((np.ones(cfg.m), -np.ones(cfg.n)))
        Y[p:, p:] = s[:, None] * upper * s
    return Y, log_Y


def embed_phi(d: Decomposition) -> np.ndarray:
    """Block-diagonal embedding diag(P, N) of a decomposition; the feasible
    comparator point in the OLO problem."""
    p = d.order
    Phi = np.zeros((2 * p, 2 * p))
    Phi[:p, :p] = d.P
    Phi[p:, p:] = d.N
    return Phi


def _check_indices(i: int, j: int, cfg: OmpConfig):
    if not (1 <= i <= cfg.m and 1 <= j <= cfg.n):
        raise IndexError(f"entry ({i}, {j}) outside [1..{cfg.m}] x [1..{cfg.n}]")
