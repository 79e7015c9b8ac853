"""Bregman projection for online linear optimization over PSD matrices.

After an exponentiated-gradient step Y = exp(log X - eta L) (taken by
`omp.exp_step`, which uses the reduction's block structure), the iterate
is projected back onto a small linear-constraint polytope, using the dual
form of the quantum-relative-entropy projection: the projected point is
X* = exp(log Y - sum_j alpha_j A_j) with nonnegative duals alpha
maximizing -Tr(exp(log Y - sum alpha_j A_j)) - sum alpha_j b_j. Its
logarithm is known in closed form, so a caller that keeps log Y never
needs a matrix logarithm to take the next step. The projection works on
the full matrix and assumes no block structure. `satisfied` is its one
feasibility rule: it decides the early return for a feasible input and,
with complementary slackness, the stop; `omp_round` shares it to test the
step against K_t on the p x p blocks, and calls `project_qre` only when
that test fails.

The dual has at most a handful of variables, so it is solved by cyclic
coordinate ascent with scalar bisection; the trace constraint (A = I) has a
closed-form coordinate update. Duals live in [0, 3 tau] for constraints
with b >= 1; a homogeneous constraint (b < 1) gets a widened box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import inner, matrix_exp, matrix_log

# The dual solver's relative KKT tolerance and sweep cap (see project_qre).
PROJECTION_TOL = 1e-7
MAX_SWEEPS = 200


class ProjectionError(RuntimeError):
    """Dual solver failed to reach tolerance within the iteration cap."""


@dataclass(frozen=True)
class LinConstraint:
    """A linear constraint A . X <= b with symmetric A.

    The dual range analysis assumes b >= 1; constraints with smaller b are
    accepted but solved over a widened dual box (see project_qre).
    """

    A: np.ndarray
    b: float


@dataclass(frozen=True)
class ConstraintSet:
    """An ordered collection of linear constraints on matrices of one order.

    `tau` is the trace scale of the ambient problem and sets the dual search
    box [0, 3 tau].
    """

    constraints: tuple
    order: int
    tau: float

    def __post_init__(self):
        for c in self.constraints:
            if c.A.shape != (self.order, self.order):
                raise ValueError("constraint matrix order mismatch")


def satisfied(value: float, b: float) -> bool:
    """Whether a constraint value A . X <= b holds within the projection's
    tolerance PROJECTION_TOL * (1 + |b|)."""
    return value <= b + PROJECTION_TOL * (1.0 + abs(b))


def _dual_box(c: LinConstraint, tau: float, order: int) -> float:
    if c.b >= 1.0:
        return 3.0 * tau
    # Homogeneous constraints (b < 1) fall outside the b >= 1 range
    # argument; the exponential decay of the objective still keeps the
    # optimum finite, in a slightly larger box.
    return 3.0 * tau + np.log(max(3.0 * tau * order, 2.0))


def project_qre(Y: np.ndarray, cs: ConstraintSet) -> tuple[np.ndarray, np.ndarray]:
    """Quantum-relative-entropy projection of Y onto the polytope of cs.

    Y must be symmetric positive definite. Returns (X*, duals). When Y is
    already feasible it is returned as is with zero duals; otherwise
    X* = exp(log Y - sum alpha_j A_j) is positive definite, primal feasible
    and complementary slack, both within PROJECTION_TOL * (1 + |b_j|) per
    constraint. Only this second case takes log Y, with its eigenvalue
    floor. Raises ProjectionError after MAX_SWEEPS sweeps.
    """
    m = len(cs.constraints)
    alpha = np.zeros(m)
    if all(satisfied(inner(c.A, Y), c.b) for c in cs.constraints):
        return Y, alpha

    logY = matrix_log(Y)
    identity = np.eye(cs.order)
    is_identity = [np.array_equal(c.A, identity) for c in cs.constraints]
    boxes = [_dual_box(c, cs.tau, cs.order) for c in cs.constraints]

    weighted = np.zeros_like(logY)
    for _ in range(MAX_SWEEPS):
        for j, c in enumerate(cs.constraints):
            B = logY - (weighted - alpha[j] * c.A)
            if is_identity[j]:
                # exp(B - a I) = e^{-a} exp(B): the coordinate solves in
                # closed form.
                tr = float(np.trace(matrix_exp(B)))
                new = 0.0 if tr <= c.b else min(float(np.log(tr / c.b)), boxes[j])
            else:
                new = _bisect_coordinate(B, c, boxes[j])
            weighted = weighted + (new - alpha[j]) * c.A
            alpha[j] = new
        X = matrix_exp(logY - weighted)
        vals = np.array([inner(c.A, X) for c in cs.constraints])
        slack = max(alpha[j] * (c.b - vals[j]) / (1.0 + abs(c.b))
                    for j, c in enumerate(cs.constraints))
        if all(satisfied(v, c.b) for v, c in zip(vals, cs.constraints)) and slack <= PROJECTION_TOL:
            return X, alpha
    raise ProjectionError(
        f"projection did not converge: constraint values {vals}, "
        f"complementary slackness {slack:.3e}, duals {alpha}"
    )


def _bisect_coordinate(B: np.ndarray, c: LinConstraint, hi: float) -> float:
    """Solve A . exp(B - a A) = b for a in [0, hi]; the gradient is
    monotone decreasing in a, so plain bisection applies."""

    def g(a):
        return inner(c.A, matrix_exp(B - a * c.A)) - c.b

    gtol = 0.1 * PROJECTION_TOL * max(1.0, abs(c.b))
    if g(0.0) <= gtol:
        return 0.0
    if g(hi) > 0.0:
        return hi  # box edge; final KKT check reports if this is a failure
    lo_a, hi_a = 0.0, hi
    for _ in range(80):
        mid = 0.5 * (lo_a + hi_a)
        gm = g(mid)
        if abs(gm) <= gtol:
            return mid
        if gm > 0.0:
            lo_a = mid
        else:
            hi_a = mid
        if hi_a - lo_a <= 1e-14 * max(1.0, hi):
            break
    return 0.5 * (lo_a + hi_a)
