"""Bregman projection for online linear optimization over PSD matrices.

After an exponentiated-gradient step Y = exp(log X - eta L) (taken by
`omp.exp_step`, which uses the reduction's block structure), the iterate
is projected back onto a small linear-constraint polytope, using the dual
form of the quantum-relative-entropy projection: the projected point is
X* = exp(log Y - sum_j alpha_j A_j) with nonnegative duals alpha
maximizing -Tr(exp(log Y - sum alpha_j A_j)) - sum alpha_j b_j. Its
logarithm is known in closed form, so a caller that keeps log Y never
needs a matrix logarithm. The projection works on the full matrix and
assumes no block structure. It has two entries: `project_qre_log`, the
solver, takes log Y, and `project_qre` takes a dense Y, returns it as is
when it is feasible and otherwise solves from its (floored) matrix
logarithm. `omp_round` keeps log Y, so it calls the solver directly, and
only after its own block test has rejected the step. `satisfied` is the
one feasibility rule: it decides that block test, the dense entry's early
return and, with complementary slackness, the solver's stop.

The dual has at most a handful of variables, so it is solved by cyclic
coordinate ascent with scalar bisection; the trace constraint (A = I) has a
closed-form coordinate update, exp(B - a I) = e^{-a} exp(B) (the trace
normalisation of Tsuda, Raetsch & Warmuth, JMLR 2005), which also gives
the sweep's iterate when the trace is its last coordinate. Bisection starts
from the bracket [0, 1] and doubles its upper end until it holds the root,
so no dual is capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import inner, matrix_exp, matrix_log

# The dual solver's relative KKT tolerance and sweep cap (see project_qre_log).
PROJECTION_TOL = 1e-7
MAX_SWEEPS = 200


class ProjectionError(RuntimeError):
    """Dual solver failed to reach tolerance within the iteration cap."""


@dataclass(frozen=True)
class LinConstraint:
    """A linear constraint A . X <= b with symmetric A and finite b."""

    A: np.ndarray
    b: float

    def __post_init__(self):
        # eigh reads one triangle of B - a A, so a non-symmetric A would be
        # projected against that triangle, not against sym(A).
        if not (self.A.ndim == 2 and self.A.shape == self.A.T.shape
                and (self.A == self.A.T).all() and math.isfinite(self.b)):
            raise ValueError(f"constraint A . X <= b needs a symmetric A and a finite b, got b={self.b}")


@dataclass(frozen=True)
class ConstraintSet:
    """A nonempty ordered collection of linear constraints on matrices of one
    order.

    `tau` is the trace bound of the ambient problem; the solver does not
    read it.
    """

    constraints: tuple
    tau: float

    def __post_init__(self):
        if len({c.A.shape for c in self.constraints}) != 1:
            raise ValueError("a constraint set needs one or more constraints of one order")

    @property
    def order(self) -> int:
        """The common order of the constraint matrices."""
        return len(self.constraints[0].A)


def satisfied(value: float, b: float) -> bool:
    """Whether a constraint value A . X <= b holds within the projection's
    tolerance PROJECTION_TOL * (1 + |b|)."""
    return value <= b + PROJECTION_TOL * (1.0 + abs(b))


def project_qre(Y: np.ndarray, cs: ConstraintSet) -> tuple[np.ndarray, np.ndarray]:
    """Quantum-relative-entropy projection of a dense Y onto the polytope of cs.

    Y must be symmetric positive definite. Returns (X*, duals). When Y is
    already feasible it is returned as is with zero duals; otherwise this
    is `project_qre_log(log Y, cs)`, and only then is log Y taken, with its
    eigenvalue floor.
    """
    if all(satisfied(inner(c.A, Y), c.b) for c in cs.constraints):
        return Y, np.zeros(len(cs.constraints))
    return project_qre_log(matrix_log(Y), cs)


def project_qre_log(logY: np.ndarray, cs: ConstraintSet) -> tuple[np.ndarray, np.ndarray]:
    """Quantum-relative-entropy projection of Y = exp(logY) onto the
    polytope of cs, from its exactly symmetric logarithm.

    Returns (X*, duals): X* = exp(logY - sum alpha_j A_j) is positive
    definite, primal feasible and complementary slack, both within
    PROJECTION_TOL * (1 + |b_j|) per constraint. There is no shortcut for a
    feasible Y: the caller tests feasibility first. Raises ProjectionError
    after MAX_SWEEPS sweeps.
    """
    alpha = np.zeros(len(cs.constraints))
    identity = np.eye(len(logY))
    is_identity = [np.array_equal(c.A, identity) for c in cs.constraints]

    weighted = np.zeros_like(logY)
    for _ in range(MAX_SWEEPS):
        for j, c in enumerate(cs.constraints):
            B = logY - (weighted - alpha[j] * c.A)
            if is_identity[j]:
                # exp(B - a I) = e^{-a} exp(B): the coordinate solves in
                # closed form.
                exp_B = matrix_exp(B)
                tr = float(np.trace(exp_B))
                new = 0.0 if tr <= c.b else float(np.log(tr / c.b))
            else:
                new = _bisect_coordinate(B, c)
            weighted = weighted + (new - alpha[j]) * c.A
            alpha[j] = new
        if is_identity[-1]:
            # The sweep ended on the trace: logY - weighted is its B - a I.
            X = np.exp(-alpha[-1]) * exp_B
        else:
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


def _bisect_coordinate(B: np.ndarray, c: LinConstraint) -> float:
    """Solve A . exp(B - a A) = b for a >= 0, starting from the bracket
    [0, 1]. The gradient is monotone decreasing in a: hi doubles until
    the gradient there is <= 0, or not finite (exp overflowed), then plain
    bisection applies. A gradient still positive after 64 doublings leaves
    the root at hi; the final KKT check reports if this is a failure.
    A midpoint a is taken once |g| max(1, a) <= gtol: complementary
    slackness weighs the gradient by the dual, so a dual above 1 needs a
    gradient that much smaller."""

    def g(a):
        return inner(c.A, matrix_exp(B - a * c.A)) - c.b

    gtol = 0.1 * PROJECTION_TOL * max(1.0, abs(c.b))
    if g(0.0) <= gtol:
        return 0.0
    hi = 1.0
    while hi < 2.0 ** 64 and 0.0 < g(hi) < np.inf:
        hi *= 2.0
    lo_a, hi_a = 0.0, hi
    for _ in range(80):
        mid = 0.5 * (lo_a + hi_a)
        gm = g(mid)
        if abs(gm) * max(1.0, mid) <= gtol:
            return mid
        if gm > 0.0:
            lo_a = mid
        else:
            hi_a = mid
        if hi_a - lo_a <= 1e-14 * hi:
            break
    return 0.5 * (lo_a + hi_a)
