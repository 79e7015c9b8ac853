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

The dual has at most a handful of variables. One sweep starts it: each
non-trace coordinate is tested at zero, in order and with an eigh of its
own, and a trace coordinate (A = I) closes on the way, in closed form,
exp(B - a I) = e^{-a} exp(B) (the trace normalisation of Tsuda, Raetsch &
Warmuth, JMLR 2005), which also gives the sweep's iterate when the trace
is its last coordinate. The first coordinate violated at zero ends the
tests. When a later one is violated on that same exponential too, or the
trace closed on its spectrum meets the violated one by itself, no dual is
bisected: the trace closes on that spectrum, whose eigh is Newton's first
iterate. Otherwise that lone coordinate is bisected until its own KKT pair
holds, from the bracket [0, 1], whose upper end doubles until it holds
the root, so no dual is capped; nothing after it is tested, and the trace
closes on the spectrum bisection stopped on. When one dual carries the
projection, as in every active CF and max-cut projection at the default
eta, the sweep meets the KKT test and ends it. Otherwise projected Newton
(Bertsekas, SIAM J. Control Optim. 20, 1982) finishes on all duals jointly
from the sweep's point. Each iterate takes one eigh of log Y - sum alpha_j
A_j, which gives X, the gradient b - A . X and the Hessian by
Daleckii-Krein divided differences (Higham, Functions of Matrices, 2008,
ch. 3); the box QP of the Newton model is solved exactly over every free
set, and an Armijo search on the dual objective takes the step. Coupled
duals, which a cyclic sweep only creeps along, so converge in a few
iterations.

Every eigh the solver takes goes through `linalg.spectrum`, which returns
the exponential with the spectrum where the solver needs it, and None in
its place when `linalg.exp_overflows` flags the spectrum; the rule is read
once per spectrum. No exp is taken of a flagged spectrum: the sweep raises
ProjectionError, bisection reads such a point as beyond its root, and the
line search, which takes sum e^lam and not the matrix, reads the rule
itself and sees an infinite dual objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import exp_overflows, inner, matrix_log, spectral_exp, spectrum

# The dual solver's relative KKT tolerance and its cap on Newton iterations
# after the sweep (see project_qre_log).
PROJECTION_TOL = 1e-7
MAX_NEWTON = 50


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
    feasible Y: the caller tests feasibility first. The sweep tests each
    non-trace coordinate at zero, closing a trace coordinate on the way,
    until one is violated. If a later one is violated on that same
    exponential too, or the trace alone meets it, the trace closes on that
    spectrum. Otherwise that lone coordinate is bisected, and the trace
    closes on bisection's last spectrum. Projected Newton runs only if the
    KKT test then fails, and raises ProjectionError after MAX_NEWTON
    iterations.
    """
    b = np.array([c.b for c in cs.constraints])
    alpha = np.zeros(len(b))
    identity = np.eye(len(logY))
    is_identity = [np.array_equal(c.A, identity) for c in cs.constraints]

    weighted = np.zeros_like(logY)
    for j, c in enumerate(cs.constraints):
        # Each coordinate takes its own eigh, even where weighted has not
        # moved since the last one: CF keeps four eigh per projection until
        # ROADMAP item 4.
        lam, V, X = _sweep_spectrum(logY - weighted)
        if is_identity[j]:
            # exp(B - a I) = e^{-a} exp(B): the coordinate solves in
            # closed form.
            tr = float(np.trace(X))
            alpha[j] = 0.0 if tr <= c.b else float(np.log(tr / c.b))
            weighted = weighted + alpha[j] * c.A
        elif not satisfied(inner(c.A, X), c.b):
            # The first coordinate violated at zero. Unless the trace alone
            # meets it, or a later one is violated on this exponential too,
            # it is bisected; otherwise the trace closes on this spectrum
            # and a bisected dual would only be Newton's first guess.
            closed = alpha.copy()
            shift = _close_trace(lam, closed, b, is_identity)
            later = (d for d, t in zip(cs.constraints[j + 1:], is_identity[j + 1:]) if not t)
            if satisfied(np.exp(-shift) * inner(c.A, X), c.b) or not all(
                    satisfied(inner(d.A, X), d.b) for d in later):
                alpha = closed
            else:
                alpha[j], lam, V, X = _bisect_coordinate(logY - weighted, c)
                shift = _close_trace(lam, alpha, b, is_identity)
            break
    else:
        # No coordinate is violated at zero: the last spectrum, shifted by
        # the last dual (the trace's when it comes last), is the iterate.
        shift = alpha[-1]
    lam, X = lam - shift, np.exp(-shift) * X
    vals = np.array([inner(c.A, X) for c in cs.constraints])
    if _converged(vals, alpha, b):
        return X, alpha
    return _newton(logY, cs, alpha, lam, V)


def _converged(vals: np.ndarray, alpha: np.ndarray, b: np.ndarray) -> bool:
    """The solver's stop: every constraint `satisfied` and complementary
    slackness within PROJECTION_TOL."""
    return all(map(satisfied, vals, b)) and _slackness(vals, alpha, b) <= PROJECTION_TOL


def _slackness(vals: np.ndarray, alpha: np.ndarray, b: np.ndarray) -> float:
    """The largest alpha_j (b_j - A_j . X) / (1 + |b_j|)."""
    return float(np.max(alpha * (b - vals) / (1.0 + np.abs(b))))


def _newton(logY: np.ndarray, cs: ConstraintSet, alpha: np.ndarray,
            lam: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projected Newton on the dual F(alpha) = Tr exp(logY - alpha . A) +
    alpha . b over alpha >= 0, from alpha, where logY - alpha . A = V
    diag(lam) V^T, A . X <= b being the constraints of cs."""
    A = np.array([c.A for c in cs.constraints])
    b = np.array([c.b for c in cs.constraints])
    flat = A.reshape(len(A), -1)
    F = np.exp(lam).sum() + alpha @ b
    for _ in range(MAX_NEWTON):
        # Each A_j in the iterate's eigenbasis: A_j . X is its diagonal
        # against exp(lam).
        M = V.T @ A @ V
        vals = M.diagonal(axis1=1, axis2=2) @ np.exp(lam)
        if _converged(vals, alpha, b):
            return spectral_exp(lam, V), alpha
        grad = b - vals
        Mf = M.reshape(len(A), -1)
        H = (Mf * _exp_divided_differences(lam).reshape(-1)) @ Mf.T
        d = _box_newton_step(0.5 * (H + H.T), grad, alpha)
        decrease = grad @ d
        # Once the predicted decrease is below F's round-off, Armijo can no
        # longer tell a step from noise: take the full step.
        roundoff = abs(decrease) <= 1e-11 * (1.0 + abs(F))
        t = 1.0
        for _ in range(64):
            trial = alpha + t * d
            lam_t, V_t = spectrum(logY - (trial @ flat).reshape(logY.shape))
            if not exp_overflows(lam_t):
                F_t = np.exp(lam_t).sum() + trial @ b
                if roundoff or F_t <= F + 1e-4 * t * decrease:
                    break
            t *= 0.5
        else:
            raise ProjectionError(f"projected Newton line search failed at duals {alpha}")
        alpha, lam, V, F = trial, lam_t, V_t, F_t
    raise ProjectionError(
        f"projection did not converge: constraint values {vals}, "
        f"complementary slackness {_slackness(vals, alpha, b):.3e}, duals {alpha}"
    )


def _exp_divided_differences(lam: np.ndarray) -> np.ndarray:
    """(e^lam_p - e^lam_q) / (lam_p - lam_q), and e^lam_p where they are
    equal, as e^max(lam_p, lam_q) (1 - e^-|gap|) / |gap|: no exp overflows
    and close eigenvalues lose no digits."""
    gap = np.abs(lam[:, None] - lam[None, :])
    ratio = np.where(gap > 0.0, -np.expm1(-gap) / np.where(gap > 0.0, gap, 1.0), 1.0)
    return np.exp(np.maximum(lam[:, None], lam[None, :])) * ratio


def _box_newton_step(H: np.ndarray, g: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The step d minimizing g . d + d . H d / 2 subject to alpha + d >= 0.

    Each choice of free coordinates, the others going to 0, has one
    stationary point; the feasible one of least model value is the box
    optimum. One eigh solves every free set's system at once, each embedded
    with a unit block on its fixed coordinates. Its eigenvalue floor damps
    the singular directions (E and -E are collinear, and at p = 2 so are D
    and I): a step along one leaves the box, so that free set loses.
    """
    k = len(g)
    free = (np.arange(2 ** k)[:, None] >> np.arange(k) & 1).astype(bool)
    fixed_step = np.where(free, 0.0, -alpha)
    rhs = np.where(free, g + fixed_step @ H, 0.0)
    scale = H.diagonal().max()
    systems = (np.where(free[:, :, None] & free[:, None, :], H, 0.0)
               + scale * np.eye(k) * ~free[:, None, :])
    w, U = spectrum(systems)
    w = np.maximum(w, 1e-12 * scale)
    sol = U @ ((np.swapaxes(U, 1, 2) @ rhs[..., None]) / w[..., None])
    steps = np.where(free, -sol[..., 0], fixed_step)
    model = steps @ g + 0.5 * np.sum((steps @ H) * steps, axis=1)
    model[(alpha + steps < 0.0).any(axis=1)] = np.inf
    return steps[np.argmin(model)]


def _sweep_spectrum(B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`spectrum(B, exp=True)` for the sweep, which has no use for a refused
    exponential: it raises ProjectionError."""
    lam, V, X = spectrum(B, exp=True)
    if X is None:
        raise ProjectionError(f"exp overflows: largest eigenvalue {lam[-1]:.6g}")
    return lam, V, X


def _close_trace(lam: np.ndarray, alpha: np.ndarray, b: np.ndarray, is_identity: list) -> float:
    """Close each trace coordinate on the spectrum lam of the iterate, in
    place in alpha, and return the total shift a: exp(B - a I) has trace
    e^{-a} sum e^lam."""
    total = 0.0
    for t in np.flatnonzero(is_identity):
        shift = max(-alpha[t], float(np.log(np.exp(lam - total).sum() / b[t])))
        alpha[t] += shift
        total += shift
    return total


def _coordinate_value(B: np.ndarray, c: LinConstraint, a: float) -> tuple:
    """(A . X, (lam, V, X)) at X = exp(B - a A), one coordinate's
    constraint value at dual a and the spectrum it was read from. A point
    whose exp `spectrum` refuses lies beyond the coordinate's root (the
    value decreases in a), so its value reads -inf."""
    point = spectrum(B - a * c.A, exp=True)
    return -np.inf if point[2] is None else inner(c.A, point[2]), point


def _bisect_coordinate(B: np.ndarray, c: LinConstraint) -> tuple:
    """Solve A . exp(B - a A) = b for a > 0, a coordinate violated at zero,
    starting from the bracket [0, 1], and return (a, lam, V, X), the
    spectrum and exponential of B - a A. The value is monotone decreasing
    in a: hi doubles until the value there is <= b, then plain bisection
    applies. A value still above b after 64 doublings leaves the root at
    hi; the final KKT check reports if this is a failure.
    A midpoint a is taken, with the spectrum its test read, once the
    coordinate's own KKT pair holds for a positive dual: |A . X - b| and
    the slackness a |A . X - b| both within PROJECTION_TOL (1 + |b|), the
    tolerance of the solver's stop. When the bracket closes first, the
    midpoint takes a spectrum of its own, and a refused exp there raises
    ProjectionError."""
    tol = PROJECTION_TOL * (1.0 + abs(c.b))
    hi = 1.0
    while hi < 2.0 ** 64 and _coordinate_value(B, c, hi)[0] > c.b:
        hi *= 2.0
    lo_a, hi_a = 0.0, hi
    for _ in range(80):
        mid = 0.5 * (lo_a + hi_a)
        value, point = _coordinate_value(B, c, mid)
        if abs(value - c.b) * max(1.0, mid) <= tol:
            return (mid, *point)
        lo_a, hi_a = (mid, hi_a) if value > c.b else (lo_a, mid)
        if hi_a - lo_a <= 1e-14 * hi:
            break
    mid = 0.5 * (lo_a + hi_a)
    return (mid, *_sweep_spectrum(B - mid * c.A))
