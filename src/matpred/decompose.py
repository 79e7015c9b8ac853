"""Constructors and a validator for (beta, tau)-decompositions.

A decomposition certifies that the symmetrization of a structured matrix can
be written as P - N with both parts positive semidefinite, diagonals bounded
by beta, and trace sum bounded by tau. Three comparison classes get
canonical constructors here: cut matrices, bounded-trace-norm matrices, and
permutation / triangular matrices. The last two share one construction: the
comparison matrix of n ranks is its diagonal plus an all-ones block for each
dyadic pair of rank intervals, and each block adds one rank-one term to P and
two to N (n padded up to a power of two 2^k gives beta = k + 1).

Index conventions on the API surface are 1-based (cut members, permutation
values); storage is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DomainError, spectrum, sym_average, sym_block, symmetrize


@dataclass(frozen=True)
class Decomposition:
    """A certified pair (P, N) with its guaranteed bounds beta, tau."""

    P: np.ndarray
    N: np.ndarray
    beta: float
    tau: float

    @property
    def order(self) -> int:
        return self.P.shape[0]

    def realized_trace(self) -> float:
        """Tr(P) + Tr(N); may be smaller than the guaranteed tau."""
        return float(np.trace(self.P) + np.trace(self.N))


@dataclass(frozen=True)
class CutSet:
    """A subset A of graph nodes {1..n}, defining a cut."""

    n: int
    members: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"a cut needs n >= 1 nodes, got {self.n}")
        if not all(1 <= i <= self.n for i in self.members):
            raise ValueError("cut members must lie in 1..n")

    def sign_vector(self) -> np.ndarray:
        """+1 on members of A, -1 elsewhere."""
        w = -np.ones(self.n)
        for i in self.members:
            w[i - 1] = 1.0
        return w


@dataclass(frozen=True)
class Permutation:
    """A bijection pi on {1..n}; mapping[i-1] = pi(i)."""

    n: int
    mapping: tuple

    def __post_init__(self):
        if sorted(self.mapping) != list(range(1, self.n + 1)):
            raise ValueError("mapping is not a bijection on 1..n")

    def matrix(self) -> np.ndarray:
        """Permutation matrix P with P[i, pi(i)] = 1 (0-based)."""
        P = np.zeros((self.n, self.n))
        for i, v in enumerate(self.mapping):
            P[i, v - 1] = 1.0
        return P


@dataclass(frozen=True)
class ValidationReport:
    """Each residual of validate by name, and whether all are within tol."""

    residuals: dict
    passed: bool


def cut_matrix(c: CutSet) -> np.ndarray:
    """Entry 1 iff exactly one endpoint is in the cut set, -1 otherwise.

    Equals -w w.T for the +/-1 indicator vector w of the set.
    """
    w = c.sign_vector()
    return -np.outer(w, w)


def decompose_cut(c: CutSet) -> Decomposition:
    """(1, n)-decomposition of a cut matrix: P = 0, N = w w.T."""
    w = c.sign_vector()
    return Decomposition(P=np.zeros((c.n, c.n)), N=np.outer(w, w), beta=1.0, tau=float(c.n))


def decompose_trace_norm(W: np.ndarray) -> Decomposition:
    """Eigen-split decomposition of a matrix with entries in [-1, 1].

    P collects the nonnegative spectral part of sym(W) and N the negated
    negative part, giving beta = sqrt(p) and tau = Tr(P) + Tr(N) =
    trace_norm(sym(W)). That is 2 * trace_norm(W) when sym(W) is the block
    embedding, and trace_norm(W) for an exactly symmetric square W, which
    `symmetrize` leaves at its own order.
    """
    W = np.asarray(W, dtype=float)
    if np.max(np.abs(W)) > 1.0 + 1e-12:
        raise ValueError("decompose_trace_norm: entries must lie in [-1, 1]")
    S = symmetrize(W)
    lam, V = spectrum(S)
    pos = np.maximum(lam, 0.0)
    neg = np.maximum(-lam, 0.0)
    P = sym_average((V * pos) @ V.T)
    N = sym_average((V * neg) @ V.T)
    p = S.shape[0]
    return Decomposition(P=P, N=N, beta=float(np.sqrt(p)), tau=float(pos.sum() + neg.sum()))


def triangular(n: int) -> np.ndarray:
    """Upper triangular matrix of ones on and above the diagonal."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.triu(np.ones((n, n)))


def singular_values_T(n: int) -> np.ndarray:
    """Closed-form singular values 1 / (2 cos(k pi / (2n+1))), k = 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(1, n + 1)
    return 1.0 / (2.0 * np.cos(k * np.pi / (2 * n + 1)))


def _dyadic(ranks, k: int) -> Decomposition:
    """(k+1, 4 2^k (k+1))-decomposition of sym(W), W(i, j) = 1 iff ranks[i] <= ranks[j].

    The ranks are 0..n-1 in some order, n <= 2^k. W is its diagonal (n 1 x 1
    blocks) plus one all-ones block for each dyadic pair of rank intervals
    [r, r+h) x [r+h, r+2h), h = 1, 2, ..., 2^(k-1). With x the block's row
    indicator and y its column indicator shifted into sym(W)'s lower half,
    sym(x y.T) = (x+y)(x+y).T - x x.T - y y.T, so each block adds (x+y)(x+y).T
    to P and x x.T + y y.T to N. Each index lies in its diagonal block and in
    at most one block per level, so both diagonals are at most k + 1 and the
    trace sum at most 4n(k + 1). P and N are allocated before any block is
    listed.
    """
    n = len(ranks)
    try:
        P, N = np.zeros((2 * n, 2 * n)), np.zeros((2 * n, 2 * n))
    except ValueError as exc:  # numpy refuses a byte count beyond its index range
        raise MemoryError(f"Unable to allocate P and N of order {2 * n}") from exc
    at = np.argsort(ranks)  # at[q] is the index of rank q
    blocks = [(at[q:q + 1], n + at[q:q + 1]) for q in range(n)]
    for h in (2 ** j for j in range(k)):
        blocks += [(at[r:r + h], n + at[r + h:r + 2 * h]) for r in range(0, n, 2 * h)]
    for x, y in blocks:
        xy = np.concatenate([x, y])
        P[np.ix_(xy, xy)] += 1.0
        N[np.ix_(x, x)] += 1.0
        N[np.ix_(y, y)] += 1.0
    return Decomposition(P=P, N=N, beta=float(k + 1), tau=float(4 * 2 ** k * (k + 1)))


def decompose_triangular(k: int) -> Decomposition:
    """(k+1, 4n(k+1))-decomposition of sym(T_n) for n = 2^k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _dyadic(range(2 ** k), k)  # a range holds no array of 2^k ranks before P and N exist


def perm_matrix(pi: Permutation) -> np.ndarray:
    """The 0/1 comparison matrix: entry (i, j) is 1 iff pi(i) <= pi(j).

    The identity permutation yields the triangular ones matrix; in general
    W_pi = P_pi T P_pi.T.
    """
    vals = np.array(pi.mapping)
    return (vals[:, None] <= vals[None, :]).astype(float)


def padded_size(n: int) -> tuple[int, int]:
    """(n', k) with n' = 2^k the smallest power of two >= n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = (n - 1).bit_length()
    return 2 ** k, k


def decompose_permutation(pi: Permutation) -> Decomposition:
    """Decomposition of sym(W_pi), the dyadic construction on pi's ranks.

    With n padded up to n' = 2^k, the guaranteed bounds are those of the
    triangular class of order n': beta = k + 1 and tau = 4 n' (k + 1).
    """
    return _dyadic(np.array(pi.mapping) - 1, padded_size(pi.n)[1])


def hadamard(n: int) -> np.ndarray:
    """Sylvester-construction +/-1 Hadamard matrix, n a power of two."""
    if n < 1 or n & (n - 1):
        raise ValueError("n must be a power of two")
    H = np.ones((1, 1))
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def validate(d: Decomposition, W: np.ndarray, tol: float = 1e-8) -> ValidationReport:
    """Check all conditions of a (beta, tau)-decomposition against sym(W).

    sym(W) is W itself when W has the decomposition's order and the block
    embedding [[0, W], [W.T, 0]] otherwise. PSD violations are scaled by
    max(1, ||.||_inf) so the report is comparable across magnitudes; the
    report passes iff every residual is at most tol.
    """
    W = np.asarray(W, dtype=float)
    if not np.all(np.isfinite(W)):
        raise DomainError("validate: non-finite entries")
    S = W if W.shape == (d.order, d.order) else sym_block(W)
    if S.shape != (d.order, d.order):
        raise ValueError(f"validate: decomposition order {d.order} does not match matrix shape {W.shape}")

    def psd_violation(M):
        scale = max(1.0, float(np.max(np.abs(M))) if M.size else 1.0)
        return max(0.0, -float(np.min(np.linalg.eigvalsh(sym_average(M))))) / scale

    residuals = {
        "symmetry": max(float(np.max(np.abs(d.P - d.P.T))), float(np.max(np.abs(d.N - d.N.T)))),
        "psd_p": psd_violation(d.P),
        "psd_n": psd_violation(d.N),
        "diag_excess": max(0.0, float(max(np.max(np.diag(d.P)), np.max(np.diag(d.N))) - d.beta)),
        "trace_excess": max(0.0, d.realized_trace() - d.tau),
        "reconstruction": float(np.max(np.abs(d.P - d.N - S))),
    }
    return ValidationReport(residuals, all(v <= tol for v in residuals.values()))
