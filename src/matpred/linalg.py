"""Dense symmetric linear algebra.

Everything downstream (decompositions, the multiplicative-weights engine,
the entropy projection) runs through the handful of spectral primitives in
this module: symmetrization of rectangular matrices, eigendecomposition,
spectral matrix functions (exp / log), the trace norm, and the quantum
relative entropy.

Matrices are plain float ndarrays. `matrix_exp` returns an exactly
symmetric result by construction; the other spectral round-trips average
with the transpose, which removes the slow drift that otherwise
accumulates.

`spectrum` is the one entry point to the eigensolver: every eigh the
package takes (`matrix_exp`, `matrix_log`, `qre`, the trace-norm
decomposition and the projection's solver) runs through it, so every
spectrum is in ascending order. With `exp` it also returns the
exponential, unless `exp_overflows`, the one exp-range rule, flags the
spectrum; the rule is read once per spectrum, and each caller decides what
a refused exponential means.
"""

from __future__ import annotations

import math

import numpy as np

# Relative floor applied to eigenvalues before a matrix logarithm.  The
# projection can push eigenvalues to numerical zero and the iterates must
# stay inside log's domain.
LOG_FLOOR_REL = 1e-12
# exp(x) is finite for every x up to this.
_EXP_ARG_MAX = math.log(np.finfo(float).max)


def sym_average(M: np.ndarray) -> np.ndarray:
    """Canonical symmetric representative (M + M.T) / 2."""
    return 0.5 * (M + M.T)


def sym_block(W: np.ndarray) -> np.ndarray:
    """The (m+n) x (m+n) block embedding [[0, W], [W.T, 0]]."""
    W = np.asarray(W, dtype=float)
    m, n = W.shape
    S = np.zeros((m + n, m + n))
    S[:m, m:] = W
    S[m:, :m] = W.T
    return S


def symmetrize(W: np.ndarray) -> np.ndarray:
    """Symmetrize W: identity on exactly-symmetric square matrices,
    block embedding [[0, W], [W.T, 0]] otherwise."""
    W = np.asarray(W, dtype=float)
    if not np.all(np.isfinite(W)):
        raise ValueError("symmetrize: non-finite entries")
    if W.shape[0] == W.shape[1] and np.array_equal(W, W.T):
        return W.copy()
    return sym_block(W)


def spectrum(M: np.ndarray, exp: bool = False) -> tuple:
    """Eigendecomposition of an exactly symmetric matrix, or of each matrix
    of a stack of them (shape (..., d, d)): (lam, V) with ascending
    eigenvalues and M = V diag(lam) V^T.

    With `exp`, returns (lam, V, exp(M)), the exponential by
    `spectral_exp`'s arithmetic, or None in its place when `exp_overflows`
    flags lam. `eigh` reads one triangle of M, so M must be exactly
    symmetric. numpy's `eigh` is looked up on each call, so a wrapper set on
    `np.linalg` sees every call.
    """
    lam, V = np.linalg.eigh(M)
    if not exp:
        return lam, V
    return lam, V, None if exp_overflows(lam) else spectral_exp(lam, V)


def matrix_exp(M: np.ndarray) -> np.ndarray:
    """Matrix exponential of an exactly symmetric matrix, or of each matrix
    of a stack of them, by `spectrum`. A spectrum that `exp_overflows` is
    refused with OverflowError.
    """
    lam, _, X = spectrum(M, exp=True)
    if X is None:
        raise OverflowError(f"exp overflows: largest eigenvalue {lam.max():.6g}")
    return X


def spectral_exp(lam: np.ndarray, V: np.ndarray) -> np.ndarray:
    """exp(V diag(lam) V^T) from an eigendecomposition (or a stack of them)
    in hand: W W^T with W = V diag(exp(lam / 2)). numpy computes a product
    of a matrix with its own transpose as a symmetric rank-k update, so the
    result is exactly symmetric. It reads no exp-range rule: `spectrum`
    reads `exp_overflows` before it calls this, and the solver calls it only
    on a Newton iterate, whose spectrum has passed the rule or is the
    trace-closed shift of one that has."""
    W = V * np.exp(0.5 * lam)[..., None, :]
    return W @ np.swapaxes(W, -1, -2)


def exp_overflows(lam: np.ndarray) -> bool:
    """The exp-range rule: whether the exp of a symmetric matrix with
    eigenvalues lam, or of a stack of them (lam of shape (k, d)), may leave
    the float range. Its trace, summed over the stack, is at most lam.size
    e^max(lam), and every entry at most e^max(lam); the rule flags that
    bound past the largest float. An empty spectrum does not overflow."""
    # lam.flat[lam.argmax()] is lam.max() at half the cost on these short
    # arrays; the solver reads this rule about 25 times a gambling round.
    return lam.size > 0 and lam.flat[lam.argmax()] > _EXP_ARG_MAX - math.log(lam.size)


def matrix_log(M: np.ndarray) -> np.ndarray:
    """Matrix logarithm of a (nearly) positive definite symmetric matrix.

    Eigenvalues are raised to LOG_FLOOR_REL * max(1, lam_max) before
    taking logs.
    """
    lam, V = spectrum(sym_average(np.asarray(M, dtype=float)))
    eps = LOG_FLOOR_REL * max(1.0, float(lam[-1]) if lam.size else 1.0)
    return sym_average((V * np.log(np.maximum(lam, eps))) @ V.T)


def trace_norm(W: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(W, dtype=float), compute_uv=False).sum())


def inner(A: np.ndarray, B: np.ndarray) -> float:
    """Frobenius inner product A . B = sum_ij A(i,j) B(i,j)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"inner: order mismatch {A.shape} vs {B.shape}")
    return float(np.vdot(A, B))


def qre(X: np.ndarray, A: np.ndarray) -> float:
    """Quantum relative entropy Tr(X log X - X log A - X + A).

    X must be PSD (tiny negative eigenvalues are treated as zero, with the
    0 log 0 = 0 convention); A is floored to stay positive definite.
    """
    X = np.asarray(X, dtype=float)
    A = np.asarray(A, dtype=float)
    if X.shape != A.shape:
        raise ValueError(f"qre: order mismatch {X.shape} vs {A.shape}")
    lam = np.maximum(spectrum(sym_average(X))[0], 0.0)
    # 0 log 0 = 0: a zero eigenvalue is multiplied by log 1.
    tr_xlogx = float(np.sum(lam * np.log(np.where(lam > 0.0, lam, 1.0))))
    tr_xloga = inner(X, matrix_log(A))
    return tr_xlogx - tr_xloga - float(np.trace(X)) + float(np.trace(A))
