"""The simulator's numeric kernels, in NumPy.

Each kernel works on a stack of systems: the leading axes are batch axes
and the last two hold one matrix, so a whole chunk of (trial, SNR) pairs
goes through LAPACK in one call. The 2-D forms evaluate a single system
through the same code.
"""

from __future__ import annotations

import numpy as np

from .errors import DoflabError, GramOverflow, SingularCovariance

__all__ = [
    "backend",
    "logdet_rate_bits",
    "logdet_rate_bits_stacked",
    "numerical_rank",
    "numerical_rank_stacked",
    "white_rate_bits_stacked",
    "whiten_stacked",
]

backend = "numpy"


def _positive_cholesky(stack: np.ndarray) -> np.ndarray | None:
    """Cholesky factors of a stack, or None unless every matrix has one with
    positive pivots (a non-finite matrix has none)."""
    try:
        chol = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return None
    return chol if np.all(np.diagonal(chol, axis1=-2, axis2=-1).real > 0) else None


def _cholesky(stack: np.ndarray, error: type[DoflabError], message: str) -> np.ndarray:
    """Cholesky factors of a stack of Hermitian matrices (..., n, n).

    Raises ``error(message)`` unless every matrix has one with positive
    pivots; its ``index`` is the flat batch index of the first that has not.
    """
    chol = _positive_cholesky(stack)
    if chol is None:
        exc = error(message)
        flat = stack.reshape((-1,) + stack.shape[-2:])
        exc.index = next((i for i, one in enumerate(flat) if _positive_cholesky(one) is None), 0)
        raise exc
    return chol


def whiten_stacked(g: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """L^{-1} G for each G (..., m, k) and Hermitian positive definite Sigma
    (..., m, m) with Cholesky factor L, so that ``I + W^H W`` is the rate
    Gram matrix ``I + G^H Sigma^{-1} G``.

    Raises ``SingularCovariance`` if any Sigma of the stack is not positive
    definite (one with a non-finite entry in its lower triangle, the part
    the factorization reads, counts as not); its ``index`` is the flat
    batch index of the first.
    """
    chol = _cholesky(sigma, SingularCovariance, "noise covariance is not positive definite")
    return np.linalg.solve(chol, g)


def white_rate_bits_stacked(white: np.ndarray) -> np.ndarray:
    """log2 det(I + W^H W) for each whitened system W (..., m, k): the rate
    in bits of y = W s + n with unit-power symbols and white unit noise,
    from the Cholesky diagonal of the Gram matrix ``I + W^H W``.

    The Gram matrix is positive definite in exact arithmetic. Raises
    ``GramOverflow`` for the first (flat batch ``index``) that is not in
    floating point: forming it squares the condition number of W, so at
    high SNR rounding can lose its smallest eigenvalues, and at extreme SNR
    its entries overflow.
    """
    m, k = white.shape[-2:]
    if m == 0 or k == 0:
        return np.zeros(white.shape[:-2])
    gram = np.eye(k, dtype=np.complex128) + np.swapaxes(white.conj(), -1, -2) @ white
    chol = _cholesky(
        gram, GramOverflow,
        "rate Gram matrix I + G^H Sigma^-1 G is not positive definite in floating point "
        "(SNR too high)",
    )
    return 2.0 * np.sum(np.log2(np.diagonal(chol, axis1=-2, axis2=-1).real), axis=-1)


def logdet_rate_bits_stacked(g: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """log2 det(I + G^H Sigma^{-1} G) for each complex G (..., m, k) and
    Hermitian positive definite Sigma (..., m, m): the mutual information in
    bits of y = G s + n with unit-power symbols and noise covariance Sigma.

    The composition of ``whiten_stacked`` and ``white_rate_bits_stacked``,
    which raise ``SingularCovariance`` and ``GramOverflow``.
    """
    g = np.asarray(g, dtype=np.complex128)
    sigma = np.asarray(sigma, dtype=np.complex128)
    if g.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {g.shape}")
    m, k = g.shape[-2:]
    if sigma.shape != g.shape[:-2] + (m, m):
        raise ValueError(f"covariance shape {sigma.shape} does not match {m} rows")
    if m == 0 or k == 0:
        return np.zeros(g.shape[:-2])
    return white_rate_bits_stacked(whiten_stacked(g, sigma))


def numerical_rank_stacked(a: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Per matrix of the stack (..., m, n): singular values above rtol times
    the largest one."""
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[-2] == 0 or a.shape[-1] == 0:
        return np.zeros(a.shape[:-2], dtype=np.int64)
    s = np.linalg.svd(a, compute_uv=False)
    return np.count_nonzero(s > rtol * s[..., :1], axis=-1)


def logdet_rate_bits(g: np.ndarray, sigma: np.ndarray) -> float:
    """``logdet_rate_bits_stacked`` of a single system G (m, k), Sigma (m, m)."""
    return float(logdet_rate_bits_stacked(np.asarray(g)[None], np.asarray(sigma)[None])[0])


def numerical_rank(a: np.ndarray, rtol: float = 1e-9) -> int:
    """``numerical_rank_stacked`` of a single matrix."""
    return int(numerical_rank_stacked(np.asarray(a)[None], rtol)[0])
