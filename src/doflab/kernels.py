"""The simulator's numeric kernels, in NumPy.

Each kernel works on a stack of systems: the leading axes are batch axes
and the last two hold one matrix, so a whole chunk of (trial, SNR) pairs
goes through LAPACK in one call. The slot kernels take a system whose own
rows are block diagonal by slot as its slot blocks (..., slots, rows,
width), and factor them all at once. The dense kernels evaluate a system
given as one matrix; the 2-D forms evaluate a single system through the
same code.
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
    "slot_rank_stacked",
    "slot_rate_bits_stacked",
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


def _log2_det_gram(r: np.ndarray) -> np.ndarray:
    """log2 det(R^H R) of each triangular factor R (..., n, n)."""
    return 2.0 * np.sum(np.log2(np.abs(np.diagonal(r, axis1=-2, axis2=-1))), axis=-1)


def _herm(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a.conj(), -1, -2)


def _check_coupling(own: np.ndarray, coupled: np.ndarray) -> None:
    """Coupling rows (..., m, k) must span the slot blocks' k = slots *
    width columns."""
    k = own.shape[-3] * own.shape[-1]
    if coupled.shape[-1] != k:
        raise ValueError(f"coupling rows have {coupled.shape[-1]} columns, the slot blocks {k}")


def _slot_factor(a: np.ndarray, g: np.ndarray, u_h: np.ndarray) -> np.ndarray:
    """R_t of a QR of [I; A_t] for each slot block A_t (..., slots, rows,
    width), applied to coupling rows G (..., n3, slots * width): writes
    U_t^H = R_t^-H G_t^H into ``u_h`` (..., slots, width, n3) and returns
    sum_t log2 det(R_t^H R_t).

    Householder QR, one column per step over all slots and the batch. The
    identity rows below the diagonal are never touched, so the reflector of
    column j acts on row j and the A_t rows only: with c the A_t rows of
    column j and n = sqrt(1 + |c|^2), it maps [1; c] to [-n; 0], so
    R_jj = -n, and row j of R_t is 0 left of the diagonal. Row j of U_t^H
    follows by forward substitution on R_t^H, once rows 0..j-1 of R_t are
    known.
    """
    width = a.shape[-1]
    low = a.copy()  # the A_t rows, reduced column by column
    r = np.zeros(a.shape[:-2] + (width, width), dtype=np.complex128)  # R_t above the diagonal
    g_cols = g.reshape(g.shape[:-1] + (a.shape[-3], width))  # (..., n3, slots, width), a view
    log_n = 0.0
    for j in range(width):
        c = low[..., :, j]
        # n = sqrt(1 + |c|^2) by hypot, which cannot overflow on its way
        n = np.hypot(1.0, np.hypot.reduce(np.abs(c), axis=-1))
        log_n = log_n + np.log(n)
        # forward substitution: conj(R_ij) for i < j sits in column j of R_t
        acc = np.swapaxes(g_cols[..., j], -1, -2).conj()
        if j:
            acc -= np.einsum("...i,...ik->...k", r[..., :j, j].conj(), u_h[..., :j, :])
        u_h[..., j, :] = acc / -n[..., None]
        if j + 1 < width:
            # H = I - tau v v^H with v = [1; c / (1 + n)], tau = (1 + n) / n;
            # the own columns right of j hold 0 in row j above the A_t rows
            rest = low[..., :, j + 1 :]
            v = (c / (1.0 + n)[..., None]).conj()  # bounded, so w cannot overflow
            w = (v[..., None, :] @ rest)[..., 0, :]
            r[..., j, j + 1 :] = w * -((1.0 + n) / n)[..., None]
            rest -= (c / n[..., None])[..., :, None] * w[..., None, :]
    return 2.0 * np.sum(log_n, axis=-1) / np.log(2.0)


def slot_rate_bits_stacked(own: np.ndarray, g3: np.ndarray | None, sigma3: np.ndarray | None) -> np.ndarray:
    """log2 det(I + A^H A + G^H S^-1 G) for each system of the stack: the
    rate in bits, with unit-power symbols, of own rows A = blockdiag(A_t)
    under white unit noise stacked over coupling rows G (..., n3, k) under
    noise of covariance S (..., n3, n3).

    ``own`` holds the slot blocks A_t (..., slots, rows, width); their
    columns, slot by slot, are the k = slots * width columns of G. ``g3``
    and ``sigma3`` are None when there are no coupling rows. Without
    symbols (k = 0) the rate is 0 and S is not factored. No k x k Gram
    matrix is formed. With R_t from a QR of [I; A_t],
    U = G blockdiag(R_t)^-1 and S = L L^H,

        det(I + A^H A + G^H S^-1 G)
            = prod_t det(R_t^H R_t) * det(S + U U^H) / det(S),

    and S + U U^H = R'^H R' for the R' of a QR of [L^H; U^H]. The slot
    factors and U^H take one pass over all slots (``_slot_factor``);
    [L^H; U^H] takes one batched LAPACK QR.

    Raises ``SingularCovariance`` if any S is not positive definite (one
    with a non-finite entry in its lower triangle counts as not), then
    ``GramOverflow`` if any system has a non-finite entry; each names the
    flat batch ``index`` of the first.
    """
    batch = own.shape[:-3]
    slots, width = own.shape[-3], own.shape[-1]
    if not slots * width:
        return np.zeros(batch)
    n3 = 0 if g3 is None else g3.shape[-2]
    if n3:
        chol = _cholesky(sigma3, SingularCovariance, "noise covariance is not positive definite")
    else:
        g3 = np.zeros(batch + (0, slots * width), dtype=np.complex128)
    _check_coupling(own, g3)
    bad = ~(np.isfinite(own).all(axis=(-3, -2, -1)) & np.isfinite(g3).all(axis=(-2, -1)))
    if bad.any():
        exc = GramOverflow("rate system has a non-finite entry (SNR too high)")
        exc.index = int(np.flatnonzero(bad)[0])
        raise exc
    lifted = np.empty(batch + (n3 + slots * width, n3), dtype=np.complex128)  # [L^H; U^H]
    # the rows of U^H, split by slot (a view)
    u_h = lifted[..., n3:, :].reshape(batch + (slots, width, n3))
    bits = _slot_factor(own, g3, u_h)
    if not n3:
        return bits
    lifted[..., :n3, :] = _herm(chol)
    return bits + _log2_det_gram(np.linalg.qr(lifted, mode="r")) - _log2_det_gram(chol)


def logdet_rate_bits_stacked(g: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """log2 det(I + G^H Sigma^{-1} G) for each complex G (..., m, k) and
    Hermitian positive definite Sigma (..., m, m): the mutual information in
    bits of y = G s + n with unit-power symbols and noise covariance Sigma.

    The dense evaluation, kept as a reference: it whitens G with the
    Cholesky factor L of Sigma, W = L^-1 G, and takes the Cholesky factor
    of the Gram matrix I + W^H W. Raises ``SingularCovariance`` if any
    Sigma is not positive definite (one with a non-finite entry in its lower
    triangle counts as not). Forming the Gram matrix squares the condition
    number of W, so at high SNR rounding can cost it its positive
    definiteness; ``GramOverflow`` then names the first that lost it or
    overflowed. Each names the flat batch ``index`` of the first.
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
    chol = _cholesky(sigma, SingularCovariance, "noise covariance is not positive definite")
    white = np.linalg.solve(chol, g)
    gram = np.eye(k, dtype=np.complex128) + _herm(white) @ white
    chol = _cholesky(
        gram, GramOverflow,
        "rate Gram matrix I + G^H Sigma^-1 G is not positive definite in floating point "
        "(SNR too high)",
    )
    return _log2_det_gram(chol)


def numerical_rank_stacked(a: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Per matrix of the stack (..., m, n): singular values above rtol times
    the largest one."""
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[-2] == 0 or a.shape[-1] == 0:
        return np.zeros(a.shape[:-2], dtype=np.int64)
    s = np.linalg.svd(a, compute_uv=False)
    return np.count_nonzero(s > rtol * s[..., :1], axis=-1)


def slot_rank_stacked(own: np.ndarray, coupled: np.ndarray | None, rtol: float = 1e-9) -> np.ndarray:
    """Rank of each system [A; P] of the stack: own rows A = blockdiag(A_t)
    over coupling rows P (..., n3, k), laid out as in
    ``slot_rate_bits_stacked`` (``coupled`` is None without coupling rows).

    rank([A; P]) = sum_t rank(A_t) + rank(P N), where N = blockdiag(N_t)
    and N_t spans the null space of A_t. One batched SVD covers the slot
    blocks and one more P N. Each of these ranks counts the singular values
    above rtol times the largest of its own matrix, so a slot block far
    weaker than the rest still counts in full.
    """
    slots, width = own.shape[-3], own.shape[-1]
    if not slots * width:
        return np.zeros(own.shape[:-3], dtype=np.int64)
    # the right singular vectors of A_t are the left ones of A_t^H
    v, s, _ = np.linalg.svd(_herm(own))
    r = np.count_nonzero(s > rtol * s[..., :1], axis=-1)
    rank = np.sum(r, axis=-1)
    if coupled is None or not coupled.shape[-2]:
        return rank
    _check_coupling(own, coupled)
    n3 = coupled.shape[-2]
    # N_t^H: the singular vectors past the rank span the null space; the
    # others are zeroed, which leaves the rank of P N unchanged
    null_h = _herm(v) * (np.arange(width) >= r[..., None])[..., None]
    # (P N)^H, slot t's rows N_t^H P_t^H
    p_h = _herm(coupled).reshape(coupled.shape[:-2] + (slots, width, n3))
    projected = (null_h @ p_h).reshape(coupled.shape[:-2] + (slots * width, n3))
    return rank + numerical_rank_stacked(projected, rtol)


def logdet_rate_bits(g: np.ndarray, sigma: np.ndarray) -> float:
    """``logdet_rate_bits_stacked`` of a single system G (m, k), Sigma (m, m)."""
    return float(logdet_rate_bits_stacked(np.asarray(g)[None], np.asarray(sigma)[None])[0])


def numerical_rank(a: np.ndarray, rtol: float = 1e-9) -> int:
    """``numerical_rank_stacked`` of a single matrix."""
    return int(numerical_rank_stacked(np.asarray(a)[None], rtol)[0])
