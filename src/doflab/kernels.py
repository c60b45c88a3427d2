"""The simulator's numeric kernels, in NumPy.

Each kernel works on a stack of systems: the leading axes are batch axes
and the last two hold one matrix, so a whole chunk of (trial, SNR) pairs
goes through one LAPACK call or one vectorized pass. The slot kernels take
a system whose own rows are block diagonal by slot as its slot blocks
(..., slots, rows, width), and factor them all at once. A rate has one
algorithm: the dense form is the slot kernel on one slot with no own rows.
A rank is exact: ``slot_rank_stacked`` eliminates int64 residues mod a
prime, with no tolerance. ``numerical_rank(_stacked)``, an SVD cut at
``RANK_RTOL``, is the float reference the tests hold it to. The 2-D forms
evaluate a single system through the stacked code.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GramOverflow, SingularCovariance

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
# The rank kernel's two primes, the largest below 2**25: a product of two
# residues stays below 2**50, so a sum of up to 2**13 of them fits int64.
PRIMES = (33554393, 33554383)
# numerical_rank(_stacked)'s SVD cut: singular values above this share of the largest.
RANK_RTOL = 1e-9


def _positive_cholesky(stack: np.ndarray) -> np.ndarray | None:
    """Cholesky factors of a stack, or None unless every matrix has one with
    positive pivots (a non-finite matrix has none)."""
    try:
        chol = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return None
    return chol if np.all(np.diagonal(chol, axis1=-2, axis2=-1).real > 0) else None


def _cholesky(stack: np.ndarray) -> np.ndarray:
    """Cholesky factors of a stack of noise covariances (..., n, n).

    Raises ``SingularCovariance`` unless every matrix has one with positive
    pivots; its ``index`` is the flat batch index of the first that has not.
    """
    chol = _positive_cholesky(stack)
    if chol is None:
        exc = SingularCovariance("noise covariance is not positive definite")
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
        n = np.hypot(1.0, np.hypot.reduce(np.abs(c), axis=-1, initial=0.0))
        log_n = log_n + np.log(n)
        # complex / (x + 0j) multiplies by 1 / x, so real reciprocals give
        # the same values
        inv_n = 1.0 / n
        # forward substitution: conj(R_ij) for i < j sits in column j of R_t
        acc = np.swapaxes(g_cols[..., j], -1, -2).conj()
        if j:
            acc -= np.einsum("...i,...ik->...k", r[..., :j, j].conj(), u_h[..., :j, :])
        u_h[..., j, :] = acc * -inv_n[..., None]
        if j + 1 < width:
            # H = I - tau v v^H with v = [1; c / (1 + n)], tau = (1 + n) / n;
            # the own columns right of j hold 0 in row j above the A_t rows
            rest = low[..., :, j + 1 :]
            v = (c * (1.0 / (1.0 + n))[..., None]).conj()  # bounded, so w cannot overflow
            w = (v[..., None, :] @ rest)[..., 0, :]
            r[..., j, j + 1 :] = w * -((1.0 + n) / n)[..., None]
            rest -= (c * inv_n[..., None])[..., :, None] * w[..., None, :]
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
    [L^H; U^H] takes one batched LAPACK QR. It resolves the unit-scale
    directions of S + U U^H only to about eps * ||U||, so huge, rank-
    deficient G give a finite but wrong rate; the campaigns stay inside
    ``simulate.rate_snr_limit_db``, which bounds this rounding.

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
        chol = _cholesky(sigma3)
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

    The dense form of ``slot_rate_bits_stacked``: one slot with no own rows,
    so every row of G is a coupling row. Raises its ``SingularCovariance``
    and ``GramOverflow``, each naming the flat batch ``index`` of the first,
    and its unguarded rounding on huge, rank-deficient G: a 2 x 2 G of 1e200s
    (rank 1) reads 2554.18 bits in a test system, not the exact 1331.24.
    """
    g = np.asarray(g, dtype=np.complex128)
    sigma = np.asarray(sigma, dtype=np.complex128)
    if g.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {g.shape}")
    m, k = g.shape[-2:]
    if sigma.shape != g.shape[:-2] + (m, m):
        raise ValueError(f"covariance shape {sigma.shape} does not match {m} rows")
    return slot_rate_bits_stacked(np.zeros(g.shape[:-2] + (1, 0, k)), g, sigma)


def numerical_rank_stacked(a: np.ndarray) -> np.ndarray:
    """Per matrix of the stack (..., m, n): singular values above
    ``RANK_RTOL`` times the largest one."""
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[-2] == 0 or a.shape[-1] == 0:
        return np.zeros(a.shape[:-2], dtype=np.int64)
    s = np.linalg.svd(a, compute_uv=False)
    return np.count_nonzero(s > RANK_RTOL * s[..., :1], axis=-1)


def _reduce(a: np.ndarray, p: int) -> np.ndarray:
    """``a`` mod p in place, by floor division: far faster in numpy than a remainder."""
    a -= a // p * p
    return a


def _eliminate(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Fraction-free Gauss-Jordan elimination mod ``p`` of each matrix of a
    batch-last stack (rows, cols, B), in place, a column at a time: at
    column c each takes its first row r not yet a pivot row with an entry
    d != 0 there, and every other row x becomes d x - x_c r right of column
    c. No inverse is taken and no product reaches p**2. Returns the pivot
    columns (cols, B) and each one's pivot row (cols, B), 0 if free."""
    rows, cols, b = a.shape
    at, index = np.arange(b), np.arange(rows)[:, None]
    open_rows = np.ones((rows, b), dtype=bool)
    pivot, where = np.zeros((cols, b), dtype=bool), np.zeros((cols, b), dtype=np.intp)
    for c in range(cols if rows else 0):
        candidates = open_rows & (a[:, c] != 0)
        r = candidates.argmax(axis=0)
        found = candidates[r, at]
        pivot[c], where[c] = found, r
        open_rows[r, at] &= ~found
        if c + 1 == cols or not found.any():
            continue
        other = found & (index != r)  # the rows to eliminate
        row = a[r, c:, at].T
        right = a[:, c + 1 :]
        right *= np.where(other, row[0], 1)[:, None, :]
        right -= (a[:, c] * other)[:, None, :] * row[1:]
        _reduce(right, p)
    return pivot, where


def _null_vectors(a: np.ndarray, pivot: np.ndarray, where: np.ndarray, p: int) -> np.ndarray:
    """Null vectors mod ``p`` of each block of a stack (rows, width, B) that
    ``_eliminate`` reduced, one per free column, free columns first: (width,
    f, B), f the most free columns of any block, zero past a block's own.

    With d_c the pivot of column c (1 if free), full Gauss-Jordan would read
    d_j R(c_j) and e R(f) where pivot row j reads d_j and e, R(q) the
    product of the d_c right of q. So f's vector holds the product of all
    d_c at f and -e L(c_j) R(f) at each c_j, L(q) the product of the d_c
    left of q: again no inverse."""
    _, width, b = a.shape
    diag = np.arange(width)
    reduced = np.zeros((width, width, b), dtype=np.int64)  # row c: c's pivot row, or 0
    column, member = np.nonzero(pivot)
    reduced[column, :, member] = a[where[column, member], :, member]
    d = np.where(pivot, reduced[diag, diag], 1)
    left, right = np.ones((2, width, b), dtype=np.int64)
    for c in range(1, width):
        left[c] = left[c - 1] * d[c - 1] % p
        right[-1 - c] = right[-c] * d[-c] % p
    null = _reduce(_reduce(reduced * left[:, None], p) * -right, p)
    null[diag, diag] = left[-1] * d[-1] % p
    count = np.cumsum(~pivot, axis=0)  # free column f goes to column count - 1
    column, member = np.nonzero(~pivot)
    out = np.zeros((width, count[-1].max(initial=0), b), dtype=np.int64)
    out[:, count[column, member] - 1, member] = null[:, column, member]
    return out


def slot_rank_stacked(own: np.ndarray, coupled: np.ndarray | None, p: int = PRIMES[0]) -> np.ndarray:
    """Exact rank over GF(p) of each system [A; P] of a stack of int64
    residues mod a prime ``p`` < 2**25: own rows A = blockdiag(A_t) over
    coupling rows P (..., n3, k), laid out as in ``slot_rate_bits_stacked``
    (``coupled`` is None without coupling rows).

    rank([A; P]) = sum_t rank(A_t) + rank(P N), N = blockdiag(N_t), N_t
    spanning the null space of A_t. One ``_eliminate`` of every slot block,
    batch-last so each step runs over contiguous rows of all blocks, gives
    each rank(A_t); N_t holds the vectors of A_t's free columns only. P N
    takes one contraction and one reduction: each entry sums ``width``
    products below 2**50, so below 2**63. ``_eliminate`` then reduces P N,
    batch-last too, over its shorter side.

    Raises ``TypeError`` unless both arrays are int64, and ``ValueError`` if
    a slot block has 2**13 columns or more, or if an entry lies outside 0
    .. p - 1; then its ``index`` is the flat batch index of the first such
    system.
    """
    batch = own.shape[:-3]
    slots, rows, width = own.shape[-3:]
    if own.dtype != np.int64 or coupled is not None and coupled.dtype != np.int64:
        raise TypeError("rank systems hold int64 residues")
    if width >= 1 << 13:
        raise ValueError(f"slot blocks of {width} columns: P N's sums could pass 2**63")
    bad = ((own < 0) | (own >= p)).any(axis=(-3, -2, -1))
    if coupled is not None:
        _check_coupling(own, coupled)
        bad |= ((coupled < 0) | (coupled >= p)).any(axis=(-2, -1))
    if bad.any():
        exc = ValueError(f"rank system has an entry outside the residues 0 .. {p - 1}")
        exc.index = int(np.flatnonzero(bad)[0])
        raise exc
    if not slots * width:
        return np.zeros(batch, dtype=np.int64)
    members = math.prod(batch)
    blocks = np.moveaxis(own.reshape(members * slots, rows, width), 0, -1).copy()
    pivot, where = _eliminate(blocks, p)
    rank = pivot.sum(axis=0).reshape(batch + (slots,)).sum(axis=-1)
    if coupled is None or not coupled.shape[-2] or pivot.all():
        return rank
    null = _null_vectors(blocks, pivot, where, p)
    n3, free = coupled.shape[-2], null.shape[1]
    # (P N)^T, slot by slot: N_t^T P_t^T (B, slots, free, n3)
    n_t = null.reshape(width, free, members, slots).transpose(2, 3, 1, 0)
    pn = _reduce(n_t @ coupled.reshape(members, n3, slots, width).transpose(0, 2, 3, 1), p)
    pn = pn.reshape(members, slots * free, n3).transpose(1, 2, 0)
    if n3 > slots * free:
        pn = pn.transpose(1, 0, 2)
    return rank + _eliminate(np.ascontiguousarray(pn), p)[0].sum(axis=0).reshape(batch)


def logdet_rate_bits(g: np.ndarray, sigma: np.ndarray) -> float:
    """``logdet_rate_bits_stacked`` of a single system G (m, k), Sigma (m, m)."""
    return float(logdet_rate_bits_stacked(np.asarray(g)[None], np.asarray(sigma)[None])[0])


def numerical_rank(a: np.ndarray) -> int:
    """``numerical_rank_stacked`` of a single matrix."""
    return int(numerical_rank_stacked(np.asarray(a)[None])[0])
