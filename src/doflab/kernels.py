"""The simulator's numeric kernels, in NumPy.

Each kernel works on a stack of systems: the leading axes are batch axes
and the last two hold one matrix, so a whole chunk of (trial, SNR) pairs
goes through one LAPACK call or one vectorized pass. The slot kernels take
a system whose own rows are block diagonal by slot as its slot blocks
(..., slots, rows, width), and factor them all at once. A rate has one
algorithm: the dense form is the slot kernel on one slot with no own rows.
A rank has one cut, ``RANK_RTOL``, and one judge of a partial rank, the
SVD; a Cholesky of each system's small Gram matrix certifies full ranks,
which then take no SVD. The 2-D forms evaluate a single system through the
stacked code.
"""

from __future__ import annotations

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
# The one relative rank cut: a slot block's rank counts its Gram-Schmidt
# residual row norms above this share of its largest row norm, rank(P N)
# the singular values of P N above this share of the coupling rows'
# ||P||_F (full where a Cholesky certificate bounds the smallest one above it),
# and numerical_rank the singular values above this share of the largest.
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


def _row_basis(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank r and null-space projector of each block A of a batch-last stack
    (rows, width, B), by one pivoted Gram-Schmidt pass over all blocks.

    Step p takes each block's row of largest residual norm, orthogonalizes
    it once more against q_0..q_p-1 and counts it when its norm exceeds
    ``RANK_RTOL`` times the block's largest row norm; its unit row q_p is
    then projected out of every row. A row at or below the cut gives q_p =
    0, so a block's rank stops there. Returns r (B,) and I - Q^H Q (width,
    width, B), the orthogonal projector onto the null space of A, set to
    exactly zero where r = width so that its rounding noise cannot become
    rank.
    """
    rows, width, batch = a.shape
    x = np.array(a, dtype=np.complex128, order="C")  # the residual rows
    sq = (x.real**2 + x.imag**2).sum(axis=1)  # their squared norms (rows, B)
    cut = RANK_RTOL * np.sqrt(np.max(sq, axis=0, initial=0.0))
    q = np.zeros((min(rows, width), width, batch), dtype=np.complex128)
    rank = np.zeros(batch, dtype=np.int64)
    for p in range(len(q)):
        v = np.take_along_axis(x, np.argmax(sq, axis=0)[None, None, :], axis=0)[0]
        if p:  # the second pass of classical Gram-Schmidt, on the pivot row alone
            v -= (np.sum(q[:p].conj() * v, axis=1)[:, None, :] * q[:p]).sum(axis=0)
        norm = np.sqrt((v.real**2 + v.imag**2).sum(axis=0))
        keep = norm > cut
        rank += keep
        q[p] = v * np.divide(1.0, norm, out=np.zeros(batch), where=keep)
        x -= np.sum(q[p].conj() * x, axis=1)[:, None, :] * q[p]
        sq = (x.real**2 + x.imag**2).sum(axis=1)
    null_h = np.eye(width)[..., None] - np.sum(q.conj()[:, :, None, :] * q[:, None, :, :], axis=0)
    null_h *= rank < width
    return rank, null_h


def slot_rank_stacked(own: np.ndarray, coupled: np.ndarray | None) -> np.ndarray:
    """Rank of each system [A; P] of the stack: own rows A = blockdiag(A_t)
    over coupling rows P (..., n3, k), laid out as in
    ``slot_rate_bits_stacked`` (``coupled`` is None without coupling rows).

    rank([A; P]) = sum_t rank(A_t) + rank(P N), where N = blockdiag(N_t)
    and N_t spans the null space of A_t. One pivoted Gram-Schmidt pass over
    the rows of every slot block of the stack (``_row_basis``) gives each
    rank(A_t), counted against A_t's own largest row norm so that a slot
    block far weaker than the rest still counts in full, and the projector
    N_t N_t^H = I - Q_t^H Q_t, which has the row space of N_t^H and so
    stands in for it. rank(P N) counts the singular values above the cut
    c = ``RANK_RTOL`` times ||P||_F: P N is cut against the scale of the
    coupling rows, not its own, so coupling rows in the row span of the
    own rows leave only rounding noise there, and add no rank.

    Full rank, m = min(k, n3), takes no SVD where a Cholesky certificate
    proves sigma_min(P N) > c. Let X = P N, G its m x m Gram matrix on the
    smaller side (X X^H or X^H X) and G' the one a stacked matmul computes,
    K = max(k, n3) the length of its inner products, u = eps / 2, and T =
    trace(G') = ||X||_F^2 up to rounding. A member is settled at m when a
    Cholesky of G' - tau I completes with positive pivots, where

        tau = c^2 + delta T,    delta = 2 (K + 2 m + 8) eps.

    A completed factorization gives a nonsingular R with R^H R = G - tau I
    + E + F + D, so lambda_min(G) > tau - ||E||_2 - ||F||_2 - ||D||_2:

    - E = G' - G, the Gram product's rounding. Each entry is a complex
      inner product of length K, off by at most gamma_(K+2) times that
      entry of |X|^H |X| (Higham, Accuracy and Stability of Numerical
      Algorithms, sec. 3.6), so ||E||_2 <= gamma_(K+2) ||X||_F^2, about
      (K / 2 + 1) eps T.
    - F, the rounding of tau and of the shift: diagonal, with |F_ii| <=
      u (G'_ii + tau) + 2 u tau, at most about eps T / 2 + 3 u tau.
    - D, Cholesky's backward error, which holds for any Hermitian matrix
      on which it completes: |D| <= gamma_(2 m + 2) |R|^H |R| (Higham
      Thm 10.3, with the complex inner product's longer gamma), so
      ||D||_2 <= gamma ||R||_F^2 <= gamma T / (1 - gamma), about (m + 1)
      eps T; against ||G||_2 >= T / m, the familiar order m^2 eps.

    These sum to about (K / 2 + m + 3) eps T + 3 u tau. delta is more than
    twice that first sum, and its surplus covers the second-order terms
    and 3 u tau: a member with T below c^2 / 2 cannot complete, since
    lambda_min(G) <= T / m. So a completed factorization proves
    lambda_min(G) > c^2, that is sigma_min(P N) > c, with sigma_min - c
    at least about (3 K / 4 + 8) eps ||P N||_F, more than the SVD's usual
    rounding of its singular values. Members with sigma_min between c and
    about sqrt(delta) ||P N||_F (at most 2.6e-7 ||P||_F on 108 x 18
    systems) are not certified, and neither is a zero P N. A Cholesky of
    the stack raises for all of it if one member fails; then each member
    is factored alone, as ``_cholesky`` finds its index. An SVD of
    singular values only counts the members the certificate leaves
    unsettled: it is the one judge of a partial rank.

    Raises ``ValueError`` if any system has a non-finite entry; its
    ``index`` is the flat batch index of the first.
    """
    batch = own.shape[:-3]
    slots, rows, width = own.shape[-3:]
    if not slots * width:
        return np.zeros(batch, dtype=np.int64)
    finite = np.isfinite(own).all(axis=(-3, -2, -1))
    if coupled is not None:
        finite = finite & np.isfinite(coupled).all(axis=(-2, -1))
    if not finite.all():
        exc = ValueError("rank system has a non-finite entry")
        exc.index = int(np.flatnonzero(~finite)[0])
        raise exc
    # batch-last (rows, width, B * slots): each step of the pass runs over
    # contiguous vectors of all blocks
    r, null_h = _row_basis(np.moveaxis(own.reshape(-1, rows, width), 0, -1))
    rank = r.reshape(batch + (slots,)).sum(axis=-1)
    if coupled is None or not coupled.shape[-2]:
        return rank
    _check_coupling(own, coupled)
    n3, k = coupled.shape[-2], slots * width
    # P_t^H batch-last (width, n3, B * slots): entry (b, m, i * slots + t)
    # is conj(P[i][m, t * width + b])
    p_h = coupled.conj().reshape(-1, n3, slots, width).transpose(3, 1, 0, 2).reshape(width, n3, -1)
    # (P N)^H, slot t's rows N_t N_t^H P_t^H, summed over the projector's columns
    projected = sum(null_h[:, b, None, :] * p_h[b] for b in range(width))
    projected = projected.reshape(width, n3, -1, slots).transpose(2, 3, 0, 1)
    projected = projected.reshape(-1, k, n3)
    cut = RANK_RTOL * np.linalg.norm(coupled, axis=(-2, -1)).reshape(-1)
    full = min(k, n3)
    gram = _herm(projected) @ projected if n3 <= k else projected @ _herm(projected)
    diagonal = gram.reshape(-1, full * full)[:, :: full + 1]  # a view
    delta = 2.0 * (max(k, n3) + 2 * full + 8) * np.finfo(np.float64).eps
    diagonal -= (cut * cut + delta * diagonal.real.sum(axis=-1))[:, None]
    if _positive_cholesky(gram) is not None:
        sure = np.ones(len(gram), dtype=bool)
    else:
        sure = np.array([_positive_cholesky(one) is not None for one in gram])
    count = np.full(len(sure), full)
    if not sure.all():
        s = np.linalg.svd(projected[~sure], compute_uv=False)
        count[~sure] = np.count_nonzero(s > cut[~sure, None], axis=-1)
    return rank + count.reshape(batch)


def logdet_rate_bits(g: np.ndarray, sigma: np.ndarray) -> float:
    """``logdet_rate_bits_stacked`` of a single system G (m, k), Sigma (m, m)."""
    return float(logdet_rate_bits_stacked(np.asarray(g)[None], np.asarray(sigma)[None])[0])


def numerical_rank(a: np.ndarray) -> int:
    """``numerical_rank_stacked`` of a single matrix."""
    return int(numerical_rank_stacked(np.asarray(a)[None])[0])
