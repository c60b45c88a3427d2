"""Numeric kernels: reference results, stacked-versus-2-D parity, failure modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doflab import GramOverflow, SingularCovariance, kernels

RNG = np.random.default_rng(20240817)


def random_system(rng, m, k):
    g = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2)
    b = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
    sigma = b @ b.conj().T + 0.1 * np.eye(m)
    return g, sigma


def random_stack(rng, batch, m, k):
    systems = [random_system(rng, m, k) for _ in range(batch)]
    return np.stack([g for g, _ in systems]), np.stack([s for _, s in systems])


def direct_rate(g, sigma):
    gram = np.eye(g.shape[1]) + g.conj().T @ np.linalg.inv(sigma) @ g
    sign, logdet = np.linalg.slogdet(gram)
    assert sign.real > 0
    return logdet / np.log(2.0)


class TestLogdetRate:
    def test_matches_direct_evaluation(self):
        for m, k in [(1, 1), (2, 2), (3, 1), (2, 5), (8, 8)]:
            g, sigma = random_system(RNG, m, k)
            assert kernels.logdet_rate_bits(g, sigma) == pytest.approx(
                direct_rate(g, sigma), rel=1e-10
            )

    def test_white_noise_scalar(self):
        g = np.array([[2.0 + 0j]])
        sigma = np.array([[1.0 + 0j]])
        assert kernels.logdet_rate_bits(g, sigma) == pytest.approx(np.log2(5.0))

    def test_empty_dimensions(self):
        assert kernels.logdet_rate_bits(np.zeros((0, 0)), np.zeros((0, 0))) == 0.0
        assert kernels.logdet_rate_bits(np.zeros((2, 0)), np.eye(2)) == 0.0
        stacked = kernels.logdet_rate_bits_stacked(np.zeros((3, 2, 0)), np.zeros((3, 2, 2)))
        assert stacked.tolist() == [0.0, 0.0, 0.0]

    def test_singular_covariance(self):
        g = np.ones((2, 1), dtype=complex)
        bad = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(SingularCovariance):
            kernels.logdet_rate_bits(g, bad)

    def test_non_finite_covariance(self):
        g = np.ones((2, 1), dtype=complex)
        with pytest.raises(SingularCovariance):
            kernels.logdet_rate_bits(g, np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kernels.logdet_rate_bits(np.ones((2, 1), complex), np.eye(3, dtype=complex))
        with pytest.raises(ValueError):
            kernels.logdet_rate_bits_stacked(
                np.ones((4, 2, 1), complex), np.ones((3, 2, 2), complex)
            )

    def test_stacked_matches_2d(self):
        for trial in range(20):
            rng = np.random.default_rng(trial)
            m = int(rng.integers(1, 13))
            k = int(rng.integers(1, 13))
            g, sigma = random_stack(rng, 7, m, k)
            stacked = kernels.logdet_rate_bits_stacked(g, sigma)
            assert stacked.shape == (7,)
            for b in range(7):
                assert stacked[b] == pytest.approx(
                    kernels.logdet_rate_bits(g[b], sigma[b]), rel=1e-12, abs=1e-12
                )

    def test_stacked_keeps_batch_axes(self):
        g, sigma = random_stack(np.random.default_rng(3), 6, 3, 2)
        flat = kernels.logdet_rate_bits_stacked(g, sigma)
        grid = kernels.logdet_rate_bits_stacked(g.reshape(2, 3, 3, 2), sigma.reshape(2, 3, 3, 3))
        assert grid.shape == (2, 3)
        assert np.array_equal(grid.ravel(), flat)

    def test_stack_with_one_singular_covariance(self):
        g, sigma = random_stack(np.random.default_rng(11), 5, 2, 1)
        sigma[3] = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularCovariance) as info:
            kernels.logdet_rate_bits_stacked(g, sigma)
        assert info.value.index == 3
        # the others still evaluate on their own
        for b in (0, 1, 2, 4):
            assert np.isfinite(kernels.logdet_rate_bits(g[b], sigma[b]))

    def test_gram_overflow_in_stack(self):
        # finite entries whose G^H G exceeds the float range give a finite
        # rate: the whitened system's singular values are 1e200 s, and
        # log2(1 + (1e200 s)^2) is 2 log2(1e200 s) up to about 1e-400
        g, sigma = random_stack(np.random.default_rng(12), 4, 2, 2)
        s = np.linalg.svd(np.linalg.solve(np.linalg.cholesky(sigma[2]), g[2]), compute_uv=False)
        g[2] *= 1e200
        rates = kernels.logdet_rate_bits_stacked(g, sigma)
        assert rates[2] == pytest.approx(2 * np.sum(np.log2(1e200 * s)), rel=1e-12)
        others = [0, 1, 3]
        assert rates[others] == pytest.approx(svd_rate(g[others], sigma[others]), rel=1e-12)
        # a non-finite entry is what raises GramOverflow
        g[2, 1, 0] = np.inf
        with pytest.raises(GramOverflow, match="non-finite") as info:
            kernels.logdet_rate_bits_stacked(g, sigma)
        assert info.value.index == 2
        assert info.value.code == "GRAM_OVERFLOW"


def slot_structured(rng, batch, loads, rows, n3, scale=1.0):
    """A receiver system as the rate path builds it: slot blocks
    (batch, slots, rows, width), slot t's ``loads[t]`` symbols in its first
    columns and zeros after them up to the widest slot, and ``n3``
    phase-three rows over all slots' columns with their covariance S."""
    width = max(loads)
    shape = (batch, len(loads), rows, width)
    own = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    own *= np.arange(width) < np.array(loads)[:, None, None]
    g3, s3 = random_stack(rng, batch, n3, len(loads) * width)
    return own, scale * g3, s3


def block_diagonal(own):
    """Slot blocks (..., slots, rows, width) as one block-diagonal matrix."""
    *batch, slots, rows, width = own.shape
    out = np.zeros((*batch, slots * rows, slots * width), dtype=complex)
    for t in range(slots):
        out[..., t * rows : (t + 1) * rows, t * width : (t + 1) * width] = own[..., t, :, :]
    return out


def dense_form(own, g3, s3):
    """The same system as one G and Sigma = diag(I, S)."""
    stacked = block_diagonal(own)
    batch, n_own = stacked.shape[:2]
    n3 = g3.shape[1]
    sigma = np.zeros((batch, n_own + n3, n_own + n3), dtype=complex)
    sigma[:, :n_own, :n_own] = np.eye(n_own)
    sigma[:, n_own:, n_own:] = s3
    return np.concatenate([stacked, g3], axis=1), sigma


def svd_rate(g, sigma):
    """log2 det(I + G^H Sigma^-1 G) of each system from the singular values
    of its whitened form L^-1 G, Sigma = L L^H."""
    white = np.linalg.solve(np.linalg.cholesky(sigma), g)
    s = np.linalg.svd(white, compute_uv=False)
    return np.sum(np.log1p(s**2), axis=-1) / np.log(2.0)


class TestSplitKernel:
    """The slot rate kernel factors only S and the slot blocks, with no Gram
    matrix; it gives the rates of an SVD of the whitened dense system and
    raises the dense kernel's errors at the same member."""

    # largest |slot - SVD| seen over these systems: see the block test
    TOL = 1e-12

    def test_block_path_matches_dense(self):
        worst = 0.0
        for trial in range(30):
            rng = np.random.default_rng(2000 + trial)
            loads = rng.integers(0, 5, size=int(rng.integers(1, 7))).tolist()
            loads[0] = max(loads[0], 1)
            rows = int(rng.integers(1, 4))
            n3 = rows * int(rng.integers(1, 4))
            scale = [1.0, 10.0, 300.0][trial % 3]  # up to about 50 dB
            own, g3, s3 = slot_structured(rng, 5, loads, rows, n3, scale)
            want = svd_rate(*dense_form(own, g3, s3))
            # the slot blocks' pass, and the dense form, whose slot has no
            # own rows (on the numpy floor too)
            for rates in (
                kernels.slot_rate_bits_stacked(own, g3, s3),
                kernels.logdet_rate_bits_stacked(*dense_form(own, g3, s3)),
            ):
                worst = max(worst, float(np.max(np.abs(rates - want) / np.maximum(1.0, np.abs(want)))))
        assert worst <= self.TOL

    def test_no_phase_three(self):
        # TDMA: the own rows alone, under white noise
        own, _, _ = slot_structured(np.random.default_rng(22), 4, [3, 2, 2], 2, 1)
        stacked = block_diagonal(own)
        want = svd_rate(stacked, np.broadcast_to(np.eye(6), (4, 6, 6)))
        assert kernels.slot_rate_bits_stacked(own, None, None) == pytest.approx(
            want, rel=1e-12, abs=1e-12
        )

    def test_no_symbols(self):
        # k = 0 gives rate 0 without factoring S, as the dense kernel does
        own, g3, s3 = slot_structured(np.random.default_rng(23), 3, [1, 1], 2, 2)
        own, g3 = own[..., :0], g3[..., :0]
        s3[1] = np.nan
        assert kernels.slot_rate_bits_stacked(own, g3, s3).tolist() == [0.0] * 3
        assert kernels.logdet_rate_bits_stacked(*dense_form(own, g3, s3)).tolist() == [0.0] * 3
        assert kernels.slot_rate_bits_stacked(own, None, None).tolist() == [0.0] * 3

    def test_covariance_guard_comes_first(self):
        # member 1's own block is not finite, but member 3's S is checked first
        own, g3, s3 = slot_structured(np.random.default_rng(24), 4, [2, 2], 2, 2)
        own[1, 0, 0, 0] = np.inf
        s3[3, 1, 1] = np.nan
        for rates, args in (
            (kernels.slot_rate_bits_stacked, (own, g3, s3)),
            (kernels.logdet_rate_bits_stacked, dense_form(own, g3, s3)),
        ):
            with np.errstate(invalid="ignore"), pytest.raises(SingularCovariance) as info:
                rates(*args)
            assert info.value.index == 3

    def test_non_finite_own_block_alone(self):
        own, g3, s3 = slot_structured(np.random.default_rng(25), 4, [2, 1, 1], 2, 2)
        own[2, 1, :, 0] = np.inf
        for rates, args in (
            (kernels.slot_rate_bits_stacked, (own, g3, s3)),
            (kernels.logdet_rate_bits_stacked, dense_form(own, g3, s3)),
        ):
            with np.errstate(invalid="ignore"), pytest.raises(GramOverflow) as info:
                rates(*args)
            assert info.value.index == 2

    def test_huge_finite_entries_stay_finite(self):
        # entries whose squares overflow: neither the slot blocks' pass nor
        # the dense form's QR forms a product of them
        own, g3, s3 = slot_structured(np.random.default_rng(26), 3, [2, 2], 2, 2)
        own[1] *= 1e160
        rates = kernels.slot_rate_bits_stacked(own, g3, s3)
        assert np.all(np.isfinite(rates))
        assert rates[1] > 2 * 1000  # two slots of log2(1e320)-sized factors
        dense = kernels.logdet_rate_bits_stacked(*dense_form(own, g3, s3))
        assert dense == pytest.approx(rates, rel=self.TOL)

    def test_coupling_shape_checked(self):
        own, g3, s3 = slot_structured(np.random.default_rng(27), 2, [2, 2], 2, 2)
        with pytest.raises(ValueError):
            kernels.slot_rate_bits_stacked(own, g3[..., :3], s3)
        with pytest.raises(ValueError):
            kernels.slot_rank_stacked(own, g3[..., :3])


class TestSlotRank:
    """rank([A; P]) from the slot blocks and P N against an SVD of the
    stacked system."""

    def test_random_systems(self):
        for trial in range(40):
            rng = np.random.default_rng(3000 + trial)
            loads = rng.integers(1, 5, size=int(rng.integers(1, 6))).tolist()
            rows = int(rng.integers(1, 4))
            n3 = int(rng.integers(0, 7))
            own, coupled, _ = slot_structured(rng, 6, loads, rows, max(n3, 1))
            coupled = coupled[:, :n3]
            # deficient members: a zeroed slot block, coupling rows that
            # repeat one another, and no coupling at all
            own[1, 0] = 0
            if n3 > 1:
                coupled[2, 1] = 3 * coupled[2, 0]
            coupled[4] = 0
            slot = kernels.slot_rank_stacked(own, coupled)
            assert slot.tolist() == dense_rank(own, coupled).tolist()
        assert kernels.slot_rank_stacked(own, None).tolist() == dense_rank(own, None).tolist()

    def test_zeroed_block_covered_by_coupling(self):
        # slot 1 has no own equations at all, and the coupling rows supply
        # all of its symbols: full rank again
        rng = np.random.default_rng(31)
        own, coupled, _ = slot_structured(rng, 3, [3, 2], 2, 3)
        own[:, 1] = 0
        assert kernels.slot_rank_stacked(own, coupled).tolist() == [5, 5, 5]
        assert dense_rank(own, coupled).tolist() == [5, 5, 5]
        assert kernels.slot_rank_stacked(own, coupled[:, :2]).tolist() == [4, 4, 4]

    def test_rank_rtol_semantics(self):
        # a slot block with singular values 1 and 1e-12 (and one of 1e-6):
        # the cut at RANK_RTOL = 1e-9 falls between them in both evaluations
        rng = np.random.default_rng(32)
        own, coupled, _ = slot_structured(rng, 2, [2, 2], 2, 1)
        u, _, vh = np.linalg.svd(own[:, 0])
        own[0, 0] = u[0] @ np.diag([1.0, 1e-12]) @ vh[0]
        own[1, 0] = u[1] @ np.diag([1.0, 1e-6]) @ vh[1]
        coupled[:] = 0
        assert kernels.slot_rank_stacked(own, coupled).tolist() == [3, 4]
        assert dense_rank(own, coupled).tolist() == [3, 4]
        # each factor is cut against its own largest singular value: a slot
        # block 1e-12 times weaker than the rest counts in full here, where
        # the stacked system's SVD cuts it
        weak = own.copy()
        weak[1] = own[1, 1]
        weak[:, 1] *= 1e-12
        assert kernels.slot_rank_stacked(weak, coupled)[1] == 4
        assert dense_rank(weak, coupled)[1] == 2

    def assert_both_references(self, own, coupled):
        rank = kernels.slot_rank_stacked(own, coupled)
        assert rank.tolist() == svd_slot_rank(own, coupled).tolist()
        assert rank.tolist() == dense_rank(own, coupled).tolist()
        return rank

    @pytest.mark.parametrize("shape", [(1, 1, 3), (2, 1, 2), (3, 2, 2), (1, 2, 4)])
    def test_repeated_coupling_row_is_not_undercounted(self, shape):
        """No own rows and k + 1 coupling rows, the second a multiple of the
        first: full rank k, though the triangle of a QR of the first k rows is
        singular, so a count of its diagonal reads k - 1."""
        rng = np.random.default_rng(51)
        slots, rows, width = shape
        k = slots * width
        own = np.zeros((200, slots, rows, width), dtype=complex)
        coupled = rng.standard_normal((200, k + 1, k)) + 1j * rng.standard_normal((200, k + 1, k))
        coupled[:, 1] = (0.3 - 1.7j) * coupled[:, 0]
        assert self.assert_both_references(own, coupled).tolist() == [k] * 200

    @pytest.mark.parametrize("n, c", [(40, 0.5), (24, 0.8), (20, 0.9)])
    def test_kahan_coupling_is_not_overcounted(self, n, c):
        """Coupling rows K^H of a Kahan matrix K: every diagonal entry of
        its R is far above the cut, yet its smallest singular value is
        below it, so its rank is n - 1. The certificate must refuse to
        certify it."""
        s = np.sqrt(1.0 - c * c)
        kahan = np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
        coupled = np.stack([kahan.T, np.exp(0.7j) * kahan.T])
        own = np.zeros((2, 1, 1, n), dtype=complex)
        assert self.assert_both_references(own, coupled).tolist() == [n - 1] * 2

    def test_certified_and_counted_members_mix(self, monkeypatch):
        """Certified members next to a zeroed P and a repeated coupling row:
        only those two reach the SVD, and each count lands on its own
        member."""
        rng = np.random.default_rng(52)
        own, coupled, _ = slot_structured(rng, 5, [2, 2], 1, 2)
        coupled[1] = 0
        coupled[3, 1] = (0.5 - 2j) * coupled[3, 0]
        counted = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            counted.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        assert kernels.slot_rank_stacked(own, coupled).tolist() == [4, 2, 4, 3, 4]
        assert counted == [2]
        monkeypatch.undo()
        self.assert_both_references(own, coupled)

    @pytest.mark.parametrize(
        "slots, width, n3", [(2, 3, 4), (1, 2, 5), (2, 2, 4)], ids=["wide", "tall", "square"]
    )
    def test_certificate_boundary(self, slots, width, n3, monkeypatch):
        """Coupling rows P with no own rows, so P N = P, of chosen smallest
        singular value against the cut c = RANK_RTOL ||P||_F: at 10 c too
        close to the cut to certify, so the SVD counts it, in full; at c / 10
        deficient; generic, or at 1e-6 ||P||_F (above the certificate's
        margin of about 1e-7 ||P||_F here), and certified, so no SVD sees
        it; and zero, which is never certified."""
        rng = np.random.default_rng(53)
        k = slots * width
        m = min(k, n3)
        # singular values 1, ..., 1, x: ||P||_F = sqrt(m - 1) up to a
        # relative x^2 / (m - 1), so x = f RANK_RTOL sqrt(m - 1) is f c
        values = np.ones((5, m))
        values[0, -1] = 10 * kernels.RANK_RTOL * np.sqrt(m - 1)
        values[1, -1] = 0.1 * kernels.RANK_RTOL * np.sqrt(m - 1)
        values[2] = rng.uniform(0.5, 1.0, m)
        values[3, -1] = 1e-6 * np.sqrt(m - 1)
        values[4] = 0
        middle = np.zeros((5, n3, k))
        middle[:, range(m), range(m)] = values
        coupled = unitary(rng, n3, 5) @ middle @ unitary(rng, k, 5)
        own = np.zeros((5, slots, 1, width), dtype=complex)
        seen = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            seen.append(svd(a, compute_uv=False))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        assert kernels.slot_rank_stacked(own, coupled).tolist() == [m, m - 1, m, m, 0]
        # one SVD, of the members at 10 c, at c / 10 and zero, in that order
        (s,) = seen
        cut = kernels.RANK_RTOL * np.linalg.norm(coupled[:2], axis=(-2, -1))
        assert s[:2, -1] / cut == pytest.approx([10.0, 0.1], rel=1e-6)
        assert not s[2].any()
        monkeypatch.undo()
        self.assert_both_references(own, coupled)

    def test_non_finite_entry_raises_with_its_index(self):
        """A nan in the coupling rows or an inf in a slot block raises
        ValueError naming the flat batch index of the first such system,
        before any rank is taken."""
        rng = np.random.default_rng(54)
        own, coupled, _ = slot_structured(rng, 4, [2, 2], 1, 2)
        bad = coupled.copy()
        bad[2, 1, 3] = np.nan
        bad[3, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite") as err:
            kernels.slot_rank_stacked(own, bad)
        assert err.value.index == 2
        # over two batch axes the index is the flat one
        bad = own.reshape(2, 2, 2, 1, 2).copy()
        bad[1, 0, 1, 0, 0] = -np.inf
        for coupled_rows in (coupled.reshape(2, 2, 2, 4), None):
            with pytest.raises(ValueError, match="non-finite") as err:
                kernels.slot_rank_stacked(bad, coupled_rows)
            assert err.value.index == 2


def svd_slot_rank(own, coupled):
    """rank([A; P]) = sum_t rank(A_t) + rank(P N) by one SVD per slot block:
    the reference for the Gram-Schmidt pass of ``slot_rank_stacked``. N_t^H
    is the right singular vectors of A_t past its rank, the others zeroed;
    rank(P N) counts the singular values above RANK_RTOL * ||P||_F."""
    slots, width = own.shape[-3], own.shape[-1]
    if not slots * width:
        return np.zeros(own.shape[:-3], dtype=np.int64)
    # the right singular vectors of A_t are the left ones of A_t^H
    v, s, _ = np.linalg.svd(np.swapaxes(own.conj(), -1, -2))
    r = np.count_nonzero(s > kernels.RANK_RTOL * s[..., :1], axis=-1)
    rank = np.sum(r, axis=-1)
    if coupled is None or not coupled.shape[-2]:
        return rank
    n3 = coupled.shape[-2]
    null_h = np.swapaxes(v.conj(), -1, -2) * (np.arange(width) >= r[..., None])[..., None]
    p_h = np.swapaxes(coupled.conj(), -1, -2).reshape(coupled.shape[:-2] + (slots, width, n3))
    projected = (null_h @ p_h).reshape(coupled.shape[:-2] + (slots * width, n3))
    s = np.linalg.svd(projected, compute_uv=False)
    scale = np.linalg.norm(coupled, axis=(-2, -1))
    return rank + np.count_nonzero(s > kernels.RANK_RTOL * scale[..., None], axis=-1)


def unitary(rng, n, batch):
    q, _ = np.linalg.qr(rng.standard_normal((batch, n, n)) + 1j * rng.standard_normal((batch, n, n)))
    return q


# Singular values of the slot blocks, relative to the largest (1): each is
# a thousand times away from the cut at RANK_RTOL = 1e-9, where a pivoted
# Gram-Schmidt residual and a singular value may fall on either side.
SINGULAR = (1.0, 1e-3, 1e-6, 1e-12, 0.0)


@st.composite
def slot_systems(draw):
    """Slot blocks (batch, slots, rows, width) with chosen singular values,
    loads below the width (masked columns), chosen zero rows and zeroed
    blocks, over coupling rows that are free, or lie in the row span of the
    own rows, exactly or up to 1e-3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch, rows = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    loads = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(any))
    width = max(loads)
    own = np.zeros((batch, len(loads), rows, width), dtype=complex)
    for t, load in enumerate(loads):
        count = min(rows, load)
        if not count:
            continue
        values = [1.0] + draw(st.lists(st.sampled_from(SINGULAR), min_size=count - 1, max_size=count - 1))
        if draw(st.booleans()):
            values = [0.0] * count  # a zeroed block
        middle = np.zeros((rows, load))
        middle[range(count), range(count)] = values
        own[:, t, :, :load] = unitary(rng, rows, batch) @ middle @ unitary(rng, load, batch)
    zero_rows = sorted(draw(st.sets(st.integers(0, rows - 1), max_size=rows - 1)))
    own[:, :, zero_rows] = 0
    n3 = draw(st.integers(0, 5))
    free = draw(st.sampled_from((0.0, 1e-3, 1.0)))
    shape = (batch, n3, len(loads) * rows)
    coupled = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) @ block_diagonal(own)
    coupled += free * (rng.standard_normal(coupled.shape) + 1j * rng.standard_normal(coupled.shape))
    return own, coupled if n3 or draw(st.booleans()) else None


def dense_rank(own, coupled):
    stacked = block_diagonal(own)
    if coupled is not None:
        stacked = np.concatenate([stacked, coupled], axis=-2)
    return kernels.numerical_rank_stacked(stacked)


class TestSlotRankGramSchmidt:
    """The pivoted Gram-Schmidt pass against one SVD per slot block and
    against an SVD of the dense system."""

    @settings(max_examples=300, deadline=None)
    @given(slot_systems())
    def test_matches_svd_references(self, system):
        own, coupled = system
        rank = kernels.slot_rank_stacked(own, coupled)
        assert rank.tolist() == svd_slot_rank(own, coupled).tolist()
        assert rank.tolist() == dense_rank(own, coupled).tolist()

    def test_coupling_in_the_own_row_span_adds_no_rank(self):
        """Coupling rows that mix own rows leave only rounding noise in P N,
        which is cut against the coupling rows' scale, not its own."""
        rng = np.random.default_rng(41)
        for loads, rows, n3 in (([3, 2, 3], 2, 4), ([2, 2], 1, 2), ([4], 2, 3), ([3, 3, 1], 2, 6)):
            own, _, _ = slot_structured(rng, 200, loads, rows, 1)
            mix = rng.standard_normal((200, n3, len(loads) * rows))
            coupled = mix @ block_diagonal(own)
            want = dense_rank(own, None)
            assert want.tolist() == [sum(min(rows, load) for load in loads)] * 200
            assert dense_rank(own, coupled).tolist() == want.tolist()
            assert kernels.slot_rank_stacked(own, coupled).tolist() == want.tolist()

    def test_weak_counted_row_stays_orthogonal(self):
        """A block with singular values 1 and 1e-8, ten times above the cut.
        After the first step its other row is a residual of norm about 1e-8
        that still holds rounding error of about 1e-16 along the first
        pivot row. Without the second Gram-Schmidt pass that error, 1e-8 of
        the residual, tilts the projector by more than the cut, and
        coupling rows in the row span read as rank."""
        rng = np.random.default_rng(43)
        middle = np.diag([1.0, 1e-8, 0.0])[:2]
        own = (unitary(rng, 2, 300) @ middle @ unitary(rng, 3, 300))[:, None]
        coupled = rng.standard_normal((300, 4, 2)) @ own[:, 0]
        assert dense_rank(own, coupled).tolist() == [2] * 300
        assert kernels.slot_rank_stacked(own, coupled).tolist() == [2] * 300

    def test_row_basis(self):
        """Pivoted rows give each block's rank, also past a zero first row
        of a tall block; the projector is Hermitian, idempotent,
        annihilated by the block, and exactly zero where the block has full
        column rank."""
        rng = np.random.default_rng(42)
        for rows, width in ((3, 2), (2, 3), (3, 3), (1, 4), (4, 1)):
            a = rng.standard_normal((rows, width, 50)) + 1j * rng.standard_normal((rows, width, 50))
            a[:, :, 10:20] *= (np.arange(width) < width - 1)[:, None]  # a zero column
            a[:, :, 20:30] = 0
            a[0, :, 30:40] = 0  # a zero first row
            rank, null_h = kernels._row_basis(a)
            blocks = np.moveaxis(a, -1, 0)
            projector = np.moveaxis(null_h, -1, 0)
            assert rank.tolist() == kernels.numerical_rank_stacked(blocks).tolist()
            full = rank == width
            assert not np.any(projector[full])
            assert np.allclose(blocks @ projector, 0, atol=1e-12)
            assert np.allclose(projector, np.swapaxes(projector.conj(), -1, -2), atol=1e-12)
            assert np.allclose(projector @ projector, projector, atol=1e-12)
            assert np.allclose(np.trace(projector, axis1=-2, axis2=-1), width - rank, atol=1e-12)

    def test_all_zero_blocks_raise_no_warning(self):
        # the tests turn a RuntimeWarning (0/0 in a normalization) into an error
        own = np.zeros((3, 2, 2, 3), dtype=complex)
        assert kernels.slot_rank_stacked(own, np.zeros((3, 2, 6), dtype=complex)).tolist() == [0] * 3
        assert kernels.slot_rank_stacked(own, None).tolist() == [0] * 3
        coupled = np.ones((3, 2, 6), dtype=complex)
        assert kernels.slot_rank_stacked(own, coupled).tolist() == [1] * 3


class TestNumericalRank:
    def test_full_rank(self):
        for m, k in [(1, 1), (3, 3), (4, 2), (2, 6)]:
            a = RNG.standard_normal((m, k)) + 1j * RNG.standard_normal((m, k))
            assert kernels.numerical_rank(a) == min(m, k)

    def test_exact_deficiency(self):
        row = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
        a = np.vstack([row, 2 * row, RNG.standard_normal(4)])
        assert kernels.numerical_rank(a) == 2

    def test_zero_and_empty(self):
        assert kernels.numerical_rank(np.zeros((3, 2))) == 0
        assert kernels.numerical_rank(np.zeros((0, 4))) == 0
        assert kernels.numerical_rank_stacked(np.zeros((2, 3, 0))).tolist() == [0, 0]

    def test_tolerance_is_relative(self):
        # 1e6 spread is fine at RANK_RTOL 1e-9; 1e12 spread is cut
        a = np.diag([1e6, 1.0]).astype(complex)
        assert kernels.numerical_rank(a) == 2
        a = np.diag([1e12, 1.0]).astype(complex)
        assert kernels.numerical_rank(a) == 1

    def test_stacked_matches_2d(self):
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            m = int(rng.integers(1, 13))
            k = int(rng.integers(1, 13))
            a = rng.standard_normal((6, m, k)) + 1j * rng.standard_normal((6, m, k))
            if m > 1:
                a[::2, -1] = a[::2, 0] * rng.standard_normal()  # deficient members
            a[5] = 0
            stacked = kernels.numerical_rank_stacked(a)
            assert stacked.tolist() == [kernels.numerical_rank(x) for x in a]


def test_backend_is_numpy():
    assert kernels.backend == "numpy"
