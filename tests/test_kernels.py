"""Numeric kernels: reference results, stacked-versus-2-D parity, failure modes."""

import numpy as np
import pytest

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
        # finite entries whose G^H G exceeds the float range
        g, sigma = random_stack(np.random.default_rng(12), 4, 2, 2)
        g[2] = 1e200
        assert np.all(np.isfinite(g))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            GramOverflow, match="Gram matrix"
        ) as info:
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
            block = kernels.slot_rate_bits_stacked(own, g3, s3)
            want = svd_rate(*dense_form(own, g3, s3))
            worst = max(worst, float(np.max(np.abs(block - want) / np.maximum(1.0, np.abs(want)))))
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
        # entries whose squares overflow: the dense kernel's Gram matrix
        # does, the slot kernel forms no product of them
        own, g3, s3 = slot_structured(np.random.default_rng(26), 3, [2, 2], 2, 2)
        own[1] *= 1e160
        rates = kernels.slot_rate_bits_stacked(own, g3, s3)
        assert np.all(np.isfinite(rates))
        assert rates[1] > 2 * 1000  # two slots of log2(1e320)-sized factors
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(GramOverflow) as info:
            kernels.logdet_rate_bits_stacked(*dense_form(own, g3, s3))
        assert info.value.index == 1

    def test_coupling_shape_checked(self):
        own, g3, s3 = slot_structured(np.random.default_rng(27), 2, [2, 2], 2, 2)
        with pytest.raises(ValueError):
            kernels.slot_rate_bits_stacked(own, g3[..., :3], s3)
        with pytest.raises(ValueError):
            kernels.slot_rank_stacked(own, g3[..., :3])


class TestSlotRank:
    """rank([A; P]) from the slot blocks and P N against an SVD of the
    stacked system."""

    def dense_rank(self, own, coupled, rtol=1e-9):
        stacked = block_diagonal(own)
        if coupled is not None:
            stacked = np.concatenate([stacked, coupled], axis=-2)
        return kernels.numerical_rank_stacked(stacked, rtol)

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
            assert slot.tolist() == self.dense_rank(own, coupled).tolist()
        assert kernels.slot_rank_stacked(own, None).tolist() == self.dense_rank(own, None).tolist()

    def test_zeroed_block_covered_by_coupling(self):
        # slot 1 has no own equations at all, and the coupling rows supply
        # all of its symbols: full rank again
        rng = np.random.default_rng(31)
        own, coupled, _ = slot_structured(rng, 3, [3, 2], 2, 3)
        own[:, 1] = 0
        assert kernels.slot_rank_stacked(own, coupled).tolist() == [5, 5, 5]
        assert self.dense_rank(own, coupled).tolist() == [5, 5, 5]
        assert kernels.slot_rank_stacked(own, coupled[:, :2]).tolist() == [4, 4, 4]

    def test_rank_rtol_semantics(self):
        # a slot block with singular values 1 and 1e-12 (and one of 1e-6):
        # the cut at rtol 1e-9 falls between them in both evaluations
        rng = np.random.default_rng(32)
        own, coupled, _ = slot_structured(rng, 2, [2, 2], 2, 1)
        u, _, vh = np.linalg.svd(own[:, 0])
        own[0, 0] = u[0] @ np.diag([1.0, 1e-12]) @ vh[0]
        own[1, 0] = u[1] @ np.diag([1.0, 1e-6]) @ vh[1]
        coupled[:] = 0
        assert kernels.slot_rank_stacked(own, coupled).tolist() == [3, 4]
        assert self.dense_rank(own, coupled).tolist() == [3, 4]
        assert kernels.slot_rank_stacked(own, coupled, rtol=1e-13).tolist() == [4, 4]
        # each factor is cut against its own largest singular value: a slot
        # block 1e-12 times weaker than the rest counts in full here, where
        # the stacked system's SVD cuts it
        weak = own.copy()
        weak[1] = own[1, 1]
        weak[:, 1] *= 1e-12
        assert kernels.slot_rank_stacked(weak, coupled)[1] == 4
        assert self.dense_rank(weak, coupled)[1] == 2


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
        # 1e6 spread is fine at rtol 1e-9; 1e12 spread is cut
        a = np.diag([1e6, 1.0]).astype(complex)
        assert kernels.numerical_rank(a) == 2
        a = np.diag([1e12, 1.0]).astype(complex)
        assert kernels.numerical_rank(a) == 1
        assert kernels.numerical_rank(a, rtol=1e-15) == 2

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
