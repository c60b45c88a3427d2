"""Numeric kernels: reference results, stacked-versus-2-D parity, failure modes."""

import numpy as np
import pytest

from doflab import GramOverflow, SingularCovariance, kernels

from reference import block_diagonal, dense_form, fraction_rank, fraction_ranks, svd_rate

RNG = np.random.default_rng(20240817)


def random_system(rng, m, k):
    g = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2)
    b = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
    sigma = b @ b.conj().T + 0.1 * np.eye(m)
    return g, sigma


def random_stack(rng, batch, m, k):
    systems = [random_system(rng, m, k) for _ in range(batch)]
    return np.stack([g for g, _ in systems]), np.stack([s for _, s in systems])


class TestLogdetRate:
    def test_matches_direct_evaluation(self):
        """Against the SVD of the whitened system."""
        for m, k in [(1, 1), (2, 2), (3, 1), (2, 5), (8, 8)]:
            g, sigma = random_system(RNG, m, k)
            assert kernels.logdet_rate_bits(g, sigma) == pytest.approx(
                svd_rate(g, sigma), rel=1e-10
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


P = kernels.PRIMES[0]


def integer_system(rng, batch, slots, rows, width, n3, high=4):
    """Slot blocks (batch, slots, rows, width) and coupling rows (batch, n3,
    slots * width) of integers 0 .. high - 1: small enough that ranks are
    often deficient."""
    own = rng.integers(0, high, (batch, slots, rows, width))
    return own, rng.integers(0, high, (batch, n3, slots * width))


class TestSlotRank:
    """The exact rank of int64 residues mod p against a ``Fraction`` rank of
    the dense system."""

    def test_random_systems(self):
        for trial in range(60):
            rng = np.random.default_rng(3000 + trial)
            slots, rows, width = (int(x) for x in rng.integers(1, 5, 3))
            own, coupled = integer_system(rng, 4, slots, rows, width, int(rng.integers(0, 7)))
            own[1, 0] = 0  # a zero block
            if rows > 1:
                own[2, -1, 1] = 2 * own[2, -1, 0]  # a deficient block
            coupled[3] = 0  # coupling rows that add nothing
            want = fraction_ranks(own, coupled)
            assert kernels.slot_rank_stacked(own, coupled).tolist() == want
            assert kernels.slot_rank_stacked(own, None).tolist() == fraction_ranks(own, None)

    def test_residues_near_p(self):
        """Entries p - 1 - x, that is -(1 + x) mod p: every product in the
        elimination is near p**2, and the rank is that of 1 + x."""
        for trial in range(20):
            rng = np.random.default_rng(3100 + trial)
            own, coupled = integer_system(rng, 3, 3, 2, 3, 5)
            assert kernels.slot_rank_stacked(P - 1 - own, P - 1 - coupled).tolist() == fraction_ranks(
                1 + own, 1 + coupled
            )

    def test_full_rank(self):
        rng = np.random.default_rng(3200)
        own, coupled = integer_system(rng, 50, 3, 2, 3, 3, high=P)
        assert kernels.slot_rank_stacked(own, coupled).tolist() == [9] * 50
        assert fraction_ranks(own[:5], coupled[:5]) == [9] * 5

    def test_coupling_in_the_own_row_span_adds_no_rank(self):
        rng = np.random.default_rng(3300)
        for slots, rows, width, n3 in ((3, 2, 3, 4), (2, 1, 2, 2), (1, 2, 4, 3), (3, 2, 3, 6)):
            own, _ = integer_system(rng, 20, slots, rows, width, 0)
            mix = rng.integers(0, 4, (20, n3, slots * rows))
            coupled = mix @ block_diagonal(own)
            want = fraction_ranks(own, None)
            assert fraction_ranks(own, coupled) == want
            assert kernels.slot_rank_stacked(own, coupled % P).tolist() == want

    def test_zero_block_covered_by_coupling(self):
        """Slot 1 has no own equations at all, and the coupling rows supply
        all of its symbols: full rank again, and one short with a row less."""
        rng = np.random.default_rng(3400)
        own, coupled = integer_system(rng, 3, 2, 2, 3, 3, high=P)
        own[:, 1] = 0
        assert kernels.slot_rank_stacked(own, coupled).tolist() == [5, 5, 5]
        assert kernels.slot_rank_stacked(own, coupled[:, :2]).tolist() == [4, 4, 4]

    def test_all_zero_and_empty_systems(self):
        own = np.zeros((3, 2, 2, 3), dtype=np.int64)
        assert kernels.slot_rank_stacked(own, np.zeros((3, 2, 6), dtype=np.int64)).tolist() == [0] * 3
        assert kernels.slot_rank_stacked(own, None).tolist() == [0] * 3
        assert kernels.slot_rank_stacked(own, np.ones((3, 2, 6), dtype=np.int64)).tolist() == [1] * 3
        # no own rows: the rank of the coupling rows alone
        rng = np.random.default_rng(3500)
        coupled = rng.integers(0, 3, (4, 3, 4))
        none = np.zeros((4, 2, 0, 2), dtype=np.int64)
        assert kernels.slot_rank_stacked(none, coupled).tolist() == [fraction_rank(c.tolist()) for c in coupled]
        assert kernels.slot_rank_stacked(own[..., :0], None).tolist() == [0] * 3

    def test_keeps_batch_axes(self):
        rng = np.random.default_rng(3600)
        own, coupled = integer_system(rng, 6, 2, 1, 3, 4)
        flat = kernels.slot_rank_stacked(own, coupled)
        grid = kernels.slot_rank_stacked(own.reshape(2, 3, 2, 1, 3), coupled.reshape(2, 3, 4, 6))
        assert grid.shape == (2, 3) and grid.ravel().tolist() == flat.tolist()

    @pytest.mark.parametrize("shape", [(1, 1, 3), (2, 1, 2), (3, 2, 2), (1, 2, 4)])
    def test_repeated_coupling_row_is_not_undercounted(self, shape):
        """No own rows and k + 1 coupling rows, the second a multiple of the
        first: full rank k, though the first k rows alone are singular."""
        rng = np.random.default_rng(3650)
        slots, rows, width = shape
        k = slots * width
        own = np.zeros((20, slots, rows, width), dtype=np.int64)
        coupled = rng.integers(0, 1000, (20, k + 1, k))
        coupled[:, 1] = 3 * coupled[:, 0]
        assert kernels.slot_rank_stacked(own, coupled).tolist() == [k] * 20
        assert fraction_ranks(own[:4], coupled[:4]) == [k] * 4

    @pytest.mark.parametrize(
        "slots, width, n3", [(2, 3, 4), (1, 2, 5), (2, 2, 4)], ids=["wide", "tall", "square"]
    )
    def test_wide_tall_and_square_p_n(self, slots, width, n3):
        """Coupling rows P over zero slot blocks, so P N = P, of each shape
        that the elimination of P N meets: generic, so full rank; its last
        row or column the sum of the others, so one short; and zero."""
        rng = np.random.default_rng(3660)
        k = slots * width
        m = min(k, n3)
        coupled = rng.integers(0, 1000, (3, n3, k))
        if n3 <= k:
            coupled[1, -1] = coupled[1, :-1].sum(axis=0)
        else:
            coupled[1, :, -1] = coupled[1, :, :-1].sum(axis=-1)
        coupled[2] = 0
        own = np.zeros((3, slots, 1, width), dtype=np.int64)
        assert kernels.slot_rank_stacked(own, coupled).tolist() == [m, m - 1, 0]
        assert fraction_ranks(own, coupled) == [m, m - 1, 0]

    @pytest.mark.parametrize("where", ["slot-block", "coupling"])
    def test_rank_mod_p_falls_where_p_divides_a_minor(self, where):
        """The one-sided bound: [[2, 1], [1, (p + 1) / 2]] has determinant
        p, so rank 2 over the rationals but 1 mod p, in a slot block and in
        P N alike; mod the other prime it has rank 2 again."""
        minor = np.array([[2, 1], [1, (P + 1) // 2]], dtype=np.int64)
        if where == "slot-block":
            own, coupled = minor[None, None], None
        else:
            own, coupled = np.zeros((1, 1, 0, 2), dtype=np.int64), minor[None]
        assert fraction_ranks(own, coupled) == [2]
        assert kernels.slot_rank_stacked(own, coupled).tolist() == [1]
        assert kernels.slot_rank_stacked(own, coupled, kernels.PRIMES[1]).tolist() == [2]

    def test_coupling_shape_checked(self):
        own, coupled = integer_system(np.random.default_rng(3700), 2, 2, 2, 2, 2)
        with pytest.raises(ValueError, match="columns"):
            kernels.slot_rank_stacked(own, coupled[..., :3])

    def test_residue_range_and_dtype_checked(self):
        """An entry outside 0 .. p - 1 raises ValueError naming the flat
        batch index of the first such system; a float array TypeError."""
        own, coupled = integer_system(np.random.default_rng(3800), 4, 2, 1, 2, 2)
        bad = coupled.copy()
        bad[2, 1, 3] = P
        bad[3, 0, 0] = -1
        with pytest.raises(ValueError, match="outside") as err:
            kernels.slot_rank_stacked(own, bad)
        assert err.value.index == 2
        bad = own.reshape(2, 2, 2, 1, 2).copy()
        bad[1, 0, 1, 0, 0] = -1
        for coupled_rows in (coupled.reshape(2, 2, 2, 4), None):
            with pytest.raises(ValueError, match="outside") as err:
                kernels.slot_rank_stacked(bad, coupled_rows)
            assert err.value.index == 2
        with pytest.raises(ValueError, match="outside"):
            kernels.slot_rank_stacked(own, coupled, p=3)
        with pytest.raises(TypeError, match="int64"):
            kernels.slot_rank_stacked(own.astype(float), coupled)
        with pytest.raises(TypeError, match="int64"):
            kernels.slot_rank_stacked(own, coupled.astype(complex))


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
