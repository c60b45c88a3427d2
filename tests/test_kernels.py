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
