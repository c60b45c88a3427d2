"""Monte Carlo layer: channels, quantizer, stacked systems, rate reports."""

import csv
import io
import itertools
import json
import math
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from doflab import (
    AntennaOverflow,
    ChannelRealization,
    DoflabError,
    InfeasiblePlan,
    InvalidAlpha,
    InvalidConfig,
    InvalidSeed,
    InvalidSnrGrid,
    PlanTooLarge,
    SchedulePlan,
    ShapeMismatch,
    SimParams,
    SimReport,
    SingularCovariance,
    SystemConfig,
    build_phase_matrices,
    cli,
    corner_weight,
    estimate_rates,
    gen_channels,
    kernels,
    order2_payload,
    plan_schedule,
    plan_tdma,
    quantize_csit,
    rank_check_campaign,
    simulate,
)

from acceptance_grid import GRID_SIZE, grid_plans
from reference import (
    block_diagonal,
    dealt_blocks,
    float_words,
    reference_failure,
    reference_layouts,
    reference_rank_passes,
    reference_rates,
    reference_stack,
    residual_scan,
    svd_ranks,
    whole_system_ranks,
)


class TestSimParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimParams(snr_grid_db=(30.0,))
        with pytest.raises(ValueError):
            SimParams(snr_grid_db=(30.0, 20.0))
        with pytest.raises(ValueError):
            SimParams(snr_grid_db=(20.0, 30.0), trials=0)

    def test_grid_coercion(self):
        params = SimParams(snr_grid_db=[20, 30])
        assert params.snr_grid_db == (20.0, 30.0)

    @pytest.mark.parametrize("grid, message", [
        ((30.0,), "need at least two SNR points"),
        ((), "need at least two SNR points"),
        # rho = 10**(snr/10) overflows above about 3082 dB, and is 0 below
        # about -3236 dB; the ends are named first
        ((0.0, 3090.0), "SNR 3090.0 dB gives no positive finite rho"),
        ((3000.0, 3090.0, 3180.0), "SNR 3180.0 dB gives no positive finite rho"),
        ((-4000.0, -3500.0, 30.0), "SNR -4000.0 dB gives no positive finite rho"),
        ((0.0, math.inf), "SNR inf dB gives no positive finite rho"),
        ((-math.inf, 0.0), "SNR -inf dB gives no positive finite rho"),
        ((20.0, math.nan, 40.0), "SNR nan dB gives no positive finite rho"),
        ((20.0, 4000.0, 40.0), "SNR 4000.0 dB gives no positive finite rho"),
        ((30.0, 20.0), "SNR grid must be increasing"),
        # a repeated point: a slope fitted over it weighs that point twice
        ((30.0, 30.0, 40.0), "SNR grid repeats 30.0 dB"),
        ((30.0, 40.0, 40.0), "SNR grid repeats 40.0 dB"),
    ])
    def test_grid_rules(self, grid, message):
        with pytest.raises(InvalidSnrGrid) as info:
            SimParams(grid)
        assert str(info.value) == message

    @pytest.mark.parametrize("field, value, error, message", [
        ("seed", True, InvalidSeed, "seed must be a non-negative integer, got True"),
        ("seed", 1.5, InvalidSeed, "seed must be a non-negative integer, got 1.5"),
        ("seed", "7", InvalidSeed, "seed must be a non-negative integer, got '7'"),
        ("seed", -1, InvalidSeed, "seed must be a non-negative integer, got -1"),
        ("seed", np.int64(-1), InvalidSeed,
         f"seed must be a non-negative integer, got {np.int64(-1)!r}"),
        ("trials", True, InvalidConfig, "trials must be an integer, got True"),
        ("trials", 2.0, InvalidConfig, "trials must be an integer, got 2.0"),
        ("trials", -3, InvalidConfig, "trials must be positive"),
    ], ids=["seed-bool", "seed-float", "seed-text", "seed-negative", "seed-numpy-negative",
            "trials-bool", "trials-float", "trials-negative"])
    def test_seed_and_trial_rules(self, field, value, error, message):
        """Refused at construction, before any channel is drawn."""
        with pytest.raises(error) as info:
            SimParams((30.0, 40.0), **{field: value})
        assert type(info.value) is error and str(info.value) == message

    def test_numpy_integers_are_integers(self):
        params = SimParams((30.0, 40.0), trials=np.int32(2), seed=np.uint64(2**63))
        assert (params.trials, params.seed) == (2, 2**63)

    def test_extreme_finite_rho_is_accepted(self):
        assert SimParams((-3230.0, 3080.0)).snr_grid_db == (-3230.0, 3080.0)


GRID_POINT = st.one_of(
    st.floats(min_value=-4000.0, max_value=4000.0),
    st.sampled_from([math.inf, -math.inf, math.nan, 4000.0, -4000.0]),
)
ALPHA_ONE = SystemConfig(2, 1, 1)  # its corner plan has phase three
ALPHA_ZERO = SystemConfig(2, 1, 1, 0, 0)  # its corner plan has none


@settings(max_examples=200, deadline=None)
@given(points=st.lists(GRID_POINT, min_size=2, max_size=5), ordered=st.booleans())
@example(points=[0.0, 3090.0], ordered=True)
@example(points=[0.0, math.inf], ordered=True)
@example(points=[-math.inf, 0.0], ordered=True)
@example(points=[-3100.0, 0.0], ordered=True)
def test_any_grid_is_refused_or_runs(points, ordered):
    # a grid either fails SimParams, or gives finite rates or a typed error
    # on a plan with phase three and on one without; never an OverflowError
    # or a bare ValueError
    grid = sorted(points) if ordered else points
    try:
        params = SimParams(grid, trials=1, seed=3)
    except InvalidSnrGrid:
        return
    for cfg in (ALPHA_ONE, ALPHA_ZERO):
        try:
            report = estimate_rates(cfg, plan_schedule(cfg, corner_weight(cfg)), params)
        except DoflabError:
            continue
        assert np.all(np.isfinite(report.rates)) and np.all(np.isfinite(report.slopes))


# forms of a campaign's trials; a form that cannot hold a range of trial
# numbers keeps numpy's arange of it (int64, or object past int64)
TRIAL_FORMS = ("arange", "list", "range", "int32", "uint32", "uint64", "object")


def trial_form(start, stop, form):
    """The trials ``start`` to ``stop`` in the form ``form``."""
    trials = range(start, stop)
    if form == "list":
        return list(trials)
    if form == "range":
        return trials
    if form == "object":
        return np.array(list(trials), dtype=object)
    if form != "arange" and stop <= np.iinfo(form).max + 1:
        return np.array(list(trials), dtype=form)
    return np.arange(start, stop)


class TestGenChannels:
    def test_deterministic(self):
        cfg = SystemConfig(3, 2, 1)
        a = gen_channels(cfg, 7, 42)
        b = gen_channels(cfg, 7, 42)
        assert np.array_equal(a.h1, b.h1)
        assert np.array_equal(a.h2, b.h2)
        c = gen_channels(cfg, 7, 43)
        assert not np.array_equal(a.h1, c.h1)

    def test_seed_sequences(self):
        cfg = SystemConfig(2, 1, 1)
        a = gen_channels(cfg, 3, [9, 0])
        b = gen_channels(cfg, 3, [9, 1])
        assert not np.array_equal(a.h1, b.h1)

    def test_shapes(self):
        real = gen_channels(SystemConfig(3, 2, 1), 7, 0)
        assert real.h1.shape == (7, 2, 3)
        assert real.h2.shape == (7, 1, 3)
        assert real.total_slots == 7

    def test_unit_power(self):
        real = gen_channels(SystemConfig(1, 1, 1), 5000, 11)
        entries = np.concatenate([real.h1.ravel(), real.h2.ravel()])
        assert entries.size == 10_000
        assert np.mean(np.abs(entries) ** 2) == pytest.approx(1.0, abs=0.05)

    def test_single_seed_matches_four_calls(self):
        cfg = SystemConfig(3, 2, 1)
        for seed in (0, [9, 4], 2**40, [2**64 + 3, 7], [], (1, 2, 3, 4, 5), [[2**40, 1], 3]):
            real = gen_channels(cfg, 5, seed)
            h1, h2 = four_call_draw(cfg, 5, seed)
            assert real.h1.shape == h1.shape and real.h2.shape == h2.shape
            assert np.array_equal(real.h1, h1) and np.array_equal(real.h2, h2)

    @pytest.mark.parametrize(("seed", "error"), [(-1, ValueError), ([3, -1], ValueError),
                                                 (1.5, TypeError), ([3, 1.5], TypeError),
                                                 ("12", TypeError), (None, TypeError),
                                                 (-(2**70), ValueError)])
    def test_invalid_seeds_raise(self, seed, error):
        # as numpy.random.SeedSequence does, except that None (fresh OS
        # entropy there) is refused: every draw here is reproducible
        cfg = SystemConfig(2, 1, 1)
        with pytest.raises(error) as refused:
            gen_channels(cfg, 3, seed)
        if isinstance(seed, int):
            assert str(refused.value) == f"seed must be non-negative, got {seed}"
        if not isinstance(seed, list):
            # the same value as a trial, after a valid one, is refused with
            # the seed's message: in a list, and an int also in numpy's
            # array of that list (int64, or object past int64)
            forms = [[5, seed]] + ([np.array([5, seed])] if isinstance(seed, int) else [])
            for trials in forms:
                with pytest.raises(type(refused.value), match=f"^{re.escape(str(refused.value))}$"):
                    gen_channels(cfg, 3, 1, trials)

    @pytest.mark.parametrize(("seed", "trials"), [
        (True, None), (False, None), (np.True_, None), ([3, True], None),
        (1, [True]), (1, np.array([False, True])),
        # a bool among ints, which numpy's array of the list would turn into 1
        (1, [3, np.True_]), (1, np.array([3, True], dtype=object)),
    ])
    def test_bool_seed_or_trial_is_refused(self, seed, trials):
        # as SimParams refuses a bool seed: True is not the seed 1
        with pytest.raises(InvalidSeed, match="^seed must be a non-negative integer, got "):
            gen_channels(SystemConfig(2, 1, 1), 2, seed, trials)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 5),
        n1=st.integers(1, 4),
        n2=st.integers(1, 4),
        slots=st.integers(1, 30),
        seed=st.sampled_from([0, 1, 2**40, 2**64 + 3]) | st.integers(0, 2**70),
        start=st.sampled_from([0, 1]) | st.integers(0, 10**6),
        count=st.integers(0, 6),
        form=st.sampled_from(TRIAL_FORMS),
    )
    @example(m=2, n1=1, n2=1, slots=3, seed=2**40, start=17, count=4, form="arange")
    @example(m=5, n1=3, n2=2, slots=27, seed=2**64 + 3, start=250, count=3, form="arange")
    # trials of one and of two words in one batch, trials of three words,
    # and entropy longer than SeedSequence's pool of four words
    @example(m=2, n1=1, n2=1, slots=3, seed=5, start=2**32 - 2, count=4, form="arange")
    @example(m=2, n1=1, n2=1, slots=3, seed=5, start=2**64, count=3, form="arange")
    @example(m=3, n1=2, n2=1, slots=4, seed=2**200 + 9, start=0, count=3, form="arange")
    # one- and two-word trials after a four-word seed: the zero word a
    # shorter row is padded with would change its hash
    @example(m=2, n1=1, n2=1, slots=3, seed=2**100, start=2**32 - 2, count=4, form="arange")
    # every form once, at the top of its range where it has one, and an
    # object array of two- and three-word trials
    @example(m=2, n1=1, n2=1, slots=3, seed=5, start=7, count=4, form="list")
    @example(m=2, n1=1, n2=1, slots=3, seed=5, start=2**32 - 2, count=4, form="range")
    @example(m=2, n1=1, n2=1, slots=3, seed=5, start=2**31 - 3, count=3, form="int32")
    @example(m=2, n1=1, n2=1, slots=3, seed=5, start=2**32 - 3, count=3, form="uint32")
    @example(m=2, n1=1, n2=1, slots=3, seed=5, start=2**64 - 3, count=3, form="uint64")
    @example(m=2, n1=1, n2=1, slots=3, seed=5, start=2**64 - 2, count=4, form="object")
    def test_batch_rows_match_four_calls(self, m, n1, n2, slots, seed, start, count, form):
        """Row i of a batch is bit-equal to the one-trial draw of
        ``[seed, trials[i]]``, for trial ranges starting anywhere, and to
        row i of the int64 ``arange`` batch of the same trials where there
        is one, whatever the form of the trials."""
        cfg = SystemConfig(m, n1, n2)
        trials = trial_form(start, start + count, form)
        real = gen_channels(cfg, slots, seed, trials)
        assert real.h1.shape == (count, slots, n1, m)
        assert real.h2.shape == (count, slots, n2, m)
        if start + count <= 2**63:
            batch = gen_channels(cfg, slots, seed, np.arange(start, start + count, dtype=np.int64))
            assert np.array_equal(real.h1, batch.h1) and np.array_equal(real.h2, batch.h2)
        for row, trial in enumerate(range(start, start + count)):
            h1, h2 = four_call_draw(cfg, slots, [seed, trial])
            assert np.array_equal(real.h1[row], h1)
            assert np.array_equal(real.h2[row], h2)

    @pytest.mark.parametrize("length", range(1, 10))
    def test_seed_words_match_seed_sequence(self, length):
        """The batched hash gives ``SeedSequence(e).generate_state(4,
        np.uint64)`` for entropy rows of 1 to 9 uint32 words, the extreme
        words included, and ``PCG64`` seeded from those words through
        ``_Words`` has the state ``PCG64(SeedSequence(e))`` has."""
        rng = np.random.default_rng(length)
        entropy = rng.integers(0, 2**32, (12, length), dtype=np.uint32)
        entropy[0], entropy[1] = 0, 2**32 - 1
        entropy[2::3, rng.integers(length)] = 0
        entropy[3::3, rng.integers(length)] = 2**32 - 1
        words = simulate._seed_state_words(entropy)
        assert words.dtype == np.uint64 and words.flags.c_contiguous
        for e, w in zip(entropy.tolist(), words):
            sequence = np.random.SeedSequence(e)
            assert np.array_equal(w, sequence.generate_state(4, np.uint64))
            assert np.random.PCG64(simulate._Words(w)).state == np.random.PCG64(sequence).state

    @pytest.mark.parametrize("seed", [3, 2**40, 2**64 + 3])
    @pytest.mark.parametrize("pairs_per_chunk", [1, 2, 4, 7, 60])
    def test_chunked_draws_match_four_calls(self, seed, pairs_per_chunk, monkeypatch):
        """A campaign's chunks of (trial, SNR) pairs, including chunks that
        split a trial's SNR points or lie inside one trial, see the
        one-trial draws, and every trial is drawn exactly once, in one call
        per draw block, for blocks of one trial up to all of them."""
        cfg, trials, points = SystemConfig(3, 2, 1), 9, 3
        plan = plan_schedule(cfg, corner_weight(cfg))
        geom = simulate._PlanGeometry(cfg, plan)
        assert geom.columns == cfg.m  # every column is kept and compared
        calls = []
        draw = simulate.gen_channels

        def recorded(cfg_, total, seed_, trials_):
            calls.append([int(t) for t in trials_])
            return draw(cfg_, total, seed_, trials_)

        monkeypatch.setattr(simulate, "gen_channels", recorded)
        # a chunk of pairs_per_chunk pairs; 60 pairs hold 20 whole trials,
        # more than any block, so no block is rounded down
        unit_bytes = simulate.CHUNK_BYTES // pairs_per_chunk
        assert simulate.CHUNK_BYTES // unit_bytes == pairs_per_chunk
        for block in (1, 2, 4, trials):
            calls.clear()
            monkeypatch.setattr(geom, "draw_bytes", lambda block=block: simulate.CHUNK_BYTES // block)
            chunks = []
            for pairs, real in simulate._draws(geom, seed, trials, points, unit_bytes):
                chunks.append(pairs.tolist())
                for row, t in enumerate(pairs // points):
                    h1, h2 = four_call_draw(cfg, plan.total_slots, [seed, int(t)])
                    assert np.array_equal(real.h1[row], h1)
                    assert np.array_equal(real.h2[row], h2)
            blocks = [range(b, min(b + block, trials)) for b in range(0, trials, block)]
            assert calls == [list(b) for b in blocks]
            # each block's pairs, cut into chunks of at most pairs_per_chunk
            assert chunks == [
                list(range(start, min(start + pairs_per_chunk, b.stop * points)))
                for b in blocks
                for start in range(b.start * points, b.stop * points, pairs_per_chunk)
            ]


class TestChannelWords:
    """The rank fidelity's draw: trial t's words are the words t * n ..
    (t + 1) * n - 1 of one PCG64 stream per campaign, seeded by the first
    child that ``SeedSequence(seed)`` spawns, whatever the batching."""

    CFG = SystemConfig(5, 3, 2, F(1, 2), F(1, 3))

    @staticmethod
    def flat(words):
        """The words of each trial, ``h1``'s then ``h2``'s, as one row."""
        b = len(words.h1)
        return np.concatenate([words.h1.reshape(b, -1), words.h2.reshape(b, -1)], axis=1)

    @staticmethod
    def stream_words(seed, trial, n):
        """Trial ``trial``'s n words, from a fresh generator of the stream
        jumped ahead past the earlier trials' words."""
        bits = np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0])
        bits.advance(trial * n)
        return bits.random_raw(n)

    @pytest.mark.parametrize("seed", [3, 2**40, 2**64 + 3])
    def test_rows_are_the_streams_raw_words(self, seed):
        """Batches of one, three and eight trials, starting at each listed
        trial, below 2**32, at it and past it: every row is its trial's words
        of the stream, checked row by row against a fresh generator. The
        first eight trials are also checked against reading through the
        stream without a jump, and the stream is none of the rate
        fidelity's."""
        plan = plan_schedule(self.CFG, corner_weight(self.CFG))
        geom = simulate._PlanGeometry(self.CFG, plan)
        slots, columns = plan.total_slots, geom.columns
        n = slots * (self.CFG.n1 + self.CFG.n2) * columns
        trials = [0, 1, 7, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 5]
        for size in (1, 3, len(trials)):
            for first in trials:
                words = simulate._channel_words(geom, seed, first, size)
                assert words.h1.dtype == words.h2.dtype == np.uint64
                assert words.h1.shape == (size, slots, self.CFG.n1, columns)
                assert words.h2.shape == (size, slots, self.CFG.n2, columns)
                for trial, row in enumerate(self.flat(words), start=first):
                    assert np.array_equal(row, self.stream_words(seed, trial, n))
        eight = self.flat(simulate._channel_words(geom, seed, 0, 8))
        read = np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0]).random_raw(8 * n)
        assert np.array_equal(eight, read.reshape(8, n))
        # SeedSequence pads short entropy with zeros: seed's own stream is
        # the rate fidelity's trial 0, and the rank stream is neither
        own = np.random.default_rng(seed).bit_generator.random_raw(n)
        assert np.array_equal(own, np.random.default_rng([seed, 0]).bit_generator.random_raw(n))
        for rate in (seed, [seed, 0], [seed, 1]):
            assert not np.array_equal(eight[0], np.random.default_rng(rate).bit_generator.random_raw(n))

    @pytest.mark.parametrize("per_chunk", [1, 2, 5, 40])
    def test_draws_chunk_the_words(self, per_chunk, monkeypatch):
        """``_word_chunks`` yields chunks of the trials that fit the budget,
        with the one-trial words of each."""
        plan = plan_schedule(self.CFG, corner_weight(self.CFG))
        geom = simulate._PlanGeometry(self.CFG, plan)
        n = plan.total_slots * (self.CFG.n1 + self.CFG.n2) * geom.columns
        monkeypatch.setattr(simulate, "CHUNK_BYTES", per_chunk * geom.trial_bytes())
        chunks = []
        for units, words in simulate._word_chunks(geom, 4, 11):
            chunks.append(units.tolist())
            for row, trial in zip(self.flat(words), units.tolist()):
                assert np.array_equal(row, self.stream_words(4, trial, n))
        assert chunks == [list(range(start, min(start + per_chunk, 11)))
                          for start in range(0, 11, per_chunk)]


def four_call_draw(cfg, slots, seed):
    """One trial's channels by four consecutive ``standard_normal`` calls:
    real and imaginary parts of h1, then of h2."""
    rng = np.random.default_rng(seed)
    shape1, shape2 = (slots, cfg.n1, cfg.m), (slots, cfg.n2, cfg.m)
    h1 = (rng.standard_normal(shape1) + 1j * rng.standard_normal(shape1)) / np.sqrt(2)
    h2 = (rng.standard_normal(shape2) + 1j * rng.standard_normal(shape2)) / np.sqrt(2)
    return h1, h2


class TestQuantizer:
    def test_zero_quality_gives_zero_estimate(self):
        h = gen_channels(SystemConfig(2, 1, 1), 4, 0).h1
        assert np.array_equal(quantize_csit(h, 0, 1e4), np.zeros_like(h))

    def test_residual_power_full_quality(self):
        rng = np.random.default_rng(5)
        h = (rng.standard_normal(20000) + 1j * rng.standard_normal(20000)) / np.sqrt(2)
        err = np.mean(np.abs(h - quantize_csit(h, 1, 1e4)) ** 2)
        assert err <= 4e-4
        assert 0.5e-4 <= err <= 2e-4

    def test_residual_power_half_quality(self):
        rng = np.random.default_rng(5)
        h = (rng.standard_normal(20000) + 1j * rng.standard_normal(20000)) / np.sqrt(2)
        err_half = np.mean(np.abs(h - quantize_csit(h, F(1, 2), 1e4)) ** 2)
        err_full = np.mean(np.abs(h - quantize_csit(h, 1, 1e4)) ** 2)
        assert 0.5e-2 <= err_half <= 4e-2
        assert 50 <= err_half / err_full <= 200

    def test_estimates_lie_on_grid(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        hat = quantize_csit(h, F(1, 2), 100.0)
        step = np.sqrt(6.0) * 100.0 ** -0.25
        assert np.allclose(np.round(hat.real / step), hat.real / step, atol=1e-9)
        assert np.allclose(np.round(hat.imag / step), hat.imag / step, atol=1e-9)

    def test_validation(self):
        h = np.zeros(3, dtype=complex)
        with pytest.raises(ValueError):
            quantize_csit(h, F(3, 2), 100.0)
        with pytest.raises(ValueError):
            quantize_csit(h, F(1, 2), 0.0)
        with pytest.raises(ValueError):
            quantize_csit(h, F(1, 2), np.array([100.0, -1.0, 100.0]))

    @pytest.mark.parametrize(("alpha", "rho", "error", "message"), [
        ("abc", 10.0, InvalidAlpha, "alpha is not a rational: 'abc'"),
        ("3/2", 10.0, InvalidAlpha, "alpha must lie in [0, 1], got 3/2"),
        (F(3, 2), 10.0, InvalidAlpha, "alpha must lie in [0, 1], got 3/2"),
        (-0.5, 10.0, InvalidAlpha, "alpha must lie in [0, 1], got -0.5"),
        (F(1, 2), 0.0, InvalidSnrGrid, "rho must be positive and finite"),
        (F(1, 2), -1.0, InvalidSnrGrid, "rho must be positive and finite"),
        (F(1, 2), math.nan, InvalidSnrGrid, "rho must be positive and finite"),
        (F(1, 2), math.inf, InvalidSnrGrid, "rho must be positive and finite"),
        (0, math.nan, InvalidSnrGrid, "rho must be positive and finite"),
        (F(1, 2), np.array([100.0, math.nan]), InvalidSnrGrid, "rho must be positive and finite"),
    ])
    def test_input_rules(self, alpha, rho, error, message):
        # the quality by SystemConfig's rule, rho by one check of every point
        with pytest.raises(error) as info:
            quantize_csit(np.zeros(2, dtype=complex), alpha, rho)
        assert str(info.value) == message
        if error is InvalidAlpha:
            with pytest.raises(error) as info:
                SystemConfig(2, 1, 1, alpha)
            assert str(info.value) == message.replace("alpha", "alpha1", 1)

    def test_broadcast_rho_matches_scalar(self):
        h = gen_channels(SystemConfig(3, 2, 1), 4, 9).h1
        rho = 10.0 ** (np.arange(-10.0, 90.0, 3.7) / 10.0)
        stacked = quantize_csit(np.broadcast_to(h, (len(rho),) + h.shape), F(1, 3),
                                rho[:, None, None, None])
        for point, r in enumerate(rho):
            assert np.array_equal(stacked[point], quantize_csit(h, F(1, 3), float(r)))


class TestPhaseMatrices:
    def test_small_symmetric_shapes(self):
        cfg = SystemConfig(2, 1, 1)
        plan = SchedulePlan.from_durations(cfg, 2, 2, 2)
        real = gen_channels(cfg, plan.total_slots, 0)
        phases = build_phase_matrices(real, plan, cfg)
        assert phases.rx1_phase1.shape == (2, 4)
        assert phases.rx2_phase1.shape == (2, 4)
        assert phases.rx1_phase2.shape == (2, 4)
        # two 1x2 blocks on the diagonal, exact zeros off them
        assert np.array_equal(phases.rx1_phase1[0, :2], real.h1[0, 0])
        assert np.array_equal(phases.rx1_phase1[1, 2:], real.h1[1, 0])
        assert np.all(phases.rx1_phase1[0, 2:] == 0)
        assert np.all(phases.rx1_phase1[1, :2] == 0)

    def test_asymmetric_shapes(self):
        cfg = SystemConfig(3, 2, 1)
        plan = SchedulePlan(4, 1, 2, 12, 3)
        real = gen_channels(cfg, plan.total_slots, 1)
        phases = build_phase_matrices(real, plan, cfg)
        assert phases.rx1_phase1.shape == (8, 12)
        assert phases.rx2_phase1.shape == (4, 12)
        assert phases.rx1_phase2.shape == (2, 3)
        assert phases.rx2_phase2.shape == (1, 3)
        for t in range(4):
            block = phases.rx1_phase1[2 * t : 2 * t + 2, 3 * t : 3 * t + 3]
            assert np.array_equal(block, real.h1[t])
        mask = np.ones((8, 12), dtype=bool)
        for t in range(4):
            mask[2 * t : 2 * t + 2, 3 * t : 3 * t + 3] = False
        assert np.all(phases.rx1_phase1[mask] == 0)

    def test_uneven_stream_loading(self):
        # 3 symbols over 2 slots: big-first split 2 then 1
        cfg = SystemConfig(2, 1, 1)
        plan = SchedulePlan(2, 0, 1, 3, 0)
        real = gen_channels(cfg, plan.total_slots, 2)
        phases = build_phase_matrices(real, plan, cfg)
        assert phases.rx1_phase1.shape == (2, 3)
        assert np.array_equal(phases.rx1_phase1[0, :2], real.h1[0, 0])
        assert np.array_equal(phases.rx1_phase1[1, 2:], real.h1[1, 0, :1])
        assert phases.rx1_phase1[0, 2] == 0
        assert np.all(phases.rx1_phase1[1, :2] == 0)

    def test_shape_mismatch(self):
        cfg = SystemConfig(2, 1, 1)
        plan = SchedulePlan.from_durations(cfg, 1, 1, 1)
        with pytest.raises(ShapeMismatch):
            build_phase_matrices(gen_channels(cfg, 2, 0), plan, cfg)
        other = gen_channels(SystemConfig(3, 2, 1), 3, 0)
        with pytest.raises(ShapeMismatch):
            build_phase_matrices(other, plan, cfg)
        # receiver 2's channels with one column fewer, or one more, than M
        real = gen_channels(cfg, 3, 0)
        for h2 in (real.h2[..., :1], other.h2):
            with pytest.raises(ShapeMismatch, match="^realization dimensions"):
                build_phase_matrices(ChannelRealization(real.h1, h2), plan, cfg)

    def test_acceptance_grid_matches_reference(self):
        """On every acceptance-grid plan the stacks are the reference's
        block-diagonal stacks exactly, unbatched and with a leading axis of
        two trials."""
        plans = grid_plans()
        assert len(plans) == GRID_SIZE
        for cfg, plan in plans:
            real = gen_channels(cfg, plan.total_slots, 1, np.arange(2))
            batched = build_phase_matrices(real, plan, cfg)
            first = build_phase_matrices(ChannelRealization(real.h1[0], real.h2[0]), plan, cfg)
            h = {1: real.h1, 2: real.h2}
            spans = {1: slice(0, plan.tau1), 2: slice(plan.tau1, plan.tau1 + plan.tau2)}
            loads = {phase: layout[0] for phase, layout in zip((1, 2), reference_layouts(cfg, plan))}
            for rx, phase in itertools.product((1, 2), (1, 2)):
                name = f"rx{rx}_phase{phase}"
                want = [reference_stack(h[rx][t, spans[phase]], loads[phase]) for t in (0, 1)]
                assert np.array_equal(getattr(first, name), want[0]), (cfg, name)
                assert np.array_equal(getattr(batched, name), np.stack(want)), (cfg, name)


class TestRankCheck:
    ONE = SimParams(snr_grid_db=(20.0, 30.0), trials=1)

    def test_symmetric_plan_passes(self):
        # each receiver reaches rank 2 for its 2 symbols
        plan = SchedulePlan(1, 1, 1, 2, 2)
        assert rank_check_campaign(SystemConfig(2, 1, 1), plan, self.ONE) == (1, 1)

    def test_single_user_slot(self):
        # receiver 2 has no symbols: rank 0 of 0 passes
        cfg = SystemConfig(1, 1, 1)
        assert rank_check_campaign(cfg, plan_tdma(cfg, 1), self.ONE) == (1, 1)

    def test_missing_third_phase_rejected(self):
        cfg = SystemConfig(2, 1, 1)
        with pytest.raises(InfeasiblePlan):
            rank_check_campaign(cfg, SchedulePlan(1, 1, 0, 2, 2), self.ONE)
        # the dense stacks check the plan as the campaigns do
        plan = SchedulePlan(2, 2, 0, 4, 4)
        with pytest.raises(InfeasiblePlan):
            build_phase_matrices(gen_channels(cfg, plan.total_slots, 0), plan, cfg)

    def test_slot_wider_than_its_channel_rejected(self):
        # 5 streams in one slot: receiver 1 lacks 4 equations there, and
        # receiver 2 overhears only 1 of them
        cfg, plan = SystemConfig(5, 1, 1), SchedulePlan(1, 0, 4, 5, 0)
        with pytest.raises(ShapeMismatch):
            rank_check_campaign(cfg, plan, self.ONE)
        with pytest.raises(ShapeMismatch, match="^slot blocks of up to 4 x 5 do not fit 1 x 5"):
            build_phase_matrices(gen_channels(cfg, plan.total_slots, 0), plan, cfg)
        # 2 streams in one slot from a single transmit antenna
        cfg, plan = SystemConfig(1, 1, 1), SchedulePlan(1, 0, 1, 2, 0)
        with pytest.raises(ShapeMismatch):
            build_phase_matrices(gen_channels(cfg, plan.total_slots, 0), plan, cfg)

    def test_trial_count_capped_as_the_rate_fidelity_caps_it(self, monkeypatch):
        # 16 bytes of rates per (trial, SNR) pair: 2**25 trials at two
        # points fill MAX_PAIR_BYTES, and one more is refused by both
        # fidelities before anything is drawn
        most = simulate.MAX_PAIR_BYTES // 32
        cfg = SystemConfig(2, 1, 1)
        plan = plan_schedule(cfg, corner_weight(cfg))

        def drawn(*args):
            raise RuntimeError("drawn")

        monkeypatch.setattr(simulate, "gen_channels", drawn)
        monkeypatch.setattr(simulate, "_channel_words", drawn)
        with pytest.raises(RuntimeError, match="^drawn$"):
            rank_check_campaign(cfg, plan, SimParams((20.0, 30.0), trials=most))
        for campaign in (rank_check_campaign, estimate_rates):
            with pytest.raises(PlanTooLarge):
                campaign(cfg, plan, SimParams((20.0, 30.0), trials=most + 1))

    def test_campaign_counts(self):
        cfg = SystemConfig(3, 2, 1)
        params = SimParams(snr_grid_db=(20.0, 30.0), trials=25, seed=7)
        passes = rank_check_campaign(cfg, SchedulePlan(4, 1, 2, 12, 3), params)
        assert passes == (25, 25)


class TestEstimateRates:
    CFG = SystemConfig(2, 1, 1)
    PLAN = SchedulePlan(1, 1, 1, 2, 2)

    def make_params(self, **kw):
        defaults = dict(snr_grid_db=(10.0, 20.0, 30.0), trials=3, seed=123)
        defaults.update(kw)
        return SimParams(**defaults)

    def test_deterministic_report(self):
        a = estimate_rates(self.CFG, self.PLAN, self.make_params())
        b = estimate_rates(self.CFG, self.PLAN, self.make_params())
        assert np.array_equal(a.rates, b.rates)
        assert a.slopes == b.slopes
        assert a.to_json_dict() == b.to_json_dict()

    def test_rates_shape_and_sign(self):
        report = estimate_rates(self.CFG, self.PLAN, self.make_params())
        assert report.rates.shape == (3, 2)
        assert np.all(report.rates >= 0)
        assert report.trials == 3
        assert report.to_json_dict()["backend"] == kernels.backend
        # the rank tally is the CLI's (TestSimulate::test_both_adds_rank_tally)
        assert [field.name for field in fields(SimReport)] == [
            "snr_grid_db", "rates", "slopes", "trials"]

    def test_monotone_in_snr_single_trial(self):
        report = estimate_rates(self.CFG, self.PLAN, self.make_params(trials=1))
        assert np.all(np.diff(report.rates[:, 0]) >= 0)
        assert np.all(np.diff(report.rates[:, 1]) >= 0)

    def test_monotone_in_snr_averaged(self):
        report = estimate_rates(self.CFG, self.PLAN, self.make_params())
        assert np.all(np.diff(report.rates, axis=0) >= 0)

    def test_two_point_slope_is_the_difference_quotient(self):
        # the fit takes at least two points: a 2-point grid fits the same
        # points as the top half of (20, 30, 40) on the same draws
        cfg = SystemConfig(2, 1, 1, 0, 0)
        plan = plan_schedule(cfg, corner_weight(cfg))
        two = estimate_rates(cfg, plan, SimParams((30.0, 40.0), trials=50, seed=1))
        three = estimate_rates(cfg, plan, SimParams((20.0, 30.0, 40.0), trials=50, seed=1))
        assert np.array_equal(two.rates, three.rates[1:])
        assert two.slopes == three.slopes
        quotient = (two.rates[1] - two.rates[0]) / math.log2(10.0)  # 10 dB in log2(rho)
        assert two.slopes == pytest.approx(tuple(quotient), rel=1e-9)

    def test_point_to_point_slope(self):
        cfg = SystemConfig(1, 1, 1)
        params = SimParams(snr_grid_db=(30.0, 40.0, 50.0, 60.0), trials=60, seed=5)
        report = estimate_rates(cfg, plan_tdma(cfg, 1), params)
        assert report.slopes[0] == pytest.approx(1.0, abs=0.2)
        assert report.rates[:, 1].tolist() == [0.0] * 4

    def test_csv_schema(self, capsys, monkeypatch):
        # the CLI's CSV carries the report's values, one row per (SNR, rx)
        plan = plan_schedule(self.CFG, F(1, 2))  # the CLI's default weight
        report = estimate_rates(self.CFG, plan, self.make_params())
        monkeypatch.delenv("DOFLAB_SEED", raising=False)
        code = cli.main(["simulate", "--M", "2", "--N1", "1", "--N2", "1", "--fidelity", "rate",
                         "--format", "csv", "--snr-min", "10", "--snr-max", "30",
                         "--snr-step", "10", "--trials", "3", "--seed", "123"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["snr_db", "rx", "rate_bits_per_slot", "trials"]
        assert rows[1:] == [
            [repr(snr), str(rx), repr(float(report.rates[i, rx - 1])), "3"]
            for i, snr in enumerate(report.snr_grid_db) for rx in (1, 2)
        ]
        assert rows[1][:2] == ["10.0", "1"] and rows[2][1] == "2"

    def test_json_schema(self):
        report = estimate_rates(self.CFG, self.PLAN, self.make_params())
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["snr_db"] == [10.0, 20.0, 30.0]
        assert len(payload["rate_bits_per_slot"]["rx1"]) == 3
        assert len(payload["rate_bits_per_slot"]["rx2"]) == 3
        assert set(payload["slope"]) == {"rx1", "rx2"}
        assert payload["trials"] == 3
        # the CLI adds "rank_check" (TestSimulate::test_both_adds_rank_tally)
        assert list(payload) == ["snr_db", "rate_bits_per_slot", "slope", "trials", "backend"]


class TestRateSnrLimit:
    """The rate campaign's SNR limit: both rounding bounds, and the slopes
    just below it."""

    def test_values(self):
        def limit(m, n1, n2, a1, a2):
            cfg = SystemConfig(m, n1, n2, a1, a2)
            return simulate.rate_snr_limit_db(cfg, plan_schedule(cfg, corner_weight(cfg)))

        # the quantizer bound 10 * (2 / alpha) * log10(1e-3 / share) with
        # share = eps * 4 / (2 * sqrt(6)), and the noise-floor bound
        # 10 / (1 - alpha) * log10(1e-3 / eps**2)
        quantizer = 20.0 * math.log10(1e-3 * 2 * math.sqrt(6.0) / (4 * 2.0**-52))
        floor = 10.0 * math.log10(1e-3 / 2.0**-104)
        assert limit(2, 1, 1, 1, 1) == pytest.approx(quantizer)
        assert limit(2, 1, 1, F(1, 2), F(1, 2)) == pytest.approx(2 * quantizer)
        assert limit(2, 1, 1, F(1, 3), F(1, 3)) == pytest.approx(1.5 * floor)
        assert limit(5, 3, 2, F(1, 2), F(1, 3)) == pytest.approx(1.5 * floor)
        assert 254.8 < quantizer < 254.9 and 424.6 < 1.5 * floor < 424.7

    def test_estimate_rates_refuses_a_grid_above_the_limit(self, monkeypatch):
        # the refusal the command line prints, raised by the library itself
        # before any channel is drawn
        cfg = SystemConfig(2, 1, 1)
        plan = plan_schedule(cfg, corner_weight(cfg))

        def never(*args):
            raise AssertionError("drew channels for a grid above the limit")

        monkeypatch.setattr(simulate, "gen_channels", never)
        with pytest.raises(InvalidSnrGrid) as info:
            estimate_rates(cfg, plan, SimParams((200.0, 260.0), trials=1))
        assert str(info.value) == (
            "SNR 260.0 dB is above 254.8 dB, the highest at which this plan's rates keep "
            "rounding errors within 0.001 (see doflab.simulate.rate_snr_limit_db)"
        )
        assert isinstance(info.value, ValueError)

    def test_estimate_rates_refuses_a_grid_below_the_lowest_rho(self):
        # a payload row's reconstruction noise variance, its slot load / rho,
        # overflows below about -3079.5 dB on this plan
        cfg = SystemConfig(2, 1, 1)
        plan = plan_schedule(cfg, corner_weight(cfg))
        with pytest.raises(InvalidSnrGrid) as info:
            estimate_rates(cfg, plan, SimParams((-3080.0, 0.0), trials=1))
        assert str(info.value) == (
            "SNR -3080.0 dB is below -3079.5 dB, the lowest at which this plan's "
            "reconstruction noise variances are finite"
        )
        report = estimate_rates(cfg, plan, SimParams((-3079.0, 0.0), trials=1))
        assert np.all(np.isfinite(report.rates))
        # a plan without phase three has no noise variance to overflow
        cfg = SystemConfig(2, 1, 1, 0, 0)
        report = estimate_rates(cfg, plan_schedule(cfg, corner_weight(cfg)),
                                SimParams((-3230.0, 0.0), trials=1))
        assert report.rates[0].tolist() == [0.0, 0.0]

    def test_no_phase_three_no_limit(self):
        for cfg, plan in (
            (SystemConfig(2, 1, 1, 0, 0), None),
            (SystemConfig(2, 1, 2), plan_tdma(SystemConfig(2, 1, 2), F(1, 2))),
        ):
            plan = plan or plan_schedule(cfg, corner_weight(cfg))
            assert simulate.rate_snr_limit_db(cfg, plan) == math.inf

    @pytest.mark.parametrize("alpha, slope", [(F(1), 2 / 3), (F(1, 3), (1 + 1 / 9) / (2 + 1 / 3))])
    def test_slopes_hold_up_to_the_limit(self, alpha, slope):
        # M=2, N1=N2=1 at the corner: the fitted slopes of the 40 dB below
        # the limit keep their high-SNR values (2/3 at alpha = 1, and
        # (1 + alpha^2) / (2 + alpha) at fractional alpha)
        cfg = SystemConfig(2, 1, 1, alpha, alpha)
        plan = plan_schedule(cfg, corner_weight(cfg))
        top = math.floor(simulate.rate_snr_limit_db(cfg, plan) * 10) / 10
        grid = tuple(top - 10.0 * i for i in range(4, -1, -1))
        report = estimate_rates(cfg, plan, SimParams(grid, trials=20, seed=2))
        assert report.slopes == pytest.approx((slope, slope), abs=0.02)


def test_every_simulate_name_resolves_from_the_package():
    import doflab

    for name in simulate.__all__:
        assert getattr(doflab, name) is getattr(simulate, name), name


def test_simulator_names_load_numpy_on_first_use():
    """``import doflab`` leaves numpy unloaded; the first simulator name
    read from the package loads ``simulate``, ``kernels`` and numpy."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import doflab; "
        "print('numpy' in sys.modules); "
        "from doflab import estimate_rates; "
        "print(doflab.kernels.backend, estimate_rates.__module__, 'numpy' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", script, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "False\nnumpy doflab.simulate True\n"


class TestResidualScan:
    def test_slope_tracks_quality(self):
        means, slope = residual_scan(F(1, 2), (20.0, 30.0, 40.0, 50.0, 60.0), 0, entries=20000)
        assert slope == pytest.approx(-0.5, abs=0.1)
        assert len(means) == 5

    def test_zero_quality_is_flat(self):
        means, slope = residual_scan(0, (20.0, 30.0, 40.0), 0, entries=20000)
        assert slope == pytest.approx(0.0, abs=0.05)
        for power in means:
            assert power == pytest.approx(1.0, abs=0.05)


def assert_matches_reference(cfg, plan, params):
    report = estimate_rates(cfg, plan, params)
    want = reference_rates(cfg, plan, params)
    assert report.rates.shape == want.shape
    assert np.max(np.abs(report.rates - want)) <= 1e-12
    want_slopes = [simulate._fit_slope(params.snr_grid_db, want[:, rx]) for rx in (0, 1)]
    assert np.max(np.abs(np.subtract(report.slopes, want_slopes))) <= 1e-12
    assert rank_check_campaign(cfg, plan, params) == reference_rank_passes(cfg, plan, params)


def chunk_budget(cfg, plan, pairs):
    """A budget that puts ``pairs`` (trial, SNR) pairs in each rate chunk."""
    return pairs * simulate._PlanGeometry(cfg, plan).pair_bytes()


class TestBatchedEquivalence:
    """The chunked campaigns against the one-at-a-time reference."""

    GRID = (20.0, 35.0, 50.0)

    @pytest.mark.parametrize(
        "case",
        [
            # fractional alpha, at the corner
            (SystemConfig(2, 1, 1, F(1, 2), F(1, 2)), "corner"),
            (SystemConfig(3, 2, 1, F(1, 4), F(3, 4)), F(1, 3)),
            # alpha = 0 on both users
            (SystemConfig(2, 1, 1, 0, 0), "corner"),
            # TDMA, tau3 = 0
            (SystemConfig(2, 1, 2), F(1, 2)),
            (SystemConfig(2, 1, 1), "tdma"),
            # k2 = 0 (only user 1 needs phase three) and k1 = 0 (only user 2)
            (SystemConfig(3, 2, 1), F(1)),
            (SystemConfig(3, 1, 2, 1, F(1, 2)), F(0)),
            # uneven phase-three slots and a 99-symbol corner plan
            (SystemConfig(3, 2, 1), "corner"),
            (SystemConfig(5, 3, 2, F(1, 2), F(1, 3)), "corner"),
        ],
    )
    def test_plans(self, case):
        cfg, weight = case
        if weight == "corner":
            plan = plan_schedule(cfg, corner_weight(cfg))
        elif weight == "tdma":
            plan = plan_tdma(cfg, F(1, 2))
        elif cfg.n2 >= cfg.m:
            plan = plan_tdma(cfg, weight)
        else:
            plan = plan_schedule(cfg, weight)
        trials = 2 if plan.total_slots > 20 else 4
        assert_matches_reference(cfg, plan, SimParams(self.GRID, trials=trials, seed=3))

    def test_single_trial(self):
        cfg = SystemConfig(3, 2, 1, 1, F(1, 2))
        plan = plan_schedule(cfg, F(2, 3))
        assert_matches_reference(cfg, plan, SimParams(self.GRID, trials=1, seed=8))

    def test_trials_not_a_multiple_of_the_chunk(self, monkeypatch):
        # 7 trials x 3 points = 21 pairs in rate chunks of 4, so chunks split
        # trials and the last one is short; rank chunks hold 3 of the 7 trials
        cfg = SystemConfig(2, 1, 1, F(1, 2), 1)
        plan = plan_schedule(cfg, F(1, 2))
        params = SimParams(self.GRID, trials=7, seed=4)
        monkeypatch.setattr(simulate, "CHUNK_BYTES", chunk_budget(cfg, plan, 4))
        report = estimate_rates(cfg, plan, params)
        assert np.max(np.abs(report.rates - reference_rates(cfg, plan, params))) <= 1e-12
        trial_bytes = simulate._PlanGeometry(cfg, plan).trial_bytes()
        monkeypatch.setattr(simulate, "CHUNK_BYTES", 3 * trial_bytes)
        assert rank_check_campaign(cfg, plan, params) == reference_rank_passes(cfg, plan, params)

    def test_one_draw_per_trial(self, monkeypatch):
        cfg = SystemConfig(2, 1, 1)
        plan = SchedulePlan(1, 1, 1, 2, 2)
        seen = []
        draw = simulate.gen_channels

        def counted(cfg_, total, seed, trials):
            seen.extend((seed, int(t)) for t in trials)
            return draw(cfg_, total, seed, trials)

        monkeypatch.setattr(simulate, "gen_channels", counted)
        monkeypatch.setattr(simulate, "CHUNK_BYTES", chunk_budget(cfg, plan, 2))
        estimate_rates(cfg, plan, SimParams(self.GRID, trials=5, seed=6))
        assert seen == [(6, t) for t in range(5)]

    @pytest.mark.parametrize("campaign", [estimate_rates, rank_check_campaign])
    def test_draws_ahead_in_blocks(self, campaign, monkeypatch):
        """On every benchmark plan, including those whose chunks hold ten
        to twenty pairs, a campaign draws its trials in blocks: one call per
        block of consecutive trials, every trial once, and none at or past
        the trial count. A block holds as many trials as fit the draw
        budget, rounded down to whole chunks where chunks are whole trials,
        so at most ceil(trials / block) calls where nothing is rounded. The
        rank fidelity's words count in its trial bytes, so its blocks are
        its chunks."""
        calls = []
        rate = campaign is estimate_rates
        name = "gen_channels" if rate else "_channel_words"
        draw = getattr(simulate, name)

        def counted(*args):
            # gen_channels(cfg, slots, seed, trials), _channel_words(geom, seed, first, count)
            calls.append([int(t) for t in args[-1]] if rate else list(range(args[2], args[2] + args[3])))
            return draw(*args)

        monkeypatch.setattr(simulate, name, counted)
        for cfg in CAMPAIGN_CONFIGS:
            plan = plan_schedule(cfg, corner_weight(cfg))
            geom = simulate._PlanGeometry(cfg, plan)
            per_trial, unit = (2, geom.pair_bytes()) if rate else (1, geom.trial_bytes())
            chunk = max(1, simulate.CHUNK_BYTES // unit)
            block = max(1, simulate.CHUNK_BYTES // (geom.draw_bytes() if rate else unit))
            params = SimParams((30.0, 40.0), trials=2 * block + 3, seed=7)
            whole = chunk // per_trial if chunk % per_trial == 0 else 1
            drawn = block // whole * whole or block
            calls.clear()
            campaign(cfg, plan, params)
            assert 1 < block and block // 2 < drawn <= block, cfg
            assert drawn < block or len(calls) <= math.ceil(params.trials / block), cfg
            assert sorted(t for call in calls for t in call) == list(range(params.trials)), cfg
            assert calls == [
                list(range(start, min(start + drawn, params.trials)))
                for start in range(0, params.trials, drawn)
            ], cfg

    def test_rank_chunks_tile_the_draw_blocks(self, monkeypatch):
        """Drawing adds no rank chunk: the trial bytes count the words, so
        each rank chunk draws its own, in one call, and ranks them all."""
        cfg = SystemConfig(5, 3, 2)
        plan = plan_schedule(cfg, corner_weight(cfg))
        geom = simulate._PlanGeometry(cfg, plan)
        chunk = simulate.CHUNK_BYTES // geom.trial_bytes()
        assert chunk > 5
        params = SimParams((30.0, 40.0), trials=3 * chunk + 5, seed=2)
        sizes, drawn = [], []
        ranks, words = simulate._ranks, simulate._channel_words

        def counted(geom_, real):
            sizes.append(len(real.h1))
            return ranks(geom_, real)

        def recorded(geom_, seed_, first_, count_):
            drawn.append(count_)
            return words(geom_, seed_, first_, count_)

        monkeypatch.setattr(simulate, "_ranks", counted)
        monkeypatch.setattr(simulate, "_channel_words", recorded)
        assert rank_check_campaign(cfg, plan, params) == reference_rank_passes(cfg, plan, params)
        assert sizes == drawn == [chunk] * 3 + [5]

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        m=st.integers(1, 4),
        n1=st.integers(1, 3),
        n2=st.integers(1, 3),
        alpha1=st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2), F(1)]),
        alpha2=st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2), F(1)]),
        weight=st.sampled_from([F(0), F(1, 3), F(1, 2), F(3, 4), F(1)]),
        trials=st.integers(1, 4),
        points=st.integers(2, 4),
        pairs_per_chunk=st.sampled_from([1, 3, 5, None]),
        seed=st.integers(0, 2**16),
    )
    @example(m=2, n1=1, n2=1, alpha1=F(1, 2), alpha2=F(1, 2), weight=F(1, 2), trials=3,
             points=3, pairs_per_chunk=4, seed=0)
    def test_small_configs(self, m, n1, n2, alpha1, alpha2, weight, trials, points,
                           pairs_per_chunk, seed):
        cfg = SystemConfig(m, n1, n2, alpha1, alpha2)
        try:
            plan = plan_schedule(cfg, weight) if n2 < m else plan_tdma(cfg, weight)
            order2_payload(plan, cfg)
        except (InfeasiblePlan, AntennaOverflow):
            assume(False)
        assume(plan.total_slots <= 16)
        params = SimParams(tuple(20.0 + 10.0 * i for i in range(points)), trials=trials, seed=seed)
        budget = simulate.CHUNK_BYTES
        if pairs_per_chunk is not None:
            budget = chunk_budget(cfg, plan, pairs_per_chunk)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "CHUNK_BYTES", budget)
            assert_matches_reference(cfg, plan, params)


class TestSingularContext:
    """A singular covariance inside a chunk names its trial and SNR point."""

    CFG = SystemConfig(2, 1, 1)
    PLAN = SchedulePlan(1, 1, 1, 2, 2)
    GRID = (20.0, 30.0, 40.0)

    def test_names_the_trial(self, monkeypatch):
        draw = simulate.gen_channels

        def poisoned(cfg, total, seed, trials):
            real = draw(cfg, total, seed, trials)
            real.h1[trials == 4] = np.nan
            return real

        monkeypatch.setattr(simulate, "gen_channels", poisoned)
        monkeypatch.setattr(simulate, "CHUNK_BYTES", chunk_budget(self.CFG, self.PLAN, 5))
        with pytest.raises(SingularCovariance, match=r"^trial 4, SNR 20\.0 dB: "):
            estimate_rates(self.CFG, self.PLAN, SimParams(self.GRID, trials=6, seed=1))

    def test_names_the_snr_point(self, monkeypatch):
        quantize = simulate.quantize_csit
        bad_rho = 10.0 ** (30.0 / 10.0)

        def poisoned(h, alpha, rho):
            hat = quantize(h, alpha, rho)
            return np.where(np.asarray(rho) == bad_rho, np.nan, hat)

        monkeypatch.setattr(simulate, "quantize_csit", poisoned)
        with pytest.raises(SingularCovariance, match=r"^trial 0, SNR 30\.0 dB: ") as info:
            estimate_rates(self.CFG, self.PLAN, SimParams(self.GRID, trials=3, seed=1))
        assert isinstance(info.value, DoflabError)


class TestFailureParity:
    """Where a noise covariance loses positive definiteness, the chunked
    campaign fails at the pair the unbatched loop fails at."""

    # at fractional alpha the phase-three covariance S = I + mism mism^H is
    # no longer positive definite in floating point from about 330 dB:
    # trial 0 passes at 320 dB and fails at 330 dB
    CFG = SystemConfig(5, 3, 2, F(1, 2), F(1, 3))
    PARAMS = SimParams((320.0, 330.0), trials=4, seed=1)

    @pytest.mark.parametrize("pairs_per_chunk", [None, 1, 8])
    def test_same_error_at_the_same_pair(self, monkeypatch, pairs_per_chunk):
        plan = plan_schedule(self.CFG, corner_weight(self.CFG))
        want = reference_failure(self.CFG, plan, self.PARAMS)
        assert want is not None
        error, trial, snr_db = want
        if pairs_per_chunk is not None:
            monkeypatch.setattr(simulate, "CHUNK_BYTES", chunk_budget(self.CFG, plan, pairs_per_chunk))
        with pytest.raises(DoflabError, match=rf"^trial {trial}, SNR {snr_db} dB: ") as info:
            estimate_rates(self.CFG, plan, self.PARAMS)
        assert type(info.value) is error


# The benchmark's campaign plans, at their corners.
CAMPAIGN_CONFIGS = [
    SystemConfig(2, 1, 1),
    SystemConfig(3, 2, 1),
    SystemConfig(2, 1, 1, F(1, 2), F(1, 2)),
    SystemConfig(4, 2, 2, F(1, 2), F(1, 2)),
    SystemConfig(5, 3, 2, F(1, 2), F(1, 3)),
    SystemConfig(5, 3, 2),
]
# Measured peak / (units * bytes per unit) of a full chunk on these plans:
# 0.95 to 1.20 for rate chunks, 0.67 to 1.53 for rank chunks with their
# draw (numpy 2.4, x86-64); the bound leaves room on both sides.
PAIR_BYTES_FACTOR = 2.0


def _traced_peak(call) -> int:
    call()  # warm-up: one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cfg", CAMPAIGN_CONFIGS, ids=str)
def test_pair_bytes_tracks_chunk_memory(cfg):
    """One full rate chunk peaks near pairs * pair_bytes(), and one full
    rank chunk near trials * trial_bytes()."""
    plan = plan_schedule(cfg, corner_weight(cfg))
    geom = simulate._PlanGeometry(cfg, plan)
    pairs = max(1, simulate.CHUNK_BYTES // geom.pair_bytes())
    units, real = next(simulate._draws(geom, 1, -(-pairs // 7), 7, geom.pair_bytes()))
    assert len(units) == pairs
    rho = 10.0 ** ((30.0 + 5.0 * (units % 7)) / 10.0)
    peak = _traced_peak(lambda: simulate._pair_rates(geom, real, rho))
    budget = pairs * geom.pair_bytes()
    assert budget / PAIR_BYTES_FACTOR <= peak <= PAIR_BYTES_FACTOR * budget

    # a full rank chunk, its words drawn inside the trace: trial_bytes()
    # counts them
    trials = max(1, simulate.CHUNK_BYTES // geom.trial_bytes())

    def rank_chunk():
        units, words = next(simulate._word_chunks(geom, 1, trials))
        assert len(units) == trials
        simulate._ranks(geom, words)

    peak = _traced_peak(rank_chunk)
    budget = trials * geom.trial_bytes()
    assert budget / PAIR_BYTES_FACTOR <= peak <= PAIR_BYTES_FACTOR * budget


@pytest.mark.parametrize("fidelity", ["rate", "rank"])
@pytest.mark.parametrize("cfg", CAMPAIGN_CONFIGS, ids=str)
def test_report_is_byte_identical_whatever_the_budget(cfg, fidelity, capsys, monkeypatch):
    """``doflab simulate`` prints the same bytes under a 512 KiB budget,
    under ``CHUNK_BYTES``, and under budgets of one (trial, SNR) pair or one
    trial per chunk. On the 99x99 plan, five trials at four SNR points make
    several chunks under every budget below ``CHUNK_BYTES``, and two draw
    blocks under the one-pair budget."""
    plan = plan_schedule(cfg, corner_weight(cfg))
    geom = simulate._PlanGeometry(cfg, plan)
    argv = [
        "simulate", "--M", str(cfg.m), "--N1", str(cfg.n1), "--N2", str(cfg.n2),
        "--alpha1", str(cfg.alpha1), "--alpha2", str(cfg.alpha2), "--at-corner",
        "--fidelity", fidelity, "--trials", "5", "--seed", "3",
        "--snr-min", "30", "--snr-max", "60", "--snr-step", "10",
    ]
    outputs = []
    for budget in (512 * 1024, simulate.CHUNK_BYTES, geom.pair_bytes(), geom.trial_bytes()):
        monkeypatch.setattr(simulate, "CHUNK_BYTES", budget)
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs.count(outputs[0]) == len(outputs)


# A plan whose systems read 2 of its M channel columns. One trial's draw is
# 32 bytes x 3 slots x 2 receive antennas x M columns; M is set from the
# chunk budget so that the draw is one and a half budgets, whatever the
# budget.
WIDE = SystemConfig(simulate.CHUNK_BYTES // 128, 1, 1)


@pytest.mark.parametrize("campaign", [estimate_rates, rank_check_campaign])
def test_chunk_memory_bounded_in_m(campaign):
    """The campaigns keep only the channel columns their systems read and
    draw no more trials per chunk than fit the budget, so a wide M costs
    the rate fidelity at most two budgets plus two trials' draws. The rank
    fidelity draws words for those columns alone, so its draw does not
    grow with M: it stays below two budgets."""
    plan = plan_schedule(WIDE, corner_weight(WIDE))
    geom = simulate._PlanGeometry(WIDE, plan)
    assert geom.columns == 2 and geom.draw_bytes() > simulate.CHUNK_BYTES
    # the command line's default grid: seven SNR points per trial
    params = SimParams(tuple(30.0 + 5.0 * i for i in range(7)), trials=6, seed=1)
    peak = _traced_peak(lambda: campaign(WIDE, plan, params))
    if campaign is rank_check_campaign:
        assert peak < 2 * simulate.CHUNK_BYTES
    else:
        assert peak < 2 * simulate.CHUNK_BYTES + 2 * geom.draw_bytes()


def test_draw_too_large(monkeypatch):
    """A plan whose one-trial rate draw exceeds the cap is refused before
    any channel is drawn, even when its systems are small."""
    plan = plan_schedule(WIDE, corner_weight(WIDE))
    geom = simulate._PlanGeometry(WIDE, plan)
    assert geom.pair_bytes() < geom.draw_bytes() - 1

    def never(*args):
        raise AssertionError("drew channels for a plan over the cap")

    monkeypatch.setattr(simulate, "gen_channels", never)
    monkeypatch.setattr(simulate, "MAX_PAIR_BYTES", geom.draw_bytes() - 1)
    with pytest.raises(PlanTooLarge, match="per trial's channel draw"):
        estimate_rates(WIDE, plan, SimParams((30.0, 40.0), trials=1))


def test_rank_draw_capped_by_its_own_words(monkeypatch):
    """The rank fidelity draws words for the columns its systems read, so a
    cap below the rate fidelity's M-column draw does not refuse it; a cap
    below its own trial bytes does, before any word is drawn."""
    plan = plan_schedule(WIDE, corner_weight(WIDE))
    geom = simulate._PlanGeometry(WIDE, plan)
    assert max(geom.pair_bytes(), geom.trial_bytes()) < geom.draw_bytes() - 1
    params = SimParams((30.0, 40.0), trials=3)
    monkeypatch.setattr(simulate, "MAX_PAIR_BYTES", geom.draw_bytes() - 1)
    assert rank_check_campaign(WIDE, plan, params) == (3, 3)

    def never(*args):
        raise AssertionError("drew words for a plan over the cap")

    monkeypatch.setattr(simulate, "_channel_words", never)
    monkeypatch.setattr(simulate, "MAX_PAIR_BYTES", geom.trial_bytes() - 1)
    assert geom.pair_bytes() <= simulate.MAX_PAIR_BYTES
    with pytest.raises(PlanTooLarge, match="per trial's rank working set"):
        rank_check_campaign(WIDE, plan, params)


def test_phase_rows_are_the_payload_deficits():
    """On every plan of the acceptance grid, each symbol phase's payload
    grid holds ``reference_layout``'s rows: from each slot, rows 0 .. load -
    N_i - 1 of the other receiver, numbered in slot order, and row j dealt
    to phase-three slot j % tau3 as its stream j // tau3. The live streams
    are order2_payload's k_i."""
    plans = grid_plans()
    assert len(plans) == GRID_SIZE
    for cfg, plan in plans:
        geom = simulate._PlanGeometry(cfg, plan)
        payload = order2_payload(plan, cfg)
        grid = (min(payload.length, plan.tau3), payload.per_slot_streams)
        deficits = (payload.k1_needed, payload.k2_needed)
        for phase, (_, rows), owed in zip(geom.phases, reference_layouts(cfg, plan), deficits):
            live = np.zeros(grid, dtype=bool)
            source, row = np.zeros(grid, dtype=int), np.zeros(grid, dtype=int)
            row_loads = np.zeros(grid)
            for slot3, stream, t, r, load in rows:
                at = (slot3, stream)
                assert not live[at], cfg
                live[at], source[at], row[at], row_loads[at] = True, t, r, load
            assert len(rows) == owed and phase.live.sum() == owed, cfg
            for got, want in ((phase.live, live), (phase.source, source), (phase.row, row),
                              (phase.row_loads, row_loads)):
                assert got.shape == grid and np.array_equal(got, want), cfg


# M4/N2/N2 at alpha = (1/4, 1): phase one has a single slot and owes phase
# three's slot two of its rows, so two streams there share a source slot.
SHARED_SOURCE = SystemConfig(4, 2, 2, F(1, 4), F(1))


@pytest.mark.parametrize("cfg", [SHARED_SOURCE, *CAMPAIGN_CONFIGS], ids=str)
def test_lift_matches_the_stream_loop(cfg):
    """``_Phase.lift`` assigns the first stream of each (phase-three slot,
    source slot) pair and adds any further ones; its rows must be bitwise
    those of adding every stream's terms onto zeros, one stream index at a
    time, signed zeros included."""
    plan = plan_schedule(cfg, corner_weight(cfg))
    geom = simulate._PlanGeometry(cfg, plan)
    if cfg == SHARED_SOURCE:
        assert (plan.tau1, plan.tau2, plan.tau3) == (1, 4, 1)
        assert len(geom.phases[0].layers) == 2
    if not geom.slots3:
        return
    real = gen_channels(cfg, plan.total_slots, 3, np.arange(4))
    h = (real.h1[..., : geom.columns], real.h2[..., : geom.columns])
    for i, phase in enumerate(geom.phases):
        w = h[i][:, geom.phase3, :, : geom.streams3]
        dealt = phase.rows(phase.symbols(h[1 - i]))
        b, slots3, n, streams = w.shape
        want = np.zeros((b, slots3, n, phase.slots, dealt.shape[-1]), dtype=complex)
        terms = w.transpose(3, 1, 0, 2)[..., None] * dealt.transpose(2, 1, 0, 3)[:, :, :, None, :]
        for r in range(streams):
            want[:, np.arange(slots3), :, phase.source[:, r], :] += terms[r]
        got = phase.lift(w, dealt)
        assert got.tobytes() == want.reshape(got.shape).tobytes()


class TestSlotRankParity:
    """The campaigns' exact rank over GF(p) equals an SVD rank of the same
    layout in floats on the campaign plans, both with the overheard rows the
    plan geometry chooses and with the first k_i rows of the stacked
    channel, the choice that leaves the later slots of a phase without
    equations."""

    @pytest.mark.parametrize("cfg", CAMPAIGN_CONFIGS, ids=str)
    def test_chosen_and_first_rows(self, cfg):
        plan = plan_schedule(cfg, corner_weight(cfg))
        geom = simulate._PlanGeometry(cfg, plan)
        p = kernels.PRIMES[0]
        # units of one byte: the six trials in one chunk
        units, real = next(simulate._draws(geom, 5, 6, 1, 1))
        assert units.tolist() == list(range(6))
        floats = (real.h1, real.h2)
        words = float_words(real)
        residues = tuple((h % np.uint64(p)).view(np.int64) for h in (words.h1, words.h2))
        deficient = 0
        for i, phase in enumerate(geom.phases):
            if not geom.slots3:
                continue
            symbols = (plan.s1_count, plan.s2_count)[i]
            rows_per = floats[1 - i].shape[2]
            # the stacked rows on the phase-three grid: the ones the plan
            # geometry chooses, or row j of the stack where payload row j goes
            chosen = phase.source * rows_per + phase.row
            j = np.arange(geom.streams3) * plan.tau3 + np.arange(geom.slots3)[:, None]
            for index, first in ((chosen, False), (j, True)):
                systems = []
                for h in (floats, residues):
                    own, other = phase.symbols(h[i]), phase.symbols(h[1 - i])
                    w = h[i][:, geom.phase3, :, : geom.streams3]
                    stacked = block_diagonal(other)
                    rows = np.where(phase.live[..., None], stacked[:, np.where(phase.live, index, 0)], 0)
                    coupled = (w @ rows).reshape(len(w), -1, rows.shape[-1])
                    if h is residues:
                        coupled %= p
                    if not first:
                        lifted = phase.lift(w, phase.rows(other))
                        if h is residues:
                            assert np.array_equal(lifted % p, coupled)
                        else:
                            assert np.max(np.abs(lifted - coupled)) <= 1e-12 * np.max(np.abs(coupled))
                    systems.append((own, coupled))
                (own, coupled), exact_system = systems
                exact = kernels.slot_rank_stacked(*exact_system, p)
                dense = np.concatenate([block_diagonal(own), coupled], axis=1)
                assert exact.tolist() == kernels.numerical_rank_stacked(dense).tolist()
                if first:
                    deficient += int(np.count_nonzero(exact < symbols))
                else:
                    assert exact.tolist() == [symbols] * len(w)
        # the first-rows choice leaves these plans short of equations
        if cfg in (SystemConfig(4, 2, 2, F(1, 2), F(1, 2)), SystemConfig(5, 3, 2, F(1, 2), F(1, 3))):
            assert deficient > 0


@pytest.mark.parametrize("cfg", CAMPAIGN_CONFIGS, ids=str)
def test_rank_path_calls_no_float_factorization(cfg, monkeypatch):
    """Every member of the campaign plans' rank chunks reaches full rank
    over GF(p), and no SVD, QR or Cholesky runs on the way, nor any
    Gaussian draw or per-trial seeding."""

    def refused(*args, **kwargs):
        raise AssertionError("a float factorization or draw ran in the rank fidelity")

    for name in ("svd", "qr", "cholesky", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, refused)
    # nor any seeding of one stream per trial
    for name in ("gen_channels", "_stream_rows"):
        monkeypatch.setattr(simulate, name, refused)
    plan = plan_schedule(cfg, corner_weight(cfg))
    params = SimParams((30.0, 60.0), trials=1500, seed=1)
    assert rank_check_campaign(cfg, plan, params) == (1500, 1500)


# M3/N2/N1 at its corner: tau = (4, 1, 2), and phase two deals one row to
# each phase-three slot, where receiver two has one antenna.
MUTATED = SystemConfig(3, 2, 1)


def _drop_last_row(rows):
    """Phase one's payload without its last overheard row."""
    return rows[:-1]


def _misdeal_last_row(rows):
    """Phase two's payload with its last row dealt to phase-three slot 0,
    after the streams already there, instead of to its own slot."""
    *kept, (slot3, _, *at) = rows
    assert slot3 != 0
    return kept + [(0, 1 + max(stream for s3, stream, *_ in kept if s3 == 0), *at)]


@pytest.mark.parametrize("phase, mutant", [(1, _drop_last_row), (2, _misdeal_last_row)],
                         ids=["dropped-row", "misdealt-row"])
def test_schedule_mutants_show_the_same_deficit(phase, mutant, monkeypatch):
    """A schedule defect: one overheard row dropped from the payload, or one
    row dealt to the wrong phase-three slot. The exact rank and an SVD rank
    of the same mutated system find the same deficit of one equation for
    that phase's receiver on every trial, and ``rank_check_campaign``
    counts no pass for it. The mutants deal other blocks, and the rank
    taken block by block is still that of one kernel call on the whole
    system."""
    plan = plan_schedule(MUTATED, corner_weight(MUTATED))
    assert (plan.tau1, plan.tau2, plan.tau3) == (4, 1, 2)
    payload_rows = simulate._payload_rows

    def mutated(plan_, cfg_, phase_):
        rows = payload_rows(plan_, cfg_, phase_)
        return mutant(rows) if phase_ == phase else rows

    monkeypatch.setattr(simulate, "_payload_rows", mutated)
    geom = simulate._PlanGeometry(MUTATED, plan)
    params = SimParams((30.0, 40.0), trials=50, seed=9)
    units, real = next(simulate._draws(geom, params.seed, params.trials, 1, 1))
    assert len(units) == params.trials
    exact, svd = simulate._ranks(geom, float_words(real)), svd_ranks(geom, real)
    assert_block_ranks_are_whole_ranks(geom, float_words(real))
    symbols = (plan.s1_count, plan.s2_count)
    for i in (0, 1):
        assert exact[i].tolist() == svd[i].tolist()
        assert (symbols[i] - svd[i]).tolist() == [int(i == phase - 1)] * params.trials
    passes = tuple(int(np.count_nonzero(svd[i] == symbols[i])) for i in (0, 1))
    assert rank_check_campaign(MUTATED, plan, params) == passes
    assert passes[phase - 1] == 0


@pytest.fixture(scope="module")
def three_phase_geometries():
    """The rank geometry of each of the grid's 2250 corner plans of the
    three-phase scheme (N2 < M), built once for the tests that sweep them."""
    geometries = [simulate._PlanGeometry(cfg, plan, rank=True)
                  for cfg, plan in grid_plans() if cfg.n2 < cfg.m]
    assert len(geometries) == 2250
    return geometries


def test_blocks_are_the_components_of_the_dealing(three_phase_geometries):
    """On every three-phase corner plan of the grid, each phase's blocks
    are those of the dealing rule, each unread slot a block of no
    phase-three slot, and 2014 plans have a phase of more than one block
    or with an unread slot."""
    split = 0
    for geom in three_phase_geometries:
        got = []
        for phase in geom.phases:
            blocks = {(frozenset(slots3.tolist()), frozenset(slots.tolist()))
                      for group in phase.blocks for slots3, slots in zip(group.slots3, group.slots)}
            assert sum(len(group.slots) for group in phase.blocks) == len(blocks), geom.cfg
            got.append(blocks)
        want = [blocks | {(frozenset(), frozenset({t})) for t in unread}
                for blocks, unread in dealt_blocks(geom.cfg, geom.plan)]
        assert got == want, geom.cfg
        split += any(len(blocks) > 1 or any(not slots3 for slots3, _ in blocks) for blocks in got)
    assert split == 2014


def assert_block_ranks_are_whole_ranks(geom, words):
    got, want = simulate._ranks(geom, words), whole_system_ranks(geom, words)
    assert [each.tolist() for each in got] == [each.tolist() for each in want], geom.cfg


def test_block_ranks_equal_whole_system_ranks(three_phase_geometries):
    """Block by block, the rank is that of the whole system: on every
    three-phase corner plan of the grid at one trial, and on M4/N1/N1 at
    weight 1/200, whose 199 phase-three slots make 199 blocks."""
    for geom in three_phase_geometries:
        assert_block_ranks_are_whole_ranks(geom, simulate._channel_words(geom, 11, 0, 1))
    cfg = SystemConfig(4, 1, 1)
    plan = plan_schedule(cfg, F(1, 200))
    geom = simulate._PlanGeometry(cfg, plan, rank=True)
    assert geom.slots3 == 199 and geom.phases[1].blocks[0].slots.shape == (199, 1)
    assert_block_ranks_are_whole_ranks(geom, simulate._channel_words(geom, 11, 0, 3))


def test_rank_beyond_forty_slots():
    """Criterion 10 covers the grid's corner plans up to 40 slots; the rest,
    122 plans of 41 to 319 slots, reach full rank on both receivers too."""
    one = SimParams((30.0, 40.0), trials=1, seed=2024)
    slots = []
    for cfg, plan in grid_plans():
        if cfg.n2 >= cfg.m or plan.total_slots <= 40:
            continue
        assert rank_check_campaign(cfg, plan, one) == (1, 1), cfg
        slots.append(plan.total_slots)
    assert (len(slots), min(slots), max(slots)) == (122, 41, 319)
