"""Monte Carlo layer: channels, quantizer, stacked systems, rate reports."""

import csv
import io
import itertools
import json
import math
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
    GramOverflow,
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
                                                 ("12", TypeError), (None, TypeError)])
    def test_invalid_seeds_raise(self, seed, error):
        # as numpy.random.SeedSequence does, except that None (fresh OS
        # entropy there) is refused: every draw here is reproducible
        with pytest.raises(error):
            gen_channels(SystemConfig(2, 1, 1), 3, seed)

    @pytest.mark.parametrize(("seed", "trials"), [
        (True, None), (False, None), (np.True_, None), ([3, True], None),
        (1, [True]), (1, np.array([False, True])),
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
    )
    @example(m=2, n1=1, n2=1, slots=3, seed=2**40, start=17, count=4)
    @example(m=5, n1=3, n2=2, slots=27, seed=2**64 + 3, start=250, count=3)
    # trials of one and of two words in one batch, trials of three words,
    # and entropy longer than SeedSequence's pool of four words
    @example(m=2, n1=1, n2=1, slots=3, seed=5, start=2**32 - 2, count=4)
    @example(m=2, n1=1, n2=1, slots=3, seed=5, start=2**64, count=3)
    @example(m=3, n1=2, n2=1, slots=4, seed=2**200 + 9, start=0, count=3)
    def test_batch_rows_match_four_calls(self, m, n1, n2, slots, seed, start, count):
        """Row i of a batch is bit-equal to the one-trial draw of
        ``[seed, trials[i]]``, for trial ranges starting anywhere."""
        cfg = SystemConfig(m, n1, n2)
        trials = np.arange(start, start + count)
        real = gen_channels(cfg, slots, seed, trials)
        assert real.h1.shape == (count, slots, n1, m)
        assert real.h2.shape == (count, slots, n2, m)
        for row, trial in enumerate(trials):
            h1, h2 = four_call_draw(cfg, slots, [seed, int(trial)])
            assert np.array_equal(real.h1[row], h1)
            assert np.array_equal(real.h2[row], h2)

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
            loads = {1: _ref_spread(plan.s1_count, plan.tau1), 2: _ref_spread(plan.s2_count, plan.tau2)}
            for rx, phase in itertools.product((1, 2), (1, 2)):
                name = f"rx{rx}_phase{phase}"
                want = [_ref_stack(h[rx][t, spans[phase]], loads[phase]) for t in (0, 1)]
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


def residual_scan(alpha, snr_grid_db, seed, entries=100_000):
    """(mean powers, slope): the mean of ``|h - quantize_csit(h, alpha,
    rho)|**2`` over ``entries`` unit-power draws per SNR point, and the
    least-squares slope of its log10 against log10(rho), near ``-alpha``."""
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal(entries) + 1j * rng.standard_normal(entries)) / np.sqrt(2)
    log_rho = np.array(snr_grid_db, dtype=float) / 10.0
    means = np.array([np.mean(np.abs(h - quantize_csit(h, alpha, 10.0**x)) ** 2) for x in log_rho])
    return means, float(np.polyfit(log_rho, np.log10(means), 1)[0])


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


# --------------------------------------------------------------------------
# Reference: the unbatched campaigns, one trial and one SNR point at a time.
# The batched campaigns must reproduce them.


def _ref_spread(total, slots):
    if slots == 0:
        return []
    base, extra = divmod(total, slots)
    return [base + 1 if t < extra else base for t in range(slots)]


def _ref_stack(slices, loads, scales=None):
    rows_per = slices.shape[1] if slices.ndim == 3 else 0
    out = np.zeros((rows_per * len(loads), sum(loads)), dtype=np.complex128)
    off = 0
    for t, load in enumerate(loads):
        if load == 0:
            continue
        block = slices[t][:, :load]
        if scales is not None:
            block = scales[t] * block
        out[t * rows_per : (t + 1) * rows_per, off : off + load] = block
        off += load
    return out


def _ref_overheard(slices, loads, n_own):
    """The other receiver's rows that phase three forwards: from each slot,
    one row per equation the own receiver lacks there (load - n_own), each
    with the load of its slot."""
    rows, row_loads = [], []
    off = 0
    for t, load in enumerate(loads):
        for r in range(max(0, load - n_own)):
            row = np.zeros(sum(loads), dtype=np.complex128)
            row[off : off + load] = slices[t][r, :load]
            rows.append(row)
            row_loads.append(load)
        off += load
    return np.array(rows).reshape(len(rows), sum(loads)), row_loads


def _ref_chunks(plan, length):
    return [[j for j in range(length) if j % plan.tau3 == t] for t in range(plan.tau3)]


def _ref_phase3(cfg, plan, chunks, k1, k2, real, est1, est2, res1, res2, pow1, pow2,
                power, sigma2):
    base3 = plan.tau1 + plan.tau2
    out = {1: ([], [], []), 2: ([], [], [])}
    for t, chunk in enumerate(chunks):
        q = len(chunk)
        if q == 0:
            continue
        gains = np.zeros(q)
        for qi, j in enumerate(chunk):
            pw = 0.0
            if j < k1:
                pw += float(np.sum(np.abs(est1[j]) ** 2))
            if j < k2:
                pw += float(np.sum(np.abs(est2[j]) ** 2))
            if pw > 0:
                gains[qi] = math.sqrt(power / q / pw)
        w1 = real.h1[base3 + t][:, :q] * gains[None, :]
        w2 = real.h2[base3 + t][:, :q] * gains[None, :]
        own1 = np.zeros((q, plan.s1_count), dtype=np.complex128)
        cross1 = np.zeros((q, plan.s2_count), dtype=np.complex128)
        evar1 = np.zeros(q)
        own2 = np.zeros((q, plan.s2_count), dtype=np.complex128)
        cross2 = np.zeros((q, plan.s1_count), dtype=np.complex128)
        evar2 = np.zeros(q)
        for qi, j in enumerate(chunk):
            if j < k1:
                own1[qi] = est1[j]
                cross2[qi] = res1[j]
                evar2[qi] = sigma2 / pow1[j]
            if j < k2:
                own2[qi] = est2[j]
                cross1[qi] = res2[j]
                evar1[qi] = sigma2 / pow2[j]
        out[1][0].append(w1 @ own1)
        out[1][1].append(w1 @ cross1)
        out[1][2].append((w1 * evar1[None, :]) @ w1.conj().T)
        out[2][0].append(w2 @ own2)
        out[2][1].append(w2 @ cross2)
        out[2][2].append((w2 * evar2[None, :]) @ w2.conj().T)
    return out


def svd_rate_bits(g, sigma):
    """log2 det(I + G^H Sigma^-1 G) from the singular values of the whitened
    system L^-1 G (Sigma = L L^H), without the simulator's kernels. Raises
    the kernels' errors where they must: ``SingularCovariance`` unless Sigma
    has a Cholesky factor with positive pivots, ``GramOverflow`` when the
    whitened system is not finite."""
    if g.shape[1] == 0:
        return 0.0
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        chol = None
    if chol is None or not np.all(np.diagonal(chol).real > 0):
        raise SingularCovariance("noise covariance is not positive definite")
    white = np.linalg.solve(chol, g)
    if not np.all(np.isfinite(white)):
        raise GramOverflow("rate system has a non-finite entry")
    s = np.linalg.svd(white, compute_uv=False)
    return float(np.sum(np.log1p(s**2)) / np.log(2.0))


def _ref_receiver_rate(own_phase, gains, mismatches, extras, sigma2, total_slots):
    n_own = own_phase.shape[0]
    if gains:
        g3 = np.vstack(gains)
        mism = np.vstack(mismatches)
        n3 = g3.shape[0]
        sig3 = sigma2 * np.eye(n3, dtype=np.complex128) + mism @ mism.conj().T
        off = 0
        for blk in extras:
            b = blk.shape[0]
            sig3[off : off + b, off : off + b] += blk
            off += b
        g = np.vstack([own_phase, g3])
        sigma = np.zeros((n_own + n3, n_own + n3), dtype=np.complex128)
        sigma[:n_own, :n_own] = sigma2 * np.eye(n_own)
        sigma[n_own:, n_own:] = sig3
    else:
        g = own_phase
        sigma = sigma2 * np.eye(n_own, dtype=np.complex128)
    return svd_rate_bits(g, sigma) / total_slots


def reference_pair_rates(cfg, plan, real, rho):
    """Rates (rx1, rx2) of the unbatched loop at one trial's channels and SNR."""
    payload = order2_payload(plan, cfg)
    k1, k2 = payload.k1_needed, payload.k2_needed
    loads1 = _ref_spread(plan.s1_count, plan.tau1)
    loads2 = _ref_spread(plan.s2_count, plan.tau2)
    chunks = _ref_chunks(plan, payload.length)
    sigma2 = 1.0
    total = plan.total_slots
    p2 = slice(plan.tau1, plan.tau1 + plan.tau2)
    power = rho * sigma2
    h1_hat = quantize_csit(real.h1, cfg.alpha1, rho)
    h2_hat = quantize_csit(real.h2, cfg.alpha2, rho)
    scales1 = [math.sqrt(power / u) if u else 0.0 for u in loads1]
    scales2 = [math.sqrt(power / v) if v else 0.0 for v in loads2]
    own_rx1 = _ref_stack(real.h1[: plan.tau1], loads1, scales1)
    own_rx2 = _ref_stack(real.h2[p2], loads2, scales2)
    est1, loads_of1 = _ref_overheard(h2_hat[: plan.tau1], loads1, cfg.n1)
    res1, _ = _ref_overheard(real.h2[: plan.tau1] - h2_hat[: plan.tau1], loads1, cfg.n1)
    est2, loads_of2 = _ref_overheard(h1_hat[p2], loads2, cfg.n2)
    res2, _ = _ref_overheard(real.h1[p2] - h1_hat[p2], loads2, cfg.n2)
    assert (len(est1), len(est2)) == (k1, k2)
    pow1 = [power / load for load in loads_of1]
    pow2 = [power / load for load in loads_of2]
    blocks = _ref_phase3(cfg, plan, chunks, k1, k2, real, est1, est2, res1, res2,
                         pow1, pow2, power, sigma2)
    return (
        _ref_receiver_rate(own_rx1, *blocks[1], sigma2, total),
        _ref_receiver_rate(own_rx2, *blocks[2], sigma2, total),
    )


def reference_rates(cfg, plan, params):
    """Per-SNR rates (len(grid), 2) of the unbatched loop."""
    rates = np.zeros((len(params.snr_grid_db), 2))
    for trial in range(params.trials):
        real = gen_channels(cfg, plan.total_slots, [params.seed, trial])
        for si, snr_db in enumerate(params.snr_grid_db):
            rates[si] += reference_pair_rates(cfg, plan, real, 10.0 ** (snr_db / 10.0))
    return rates / params.trials


def reference_failure(cfg, plan, params):
    """(error type, trial, SNR in dB) of the first pair the unbatched loop
    cannot evaluate, or None."""
    for trial in range(params.trials):
        real = gen_channels(cfg, plan.total_slots, [params.seed, trial])
        for snr_db in params.snr_grid_db:
            try:
                reference_pair_rates(cfg, plan, real, 10.0 ** (snr_db / 10.0))
            except (SingularCovariance, GramOverflow) as exc:
                return type(exc), trial, snr_db
    return None


def reference_rank_passes(cfg, plan, params, rtol=1e-9):
    """Per-receiver rank passes of the unbatched loop."""
    payload = order2_payload(plan, cfg)
    k1, k2 = payload.k1_needed, payload.k2_needed
    loads1 = _ref_spread(plan.s1_count, plan.tau1)
    loads2 = _ref_spread(plan.s2_count, plan.tau2)
    p2 = slice(plan.tau1, plan.tau1 + plan.tau2)
    base3 = plan.tau1 + plan.tau2
    s1, s2 = plan.s1_count, plan.s2_count
    passes = [0, 0]
    for trial in range(params.trials):
        real = gen_channels(cfg, plan.total_slots, [params.seed, trial])
        rows1 = np.zeros((payload.length, s1), dtype=np.complex128)
        rows2 = np.zeros((payload.length, s2), dtype=np.complex128)
        rows1[:k1] = _ref_overheard(real.h2[: plan.tau1], loads1, cfg.n1)[0]
        rows2[:k2] = _ref_overheard(real.h1[p2], loads2, cfg.n2)[0]
        sys1 = [_ref_stack(real.h1[: plan.tau1], loads1)]
        sys2 = [_ref_stack(real.h2[p2], loads2)]
        for t, chunk in enumerate(_ref_chunks(plan, payload.length)):
            q = len(chunk)
            if q == 0:
                continue
            sys1.append(real.h1[base3 + t][:, :q] @ rows1[chunk])
            sys2.append(real.h2[base3 + t][:, :q] @ rows2[chunk])
        rank1 = kernels.numerical_rank(np.vstack(sys1), rtol) if s1 else 0
        rank2 = kernels.numerical_rank(np.vstack(sys2), rtol) if s2 else 0
        passes[0] += rank1 == s1
        passes[1] += rank2 == s2
    return passes[0], passes[1]


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
        so at most ceil(trials / block) calls where nothing is rounded."""
        calls = []
        draw = simulate.gen_channels

        def counted(cfg_, total, seed, trials):
            calls.append([int(t) for t in trials])
            return draw(cfg_, total, seed, trials)

        monkeypatch.setattr(simulate, "gen_channels", counted)
        for cfg in CAMPAIGN_CONFIGS:
            plan = plan_schedule(cfg, corner_weight(cfg))
            geom = simulate._PlanGeometry(cfg, plan)
            block = max(1, simulate.CHUNK_BYTES // geom.draw_bytes())
            params = SimParams((30.0, 40.0), trials=2 * block + 3, seed=7)
            per_trial, unit = (2, geom.pair_bytes()) if campaign is estimate_rates else (1, geom.trial_bytes())
            chunk = max(1, simulate.CHUNK_BYTES // unit)
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
        """Drawing ahead adds no rank chunk, even where a rank chunk nearly
        fills the draw budget: the blocks hold whole chunks."""
        cfg = SystemConfig(4, 2, 2, F(1, 2), F(1, 2))
        plan = plan_schedule(cfg, corner_weight(cfg))
        geom = simulate._PlanGeometry(cfg, plan)
        chunk = simulate.CHUNK_BYTES // geom.trial_bytes()
        budget = simulate.CHUNK_BYTES // geom.draw_bytes()
        assert chunk < budget < 2 * chunk
        params = SimParams((30.0, 40.0), trials=3 * chunk + 5, seed=2)
        sizes = []
        ranks = simulate._ranks

        def counted(geom_, real):
            sizes.append(len(real.h1))
            return ranks(geom_, real)

        monkeypatch.setattr(simulate, "_ranks", counted)
        assert rank_check_campaign(cfg, plan, params) == reference_rank_passes(cfg, plan, params)
        assert sizes == [chunk] * 3 + [5]

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
# 0.95 to 1.20 for rate chunks, 0.70 to 1.00 for rank chunks (numpy 2.4,
# x86-64); the bound leaves room on both sides.
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

    trials = max(1, simulate.CHUNK_BYTES // geom.trial_bytes())
    units, real = next(simulate._draws(geom, 1, trials, 1, geom.trial_bytes()))
    assert len(units) == trials
    peak = _traced_peak(lambda: simulate._ranks(geom, real))
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
    at most two budgets plus two trials' draws."""
    plan = plan_schedule(WIDE, corner_weight(WIDE))
    geom = simulate._PlanGeometry(WIDE, plan)
    assert geom.columns == 2 and geom.draw_bytes() > simulate.CHUNK_BYTES
    # the command line's default grid: seven SNR points per trial
    params = SimParams(tuple(30.0 + 5.0 * i for i in range(7)), trials=6, seed=1)
    peak = _traced_peak(lambda: campaign(WIDE, plan, params))
    assert peak < 2 * simulate.CHUNK_BYTES + 2 * geom.draw_bytes()


@pytest.mark.parametrize("campaign", [estimate_rates, rank_check_campaign])
def test_draw_too_large(campaign, monkeypatch):
    """A plan whose one-trial draw exceeds the cap is refused before any
    channel is drawn, even when its systems are small."""
    plan = plan_schedule(WIDE, corner_weight(WIDE))
    geom = simulate._PlanGeometry(WIDE, plan)
    assert geom.pair_bytes() < geom.draw_bytes() - 1

    def never(*args):
        raise AssertionError("drew channels for a plan over the cap")

    monkeypatch.setattr(simulate, "gen_channels", never)
    monkeypatch.setattr(simulate, "MAX_PAIR_BYTES", geom.draw_bytes() - 1)
    with pytest.raises(PlanTooLarge, match="per trial's channel draw"):
        campaign(WIDE, plan, SimParams((30.0, 40.0), trials=1))


def test_phase_rows_are_the_payload_deficits():
    """On every plan of the acceptance grid, each symbol phase's payload
    grid is the layout built here: from each slot of ``_ref_spread`` loads,
    rows 0 .. load - N_i - 1 of the other receiver, numbered in slot order,
    and row j dealt to phase-three slot j % tau3 as its stream j // tau3.
    The live streams are order2_payload's k_i."""
    plans = grid_plans()
    assert len(plans) == GRID_SIZE
    for cfg, plan in plans:
        geom = simulate._PlanGeometry(cfg, plan)
        payload = order2_payload(plan, cfg)
        grid = (min(payload.length, plan.tau3), payload.per_slot_streams)
        phases = ((cfg.n1, plan.s1_count, plan.tau1, payload.k1_needed),
                  (cfg.n2, plan.s2_count, plan.tau2, payload.k2_needed))
        for phase, (n, symbols, slots, owed) in zip(geom.phases, phases):
            live = np.zeros(grid, dtype=bool)
            source, row = np.zeros(grid, dtype=int), np.zeros(grid, dtype=int)
            row_loads = np.zeros(grid)
            rows = [(t, r, load) for t, load in enumerate(_ref_spread(symbols, slots))
                    for r in range(load - n)]
            for j, (t, r, load) in enumerate(rows):
                at = (j % plan.tau3, j // plan.tau3)
                assert not live[at], cfg
                live[at], source[at], row[at], row_loads[at] = True, t, r, load
            assert len(rows) == owed and phase.live.sum() == owed, cfg
            for got, want in ((phase.live, live), (phase.source, source), (phase.row, row),
                              (phase.row_loads, row_loads)):
                assert got.shape == grid and np.array_equal(got, want), cfg


def _block_diagonal(own):
    """Slot blocks (B, slots, rows, width) as one block-diagonal matrix."""
    slots, width = own.shape[1], own.shape[3]
    return np.stack([_ref_stack(blocks, [width] * slots) for blocks in own])


class TestSlotRankParity:
    """The campaigns' slot rank equals an SVD rank of the stacked system on
    the campaign plans, both with the overheard rows the plan geometry
    chooses and with the first k_i rows of the stacked channel, the choice
    that leaves the later slots of a phase without equations."""

    @pytest.mark.parametrize("cfg", CAMPAIGN_CONFIGS, ids=str)
    def test_chosen_and_first_rows(self, cfg):
        plan = plan_schedule(cfg, corner_weight(cfg))
        geom = simulate._PlanGeometry(cfg, plan)
        # units of one byte: the six trials in one chunk
        units, real = next(simulate._draws(geom, 5, 6, 1, 1))
        assert units.tolist() == list(range(6))
        h = (real.h1, real.h2)
        deficient = 0
        for i, phase in enumerate(geom.phases):
            if not geom.slots3:
                continue
            own, other = phase.symbols(h[i]), phase.symbols(h[1 - i])
            w = h[i][:, geom.phase3, :, : geom.streams3]
            symbols = (plan.s1_count, plan.s2_count)[i]
            stacked = _block_diagonal(other)
            # the stacked rows on the phase-three grid: the ones the plan
            # geometry chooses, or row j of the stack where payload row j goes
            chosen = phase.source * other.shape[2] + phase.row
            j = np.arange(geom.streams3) * plan.tau3 + np.arange(geom.slots3)[:, None]
            for index, first in ((chosen, False), (j, True)):
                rows = np.where(phase.live[..., None], stacked[:, np.where(phase.live, index, 0)], 0)
                coupled = (w @ rows).reshape(len(w), -1, rows.shape[-1])
                if not first:
                    lifted = phase.lift(w, phase.rows(other))
                    assert np.max(np.abs(lifted - coupled)) <= 1e-12 * np.max(np.abs(coupled))
                slot = kernels.slot_rank_stacked(own, coupled, simulate.RANK_RTOL)
                dense = np.concatenate([_block_diagonal(own), coupled], axis=1)
                assert slot.tolist() == kernels.numerical_rank_stacked(dense, simulate.RANK_RTOL).tolist()
                if first:
                    deficient += int(np.count_nonzero(slot < symbols))
                else:
                    assert slot.tolist() == [symbols] * len(w)
        # the first-rows choice leaves these plans short of equations
        if cfg in (SystemConfig(4, 2, 2, F(1, 2), F(1, 2)), SystemConfig(5, 3, 2, F(1, 2), F(1, 3))):
            assert deficient > 0
