"""Monte Carlo layer: channels, quantizer, stacked systems, rate reports."""

import csv
import io
import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

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
    PlanTooLarge,
    SchedulePlan,
    ShapeMismatch,
    SimParams,
    SingularCovariance,
    SystemConfig,
    build_phase_matrices,
    corner_weight,
    estimate_rates,
    gen_channels,
    kernels,
    order2_payload,
    plan_schedule,
    plan_tdma,
    quantize_csit,
    rank_check_campaign,
    residual_power_scan,
    simulate,
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
        with pytest.raises(InfeasiblePlan):
            rank_check_campaign(SystemConfig(2, 1, 1), SchedulePlan(1, 1, 0, 2, 2), self.ONE)

    def test_slot_wider_than_its_channel_rejected(self):
        # 5 streams in one slot: receiver 1 lacks 4 equations there, and
        # receiver 2 overhears only 1 of them
        plan = SchedulePlan(1, 0, 4, 5, 0)
        with pytest.raises(ShapeMismatch):
            rank_check_campaign(SystemConfig(5, 1, 1), plan, self.ONE)
        # 2 streams in one slot from a single transmit antenna
        cfg, plan = SystemConfig(1, 1, 1), SchedulePlan(1, 0, 1, 2, 0)
        with pytest.raises(ShapeMismatch):
            build_phase_matrices(gen_channels(cfg, plan.total_slots, 0), plan, cfg)

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
        assert a.to_csv_text() == b.to_csv_text()
        assert a.to_json_dict() == b.to_json_dict()

    def test_rates_shape_and_sign(self):
        report = estimate_rates(self.CFG, self.PLAN, self.make_params())
        assert report.rates.shape == (3, 2)
        assert np.all(report.rates >= 0)
        assert report.trials == 3
        assert report.to_json_dict()["backend"] == kernels.backend
        assert report.rank_passes is None and report.rank_trials == 0

    def test_monotone_in_snr_single_trial(self):
        report = estimate_rates(self.CFG, self.PLAN, self.make_params(trials=1))
        assert np.all(np.diff(report.rates[:, 0]) >= 0)
        assert np.all(np.diff(report.rates[:, 1]) >= 0)

    def test_monotone_in_snr_averaged(self):
        report = estimate_rates(self.CFG, self.PLAN, self.make_params())
        assert np.all(np.diff(report.rates, axis=0) >= 0)

    def test_point_to_point_slope(self):
        cfg = SystemConfig(1, 1, 1)
        params = SimParams(snr_grid_db=(30.0, 40.0, 50.0, 60.0), trials=60, seed=5)
        report = estimate_rates(cfg, plan_tdma(cfg, 1), params)
        assert report.slopes[0] == pytest.approx(1.0, abs=0.2)
        assert report.rates[:, 1].tolist() == [0.0] * 4

    def test_csv_schema(self):
        report = estimate_rates(self.CFG, self.PLAN, self.make_params())
        rows = list(csv.reader(io.StringIO(report.to_csv_text())))
        assert rows[0] == ["snr_db", "rx", "rate_bits_per_slot", "trials"]
        assert len(rows) == 1 + 2 * 3
        assert rows[1][0] == "10.0" and rows[1][1] == "1"
        assert rows[2][1] == "2"
        for row in rows[1:]:
            assert float(row[2]) >= 0
            assert row[3] == "3"

    def test_json_schema(self):
        report = estimate_rates(self.CFG, self.PLAN, self.make_params())
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["snr_db"] == [10.0, 20.0, 30.0]
        assert len(payload["rate_bits_per_slot"]["rx1"]) == 3
        assert len(payload["rate_bits_per_slot"]["rx2"]) == 3
        assert set(payload["slope"]) == {"rx1", "rx2"}
        assert payload["trials"] == 3
        assert payload["rank_check"] is None
        tallied = replace(report, rank_passes=(3, 3), rank_trials=3)
        assert tallied.to_json_dict()["rank_check"] == {
            "rx1_passes": 3,
            "rx2_passes": 3,
            "trials": 3,
        }


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


class TestResidualScan:
    def test_slope_tracks_quality(self):
        scan = residual_power_scan(F(1, 2), (20.0, 30.0, 40.0, 50.0, 60.0), 0, entries=20000)
        assert scan.slope == pytest.approx(-0.5, abs=0.1)
        assert len(scan.mean_power) == 5

    def test_zero_quality_is_flat(self):
        scan = residual_power_scan(0, (20.0, 30.0, 40.0), 0, entries=20000)
        assert scan.slope == pytest.approx(0.0, abs=0.05)
        for power in scan.mean_power:
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
        """On every benchmark plan, including those whose chunks hold one
        to three pairs, a campaign draws its trials in blocks: one call per
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
# 0.97 to 1.47 for rate chunks, 0.83 to 1.26 for rank chunks (numpy 2.4,
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


# A plan whose systems read 2 of its M = 4000 channel columns: one trial's
# draw (768000 bytes) outweighs a whole chunk budget.
WIDE = SystemConfig(4000, 1, 1)


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
    """Each symbol phase counts its overheard rows by its own take rule,
    and they are order2_payload's k_i on every plan of the acceptance grid
    (M, N1, N2 in 1..6, qualities in quarters)."""
    qualities = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    antennas = range(1, 7)
    for m, n1, n2, a1, a2 in itertools.product(antennas, antennas, antennas, qualities, qualities):
        cfg = SystemConfig(m, n1, n2, a1, a2)
        plan = plan_schedule(cfg, corner_weight(cfg)) if n2 < m else plan_tdma(cfg, F(1, 2))
        geom = simulate._PlanGeometry(cfg, plan)
        payload = order2_payload(plan, cfg)
        rows = tuple(len(phase.slot) for phase in geom.phases)
        assert rows == (payload.k1_needed, payload.k2_needed), cfg


def _block_diagonal(own):
    """Slot blocks (B, slots, rows, width) as one block-diagonal matrix."""
    b, slots, rows, width = own.shape
    return simulate._stack(own, [width] * slots)


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
            chosen = phase.slot * other.shape[2] + phase.row
            for rows, first in ((stacked[:, chosen], False), (stacked[:, : len(chosen)], True)):
                coupled = (w @ phase.deal(rows)).reshape(len(w), -1, rows.shape[-1])
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
