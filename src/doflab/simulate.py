"""Link-level Monte Carlo simulation of the three-phase scheme.

The simulator plays a :class:`~doflab.scheme.SchedulePlan` against i.i.d.
Rayleigh channel draws and measures two fidelities:

* **rank** -- idealized bookkeeping: with exact overheard-equation
  coefficients, does every receiver end up with a full-column-rank linear
  system for its symbols? This validates the schedule combinatorics
  (stream loading, phase-three chunk dealing) independent of SNR.

* **rate** -- finite-SNR mutual information. CSIT imperfection is modeled
  by feeding back each channel coefficient through a uniform quantizer
  with ``alpha * log2(rho)`` bits per complex entry, so the residual power
  decays like ``rho**-alpha``. Phase-three retransmissions are built from
  the quantized coefficients; each receiver cancels what it can
  reconstruct from its own observations, and the irreducible mismatch
  (quantization residual plus reconstruction noise) is treated as extra
  Gaussian noise inside a whitened log-det rate. Fitted rate slopes
  versus ``log2(rho)`` then estimate the achieved DoF pair.

Symbols and noise have unit power; a slot's transmit power ``rho`` is
split evenly over the streams it carries, so SNR means exactly ``rho``.
All randomness flows from ``numpy.random.default_rng`` seeded per trial
with ``[seed, trial]``; identical parameters reproduce identical reports.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import GramOverflow, PlanTooLarge, ShapeMismatch, SingularCovariance
from .rational import RatioLike, as_ratio
from .region import SystemConfig
from .scheme import SchedulePlan, order2_payload

__all__ = [
    "SimParams",
    "ChannelRealization",
    "PhaseMatrices",
    "SimReport",
    "ResidualScan",
    "gen_channels",
    "quantize_csit",
    "build_phase_matrices",
    "rank_check_campaign",
    "estimate_rates",
    "residual_power_scan",
]

QUANTIZER_CLIP = 4.0
# Working-set budget of one batched chunk of the rate and rank campaigns.
# Small plans fit hundreds of (trial, SNR) pairs in a chunk; plans with
# systems near 100x100 run one to a few pairs at a time.
CHUNK_BYTES = 512 * 1024
# Largest working set of one (trial, SNR) pair a campaign will take on;
# plans beyond it raise PlanTooLarge before anything is allocated.
MAX_PAIR_BYTES = 1 << 30
# Singular values below this share of the largest count as rank deficient.
RANK_RTOL = 1e-9


@dataclass(frozen=True)
class SimParams:
    """Monte Carlo controls for one campaign."""

    snr_grid_db: tuple[float, ...]
    trials: int = 200
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        if len(self.snr_grid_db) < 2:
            raise ValueError("need at least two SNR points to fit a slope")
        if list(self.snr_grid_db) != sorted(self.snr_grid_db):
            raise ValueError("SNR grid must be increasing")
        if self.trials < 1:
            raise ValueError("trials must be positive")


@dataclass(eq=False)
class ChannelRealization:
    """Per-slot channel matrices.

    ``h1``/``h2`` have shape (slots, N_i, M), with leading batch axes for a
    stack of draws.
    """

    h1: np.ndarray
    h2: np.ndarray

    @property
    def total_slots(self) -> int:
        return self.h1.shape[-3]


@dataclass(eq=False)
class PhaseMatrices:
    """Unscaled block-diagonal stacks of the two symbol phases.

    Rows group by slot (N_i rows each); columns are symbols. Entry blocks
    follow the big-first per-slot stream loading of the plan. Stacks built
    from a stack of draws keep its leading batch axes.
    """

    rx1_phase1: np.ndarray  # (N1*tau1, s1)
    rx2_phase1: np.ndarray  # (N2*tau1, s1)
    rx1_phase2: np.ndarray  # (N1*tau2, s2)
    rx2_phase2: np.ndarray  # (N2*tau2, s2)


@dataclass(eq=False)
class SimReport:
    """Campaign output: ergodic rates per SNR point plus fitted slopes."""

    snr_grid_db: tuple[float, ...]
    rates: np.ndarray  # (len(grid), 2) bits per slot
    slopes: tuple[float, float]
    trials: int
    rank_passes: tuple[int, int] | None = None
    rank_trials: int = 0

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["snr_db", "rx", "rate_bits_per_slot", "trials"])
        for si, snr in enumerate(self.snr_grid_db):
            for rx in (1, 2):
                writer.writerow([repr(snr), rx, repr(float(self.rates[si, rx - 1])), self.trials])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        rank = None
        if self.rank_passes is not None:
            rank = {
                "rx1_passes": self.rank_passes[0],
                "rx2_passes": self.rank_passes[1],
                "trials": self.rank_trials,
            }
        return {
            "snr_db": list(self.snr_grid_db),
            "rate_bits_per_slot": {
                "rx1": [float(r) for r in self.rates[:, 0]],
                "rx2": [float(r) for r in self.rates[:, 1]],
            },
            "slope": {"rx1": self.slopes[0], "rx2": self.slopes[1]},
            "trials": self.trials,
            "backend": kernels.backend,
            "rank_check": rank,
        }


@dataclass(eq=False)
class ResidualScan:
    """Mean quantization-residual power across an SNR grid, with the
    fitted log-log slope (ideal value: minus the CSIT quality)."""

    snr_grid_db: tuple[float, ...]
    mean_power: list[float]
    slope: float


def gen_channels(cfg: SystemConfig, total_slots: int, seed) -> ChannelRealization:
    """Draw i.i.d. unit-variance complex Gaussian channels for both users.

    ``seed`` may be an int or a sequence of ints (the campaign drivers pass
    ``[seed, trial]`` so trials are independent but reproducible).
    """
    if total_slots < 1:
        raise ValueError("total_slots must be positive")
    rng = np.random.default_rng(seed)
    shape1 = (total_slots, cfg.n1, cfg.m)
    shape2 = (total_slots, cfg.n2, cfg.m)
    h1 = (rng.standard_normal(shape1) + 1j * rng.standard_normal(shape1)) / np.sqrt(2)
    h2 = (rng.standard_normal(shape2) + 1j * rng.standard_normal(shape2)) / np.sqrt(2)
    return ChannelRealization(h1, h2)


def quantize_csit(h: np.ndarray, alpha: RatioLike, rho) -> np.ndarray:
    """Uniform feedback quantizer at quality ``alpha``.

    Budget ``alpha * log2(rho)`` bits per complex coefficient, i.e. step
    ``sqrt(6) * rho**(-alpha/2)`` on each real axis (clipped at +-4), which
    makes the mean residual power ``rho**-alpha`` inside the clip region.
    ``alpha == 0`` returns the all-zero estimate; ``alpha == 1`` puts the
    residual at the noise floor relative to the transmit power.

    ``rho`` is a scalar or an array broadcast against ``h``, so one call
    quantizes a whole stack of draws at their own SNR points.
    """
    a = float(as_ratio(alpha))
    if not 0 <= a <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {a}")
    if np.any(np.asarray(rho) <= 0):
        raise ValueError("rho must be positive")
    if a == 0:
        return np.zeros_like(h)
    # Python's pow, element by element: numpy's vectorized power can differ
    # in the last place, and the step must not depend on batching
    steps = [math.sqrt(6.0) * r ** (-a / 2.0) for r in np.ravel(rho).tolist()]
    step = np.reshape(steps, np.shape(rho))
    re = np.clip(h.real, -QUANTIZER_CLIP, QUANTIZER_CLIP)
    im = np.clip(h.imag, -QUANTIZER_CLIP, QUANTIZER_CLIP)
    return step * np.round(re / step) + 1j * step * np.round(im / step)


def _spread(total: int, slots: int) -> list[int]:
    """Per-slot stream loads, largest first, summing to ``total``."""
    if slots == 0:
        return []
    base, extra = divmod(total, slots)
    return [base + 1 if t < extra else base for t in range(slots)]


def _stack(h: np.ndarray, loads, take=None, scales: np.ndarray | None = None) -> np.ndarray:
    """Block-diagonal stack of per-slot channels ``h`` (..., slots, rows, cols).

    Slot t contributes the first ``take[t]`` of its rows (all of them when
    ``take`` is None) and its first ``loads[t]`` columns, scaled by
    ``scales[..., t]`` when given, at the next free rows and symbol columns;
    every other entry is zero. Consecutive slots with equal (rows, load)
    blocks form a run, and each run is written with one diagonal assignment.
    """
    if take is None:
        take = [h.shape[-2]] * len(loads)
    if max(take, default=0) > h.shape[-2] or max(loads, default=0) > h.shape[-1]:
        raise ShapeMismatch(
            f"slot blocks of up to {max(take)} x {max(loads)} do not fit "
            f"{h.shape[-2]} x {h.shape[-1]} channels"
        )
    batch = h.shape[:-3]
    out = np.zeros(batch + (sum(take), sum(loads)), dtype=np.complex128)
    slot = row = col = 0
    for (rows, load), run in itertools.groupby(zip(take, loads)):
        count = len(list(run))
        if rows and load:
            block = h[..., slot : slot + count, :rows, :load]
            if scales is not None:
                block = scales[..., slot : slot + count, None, None] * block
            # splitting the two axes of a slice of ``out`` gives a view of it
            grid = out[..., row : row + count * rows, col : col + count * load].reshape(
                batch + (count, rows, count, load)
            )
            diag = np.arange(count)
            grid[..., diag, :, diag, :] = np.moveaxis(block, -3, 0)
        slot, row, col = slot + count, row + count * rows, col + count * load
    return out


def _deal(rows: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """Payload rows (B, k, ...) dealt onto the phase-three grid: grid entry
    (t, r) gets row ``pick[t, r]``, or zeros where the pick is k."""
    zero = np.zeros((rows.shape[0], 1, *rows.shape[2:]), dtype=rows.dtype)
    return np.concatenate([rows, zero], axis=1)[:, pick]


def _herm(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a.conj(), -1, -2)


class _PlanGeometry:
    """Shared index bookkeeping for one (config, plan) pair."""

    def __init__(self, cfg: SystemConfig, plan: SchedulePlan):
        self.cfg = cfg
        self.plan = plan
        self.payload = order2_payload(plan, cfg)  # validates feasibility
        length = self.payload.length
        self.slots3 = min(length, plan.tau3)  # phase-three slots that carry streams
        # sized from the plan's integers alone, before any per-slot list or array
        size = self.pair_bytes()
        if size > MAX_PAIR_BYTES:
            raise PlanTooLarge(
                f"plan with tau {[plan.tau1, plan.tau2, plan.tau3]} needs over "
                f"{size >> 30} GiB per (trial, SNR) pair; the cap is {MAX_PAIR_BYTES >> 30} GiB"
            )
        k1, k2 = self.payload.k1_needed, self.payload.k2_needed
        loads1 = _spread(plan.s1_count, plan.tau1)
        loads2 = _spread(plan.s2_count, plan.tau2)
        self.phase1 = slice(0, plan.tau1)
        self.phase2 = slice(plan.tau1, plan.tau1 + plan.tau2)
        # order-2 coefficient rows: from each slot of phase i, as many rows
        # of the other receiver's channel as receiver i lacks there,
        # load - N_i. Loads differ by at most one, so these sum to k_i.
        take1 = [max(0, load - cfg.n1) for load in loads1]
        take2 = [max(0, load - cfg.n2) for load in loads2]
        self.own1 = functools.partial(_stack, loads=loads1)
        self.own2 = functools.partial(_stack, loads=loads2)
        self.coef1 = functools.partial(_stack, loads=loads1, take=take1)
        self.coef2 = functools.partial(_stack, loads=loads2, take=take2)
        # own-row scales divide by the slot loads; a slot without streams
        # adds no entries, so its scale is never used
        self.loads1 = np.maximum(loads1, 1)
        self.loads2 = np.maximum(loads2, 1)
        # load of the slot each coefficient row comes from, for its power
        self.row_loads1 = np.repeat(loads1, take1).astype(float)
        self.row_loads2 = np.repeat(loads2, take2).astype(float)
        # Phase three deals the payload round-robin: symbol j goes to slot
        # j % tau3 as its stream j // tau3, which caps each slot's
        # user-i-carrying count at ceil(k_i / tau3) <= N_i. The grid below
        # holds slot t's streams in row t, padded to the longest slot; a
        # pick equal to k_i selects an appended zero row.
        self.streams3 = self.payload.per_slot_streams  # streams of the fullest slot
        base3 = plan.tau1 + plan.tau2
        self.phase3 = slice(base3, base3 + self.slots3)
        j = np.arange(self.streams3)[None, :] * plan.tau3 + np.arange(self.slots3)[:, None]
        self.pick1 = np.where(j < k1, j, k1)
        self.pick2 = np.where(j < k2, j, k2)
        self.slot_streams = np.count_nonzero(j < length, axis=1).astype(float)

    def _system_rows(self) -> tuple[int, int]:
        """Rows of each receiver's stacked system: own phase plus phase three."""
        cfg, plan = self.cfg, self.plan
        return cfg.n1 * (plan.tau1 + self.slots3), cfg.n2 * (plan.tau2 + self.slots3)

    def pair_bytes(self) -> int:
        """Bytes of one (trial, SNR) pair's rate working set and its working
        copy: per receiver the whitened (rows, symbols) system, the
        (symbols, symbols) Gram matrix and the (n3, n3) phase-three noise
        covariance, n3 being the receiver's phase-three rows."""
        total = 0
        for rows, n, symbols in zip(
            self._system_rows(), (self.cfg.n1, self.cfg.n2), (self.plan.s1_count, self.plan.s2_count)
        ):
            n3 = n * self.slots3
            total += rows * symbols + symbols * symbols + n3 * n3
        return 2 * 16 * total

    def trial_bytes(self) -> int:
        """Bytes of the systems one trial hands the rank kernel, and the
        kernel's working copy of them."""
        rows1, rows2 = self._system_rows()
        return 2 * 16 * (rows1 * self.plan.s1_count + rows2 * self.plan.s2_count)


def _chunks(count: int, unit_bytes: int):
    """Consecutive index ranges covering ``range(count)``, each holding as
    many units as fit in ``CHUNK_BYTES`` (at least one)."""
    size = max(1, CHUNK_BYTES // max(unit_bytes, 1))
    for start in range(0, count, size):
        yield np.arange(start, min(start + size, count))


class _TrialDraws:
    """Channel draws of a campaign, one ``gen_channels`` call per trial;
    keeps only the trials a later chunk can still ask for."""

    def __init__(self, cfg: SystemConfig, total_slots: int, seed: int):
        self.cfg, self.total_slots, self.seed = cfg, total_slots, seed
        self.drawn: dict[int, ChannelRealization] = {}

    def take(self, trials: np.ndarray) -> ChannelRealization:
        """Channels of ``trials`` (nondecreasing), stacked on a leading axis."""
        first, last = int(trials[0]), int(trials[-1])
        self.drawn = {t: r for t, r in self.drawn.items() if t >= first}
        for t in range(first, last + 1):
            if t not in self.drawn:
                self.drawn[t] = gen_channels(self.cfg, self.total_slots, [self.seed, t])
        span = range(first, last + 1)
        h1 = np.stack([self.drawn[t].h1 for t in span])
        h2 = np.stack([self.drawn[t].h2 for t in span])
        return ChannelRealization(h1[trials - first], h2[trials - first])


def build_phase_matrices(realization: ChannelRealization, plan: SchedulePlan,
                         cfg: SystemConfig) -> PhaseMatrices:
    """Stack the true channels of the two symbol phases (unscaled).

    Leading axes of the realization's arrays are batch axes and carry
    through to the stacks.
    """
    if realization.total_slots < plan.total_slots:
        raise ShapeMismatch(
            f"realization has {realization.total_slots} slots, plan needs {plan.total_slots}"
        )
    h1, h2 = realization.h1, realization.h2
    if h1.shape[-2] != cfg.n1 or h2.shape[-2] != cfg.n2 or h1.shape[-1] != cfg.m:
        raise ShapeMismatch("realization dimensions do not match the configuration")
    loads1 = _spread(plan.s1_count, plan.tau1)
    loads2 = _spread(plan.s2_count, plan.tau2)
    p1 = slice(0, plan.tau1)
    p2 = slice(plan.tau1, plan.tau1 + plan.tau2)
    return PhaseMatrices(
        rx1_phase1=_stack(h1[..., p1, :, :], loads1),
        rx2_phase1=_stack(h2[..., p1, :, :], loads1),
        rx1_phase2=_stack(h1[..., p2, :, :], loads2),
        rx2_phase2=_stack(h2[..., p2, :, :], loads2),
    )


def _ranks(geom: _PlanGeometry, realization: ChannelRealization):
    """Per-receiver ranks of the idealized systems of draws stacked on one
    leading axis.

    The order-2 coefficients are the true channel rows and the cross part
    cancels exactly, so a deficient rank isolates a schedule defect.
    """
    h1, h2 = realization.h1, realization.h2
    sys1 = geom.own1(h1[:, geom.phase1])
    sys2 = geom.own2(h2[:, geom.phase2])
    if geom.slots3:
        q = geom.streams3
        w1 = h1[:, geom.phase3, :, :q]
        w2 = h2[:, geom.phase3, :, :q]
        rows1 = _phase3_rows(w1, geom.coef1(h2[:, geom.phase1]), geom.pick1)
        rows2 = _phase3_rows(w2, geom.coef2(h1[:, geom.phase2]), geom.pick2)
        sys1 = np.concatenate([sys1, rows1], axis=-2)
        sys2 = np.concatenate([sys2, rows2], axis=-2)
    return (
        kernels.numerical_rank_stacked(sys1, RANK_RTOL),
        kernels.numerical_rank_stacked(sys2, RANK_RTOL),
    )


def rank_check_campaign(
    cfg: SystemConfig, plan: SchedulePlan, params: SimParams
) -> tuple[int, int]:
    """Count rank-check passes per receiver over ``params.trials`` draws.

    A trial passes for a receiver when its idealized stacked system reaches
    full column rank for the receiver's own symbols. The true channel serves
    as the order-2 coefficients and the cross part cancels exactly, so a
    failure isolates a schedule defect (not enough equations routed to the
    receiver) rather than an SNR effect.
    """
    geom = _PlanGeometry(cfg, plan)
    draws = _TrialDraws(cfg, plan.total_slots, params.seed)
    passes = [0, 0]
    for trials in _chunks(params.trials, geom.trial_bytes()):
        rank1, rank2 = _ranks(geom, draws.take(trials))
        passes[0] += int(np.count_nonzero(rank1 == plan.s1_count))
        passes[1] += int(np.count_nonzero(rank2 == plan.s2_count))
    return passes[0], passes[1]


def _phase3_rows(w: np.ndarray, rows: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """Phase-three rows (B, slots * N, cols), slot by slot, that a receiver
    with channel ``w`` (B, slots, N, streams) sees of payload rows
    (B, k, cols) dealt by ``pick``."""
    b, slots, n = w.shape[:3]
    return (w @ _deal(rows, pick)).reshape(b, slots * n, rows.shape[-1])


def _phase3_system(w, own, pick_own, cross, pick_cross, evar):
    """One receiver's phase-three rows (B, n3, symbols) and their noise
    covariance S (B, n3, n3), from its scaled channel ``w``
    (B, slots, N, streams) and the payload rows dealt by the picks.

    Gain rows carry the receiver's own symbols (``own``). S is the unit
    noise, plus the mismatch that maps the other user's symbols through the
    quantization residual ``cross`` left after cancellation, plus per slot
    an (N, N) block of reconstruction thermal noise of variances ``evar``
    lifted through the phase-three channel.
    """
    b, slots, n = w.shape[:3]
    mism = _phase3_rows(w, cross, pick_cross)
    sig3 = np.eye(slots * n, dtype=np.complex128) + mism @ _herm(mism)
    extra = (w * _deal(evar, pick_cross)[:, :, None, :]) @ _herm(w)
    diag = np.arange(slots)
    sig3.reshape(b, slots, n, slots, n)[:, diag, :, diag, :] += np.moveaxis(extra, 1, 0)
    return _phase3_rows(w, own, pick_own), sig3


def _receiver_rates(own: np.ndarray, phase3) -> np.ndarray:
    """Whitened log-det rate of each receiver system of the batch (bits per
    use of the stacked channel).

    The system stacks the own-phase rows ``own`` (B, n_own, s) over the
    phase-three rows of ``phase3`` (None, or the rows and their covariance S
    from ``_phase3_system``), under noise covariance diag(I, S). The own
    rows are already white, so only S is factored; the Gram matrix is
    formed from the whole whitened system in one product, as the dense
    ``kernels.logdet_rate_bits_stacked`` forms it.
    """
    if own.shape[-1] == 0:  # no symbols: rate 0, as the dense kernel gives
        return np.zeros(own.shape[0])
    white = own
    if phase3 is not None:
        white = np.concatenate([own, kernels.whiten_stacked(*phase3)], axis=1)
    return kernels.white_rate_bits_stacked(white)


def _pair_rates(geom: _PlanGeometry, real: ChannelRealization, rho: np.ndarray) -> np.ndarray:
    """Rates (B, 2) in bits per slot of B (trial, SNR) pairs: channels
    ``real`` (B, slots, N_i, M) at SNR ``rho`` (B,)."""
    cfg, plan = geom.cfg, geom.plan
    h1, h2 = real.h1, real.h2
    power = rho
    at_rho = rho[:, None, None, None]
    h2_p1, h1_p2 = h2[:, geom.phase1], h1[:, geom.phase2]
    h2_hat = quantize_csit(h2_p1, cfg.alpha2, at_rho)
    h1_hat = quantize_csit(h1_p2, cfg.alpha1, at_rho)

    own1 = geom.own1(h1[:, geom.phase1], scales=np.sqrt(power[:, None] / geom.loads1))
    own2 = geom.own2(h2[:, geom.phase2], scales=np.sqrt(power[:, None] / geom.loads2))
    # order-2 coefficient rows (estimates), their residuals and row powers
    est1, res1 = geom.coef1(h2_hat), geom.coef1(h2_p1 - h2_hat)
    est2, res2 = geom.coef2(h1_hat), geom.coef2(h1_p2 - h1_hat)
    pow1 = power[:, None] / geom.row_loads1
    pow2 = power[:, None] / geom.row_loads2

    phase3 = (None, None)
    if geom.slots3:
        pick1, pick2 = geom.pick1, geom.pick2
        # each order-2 symbol gets an equal share of the slot's power
        pw = (
            _deal(np.sum(np.abs(est1) ** 2, axis=-1), pick1)
            + _deal(np.sum(np.abs(est2) ** 2, axis=-1), pick2)
        )
        spread = power[:, None, None] / geom.slot_streams[:, None]
        gains = np.where(pw > 0, np.sqrt(spread / np.where(pw > 0, pw, 1.0)), 0.0)
        q = geom.streams3
        w1 = h1[:, geom.phase3, :, :q] * gains[:, :, None, :]
        w2 = h2[:, geom.phase3, :, :q] * gains[:, :, None, :]
        phase3 = (
            _phase3_system(w1, est1, pick1, res2, pick2, 1.0 / pow2),
            _phase3_system(w2, est2, pick2, res1, pick1, 1.0 / pow1),
        )
    total = plan.total_slots
    return np.stack(
        [
            _receiver_rates(own1, phase3[0]) / total,
            _receiver_rates(own2, phase3[1]) / total,
        ],
        axis=-1,
    )


def estimate_rates(cfg: SystemConfig, plan: SchedulePlan, params: SimParams) -> SimReport:
    """Ergodic achievable rates of the plan across the SNR grid.

    Per trial and SNR point the transmitter quantizes the delayed CSIT at
    the configured qualities, builds the phase-three payload from the
    estimates, and each receiver decodes its stacked system with the
    cancellation mismatch folded into the noise covariance. Rates are in
    bits per slot; the returned slopes are least-squares fits against
    ``log2(rho)`` over the top half of the grid.

    The (trial, SNR) pairs run in chunks as stacked arrays, as many per
    chunk as fit the plan's working set into ``CHUNK_BYTES``.
    """
    geom = _PlanGeometry(cfg, plan)
    grid = params.snr_grid_db
    points = len(grid)
    rho = np.array([10.0 ** (snr_db / 10.0) for snr_db in grid])
    draws = _TrialDraws(cfg, plan.total_slots, params.seed)

    pair_rates = np.empty((params.trials * points, 2))
    for pairs in _chunks(len(pair_rates), geom.pair_bytes()):
        trial, point = np.divmod(pairs, points)
        try:
            pair_rates[pairs] = _pair_rates(geom, draws.take(trial), rho[point])
        except (SingularCovariance, GramOverflow) as exc:
            at = exc.index
            raise type(exc)(f"trial {trial[at]}, SNR {grid[point[at]]} dB: {exc}") from exc
    # summed over trials in trial order, as a running total would
    rates = pair_rates.reshape(params.trials, points, 2).sum(axis=0)
    rates /= params.trials

    slopes = (
        _fit_slope(grid, rates[:, 0]),
        _fit_slope(grid, rates[:, 1]),
    )
    return SimReport(
        snr_grid_db=grid,
        rates=rates,
        slopes=slopes,
        trials=params.trials,
    )


def _fit_slope(snr_grid_db, values) -> float:
    """Least-squares slope of rate versus log2(rho), top half of the grid."""
    x = np.asarray(snr_grid_db, dtype=float) * (math.log2(10.0) / 10.0)
    y = np.asarray(values, dtype=float)
    top = slice(len(x) // 2, len(x))
    design = np.vstack([x[top], np.ones(len(x) - len(x) // 2)]).T
    slope, _ = np.linalg.lstsq(design, y[top], rcond=None)[0]
    return float(slope)


def residual_power_scan(
    alpha: RatioLike, snr_grid_db, seed, entries: int = 100_000
) -> ResidualScan:
    """Mean quantizer-residual power per SNR point and its log-log slope.

    The fitted slope of ``log10(mean power)`` against ``log10(rho)`` should
    sit near ``-alpha``.
    """
    grid = tuple(float(s) for s in snr_grid_db)
    rng = np.random.default_rng(seed)
    draws = (rng.standard_normal(entries) + 1j * rng.standard_normal(entries)) / np.sqrt(2)
    means = []
    for snr_db in grid:
        rho = 10.0 ** (snr_db / 10.0)
        hat = quantize_csit(draws, alpha, rho)
        means.append(float(np.mean(np.abs(draws - hat) ** 2)))
    x = np.array([snr / 10.0 for snr in grid])  # log10(rho)
    y = np.log10(np.maximum(means, 1e-300))
    design = np.vstack([x, np.ones(len(x))]).T
    slope, _ = np.linalg.lstsq(design, y, rcond=None)[0]
    return ResidualScan(grid, means, float(slope))
