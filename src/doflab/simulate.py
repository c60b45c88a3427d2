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
Trial ``t`` of a campaign draws its channels from exactly the stream of
``numpy.random.default_rng([seed, t])``; ``gen_channels`` reproduces
numpy's seeding for a whole batch of trials at once. Identical parameters
reproduce identical reports, whatever the batching.
"""

from __future__ import annotations

import csv
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
    "rate_snr_limit_db",
    "build_phase_matrices",
    "rank_check_campaign",
    "estimate_rates",
    "residual_power_scan",
]

QUANTIZER_CLIP = 4.0
# Largest relative rounding error the rate campaign accepts in the terms
# that set its slopes (see rate_snr_limit_db).
RATE_ROUNDING = 1e-3
# Working-set budget of one batched chunk of the rate and rank campaigns,
# and separately of one block of channel draws. Small plans fit hundreds of
# (trial, SNR) pairs in a chunk; plans with systems near 100x100 run one to
# a few pairs at a time.
CHUNK_BYTES = 512 * 1024
# Largest working set of one (trial, SNR) pair, largest channel draw of one
# trial, and largest array of per-pair rates a campaign will take on; plans
# and trial counts beyond it raise PlanTooLarge before anything is allocated.
MAX_PAIR_BYTES = 1 << 30
# The rank fidelity's relative cut (kernels.slot_rank_stacked): a slot
# block's rank counts its Gram-Schmidt residual row norms above this share
# of its largest row norm, and rank(P N) the singular values of P N above
# this share of the coupling rows' ||P||_F.
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


# numpy.random.SeedSequence's hash (after O'Neill's seed_seq_fe): its pool
# of 4 uint32 words, the constants of its two hash chains, and its mix
# multipliers; and the PCG64 multiplier that seeding steps the state with.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_chain(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``count`` consecutive hash steps:
    step j xors with the chain's value c_j and multiplies by c_(j+1), where
    c_0 = ``init`` and each value is the last times ``mult``, mod 2**32."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    chain = np.array(chain, dtype=np.uint32)
    return chain[:-1], chain[1:]


# the 8 uint32 words of generate_state(4, np.uint64) read the pool twice
_STATE_XOR, _STATE_MUL = _hash_chain(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    # uint32 arrays wrap silently; each column takes its own hash step
    values = (values ^ xor) * mul
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> np.uint32(16))


def _seed_state_words(entropy: np.ndarray) -> list[list[int]]:
    """``SeedSequence(e).generate_state(4, np.uint64)`` of each row ``e`` of
    ``entropy`` (B, n) uint32, for all rows at once.

    The hash constants do not depend on the data, so each step runs over
    the whole batch; the three mixes of one source pool word into the
    others are independent and run as one step too.
    """
    b, n = entropy.shape
    extra = max(0, n - _POOL)
    xor, mul = _hash_chain(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra)
    pool = np.zeros((b, _POOL), dtype=np.uint32)
    pool[:, : min(n, _POOL)] = entropy[:, :_POOL]
    pool = _hashmix(pool, xor[:_POOL], mul[:_POOL])
    step = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        hashed = _hashmix(pool[:, src, None], xor[step : step + 3], mul[step : step + 3])
        pool[:, dst] = _mix(pool[:, dst], hashed)
        step += 3
    for src in range(_POOL, n):
        pool = _mix(pool, _hashmix(entropy[:, src, None], xor[step : step + _POOL], mul[step : step + _POOL]))
        step += _POOL
    words = _hashmix(np.tile(pool, 2), _STATE_XOR, _STATE_MUL).astype(np.uint64)
    return (words[:, 0::2] | words[:, 1::2] << np.uint64(32)).tolist()


def _entropy_words(seed) -> list[int]:
    """SeedSequence's entropy words of ``seed``: an int's uint32 words, least
    significant first, or the words of a sequence's items in order."""
    if isinstance(seed, (int, np.integer)):
        value = int(seed)
        if value < 0:
            raise ValueError(f"seed must be non-negative, got {value}")
        words = [value & 0xFFFFFFFF]
        while value >> 32:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
        return words
    if not isinstance(seed, (list, tuple, range, np.ndarray)):
        raise TypeError(f"seed must be an int or a sequence of ints, not {seed!r}")
    return [word for item in seed for word in _entropy_words(item)]


def _pcg64_states(entropies: list[list[int]]) -> list[dict]:
    """The state of ``PCG64(SeedSequence(e))`` for each list of entropy
    words ``e``. Lists of one length are hashed in one batch; PCG64 seeding
    then sets inc = 2 * seq + 1 and steps the state twice, adding the seed
    word in between, in 128-bit integers."""
    states: list = [None] * len(entropies)
    by_length: dict[int, list[int]] = {}
    for i, words in enumerate(entropies):
        by_length.setdefault(len(words), []).append(i)
    for length, rows in by_length.items():
        entropy = np.array([entropies[i] for i in rows], dtype=np.uint32).reshape(len(rows), length)
        for i, (seed_hi, seed_lo, seq_hi, seq_lo) in zip(rows, _seed_state_words(entropy)):
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
            states[i] = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
    return states


def gen_channels(cfg: SystemConfig, total_slots: int, seed, trials=None) -> ChannelRealization:
    """Draw i.i.d. unit-variance complex Gaussian channels for both users.

    With ``trials=None``, ``seed`` may be an int or a sequence of ints and
    the arrays have shape (slots, N_i, M). With an int array ``trials``,
    the arrays gain a leading axis: row ``i`` is exactly
    ``gen_channels(cfg, total_slots, [seed, trials[i]])``, so the
    campaigns' trials are independent but reproducible in any batching.

    Each row's stream is exactly ``numpy.random.default_rng(row_seed)``'s:
    numpy's ``SeedSequence`` hash of the row's entropy words runs for the
    whole batch at once, and one ``PCG64`` generator is set to each row's
    seeded state in turn. Each stream fills one float64 row with, in order,
    the real and the imaginary parts of ``h1`` and then of ``h2``; the
    complex channels of all rows are assembled at once.
    """
    if total_slots < 1:
        raise ValueError("total_slots must be positive")
    head = _entropy_words(seed)
    entropies = [head] if trials is None else [head + _entropy_words(int(t)) for t in trials]
    shape1 = (len(entropies), total_slots, cfg.n1, cfg.m)
    shape2 = (len(entropies), total_slots, cfg.n2, cfg.m)
    size1, size2 = math.prod(shape1[1:]), math.prod(shape2[1:])
    raw = np.empty((len(entropies), 2 * (size1 + size2)))
    bit_generator = np.random.PCG64(0)  # every row sets its own state
    generator = np.random.Generator(bit_generator)
    for row, state in zip(raw, _pcg64_states(entropies)):
        bit_generator.state = state
        generator.standard_normal(out=row)
    re1, im1, re2, im2 = np.split(raw, np.cumsum([size1, size1, size2]), axis=1)
    h1 = (re1.reshape(shape1) + 1j * im1.reshape(shape1)) / np.sqrt(2)
    h2 = (re2.reshape(shape2) + 1j * im2.reshape(shape2)) / np.sqrt(2)
    if trials is None:
        h1, h2 = h1[0], h2[0]
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


def rate_snr_limit_db(cfg: SystemConfig, plan: SchedulePlan) -> float:
    """Highest SNR in dB at which ``estimate_rates`` resolves the plan's
    rates in float64; infinite for a plan without phase three, where SNR
    only scales the own rows.

    Two rounding errors grow with ``rho``, and the limit keeps both within
    ``RATE_ROUNDING`` for both qualities ``alpha`` of ``cfg``:

    * The quantizer. An estimate is a multiple of the step
      ``sqrt(6) * rho**(-alpha/2)`` of at most ``QUANTIZER_CLIP`` per real
      axis, so its float64 rounding error is a share
      ``eps * QUANTIZER_CLIP / (2 * sqrt(6)) * rho**(alpha/2)`` of the step,
      and the residual priced as mismatch departs from the quantizer's by
      that share. ``alpha == 0`` quantizes nothing.
    * The own-phase noise floor. Own rows grow like ``sqrt(rho)``, and a
      factorization of [I; A_t] resolves the unit noise along A_t's null
      space, where phase three delivers power ``rho**alpha``, only to
      ``(eps * sqrt(rho))**2``: a share ``eps**2 * rho**(1 - alpha)``.

    Measured at ``M=2, N1=N2=1`` (corner, 30 to 40 trials, 40 dB grids),
    the fitted slopes leave their high-SNR value from about 300 dB at
    ``alpha = 1`` (limit 254.8 dB), 600 dB at 1/2 (509.7 dB), 470 dB at 1/3
    (424.6 dB) and 410 dB at 1/4 (377.4 dB).
    """
    if not min(order2_payload(plan, cfg).length, plan.tau3):
        return math.inf
    eps = float(np.finfo(np.float64).eps)
    quantizer = eps * QUANTIZER_CLIP / (2.0 * math.sqrt(6.0))
    limit = math.inf
    for alpha in (float(cfg.alpha1), float(cfg.alpha2)):
        if alpha > 0:
            limit = min(limit, 10.0 * (2.0 / alpha) * math.log10(RATE_ROUNDING / quantizer))
        if alpha < 1:
            limit = min(limit, 10.0 / (1.0 - alpha) * math.log10(RATE_ROUNDING / eps**2))
    return limit


def _spread(total: int, slots: int) -> list[int]:
    """Per-slot stream loads, largest first, summing to ``total``."""
    if slots == 0:
        return []
    base, extra = divmod(total, slots)
    return [base + 1 if t < extra else base for t in range(slots)]


def _check_fit(take, loads, rows: int, cols: int) -> None:
    """Raise ShapeMismatch unless every slot block, ``take[t]`` rows by
    ``loads[t]`` columns, fits a ``rows`` x ``cols`` channel."""
    if max(take, default=0) > rows or max(loads, default=0) > cols:
        raise ShapeMismatch(
            f"slot blocks of up to {max(take)} x {max(loads)} do not fit "
            f"{rows} x {cols} channels"
        )


def _stack(h: np.ndarray, loads) -> np.ndarray:
    """Block-diagonal stack of per-slot channels ``h`` (..., slots, rows, cols).

    Slot t contributes all its rows and its first ``loads[t]`` columns at the
    next free rows and symbol columns; every other entry is zero.
    Consecutive slots with equal loads form a run, and each run is written
    with one diagonal assignment.
    """
    rows = h.shape[-2]
    _check_fit([rows] * len(loads), loads, *h.shape[-2:])
    batch = h.shape[:-3]
    out = np.zeros(batch + (rows * len(loads), sum(loads)), dtype=np.complex128)
    slot = col = 0
    for load, run in itertools.groupby(loads):
        count = len(list(run))
        if load:
            block = h[..., slot : slot + count, :, :load]
            # splitting the two axes of a slice of ``out`` gives a view of it
            grid = out[..., slot * rows : (slot + count) * rows, col : col + count * load].reshape(
                batch + (count, rows, count, load)
            )
            diag = np.arange(count)
            grid[..., diag, :, diag, :] = np.moveaxis(block, -3, 0)
        slot, col = slot + count, col + count * load
    return out


def _herm(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a.conj(), -1, -2)


class _Phase:
    """Symbol phase i: the slots that carry user i's symbols, and how the
    rows receiver i overhears there reach phase three.

    The campaigns lay the phase out as its tau_i slots of ``width`` columns
    each, ``width`` being the phase's largest slot load. A slot with one
    stream fewer (``_spread`` loads differ by at most one) gets a zero
    column: a stream that carries no symbol, and adds nothing to any rank
    or rate.

    The order-2 payload rows are overheard channel rows: from each slot t,
    as many rows of the other receiver's channel as receiver i lacks
    there, load_t - N_i. Loads differ by at most one, so these add up to
    max(0, s_i - N_i * tau_i) = k_i. Phase three deals them round-robin:
    row j goes to slot j % tau3 as its stream j // tau3, which caps each
    slot's count of this receiver's rows at ceil(k_i / tau3) <= N_i. On the
    (phase-three slot, stream) grid ``streams``, stream (a, r) carries row
    ``pick[a, r]`` where ``live[a, r]``.
    """

    def __init__(self, span: slice, count: int, n: int, other: int, m: int, streams: np.ndarray):
        self.span = span
        self.slots = span.stop - span.start
        loads = _spread(count, self.slots)
        take = [max(0, load - n) for load in loads]
        _check_fit(take, loads, other, m)
        take = np.asarray(take, dtype=int)
        self.width = max(loads, default=0)
        # (slots, width): True where a slot's stream carries a symbol
        self.mask = np.arange(self.width) < np.array(loads, dtype=int)[:, None]
        # own-row power shares divide by the slot loads; a slot without
        # streams has only zero columns, so its share is never used
        self.loads = np.maximum(loads, 1)
        # load of the slot each payload row comes from, for its power
        self.row_loads = np.repeat(loads, take).astype(float)
        self.slot = np.repeat(np.arange(len(take)), take)  # source slot of each row
        self.k = k = len(self.slot)
        self.row = np.arange(k) - np.repeat(np.cumsum(take) - take, take)  # its row there
        self.live = streams < k
        self.pick = np.where(self.live, streams, 0)
        # source slot of each grid stream; any slot where no row is dealt
        self.source = self.slot[self.pick] if k else np.zeros_like(streams)

    def symbols(self, h: np.ndarray) -> np.ndarray:
        """The phase's slots of channels ``h`` (B, slots, N, M) in its
        layout (B, tau_i, N, width)."""
        return h[:, self.span, :, : self.width] * self.mask[:, None, :]

    def deal(self, values: np.ndarray) -> np.ndarray:
        """Per-row ``values`` (B, k, ...) on the grid (B, slots3, streams,
        ...), zeros where no row is dealt."""
        if not self.k:
            return np.zeros((values.shape[0], *self.pick.shape, *values.shape[2:]), dtype=values.dtype)
        dealt = values[:, self.pick]
        dealt[:, ~self.live] = 0
        return dealt

    def rows(self, h: np.ndarray) -> np.ndarray:
        """The payload rows of the other receiver's channels ``h`` (B,
        slots, N, width) in the phase's layout, dealt onto the grid
        (B, slots3, streams, width)."""
        return self.deal(h[:, self.slot, self.row])

    def lift(self, w: np.ndarray, dealt: np.ndarray) -> np.ndarray:
        """Phase-three rows (B, slots3 * N, slots * width), slot by slot,
        that a receiver with channel ``w`` (B, slots3, N, streams) sees of
        payload rows ``dealt`` (B, slots3, streams, width). Each stream's
        row lies in the columns of its source slot, where its terms are
        added one stream index at a time."""
        b, slots3, n, streams = w.shape
        width = dealt.shape[-1]
        out = np.zeros((b, slots3, n, self.slots, width), dtype=np.complex128)
        if self.k:
            # (streams, slots3, B, N, width): term r indexes like the
            # stream's target, out[:, grid, :, source[:, r], :]
            terms = w.transpose(3, 1, 0, 2)[..., None] * dealt.transpose(2, 1, 0, 3)[:, :, :, None, :]
            grid = np.arange(slots3)
            for r in range(streams):
                out[:, grid, :, self.source[:, r], :] += terms[r]
        return out.reshape(b, slots3 * n, self.slots * width)


class _PlanGeometry:
    """Shared index bookkeeping for one (config, plan) pair: the two symbol
    phases (``phases``, a ``_Phase`` each) and phase three's grid."""

    def __init__(self, cfg: SystemConfig, plan: SchedulePlan):
        self.cfg = cfg
        self.plan = plan
        self.payload = order2_payload(plan, cfg)  # validates feasibility
        length = self.payload.length
        self.slots3 = min(length, plan.tau3)  # phase-three slots that carry streams
        # sized from the plan's integers alone, before any per-slot list or array
        for size, unit in ((self.pair_bytes(), "(trial, SNR) pair"),
                           (self.draw_bytes(), "trial's channel draw")):
            if size > MAX_PAIR_BYTES:
                raise PlanTooLarge(
                    f"plan with tau {[plan.tau1, plan.tau2, plan.tau3]} needs over "
                    f"{size >> 30} GiB per {unit}; the cap is {MAX_PAIR_BYTES >> 30} GiB"
                )
        # the phase-three grid holds slot t's streams in row t, padded to
        # the longest slot; payload row j sits at (j % tau3, j // tau3)
        self.streams3 = self.payload.per_slot_streams  # streams of the fullest slot
        j = np.arange(self.streams3)[None, :] * plan.tau3 + np.arange(self.slots3)[:, None]
        span1, span2 = slice(0, plan.tau1), slice(plan.tau1, plan.tau1 + plan.tau2)
        self.phases = (
            _Phase(span1, plan.s1_count, cfg.n1, cfg.n2, cfg.m, j),
            _Phase(span2, plan.s2_count, cfg.n2, cfg.n1, cfg.m, j),
        )
        base3 = plan.tau1 + plan.tau2
        self.phase3 = slice(base3, base3 + self.slots3)
        self.slot_streams = np.count_nonzero(j < length, axis=1).astype(float)
        # channel columns any system reads
        self.columns = max(self.phases[0].width, self.phases[1].width, self.streams3)

    def _receivers(self):
        """Per receiver: antennas N, phase-three rows n3, own-phase slots and
        their width."""
        cfg, plan = self.cfg, self.plan
        for n, symbols, slots in ((cfg.n1, plan.s1_count, plan.tau1), (cfg.n2, plan.s2_count, plan.tau2)):
            yield n, n * self.slots3, slots, -(-symbols // slots) if slots else 0

    def pair_bytes(self) -> int:
        """Bytes of one (trial, SNR) pair's rate working set. Per receiver,
        with s = slots * width columns: its phase-three rows (n3, s) and S
        (n3, n3); [L^H; U^H] (n3 + s, n3) and LAPACK's copy of it; and its
        own slot blocks (N, s in all) with their reduced copy."""
        total = 0
        for n, n3, slots, width in self._receivers():
            s = slots * width
            total += n3 * s + n3 * n3 + 2 * (n3 + s) * n3 + 2 * n * s
        return 16 * total

    def trial_bytes(self) -> int:
        """Bytes of one trial's rank working set. Per receiver, with
        s = slots * width columns: its phase-three rows P (n3, s), P^H in
        the Gram-Schmidt pass's batch-last layout, (P N)^H (s, n3) and the
        SVD's copy of it, and per slot the pivot rows Q_t and the projector
        I - Q_t^H Q_t (width, width each). On the benchmark's campaign
        plans a full rank chunk's traced peak is 0.8 to 1.3 times this
        count."""
        total = 0
        for n, n3, slots, width in self._receivers():
            total += 4 * n3 * slots * width + 2 * slots * width * width
        return 16 * total

    def draw_bytes(self) -> int:
        """Bytes of one trial's channel draw at all M columns: the float64
        normals (16 bytes per complex entry) and the complex channels."""
        cfg = self.cfg
        return 32 * self.plan.total_slots * (cfg.n1 + cfg.n2) * cfg.m


def _draws(geom: _PlanGeometry, seed: int, count: int, per_trial: int, unit_bytes: int):
    """Chunks of a campaign of ``count`` trials, ``per_trial`` units each
    (its (trial, SNR) pairs, or its trials) of ``unit_bytes``: yields each
    chunk's unit indices, consecutive in ``range(count * per_trial)``, and
    the channels of their trials ``units // per_trial`` on a leading axis.

    A chunk holds as many units as fit ``CHUNK_BYTES``, at least one. The
    trials are drawn ahead in blocks, each one ``gen_channels`` call cut to
    the first ``geom.columns`` columns, of as many trials as fit their
    ``draw_bytes()`` there (at least one), rounded down to whole chunks
    where chunks are whole trials. No chunk straddles two blocks.
    """
    size = max(1, CHUNK_BYTES // max(unit_bytes, 1))
    block = max(1, CHUNK_BYTES // max(geom.draw_bytes(), 1))
    if size % per_trial == 0:
        whole = size // per_trial
        block = block // whole * whole or block
    for first in range(0, count, block):
        trials = np.arange(first, min(first + block, count))
        drawn = gen_channels(geom.cfg, geom.plan.total_slots, seed, trials)
        h1, h2 = drawn.h1[..., : geom.columns], drawn.h2[..., : geom.columns]
        stop = (first + len(trials)) * per_trial
        for start in range(first * per_trial, stop, size):
            units = np.arange(start, min(start + size, stop))
            rows = units // per_trial - first
            yield units, ChannelRealization(h1[rows], h2[rows])
        del drawn, h1, h2  # free this block before the next one is drawn


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
    cancels exactly, so a deficient rank isolates a schedule defect. Each
    receiver's systems take one ``kernels.slot_rank_stacked`` call: one
    pivoted Gram-Schmidt pass over every slot block of the chunk, and one
    batched SVD of P N.
    """
    h = (realization.h1, realization.h2)
    ranks = []
    for i, phase in enumerate(geom.phases):
        rows = None
        if geom.slots3:
            w = h[i][:, geom.phase3, :, : geom.streams3]
            rows = phase.lift(w, phase.rows(phase.symbols(h[1 - i])))
        ranks.append(kernels.slot_rank_stacked(phase.symbols(h[i]), rows, RANK_RTOL))
    return ranks


def rank_check_campaign(
    cfg: SystemConfig, plan: SchedulePlan, params: SimParams
) -> tuple[int, int]:
    """Count rank-check passes per receiver over ``params.trials`` draws.

    A trial passes for a receiver when its idealized stacked system reaches
    full column rank for the receiver's own symbols. The true channel serves
    as the order-2 coefficients and the cross part cancels exactly, so a
    failure isolates a schedule defect (not enough equations routed to the
    receiver) rather than an SNR effect.

    The trials run in stacked chunks from ``_draws``, ``trial_bytes()`` each.
    """
    geom = _PlanGeometry(cfg, plan)
    symbols = (plan.s1_count, plan.s2_count)
    passes = [0, 0]
    for _, real in _draws(geom, params.seed, params.trials, 1, geom.trial_bytes()):
        for i, rank in enumerate(_ranks(geom, real)):
            passes[i] += int(np.count_nonzero(rank == symbols[i]))
    return passes[0], passes[1]


def _phase3_system(w, own, own_phase: _Phase, cross, cross_phase: _Phase, evar):
    """One receiver's phase-three rows (B, n3, symbols) and their noise
    covariance S (B, n3, n3), from its scaled channel ``w``
    (B, slots, N, streams) and the dealt payload rows.

    Gain rows carry the receiver's own symbols (``own``, of its phase
    ``own_phase``). S is the unit noise, plus the mismatch that maps the
    other user's symbols through the quantization residual ``cross`` (of
    ``cross_phase``) left after cancellation, plus per slot an (N, N) block
    of reconstruction thermal noise of variances ``evar``
    (B, slots, streams) lifted through the phase-three channel.
    """
    b, slots, n = w.shape[:3]
    mism = cross_phase.lift(w, cross)
    sig3 = np.eye(slots * n, dtype=np.complex128) + mism @ _herm(mism)
    extra = (w * evar[:, :, None, :]) @ _herm(w)
    diag = np.arange(slots)
    sig3.reshape(b, slots, n, slots, n)[:, diag, :, diag, :] += np.moveaxis(extra, 1, 0)
    return own_phase.lift(w, own), sig3


def _phase3_systems(geom: _PlanGeometry, real: ChannelRealization, rho: np.ndarray):
    """Each receiver's phase-three rows and their noise covariance S (see
    ``_phase3_system``) for B (trial, SNR) pairs, or (None, None) each for a
    plan without phase three. The transmitter builds the payload from CSIT
    quantized at SNR ``rho`` (B,)."""
    if not geom.slots3:
        return (None, None), (None, None)
    h = (real.h1, real.h2)
    alpha = (geom.cfg.alpha1, geom.cfg.alpha2)
    at_rho = rho[:, None, None, None]
    # per phase i: its order-2 payload rows of receiver 1 - i's channel
    # (estimates) on the phase-three grid, their residuals, and the
    # reconstruction noise variance of each row
    est, res, evar = [], [], []
    for i, phase in enumerate(geom.phases):
        heard = phase.symbols(h[1 - i])
        hat = quantize_csit(heard, alpha[1 - i], at_rho)
        est.append(phase.rows(hat))
        res.append(phase.rows(heard - hat))
        evar.append(phase.deal(phase.row_loads[None, :] / rho[:, None]))

    # each order-2 symbol gets an equal share of the slot's power
    pw = np.sum(np.abs(est[0]) ** 2, axis=-1) + np.sum(np.abs(est[1]) ** 2, axis=-1)
    spread = rho[:, None, None] / geom.slot_streams[:, None]
    gains = np.where(pw > 0, np.sqrt(spread / np.where(pw > 0, pw, 1.0)), 0.0)
    systems = []
    for i, phase in enumerate(geom.phases):
        w = h[i][:, geom.phase3, :, : geom.streams3] * gains[:, :, None, :]
        j = 1 - i
        systems.append(_phase3_system(w, est[i], phase, res[j], geom.phases[j], evar[j]))
    return systems


def _pair_rates(geom: _PlanGeometry, real: ChannelRealization, rho: np.ndarray) -> np.ndarray:
    """Rates (B, 2) in bits per slot of B (trial, SNR) pairs: channels
    ``real`` (B, slots, N_i, M) at SNR ``rho`` (B,)."""
    h = (real.h1, real.h2)
    phase3 = _phase3_systems(geom, real, rho)
    total = geom.plan.total_slots
    rates = []
    for i, phase in enumerate(geom.phases):
        own = phase.symbols(h[i]) * np.sqrt(rho[:, None] / phase.loads)[:, :, None, None]
        rates.append(kernels.slot_rate_bits_stacked(own, *phase3[i]) / total)
    return np.stack(rates, axis=-1)


def estimate_rates(cfg: SystemConfig, plan: SchedulePlan, params: SimParams) -> SimReport:
    """Ergodic achievable rates of the plan across the SNR grid.

    Per trial and SNR point the transmitter quantizes the delayed CSIT at
    the configured qualities, builds the phase-three payload from the
    estimates, and each receiver decodes its stacked system with the
    cancellation mismatch folded into the noise covariance. Rates are in
    bits per slot; the returned slopes are least-squares fits against
    ``log2(rho)`` over the top half of the grid.

    The (trial, SNR) pairs, a trial's points in a row, run in stacked
    chunks from ``_draws``, ``pair_bytes()`` each.
    """
    geom = _PlanGeometry(cfg, plan)
    grid = params.snr_grid_db
    points = len(grid)
    rho = np.array([10.0 ** (snr_db / 10.0) for snr_db in grid])
    # the per-pair rates are the one array that grows with the trial count
    size = 16 * params.trials * points
    if size > MAX_PAIR_BYTES:
        raise PlanTooLarge(
            f"{params.trials} trials at {points} SNR points need over {size >> 30} GiB of "
            f"per-pair rates; the cap is {MAX_PAIR_BYTES >> 30} GiB"
        )
    pair_rates = np.empty((params.trials * points, 2))
    for pairs, real in _draws(geom, params.seed, params.trials, points, geom.pair_bytes()):
        trial, point = np.divmod(pairs, points)
        try:
            pair_rates[pairs] = _pair_rates(geom, real, rho[point])
        except (SingularCovariance, GramOverflow) as exc:
            at = exc.index
            raise type(exc)(f"trial {trial[at]}, SNR {grid[point[at]]} dB: {exc}") from exc
    # summed over trials in trial order, as a running total would
    rates = pair_rates.reshape(params.trials, points, 2).sum(axis=0)
    rates /= params.trials
    slopes = tuple(_fit_slope(grid, rates[:, i]) for i in (0, 1))
    return SimReport(snr_grid_db=grid, rates=rates, slopes=slopes, trials=params.trials)


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
