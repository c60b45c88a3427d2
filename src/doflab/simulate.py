"""Link-level Monte Carlo simulation of the three-phase scheme.

The simulator plays a :class:`~doflab.scheme.SchedulePlan` against i.i.d.
Rayleigh channel draws and measures two fidelities:

* **rank** -- idealized bookkeeping: with exact overheard-equation
  coefficients, does every receiver end up with a full-column-rank linear
  system for its symbols? This validates the schedule combinatorics
  (stream loading, phase-three chunk dealing) independent of SNR,
  exactly: over GF(p), from residues of raw 64-bit words drawn per
  channel entry (``_ranks``).

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
Trial ``t`` of the rate fidelity draws its normals from exactly the stream
of ``numpy.random.default_rng([seed, t])``, seeded a batch at a time
(``_stream_rows``); rank trial ``t`` reads the t-th stretch of raw 64-bit
words of one PCG64 stream per campaign (``_channel_words``). Identical
parameters reproduce identical reports, whatever the batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import (GramOverflow, InvalidConfig, InvalidSeed, InvalidSnrGrid, PlanTooLarge,
                     ShapeMismatch, SingularCovariance)
from .rational import RatioLike
from .region import SystemConfig, _check_quality
from .scheme import SchedulePlan, _payload_rows, order2_payload

__all__ = [
    "SimParams",
    "ChannelRealization",
    "PhaseMatrices",
    "SimReport",
    "gen_channels",
    "quantize_csit",
    "rate_snr_limit_db",
    "build_phase_matrices",
    "rank_check_campaign",
    "estimate_rates",
]

QUANTIZER_CLIP = 4.0
# Largest relative rounding error the rate campaign accepts in the terms
# that set its slopes (see rate_snr_limit_db).
RATE_ROUNDING = 1e-3
# Working-set budget of one batched chunk of the rate and rank campaigns,
# and separately of one block of channel draws. Small plans fit hundreds to
# thousands of (trial, SNR) pairs in a chunk; a plan with 99x99 systems
# (M5/N3/N2 at its alpha = (1/2, 1/3) corner) runs ten at a time. Every
# chunk pays a fixed numpy dispatch cost (on that plan a one-pair rate
# chunk takes 1.8 ms on one core, a ten-pair chunk 4 to 6 ms), so fewer,
# larger chunks run faster: of the budgets measured from 512 KiB to 2 MiB,
# this is the largest whose campaign peak RSS stays within 6% of 512 KiB's.
CHUNK_BYTES = 1536 * 1024
# Largest working set of one (trial, SNR) pair, largest channel draw of one
# trial, and largest array of per-pair rates a campaign will take on; plans
# and trial counts beyond it raise PlanTooLarge before anything is allocated.
MAX_PAIR_BYTES = 1 << 30


@dataclass(frozen=True)
class SimParams:
    """Monte Carlo controls for one campaign, and the one check of each: grid
    points at least two, each with a positive finite ``rho = 10**(snr/10)``,
    strictly increasing, else ``InvalidSnrGrid``; ``trials`` a positive
    integer, else ``InvalidConfig``; ``seed`` a non-negative integer, else
    ``InvalidSeed``. A bool is neither; numpy integers are integers."""

    snr_grid_db: tuple[float, ...]
    trials: int = 200
    seed: int = 0

    def __post_init__(self):
        grid = tuple(float(s) for s in self.snr_grid_db)
        object.__setattr__(self, "snr_grid_db", grid)
        if len(grid) < 2:
            raise InvalidSnrGrid("need at least two SNR points")
        # the ends first: on an increasing grid they bound every point's rho
        for snr_db in (grid[0], grid[-1], *grid[1:-1]):
            try:
                rho = 10.0 ** (snr_db / 10.0)
            except OverflowError:
                rho = math.inf
            if not 0 < rho < math.inf:
                raise InvalidSnrGrid(f"SNR {snr_db} dB gives no positive finite rho")
        for low, high in zip(grid, grid[1:]):
            if low >= high:
                raise InvalidSnrGrid(f"SNR grid repeats {low} dB" if low == high
                                     else "SNR grid must be increasing")
        if not _is_integer(self.trials):
            raise InvalidConfig(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise InvalidConfig("trials must be positive")
        if not _is_integer(self.seed) or self.seed < 0:
            raise InvalidSeed(f"seed must be a non-negative integer, got {self.seed!r}")


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(eq=False)
class ChannelRealization:
    """Per-slot channel matrices.

    ``h1``/``h2`` have shape (slots, N_i, M), with leading batch axes for a
    stack of draws. The rank draw (``_channel_words``) holds instead raw
    uint64 words, one per entry its systems read, from one campaign stream.
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

    def to_json_dict(self) -> dict:
        return {
            "snr_db": list(self.snr_grid_db),
            "rate_bits_per_slot": {
                "rx1": [float(r) for r in self.rates[:, 0]],
                "rx2": [float(r) for r in self.rates[:, 1]],
            },
            "slope": {"rx1": self.slopes[0], "rx2": self.slopes[1]},
            "trials": self.trials,
            "backend": kernels.backend,
        }


# numpy.random.SeedSequence's hash (after O'Neill's seed_seq_fe): its pool
# of 4 uint32 words, the constants of its two hash chains, and its mix
# multipliers. PCG64's own seeding then runs in numpy, through _Words.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_chain(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``count`` hash steps: step j xors
    with c_j and multiplies by c_(j+1), where c_j = init * mult**j mod 2**32."""
    chain = np.cumprod(np.array([init] + [mult] * count, dtype=np.uint32), dtype=np.uint32)
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


def _seed_state_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` of each row ``e`` of
    ``entropy`` (B, n) uint32, as one C-contiguous (B, 4) uint64 array. The
    hash constants do not depend on the data, so each step runs over the
    batch, and the three mixes of one pool word into the others as one."""
    b, n = entropy.shape
    xor, mul = _hash_chain(_INIT_A, _MULT_A, _POOL * max(n, _POOL))
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
    # arithmetic, not a view of the uint32 pairs, so no byte order enters
    words = _hashmix(np.tile(pool, 2), _STATE_XOR, _STATE_MUL).astype(np.uint64)
    return words[:, 0::2] | words[:, 1::2] << np.uint64(32)


class _Words(np.random.bit_generator.ISeedSequence):
    """``PCG64(_Words(w))`` seeds as ``PCG64(SeedSequence(e))`` if ``w`` is its
    ``generate_state(4, np.uint64)``, C-contiguous: PCG64 reads its pointer."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _seed_int(seed) -> int:
    """``seed`` as a non-negative int; a bool is not one, as in ``SimParams``."""
    if isinstance(seed, (bool, np.bool_)):
        raise InvalidSeed(f"seed must be a non-negative integer, got {seed!r}")
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an int or a sequence of ints, not {seed!r}")
    if int(seed) < 0:
        raise InvalidSeed(f"seed must be non-negative, got {int(seed)}")
    return int(seed)


def _trial_words(trials) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's SeedSequence entropy words (B, w) uint32, zero-padded, and
    count: a 1-D int array checked at once, other sequences item by item."""
    if isinstance(trials, np.ndarray) and trials.ndim == 1 and trials.dtype.kind in "iu":
        if (trials < 0).any():
            _seed_int(trials[trials < 0][0])
        rest, mask, shift = trials.astype(np.uint64), np.uint64(0xFFFFFFFF), np.uint64(32)
    else:
        rest, mask, shift = np.array([_seed_int(t) for t in trials], dtype=object), 0xFFFFFFFF, 32
    words = [rest & mask]
    while (rest := rest >> shift).any():
        words.append(rest & mask)
    words = np.stack(words, axis=1).astype(np.uint32)
    return words, 1 + np.max(np.where(words != 0, np.arange(words.shape[1]), 0), axis=1)


def _entropy_words(seed) -> list[int]:
    """SeedSequence's entropy words of an int ``seed``, or of a sequence's items."""
    if isinstance(seed, (list, tuple, range, np.ndarray)):
        return [word for item in seed for word in _entropy_words(item)]
    value = _seed_int(seed)
    return [value >> shift & 0xFFFFFFFF for shift in range(0, max(value.bit_length(), 1), 32)]


def _stream_rows(seed, trials, width: int) -> np.ndarray:
    """Rows of ``width`` float64 normals, one per row seed: ``seed`` with
    ``trials=None``, else ``[seed, trials[i]]`` for row i, each row exactly
    ``numpy.random.default_rng(row_seed).standard_normal(width)``. numpy's
    ``SeedSequence`` hash runs for all rows of one word count at once, and
    each row's state words seed its own ``PCG64`` through ``_Words``."""
    head = np.array(_entropy_words(seed), dtype=np.uint32)
    words, counts = (np.zeros((1, 0), np.uint32), np.array([0])) if trials is None else _trial_words(trials)
    out = np.empty((len(counts), width))
    for count in set(counts.tolist()):
        rows = np.flatnonzero(counts == count)
        entropy = np.hstack([np.tile(head, (len(rows), 1)), words[rows, :count]])
        for row, state in zip(rows, _seed_state_words(entropy)):
            np.random.Generator(np.random.PCG64(_Words(state))).standard_normal(out=out[row])
    return out


def gen_channels(cfg: SystemConfig, total_slots: int, seed, trials=None) -> ChannelRealization:
    """Draw i.i.d. unit-variance complex Gaussian channels for both users.

    With ``trials=None``, ``seed`` may be an int or a sequence of ints and
    the arrays have shape (slots, N_i, M). With ``trials`` a 1-D int array
    or a sequence of ints, the arrays gain a leading axis: row ``i`` is
    exactly ``gen_channels(cfg, total_slots, [seed, trials[i]])``, so the
    campaigns' trials are independent but reproducible in any batching.

    A row draws from exactly ``numpy.random.default_rng(row_seed)``'s stream
    (``_stream_rows``), which fills the real and imaginary parts of ``h1``,
    then of ``h2``, in turn.
    """
    if total_slots < 1:
        raise ValueError("total_slots must be positive")
    size1, size2 = (total_slots * n * cfg.m for n in (cfg.n1, cfg.n2))
    raw = _stream_rows(seed, trials, 2 * (size1 + size2))
    re1, im1, re2, im2 = np.split(raw, np.cumsum([size1, size1, size2]), axis=1)
    h1, h2 = (np.empty((len(raw), total_slots, n, cfg.m), dtype=complex) for n in (cfg.n1, cfg.n2))
    for h, re, im in ((h1, re1, im1), (h2, re2, im2)):
        h.real, h.imag = re.reshape(h.shape), im.reshape(h.shape)
        h *= 1 / np.sqrt(2)  # complex / np.sqrt(2) multiplies by this too: the same bits
    return ChannelRealization(h1[0], h2[0]) if trials is None else ChannelRealization(h1, h2)


def quantize_csit(h: np.ndarray, alpha: RatioLike, rho) -> np.ndarray:
    """Uniform feedback quantizer at quality ``alpha``.

    Budget ``alpha * log2(rho)`` bits per complex coefficient, i.e. step
    ``sqrt(6) * rho**(-alpha/2)`` on each real axis (clipped at +-4), which
    makes the mean residual power ``rho**-alpha`` inside the clip region.
    ``alpha == 0`` returns the all-zero estimate; ``alpha == 1`` puts the
    residual at the noise floor relative to the transmit power.

    ``rho`` is a scalar or an array broadcast against ``h``, so one call
    quantizes a whole stack of draws at their own SNR points.

    A quality ``SystemConfig`` would refuse raises ``InvalidAlpha``; a
    ``rho`` that is not positive and finite raises ``InvalidSnrGrid``.
    """
    a = float(_check_quality("alpha", alpha))
    at = np.asarray(rho, dtype=float)
    if not np.all((0 < at) & (at < math.inf)):  # NaN fails both
        raise InvalidSnrGrid("rho must be positive and finite")
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


class _Blocks(NamedTuple):
    """G blocks of one shape (a, s) of a symbol phase's rank: their
    phase-three slots (G, a) and slots (G, s), each row ascending, and per
    layer of ``_Phase.layers`` the live streams (a, r) they hold, with each
    one's block and its places among that block's phase-three slots and
    slots."""

    slots3: np.ndarray
    slots: np.ndarray
    layers: list


def _terms(w: np.ndarray, dealt: np.ndarray) -> np.ndarray:
    """Every stream's row as a receiver with channel ``w`` (B, slots3, N,
    streams) sees it of payload rows ``dealt`` (B, slots3, streams, width):
    (streams, slots3, B, N, width)."""
    return w.transpose(3, 1, 0, 2)[..., None] * dealt.transpose(2, 1, 0, 3)[:, :, :, None, :]


class _Phase:
    """Symbol phase ``phase`` (i): the slots that carry user i's symbols,
    and how the rows receiver i overhears there reach phase three, in
    ``scheme``'s layout (the plan's ``loads(i)`` and ``_payload_rows``),
    which this class only scatters into arrays.

    The campaigns lay the phase out as its tau_i slots of ``width`` columns
    each, ``width`` being the phase's largest slot load. A slot with one
    stream fewer gets a zero column: a stream that carries no symbol, and
    adds nothing to any rank or rate. A slot load above M, or above
    N1 + N2, raises ShapeMismatch. On the (phase-three slot, stream) grid
    ``grid``, where ``live``, stream (a, r) carries the row ``row[a, r]``
    of slot ``source[a, r]``, whose load (which sets the row's power) is
    ``row_loads[a, r]``; elsewhere these read 0.

    ``lift`` writes stream (a, r)'s row only into the columns of slot
    ``source[a, r]``, so the lifted rows P are zero outside the live pairs
    (a, ``source[a, r]``). Taken as the edges of a bipartite graph of
    phase-three slots and slots, each connected component, its phase-three
    rows R over its slots S, is a block [A_S; P_RS] of the receiver's
    system that no other block shares a row or column with; a slot no
    stream reads from is a component of its own, a block A_t without
    phase-three rows. ``blocks`` holds them, and ``lift_blocks`` lifts the
    rows straight into them.
    """

    def __init__(self, plan: SchedulePlan, cfg: SystemConfig, phase: int, grid: tuple[int, int]):
        loads, rows = plan.loads(phase), _payload_rows(plan, cfg, phase)
        start, other = (0, cfg.n2) if phase == 1 else (plan.tau1, cfg.n1)
        self.span = slice(start, start + len(loads))
        self.slots = len(loads)
        self.width = max(loads, default=0)
        deepest = max((row for *_, row, _ in rows), default=-1) + 1  # payload rows from the fullest slot
        if deepest > other or self.width > cfg.m:
            raise ShapeMismatch(f"slot blocks of up to {deepest} x {self.width} do not fit "
                                f"{other} x {cfg.m} channels")
        # (slots, width): True where a slot's stream carries a symbol
        self.mask = np.arange(self.width) < np.array(loads, dtype=int)[:, None]
        # own-row power shares divide by the slot loads; a slot without
        # streams has only zero columns, so its share is never used
        self.loads = np.maximum(loads, 1)
        self.live, self.row_loads = np.zeros(grid, dtype=bool), np.zeros(grid)
        self.source, self.row = np.zeros(grid, dtype=int), np.zeros(grid, dtype=int)
        for slot3, stream, *at in rows:
            self.live[slot3, stream] = True
            self.source[slot3, stream], self.row[slot3, stream], self.row_loads[slot3, stream] = at
        # the live (slot3, stream) pairs by layer, as np.nonzero gives them:
        # a stream's layer counts the live streams before it with its slot3
        # and source, so no layer holds a (slot3, source) pair twice
        earlier = np.tril(self.source[:, :, None] == self.source[:, None, :], -1) & self.live[:, None, :]
        layer = np.where(self.live, earlier.sum(axis=-1), -1)
        self.layers = [np.nonzero(layer == each) for each in range(layer.max(initial=-1) + 1)]

    @cached_property
    def blocks(self) -> list[_Blocks]:
        """The connected components of the graph of live (phase-three slot,
        source slot) pairs on every slot, grouped by shape (``_Blocks``) in
        the order of their first phase-three slot; the slots that no live
        stream reads from come last, as blocks of shape (0, 1). Computed
        from the plan's integers alone, on the first use."""
        slots3 = self.live.shape[0]
        a, r = np.nonzero(self.live)
        ends = (a.tolist(), (slots3 + self.source[a, r]).tolist())
        parent = list(range(slots3 + self.slots))

        def root(node):
            while parent[node] != node:
                parent[node] = node = parent[parent[node]]
            return node

        for row, slot in zip(*ends):
            parent[root(row)] = root(slot)
        # nodes in order: each component's phase-three slots, then its slots
        components = {}
        for node in sorted(set(ends[0])) + list(range(slots3, slots3 + self.slots)):
            components.setdefault(root(node), ([], []))[node >= slots3].append(node)
        shapes = {}
        for sides in components.values():
            shapes.setdefault(tuple(map(len, sides)), []).append(sides)
        # each node's shape, its block among those of the shape, and its
        # place in the block
        at = [(0, 0, 0)] * (slots3 + self.slots)
        for k, members in enumerate(shapes.values()):
            for g, sides in enumerate(members):
                for nodes in sides:
                    for j, node in enumerate(nodes):
                        at[node] = k, g, j
        shape, block, place = np.array(at, dtype=np.intp).reshape(-1, 3).T
        groups = []
        for k, members in enumerate(shapes.values()):
            layers = []
            for a, r in self.layers:
                keep = shape[a] == k
                a, r = a[keep], r[keep]
                if len(a):
                    layers.append((a, r, block[a], place[a], place[slots3 + self.source[a, r]]))
            rows, slots = (np.array(side, dtype=np.intp) for side in zip(*members))
            groups.append(_Blocks(rows, slots - slots3, layers))
        return groups

    def symbols(self, h: np.ndarray) -> np.ndarray:
        """The phase's slots of channels ``h`` (B, slots, N, M) in its
        layout (B, tau_i, N, width)."""
        return h[:, self.span, :, : self.width] * self.mask[:, None, :]

    def rows(self, h: np.ndarray) -> np.ndarray:
        """The payload rows of the other receiver's channels ``h`` (B,
        slots, N, width) in the phase's layout, dealt onto the grid
        (B, slots3, streams, width), zeros where no row is dealt."""
        dealt = np.zeros((h.shape[0], *self.live.shape, h.shape[-1]), dtype=h.dtype)
        dealt[:, self.live] = h[:, self.source[self.live], self.row[self.live]]
        return dealt

    def lift(self, w: np.ndarray, dealt: np.ndarray) -> np.ndarray:
        """Phase-three rows (B, slots3 * N, slots * width), slot by slot,
        that a receiver with channel ``w`` (B, slots3, N, streams) sees of
        payload rows ``dealt`` (B, slots3, streams, width). Each live
        stream's row lies in the columns of its source slot: the first
        stream of each (slot3, source) pair is assigned there, and any
        further ones are added in stream order, a layer at a time."""
        b, slots3, n = w.shape[:3]
        width = dealt.shape[-1]
        out = np.zeros((b, slots3, n, self.slots, width), dtype=np.result_type(w, dealt))
        if self.layers:
            # term (r, a) goes to out[:, a, :, source[a, r], :]
            terms = _terms(w, dealt)
            (a, r), *rest = self.layers
            # + 0 sums as onto out's zeros, so a -0 term still reads +0
            out[:, a, :, self.source[a, r], :] = terms[r, a] + 0
            for a, r in rest:
                out[:, a, :, self.source[a, r], :] += terms[r, a]
        return out.reshape(b, slots3 * n, self.slots * width)

    def lift_blocks(self, w: np.ndarray, dealt: np.ndarray, p: int):
        """``lift``'s rows of int64 residues mod ``p``, cut to each group of
        ``blocks`` in turn: (B, G, a * N, s * width), block g's phase-three
        rows over the columns of its slots. Each live stream's row goes
        straight into its block, a layer at a time, as in ``lift``."""
        b, _, n = w.shape[:3]
        width = dealt.shape[-1]
        terms = _terms(w, dealt)
        for group in self.blocks:
            (g, a3), s = group.slots3.shape, group.slots.shape[1]
            out = np.zeros((b, g, a3, n, s, width), dtype=np.int64)
            for layer, (a, r, block, row, column) in enumerate(group.layers):
                at = np.s_[:, block, row, :, column, :]
                # no layer holds a place twice, and the first lands on zeros
                out[at] = out[at] + terms[r, a] if layer else terms[r, a]
            yield kernels._reduce(out, p).reshape(b, g, a3 * n, s * width)


def _over(size: int) -> str:
    """``size`` bytes as the largest power of two below it: a plan's sizes
    can have more digits than Python converts to ``str``."""
    return f"over 2**{(size - 1).bit_length() - 1} bytes"


def _digits(n: int) -> str:
    """``n`` in full up to 20 digits, else as ``<N digits>``: a plan's taus
    can have thousands of digits."""
    if n < 10**20:
        return str(n)
    count = int(n.bit_length() * math.log10(2.0))  # the digit count, or one below it
    return f"<{count + (n >= 10**count)} digits>"


class _PlanGeometry:
    """Shared index bookkeeping for one (config, plan) pair: the two symbol
    phases (``phases``, a ``_Phase`` each, in ``scheme``'s slot layout) and
    phase three's grid, sized by ``order2_payload``'s closed form."""

    def __init__(self, cfg: SystemConfig, plan: SchedulePlan, rank: bool = False):
        self.cfg = cfg
        self.plan = plan
        payload = order2_payload(plan, cfg)  # validates feasibility
        self.slots3 = min(payload.length, plan.tau3)  # phase-three slots that carry streams
        # phase three's grid holds slot t's streams in row t, padded to
        # the streams of the fullest slot
        self.streams3 = payload.per_slot_streams
        # channel columns any system reads
        self.columns = max(self.streams3, *(width for *_, width in self._receivers()))
        # sized from the plan's integers alone, before any per-slot list or array
        sizes = (((self.trial_bytes(), "trial's rank working set"),) if rank else
                 ((self.pair_bytes(), "(trial, SNR) pair"), (self.draw_bytes(), "trial's channel draw")))
        for size, unit in sizes:
            if size > MAX_PAIR_BYTES:
                tau = ", ".join(map(_digits, (plan.tau1, plan.tau2, plan.tau3)))
                raise PlanTooLarge(f"plan with tau [{tau}] needs {_over(size)} per {unit}; "
                                   f"the cap is {MAX_PAIR_BYTES >> 30} GiB")
        grid = (self.slots3, self.streams3)
        self.phases = (_Phase(plan, cfg, 1, grid), _Phase(plan, cfg, 2, grid))
        base3 = plan.tau1 + plan.tau2
        self.phase3 = slice(base3, base3 + self.slots3)
        self.slot_streams = np.maximum(*(phase.live.sum(axis=1) for phase in self.phases)).astype(float)

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
        """Bytes of one trial's rank working set, 8 per word or int64
        residue: its raw words (``_channel_words``) and one copy of their
        residues and, for the larger receiver, with s = slots * width and
        f = width - N free columns per slot, its phase-three rows P (n3, s)
        twice, its slot blocks (N, s) and P N (n3, slots * f) twice; plus
        256 bytes of pivots and indices. This is the count of one whole
        system; taken block by block (``_ranks``), P and P N hold only the
        blocks' entries, so a plan whose dealing splits into many blocks
        needs less. On the benchmark's campaign plans a full rank chunk's
        traced peak, its draw included, is 0.67 to 1.53 times this count."""
        draw = self.plan.total_slots * (self.cfg.n1 + self.cfg.n2) * self.columns
        most = max(2 * n3 * slots * width + n * slots * width + 2 * n3 * slots * max(0, width - n)
                   for n, n3, slots, width in self._receivers())
        return 8 * (2 * draw + most) + 256

    def draw_bytes(self) -> int:
        """Bytes of one trial's rate channel draw at all M columns: the
        float64 normals (16 bytes per complex entry) and the complex
        channels."""
        cfg = self.cfg
        return 32 * self.plan.total_slots * (cfg.n1 + cfg.n2) * cfg.m


def _channel_words(geom: _PlanGeometry, seed: int, first: int, count: int) -> ChannelRealization:
    """The rank fidelity's draw of ``count`` trials from ``first`` on: trial t
    reads words ``t * n .. (t + 1) * n - 1`` of the campaign's one PCG64
    stream, n = ``total_slots * (N1 + N2) * geom.columns``, as uint64
    (B, slots, N_i, columns) arrays, ``h1``'s words first."""
    cfg, slots, columns = geom.cfg, geom.plan.total_slots, geom.columns
    size1, n = slots * cfg.n1 * columns, slots * (cfg.n1 + cfg.n2) * columns
    # a spawned child: SeedSequence pads short entropy with zeros, so
    # SeedSequence(seed)'s stream is default_rng([seed, 0])'s, rate trial 0's
    bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))).advance(first * n)
    raw = bits.random_raw(count * n).reshape(count, n)
    return ChannelRealization(raw[:, :size1].reshape(-1, slots, cfg.n1, columns),
                              raw[:, size1:].reshape(-1, slots, cfg.n2, columns))


def _word_chunks(geom: _PlanGeometry, seed: int, count: int):
    """The rank fidelity's chunks of ``count`` trials, as many as fit
    ``CHUNK_BYTES`` at ``trial_bytes()`` each (at least one): yields each
    chunk's trial indices and their ``_channel_words``."""
    size = max(1, CHUNK_BYTES // max(geom.trial_bytes(), 1))
    for first in range(0, count, size):
        trials = np.arange(first, min(first + size, count))
        yield trials, _channel_words(geom, seed, first, len(trials))


def _draws(geom: _PlanGeometry, seed: int, count: int, per_trial: int, unit_bytes: int):
    """Chunks of a rate campaign of ``count`` trials, ``per_trial`` units
    each (its (trial, SNR) pairs) of ``unit_bytes``: yields each chunk's
    unit indices, consecutive in ``range(count * per_trial)``, and the
    channels of their trials ``units // per_trial`` on a leading axis.

    A chunk holds as many units as fit ``CHUNK_BYTES``, at least one.
    Channels are drawn ahead in blocks, each one ``gen_channels`` call cut
    to the first ``geom.columns`` columns, of as many trials as fit their
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

    The stacks are the campaigns' ``_Phase`` layout made dense: each slot
    block on the diagonal, the zero pad columns dropped. Leading axes of
    the realization's arrays are batch axes and carry through to the
    stacks. The plan is checked as the campaigns check it.
    """
    if realization.total_slots < plan.total_slots:
        raise ShapeMismatch(
            f"realization has {realization.total_slots} slots, plan needs {plan.total_slots}"
        )
    h1, h2 = realization.h1, realization.h2
    if h1.shape[-2:] != (cfg.n1, cfg.m) or h2.shape[-2:] != (cfg.n2, cfg.m):
        raise ShapeMismatch("realization dimensions do not match the configuration")
    stacks = []
    for phase in _PlanGeometry(cfg, plan).phases:
        for h in (h1, h2):
            batch = h.shape[:-3]
            blocks = phase.symbols(h.reshape((math.prod(batch),) + h.shape[-3:]))
            b, slots, n, width = blocks.shape
            dense = np.zeros((b, slots, n, slots, width), dtype=np.complex128)
            diag = np.arange(slots)
            dense[:, diag, :, diag, :] = np.moveaxis(blocks, 1, 0)
            dense = dense.reshape(b, slots * n, slots * width)[..., phase.mask.ravel()]
            stacks.append(dense.reshape(batch + dense.shape[1:]))
    return PhaseMatrices(*stacks)


def _ranks(geom: _PlanGeometry, words: ChannelRealization) -> list[np.ndarray]:
    """Per-receiver exact ranks of the idealized systems of channel words
    (``_channel_words``, a stretch of one stream per trial) on one leading
    axis. The order-2 coefficients are the true channel rows and the cross
    part cancels exactly, so a deficient rank isolates a schedule defect.
    System entries are polynomials of degree at most 2 in the channel
    entries, so each entry is its word's residue mod p, taken before the
    phases are laid out, which keeps the entries rows share.

    Each receiver's system splits into the independent blocks of its
    phase's ``blocks``, so its rank is the sum of theirs: one
    ``kernels.slot_rank_stacked`` per shape of block, its G blocks on an
    axis after the trials', the slots no stream reads from among them with
    no coupling rows. The matrix is the same, so is its rank, and nothing
    more is drawn.

    A rank mod p never exceeds the generic rank. A full-rank system of n
    symbols has an n x n minor of degree at most 2 n, nonzero mod p, so by
    the Schwartz-Zippel lemma a false deficit has probability at most 2 n /
    p per receiver and trial for uniform residues. A uniform 64-bit word
    reduced mod p takes each residue with a probability within a relative
    p / 2**64 of 1 / p, so the bound grows by that share at most. Members
    deficient under the first of ``kernels.PRIMES`` are recounted under the
    second, and keep the larger rank."""
    symbols = (geom.plan.s1_count, geom.plan.s2_count)
    ranks = [np.zeros(len(words.h1), dtype=np.int64) for _ in symbols]
    todo = slice(None)
    for p in kernels.PRIMES:
        # below 2**25, so the uint64 residues read the same as int64
        h = [(each[todo] % np.uint64(p)).view(np.int64) for each in (words.h1, words.h2)]
        for i, phase in enumerate(geom.phases):
            own = phase.symbols(h[i])
            w = h[i][:, geom.phase3, :, : geom.streams3]
            dealt = phase.rows(phase.symbols(h[1 - i]))
            rank = 0
            # each group's blocks on an axis after the trials'; one block
            # of every slot takes the phase's slots as they are
            for group, coupled in zip(phase.blocks, phase.lift_blocks(w, dealt, p)):
                slots = own[:, None] if group.slots.shape == (1, phase.slots) else own[:, group.slots]
                rank += kernels.slot_rank_stacked(slots, coupled, p).sum(axis=1)
            ranks[i][todo] = np.maximum(ranks[i][todo], rank)
        todo = np.flatnonzero((ranks[0] < symbols[0]) | (ranks[1] < symbols[1]))
        if not todo.size:
            break
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

    The trials run in stacked chunks from ``_word_chunks``, on raw words of
    one PCG64 stream (``_channel_words``). Each receiver's rank is taken
    block by block along the plan's dealing (``_ranks``), with the blocks
    found once per campaign: the elimination work grows linearly with the
    number of blocks, and with the cube of a block's size only within it.
    A plan whose ``trial_bytes()`` passes the cap, or more
    trials than ``estimate_rates`` takes on its smallest grid, two points,
    raise ``PlanTooLarge`` before anything is drawn.
    """
    geom = _PlanGeometry(cfg, plan, rank=True)
    most = MAX_PAIR_BYTES // 32  # 16 bytes of rates per pair, two pairs per trial
    if params.trials > most:
        raise PlanTooLarge(f"{params.trials} trials are more than {most}, the most the "
                           "rate fidelity takes at two SNR points")
    symbols = (plan.s1_count, plan.s2_count)
    passes = [0, 0]
    for _, words in _word_chunks(geom, params.seed, params.trials):
        for i, rank in enumerate(_ranks(geom, words)):
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
    sig3 = np.eye(slots * n, dtype=np.complex128) + mism @ kernels._herm(mism)
    extra = (w * evar[:, :, None, :]) @ kernels._herm(w)
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
    # reconstruction noise variance of each row; only the rows the payload
    # carries are quantized, and a dealt zero quantizes to zero
    est, res, evar = [], [], []
    for i, phase in enumerate(geom.phases):
        heard = phase.rows(phase.symbols(h[1 - i]))
        hat = quantize_csit(heard, alpha[1 - i], at_rho)
        est.append(hat)
        res.append(heard - hat)
        evar.append(phase.row_loads / rho[:, None, None])

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
    ``log2(rho)`` over the top half of the grid, at least two points.

    The (trial, SNR) pairs, a trial's points in a row, run in stacked
    chunks from ``_draws``, ``pair_bytes()`` each. Past ``SimParams``'s
    checks, a grid above the plan's ``rate_snr_limit_db``, or one whose
    lowest rho overflows a reconstruction noise variance, raises
    ``InvalidSnrGrid``.
    """
    grid = params.snr_grid_db
    limit = rate_snr_limit_db(cfg, plan)
    if grid[-1] > limit:
        raise InvalidSnrGrid(
            f"SNR {grid[-1]} dB is above {limit:.1f} dB, the highest at which this plan's "
            f"rates keep rounding errors within {RATE_ROUNDING:g} "
            "(see doflab.simulate.rate_snr_limit_db)"
        )
    geom = _PlanGeometry(cfg, plan)
    points = len(grid)
    rho = np.array([10.0 ** (snr_db / 10.0) for snr_db in grid])
    # a payload row's reconstruction noise variance is its slot load / rho
    load = max(float(phase.row_loads.max(initial=0.0)) for phase in geom.phases)
    if load / float(rho[0]) == math.inf:
        low = 10.0 * math.log10(load / np.finfo(np.float64).max)
        raise InvalidSnrGrid(
            f"SNR {grid[0]} dB is below {low:.1f} dB, the lowest at which this plan's "
            "reconstruction noise variances are finite"
        )
    # the per-pair rates are the one array that grows with the trial count
    size = 16 * params.trials * points
    if size > MAX_PAIR_BYTES:
        raise PlanTooLarge(
            f"{params.trials} trials at {points} SNR points need {_over(size)} of "
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
    """Least-squares slope of rate versus log2(rho), top half of the grid, two points at least."""
    x = np.asarray(snr_grid_db, dtype=float) * (math.log2(10.0) / 10.0)
    top = slice(min(len(x) // 2, len(x) - 2), len(x))
    x, y = x[top], np.asarray(values, dtype=float)[top]
    design = np.vstack([x, np.ones_like(x)]).T
    slope, _ = np.linalg.lstsq(design, y, rcond=None)[0]
    return float(slope)
