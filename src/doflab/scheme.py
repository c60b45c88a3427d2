"""Three-phase transmission schedules that achieve the region boundary.

For N2 < M the scheme sends user-1 symbols for tau1 slots at
``m1 = min(N1 + alpha2*N2, M)`` streams per slot, user-2 symbols for tau2
slots at ``m2 = min(N2 + alpha1*N1, M)`` streams per slot, then spends tau3
slots retransmitting order-2 combinations (functions useful to both
receivers, built from the overheard-equation estimates) so that each
receiver ends up with as many independent equations as it has symbols:

    s1 <= N1*(tau1 + tau3)        s2 <= N2*(tau2 + tau3)

Durations are planned as exact rationals from a time-sharing weight and then
scaled by the smallest integer that makes all durations and stream counts
whole, so every plan is directly realizable slot by slot. The planner works
on integer numerators over one common denominator and reduces them by their
gcd with it once; the only ``Fraction`` it builds is ``corner_weight``'s
return value.

For M <= N2 plain time sharing is already optimal; ``plan_tdma`` covers that
regime (and degenerate single-user baselines in general).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import AntennaOverflow, InfeasiblePlan, InvalidConfig, InvalidWeight, WrongCase
from .rational import RatioLike, as_ratio
from .region import DofPoint, DofRegion, HalfPlane, SystemConfig

__all__ = [
    "SchedulePlan",
    "DecodingCheck",
    "Order2Payload",
    "plan_schedule",
    "plan_tdma",
    "corner_weight",
    "achieved_dof",
    "check_decoding_conditions",
    "order2_payload",
    "scheme_region",
    "tdma_region",
    "achievable_region",
]


@dataclass(frozen=True)
class SchedulePlan:
    """Integer-slot schedule: phase durations and per-user symbol totals."""

    tau1: int
    tau2: int
    tau3: int
    s1_count: int
    s2_count: int
    integer_scale: int = 1

    def __post_init__(self):
        # type(...) is int also refuses a bool
        for name in ("tau1", "tau2", "tau3", "s1_count", "s2_count", "integer_scale"):
            value = getattr(self, name)
            if type(value) is not int:
                raise InvalidConfig(f"{name} must be an integer, got {value!r}")
            if value < 0 and name != "integer_scale":
                raise InvalidConfig(f"{name} must be nonnegative")
        if self.total_slots == 0:
            raise InvalidConfig("empty schedule")
        if self.integer_scale < 1:
            raise InvalidConfig("integer_scale must be positive")

    @property
    def total_slots(self) -> int:
        return self.tau1 + self.tau2 + self.tau3

    def loads(self, phase: int) -> list[int]:
        """Stream loads of the slots of symbol phase ``phase`` (1 or 2): its
        s_i streams over its tau_i slots, larger loads first, so they differ
        by at most one and the largest is ceil(s_i / tau_i)."""
        count, slots = (self.s1_count, self.tau1) if phase == 1 else (self.s2_count, self.tau2)
        base, extra = divmod(count, slots) if slots else (0, 0)
        return [base + 1] * extra + [base] * (slots - extra)

    @classmethod
    def from_durations(
        cls, cfg: SystemConfig, tau1: int, tau2: int, tau3: int
    ) -> "SchedulePlan":
        """Three-phase plan with the standard stream loading for given
        integer durations: s_i = m_i * tau_i. The loads must come out whole.
        """
        (num1, den1), (num2, den2) = cfg._enhanced(1), cfg._enhanced(2)
        s1, rest1 = divmod(num1 * tau1, den1)
        s2, rest2 = divmod(num2 * tau2, den2)
        if rest1 or rest2:
            raise InvalidConfig("fractional stream totals; scale the durations first")
        return cls(tau1, tau2, tau3, s1, s2)


@dataclass(frozen=True)
class DecodingCheck:
    """Equation-count slack per receiver: N_i*(tau_i + tau3) - s_i."""

    ok: bool
    slack1: int
    slack2: int


@dataclass(frozen=True)
class Order2Payload:
    """What phase three must deliver.

    k1_needed, k2_needed -- extra equations each receiver still lacks
    length               -- order-2 symbols to send, max(k1, k2)
    per_slot_streams     -- simultaneous streams in each phase-three slot
    """

    k1_needed: int
    k2_needed: int
    length: int
    per_slot_streams: int


def _loads(cfg: SystemConfig) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """``(den, (m1, r1), (m2, r2))``: per symbol phase i, its streams per
    slot ``m_i = min(N_i + alpha_j*N_j, M)`` and its phase-three slots per
    slot ``r_i = max(0, m_i - N_i) / N_i``, as integer numerators over the
    one denominator ``den``."""
    (num1, den1), (num2, den2) = cfg._enhanced(1), cfg._enhanced(2)
    a, b = cfg.n1 * den1, cfg.n2 * den2  # N1 over den1, N2 over den2
    return (
        a * b,
        (num1 * cfg.n1 * b, max(0, num1 - a) * b),
        (num2 * cfg.n2 * a, max(0, num2 - b) * a),
    )


def _check_weight(weight: RatioLike) -> Fraction:
    try:
        w = as_ratio(weight)
    except InvalidConfig as exc:
        raise InvalidWeight(f"weight is {exc}")
    if not 0 <= w.numerator <= w.denominator:
        raise InvalidWeight(f"weight must lie in [0, 1], got {w}")
    return w


def _check_three_phase(cfg: SystemConfig) -> None:
    if cfg.n2 >= cfg.m:
        raise WrongCase(
            f"three-phase scheme needs N2 < M, got N2={cfg.n2}, M={cfg.m}"
        )


def plan_schedule(cfg: SystemConfig, weight: RatioLike) -> SchedulePlan:
    """Plan the three-phase scheme for time-sharing weight ``weight``.

    The weight splits the symbol phases (tau1 : tau2 = w : 1-w); phase three
    is sized to the larger of the two per-user equation deficits,
    tau3 = max(r1*tau1, r2*tau2), which makes at least one decoding
    condition exactly tight. Requires N2 < M.
    """
    w = _check_weight(weight)
    _check_three_phase(cfg)
    den, (m1, r1), (m2, r2) = _loads(cfg)
    # tau1 = u1/wd and tau2 = u2/wd; every value is a numerator over wd*den
    u1, u2 = w.numerator, w.denominator - w.numerator
    values = (u1 * den, u2 * den, max(r1 * u1, r2 * u2), m1 * u1, m2 * u2)
    scale = w.denominator * den
    g = gcd(scale, *values)
    return SchedulePlan(*(v // g for v in values), scale // g)


def plan_tdma(cfg: SystemConfig, weight: RatioLike) -> SchedulePlan:
    """Plain time sharing: user i alone for its share of the slots.

    Valid for every antenna configuration (it sends no order-2 payload) and
    optimal when M <= N2. Weight 1 degenerates to a single-user
    point-to-point schedule for user 1, weight 0 to one for user 2.
    """
    w = _check_weight(weight)
    # every value is a numerator over the weight's denominator, and the
    # weight is in lowest terms, so that denominator is already the scale
    u1, u2 = w.numerator, w.denominator - w.numerator
    a, d = min(cfg.n1, cfg.m), min(cfg.n2, cfg.m)
    return SchedulePlan(u1, u2, 0, a * u1, d * u2, w.denominator)


def corner_weight(cfg: SystemConfig) -> Fraction:
    """The weight whose plan lands on the region's off-axis corner.

    Balancing the two deficits (r1*tau1 = r2*tau2) makes both decoding
    conditions tight simultaneously, so the achieved pair sits on both
    boundary lines at once. Falls back to 1/2 when neither user needs phase
    three (then every weight is tight and 1/2 picks the midpoint of the
    off-axis edge). Requires N2 < M, like ``plan_schedule``.
    """
    _check_three_phase(cfg)
    _, (_, r1), (_, r2) = _loads(cfg)
    if r1 + r2 == 0:
        return Fraction(1, 2)
    return Fraction(r2, r1 + r2)


def _slacks(plan: SchedulePlan, cfg: SystemConfig) -> tuple[int, int]:
    """The equation-count slacks N_i*(tau_i + tau3) - s_i of both receivers."""
    return (
        cfg.n1 * (plan.tau1 + plan.tau3) - plan.s1_count,
        cfg.n2 * (plan.tau2 + plan.tau3) - plan.s2_count,
    )


def check_decoding_conditions(plan: SchedulePlan, cfg: SystemConfig) -> DecodingCheck:
    """Exact equation-count slacks; ok iff both are nonnegative."""
    slack1, slack2 = _slacks(plan, cfg)
    return DecodingCheck(slack1 >= 0 and slack2 >= 0, slack1, slack2)


def _check_feasible(plan: SchedulePlan, cfg: SystemConfig) -> None:
    slack1, slack2 = _slacks(plan, cfg)
    if slack1 < 0 or slack2 < 0:
        raise InfeasiblePlan(f"decoding conditions violated (slacks {slack1}, {slack2})")


def achieved_dof(plan: SchedulePlan, cfg: SystemConfig) -> DofPoint:
    """DoF pair the plan delivers: symbol totals over total duration."""
    _check_feasible(plan, cfg)
    total = plan.total_slots
    return DofPoint._of(Fraction(plan.s1_count, total), Fraction(plan.s2_count, total))


def order2_payload(plan: SchedulePlan, cfg: SystemConfig) -> Order2Payload:
    """Size the phase-three payload for a feasible plan.

    k_i = max(0, s_i - N_i*tau_i) equations still owed to receiver i; the
    payload is length K = max(k1, k2); each phase-three slot carries
    ceil(K / tau3) streams, which must fit the transmit array: the sizes
    of ``_payload_rows``' layout in closed form, with no per-slot list.
    """
    _check_feasible(plan, cfg)
    k1 = max(0, plan.s1_count - cfg.n1 * plan.tau1)
    k2 = max(0, plan.s2_count - cfg.n2 * plan.tau2)
    length = max(k1, k2)
    if length == 0:
        streams = 0
    else:
        # feasibility guarantees tau3 >= 1 here (k_i <= N_i * tau3)
        streams = -(-length // plan.tau3)
        if streams > cfg.m:
            raise AntennaOverflow(
                f"phase three needs {streams} streams with only {cfg.m} antennas"
            )
    return Order2Payload(k1, k2, length, streams)


def _payload_rows(plan: SchedulePlan, cfg: SystemConfig, phase: int) -> list[tuple[int, ...]]:
    """The slot layout of symbol phase ``phase``'s (1 or 2) order-2 payload,
    for a plan ``order2_payload`` accepts: ``(slot3, stream, slot, row,
    load)`` per row. Slot ``slot``, of load ``load`` in ``plan.loads(phase)``,
    owes receiver i rows ``0 .. load - N_i - 1`` of the other receiver's
    channel; numbered in slot order, row j goes to phase-three slot
    ``j % tau3`` as stream ``j // tau3``: ``order2_payload``'s k_i rows."""
    n = cfg.n1 if phase == 1 else cfg.n2
    owed = [(slot, row, load) for slot, load in enumerate(plan.loads(phase)) for row in range(load - n)]
    return [(j % plan.tau3, j // plan.tau3, *at) for j, at in enumerate(owed)]


def scheme_region(cfg: SystemConfig) -> DofRegion:
    """Closure of all pairs the three-phase scheme achieves (N2 < M):

        d1/m1 + d2/N2 <= 1        d1/N1 + d2/m2 <= 1

    As a set this coincides with ``dof_region``. For N1 <= M the two planes
    are the very ``_from_ratios`` calls ``dof_region`` makes (N2 < M, so
    min(N_i, M) = N_i), and the identity holds by construction. For N1 > M
    the second plane reads d1/N1 where ``dof_region``'s reads d1/M; both
    are then implied by the first plane, and the test suite checks the set
    identity.
    """
    _check_three_phase(cfg)
    return DofRegion(
        [
            HalfPlane._from_ratios(cfg._enhanced(1), (cfg.n2, 1)),
            HalfPlane._from_ratios((cfg.n1, 1), cfg._enhanced(2)),
        ]
    )


def tdma_region(cfg: SystemConfig) -> DofRegion:
    """Time-sharing region for M <= N2.

    Two constraints; the symmetric all-antenna one is redundant whenever
    N1 < M, and the binding boundary is d1/min(N1, M) + d2/M <= 1.
    """
    if cfg.m > cfg.n2:
        raise WrongCase(
            f"time sharing is only the full answer for M <= N2, got M={cfg.m}, N2={cfg.n2}"
        )
    return DofRegion(
        [
            HalfPlane._from_ratios((cfg.m, 1), (cfg.m, 1)),
            HalfPlane._from_ratios(cfg._spatial(1), (cfg.m, 1)),
        ]
    )


def achievable_region(cfg: SystemConfig) -> DofRegion:
    """Whichever scheme applies to the antenna regime."""
    if cfg.n2 < cfg.m:
        return scheme_region(cfg)
    return tdma_region(cfg)
