"""Three-phase planner: durations, decoding slacks, payload sizing, slot
layout, regions. Nothing here imports numpy."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doflab import (
    AntennaOverflow,
    DofRegion,
    HalfPlane,
    InfeasiblePlan,
    InvalidWeight,
    Order2Payload,
    SchedulePlan,
    SystemConfig,
    WrongCase,
    achievable_region,
    achieved_dof,
    check_decoding_conditions,
    corner_point,
    corner_weight,
    dof_region,
    order2_payload,
    plan_schedule,
    plan_tdma,
    region_equal,
    scheme_region,
    tdma_region,
)
from doflab.scheme import _payload_rows

from acceptance_grid import GRID_SIZE, grid_plans
from reference import intercepts, reference_layout

ratio = st.fractions(min_value=0, max_value=1, max_denominator=16)
antenna = st.integers(min_value=1, max_value=6)


def plan_tuple(plan):
    return (plan.tau1, plan.tau2, plan.tau3, plan.s1_count, plan.s2_count)


class TestSchedulePlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulePlan(-1, 1, 1, 2, 2)
        with pytest.raises(ValueError):
            SchedulePlan(1, 1, 1, -2, 2)
        with pytest.raises(ValueError):
            SchedulePlan(0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            SchedulePlan(1, 1, 1, 2, 2, integer_scale=0)

    def test_total_slots(self):
        assert SchedulePlan(4, 1, 2, 12, 3).total_slots == 7

    def test_from_durations(self):
        plan = SchedulePlan.from_durations(SystemConfig(2, 1, 1), 1, 1, 1)
        assert plan_tuple(plan) == (1, 1, 1, 2, 2)
        plan = SchedulePlan.from_durations(SystemConfig(3, 2, 1), 0, 1, 2)
        assert plan_tuple(plan) == (0, 1, 2, 0, 3)

    def test_from_durations_rejects_fractional_loads(self):
        cfg = SystemConfig(2, 1, 1, F(1, 2), F(1, 2))
        with pytest.raises(ValueError):
            SchedulePlan.from_durations(cfg, 1, 1, 1)
        assert plan_tuple(SchedulePlan.from_durations(cfg, 2, 2, 1)) == (
            2, 2, 1, 3, 3,
        )


class TestPlanSchedule:
    def test_symmetric_full_quality(self):
        plan = plan_schedule(SystemConfig(2, 1, 1, 1, 1), F(1, 2))
        assert plan_tuple(plan) == (1, 1, 1, 2, 2)
        assert plan.integer_scale == 2
        assert tuple(achieved_dof(plan, SystemConfig(2, 1, 1))) == (
            F(2, 3), F(2, 3),
        )

    def test_symmetric_half_quality(self):
        cfg = SystemConfig(2, 1, 1, F(1, 2), F(1, 2))
        plan = plan_schedule(cfg, F(1, 2))
        assert plan_tuple(plan) == (2, 2, 1, 3, 3)
        assert tuple(achieved_dof(plan, cfg)) == (F(3, 5), F(3, 5))

    def test_asymmetric_antennas(self):
        cfg = SystemConfig(3, 2, 1)
        plan = plan_schedule(cfg, F(4, 5))
        assert plan_tuple(plan) == (4, 1, 2, 12, 3)
        assert plan.integer_scale == 5
        assert tuple(achieved_dof(plan, cfg)) == (F(12, 7), F(3, 7))

    def test_endpoint_weights(self):
        cfg = SystemConfig(2, 1, 1)
        assert tuple(achieved_dof(plan_schedule(cfg, 1), cfg)) == (F(1), F(0))
        assert tuple(achieved_dof(plan_schedule(cfg, 0), cfg)) == (F(0), F(1))

    def test_wrong_case(self):
        with pytest.raises(WrongCase):
            plan_schedule(SystemConfig(1, 1, 1), F(1, 2))
        with pytest.raises(WrongCase):
            plan_schedule(SystemConfig(2, 1, 2), F(1, 2))

    def test_invalid_weight(self):
        for bad in (F(-1, 10), F(11, 10), "3/2", 1.5):
            with pytest.raises(InvalidWeight):
                plan_schedule(SystemConfig(2, 1, 1), bad)


class TestPlanTdma:
    def test_time_split(self):
        cfg = SystemConfig(2, 1, 2)
        plan = plan_tdma(cfg, F(1, 2))
        assert plan_tuple(plan) == (1, 1, 0, 1, 2)
        assert tuple(achieved_dof(plan, cfg)) == (F(1, 2), F(1))

    def test_endpoints_are_single_user(self):
        cfg = SystemConfig(2, 1, 2)
        assert tuple(achieved_dof(plan_tdma(cfg, 1), cfg)) == (F(1), F(0))
        assert tuple(achieved_dof(plan_tdma(cfg, 0), cfg)) == (F(0), F(2))

    def test_no_order2_payload(self):
        cfg = SystemConfig(2, 1, 2)
        payload = order2_payload(plan_tdma(cfg, F(1, 2)), cfg)
        assert payload == Order2Payload(0, 0, 0, 0)


class TestDecodingConditions:
    def test_tight_symmetric(self):
        check = check_decoding_conditions(
            SchedulePlan.from_durations(SystemConfig(2, 1, 1), 1, 1, 1),
            SystemConfig(2, 1, 1),
        )
        assert check.ok
        assert (check.slack1, check.slack2) == (0, 0)

    def test_missing_third_phase(self):
        check = check_decoding_conditions(
            SchedulePlan.from_durations(SystemConfig(2, 1, 1), 1, 1, 0),
            SystemConfig(2, 1, 1),
        )
        assert not check.ok
        assert (check.slack1, check.slack2) == (-1, -1)

    def test_tight_asymmetric(self):
        check = check_decoding_conditions(
            SchedulePlan(4, 1, 2, 12, 3), SystemConfig(3, 2, 1)
        )
        assert check.ok
        assert (check.slack1, check.slack2) == (0, 0)


class TestAchievedDof:
    def test_infeasible_plan_rejected(self):
        cfg = SystemConfig(3, 2, 1)
        plan = SchedulePlan.from_durations(cfg, 1, 0, 0)
        with pytest.raises(InfeasiblePlan):
            achieved_dof(plan, cfg)

    def test_single_user_phase(self):
        cfg = SystemConfig(3, 2, 1)
        plan = SchedulePlan.from_durations(cfg, 0, 1, 2)
        assert tuple(achieved_dof(plan, cfg)) == (F(0), F(1))


class TestOrder2Payload:
    def test_symmetric_single_stream(self):
        cfg = SystemConfig(2, 1, 1)
        payload = order2_payload(SchedulePlan(1, 1, 1, 2, 2), cfg)
        assert payload == Order2Payload(1, 1, 1, 1)

    def test_asymmetric_padding(self):
        payload = order2_payload(SchedulePlan(4, 1, 2, 12, 3), SystemConfig(3, 2, 1))
        assert payload == Order2Payload(4, 2, 4, 2)

    def test_infeasible_plan_rejected(self):
        with pytest.raises(InfeasiblePlan):
            order2_payload(SchedulePlan(1, 1, 0, 2, 2), SystemConfig(2, 1, 1))

    def test_antenna_overflow(self):
        # hand-built overload: decoding slacks pass but 3 streams > 2 antennas
        plan = SchedulePlan(1, 0, 1, 6, 0)
        cfg = SystemConfig(2, 3, 1)
        assert check_decoding_conditions(plan, cfg).ok
        with pytest.raises(AntennaOverflow):
            order2_payload(plan, cfg)

    def test_short_last_slot(self):
        # K = 3 over tau3 = 2 rounds up to 2 streams per slot
        plan = SchedulePlan(3, 0, 2, 9, 0)
        payload = order2_payload(plan, SystemConfig(3, 2, 1))
        assert payload == Order2Payload(3, 0, 3, 2)


class TestCornerWeight:
    def test_values(self):
        assert corner_weight(SystemConfig(2, 1, 1)) == F(1, 2)
        assert corner_weight(SystemConfig(3, 2, 1)) == F(4, 5)
        assert corner_weight(SystemConfig(2, 1, 1, 0, 0)) == F(1, 2)
        assert corner_weight(SystemConfig(2, 1, 1, 1, 0)) == F(1)
        assert corner_weight(SystemConfig(2, 1, 1, 0, 1)) == F(0)

    def test_wrong_case(self):
        with pytest.raises(WrongCase):
            corner_weight(SystemConfig(2, 1, 2))

    def test_hits_corner(self):
        for cfg in (
            SystemConfig(3, 2, 1),
            SystemConfig(2, 1, 1, F(1, 2), F(1, 2)),
            SystemConfig(4, 2, 1, F(3, 4), F(1, 4)),
            SystemConfig(2, 1, 1, 1, 0),
            SystemConfig(5, 3, 2, F(1, 3), F(2, 3)),
        ):
            plan = plan_schedule(cfg, corner_weight(cfg))
            assert tuple(achieved_dof(plan, cfg)) == tuple(corner_point(cfg))


class TestRegions:
    def test_scheme_region_symmetric(self):
        for alpha in (F(0), F(1, 4), F(1, 2), F(1)):
            cfg = SystemConfig(2, 1, 1, alpha, alpha)
            assert intercepts(scheme_region(cfg)) == {
                (1 + alpha, F(1)),
                (F(1), 1 + alpha),
            }

    def test_scheme_region_asymmetric(self):
        assert intercepts(scheme_region(SystemConfig(3, 2, 1))) == {
            (F(3), F(1)),
            (F(2), F(3)),
        }

    def test_scheme_region_excess_rx_antennas(self):
        cfg = SystemConfig(3, 4, 1)
        assert intercepts(scheme_region(cfg)) == {(F(3), F(1)), (F(4), F(3))}
        assert region_equal(scheme_region(cfg), dof_region(cfg))

    def test_scheme_region_wrong_case(self):
        with pytest.raises(WrongCase):
            scheme_region(SystemConfig(2, 1, 2))

    def test_tdma_region(self):
        wide = tdma_region(SystemConfig(2, 1, 2))
        assert intercepts(wide) == {(F(2), F(2)), (F(1), F(2))}
        assert [(v.d1, v.d2) for v in wide.vertices()] == [
            (F(0), F(0)),
            (F(1), F(0)),
            (F(0), F(2)),
        ]
        assert intercepts(tdma_region(SystemConfig(1, 1, 1))) == {(F(1), F(1))}
        assert intercepts(tdma_region(SystemConfig(2, 2, 2))) == {(F(2), F(2))}

    def test_tdma_region_wrong_case(self):
        with pytest.raises(WrongCase):
            tdma_region(SystemConfig(2, 1, 1))

    def test_achievable_dispatch(self):
        three_phase = SystemConfig(3, 2, 1)
        shared = SystemConfig(2, 1, 2)
        assert region_equal(achievable_region(three_phase), scheme_region(three_phase))
        assert region_equal(achievable_region(shared), tdma_region(shared))
        for cfg in (three_phase, shared, SystemConfig(1, 1, 1)):
            assert region_equal(achievable_region(cfg), dof_region(cfg))


def boundary_tightness(cfg, plan):
    """Map tight decoding slacks to tight region constraints.

    Slack 2 tight forces the constraint with d2-intercept min{N2, M} to be
    tight at the achieved point, and symmetrically for slack 1. (Only an
    implication: with N1 > M the slack counts all N1 receive antennas while
    the constraint uses the capped spatial dimension, so the constraint can
    be tight with slack to spare.) The planner always leaves at least one
    slack at zero, so every planned point sits on the region boundary.
    """
    point = achieved_dof(plan, cfg)
    check = check_decoding_conditions(plan, cfg)
    first, second = dof_region(cfg).constraints
    if check.slack2 == 0:
        assert first.is_tight_at(point.d1, point.d2)
    if check.slack1 == 0:
        assert second.is_tight_at(point.d1, point.d2)
    assert check.slack1 == 0 or check.slack2 == 0


def test_weight_sweep_stays_in_region():
    grid = [F(k, 10) for k in range(11)]
    for cfg in (
        SystemConfig(2, 1, 1),
        SystemConfig(3, 2, 1),
        SystemConfig(4, 2, 1, F(1, 2), F(3, 4)),
        SystemConfig(6, 3, 2, F(1, 4), F(0)),
        SystemConfig(3, 5, 2),
    ):
        region = dof_region(cfg)
        for w in grid:
            plan = plan_schedule(cfg, w)
            point = achieved_dof(plan, cfg)
            assert region.contains(point)
            boundary_tightness(cfg, plan)


@settings(max_examples=80, deadline=None)
@given(alpha=ratio)
def test_symmetric_corner_for_every_quality(alpha):
    cfg = SystemConfig(2, 1, 1, alpha, alpha)
    point = achieved_dof(plan_schedule(cfg, F(1, 2)), cfg)
    assert tuple(point) == ((1 + alpha) / (2 + alpha), (1 + alpha) / (2 + alpha))


@settings(max_examples=80, deadline=None)
@given(m=antenna, n1=antenna, n2=antenna, alpha1=ratio, alpha2=ratio, w=ratio)
def test_integer_scale_is_minimal(m, n1, n2, alpha1, alpha2, w):
    cfg = SystemConfig(m, n1, n2, alpha1, alpha2)
    if cfg.n2 >= cfg.m:
        plan = plan_tdma(cfg, w)
    else:
        plan = plan_schedule(cfg, w)
    # dividing by any prime factor of the scale must break integrality,
    # i.e. the five scaled quantities share no common factor
    assert math.gcd(*plan_tuple(plan)) == 1


def test_slot_layout_matches_reference_on_acceptance_grid():
    """``SchedulePlan.loads`` and ``_payload_rows`` are ``reference_layout``
    on every acceptance-grid plan; the rows are ``order2_payload``'s
    k_i, the largest load is the closed form ceil(s_i / tau_i), and every
    row has a cell of its own in the payload's (slot3, stream) grid."""
    plans = 0
    for cfg, plan in grid_plans():
        payload = order2_payload(plan, cfg)
        grid = (min(payload.length, plan.tau3), payload.per_slot_streams)
        phases = ((1, plan.s1_count, plan.tau1, cfg.n1, payload.k1_needed),
                  (2, plan.s2_count, plan.tau2, cfg.n2, payload.k2_needed))
        for phase, count, slots, n, owed in phases:
            loads, rows = plan.loads(phase), _payload_rows(plan, cfg, phase)
            assert (loads, rows) == reference_layout(count, slots, n, plan.tau3), (cfg, phase)
            assert len(rows) == owed, (cfg, phase)
            assert max(loads, default=0) == (-(-count // slots) if slots else 0), (cfg, phase)
            cells = {(slot3, stream) for slot3, stream, *_ in rows}
            assert len(cells) == len(rows), (cfg, phase)
            assert all(a < grid[0] and r < grid[1] for a, r in cells), (cfg, phase)
        plans += 1
    assert plans == GRID_SIZE
