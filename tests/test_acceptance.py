"""Acceptance gate: the ten headline checks, one pass line each.

Every test prints a single ``PASS criterion N`` line with the measured
numbers once its assertions clear, so a ``pytest -s`` run reads as a
checklist. Tolerances and runtime budgets are stated inline.
"""

import json
import random
import time
from fractions import Fraction as F
from itertools import product

import pytest

from doflab import (
    DegenerateCorner,
    SimParams,
    SystemConfig,
    achievable_region,
    achieved_dof,
    check_decoding_conditions,
    converse_region,
    corner_point,
    corner_weight,
    delayed_csit_region,
    dof_region,
    estimate_rates,
    is_subset,
    no_csit_region,
    plan_schedule,
    plan_tdma,
    rank_check_campaign,
    region_equal,
    representative_corner,
)
from doflab.cli import main

from acceptance_grid import ANTENNAS, GRID_SIZE, QUALITIES, grid_configs
from reference import residual_scan


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """Exact monotone-chain hull; collinear points are dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def inside_convex(polygon, point):
    """Point-in-convex-polygon for CCW exact vertices, boundary included."""
    n = len(polygon)
    return all(cross(polygon[i], polygon[(i + 1) % n], point) >= 0 for i in range(n))


def test_criterion_1_symmetric_corner():
    start = time.perf_counter()
    for alpha in QUALITIES:
        cfg = SystemConfig(2, 1, 1, alpha, alpha)
        want = ((1 + alpha) / (2 + alpha), (1 + alpha) / (2 + alpha))
        if alpha == 0:
            with pytest.raises(DegenerateCorner):
                corner_point(cfg)
            assert tuple(representative_corner(cfg)) == (F(1, 2), F(1, 2)) == want
        else:
            assert tuple(corner_point(cfg)) == want
            assert tuple(representative_corner(cfg)) == want
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: corner (1+a)/(2+a) exact for 5 qualities "
          f"({elapsed:.3f} s)")


def test_criterion_2_region_tightness():
    start = time.perf_counter()
    count = 0
    configs = grid_configs()
    assert len(configs) == GRID_SIZE
    for cfg in configs:
        region = dof_region(cfg)
        assert region_equal(converse_region(cfg), region)
        assert region_equal(achievable_region(cfg), region)
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 5400
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: converse and achievable match the region on "
          f"{count} configs ({elapsed:.1f} s)")


def test_criterion_3_sandwich_and_monotonicity():
    areas = {}
    configs = grid_configs()
    assert len(configs) == GRID_SIZE
    for cfg in configs:
        region = dof_region(cfg)
        assert is_subset(no_csit_region(cfg), region)
        assert is_subset(region, delayed_csit_region(cfg))
        areas[(cfg.m, cfg.n1, cfg.n2, cfg.alpha1, cfg.alpha2)] = region.area()
    for m, n1, n2 in product(ANTENNAS, ANTENNAS, ANTENNAS):
        for fixed in QUALITIES:
            rising1 = [areas[(m, n1, n2, a, fixed)] for a in QUALITIES]
            rising2 = [areas[(m, n1, n2, fixed, a)] for a in QUALITIES]
            assert rising1 == sorted(rising1)
            assert rising2 == sorted(rising2)

    rng = random.Random(20240822)
    step = F(1, 16)
    for _ in range(100):
        m, n1, n2 = (rng.randint(1, 6) for _ in range(3))
        a1 = F(rng.randint(0, 12), 12)
        a2 = F(rng.randint(0, 12), 12)
        cfg = SystemConfig(m, n1, n2, a1, a2)
        region = dof_region(cfg)
        assert is_subset(no_csit_region(cfg), region)
        assert is_subset(region, delayed_csit_region(cfg))
        base = region.area()
        up1 = SystemConfig(m, n1, n2, min(a1 + step, F(1)), a2)
        up2 = SystemConfig(m, n1, n2, a1, min(a2 + step, F(1)))
        assert dof_region(up1).area() >= base
        assert dof_region(up2).area() >= base
    print("\nPASS criterion 3: no-CSIT within region within delayed, area "
          "nondecreasing in each quality (grid + 100 random pairs)")


def test_criterion_4_corner_vs_linear_solve():
    degenerate = 0
    configs = grid_configs()
    assert len(configs) == GRID_SIZE
    for cfg in configs:
        a, d = F(min(cfg.n1, cfg.m)), F(min(cfg.n2, cfg.m))
        c = min(cfg.n1 + cfg.alpha2 * cfg.n2, F(cfg.m))
        b = min(cfg.n2 + cfg.alpha1 * cfg.n1, F(cfg.m))
        if a * d - b * c == 0:
            with pytest.raises(DegenerateCorner):
                corner_point(cfg)
            degenerate += 1
            continue
        det = 1 / (c * b) - 1 / (d * a)
        d1 = (1 / b - 1 / d) / det
        d2 = (1 / c - 1 / a) / det
        point = corner_point(cfg)
        assert (point.d1, point.d2) == (d1, d2)
        assert d1 >= 0 and d2 >= 0
        first, second = dof_region(cfg).constraints
        assert first.is_tight_at(d1, d2) and second.is_tight_at(d1, d2)
    print(f"\nPASS criterion 4: closed form equals 2x2 solve on 5400 configs "
          f"({degenerate} degenerate, all raised)")


def test_criterion_5_scheme_boundary_and_hull():
    weights = [F(k, 10) for k in range(11)]
    checked = tdma = 0
    configs = grid_configs()
    assert len(configs) == GRID_SIZE
    for cfg in configs:
        region = dof_region(cfg)
        points = [(F(0), F(0))]
        if cfg.n2 >= cfg.m:
            # time sharing is the whole scheme here
            for w in weights:
                point = achieved_dof(plan_tdma(cfg, w), cfg)
                assert region.contains(point)
                points.append((point.d1, point.d2))
            tdma += 1
        else:
            first, second = region.constraints
            for w in weights + [corner_weight(cfg)]:
                plan = plan_schedule(cfg, w)
                point = achieved_dof(plan, cfg)
                assert region.contains(point)
                check = check_decoding_conditions(plan, cfg)
                if check.slack2 == 0:
                    assert first.is_tight_at(point.d1, point.d2)
                if check.slack1 == 0:
                    assert second.is_tight_at(point.d1, point.d2)
                assert check.slack1 == 0 or check.slack2 == 0
                points.append((point.d1, point.d2))
            checked += 1
        hull = convex_hull(points)
        assert set(hull) == {(v.d1, v.d2) for v in region.vertices()}
    assert checked == 2250 and tdma == 3150
    print(f"\nPASS criterion 5: boundary achievement and exact hull "
          f"reconstruction on {checked} three-phase configs x 12 weights; "
          f"time-sharing hull on {tdma} configs with M <= N2 x 11 weights")


def test_criterion_6_rank_check_monte_carlo():
    start = time.perf_counter()
    campaigns = [
        (SystemConfig(2, 1, 1), plan_schedule(SystemConfig(2, 1, 1), F(1, 2))),
        (SystemConfig(3, 2, 1), plan_schedule(SystemConfig(3, 2, 1), F(4, 5))),
    ]
    params = SimParams(snr_grid_db=(30.0, 40.0), trials=1000, seed=2024)
    rates = []
    for cfg, plan in campaigns:
        passes = rank_check_campaign(cfg, plan, params)
        for count in passes:
            assert count >= 999
        rates.append((passes[0] / 1000, passes[1] / 1000))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 6: rank-check pass rates {rates} over 1000 "
          f"trials each ({elapsed:.1f} s)")


def test_criterion_7_rate_slopes():
    start = time.perf_counter()
    grid = (30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0)
    params = SimParams(snr_grid_db=grid, trials=200, seed=7)

    cfg = SystemConfig(2, 1, 1)
    report = estimate_rates(cfg, plan_schedule(cfg, F(1, 2)), params)
    for slope in report.slopes:
        assert slope == pytest.approx(2 / 3, abs=0.05)

    p2p = SystemConfig(1, 1, 1)
    baseline = estimate_rates(p2p, plan_tdma(p2p, 1), params)
    assert baseline.slopes[0] == pytest.approx(1.0, abs=0.05)

    blind = SystemConfig(2, 1, 1, 0, 0)
    tdma = estimate_rates(blind, plan_tdma(blind, F(1, 2)), params)
    for slope in tdma.slopes:
        assert slope == pytest.approx(0.5, abs=0.05)

    soft_lines = []
    for alpha in (F(1, 4), F(1, 2), F(3, 4)):
        frac_cfg = SystemConfig(2, 1, 1, alpha, alpha)
        frac = estimate_rates(frac_cfg, plan_schedule(frac_cfg, F(1, 2)), params)
        target = float((1 + alpha) / (2 + alpha))
        within = all(abs(s - target) <= 0.15 for s in frac.slopes)
        soft_lines.append(
            f"  report (soft, not asserted): alpha={alpha} slopes "
            f"({frac.slopes[0]:.3f}, {frac.slopes[1]:.3f}) target {target:.3f} "
            f"within +-0.15: {within}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nPASS criterion 7: slopes 2/3 (scheme), 1 (p2p), 1/2 (TDMA) all "
          f"within +-0.05 over 30-60 dB, 200 trials ({elapsed:.1f} s)")
    for line in soft_lines:
        print(line)


def test_criterion_8_residual_scaling():
    grid = tuple(float(s) for s in range(20, 61, 5))
    slopes = {}
    for alpha in (F(1, 4), F(1, 2), F(3, 4), F(1)):
        _, slope = residual_scan(alpha, grid, seed=0)
        assert slope == pytest.approx(-float(alpha), abs=0.1)
        slopes[str(alpha)] = round(slope, 3)
    print(f"\nPASS criterion 8: residual power slopes {slopes} within +-0.1 "
          f"of -alpha")


def test_criterion_9_figure_data(capsys):
    code = main(["sweep-alpha", "--M", "2", "--N1", "1", "--N2", "1",
                 "--alphas", "0,1/2,1"])
    out = capsys.readouterr().out
    assert code == 0
    entries = json.loads(out)["entries"]
    assert [e["corner"][1] for e in entries] == ["1/2", "3/5", "2/3"]
    polygons = [
        [(F(d1), F(d2)) for d1, d2 in e["vertices"]] for e in entries
    ]
    areas = []
    for small, large in zip(polygons, polygons[1:]):
        for vertex in small:
            assert inside_convex(large, vertex)
    for poly in polygons:
        total = F(0)
        for i in range(len(poly)):
            x1, y1 = poly[i]
            x2, y2 = poly[(i + 1) % len(poly)]
            total += x1 * y2 - x2 * y1
        areas.append(total / 2)
    assert areas == [F(1, 2), F(3, 5), F(2, 3)]
    assert areas[0] < areas[1] < areas[2]

    code = main(["sweep-pairs", "--M", "2", "--N1", "1", "--N2", "1",
                 "--pairs", "1:0,1:1/4,1:1/2,1:3/4,1:1"])
    out = capsys.readouterr().out
    assert code == 0
    corners = [e["corner"] for e in json.loads(out)["entries"]]
    d2s = [F(c[1]) for c in corners]
    assert d2s == [F(0), F(1, 3), F(1, 2), F(3, 5), F(2, 3)]
    assert all(late > early for early, late in zip(d2s, d2s[1:]))
    print("\nPASS criterion 9: sweep-alpha gives strictly nested regions "
          "(areas 1/2 < 3/5 < 2/3); sweep-pairs d2-corner strictly rises "
          "with alpha2")


def test_criterion_10_rank_at_fractional_alpha():
    start = time.perf_counter()
    one = SimParams(snr_grid_db=(30.0, 40.0), trials=1, seed=2024)
    plans = 0
    configs = grid_configs()
    assert len(configs) == GRID_SIZE
    for cfg in configs:
        if cfg.n2 >= cfg.m:
            continue
        plan = plan_schedule(cfg, corner_weight(cfg))
        if plan.total_slots > 40:
            continue
        assert rank_check_campaign(cfg, plan, one) == (1, 1), cfg
        plans += 1
    assert plans == 2128
    twenty = SimParams(snr_grid_db=(30.0, 40.0), trials=20, seed=2024)
    for cfg in (SystemConfig(4, 2, 2, F(1, 2), F(1, 2)),
                SystemConfig(5, 3, 2, F(1, 2), F(1, 3))):
        plan = plan_schedule(cfg, corner_weight(cfg))
        assert rank_check_campaign(cfg, plan, twenty) == (20, 20), cfg
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 10: full rank on both receivers at {plans} corner "
          f"plans with N2 < M and at most 40 slots (1 trial each), and at "
          f"M4/N2/N2 1/2 and M5/N3/N2 (1/2, 1/3) (20 trials each) ({elapsed:.1f} s)")
