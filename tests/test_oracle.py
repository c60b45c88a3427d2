"""The exact geometry and planning against an oracle typed here in plain
Fraction arithmetic.

The package computes dimensions, constraints, corners and plans on integers
and builds a Fraction only for each value it returns. Over the whole
acceptance grid, every such value must equal the one this file derives from
the definitions, with no package helper: the dimensions from their min
formulas, each constraint from its axis intercepts, the corner by Cramer's
rule on the two boundary lines, the vertices by solving every pair of lines
in Fractions, and each plan's durations and symbol counts as Fractions
scaled by the lcm of their reduced denominators.

Nothing here, in ``test_region``, ``test_scheme`` or ``test_converse``
needs numpy: these four modules are the geometry and planning tests that
also run on an interpreter without it.
"""

import math
import pickle
import subprocess
import sys
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

from doflab import (
    DegenerateCorner,
    DofRegion,
    HalfPlane,
    SystemConfig,
    achievable_region,
    converse_region,
    corner_point,
    corner_weight,
    delayed_csit_region,
    dof_region,
    is_subset,
    no_csit_region,
    plan_schedule,
    plan_tdma,
    region_equal,
    representative_corner,
)

from acceptance_grid import ANTENNAS, GRID_SIZE, grid_configs
from test_region import reference_vertices

WEIGHTS = (F(0), F(1, 5), F(1, 3), F(1, 2), F(4, 5), F(1))


def oracle_line(d1_max, d2_max):
    """(p, q, r, scaled) of d1/d1_max + d2/d2_max <= 1."""
    p, q, r = 1 / F(d1_max), 1 / F(d2_max), F(1)
    scale = math.lcm(p.denominator, q.denominator, r.denominator)
    return p, q, r, tuple(int(c * scale) for c in (p, q, r))


def assert_constraints(region, lines):
    """The region's constraints are the oracle's lines, and each one is, in
    ==, hash, repr, JSON and a pickle round trip, the plane typed from the
    oracle's Fractions."""
    want = [oracle_line(*line) for line in lines]
    got = [(hp.p, hp.q, hp.r, hp.scaled) for hp in region.constraints]
    assert got == want
    assert all(type(c) is F for hp in region.constraints for c in (hp.p, hp.q, hp.r))
    for hp, (p, q, r, scaled) in zip(region.constraints, want):
        typed = HalfPlane(p, q, r)
        back = pickle.loads(pickle.dumps(hp))
        assert hp == typed == back and typed.scaled == back.scaled == scaled
        assert hash(hp) == hash(typed) == hash(back) == hash((p, q, r))
        assert repr(hp) == repr(typed) == repr(back) == f"HalfPlane(p={p!r}, q={q!r}, r={r!r})"
        assert hp.to_json_dict() == typed.to_json_dict() == {"p": str(p), "q": str(q), "r": str(r)}


def test_geometry_matches_fraction_oracle_on_acceptance_grid():
    degenerate = 0
    configs = grid_configs()
    assert len(configs) == GRID_SIZE
    for cfg in configs:
        m, n1, n2, a1, a2 = cfg.m, cfg.n1, cfg.n2, cfg.alpha1, cfg.alpha2
        a, d = F(min(n1, m)), F(min(n2, m))
        c = min(n1 + a2 * n2, F(m))
        b = min(n2 + a1 * n1, F(m))
        shapes = dof_region(cfg), converse_region(cfg), achievable_region(cfg)
        # the intercepts of d1/c + d2/d <= 1 and d1/a + d2/b <= 1
        first, second = shapes[0].constraints
        dims = (second.r / second.p, first.r / first.q, first.r / first.p, second.r / second.q)
        assert dims == (a, d, c, b)
        assert all(type(x) is F for x in dims)

        assert_constraints(shapes[0], [(c, d), (a, b)])
        assert_constraints(shapes[1], [(c, d), (a, b)])
        if n2 < m:
            assert_constraints(shapes[2], [(c, n2), (n1, b)])
        else:
            assert_constraints(shapes[2], [(m, m), (a, m)])
        # the vertices in order: the origin, then by angle
        for shape in shapes:
            assert [tuple(v) for v in shape.vertices()] == reference_vertices(shape), cfg
        assert region_equal(shapes[1], shapes[0]) and region_equal(shapes[2], shapes[0]), cfg

        # Cramer's rule on d1/c + d2/d = 1 and d1/a + d2/b = 1
        p1, q1, p2, q2 = 1 / c, 1 / d, 1 / a, 1 / b
        det = p1 * q2 - p2 * q1
        if det == 0:
            degenerate += 1
            with pytest.raises(DegenerateCorner, match="^boundary lines coincide; "
                               "the region has no off-axis corner$"):
                corner_point(cfg)
            first, second = shapes[0].vertices()[-2:]
            want = ((first.d1 + second.d1) / 2, (first.d2 + second.d2) / 2)
        else:
            want = ((q2 - q1) / det, (p1 - p2) / det)
            assert tuple(corner_point(cfg)) == want
        assert tuple(representative_corner(cfg)) == want
    assert degenerate == 2680


def delayed_csit_lines(m, n1, n2):
    """The delayed-CSIT MIMO BC region (alpha = (1, 1)) of Vaze & Varanasi,
    "The degrees of freedom region of the two-user MIMO broadcast channel
    with delayed CSIT" (2011), as the axis intercepts of its boundary
    lines, typed per antenna regime for N1 <= N2 and mirrored otherwise."""
    if n1 > n2:
        return [(y, x) for x, y in delayed_csit_lines(m, n2, n1)]
    if m <= n1:
        return [(m, m)]  # d1 + d2 <= M
    if m <= n2:
        return [(n1, m)]  # d1/N1 + d2/M <= 1
    if m < n1 + n2:
        return [(n1, m), (m, n2)]
    return [(n1, n1 + n2), (n1 + n2, n2)]


def region_of(lines):
    return DofRegion(HalfPlane.from_intercepts(x, y) for x, y in lines)


def test_region_endpoints_match_published_regions():
    """At alpha = (1, 1) the region is the delayed-CSIT region above, with
    Maddah-Ali & Tse's corner (2/3, 2/3) at M=2, N1=N2=1; at alpha = (0, 0)
    it is the no-CSIT region d1/min(M,N1) + d2/min(M,N2) <= 1 (Huang,
    Jafar, Shamai & Vishwanath 2012; Vaze & Varanasi 2012); and at every
    quality it lies inside the perfect-CSIT region d_i <= min(M, N_i),
    d1 + d2 <= min(M, N1+N2). Checked on the acceptance grid, with the
    containment also at qualities of a third."""
    configs = grid_configs()
    assert len(configs) == GRID_SIZE
    for cfg in configs:
        m, n1, n2 = cfg.m, cfg.n1, cfg.n2
        delayed = region_of(delayed_csit_lines(m, n1, n2))
        assert region_equal(delayed_csit_region(cfg), delayed), cfg
        assert region_equal(no_csit_region(cfg), region_of([(min(m, n1), min(m, n2))])), cfg
    assert (F(2, 3), F(2, 3)) in [tuple(v) for v in region_of(delayed_csit_lines(2, 1, 1)).vertices()]
    for m, n1, n2 in product(ANTENNAS, ANTENNAS, ANTENNAS):
        perfect = DofRegion([HalfPlane(1, 0, min(m, n1)), HalfPlane(0, 1, min(m, n2)),
                             HalfPlane(1, 1, min(m, n1 + n2))])
        for a1, a2 in product((F(0), F(1, 3), F(1, 2), F(1)), repeat=2):
            assert is_subset(dof_region(SystemConfig(m, n1, n2, a1, a2)), perfect), (m, n1, n2, a1, a2)


def oracle_plan(values):
    """(integers, scale): Fraction values times the lcm of their reduced
    denominators, the plan's integer_scale."""
    scale = math.lcm(*(v.denominator for v in values))
    return [int(v * scale) for v in values], scale


def plan_fields(plan):
    return (plan.tau1, plan.tau2, plan.tau3, plan.s1_count, plan.s2_count, plan.integer_scale)


def test_plans_match_fraction_oracle_on_acceptance_grid():
    """plan_schedule over every three-phase config (N2 < M) and weight, the
    corner weight among them; plan_tdma over every config and weight."""
    schedules = tdmas = 0
    configs = grid_configs()
    assert len(configs) == GRID_SIZE
    for cfg in configs:
        m, n1, n2, a1, a2 = cfg.m, cfg.n1, cfg.n2, cfg.alpha1, cfg.alpha2
        for w in WEIGHTS:
            t1, t2 = w, 1 - w
            (u1, u2, v1, v2), scale = oracle_plan([t1, t2, min(n1, m) * t1, min(n2, m) * t2])
            assert plan_fields(plan_tdma(cfg, w)) == (u1, u2, 0, v1, v2, scale)
            tdmas += 1
        if n2 >= m:
            continue
        m1, m2 = min(n1 + a2 * n2, F(m)), min(n2 + a1 * n1, F(m))
        r1, r2 = max(F(0), m1 - n1) / n1, max(F(0), m2 - n2) / n2
        corner = F(1, 2) if r1 + r2 == 0 else r2 / (r1 + r2)
        got = corner_weight(cfg)
        assert (got, type(got)) == (corner, F)
        for w in (*WEIGHTS, corner):
            t1, t2 = w, 1 - w
            t3 = max(r1 * t1, r2 * t2)
            (u1, u2, u3, v1, v2), scale = oracle_plan([t1, t2, t3, m1 * t1, m2 * t2])
            assert plan_fields(plan_schedule(cfg, w)) == (u1, u2, u3, v1, v2, scale)
            schedules += 1
    assert (schedules, tdmas) == (15750, 32400)


def test_geometry_import_leaves_numpy_unloaded():
    """``import doflab``, the exact geometry and the slot layout load neither
    numpy nor the Monte Carlo layer."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import doflab; "
        "doflab.representative_corner(doflab.SystemConfig(3, 2, 1, '1/2', '1/3')); "
        "doflab.dof_region(doflab.SystemConfig(3, 2, 1)).vertices(); "
        "from doflab.scheme import _payload_rows; cfg = doflab.SystemConfig(3, 2, 1, '1/2', '1/3'); "
        "plan = doflab.plan_schedule(cfg, doflab.corner_weight(cfg)); "
        "plan.loads(1), _payload_rows(plan, cfg, 2); "
        "print(sorted({'numpy', 'doflab.simulate', 'doflab.kernels'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-c", script, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n"


def test_acceptance_grid_leaves_numpy_unloaded():
    """The shared acceptance grid, plans included, and the four geometry and
    planning test modules load neither numpy nor the Monte Carlo layer, so
    those modules run without numpy."""
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys; sys.path[:0] = sys.argv[1:]; import acceptance_grid; "
        "import test_region, test_scheme, test_converse, test_oracle; "
        "print(len(acceptance_grid.grid_plans()), "
        "sorted({'numpy', 'doflab.simulate', 'doflab.kernels'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-c", script, str(root / "src"), str(root / "tests")],
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"{GRID_SIZE} []\n"
