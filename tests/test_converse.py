"""Outer-bound structure and tightness spot checks."""

from fractions import Fraction as F

from doflab import (
    SystemConfig,
    converse_region,
    dof_region,
    is_subset,
    no_csit_region,
    outer_bound_rx1_enhanced,
    outer_bound_rx2_enhanced,
    region_equal,
)

from reference import intercepts


def test_rx1_enhancement():
    for alpha in (F(1, 4), F(1, 2), F(1)):
        bound = outer_bound_rx1_enhanced(SystemConfig(2, 1, 1, alpha, alpha))
        assert intercepts(bound) == {(1 + alpha, F(1))}
    untouched = outer_bound_rx1_enhanced(SystemConfig(2, 1, 1, F(1), F(0)))
    assert intercepts(untouched) == {(F(1), F(1))}
    assert intercepts(outer_bound_rx1_enhanced(SystemConfig(3, 2, 1, F(1), F(1)))) == {
        (F(3), F(1))
    }


def test_rx2_enhancement():
    for alpha in (F(1, 4), F(1, 2), F(1)):
        bound = outer_bound_rx2_enhanced(SystemConfig(2, 1, 1, alpha, alpha))
        assert intercepts(bound) == {(F(1), 1 + alpha)}
    untouched = outer_bound_rx2_enhanced(SystemConfig(2, 1, 1, F(0), F(1)))
    assert intercepts(untouched) == {(F(1), F(1))}
    assert intercepts(outer_bound_rx2_enhanced(SystemConfig(3, 2, 1, F(1), F(1)))) == {
        (F(2), F(3))
    }


def test_combined_region_vertices():
    verts = converse_region(SystemConfig(2, 1, 1, F(1), F(1))).vertices()
    assert [(v.d1, v.d2) for v in verts] == [
        (F(0), F(0)),
        (F(1), F(0)),
        (F(2, 3), F(2, 3)),
        (F(0), F(1)),
    ]
    verts = converse_region(SystemConfig(3, 2, 1, F(1), F(1))).vertices()
    assert [(v.d1, v.d2) for v in verts] == [
        (F(0), F(0)),
        (F(2), F(0)),
        (F(12, 7), F(3, 7)),
        (F(0), F(1)),
    ]
    assert intercepts(converse_region(SystemConfig(1, 1, 1, F(1, 2), F(1, 2)))) == {
        (F(1), F(1))
    }


def test_each_bound_contains_region():
    for cfg in (
        SystemConfig(2, 1, 1, F(1, 2), F(3, 4)),
        SystemConfig(4, 3, 2, F(1, 3), F(1)),
        SystemConfig(3, 1, 2, F(1), F(0)),
    ):
        region = dof_region(cfg)
        assert is_subset(region, outer_bound_rx1_enhanced(cfg))
        assert is_subset(region, outer_bound_rx2_enhanced(cfg))
        assert region_equal(converse_region(cfg), region)


def test_zero_quality_collapse():
    cfg = SystemConfig(3, 2, 2, F(0), F(0))
    assert region_equal(converse_region(cfg), no_csit_region(cfg))
