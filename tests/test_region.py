"""Exact-geometry tests: frozen oracles plus property checks."""

import copy
import dataclasses
import pickle
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doflab import (
    DegenerateCorner,
    DofPoint,
    DofRegion,
    HalfPlane,
    SystemConfig,
    UnboundedRegion,
    achievable_region,
    achieved_dof,
    converse_region,
    corner_point,
    delayed_csit_region,
    dof_region,
    errors,
    is_subset,
    no_csit_region,
    plan_schedule,
    plan_tdma,
    rational,
    region,
    region_equal,
    representative_corner,
)

from acceptance_grid import GRID_SIZE, grid_configs
from reference import (
    intercepts,
    reference_area,
    reference_contains,
    reference_is_subset,
    reference_vertices,
)


class TestSystemConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(0, 1, 1)
        with pytest.raises(ValueError):
            SystemConfig(2, -1, 1)
        with pytest.raises(ValueError):
            SystemConfig(2, 1, 1, F(3, 2), F(1))
        with pytest.raises(ValueError):
            SystemConfig(2, 1, 1, F(1), F(-1, 4))

    def test_alpha_coercion(self):
        cfg = SystemConfig(2, 1, 1, "1/2", 0.25)
        assert cfg.alpha1 == F(1, 2)
        assert cfg.alpha2 == F(1, 4)

    def test_dims(self):
        """The intercepts of dof_region's constraints d1/c + d2/d <= 1 and
        d1/a + d2/b <= 1: the spatial dimensions a = min(N1, M) and
        d = min(N2, M), and the enhanced ones c = min(N1 + alpha2*N2, M)
        and b = min(N2 + alpha1*N1, M)."""

        def dims(cfg):
            first, second = dof_region(cfg).constraints
            return second.r / second.p, first.r / first.q, first.r / first.p, second.r / second.q

        assert dims(SystemConfig(3, 2, 1, F(1), F(1))) == (2, 1, 3, 3)
        assert dims(SystemConfig(4, 2, 1, F(1, 4), F(1, 2))) == (2, 1, F(5, 2), F(3, 2))


class TestConfigIntegers:
    """SystemConfig derives both enhanced dimensions once, as the integers
    ``_enhanced_ints``; as a value a config is still its five fields."""

    cfg = SystemConfig(3, 2, 1, "1/2", "1/3")
    # min(N1 + alpha2*N2, M) = 7/3 and min(N2 + alpha1*N1, M) = 4/2
    ints = (7, 3, 4, 2)

    def test_not_a_field(self):
        cfg = self.cfg
        assert vars(cfg)["_enhanced_ints"] == self.ints
        assert cfg._enhanced(1) == (7, 3) and cfg._enhanced(2) == (4, 2)
        tampered = SystemConfig(3, 2, 1, F(1, 2), F(1, 3))
        object.__setattr__(tampered, "_enhanced_ints", (0, 1, 0, 1))
        assert tampered == cfg and hash(tampered) == hash(cfg) and repr(tampered) == repr(cfg)
        assert repr(cfg) == (
            "SystemConfig(m=3, n1=2, n2=1, alpha1=Fraction(1, 2), alpha2=Fraction(1, 3))"
        )
        names = ["m", "n1", "n2", "alpha1", "alpha2"]
        assert [f.name for f in dataclasses.fields(cfg)] == names
        assert dataclasses.asdict(cfg) == dict(zip(names, (3, 2, 1, F(1, 2), F(1, 3))))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_copies_keep_it(self, protocol):
        for back in (pickle.loads(pickle.dumps(self.cfg, protocol)),
                     copy.copy(self.cfg), copy.deepcopy(self.cfg)):
            assert back == self.cfg and vars(back)["_enhanced_ints"] == self.ints

    def test_new_configs_recompute_it(self):
        tampered = SystemConfig(3, 2, 1, "1/2", "1/3")
        object.__setattr__(tampered, "_enhanced_ints", (0, 1, 0, 1))
        assert dataclasses.replace(tampered)._enhanced_ints == self.ints
        # min(N1 + 1*N2, M) = 3/1 and min(N2 + (1/2)*N1, M) = 4/2
        assert dataclasses.replace(tampered, alpha2=1)._enhanced_ints == (3, 1, 4, 2)
        # min(N1, M) = 2/1 and min(N2 + (3/4)*N1, M) = 10/4
        assert tampered.with_quality("3/4", 0)._enhanced_ints == (2, 1, 10, 4)

    def test_enhanced_on_acceptance_grid(self):
        configs = grid_configs()
        assert len(configs) == GRID_SIZE
        for cfg in configs:
            want1 = min(cfg.n1 + cfg.alpha2 * cfg.n2, F(cfg.m))
            want2 = min(cfg.n2 + cfg.alpha1 * cfg.n1, F(cfg.m))
            (num1, den1), (num2, den2) = cfg._enhanced(1), cfg._enhanced(2)
            assert (F(num1, den1), F(num2, den2)) == (want1, want2)
            assert (den1, den2) == (cfg.alpha2.denominator, cfg.alpha1.denominator)


@pytest.mark.parametrize("given, value", [(0, F(0)), (1, F(1)), ("0/5", F(0))])
def test_range_checks_accept_both_ends(given, value):
    """A quality or a weight at either end of [0, 1] is taken as given."""
    cfg = SystemConfig(3, 2, 1, given, given)
    assert (cfg.alpha1, cfg.alpha2) == (value, value)
    assert type(cfg.alpha1) is F and type(cfg.alpha2) is F
    for plan in (plan_schedule(cfg, given), plan_tdma(cfg, given)):
        assert F(plan.tau1, plan.tau1 + plan.tau2) == value


@pytest.mark.parametrize(
    "given", ["1000001/1000000", F(1000001, 1000000), "-1/1000000", F(-1, 1000000)]
)
def test_range_checks_refuse_just_outside(given):
    """One millionth past either end of [0, 1] is refused, with the value
    in the message."""
    cfg = SystemConfig(3, 2, 1)
    cases = [
        (lambda: SystemConfig(3, 2, 1, given), errors.InvalidAlpha, "alpha1"),
        (lambda: SystemConfig(3, 2, 1, 1, given), errors.InvalidAlpha, "alpha2"),
        (lambda: cfg.with_quality(0, given), errors.InvalidAlpha, "alpha2"),
        (lambda: plan_schedule(cfg, given), errors.InvalidWeight, "weight"),
        (lambda: plan_tdma(cfg, given), errors.InvalidWeight, "weight"),
    ]
    for build, error, name in cases:
        with pytest.raises(ValueError) as info:
            build()
        assert type(info.value) is error
        assert str(info.value) == f"{name} must lie in [0, 1], got {given}"


class TestHalfPlane:
    def test_rejects_degenerate_normal(self):
        with pytest.raises(ValueError):
            HalfPlane(F(0), F(0), F(1))
        with pytest.raises(ValueError):
            HalfPlane(F(-1), F(1), F(1))

    def test_from_intercepts(self):
        hp = HalfPlane.from_intercepts(F(3), F(3, 2))
        assert (hp.p, hp.q, hp.r) == (F(1, 3), F(2, 3), F(1))
        assert hp.contains(F(3), F(0))
        assert hp.is_tight_at(F(3), F(0))
        assert not hp.contains(F(3), F(1, 100))

    @given(x=st.fractions(min_value=F(1, 10**6), max_value=10**6),
           y=st.fractions(min_value=F(1, 10**6), max_value=10**6))
    @example(x=F(3), y=F(3, 2))
    @example(x=F(4, 6), y=F(6, 4))
    def test_from_intercepts_equals_the_constructor(self, x, y):
        # built from the intercepts' integers, the plane is the one the
        # constructor builds from its coefficients, scaled form and all
        built = HalfPlane.from_intercepts(x, y)
        typed = HalfPlane(1 / x, 1 / y, F(1))
        assert built == typed and hash(built) == hash(typed) and repr(built) == repr(typed)
        assert built.scaled == typed.scaled
        assert all(type(c) is F for c in (built.p, built.q, built.r))

    def test_from_intercepts_rejects_nonpositive(self):
        for x, y in ((0, 1), (1, 0), (F(-1, 2), 1), (1, -3)):
            with pytest.raises(ValueError, match="^intercepts must be positive$"):
                HalfPlane.from_intercepts(x, y)

    def test_json_round_trip(self):
        hp = HalfPlane(F(1, 3), F(2, 7), F(1))
        assert HalfPlane.from_json_dict(hp.to_json_dict()) == hp


class TestValueSemantics:
    """A constraint and a region as values: what ==, hash, repr, pickling,
    copying and assignment do, whatever a HalfPlane stores."""

    cfg = SystemConfig(3, 2, 1, "1/2", "1/3")
    # min(N1 + alpha2*N2, M) = 7/3 and min(N2, M) = 1; min(N1, M) = 2 and
    # min(N2 + alpha1*N1, M) = 2
    typed = (HalfPlane(F(3, 7), F(1), F(1)), HalfPlane(F(1, 2), F(1, 2), F(1)))

    def test_repr(self):
        assert repr(dof_region(self.cfg).constraints[0]) == (
            "HalfPlane(p=Fraction(3, 7), q=Fraction(1, 1), r=Fraction(1, 1))"
        )

    def test_equality_and_hash(self):
        built = dof_region(self.cfg).constraints
        assert built == self.typed
        assert [hash(hp) for hp in built] == [hash(hp) for hp in self.typed]
        assert HalfPlane.from_intercepts(F(7, 3), 1) == self.typed[0]
        assert HalfPlane(2, 2, 2) != HalfPlane(1, 1, 1)
        assert HalfPlane(F(1, 2), F(1, 2), F(1, 2)) != HalfPlane(1, 1, 1)
        assert self.typed[0] != (F(3, 7), F(1), F(1))

    def test_frozen(self):
        hp = dof_region(self.cfg).constraints[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            hp.p = F(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            hp.scaled = (1, 1, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del hp.p
        assert hp == self.typed[0]

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_and_deepcopy(self, protocol):
        def copies(value):
            yield pickle.loads(pickle.dumps(value, protocol))
            yield copy.deepcopy(value)

        for hp in dof_region(self.cfg).constraints + self.typed:
            for back in copies(hp):
                assert back == hp and hash(back) == hash(hp) and repr(back) == repr(hp)
                assert back.scaled == hp.scaled

        shape = dof_region(self.cfg)
        for enumerate_first in (False, True):
            if enumerate_first:
                shape.vertices()
            for back in copies(shape):
                assert back == shape and hash(back) == hash(shape) and repr(back) == repr(shape)
                assert back.vertices() == shape.vertices()
                assert back.to_json_dict() == shape.to_json_dict()


    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_points_of_the_geometry_are_constructed_points(self, protocol):
        """Vertices, corners and achieved DoF skip DofPoint's parse of their
        Fractions; as values they are the points the constructor builds."""
        cfg = self.cfg
        built = [*dof_region(cfg).vertices(), corner_point(cfg),
                 representative_corner(SystemConfig(2, 1, 1, 0, 0)),
                 achieved_dof(plan_schedule(cfg, F(1, 2)), cfg)]
        assert [tuple(point) for point in built] == [
            (0, 0), (2, 0), (F(7, 4), F(1, 4)), (0, 1), (F(7, 4), F(1, 4)),
            (F(1, 2), F(1, 2)), (F(7, 9), F(2, 3)),
        ]
        for point in built:
            typed = DofPoint(point.d1, point.d2)
            back = pickle.loads(pickle.dumps(point, protocol))
            assert point == typed == back and hash(point) == hash(typed) == hash(back)
            assert repr(point) == repr(typed) == repr(back)
            assert vars(point) == vars(typed) == vars(back)
            assert all(type(c) is F for c in (*point, *back))
            with pytest.raises(dataclasses.FrozenInstanceError):
                point.d1 = F(0)


class TestAsRatio:
    def test_bool_is_not_a_rational(self):
        for value in (True, False):
            with pytest.raises(TypeError, match="bool"):
                rational.as_ratio(value)
        with pytest.raises(TypeError):
            SystemConfig(2, 1, 1, True, False)

    def test_digit_limit(self):
        limit = rational.DIGIT_LIMIT
        accepted = {
            "1/" + "9" * limit: F(1, 10**limit - 1),
            "1e-" + str(limit - 1): F(1, 10 ** (limit - 1)),
            "0." + "0" * (limit - 2) + "1": F(1, 10 ** (limit - 1)),
            "1" * limit: F(int("1" * limit)),
            "1e" + str(limit - 1): F(10 ** (limit - 1)),
            " -00" + "3" * limit + "/10 ": F(-int("3" * limit), 10),
        }
        for text, value in accepted.items():
            assert rational.as_ratio(text) == value
        for text in ("1/" + "9" * (limit + 1), "1e-" + str(limit), "0." + "0" * (limit - 1) + "1",
                     "1" * (limit + 1), "1e" + str(limit), "0e-" + str(limit),
                     "1e-10000000", "1e" + "9" * 30):
            with pytest.raises(ValueError, match=f"^a rational of more than {limit} digits$"):
                rational.as_ratio(text)

    # a float that is not finite is no rational, whatever it stands for
    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: SystemConfig(2, 1, 1, float("inf")), errors.InvalidAlpha,
             "alpha1 is not a rational: inf"),
            (lambda: SystemConfig(2, 1, 1, 1, float("nan")), errors.InvalidAlpha,
             "alpha2 is not a rational: nan"),
            (lambda: plan_schedule(SystemConfig(2, 1, 1), float("nan")), errors.InvalidWeight,
             "weight is not a rational: nan"),
            (lambda: plan_tdma(SystemConfig(2, 2, 2), float("-inf")), errors.InvalidWeight,
             "weight is not a rational: -inf"),
            (lambda: HalfPlane(float("inf"), 1, 1), errors.InvalidConfig,
             "not a rational: inf"),
        ],
        ids=["alpha-infinite", "alpha-nan", "schedule-weight-nan", "tdma-weight-infinite",
             "coefficient-infinite"],
    )
    def test_non_finite_float_is_a_typed_error(self, build, error, message):
        with pytest.raises(ValueError) as info:
            build()
        assert type(info.value) is error and isinstance(info.value, errors.DoflabError)
        assert str(info.value) == message


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789_./eE+- x", max_size=10))
@example("1e999999")
@example("1.e-5")
@example("._1")
@example("0/ 1")
@example("1 /2")
def test_as_ratio_parses_as_fraction_does(text):
    """Within the digit limit, a string parses to Fraction's value or is
    rejected by both; the limit is checked before Fraction sees it. A space
    inside the literal is refused on every Python version, though Fraction
    takes one at the slash from 3.12 on."""
    inner_space = " " in text.strip()
    try:
        value = rational.as_ratio(text)
    except ValueError as exc:
        if str(exc).startswith("a rational of more than"):
            return
        if not inner_space:
            with pytest.raises((ValueError, ZeroDivisionError)):
                F(text)
    else:
        assert not inner_space
        assert value == F(text)


class TestRegionConstruction:
    def test_symmetric_single_antenna_users(self):
        # caps: min{1+a, 2} = 1+a on both sides
        for alpha in (F(0), F(1, 4), F(1, 2), F(1)):
            region = dof_region(SystemConfig(2, 1, 1, alpha, alpha))
            assert intercepts(region) == {(1 + alpha, F(1)), (F(1), 1 + alpha)}

    def test_zero_quality_collapses(self):
        region = dof_region(SystemConfig(2, 1, 1, F(0), F(0)))
        assert intercepts(region) == {(F(1), F(1))}
        assert len(region.constraints) == 2  # coincident, kept as-is

    def test_asymmetric_antennas(self):
        region = dof_region(SystemConfig(3, 2, 1, F(1), F(1)))
        assert intercepts(region) == {(F(3), F(1)), (F(2), F(3))}

    def test_no_csit_helper(self):
        assert intercepts(no_csit_region(SystemConfig(2, 1, 1))) == {(F(1), F(1))}
        # both substituted constraints coincide at d1 + d2/2 <= 1; as a set
        # that equals the two-constraint time-sharing form
        wide = no_csit_region(SystemConfig(2, 1, 2))
        assert intercepts(wide) == {(F(1), F(2))}
        sharing_form = DofRegion(
            [HalfPlane.from_intercepts(2, 2), HalfPlane.from_intercepts(1, 2)]
        )
        assert region_equal(wide, sharing_form)
        assert intercepts(no_csit_region(SystemConfig(1, 1, 1))) == {(F(1), F(1))}

    def test_delayed_helper(self):
        assert intercepts(delayed_csit_region(SystemConfig(2, 1, 1))) == {
            (F(2), F(1)),
            (F(1), F(2)),
        }
        assert intercepts(delayed_csit_region(SystemConfig(3, 2, 1))) == {
            (F(3), F(1)),
            (F(2), F(3)),
        }
        assert intercepts(delayed_csit_region(SystemConfig(1, 2, 2))) == {(F(1), F(1))}


class TestCorner:
    def test_symmetric_formula(self):
        for alpha in (F(1, 4), F(1, 2), F(3, 4), F(1)):
            point = corner_point(SystemConfig(2, 1, 1, alpha, alpha))
            expect = (1 + alpha) / (2 + alpha)
            assert (point.d1, point.d2) == (expect, expect)

    def test_asymmetric(self):
        point = corner_point(SystemConfig(3, 2, 1, F(1), F(1)))
        assert (point.d1, point.d2) == (F(12, 7), F(3, 7))

    def test_degenerate(self):
        with pytest.raises(DegenerateCorner):
            corner_point(SystemConfig(2, 1, 1, F(0), F(0)))
        with pytest.raises(DegenerateCorner):
            corner_point(SystemConfig(1, 2, 2, F(1), F(1)))  # M=1 caps everything

    def test_representative_fallback(self):
        point = representative_corner(SystemConfig(2, 1, 1, F(0), F(0)))
        assert (point.d1, point.d2) == (F(1, 2), F(1, 2))
        live = representative_corner(SystemConfig(2, 1, 1, F(1), F(1)))
        assert (live.d1, live.d2) == (F(2, 3), F(2, 3))


class TestVertices:
    def test_delayed_square_corner(self):
        verts = dof_region(SystemConfig(2, 1, 1, F(1), F(1))).vertices()
        assert [(v.d1, v.d2) for v in verts] == [
            (F(0), F(0)),
            (F(1), F(0)),
            (F(2, 3), F(2, 3)),
            (F(0), F(1)),
        ]

    def test_unit_simplex(self):
        region = DofRegion([HalfPlane(F(1), F(1), F(1))])
        assert [(v.d1, v.d2) for v in region.vertices()] == [
            (F(0), F(0)),
            (F(1), F(0)),
            (F(0), F(1)),
        ]

    def test_asymmetric(self):
        verts = dof_region(SystemConfig(3, 2, 1, F(1), F(1))).vertices()
        assert [(v.d1, v.d2) for v in verts] == [
            (F(0), F(0)),
            (F(2), F(0)),
            (F(12, 7), F(3, 7)),
            (F(0), F(1)),
        ]

    def test_unbounded(self):
        with pytest.raises(UnboundedRegion):
            DofRegion([HalfPlane(F(1), F(0), F(1))]).vertices()
        with pytest.raises(UnboundedRegion):
            DofRegion([]).vertices()

    def test_counterclockwise_convex(self):
        region = dof_region(SystemConfig(4, 2, 1, F(1, 3), F(2, 3)))
        verts = [(v.d1, v.d2) for v in region.vertices()]
        n = len(verts)
        for i in range(n):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % n]
            cx, cy = verts[(i + 2) % n]
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            assert cross >= 0

    def test_permutation_invariance(self):
        cfg = SystemConfig(5, 3, 2, F(2, 5), F(3, 4))
        region = dof_region(cfg)
        swapped = DofRegion(region.constraints[::-1])
        assert region.vertices() == swapped.vertices()


class TestPredicates:
    def test_contains_boundary(self):
        region = dof_region(SystemConfig(2, 1, 1, F(1, 2), F(1, 2)))
        assert region.contains((F(3, 5), F(3, 5)))
        assert not region.contains((F(3, 5) + F(1, 1000), F(3, 5)))
        assert not region.contains((F(-1, 10), F(0)))

    def test_subset_sandwich(self):
        cfg = SystemConfig(2, 1, 1, F(1, 2), F(1, 2))
        assert is_subset(no_csit_region(cfg), dof_region(cfg))
        assert is_subset(dof_region(cfg), delayed_csit_region(cfg))
        assert not is_subset(delayed_csit_region(cfg), no_csit_region(cfg))

    def test_region_equal(self):
        a = dof_region(SystemConfig(2, 1, 1, F(1), F(1)))
        b = DofRegion(a.constraints[::-1])
        assert region_equal(a, b)
        assert not region_equal(a, no_csit_region(SystemConfig(2, 1, 1)))

    def test_area(self):
        assert DofRegion([HalfPlane(F(1), F(1), F(1))]).area() == F(1, 2)
        # square corner at 2/3: two triangles against the axes
        region = dof_region(SystemConfig(2, 1, 1, F(1), F(1)))
        assert region.area() == F(2, 3)

    def test_corner_in_vertices(self):
        for cfg in (
            SystemConfig(2, 1, 1, F(1), F(1)),
            SystemConfig(3, 2, 1, F(1, 2), F(3, 4)),
            SystemConfig(2, 1, 2, F(1), F(1)),  # corner lands on an axis
        ):
            corner = corner_point(cfg)
            assert tuple(corner) in {tuple(v) for v in dof_region(cfg).vertices()}


def test_vertex_set_is_enumerated_once(monkeypatch):
    """vertices, region_equal, is_subset, area and to_json_dict share one
    enumeration per region, an ordered tuple of integer triples, which stays
    out of the dataclass's view."""
    calls = []
    enumerate_vertices = region._enumerate_vertices

    def counted(scaled):
        calls.append(scaled)
        return enumerate_vertices(scaled)

    monkeypatch.setattr(region, "_enumerate_vertices", counted)
    cfg = SystemConfig(4, 3, 2, F(2, 7), F(5, 6))
    shape, other = dof_region(cfg), delayed_csit_region(cfg)
    fresh = DofRegion(shape.constraints)
    other.vertices()
    calls.clear()
    for _ in range(2):
        verts = shape.vertices()
        assert region_equal(shape, other) is False and region_equal(other, shape) is False
        assert is_subset(shape, other) and not is_subset(other, shape)
        assert shape.area() > 0
        data = shape.to_json_dict()
    assert calls == [[hp.scaled for hp in shape.constraints]]
    # the one enumeration is the vertices in order, as reduced triples
    triples = shape._vertex_triples()
    assert type(triples) is tuple and vars(shape)["_vertices"] is triples
    assert [(F(x, det), F(y, det)) for x, y, det in triples] == [tuple(v) for v in verts]
    assert all(det > 0 and gcd(x, y, det) == 1 for x, y, det in triples)

    # the stored tuple is no field: equality, hashing, repr, the fields and
    # the JSON form are those of a region that never enumerated
    assert [f.name for f in dataclasses.fields(shape)] == ["constraints"]
    assert shape == fresh and hash(shape) == hash(fresh) and repr(shape) == repr(fresh)
    assert repr(triples) not in repr(shape)
    assert data == {"constraints": [hp.to_json_dict() for hp in shape.constraints],
                    "vertices": [[str(v.d1), str(v.d2)] for v in verts]}
    back = DofRegion.from_json_dict(data)
    assert back == shape and back.to_json_dict() == data
    assert len(calls) == 2  # back's own set; ==, hash and repr enumerate none

    # an unbounded region raises on every read, enumerating again each
    # time, and stores no memo
    unbounded = DofRegion([HalfPlane(F(1), F(0), F(1))])
    reads = (unbounded.vertices, unbounded.area, unbounded.to_json_dict,
             lambda: is_subset(unbounded, shape), lambda: region_equal(unbounded, shape),
             lambda: region_equal(shape, unbounded))
    calls.clear()
    for _ in range(2):
        for read in reads:
            with pytest.raises(UnboundedRegion):
                read()
            assert "_vertices" not in vars(unbounded)
    assert len(calls) == 2 * len(reads)


def test_builders_construct_no_fraction(monkeypatch):
    """The region builders, and the checks that compare regions or test a
    point, work on SystemConfig's integers and construct no Fraction; p, q
    and r read afterwards are the coefficients computed in Fractions."""
    grid = grid_configs()
    assert len(grid) == GRID_SIZE
    configs = grid[::27]  # 200 of 5400
    points = [representative_corner(cfg) for cfg in configs]

    made = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    built = []
    for cfg, point in zip(configs, points):
        regions = dof_region(cfg), converse_region(cfg), achievable_region(cfg)
        assert region_equal(regions[1], regions[0]) and region_equal(regions[2], regions[0])
        assert is_subset(regions[0], regions[1]) and is_subset(regions[2], regions[0])
        assert all(shape.contains(point) for shape in regions)
        built.append(regions)
    assert made == []
    monkeypatch.undo()

    for cfg, (shape, converse, achievable) in zip(configs, built):
        a, d = F(min(cfg.n1, cfg.m)), F(min(cfg.n2, cfg.m))
        c = min(cfg.n1 + cfg.alpha2 * cfg.n2, F(cfg.m))
        b = min(cfg.n2 + cfg.alpha1 * cfg.n1, F(cfg.m))
        bounds = [(1 / c, 1 / d, F(1)), (1 / a, 1 / b, F(1))]
        if cfg.n2 < cfg.m:
            scheme = [(1 / c, F(1, cfg.n2), F(1)), (F(1, cfg.n1), 1 / b, F(1))]
        else:
            scheme = [(F(1, cfg.m), F(1, cfg.m), F(1)), (1 / a, F(1, cfg.m), F(1))]
        for regions, want in ((shape, bounds), (converse, bounds), (achievable, scheme)):
            got = [(hp.p, hp.q, hp.r) for hp in regions.constraints]
            assert got == want
            assert all(type(value) is F for coefficients in got for value in coefficients)


class TestSerialization:
    def test_region_json_schema(self):
        region = dof_region(SystemConfig(3, 2, 1, F(1), F(1)))
        data = region.to_json_dict()
        assert set(data) == {"constraints", "vertices"}
        assert data["constraints"][0] == {"p": "1/3", "q": "1", "r": "1"}
        assert ["12/7", "3/7"] in data["vertices"]

    def test_round_trip(self):
        region = dof_region(SystemConfig(4, 3, 2, F(2, 7), F(5, 6)))
        back = DofRegion.from_json_dict(region.to_json_dict())
        assert region_equal(region, back)
        assert back.constraints == region.constraints


ratio = st.fractions(min_value=0, max_value=1, max_denominator=16)
antenna = st.integers(min_value=1, max_value=6)


@settings(max_examples=120, deadline=None)
@given(m=antenna, n1=antenna, n2=antenna, a1=ratio, a2=ratio, b1=ratio, b2=ratio)
def test_monotone_nesting(m, n1, n2, a1, a2, b1, b2):
    lo1, hi1 = sorted((a1, b1))
    lo2, hi2 = sorted((a2, b2))
    small = dof_region(SystemConfig(m, n1, n2, lo1, lo2))
    large = dof_region(SystemConfig(m, n1, n2, hi1, hi2))
    assert is_subset(small, large)
    assert small.area() <= large.area()


@settings(max_examples=120, deadline=None)
@given(m=antenna, n1=antenna, n2=antenna, a1=ratio, a2=ratio)
def test_sandwich_property(m, n1, n2, a1, a2):
    cfg = SystemConfig(m, n1, n2, a1, a2)
    assert is_subset(no_csit_region(cfg), dof_region(cfg))
    assert is_subset(dof_region(cfg), delayed_csit_region(cfg))


@settings(max_examples=100, deadline=None)
@given(m=antenna, n1=antenna, n2=antenna, a1=ratio, a2=ratio)
def test_corner_defined_iff_lines_distinct(m, n1, n2, a1, a2):
    cfg = SystemConfig(m, n1, n2, a1, a2)
    a, b = F(min(n1, m)), min(n2 + cfg.alpha1 * n1, F(m))
    c, d = min(n1 + cfg.alpha2 * n2, F(m)), F(min(n2, m))
    if a * d - b * c == 0:
        with pytest.raises(DegenerateCorner):
            corner_point(cfg)
    else:
        point = corner_point(cfg)
        assert point.d1 >= 0 and point.d2 >= 0
        region = dof_region(cfg)
        assert all(hp.is_tight_at(point.d1, point.d2) for hp in region.constraints)
        assert tuple(point) in {tuple(v) for v in region.vertices()}


def outcome(predicate, *args):
    """The predicate's value, or the type of the error it raised."""
    try:
        return predicate(*args)
    except UnboundedRegion:
        return UnboundedRegion


LIMIT = rational.DENOMINATOR_LIMIT
# small values often give parallel, coincident and concurrent lines; the
# rest reach the largest denominator the package parses from a float
coefficient = st.sampled_from([F(0), F(1), F(2), F(1, 2), F(1, 3), F(3, 2)]) | st.fractions(
    min_value=0, max_value=4, max_denominator=LIMIT
)
half_plane = st.tuples(coefficient, coefficient, coefficient).filter(
    lambda c: c[0] or c[1]
).map(lambda c: HalfPlane(*c))
coordinate = st.sampled_from([F(0), F(1), F(1, 2), F(-1, LIMIT)]) | st.fractions(
    min_value=-1, max_value=5, max_denominator=LIMIT
)
nudge = st.sampled_from([F(0), F(1, LIMIT), F(-1, LIMIT)])


@st.composite
def constraint_lists(draw):
    """0-5 half-planes: random ones, then duplicates, positive multiples and
    looser parallels of them, in any order."""
    planes = draw(st.lists(half_plane, max_size=5))
    for _ in range(draw(st.integers(0, 5 - len(planes))) if planes else 0):
        hp = draw(st.sampled_from(planes))
        k = draw(coefficient.filter(bool))
        planes.append(
            draw(
                st.sampled_from(
                    [hp, HalfPlane(k * hp.p, k * hp.q, k * hp.r), HalfPlane(hp.p, hp.q, hp.r + k)]
                )
            )
        )
    return draw(st.permutations(planes))


@settings(max_examples=300, deadline=None)
@given(
    planes=constraint_lists(),
    others=constraint_lists(),
    nudges=st.lists(st.tuples(nudge, nudge), min_size=8, max_size=8),
    extra=st.lists(st.tuples(coordinate, coordinate), max_size=4),
)
@example(planes=[HalfPlane(1, 1, 0)], others=[], nudges=[(0, 0)] * 8, extra=[])
@example(
    planes=[HalfPlane(1, 0, 1), HalfPlane(0, 1, 1), HalfPlane(1, 1, 2), HalfPlane(2, 2, 4)],
    others=[HalfPlane(1, 1, 2)],
    nudges=[(0, 0)] * 8,
    extra=[],
)
@example(
    planes=[HalfPlane(1, 0, 1), HalfPlane(0, 1, 1), HalfPlane(1, 1, 2)],
    others=[HalfPlane(2, 0, 2), HalfPlane(0, 1, 1)],
    nudges=[(0, 0)] * 8,
    extra=[],
)
# two crossings off the axes, (2, 1) and then (1, 2) by increasing d2
@example(
    planes=[HalfPlane(1, 1, 3), HalfPlane(1, 2, 5), HalfPlane(2, 1, 5)],
    others=[],
    nudges=[(0, 0)] * 8,
    extra=[],
)
def test_integer_geometry_matches_fraction_oracle(planes, others, nudges, extra):
    """vertices (values and order), contains, is_subset, region_equal and
    UnboundedRegion agree with the Fraction reference on arbitrary
    constraint lists; the points probed are the vertices, each moved by at
    most 1/LIMIT per coordinate, and a few arbitrary ones. region_equal
    raises UnboundedRegion when either region is unbounded."""
    region, other = DofRegion(planes), DofRegion(others)
    found = [outcome(reference_vertices, shape) for shape in (region, other)]
    expect = found[0]
    if expect is UnboundedRegion:
        with pytest.raises(UnboundedRegion):
            region.vertices()
        expect = []
    else:
        verts = region.vertices()
        assert all(type(c) is F for v in verts for c in v)
        assert [tuple(v) for v in verts] == expect
    points = [(x + dx, y + dy) for (x, y), (dx, dy) in zip(expect, nudges)] + extra
    for point in points:
        assert region.contains(point) == reference_contains(region, point)
        assert other.contains(point) == reference_contains(other, point)
    forward = reference_is_subset(found[0], other)
    backward = reference_is_subset(found[1], region)
    assert outcome(is_subset, region, other) == forward
    assert outcome(is_subset, other, region) == backward
    if UnboundedRegion in (forward, backward):
        equal = UnboundedRegion
    else:
        equal = forward and backward
    assert outcome(region_equal, region, other) == equal
    assert outcome(region_equal, other, region) == equal


# small integers make parallel, coincident, concurrent and axis-parallel
# lines, zero intercepts and redundant constraints common
integer_plane = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 6)).filter(
    lambda c: c[0] or c[1]
).map(lambda c: HalfPlane(*c))


def constraints(*coefficients):
    return [HalfPlane(*c) for c in coefficients]


@settings(max_examples=400, deadline=None)
@given(planes=st.lists(integer_plane, max_size=6), others=st.lists(integer_plane, max_size=6))
# a zero intercept: the region is the origin alone
@example(planes=constraints((1, 2, 0), (2, 1, 3)), others=constraints((1, 1, 0)))
# p = 0 and q = 0: a rectangle cut by a diagonal, and without it
@example(planes=constraints((0, 1, 2), (1, 0, 3), (1, 1, 4)), others=constraints((0, 1, 2), (1, 0, 3)))
# duplicate and proportional constraints
@example(
    planes=constraints((1, 2, 3), (1, 2, 3), (2, 4, 6), (2, 1, 3)),
    others=constraints((2, 1, 3), (1, 2, 3)),
)
# a redundant constraint, whose crossings lie in the quadrant but outside
@example(planes=constraints((1, 1, 2), (2, 1, 5), (1, 2, 5)), others=constraints((1, 1, 2)))
# three constraints through one vertex
@example(planes=constraints((1, 2, 3), (2, 1, 3), (1, 1, 2)), others=constraints((1, 2, 3), (2, 1, 3)))
# a single point, as one constraint and as two
@example(planes=constraints((1, 1, 0)), others=constraints((1, 0, 0), (0, 1, 0)))
# segments on the d1-axis and on the d2-axis, each with a crossing on it
@example(planes=constraints((0, 1, 0), (1, 0, 2), (1, 1, 2)), others=constraints((1, 0, 0), (1, 1, 2)))
# a crossing on the d2-axis, which is that axis's vertex; without the
# constraint through it, a top edge along d2 = 2
@example(planes=constraints((0, 1, 2), (1, 1, 3), (1, 2, 4)), others=constraints((0, 1, 2), (1, 1, 3)))
def test_ordered_enumeration_matches_pairwise_oracle(planes, others):
    """The ordered enumeration, which reads the axis vertices off the
    smallest intercepts and solves only pairs of constraints, agrees with
    the pairwise Fraction oracle over constraints and axes: vertices with
    their order, area, region_equal, is_subset and UnboundedRegion."""
    shapes = DofRegion(planes), DofRegion(others)
    expected = [outcome(reference_vertices, shape) for shape in shapes]
    for shape, expect in zip(shapes, expected):
        if expect is UnboundedRegion:
            with pytest.raises(UnboundedRegion):
                shape.vertices()
            with pytest.raises(UnboundedRegion):
                shape.area()
        else:
            assert [tuple(v) for v in shape.vertices()] == expect
            assert shape.area() == reference_area(expect)
    if UnboundedRegion in expected:
        for pair in (shapes, shapes[::-1]):
            with pytest.raises(UnboundedRegion):
                region_equal(*pair)
    else:
        same = expected[0] == expected[1]
        assert region_equal(*shapes) is same and region_equal(*shapes[::-1]) is same
    for (inner, outer), vertices in zip((shapes, shapes[::-1]), expected):
        assert outcome(is_subset, inner, outer) == reference_is_subset(vertices, outer)
