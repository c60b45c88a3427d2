"""Exact degrees-of-freedom regions for the two-user MIMO broadcast channel.

The channel has an M-antenna transmitter and receivers with N1 and N2
antennas. CSIT is completely outdated (delayed by at least one coherence
block) and of imperfect quality: the feedback for user i carries
``alpha_i * log2(rho)`` bits per channel coefficient at SNR ``rho``, so
``alpha_i`` in [0, 1] measures how far the fed-back estimate is above the
noise floor (0 = no usable CSIT, 1 = estimation error at the noise floor).

A DoF region here is an intersection of half-planes ``p*d1 + q*d2 <= r`` in
the nonnegative quadrant. All coefficients and all derived quantities
(vertices, areas, corner points) are exact rationals; nothing in this module
touches floating point.

``Fraction`` is the type at the API: the fields of ``SystemConfig`` and
``DofPoint``, the coefficients ``p``, ``q``, ``r`` of a ``HalfPlane``, and
every value a function returns. The arithmetic behind them runs on plain
integers, which is just as exact and avoids a gcd per step: the enhanced
dimensions are summed and capped on numerators over the alpha's
denominator, once, when a ``SystemConfig`` is built, and the corner is
solved over the common denominator of the enhanced dimensions. The range
checks of a quality (and, in ``scheme``, of a weight) compare the
numerator with the denominator. A ``HalfPlane`` is stored as integers, its
constraint scaled by the common denominator of its coefficients, and
builds ``p``, ``q`` and ``r`` only when they are read; the region builders
hand it the integer intercepts of ``SystemConfig`` directly, so building,
comparing and testing points against regions construct no ``Fraction``.
A ``DofRegion`` enumerates its vertices at most once, as one
counterclockwise tuple of integer triples kept as a plain instance
attribute, and ``vertices``, ``area``, ``is_subset``, ``region_equal`` and
the JSON form share that one tuple.
The coefficients are nonnegative, so each axis meets the region up to the
smallest intercept on it: the axis vertices are read off the constraints,
and only pairs of constraints are solved for the vertices between them.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator

from .errors import DegenerateCorner, InvalidAlpha, InvalidConfig, UnboundedRegion
from .rational import RatioLike, as_ratio

__all__ = [
    "SystemConfig",
    "HalfPlane",
    "DofPoint",
    "DofRegion",
    "dof_region",
    "no_csit_region",
    "delayed_csit_region",
    "corner_point",
    "representative_corner",
    "is_subset",
    "region_equal",
]

_ZERO = Fraction(0)  # every zero coordinate of a vertex


def _check_quality(name: str, given: RatioLike) -> Fraction:
    """The one rule for a CSIT quality: ``given`` parsed by ``as_ratio``
    and in [0, 1], else ``InvalidAlpha`` naming ``name`` and showing the
    quality as it was given."""
    try:
        value = as_ratio(given)
    except InvalidConfig as exc:
        raise InvalidAlpha(f"{name} is {exc}")
    if not 0 <= value.numerator <= value.denominator:
        raise InvalidAlpha(f"{name} must lie in [0, 1], got {given}")
    return value


@dataclass(frozen=True)
class SystemConfig:
    """Antenna counts and CSIT qualities of one channel instance.

    m, n1, n2   -- transmit / receive antenna counts (positive integers)
    alpha1, alpha2 -- CSIT quality exponents, exact rationals in [0, 1];
                      given as anything ``as_ratio`` parses, kept as Fraction

    These are the only checks of the antenna counts: a bad count raises
    ``InvalidConfig``. Each quality goes through ``_check_quality``.

    Construction also derives both enhanced dimensions once, as the flat
    integer tuple ``_enhanced_ints``; it is not a field, so equality,
    hashing, repr and ``dataclasses.fields`` see only the five above.
    """

    m: int
    n1: int
    n2: int
    alpha1: Fraction = Fraction(1)
    alpha2: Fraction = Fraction(1)

    def __post_init__(self):
        for name in ("m", "n1", "n2"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise InvalidConfig(f"{name} must be a positive integer, got {value!r}")
        alpha1 = _check_quality("alpha1", self.alpha1)
        alpha2 = _check_quality("alpha2", self.alpha2)
        object.__setattr__(self, "alpha1", alpha1)
        object.__setattr__(self, "alpha2", alpha2)
        # min(N_rx + alpha_other * N_other, M) over alpha_other's denominator
        m, n1, n2 = self.m, self.n1, self.n2
        den1, den2 = alpha2.denominator, alpha1.denominator
        object.__setattr__(
            self,
            "_enhanced_ints",
            (
                min(n1 * den1 + alpha2.numerator * n2, m * den1),
                den1,
                min(n2 * den2 + alpha1.numerator * n1, m * den2),
                den2,
            ),
        )

    def _spatial(self, rx: int) -> tuple[int, int]:
        """min(N_rx, M): receive dimension actually usable by receiver rx,
        as integers ``(num, 1)``."""
        return min(self.n1 if rx == 1 else self.n2, self.m), 1

    def _enhanced(self, rx: int) -> tuple[int, int]:
        """Receive dimension of receiver rx once the other user's overheard
        equations are credited at that user's CSIT quality:
        min(N_rx + alpha_other * N_other, M), fractional in general. As
        integers ``(num, den)``, not in lowest terms: ``den`` is the other
        user's alpha denominator. Read off ``_enhanced_ints``, which holds
        ``(num, den)`` of receiver 1 then of receiver 2."""
        ints = self._enhanced_ints
        return ints[:2] if rx == 1 else ints[2:]

    def with_quality(self, alpha1: RatioLike, alpha2: RatioLike) -> "SystemConfig":
        return SystemConfig(self.m, self.n1, self.n2, alpha1, alpha2)


class HalfPlane:
    """Constraint ``p*d1 + q*d2 <= r`` with exact nonnegative coefficients.

    The constraint is stored as integers: ``scaled`` is ``(P, Q, R)``, that
    is p, q and r times their common denominator, the lcm of their
    denominators, which is stored too. ``p``, ``q`` and ``r`` are
    ``Fraction``s built from these integers when read. As a value a plane
    is its ``(p, q, r)``, as for a frozen dataclass of those three fields:
    equality, hashing, repr, the JSON form and pickling see only them, and
    assigning to a plane raises ``FrozenInstanceError``.
    """

    __slots__ = ("scaled", "_den")
    __match_args__ = ("p", "q", "r")

    def __init__(self, p: RatioLike, q: RatioLike, r: RatioLike):
        p, q, r = as_ratio(p), as_ratio(q), as_ratio(r)
        den = lcm(p.denominator, q.denominator, r.denominator)
        scaled = (
            p.numerator * (den // p.denominator),
            q.numerator * (den // q.denominator),
            r.numerator * (den // r.denominator),
        )
        if scaled[0] < 0 or scaled[1] < 0 or scaled[2] < 0:
            raise InvalidConfig("half-plane coefficients must be nonnegative")
        if scaled[0] == 0 and scaled[1] == 0:
            raise InvalidConfig("half-plane needs a nonzero normal")
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "_den", den)

    @classmethod
    def from_intercepts(cls, d1_max: RatioLike, d2_max: RatioLike) -> "HalfPlane":
        """Build ``d1/d1_max + d2/d2_max <= 1`` from positive axis intercepts."""
        x, y = as_ratio(d1_max), as_ratio(d2_max)
        return cls._from_ratios((x.numerator, x.denominator), (y.numerator, y.denominator))

    @classmethod
    def _from_ratios(cls, d1_max: tuple[int, int], d2_max: tuple[int, int]) -> "HalfPlane":
        """``from_intercepts`` for intercepts given as integer pairs
        ``(num, den)`` with ``den > 0``, not necessarily in lowest terms.

        With ``d1_max = xn/xd`` and ``d2_max = yn/yd`` in lowest terms, the
        coefficients are ``xd/xn``, ``yd/yn`` and 1, already in lowest terms,
        so their common denominator is ``L = lcm(xn, yn)`` and ``scaled`` is
        ``(xd*(L//xn), yd*(L//yn), L)``: the plane ``__init__`` would build.
        """
        (xn, xd), (yn, yd) = d1_max, d2_max
        if xn <= 0 or yn <= 0:
            raise InvalidConfig("intercepts must be positive")
        g, h = gcd(xn, xd), gcd(yn, yd)
        xn, xd, yn, yd = xn // g, xd // g, yn // h, yd // h
        den = lcm(xn, yn)
        plane = object.__new__(cls)
        object.__setattr__(plane, "scaled", (xd * (den // xn), yd * (den // yn), den))
        object.__setattr__(plane, "_den", den)
        return plane

    @property
    def p(self) -> Fraction:
        return Fraction(self.scaled[0], self._den)

    @property
    def q(self) -> Fraction:
        return Fraction(self.scaled[1], self._den)

    @property
    def r(self) -> Fraction:
        return Fraction(self.scaled[2], self._den)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._den == other._den and self.scaled == other.scaled

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.r))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(p={self.p!r}, q={self.q!r}, r={self.r!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, (self.p, self.q, self.r)

    def contains(self, d1: Fraction, d2: Fraction) -> bool:
        return self._excess(d1, d2) <= 0

    def is_tight_at(self, d1: Fraction, d2: Fraction) -> bool:
        return self._excess(d1, d2) == 0

    def _excess(self, d1: RatioLike, d2: RatioLike) -> int:
        """``P*d1 + Q*d2 - R`` times ``den(d1)*den(d2) > 0``: an integer of
        the sign of ``p*d1 + q*d2 - r``."""
        p, q, r = self.scaled
        x, y, den = _homogeneous(as_ratio(d1), as_ratio(d2))
        return p * x + q * y - r * den

    def to_json_dict(self) -> dict:
        return {"p": str(self.p), "q": str(self.q), "r": str(self.r)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "HalfPlane":
        return cls(as_ratio(data["p"]), as_ratio(data["q"]), as_ratio(data["r"]))


@dataclass(frozen=True)
class DofPoint:
    """A DoF pair (d1, d2), exact."""

    d1: Fraction
    d2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "d1", as_ratio(self.d1))
        object.__setattr__(self, "d2", as_ratio(self.d2))

    @classmethod
    def _of(cls, d1: Fraction, d2: Fraction) -> "DofPoint":
        """The point of two ``Fraction``s, without ``__post_init__``'s
        parse: the instance ``DofPoint(d1, d2)`` builds."""
        point = object.__new__(cls)
        object.__setattr__(point, "d1", d1)
        object.__setattr__(point, "d2", d2)
        return point

    def __iter__(self) -> Iterator[Fraction]:
        yield self.d1
        yield self.d2


def _homogeneous(d1: Fraction, d2: Fraction) -> tuple[int, int, int]:
    """The point as integers ``(x, y, den)`` with ``(d1, d2) = (x, y)/den``
    and ``den = den(d1)*den(d2) > 0``."""
    return (
        d1.numerator * d2.denominator,
        d2.numerator * d1.denominator,
        d1.denominator * d2.denominator,
    )


@dataclass(frozen=True)
class DofRegion:
    """Intersection of half-planes with the nonnegative quadrant."""

    constraints: tuple[HalfPlane, ...]

    def __init__(self, constraints: Iterable[HalfPlane]):
        object.__setattr__(self, "constraints", tuple(constraints))

    def contains(self, point) -> bool:
        x, y, den = _homogeneous(*map(as_ratio, point))
        return x >= 0 and y >= 0 and self._holds(x, y, den)

    def _holds(self, x: int, y: int, den: int) -> bool:
        """Whether every constraint holds at ``(x/den, y/den)``, ``den > 0``."""
        scaled = (hp.scaled for hp in self.constraints)
        return all(p * x + q * y <= r * den for p, q, r in scaled)

    def _vertex_triples(self) -> tuple[tuple[int, int, int], ...]:
        """The ordered vertices, enumerated on first use and kept in the
        instance's ``__dict__`` as ``_vertices``. They are not a field, so
        equality, hashing and repr see only the constraints. An unbounded
        region raises on every call and stores nothing."""
        triples = self.__dict__.get("_vertices")
        if triples is None:
            triples = _enumerate_vertices([hp.scaled for hp in self.constraints])
            object.__setattr__(self, "_vertices", triples)
        return triples

    def vertices(self) -> list[DofPoint]:
        """Corner points of the polygon, counterclockwise starting at (0, 0).

        Raises UnboundedRegion if some direction of the quadrant is never
        capped.
        """
        points = []
        for x, y, det in self._vertex_triples():
            d1 = _ZERO if not x else Fraction(x) if det == 1 else Fraction(x, det)
            d2 = _ZERO if not y else Fraction(y) if det == 1 else Fraction(y, det)
            points.append(DofPoint._of(d1, d2))
        return points

    def area(self) -> Fraction:
        """Exact area via the shoelace sum over the ordered vertices."""
        verts = self.vertices()
        if len(verts) < 3:
            return Fraction(0)
        total = Fraction(0)
        for k in range(len(verts)):
            ax, ay = verts[k].d1, verts[k].d2
            bx, by = verts[(k + 1) % len(verts)].d1, verts[(k + 1) % len(verts)].d2
            total += ax * by - bx * ay
        return total / 2

    def to_json_dict(self) -> dict:
        return {
            "constraints": [hp.to_json_dict() for hp in self.constraints],
            "vertices": [[str(v.d1), str(v.d2)] for v in self.vertices()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DofRegion":
        """Rebuild from the serialized constraints (vertices are recomputed)."""
        return cls(HalfPlane.from_json_dict(hp) for hp in data["constraints"])


def _enumerate_vertices(scaled: list[tuple[int, int, int]]) -> tuple[tuple[int, int, int], ...]:
    """The vertices of the region of the integer constraints ``scaled``,
    counterclockwise from the origin, as triples ``(x*det, y*det, det)``
    with ``det > 0`` in lowest terms, so equal points give equal triples.

    Every coefficient is nonnegative, so the region holds, with each of its
    points, the rectangle between that point and the origin. Its boundary
    is the origin, then the d1-axis up to the smallest intercept on it,
    then a chain of crossings of two constraints along which d2 grows, then
    the d2-axis down from its smallest intercept. A crossing on an axis is
    that axis's vertex, so only crossings off the axes are kept.
    """
    d1_cap = d2_cap = None  # smallest intercepts on the axes, as (num, den)
    for p, q, r in scaled:
        if p and (d1_cap is None or r * d1_cap[1] < d1_cap[0] * p):
            d1_cap = r, p
        if q and (d2_cap is None or r * d2_cap[1] < d2_cap[0] * q):
            d2_cap = r, q
    if d1_cap is None or d2_cap is None:
        raise UnboundedRegion("region is unbounded in the quadrant")
    crossings: list[tuple[int, int, int]] = []  # by increasing d2
    for i, (p1, q1, r1) in enumerate(scaled):
        for p2, q2, r2 in scaled[i + 1 :]:
            det = p1 * q2 - p2 * q1
            if det == 0:
                continue
            x = r1 * q2 - r2 * q1
            y = p1 * r2 - p2 * r1
            if det < 0:
                det, x, y = -det, -x, -y
            if x <= 0 or y <= 0:
                continue
            for p, q, r in scaled:
                if p * x + q * y > r * det:
                    break
            else:
                g = gcd(x, y, det)
                x, y, det = x // g, y // g, det // g
                # off the axes no two vertices share a d2: an equal d2 is this vertex
                k = len(crossings)
                while k and crossings[k - 1][1] * det > y * crossings[k - 1][2]:
                    k -= 1
                if not k or crossings[k - 1] != (x, y, det):
                    crossings.insert(k, (x, y, det))
    vertices = [(0, 0, 1)]
    r, p = d1_cap
    if r:
        g = gcd(r, p)
        vertices.append((r // g, 0, p // g))
    vertices += crossings
    r, q = d2_cap
    if r:
        g = gcd(r, q)
        vertices.append((0, r // g, q // g))
    return tuple(vertices)


def dof_region(cfg: SystemConfig) -> DofRegion:
    """The DoF region under delayed CSIT of qualities (alpha1, alpha2).

    Two constraints, one per ordering of the users: weighting user i's
    spatial dimension against the other user's enhanced dimension,

        d1 / min(N1 + alpha2*N2, M) + d2 / min(N2, M)            <= 1
        d1 / min(N1, M)             + d2 / min(N2 + alpha1*N1, M) <= 1
    """
    return DofRegion(
        [
            HalfPlane._from_ratios(cfg._enhanced(1), cfg._spatial(2)),
            HalfPlane._from_ratios(cfg._spatial(1), cfg._enhanced(2)),
        ]
    )


def no_csit_region(cfg: SystemConfig) -> DofRegion:
    """Same antenna counts, alpha1 = alpha2 = 0 (feedback carries nothing)."""
    return dof_region(cfg.with_quality(0, 0))


def delayed_csit_region(cfg: SystemConfig) -> DofRegion:
    """Same antenna counts, alpha1 = alpha2 = 1 (perfect delayed CSIT)."""
    return dof_region(cfg.with_quality(1, 1))


def _corner(cfg: SystemConfig) -> DofPoint | None:
    """``corner_point``, or None when the boundary lines coincide.

    With b = bn/bd and c = cn/cd, the closed form multiplied through by
    (bd*cd)**2 has integer numerators and an integer denominator, so a
    Fraction is built only for each coordinate.
    """
    a = min(cfg.n1, cfg.m)
    d = min(cfg.n2, cfg.m)
    bn, bd = cfg._enhanced(2)
    cn, cd = cfg._enhanced(1)
    den = bd * cd
    b, c = bn * cd, cn * bd  # b and c times den
    det = a * d * den * den - b * c
    if det == 0:
        return None
    return DofPoint._of(
        Fraction(a * c * (d * den - b), det), Fraction(b * d * (a * den - c), det)
    )


def corner_point(cfg: SystemConfig) -> DofPoint:
    """Closed-form intersection of the two boundary lines of ``dof_region``.

    With a = min(N1, M), b = min(N2 + alpha1*N1, M), c = min(N1 + alpha2*N2, M),
    d = min(N2, M), the lines d1/a + d2/b = 1 and d1/c + d2/d = 1 cross at

        ( a*c*(d - b) / (a*d - b*c),  b*d*(a - c) / (a*d - b*c) ).

    Raises DegenerateCorner when the two lines coincide (a = c and b = d),
    which happens exactly when both alphas contribute nothing, e.g.
    alpha1 = alpha2 = 0 or all the mins saturate at M.
    """
    point = _corner(cfg)
    if point is None:
        raise DegenerateCorner(
            "boundary lines coincide; the region has no off-axis corner"
        )
    return point


def representative_corner(cfg: SystemConfig) -> DofPoint:
    """``corner_point`` with a continuity fallback for the degenerate case.

    When the two boundary lines coincide the region is the triangle
    d1/a + d2/d <= 1; return the midpoint (a/2, d/2) of its single off-axis
    edge, which is the limit of the moving corner as the qualities shrink
    (e.g. (1/2, 1/2) for M=2, N1=N2=1, alpha -> 0).
    """
    point = _corner(cfg)
    if point is None:
        return DofPoint._of(Fraction(min(cfg.n1, cfg.m), 2), Fraction(min(cfg.n2, cfg.m), 2))
    return point


def is_subset(inner: DofRegion, outer: DofRegion) -> bool:
    """Exact containment test for bounded convex regions (vertex check)."""
    return all(outer._holds(*vertex) for vertex in inner._vertex_triples())


def region_equal(a: DofRegion, b: DofRegion) -> bool:
    """True when the two regions are the same set of points.

    Two bounded convex polygons are equal exactly when their vertices are,
    so this compares the ordered vertices as reduced integer triples.
    """
    return a._vertex_triples() == b._vertex_triples()
