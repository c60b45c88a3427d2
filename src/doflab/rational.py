"""Parsing of exact rationals at the package boundary.

Everything inside the geometry layers works with :class:`fractions.Fraction`.
User-facing surfaces (CLI flags, JSON) speak strings like ``"3/7"``, which
is ``str`` of a Fraction and parses back with :func:`as_ratio`; floats
are accepted too and snapped to the nearest rational with a bounded
denominator so that a value like ``0.25`` means exactly 1/4.
"""

from __future__ import annotations

from fractions import Fraction

DENOMINATOR_LIMIT = 10**6

RatioLike = Fraction | int | float | str


def as_ratio(value: RatioLike, limit: int = DENOMINATOR_LIMIT) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Strings may be ``"p/q"``, an integer, or a decimal literal. Floats are
    converted via ``limit_denominator(limit)``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(limit)
    if isinstance(value, str):
        text = value.strip()
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")
