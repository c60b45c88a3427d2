"""Parsing of exact rationals at the package boundary.

Everything inside the geometry layers works with :class:`fractions.Fraction`.
User-facing surfaces (CLI flags, JSON) speak strings like ``"3/7"``, which
is ``str`` of a Fraction and parses back with :func:`as_ratio`; floats
are accepted too and snapped to the nearest rational with a bounded
denominator so that a value like ``0.25`` means exactly 1/4.

A string is parsed only when the numerator and denominator it spells have
at most ``DIGIT_LIMIT`` digits each, so parsing takes bounded time and
memory. Regions, corners and plans built from such values stay within the
digits Python converts to ``str`` (4300 by default): their numerators and
denominators are products of at most three parsed ones and small antenna
counts.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import InvalidConfig

DENOMINATOR_LIMIT = 10**6
DIGIT_LIMIT = 1000

RatioLike = Fraction | int | float | str

# a superset of the literals Fraction parses, except that no space may stand
# inside: p/q, or a decimal with an optional exponent; digit runs may hold
# "_" separators. Fraction takes spaces at the slash from Python 3.12 on,
# and this refuses them on every version.
_LITERAL = re.compile(
    r"[-+]?(?P<whole>[\d_]*)"
    r"(?:/(?P<den>[\d_]*)|(?:\.(?P<frac>[\d_]*))?(?:[eE](?P<exp>[-+]?\d[\d_]*))?)"
)


def _digits(run: str) -> int:
    """Digits of the integer that a digit run spells."""
    return len(run.replace("_", "").lstrip("0"))


def _literal_digits(match: re.Match) -> int:
    """Digits of the larger of the numerator and denominator that a
    ``_LITERAL`` match spells before reduction: ``p/q`` as written, a
    decimal as its digits over a power of ten with the exponent applied."""
    if match["den"] is not None:
        return max(_digits(match["whole"]), _digits(match["den"]))
    frac = match["frac"] or ""
    exp = (match["exp"] or "0").replace("_", "")
    if _digits(exp.lstrip("+-")) > 18:  # |exp| >= 10**18 outweighs any frac
        return DIGIT_LIMIT + 1
    shift = int(exp) - len(frac.replace("_", ""))
    numerator = _digits(match["whole"] + frac) + max(shift, 0)
    return max(numerator, 1 + max(-shift, 0))


def as_ratio(value: RatioLike) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Strings may be ``"p/q"``, an integer, or a decimal literal, with no
    space inside, whose numerator and denominator have at most
    ``DIGIT_LIMIT`` digits each.
    Floats are converted via ``limit_denominator(DENOMINATOR_LIMIT)``. A
    bool is not a rational. A string that is not such a value, or a float
    that is not finite, raises ``InvalidConfig``, which is a ``ValueError``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("cannot interpret bool as a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InvalidConfig(f"not a rational: {value!r}")
        return Fraction(value).limit_denominator(DENOMINATOR_LIMIT)
    if isinstance(value, str):
        text = value.strip()
        match = _LITERAL.fullmatch(text)
        if match is None:
            raise InvalidConfig(f"not a rational: {value!r}")
        if _literal_digits(match) > DIGIT_LIMIT:
            raise InvalidConfig(f"a rational of more than {DIGIT_LIMIT} digits")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidConfig(f"not a rational: {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")
