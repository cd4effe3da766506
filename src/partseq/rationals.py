"""Exact rational plumbing.

All weights, probabilities, and thresholds in this package are
``fractions.Fraction`` values so that boundary comparisons (1/99 versus
1/100) are decided exactly. These helpers convert user-facing notations
without a detour through binary floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

Rational = Fraction | int | str | float


def as_fraction(value: Rational) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Strings may be decimals ("0.3") or ratios ("1/99"); both convert
    exactly. Floats are accepted but keep their binary value, so prefer
    strings or Fractions where exactness matters.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


@lru_cache(maxsize=4096)
def parse_fraction(text: str) -> Fraction:
    """The rational written ``text``, parsed once: the weights of equal
    texts share one ``Fraction``."""
    return Fraction(text)


def decimal_digits(value: Fraction) -> str | None:
    """Exact decimal expansion of ``value``, or None when it has none.

    A rational has a finite decimal form exactly when its reduced
    denominator is of the shape 2^a * 5^b.
    """
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    shift = max(twos, fives)
    scaled = abs(value.numerator) * 10**shift // value.denominator
    digits = str(scaled).rjust(shift + 1, "0")
    sign = "-" if value < 0 else ""
    if shift == 0:
        return sign + digits
    whole, frac = digits[:-shift], digits[-shift:]
    frac = frac.rstrip("0") or "0"
    return f"{sign}{whole}.{frac}"


def format_fraction(value: Fraction) -> str:
    """Human-readable exact form: decimal when finite, a/b otherwise."""
    decimal = decimal_digits(value)
    return decimal if decimal is not None else f"{value.numerator}/{value.denominator}"
