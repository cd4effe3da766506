"""Exact rational plumbing.

All weights, probabilities, and thresholds in this package are
``fractions.Fraction`` values so that boundary comparisons (1/99 versus
1/100) are decided exactly. These helpers convert user-facing notations
without a detour through binary floating point, and write rationals of
any size.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

Rational = Fraction | int | str | float

# Bounds on a rational literal, checked before Fraction reads it: its
# decimal exponent, since Fraction builds ten to that power (for 1e-10000000
# that took 13 s), and its length, since digits take time quadratic in
# their count to read and write.
MAX_DECIMAL_EXPONENT = 10_000
MAX_LITERAL_LENGTH = 100_000


class LiteralBoundError(ValueError):
    """A rational literal refused by one of the bounds above before it
    was read; the message names the bound."""


# a literal is quoted in a message up to this many characters
QUOTED_LENGTH = 40


def clipped(text: str) -> str:
    """``text``, or its first ``QUOTED_LENGTH`` characters and "..."."""
    return text if len(text) <= QUOTED_LENGTH else text[:QUOTED_LENGTH] + "..."


def quoted(value) -> str:
    """``value`` as a message quotes it: a string's text clipped, else its repr clipped."""
    return repr(clipped(value)) if type(value) is str else clipped(repr(value))


# Long integers are written in chunks of this many digits, fewer than the
# least limit the interpreter may put on int-to-str conversion (640).
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS

# A ratio, or a decimal with an optional exponent, in ASCII digits
_LITERAL = re.compile(r"([-+]?)(?:([0-9]+)/([0-9]+)|([0-9]*)(?:\.([0-9]*))?(?:e([-+]?[0-9]+))?)")


def as_fraction(value: Rational) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Strings may be decimals ("0.3") or ratios ("1/99"); both convert
    exactly. Floats are accepted but keep their binary value, so prefer
    strings or Fractions where exactness matters. A refused string is
    quoted clipped, and when clipped, with the bound that refused it.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            quoted = clipped(value)
            reason = f": {exc}" if quoted != value and isinstance(exc, LiteralBoundError) else ""
            raise ValueError(f"not a rational literal: {quoted!r}{reason}") from exc
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


@lru_cache(maxsize=4096)
def parse_fraction(text: str) -> Fraction:
    """The rational written ``text``, parsed once: the weights of equal
    texts share one ``Fraction``. A text longer than
    :data:`MAX_LITERAL_LENGTH`, or with a decimal exponent beyond
    :data:`MAX_DECIMAL_EXPONENT`, is refused before it is read."""
    if len(text) > MAX_LITERAL_LENGTH:
        raise LiteralBoundError(f"literal longer than {MAX_LITERAL_LENGTH} characters")
    exponent = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
    if exponent.isdecimal() and (len(exponent) > 9 or int(exponent) > MAX_DECIMAL_EXPONENT):
        raise LiteralBoundError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(text)
    except ValueError:
        # digits past the interpreter's limit on str-to-int conversion
        match = _LITERAL.fullmatch(text.strip().lower())
        if not match or not any(match.group(2, 4, 5)):
            raise
    sign, num, den, whole, frac, exp = match.groups(default="")
    if den:
        value = Fraction(_integer(num), _integer(den))
    else:
        value = Fraction(_integer(whole + frac), 10 ** len(frac)) * Fraction(10) ** int(exp or 0)
    return -value if sign == "-" else value


def _integer(digits: str) -> int:
    """The integer of ASCII ``digits`` of any length, read a chunk at a time."""
    value = 0
    for start in range(0, len(digits), _CHUNK_DIGITS):
        chunk = digits[start : start + _CHUNK_DIGITS]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def integer_text(value: int) -> str:
    """The decimal digits of ``value``, of any length: past the interpreter's
    limit on int-to-str conversion, written a chunk at a time."""
    if abs(value) < _CHUNK:
        return str(value)
    chunks, rest = [], abs(value)
    while rest:
        rest, chunk = divmod(rest, _CHUNK)
        chunks.append(chunk)
    head, *tail = reversed(chunks)
    return "-" * (value < 0) + str(head) + "".join(str(c).zfill(_CHUNK_DIGITS) for c in tail)


def ratio_text(value: Fraction) -> str:
    """``str(value)`` for a rational of any size."""
    num = integer_text(value.numerator)
    return num if value.denominator == 1 else f"{num}/{integer_text(value.denominator)}"


def decimal_digits(value: Fraction) -> str | None:
    """Exact decimal expansion of ``value``, or None when it has none.

    A rational has a finite decimal form exactly when its reduced
    denominator is of the shape 2^a * 5^b. Then b is the bit length of
    5^b over log2(5), rounded, since that ratio lies in (b, b + 0.44).
    """
    den = value.denominator
    twos = (den & -den).bit_length() - 1
    fives = round((den >> twos).bit_length() / math.log2(5))
    if den != 5**fives << twos:
        return None
    shift = max(twos, fives)
    scaled = abs(value.numerator) * 10**shift // value.denominator
    digits = integer_text(scaled).rjust(shift + 1, "0")
    sign = "-" if value < 0 else ""
    if shift == 0:
        return sign + digits
    whole, frac = digits[:-shift], digits[-shift:]
    frac = frac.rstrip("0") or "0"
    return f"{sign}{whole}.{frac}"


def format_fraction(value: Fraction) -> str:
    """Human-readable exact form: decimal when finite, a/b otherwise."""
    decimal = decimal_digits(value)
    return decimal if decimal is not None else ratio_text(value)
