"""Exact dyadic arithmetic helpers.

All orderings in this package are decided over integers or
``fractions.Fraction``; base-2 logarithms are only ever *displayed*.  The
helpers here keep that discipline in one place:

* ``pow2(e)`` is the exact rational 2**e for any integer ``e`` (negative
  exponents included);
* ``ceil_log2(m)`` is the exact integer ceiling of log2 of a positive
  integer;
* ``log2_display`` converts exact keys to floats for reports, mapping
  ``None`` to ``math.inf`` (the conventional encoding of an empty minimum);
* ``read_fraction`` reads a rational token; ``unit_fraction`` reads a
  belief or probability as an exact value in [0, 1], refusing anything else;
* ``show_fraction`` writes an exact value into a message, approximately
  once it is too long to write out.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import StructLabError

__all__ = [
    "pow2", "ceil_log2", "log2_display", "read_fraction", "unit_fraction", "show_fraction",
]

MAX_DIGITS = 4300  # Python's default bound on the digits of an int read or shown as text
_DIGITS_BOUND = 10**MAX_DIGITS  # the least integer with more than MAX_DIGITS digits


def pow2(e: int) -> Fraction:
    """Exact 2**e as a Fraction, for any integer e."""
    if e >= 0:
        return Fraction(1 << e)
    return Fraction(1, 1 << (-e))


def ceil_log2(m: int) -> int:
    """Smallest integer c with 2**c >= m, for integer m >= 1."""
    if m < 1:
        raise ValueError(f"ceil_log2 needs a positive integer, got {m}")
    return (m - 1).bit_length()


def log2_display(key: "int | Fraction | None") -> float:
    """Float log2 of an exact key, with None mapped to +infinity.

    Exact powers of two come out as exact floats; everything else is a
    best-effort float for human consumption only.
    """
    if key is None:
        return math.inf
    if isinstance(key, Fraction):
        num, den = key.numerator, key.denominator
        if num <= 0:
            raise ValueError(f"log2_display needs a positive key, got {key}")
        if num & (num - 1) == 0 and den & (den - 1) == 0:
            return float(num.bit_length() - den.bit_length())
        return math.log2(num) - math.log2(den)
    if key <= 0:
        raise ValueError(f"log2_display needs a positive key, got {key}")
    if key & (key - 1) == 0:
        return float(key.bit_length() - 1)
    return math.log2(key)


def read_fraction(value) -> Fraction:
    """``Fraction(value)``, refusing (``ValueError``) a token whose length plus
    decimal exponent passes ``MAX_DIGITS``, before ``10**exponent`` is built."""
    if isinstance(value, str):
        _, e, exponent = value.lower().rpartition("e")
        if len(value) + (abs(int(exponent)) if e else 0) > MAX_DIGITS:
            raise ValueError("token too long to read exactly")
    return Fraction(value)


def unit_fraction(value, noun: str) -> Fraction:
    """``value`` as an exact Fraction in [0, 1].

    Anything ``Fraction`` cannot read (``"abc"``, ``"1/0"``, ``None``, NaN,
    infinity) and anything outside [0, 1] raises ``StructLabError``; the
    message names the value and calls it a ``noun`` value.
    """
    try:
        q = read_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise StructLabError(f"malformed {noun} value {value!r}") from None
    if not 0 <= q <= 1:
        raise StructLabError(f"{noun} values must lie in [0, 1], got {show_fraction(q)}")
    return q


def show_fraction(q: Fraction) -> str:
    """``str(q)`` when each part has at most ``MAX_DIGITS`` digits (past
    that, ``str`` raises ``ValueError``); else its float value, marked as
    approximate."""
    if abs(q.numerator) < _DIGITS_BOUND and q.denominator < _DIGITS_BOUND:
        return str(q)
    try:
        return f"about {float(q)!r} (exact value over {MAX_DIGITS} digits)"
    except OverflowError:
        return f"a value over {MAX_DIGITS} digits long"
