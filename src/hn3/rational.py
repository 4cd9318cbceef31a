"""Exact rational scalars.

Every numeric quantity in this package is a ``fractions.Fraction``:
arbitrary-precision numerator, positive denominator, always reduced.
Nothing in the core ever rounds, so equality checks are meaningful at
tolerance zero.  The arrays of ``hn3.linalg`` hold integer numerators
over one denominator; ``to_ints``, ``reduced``, ``split`` and
``from_ratio`` are the one boundary between those ints and Fractions.
"""

from fractions import Fraction
from math import gcd, lcm

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)
MINUS_HALF = Fraction(-1, 2)
QUARTER = Fraction(1, 4)


def as_scalar(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a string like ``"p/q"``, or a Fraction to a Fraction.

    Floats are refused: they carry rounding by construction and would
    silently poison exact results.  A string is read as ``Fraction`` reads
    it on Python 3.10, on every interpreter: an optional sign, decimal
    digits, then ``/`` and digits or a decimal point and digits, with
    blanks only at either end.  Exponent notation is refused.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            # a plain integer, the common case, skips the regex of Fraction(str)
            if text.isdecimal() or (text[:1] == "-" and text[1:].isdecimal()):
                return Fraction(int(text))
            # refused whatever this interpreter's Fraction reads: "1e10000000"
            # would cost time and memory exponential in the length of the
            # string, and Fraction reads underscores from Python 3.11 on and
            # blanks around "/" from 3.12 on
            if "_" in text or "e" in text or "E" in text or len(text.split()) > 1:
                raise ValueError(text)
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:  # also int()'s digit limit
            raise ValueError(f"not a rational number: {value!r}") from exc
    raise TypeError(f"exact scalar expected, got {type(value).__name__}")


def split(value: Fraction) -> tuple[int, int]:
    """The integer numerator and positive denominator of a scalar."""
    return value.numerator, value.denominator


def from_ratio(numerator: int, denominator: int) -> Fraction:
    """The reduced scalar ``numerator / denominator``, for a positive denominator."""
    return Fraction(numerator, denominator)


def to_ints(values: dict) -> tuple[dict, int]:
    """``{key: Fraction or int}`` as numerators over their lcm denominator (canonical), no zeros."""
    den = lcm(*(v.denominator for v in values.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in values.items() if v}, den


def reduced(nums: dict, den: int) -> tuple[dict, int]:
    """Canonical form of ``nums / den``: zeros dropped, gcd(den, *nums) = 1, den 1 when empty."""
    g = gcd(den, *nums.values())
    return {k: v // g for k, v in nums.items() if v}, den // g


def format_scalar(value: int | str | Fraction) -> str:
    """Canonical rendering: ``"p"`` for integers, ``"p/q"`` otherwise."""
    return str(as_scalar(value))
