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
SIXTH = Fraction(1, 6)


def as_scalar(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a string like ``"p/q"``, or a Fraction to a Fraction.

    Floats are refused: they carry rounding by construction and would
    silently poison exact results.  So are strings in exponent notation.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # exponent notation is refused: "1e10000000" would cost time and
        # memory exponential in the length of the string
        if "e" in value or "E" in value:
            raise ValueError(f"not a rational number: {value!r}")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational number: {value!r}") from exc
    raise TypeError(f"exact scalar expected, got {type(value).__name__}")


def split(value: Fraction) -> tuple[int, int]:
    """The integer numerator and positive denominator of a scalar."""
    return value.numerator, value.denominator


def from_ratio(numerator: int, denominator: int) -> Fraction:
    """The reduced scalar ``numerator / denominator``, for a positive denominator."""
    return Fraction(numerator, denominator)


def to_ints(values: dict) -> tuple[dict, int]:
    """``{key: Fraction}`` as numerators over their lcm denominator (canonical), zeros dropped."""
    den = lcm(*(v.denominator for v in values.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in values.items() if v}, den


def reduced(nums: dict, den: int) -> tuple[dict, int]:
    """Canonical form of ``nums / den``: zeros dropped, gcd(den, *nums) = 1, den 1 when empty."""
    g = gcd(den, *nums.values())
    return {k: v // g for k, v in nums.items() if v}, den // g


def format_scalar(value: int | str | Fraction) -> str:
    """Canonical rendering: ``"p"`` for integers, ``"p/q"`` otherwise."""
    return str(as_scalar(value))
