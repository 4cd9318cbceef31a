"""Scalar strings read the same on every supported Python.

``as_scalar`` accepts what ``Fraction(str)`` accepts on Python 3.10, the
``requires-python`` floor, minus exponent notation.  Later interpreters'
``Fraction`` reads more (underscores from 3.11 on, blanks around ``/``
from 3.12 on); the table pins that structure files do not.  The module
needs no pytest, so it also runs as a plain script on interpreters
without it: ``PYTHONPATH=src python tests/test_scalars.py``.
"""

from __future__ import annotations

from fractions import Fraction

from hn3 import as_scalar

# (string, its value on Python 3.10, or None where 3.10 or the exponent rule refuses it)
TABLE = (
    ("1/2", Fraction(1, 2)),
    ("-.5", Fraction(-1, 2)),
    ("1.5", Fraction(3, 2)),
    ("٣", Fraction(3)),  # ARABIC-INDIC DIGIT THREE, a decimal digit to int() too
    ("1_000", None),
    ("1 / 2", None),
    ("1e3", None),
    ("1/0", None),
    ("--1", None),
    (" 7 ", Fraction(7)),
    ("9" * 5000, None),  # past the interpreter's digit limit for int(str)
)


def parsed(text: str) -> Fraction | None:
    try:
        return as_scalar(text)
    except ValueError as exc:
        assert str(exc) == f"not a rational number: {text!r}"
        return None


def test_scalar_strings_read_as_on_python_3_10():
    assert [(text, parsed(text)) for text, _ in TABLE] == list(TABLE)


if __name__ == "__main__":
    test_scalar_strings_read_as_on_python_3_10()
    print(f"{len(TABLE)} scalar strings read as on Python 3.10")
