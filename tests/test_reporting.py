"""``Report.require_equal``: which entries it compares, and in what order."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hn3 import Matrix, Report, Vector
from hn3.errors import ShapeError
from hn3.tensor import covector


def test_entries_nonzero_on_either_side_are_compared_row_major():
    report = Report("r")
    report.require_equal(
        ("a", "b"), (9,), covector([0, 1, 0]), (Vector([0, 0, 2]), Vector([0, 1, 0]))
    )
    assert [(v.identity, v.indices, v.lhs, v.rhs) for v in report.violations] == [
        ("a", (9, 2), 1, 0),
        ("a", (9, 3), 0, 2),
    ]
    report = Report("r")
    report.require_equal("m", (), Matrix.zeros(2), Matrix([[0, 0], [Fraction(1, 3), 0]]))
    assert [(v.indices, v.rhs) for v in report.violations] == [((2, 1), Fraction(1, 3))]


def test_str_is_the_rendering():
    report = Report("r", warnings=["w"])
    assert str(report) == report.render() == "[PASS] r\n    warning: w"


def test_a_check_that_did_not_run_warns():
    report = Report("r")
    report.not_run("w")
    assert report.passed and report.to_json()["status"] == "warn"
    assert report.render() == "[WARN] r\n    warning: w"
    report.require("x", (1,), 1, 0)
    assert report.status == "fail"


def test_shapes_must_agree():
    with pytest.raises(ShapeError):
        Report("r").require_equal("m", (), Matrix.identity(2), Vector([1, 0, 0, 1]))
