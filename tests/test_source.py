"""Source hygiene checks on the package modules."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import pytest

import hn3

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hn3"
# __init__.py imports names in order to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _get_or_zero(node) -> bool:
    """Whether ``node`` is a call ``<something>.get(<key>, ZERO)``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Name)
        and node.args[1].id == "ZERO"
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_sums_go_through_accumulate(path):
    # ``acc.get(key, ZERO) + v`` adds v to a zero Fraction on every new
    # key; sums run on integer numerators in ``hn3.linalg`` (``contract``
    # and ``Array.__add__``) instead.  The name is that of the helper that
    # once held every such sum.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    offending = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, (ast.Add, ast.Sub))
        and (_get_or_zero(node.left) or _get_or_zero(node.right))
    ]
    assert offending == []


def test_only_rational_builds_fractions():
    # exact constants live in ``hn3.rational`` next to ZERO, ONE and HALF;
    # other modules may still name ``Fraction`` in type hints
    builders = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "Fraction")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "Fraction")
        )
    }
    assert builders == {"rational.py"}


def test_only_rational_splits_fractions():
    # ``rational.split`` takes a scalar apart into the ints that
    # ``linalg.contract`` sums, and ``rational.from_ratio`` puts it back
    readers = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")
    }
    assert readers == {"rational.py"}


def test_only_linalg_reads_denominators():
    # an array keeps integer numerators over one denominator ``den``; all
    # arithmetic on that pair, sums and products alike, stays in ``hn3.linalg``
    # and every other module sees Fractions or whole arrays
    readers = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "den"
    }
    assert readers == {"linalg.py"}


def test_public_names_are_the_api():
    # ``from hn3 import *`` binds no submodule, and the dense references the
    # tests use (tests/oracle.py) are not part of the library
    assert [n for n in hn3.__all__ if isinstance(getattr(hn3, n), types.ModuleType)] == []
    moved = {"build", "value_at", "symmetric_in", "bracket_vectors", "alternation", "SIXTH"}
    assert moved.isdisjoint(hn3.__all__)
    owners = (hn3.Tensor, hn3.LieAlgebra, hn3.tensor, hn3.liealg, hn3.rational)
    assert [(o.__name__, n) for o in owners for n in moved if hasattr(o, n)] == []
