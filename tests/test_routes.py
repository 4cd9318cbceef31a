"""Each shortcut route equals, exactly, the route it replaced.

The library builds every Nijenhuis-type tensor from one pairing on a
derivative of the operator (the Levi-Civita derivative of phi, or the
braces' derivative of J on the product extension), plugs xi into F before
phi, shares the phi-composed F_1 between the reflection identity and T_1,
takes D g from lowered connection coefficients, and sums wide
contractions per output row.  The functions below keep the replaced
routes as references: the second-order pairing ``_second_order_bracket``
expanded on the brackets, on the braces and on the extension's braces,
``covariant_derivative(conn, metric_tensor(g))``, the torsion with xi
plugged in after phi, and each contraction summed cell by cell in
Fractions.  The routes assume a valid manifold, and two tests check that
an invalid one is refused before any route runs.
"""

from __future__ import annotations

import importlib.util
import inspect
import itertools
import re
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import hn3
from conftest import SOLVABLE_BRACKETS
from hn3 import (
    Matrix,
    ValidationError,
    associated_nijenhuis,
    braces_nijenhuis_product,
    build_product,
    builtin_example,
    exterior_d_eta,
    fundamental_tensor,
    metric_lie_derivative,
    move,
    naturality_report,
    nijenhuis_tensor,
    parse_structure,
    validation_reports,
)
from hn3.builtin import DIM, standard_metric, standard_structures
from hn3.connections import _metric_derivative, _torsion
from hn3.linalg import Array, _groups, contract
from hn3.liealg import (
    Connection,
    LieAlgebra,
    MetricLieAlgebra,
    covariant_derivative,
)
from hn3.nijenhuis import phi_braces
from hn3.rational import HALF, MINUS_HALF, reduced
from hn3.structures import HN3Manifold
from hn3.tensor import (
    Tensor,
    contract_arg_with_vector,
    cyclic_sum,
    lower,
    metric_tensor,
    permute_args,
    postcompose,
    precompose,
    tensor_product,
    times_vector,
)
from test_frame_covariance import elementary_product, is_signed_permutation, steps

ROOT = Path(__file__).resolve().parents[1]


def bench_generators():
    """``bench/gen.py``, the generator of the benchmark's ladder and frame files."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = bench_generators()


def _second_order_bracket(base: Tensor, a: Matrix, b: Matrix | None = None) -> Tensor:
    """The pairing ``S(a, b)`` expanded on any (1,2) tensor, as the definitions read.

    ``S(a, b) = base(a., b.) + ab base(., .) - a (base(b., .) + base(., b.))``;
    ``S(a, a)`` when b is omitted, else ``(S(a, b) + S(b, a)) / 2``.
    """
    pa = precompose(base, a, 0)
    sa = pa + precompose(base, a, 1)
    if b is None:
        return precompose(pa, a, 1) + postcompose(base, a @ a) - postcompose(sa, a)
    pb = precompose(base, b, 0)
    sb = pb + precompose(base, b, 1)
    out = precompose(pa, b, 1) + precompose(pb, a, 1) + postcompose(base, a @ b + b @ a)
    return (out - postcompose(sb, a) - postcompose(sa, b)) * HALF


def old_nijenhuis(h: HN3Manifold, alpha: int) -> tuple[Tensor, Tensor]:
    """``[phi, phi] + xi (x) d eta`` on the brackets, and its lowering."""
    vec = _second_order_bracket(h.mla.algebra.bracket, h.phi(alpha)) + times_vector(
        exterior_d_eta(h, alpha), h.xi(alpha)
    )
    return vec, lower(vec, h.metric)


def old_associated(h: HN3Manifold, alpha: int) -> tuple[Tensor, Tensor]:
    """``{phi, phi} - eps xi (x) L_xi g`` on the braces, and its lowering."""
    braces = _second_order_bracket(h.mla.braces, h.phi(alpha))
    vec = braces - times_vector(metric_lie_derivative(h, alpha), h.xi(alpha)) * h.eps(alpha)
    return vec, lower(vec, h.metric)


def old_torsion(h: HN3Manifold, alpha: int) -> Tensor:
    """The raw torsion expression with xi plugged in after phi."""
    f = fundamental_tensor(h, alpha)
    phi, xi, eta = h.phi(alpha), h.xi(alpha), h.eta(alpha)
    w = contract_arg_with_vector(precompose(f, phi, 1), xi, 2)  # F(x, phi y, xi)
    b = precompose(f, phi, 2)
    if alpha == 1:
        c = permute_args(precompose(f, phi, 0), (2, 0, 1))
        return b - permute_args(b, (1, 0, 2)) - c + tensor_product(w, eta) * 2
    return cyclic_sum(b - tensor_product(eta, w) * 3) * MINUS_HALF


def assert_routes_agree(h: HN3Manifold) -> None:
    for a in (1, 2, 3):
        assert nijenhuis_tensor(h, a) == old_nijenhuis(h, a), a
        assert associated_nijenhuis(h, a) == old_associated(h, a), a
        assert phi_braces(h, a) == _second_order_bracket(h.mla.braces, h.phi(a)), a
        assert _torsion(h, a) == old_torsion(h, a), a
    assert_product_pairings_agree(h)
    # Levi-Civita, where D g = 0, and a connection that does not preserve g
    for conn in (h.mla.levi_civita, Connection(h.mla.levi_civita.gamma + h.mla.braces)):
        assert _metric_derivative(conn, h.metric) == covariant_derivative(
            conn, metric_tensor(h.metric)
        )


def assert_product_pairings_agree(h: HN3Manifold) -> None:
    """``{J_a, J_b}`` equals the second-order pairing on the extension's braces, all nine pairs."""
    p = build_product(h)
    for a, b in itertools.product((1, 2, 3), repeat=2):
        expected = _second_order_bracket(p.mla.braces, p.j(a), None if a == b else p.j(b))
        assert braces_nijenhuis_product(p, a, b) == expected, (a, b)


def test_every_fixture(bracket_fixtures):
    for h in bracket_fixtures.values():
        assert_routes_agree(h)


@pytest.mark.parametrize("m", [1, 2], ids=["n=7", "n=11"])
def test_the_ladder(m):
    assert_routes_agree(parse_structure(GEN.ladder(m)))


def test_a_benchmark_frame():
    # the n = 7 frame, seed 3: the row loop runs on most of its contractions
    assert_routes_agree(parse_structure(GEN.frame_change(GEN.ladder(1), 3, 1)))


def test_an_n11_benchmark_frame():
    assert_routes_agree(parse_structure(GEN.frame_change(GEN.ladder(2), 3, 1)))


@given(st.lists(steps, min_size=2, max_size=4))
@settings(max_examples=4, deadline=None)
def test_changed_frames(factors):
    p = elementary_product(factors)
    assume(not is_signed_permutation(p))
    assert_routes_agree(move(builtin_example(2), p))


def derived_builds() -> list:
    """Every ``@derived`` function of the package."""
    modules = [v for v in vars(hn3).values() if isinstance(v, types.ModuleType)]
    return sorted(
        (
            v for m in modules for v in vars(m).values()
            if hasattr(v, "__wrapped__") and v.__module__ == m.__name__
        ),
        key=lambda v: (v.__module__, v.__name__),
    )


def test_a_bracket_missing_its_antisymmetric_partner():
    # [e5, e1] = e1 without [e1, e5] = -e1: every derived build refuses the
    # manifold before it builds, so no route ever sees a Levi-Civita
    # connection whose torsion is not zero, and nothing is kept but the reports
    brackets = dict(SOLVABLE_BRACKETS)
    del brackets[1, 5, 1]
    algebra = LieAlgebra.from_nonzero(DIM, brackets)
    h = HN3Manifold(MetricLieAlgebra(algebra, standard_metric()), standard_structures())
    message = (
        "lie algebra axioms: antisymmetry at (1,5,1): lhs = 0, rhs = -1 (1 violations in total)"
    )
    builds = derived_builds()
    assert {nijenhuis_tensor, associated_nijenhuis, _torsion, fundamental_tensor} <= set(builds)
    for build in builds:
        # the gate runs before the build reads its arguments
        arity = len(inspect.signature(build.__wrapped__).parameters) - 1
        with pytest.raises(ValidationError, match=re.escape(message)):
            build(h, *[1] * arity)
    assert list(h._memo) == [(validation_reports,)]


def test_a_metric_that_is_not_symmetric():
    # D g takes one lowering of D's coefficients, right for a symmetric g
    # only; naturality_report refuses any other metric before it lowers
    h = builtin_example(2)
    g = h.metric + Matrix.outer(h.xi(1), h.xi(2)) * Fraction(3, 2)
    assert not g.is_symmetric()
    bad = HN3Manifold(MetricLieAlgebra(h.mla.algebra, g), h.structures)
    message = "metric: symmetry at (5,6): lhs = 3/2, rhs = 0 (1 violations in total)"
    with pytest.raises(ValidationError, match=re.escape(message)):
        naturality_report(h.mla.levi_civita, bad, 1)


# ---------------------------------------------------------------------------
# The two loops of ``contract`` on random integer arrays.

@st.composite
def arrays(draw, n: int):
    """An array of 1-3 slots of range n, sparse or dense, over a small denominator."""
    shape = (n,) * draw(st.integers(1, 3))
    cells = [()]
    for _ in shape:
        cells = [c + (i,) for c in cells for i in range(n)]
    density = draw(st.sampled_from((0.1, 0.5, 1.0)))
    comps = {
        c: draw(st.integers(-9, 9)) for c in cells if draw(st.floats(0, 1)) < density
    }
    return Array.from_ints(shape, *reduced(comps, draw(st.integers(1, 6))))


@st.composite
def sums(draw):
    """Terms ``(t, pos, u, axis, prefix)`` of one sum, over one index range."""
    n = draw(st.integers(1, 4))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        t, u = draw(arrays(n)), draw(arrays(n))
        pos = draw(st.integers(0, len(t.shape) - 1))
        axis = draw(st.integers(0, len(u.shape) - 1))
        terms.append((t, pos, u, axis, draw(st.integers(0, axis))))
    return terms


def grouped(u: Array, axis: int, prefix: int, wide: bool) -> tuple:
    """The grouping ``Array.lines`` builds, with ``wide`` forced whatever u's density."""
    return (u.den, *_groups(u.comps, axis, prefix), wide)


def dense_sum(terms) -> dict:
    """The sum of the terms over every cell of the output, in Fractions, zeros dropped.

    Term ``(t, pos, u, axis, prefix)`` puts the sum over m of
    ``t[head, m, tail] * u[rest with m at axis]`` at ``rest[:prefix] + head
    + rest[prefix:] + tail``, for every ``head, tail`` of t and ``rest`` of u.
    """
    out: dict = {}
    for t, pos, u, axis, prefix in terms:
        n = t.shape[0]
        for others in itertools.product(range(n), repeat=len(t.shape) - 1):
            head, tail = others[:pos], others[pos:]
            for rest in itertools.product(range(n), repeat=len(u.shape) - 1):
                key = rest[:prefix] + head + rest[prefix:] + tail
                total = sum(
                    (t[head + (m,) + tail] * u[rest[:axis] + (m,) + rest[axis:]] for m in range(n)),
                    Fraction(0),
                )
                out[key] = out.get(key, 0) + total
    return {key: v for key, v in out.items() if v}


@given(sums())
@settings(max_examples=200, deadline=None)
def test_both_loops_of_contract_agree(terms):
    narrow = [(t, pos, grouped(u, axis, pre, False)) for t, pos, u, axis, pre in terms]
    wide = [(t, pos, grouped(u, axis, pre, True)) for t, pos, u, axis, pre in terms]
    expected = contract(*narrow)
    assert contract(*wide) == expected
    # each term picks its own loop, so one sum may mix the two in either order
    for first, second in ((narrow, wide), (wide, narrow)):
        mixed = [b if i % 2 else a for i, (a, b) in enumerate(zip(first, second))]
        assert contract(*mixed) == expected
    # and both equal the sum taken cell by cell, not only each other
    comps, den = expected
    assert {key: Fraction(v, den) for key, v in comps.items()} == dense_sum(terms)
