"""Frame covariance: the whole pipeline commutes with a change of frame.

Every other fixture has signed-permutation structure operators and a
diagonal metric, so the sparse kernels see a single nonzero per row.  Here
the built-in example moves to a frame drawn by Hypothesis, a product of
elementary matrices ``I + q E_ij`` that is never a signed permutation,
which fills the tensors with nonzeros and fractions.  Validity, the
verdicts and the metric signature are frame invariant, and F, N, Nhat
and T are (0,3) tensors: in the new frame they are the old ones with
``P^-1`` fed into every slot.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hn3 import (
    Matrix,
    associated_nijenhuis,
    builtin_example,
    coincidence_check,
    fundamental_tensor,
    in_skew_torsion_class,
    nijenhuis_tensor,
    signature,
    structure_torsion,
    validation_reports,
)
from hn3.liealg import LieAlgebra, MetricLieAlgebra
from hn3.structures import AlmostContactStructure, HN3Manifold
from hn3.tensor import postcompose, precompose

N = 7

steps = st.tuples(
    st.integers(0, N - 1),
    st.integers(0, N - 1),
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)),
).filter(lambda s: s[0] != s[1])


def elementary_product(factors) -> Matrix:
    p = Matrix.identity(N)
    for i, j, q in factors:
        p = p @ Matrix([[int(r == c) + (q if (r, c) == (i, j) else 0) for c in range(N)]
                        for r in range(N)])
    return p


def is_signed_permutation(m: Matrix) -> bool:
    return all(
        sorted(abs(m[i, j]) for j in range(N)) == [0] * (N - 1) + [1] for i in range(N)
    )


def pull_back(t, q: Matrix):
    """The (0,s) tensor ``t(q x, q y, ..)``."""
    for slot in range(t.arity):
        t = precompose(t, q, slot)
    return t


def move(h: HN3Manifold, p: Matrix) -> HN3Manifold:
    """``h`` in the frame where a vector with components ``x`` has ``p x``."""
    q = p.inverse()
    bracket = postcompose(precompose(precompose(h.mla.algebra.bracket, q, 0), q, 1), p)
    metric = q.transpose() @ h.metric @ q
    structures = tuple(
        AlmostContactStructure(p @ s.phi @ q, p.apply(s.xi), precompose(s.eta, q, 0))
        for s in h.structures
    )
    return HN3Manifold(MetricLieAlgebra(LieAlgebra(N, bracket), metric), structures)


@pytest.fixture(scope="module")
def standard() -> HN3Manifold:
    return builtin_example(2)


def verdicts(h: HN3Manifold) -> dict:
    coin = coincidence_check(h)
    return {
        "class": [in_skew_torsion_class(h, a) for a in (1, 2, 3)],
        "associated_vanishes": [
            associated_nijenhuis(h, a)[0].is_zero() for a in (1, 2, 3)
        ],
        "coincidence": (coin.torsions_equal, coin.routes_agree, coin.common_exists),
        "signature": signature(h.metric),
    }


@given(st.lists(steps, min_size=2, max_size=4))
@settings(max_examples=6, deadline=None)
def test_pipeline_is_frame_covariant(standard, factors):
    p = elementary_product(factors)
    assume(not is_signed_permutation(p))
    q = p.inverse()
    h = move(standard, p)

    assert [r.passed for r in validation_reports(h)] == [True] * 4
    assert verdicts(h) == verdicts(standard)
    for a in (1, 2, 3):
        assert fundamental_tensor(h, a) == pull_back(fundamental_tensor(standard, a), q)
        assert nijenhuis_tensor(h, a)[1] == pull_back(nijenhuis_tensor(standard, a)[1], q)
        assert associated_nijenhuis(h, a)[1] == pull_back(
            associated_nijenhuis(standard, a)[1], q
        )
        assert structure_torsion(h, a) == pull_back(structure_torsion(standard, a), q)
