"""Metric Lie algebras: validation, the Koszul connection, derivatives.

The Levi-Civita characterization (torsion-free plus metric-compatible)
is checked independently of the Koszul formula on every fixture, and the
first-order derivative operators are compared against their pure
structure-constant expressions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CENTRAL_IMAGE_BRACKETS,
    DISCRIMINATOR_BRACKETS,
    LAMBDAS,
    SOLVABLE_BRACKETS,
    manifold_from_brackets,
)
from hn3 import (
    LieAlgebra,
    Matrix,
    MetricLieAlgebra,
    Vector,
    builtin_example,
    connection_torsion,
    covariant_derivative,
    lie_derivative_metric,
    validate_lie_algebra,
    validate_metric,
)
from hn3.builtin import DIM, standard_metric
from hn3.liealg import covariant_derivative_vector, lie_derivative_covector
from hn3.tensor import (
    covector,
    lower,
    metric_tensor,
    permute_args,
    tensor_from_operator,
)
from oracle import bracket_vectors, build, symmetric_in, value_at


@st.composite
def sparse_brackets(draw):
    """A few 0-based structure constants, antisymmetrized or not."""
    n = draw(st.integers(min_value=2, max_value=4))
    index = st.integers(min_value=0, max_value=n - 1)
    value = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])
    entries = draw(st.dictionaries(st.tuples(index, index, index), value, max_size=6))
    if draw(st.booleans()):
        entries = {
            key: v for (i, j, k), v in entries.items() if i != j
            for key, v in (((i, j, k), v), ((j, i, k), -v))
        }
    return n, entries


def dense_jacobi(n: int, c: dict) -> list:
    """Every nonzero cyclic sum of [[e_i, e_j], e_l]^k, by a plain loop."""
    out = []
    for i, j, l, k in itertools.product(range(n), repeat=4):
        total = sum(
            c.get((i, j, m), 0) * c.get((m, l, k), 0)
            + c.get((j, l, m), 0) * c.get((m, i, k), 0)
            + c.get((l, i, m), 0) * c.get((m, j, k), 0)
            for m in range(n)
        )
        if total:
            out.append(((i + 1, j + 1, l + 1, k + 1), total))
    return out


class TestValidation:
    def test_abelian_passes(self):
        assert validate_lie_algebra(LieAlgebra.abelian(4)).passed

    def test_builtin_passes(self):
        for lam in LAMBDAS:
            assert validate_lie_algebra(builtin_example(lam).mla.algebra).passed

    def test_antisymmetry_violation_reported(self):
        alg = LieAlgebra.from_nonzero(3, {(1, 2, 3): 1})  # partner (2,1,3) missing
        report = validate_lie_algebra(alg)
        assert not report.passed
        assert any("antisymmetry" in v.identity for v in report.violations)

    def test_jacobi_violation_reported(self):
        alg = LieAlgebra.from_nonzero(
            3,
            {
                (1, 2, 1): 1, (2, 1, 1): -1,
                (2, 3, 2): 1, (3, 2, 2): -1,
                (3, 1, 3): 1, (1, 3, 3): -1,
            },
        )
        report = validate_lie_algebra(alg)
        assert not report.passed
        assert any(v.identity == "jacobi" for v in report.violations)

    @given(sparse_brackets())
    @settings(max_examples=60, deadline=None)
    def test_jacobi_violations_match_dense_loop(self, drawn):
        n, entries = drawn
        one_based = {tuple(i + 1 for i in key): v for key, v in entries.items()}
        alg = LieAlgebra.from_nonzero(n, one_based)
        found = [v for v in validate_lie_algebra(alg).violations if v.identity == "jacobi"]
        assert all(v.rhs == 0 for v in found)
        assert [(v.indices, v.lhs) for v in found] == dense_jacobi(n, entries)

    def test_metric_validation(self):
        g = standard_metric()
        assert validate_metric(MetricLieAlgebra(LieAlgebra.abelian(DIM), g)).passed
        degenerate = Matrix.diagonal([1, 1, 1, 1, 1, 1, 0])
        report = validate_metric(MetricLieAlgebra(LieAlgebra.abelian(DIM), degenerate))
        assert not report.passed

    @given(st.lists(st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 2)]), min_size=16, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_violations_match_dense_loop(self, flat):
        g = Matrix([flat[4 * i:4 * i + 4] for i in range(4)])
        report = validate_metric(MetricLieAlgebra(LieAlgebra.abelian(4), g))
        found = [(v.indices, v.lhs, v.rhs) for v in report.violations if v.identity == "symmetry"]
        dense = [
            ((i + 1, j + 1), g[i, j], g[j, i])
            for i in range(4) for j in range(i + 1, 4) if g[i, j] != g[j, i]
        ]
        assert found == dense


@pytest.fixture(
    scope="module",
    params=[SOLVABLE_BRACKETS, CENTRAL_IMAGE_BRACKETS, DISCRIMINATOR_BRACKETS],
    ids=["solvable", "central_image", "discriminator"],
)
def mla(request):
    return manifold_from_brackets(request.param).mla


class TestLeviCivita:
    def test_torsion_free(self, mla):
        assert connection_torsion(mla.levi_civita, mla.algebra).is_zero()

    def test_metric_parallel(self, mla):
        dg = covariant_derivative(mla.levi_civita, metric_tensor(mla.metric))
        assert dg.is_zero()

    def test_koszul_on_builtin(self):
        lam = Fraction(5, 2)
        gamma = builtin_example(lam).mla.levi_civita.gamma
        half = lam / 2
        expected = {
            (1, 2, 7): half, (2, 1, 7): -half,
            (3, 4, 7): half, (4, 3, 7): -half,
            (1, 7, 2): -half, (7, 1, 2): -half,
            (2, 7, 1): half, (7, 2, 1): half,
            (3, 7, 4): half, (7, 3, 4): half,
            (4, 7, 3): -half, (7, 4, 3): -half,
        }
        assert dict(gamma.entries_1based()) == expected

    def test_flat_on_abelian(self):
        mla = MetricLieAlgebra(LieAlgebra.abelian(DIM), standard_metric())
        assert mla.levi_civita.gamma.is_zero()

    def test_braces_symmetrize_gamma(self, mla):
        gamma = mla.levi_civita.gamma
        assert mla.braces == gamma + permute_args(gamma, (1, 0))
        assert symmetric_in(mla.braces, 0, 1)


class TestDerivatives:
    def test_covariant_derivative_covector_slot_order(self, mla):
        eta = covector(Vector.basis(DIM, 0))
        d = covariant_derivative(mla.levi_civita, eta)
        gamma = mla.levi_civita.gamma
        n = mla.algebra.dim
        for i in range(n):
            for j in range(n):
                assert d[i, j] == -gamma[i, j, 0]

    def test_covariant_derivative_commutes_with_lowering(self, mla):
        # the metric is parallel, so D(lower t) = lower(D t)
        t = tensor_from_operator(Matrix.outer(Vector.basis(DIM, 1), Vector.basis(DIM, 4)))
        lhs = covariant_derivative(mla.levi_civita, lower(t, mla.metric))
        rhs = lower(covariant_derivative(mla.levi_civita, t), mla.metric)
        assert lhs == rhs

    def test_lie_derivative_metric_against_brackets(self, mla):
        # (L_x g)(y, z) = -g([x,y], z) - g(y, [x,z]) for left-invariant g
        gt = metric_tensor(mla.metric)
        alg = mla.algebra
        for b in range(alg.dim):
            x = Vector.basis(alg.dim, b)
            lg = lie_derivative_metric(mla, x)
            direct = build(
                0, 2, alg.dim,
                lambda i, j: (
                    -value_at(
                        gt,
                        bracket_vectors(alg, x, Vector.basis(alg.dim, i)),
                        Vector.basis(alg.dim, j),
                    )
                    - value_at(
                        gt,
                        Vector.basis(alg.dim, i),
                        bracket_vectors(alg, x, Vector.basis(alg.dim, j)),
                    )
                ),
            )
            assert lg == direct

    def test_lie_derivative_covector_against_brackets(self, mla):
        alg = mla.algebra
        xi = Vector.basis(DIM, 5)
        eta = covector(Vector.basis(DIM, 0))
        le = lie_derivative_covector(alg, xi, eta)
        for i in range(DIM):
            y = Vector.basis(DIM, i)
            assert le[i] == -value_at(eta, bracket_vectors(alg, xi, y))

    def test_covariant_derivative_vector_entries(self, mla):
        xi = Vector.basis(DIM, 4)
        dxi = covariant_derivative_vector(mla.levi_civita, xi)
        gamma = mla.levi_civita.gamma
        for i in range(DIM):
            for k in range(DIM):
                assert dxi[i, k] == gamma[i, 4, k]
