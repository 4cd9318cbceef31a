"""Structure axioms, metric compatibility, and the product extension."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import LAMBDAS
from hn3 import (
    Matrix,
    Vector,
    braces_nijenhuis_product,
    build_product,
    builtin_example,
    check_fundamental_properties,
    fundamental_tensor,
    in_skew_torsion_class,
    natural_connection,
    naturality_report,
    phi_braces,
    reeb_lie_derivative_eta,
    signature,
    validate_ac3,
    validate_hn_metric,
    validate_hypercomplex_hn,
)
from hn3.builtin import standard_structures
from hn3.errors import ValidationError
from hn3.liealg import LieAlgebra, MetricLieAlgebra
from hn3.structures import AlmostContactStructure, HN3Manifold, require_valid
from hn3.tensor import covector
from oracle import rank, value_at


class TestStructureAxioms:
    def test_validators_pass_on_fixtures(self, bracket_fixtures):
        for name, h in bracket_fixtures.items():
            assert validate_ac3(h).passed, name
            assert validate_hn_metric(h).passed, name

    def test_phi_identities(self, builtin2):
        for a in (1, 2, 3):
            phi, xi, eta = builtin2.phi(a), builtin2.xi(a), builtin2.eta(a)
            assert rank(phi) == builtin2.dim - 1
            assert phi.apply(xi).is_zero()
            assert all(
                sum(eta[i] * phi[i, j] for i in range(builtin2.dim)) == 0
                for j in range(builtin2.dim)
            )
            assert value_at(eta, xi) == 1

    def test_metric_signature_finding(self, builtin2):
        report = validate_hn_metric(builtin2)
        assert report.findings["metric_signature"] == "(4,3,0)"
        assert signature(builtin2.metric) == (4, 3, 0)

    def test_reeb_square_norms(self, builtin2):
        g = builtin2.metric
        for a in (1, 2, 3):
            xi = builtin2.xi(a)
            sq = sum(xi[i] * g[i, j] * xi[j] for i in range(7) for j in range(7))
            assert sq == -builtin2.eps(a)


@pytest.mark.parametrize("alpha", [0, 4, -1])
def test_structure_numbers_outside_1_to_3_are_refused(builtin2, alpha):
    # a negative or zero number would otherwise index the tuple from its end
    p = build_product(builtin2)
    d1 = natural_connection(builtin2, 1).connection
    f1 = fundamental_tensor(builtin2, 1)
    calls = (
        lambda: builtin2.phi(alpha),
        lambda: phi_braces(builtin2, alpha),
        lambda: reeb_lie_derivative_eta(builtin2, alpha),
        lambda: naturality_report(d1, builtin2, alpha),
        lambda: check_fundamental_properties(f1, builtin2, alpha),
        lambda: fundamental_tensor(builtin2, alpha),
        lambda: in_skew_torsion_class(builtin2, alpha),
        lambda: natural_connection(builtin2, alpha, natural_connection(builtin2, 1).torsion),
        lambda: braces_nijenhuis_product(p, alpha, 1),
        lambda: braces_nijenhuis_product(p, 1, alpha),
        lambda: p.j(alpha),
    )
    for call in calls:
        with pytest.raises(ValueError, match="numbered 1, 2, 3"):
            call()
    assert not [key for key in builtin2._memo if key[1:2] == (alpha,)]


class TestStructurePerturbations:
    def test_broken_phi_is_caught(self, builtin2):
        structures = list(builtin2.structures)
        bad_phi = structures[0].phi * Fraction(2)
        structures[0] = replace(structures[0], phi=bad_phi)
        h = HN3Manifold(builtin2.mla, tuple(structures))
        report = validate_ac3(h)
        assert not report.passed

    def test_broken_metric_is_caught(self, builtin2):
        flipped = Matrix.diagonal([1, 1, -1, -1, -1, 1, -1])
        h = HN3Manifold(
            MetricLieAlgebra(builtin2.mla.algebra, flipped), builtin2.structures
        )
        report = validate_hn_metric(h)
        assert not report.passed

    def test_reeb_pairings_are_the_dense_sums(self, builtin2):
        # xi_1 gains a component along xi_2 and one outside every Reeb direction
        structures = list(builtin2.structures)
        xi = structures[0].xi + structures[1].xi * 3 + Vector.basis(7, 0)
        structures[0] = replace(structures[0], xi=xi)
        h = HN3Manifold(builtin2.mla, tuple(structures))
        g = h.metric
        pairings = {
            (a, b): sum(h.eta(a)[m] * h.xi(b)[m] for m in range(7))
            for a in (1, 2, 3) for b in (1, 2, 3)
        }
        expected = {ab: p for ab, p in pairings.items() if p != (ab[0] == ab[1])}
        found = {v.indices: v.lhs for v in validate_ac3(h).violations if "(xi" in v.identity}
        assert found == expected and expected
        norms = {
            (a,): sum(h.xi(a)[i] * g[i, j] * h.xi(a)[j] for i in range(7) for j in range(7))
            for a in (1, 2, 3)
        }
        expected = {a: n for a, n in norms.items() if n != -h.eps(a[0])}
        report = validate_hn_metric(h)
        found = {v.indices: v.lhs for v in report.violations if "square norm" in v.identity}
        assert found == expected and expected

    def test_structures_in_the_wrong_slots_are_refused(self, builtin2):
        # each slot fixes its metric character, so the Hermitian structure
        # in a Norden slot breaks metric compatibility
        s1, s2, s3 = builtin2.structures
        h = HN3Manifold(builtin2.mla, (s2, s1, s3))
        assert [h.eps(a) for a in (1, 2, 3)] == [1, -1, -1]
        assert not validate_hn_metric(h).passed
        with pytest.raises(ValidationError):
            require_valid(h)

    def test_exactly_three_structures(self, builtin2):
        with pytest.raises(ValidationError):
            HN3Manifold(builtin2.mla, builtin2.structures[:2])

    def test_dimension_warning(self):
        # a frame of dimension 5 cannot split into three equal contact
        # distributions; the validator warns and the identities fail
        mla = MetricLieAlgebra(LieAlgebra.abelian(5), Matrix.identity(5) * -1)
        j = Matrix([[0, -1], [1, 0]])
        phi = Matrix(
            [[j[i, k] if i < 2 and k < 2 else 0 for k in range(5)] for i in range(5)]
        )
        s = AlmostContactStructure(phi, Vector.basis(5, 4), covector(Vector.basis(5, 4)))
        h = HN3Manifold(mla, (s, s, s))
        report = validate_ac3(h)
        assert report.warnings and "4m+3" in report.warnings[0]
        assert not report.passed


def test_builtin_example_refuses_lambda_zero():
    with pytest.raises(ValueError, match="must be nonzero"):
        builtin_example(0)


class TestProductExtension:
    def test_extension_shapes_and_signature(self, builtin2):
        p = build_product(builtin2)
        assert p.mla.dim == 8
        assert p.metric_signature == (4, 4, 0)
        assert validate_hypercomplex_hn(p).passed
        assert validate_hypercomplex_hn(p).findings["extension_signature"] == "(4,4,0)"

    def test_extension_across_lambda_family(self):
        for lam in LAMBDAS:
            p = build_product(builtin_example(lam))
            assert validate_hypercomplex_hn(p).passed

    def test_extension_on_bracket_fixtures(self, bracket_fixtures):
        for name, h in bracket_fixtures.items():
            assert validate_hypercomplex_hn(build_product(h)).passed, name

    def test_operator_blocks(self, builtin2):
        p = build_product(builtin2)
        n = builtin2.dim
        for a in (1, 2, 3):
            j = p.j_ops[a - 1]
            phi, xi, eta = builtin2.phi(a), builtin2.xi(a), builtin2.eta(a)
            for i in range(n):
                for k in range(n):
                    assert j[i, k] == phi[i, k]
                assert j[i, n] == -xi[i]
                assert j[n, i] == eta[i]
            assert j[n, n] == 0

    def test_invalid_base_rejected(self, monkeypatch):
        import hn3.structures

        mla = MetricLieAlgebra(LieAlgebra.abelian(7), Matrix.identity(7))
        h = HN3Manifold(mla, standard_structures())  # metric has the wrong characters
        with pytest.raises(ValidationError):
            build_product(h)
        # past the gate, the extension fails its own checks too
        monkeypatch.setattr(hn3.structures, "require_valid", lambda h: None)
        p = build_product(h)
        assert not validate_hypercomplex_hn(p).passed

    def test_extended_brackets_zero_pad(self, solvable):
        p = build_product(solvable)
        c = p.mla.algebra.bracket
        base = solvable.mla.algebra.bracket
        n = solvable.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert c[i, j, k] == base[i, j, k]
                assert c[i, j, n] == 0
                assert c[i, n, j] == 0 and c[n, i, j] == 0
