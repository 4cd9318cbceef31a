"""Structure-preserving connections with totally skew-symmetric torsion.

Covers the class conditions gating existence, the closed-form torsion
tables, the agreement of the two independent torsion routes for the
first structure, naturality of the built connections with negative
controls, and the coincidence comparison of all three.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import form_from_seeds, manifold_from_brackets, signed_perms
from hn3 import (
    associated_nijenhuis,
    class_condition_alpha1,
    class_condition_alpha23,
    coincidence_check,
    connection_torsion,
    fundamental_tensor,
    in_skew_torsion_class,
    natural_connection,
    naturality_report,
    structure_torsion,
    torsion_alpha1_via_forms,
    validation_reports,
)
from hn3.errors import ExistenceError, SymmetryError
from hn3.tensor import Tensor, is_three_form, lower
from test_frame_covariance import elementary_product, is_signed_permutation, move

# 2-step nilpotent brackets on the standard frame (so Jacobi holds) that
# tell the structures apart, with the class verdicts of structures 1, 2, 3
SEPARATING_DRAWS = {
    "[e3,e4] = 2e6": ({(3, 4, 6): 2, (4, 3, 6): -2}, [True, False, False]),
    "[e1,e4] = [e2,e3] = e6": (
        {(1, 4, 6): 1, (4, 1, 6): -1, (2, 3, 6): 1, (3, 2, 6): -1}, [False, True, False],
    ),
    "[e2,e4] = -e5": ({(2, 4, 5): -1, (4, 2, 5): 1}, [False, False, False]),
}

# two fixed frame changes, products of elementary matrices I + q E_ij (0-based)
FRAMES = (
    [(0, 4, Fraction(1, 2)), (5, 2, Fraction(-2))],
    [(1, 6, Fraction(3)), (3, 0, Fraction(-1, 3)), (6, 5, Fraction(2))],
)


def torsion_seeds(alpha: int, lam: Fraction) -> dict:
    if alpha in (1, 3):
        return {(1, 2, 7): -lam, (3, 4, 7): -lam}
    half = lam / 2
    return {(1, 2, 7): -half, (3, 4, 7): -half, (1, 4, 5): half, (2, 3, 5): half}


def expected_torsion(h, alpha: int, lam: Fraction) -> Tensor:
    return form_from_seeds(h.dim, 3, torsion_seeds(alpha, lam), signed_perms)


class TestClassConditions:
    def test_hold_on_builtin_family(self, lam_family):
        for lam in (Fraction(1), Fraction(-1), Fraction(5, 2)):
            h = lam_family[lam]
            assert class_condition_alpha1(h)
            for alpha in (2, 3):
                assert class_condition_alpha23(h, alpha)
            assert all(in_skew_torsion_class(h, a) for a in (1, 2, 3))

    def test_hold_trivially_on_flat(self, flat):
        assert all(in_skew_torsion_class(flat, a) for a in (1, 2, 3))

    def test_fail_on_non_killing_reebs(self, solvable):
        # every Reeb vector of the solvable fixture has a Killing defect
        for alpha in (2, 3):
            assert not class_condition_alpha23(solvable, alpha)

    def test_fail_on_broken_reflection_identity(self, solvable):
        assert not class_condition_alpha1(solvable)
        with pytest.raises(ExistenceError, match="reflection identity"):
            structure_torsion(solvable, 1)

    def test_gate_the_torsion_constructors(self, solvable):
        with pytest.raises(ExistenceError):
            structure_torsion(solvable, 2)
        forced = structure_torsion(solvable, 2, force=True)
        assert not forced.is_zero()

    def test_alpha_range_guard(self, builtin2):
        with pytest.raises(ValueError):
            structure_torsion(builtin2, 4)

    def test_norden_condition_refuses_the_first_structure(self, builtin2):
        with pytest.raises(ValueError, match="second and third structures"):
            class_condition_alpha23(builtin2, 1)


def test_class_condition_holds_exactly_when_the_associated_nijenhuis_tensor_vanishes(
    bracket_fixtures, lam_family
):
    # the paper's existence theorem, on which coincidence_check relies when
    # it gates on the class conditions alone
    corpus = {**bracket_fixtures, **{f"lambda = {lam}": h for lam, h in lam_family.items()}}
    for name, (brackets, verdicts) in SEPARATING_DRAWS.items():
        corpus[name] = h = manifold_from_brackets(brackets)
        assert [in_skew_torsion_class(h, a) for a in (1, 2, 3)] == verdicts, name
    for k, factors in enumerate(FRAMES):
        p = elementary_product(factors)
        assert not is_signed_permutation(p)
        corpus[f"example in frame {k}"] = move(lam_family[2], p)
    corpus["[e3,e4] = 2e6 in frame 1"] = move(corpus["[e3,e4] = 2e6"], p)
    for name, h in corpus.items():
        assert all(r.passed for r in validation_reports(h)), name
        for a in (1, 2, 3):
            vanishes = associated_nijenhuis(h, a)[0].is_zero()
            assert in_skew_torsion_class(h, a) == vanishes, (name, a)


class TestTorsionForms:
    @pytest.mark.parametrize("lam", [Fraction(1), Fraction(2), Fraction(-3)])
    def test_component_tables(self, lam, lam_family):
        h = lam_family[lam]
        for alpha in (1, 2, 3):
            assert structure_torsion(h, alpha) == (
                expected_torsion(h, alpha, lam)
            )

    def test_totally_skew(self, lam_family):
        h = lam_family[Fraction(5, 2)]
        for alpha in (1, 2, 3):
            assert is_three_form(structure_torsion(h, alpha))

    def test_two_routes_for_first_structure(self, lam_family, flat):
        for h in (lam_family[Fraction(2)], lam_family[Fraction(-7, 3)], flat):
            assert structure_torsion(h, 1) == torsion_alpha1_via_forms(h)

    def test_zero_on_flat(self, flat):
        for alpha in (1, 2, 3):
            assert structure_torsion(flat, alpha).is_zero()


class TestNaturalConnections:
    def test_connections_annihilate_their_structure(self, builtin2):
        for alpha in (1, 2, 3):
            d = natural_connection(builtin2, alpha)
            report = naturality_report(d.connection, builtin2, alpha)
            assert report.passed, report.render()

    def test_coefficients_are_levi_civita_plus_half_torsion(self, builtin2):
        d = natural_connection(builtin2, 1)
        lc = builtin2.mla.levi_civita.gamma
        lowered = lower(d.connection.gamma - lc, builtin2.metric)
        assert lowered == d.torsion * Fraction(1, 2)

    def test_torsion_round_trip(self, builtin2):
        for alpha in (1, 2, 3):
            d = natural_connection(builtin2, alpha)
            recomputed = lower(
                connection_torsion(d.connection, builtin2.mla.algebra),
                builtin2.metric,
            )
            assert recomputed == d.torsion

    def test_levi_civita_is_not_natural(self, builtin2):
        # non-trivial negative control: the torsion-free connection does
        # not preserve phi_1 on this example
        report = naturality_report(builtin2.mla.levi_civita, builtin2, 1)
        assert not report.passed
        assert any(v.identity == "D.phi" for v in report.violations)

    def test_second_connection_breaks_first_structure(self, builtin2):
        d2 = natural_connection(builtin2, 2)
        report = naturality_report(d2.connection, builtin2, 1)
        assert not report.passed

    @pytest.mark.parametrize("lam", [Fraction(1), Fraction(2), Fraction(-7, 3)])
    def test_first_connection_preserves_the_whole_3_structure(self, lam, lam_family):
        # why the module docstring says 3-form torsion pins D down for the
        # first structure only: D_1 is natural for structures 2 and 3 too,
        # although its torsion differs from T_2
        h = lam_family[lam]
        d1 = natural_connection(h, 1).connection
        for alpha in (1, 2, 3):
            report = naturality_report(d1, h, alpha)
            assert report.passed, report.render()

    def test_non_three_form_rejected(self, builtin2):
        # the fundamental tensor has the right shape but is not totally skew
        with pytest.raises(SymmetryError):
            natural_connection(builtin2, 1, torsion=fundamental_tensor(builtin2, 1))


class TestCoincidence:
    def test_builtin_verdict(self, builtin2):
        c = coincidence_check(builtin2)
        assert c.torsions_equal == {(1, 2): False, (1, 3): True, (2, 3): False}
        assert c.connections_equal == c.torsions_equal
        assert c.routes_agree
        assert not c.common_exists
        assert "no unique" in c.summary()

    def test_flat_all_coincide(self, flat):
        c = coincidence_check(flat)
        assert c.common_exists
        assert c.routes_agree
        assert "one natural connection" in c.summary()

    def test_gating_without_force(self, solvable):
        with pytest.raises(ExistenceError):
            coincidence_check(solvable)

    def test_forced_comparison_still_reports(self, solvable):
        c = coincidence_check(solvable, force=True)
        assert set(c.torsions_equal) == {(1, 2), (1, 3), (2, 3)}
        assert c.routes_agree

    def test_verdict_stable_across_lambda(self, lam_family):
        for lam in (Fraction(1), Fraction(-3), Fraction(5, 2)):
            c = coincidence_check(lam_family[lam])
            assert c.torsions_equal == {(1, 2): False, (1, 3): True, (2, 3): False}
