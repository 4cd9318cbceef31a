"""Structure-preserving connections with totally skew-symmetric torsion.

Covers the class conditions gating existence, the closed-form torsion
tables, the agreement of the two independent torsion routes for the
first structure, naturality of the built connections with negative
controls, and the coincidence comparison of all three.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

import pytest

from conftest import (
    CENTRAL_IMAGE_BRACKETS,
    DISCRIMINATOR_BRACKETS,
    SOLVABLE_BRACKETS,
    form_from_seeds,
    manifold_from_brackets,
    signed_perms,
)
from hn3 import (
    Vector,
    associated_nijenhuis,
    class_condition_alpha1,
    class_condition_alpha23,
    coincidence_check,
    connection_torsion,
    fundamental_tensor,
    in_skew_torsion_class,
    metric_lie_derivative,
    move,
    natural_connection,
    naturality_report,
    structure_torsion,
    torsion_alpha1_via_forms,
    validation_reports,
)
from hn3.errors import ExistenceError, SymmetryError
from hn3.tensor import Tensor, is_three_form, lower
from oracle import bracket_vectors, value_at
from test_frame_covariance import elementary_product, is_signed_permutation

# 2-step nilpotent brackets on the standard frame (so Jacobi holds) that
# tell the structures apart, with the class verdicts of structures 1, 2, 3
SEPARATING_DRAWS = {
    "[e3,e4] = 2e6": ({(3, 4, 6): 2, (4, 3, 6): -2}, [True, False, False]),
    "[e1,e4] = [e2,e3] = e6": (
        {(1, 4, 6): 1, (4, 1, 6): -1, (2, 3, 6): 1, (3, 2, 6): -1}, [False, True, False],
    ),
    "[e2,e4] = -e5": ({(2, 4, 5): -1, (4, 2, 5): 1}, [False, False, False]),
}

# xi_2 = e6 acts on e1, e2 without being Killing, yet F_2 has no cyclic sum
CYCLIC_FREE_DRAW = {(6, 1, 4): 1, (1, 6, 4): -1, (6, 2, 3): 1, (2, 6, 3): -1}
# [e3,e5] = -e2, [e4,e5] = e1: 2-step nilpotent with N̂_1 = 0, yet xi_1 = e5
# is not Killing, so the first structure is outside its class
UNKILLING_DRAW = {(3, 5, 2): -1, (5, 3, 2): 1, (4, 5, 1): 1, (5, 4, 1): -1}

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

    def test_alpha_range_guard(self, builtin2):
        with pytest.raises(ValueError):
            structure_torsion(builtin2, 4)

    def test_norden_condition_refuses_the_first_structure(self, builtin2):
        with pytest.raises(ValueError, match="second and third structures"):
            class_condition_alpha23(builtin2, 1)


def test_class_condition_holds_exactly_when_the_associated_nijenhuis_tensor_vanishes(
    bracket_fixtures, lam_family
):
    # the existence theorem, on which coincidence_check relies when it gates
    # on the class conditions alone: class a <=> N̂_a = 0 for a = 2, 3, and
    # class 1 <=> (N̂_1 = 0 and xi_1 Killing); N̂_1 = 0 alone does not
    # suffice, as the last input of the corpus shows
    corpus = {**bracket_fixtures, **{f"lambda = {lam}": h for lam, h in lam_family.items()}}
    for name, (brackets, verdicts) in SEPARATING_DRAWS.items():
        corpus[name] = h = manifold_from_brackets(brackets)
        assert [in_skew_torsion_class(h, a) for a in (1, 2, 3)] == verdicts, name
    for k, factors in enumerate(FRAMES):
        p = elementary_product(factors)
        assert not is_signed_permutation(p)
        corpus[f"example in frame {k}"] = move(lam_family[2], p)
    corpus["[e3,e4] = 2e6 in frame 1"] = move(corpus["[e3,e4] = 2e6"], p)
    corpus["[e6,e1] = e4, [e6,e2] = e3"] = manifold_from_brackets(CYCLIC_FREE_DRAW)
    corpus["[e3,e5] = -e2, [e4,e5] = e1"] = unkilling = manifold_from_brackets(UNKILLING_DRAW)
    assert associated_nijenhuis(unkilling, 1)[0].is_zero()
    assert not metric_lie_derivative(unkilling, 1).is_zero()
    assert not in_skew_torsion_class(unkilling, 1)
    for name, h in corpus.items():
        assert all(r.passed for r in validation_reports(h)), name
        for a in (1, 2, 3):
            theorem_side = associated_nijenhuis(h, a)[0].is_zero()
            if a == 1:
                theorem_side = theorem_side and metric_lie_derivative(h, 1).is_zero()
            assert in_skew_torsion_class(h, a) == theorem_side, (name, a)


WITNESS_INPUTS = {
    "solvable": SOLVABLE_BRACKETS,
    "central_image": CENTRAL_IMAGE_BRACKETS,
    "discriminator": DISCRIMINATOR_BRACKETS,
    **{name: brackets for name, (brackets, _) in SEPARATING_DRAWS.items()},
    "[e6,e1] = e4, [e6,e2] = e3": CYCLIC_FREE_DRAW,
}

# every structure outside its class on those inputs, with the identity its
# existence error must name
WITNESSES = [
    *((name, 1, "the reflection identity") for name in (
        "solvable", "central_image", "discriminator", "[e1,e4] = [e2,e3] = e6",
        "[e2,e4] = -e5", "[e6,e1] = e4, [e6,e2] = e3",
    )),
    *((name, 2, "the cyclic sum of F_2") for name in (
        "solvable", "central_image", "discriminator", "[e3,e4] = 2e6", "[e2,e4] = -e5",
    )),
    ("[e6,e1] = e4, [e6,e2] = e3", 2, "L_xi g of structure 2"),
    *((name, 3, "the cyclic sum of F_3") for name in (
        "solvable", "central_image", "discriminator", "[e3,e4] = 2e6",
        "[e1,e4] = [e2,e3] = e6", "[e2,e4] = -e5", "[e6,e1] = e4, [e6,e2] = e3",
    )),
]

WITNESS = re.compile(
    r"\((reflection identity|cyclic or Killing condition) fails\); witness: (?P<name>.+) "
    r"is nonzero at (?P<count>\d+) of (?P<total>\d+) components, "
    r"first at \((?P<idx>[\d, ]+)\) = (?P<value>-?\d+(/\d+)?)$"
)


def dense_identity(h, alpha: int, name: str) -> dict:
    """Every component of the named identity, densely, by 1-based index in row-major order."""
    n, alg = h.dim, h.mla.algebra
    e = [Vector.basis(n, i) for i in range(n)]
    f, arity = fundamental_tensor(h, alpha), 3
    if name.startswith("L_xi g"):
        # (L_xi g)(x, y) = -g([xi, x], y) - g(x, [xi, y]) on left-invariant fields
        g, xi, arity = h.metric, h.xi(alpha), 2

        def pair(x, y):
            return sum((g[i, j] * x[i] * y[j] for i in range(n) for j in range(n)), Fraction(0))

        def comp(i, j):
            return -pair(bracket_vectors(alg, xi, e[i]), e[j]) - pair(
                e[i], bracket_vectors(alg, xi, e[j])
            )
    elif name == "the reflection identity":
        # phi e_i has components phi[m, i]
        pe = [Vector([h.phi(1)[m, i] for m in range(n)]) for i in range(n)]

        def comp(i, j, k):
            return (
                value_at(f, pe[i], e[j], e[k]) + value_at(f, pe[j], e[i], e[k])
                + value_at(f, e[i], e[j], pe[k]) + value_at(f, e[j], e[i], pe[k])
            )
    else:
        def comp(i, j, k):
            return f[i, j, k] + f[j, k, i] + f[k, i, j]
    return {
        tuple(i + 1 for i in idx): comp(*idx)
        for idx in itertools.product(range(n), repeat=arity)
    }


@pytest.mark.parametrize(
    "inputs, alpha, identity", WITNESSES, ids=[f"{n} / structure {a}" for n, a, _ in WITNESSES]
)
def test_failed_class_condition_names_its_witness(inputs, alpha, identity):
    h = manifold_from_brackets(WITNESS_INPUTS[inputs])
    with pytest.raises(ExistenceError, match="does not admit a natural connection") as exc:
        structure_torsion(h, alpha)
    found = WITNESS.search(str(exc.value))
    assert found, str(exc.value)
    assert found["name"] == identity
    if identity.startswith("L_xi g"):
        # the Killing defect is named only where the cyclic sum vanishes
        assert not any(dense_identity(h, alpha, f"the cyclic sum of F_{alpha}").values())
    dense = dense_identity(h, alpha, identity)
    nonzero = [(idx, v) for idx, v in dense.items() if v]
    assert int(found["total"]) == len(dense)
    assert int(found["count"]) == len(nonzero)
    first = tuple(int(i) for i in found["idx"].split(", "))
    assert (first, Fraction(found["value"])) == nonzero[0]


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

    def test_verdict_stable_across_lambda(self, lam_family):
        for lam in (Fraction(1), Fraction(-3), Fraction(5, 2)):
            c = coincidence_check(lam_family[lam])
            assert c.torsions_equal == {(1, 2): False, (1, 3): True, (2, 3): False}
