"""The tensor zoo and its built-in cross-checks.

Every closed-form expansion in terms of the fundamental tensor is an
independent code path from the bracket/braces definition it mirrors, so
exact agreement between the two is a strong end-to-end check of the
connection, the contraction conventions, and the structure algebra all
at once.  The bracket fixtures are chosen so that none of the compared
tensors vanish identically (see conftest).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import (
    form_from_seeds,
    last_two_swap,
    zoo_hats,
    zoo_jj,
)
from hn3 import (
    associated_nijenhuis,
    braces_nijenhuis_product,
    check_fundamental_properties,
    exterior_d_eta,
    fundamental_tensor,
    metric_lie_derivative,
    nijenhuis_tensor,
    phi_braces,
    reeb_lie_derivative_eta,
)
from hn3 import liealg, tensor
from hn3.nijenhuis import (
    associated_form_via_fundamental,
    associated_form_via_fundamental2,
    fundamental2_via_nijenhuis,
    metric_lie_derivative_via_associated2,
    metric_lie_derivative_via_fundamental,
    nijenhuis_form_via_fundamental,
)
from hn3.tensor import Tensor, permute_args, tensor_product
from oracle import build, symmetric_in


def f_seeds(alpha: int, lam: Fraction) -> dict:
    half = lam / 2
    if alpha == 1:
        return {
            (1, 1, 7): half, (1, 2, 6): half, (2, 1, 6): -half, (2, 2, 7): half,
            (3, 3, 7): half, (3, 4, 6): half, (4, 3, 6): -half, (4, 4, 7): half,
        }
    if alpha == 2:
        return {
            (1, 2, 5): half, (1, 4, 7): half, (2, 1, 5): -half, (2, 3, 7): half,
            (3, 2, 7): -half, (3, 4, 5): half, (4, 1, 7): -half, (4, 3, 5): -half,
        }
    return {(1, 3, 7): -half, (2, 4, 7): half, (3, 1, 7): half, (4, 2, 7): -half}


def expected_f(h, alpha: int, lam: Fraction) -> Tensor:
    return form_from_seeds(h.dim, 3, f_seeds(alpha, lam), last_two_swap(h.eps(alpha)))


class TestFundamentalTensor:
    @pytest.mark.parametrize("lam", [Fraction(1), Fraction(2), Fraction(-3)])
    def test_component_tables(self, lam, lam_family):
        h = lam_family[lam]
        for alpha in (1, 2, 3):
            assert fundamental_tensor(h, alpha) == expected_f(h, alpha, lam)

    def test_lambda_linearity(self, lam_family):
        h1 = lam_family[Fraction(1)]
        for lam, h in lam_family.items():
            for alpha in (1, 2, 3):
                assert fundamental_tensor(h, alpha) == fundamental_tensor(h1, alpha) * lam

    def test_properties_hold_on_all_fixtures(self, bracket_fixtures):
        for name, h in bracket_fixtures.items():
            for alpha in (1, 2, 3):
                f = fundamental_tensor(h, alpha)
                assert check_fundamental_properties(f, h, alpha).passed, (name, alpha)

    def test_properties_reject_a_broken_tensor(self, builtin2):
        f = fundamental_tensor(builtin2, 2)
        bad = f + tensor_product(builtin2.eta(2), exterior_d_eta(builtin2, 3))
        report = check_fundamental_properties(bad, builtin2, 2)
        # both identities are checked at each component before moving on
        swap = "F(x,y,z) = -eps F(x,z,y)"
        refl = (
            "F(x,y,z) = -eps F(x,phi y,phi z)"
            " + F(x,xi,z) eta(y) + F(x,y,xi) eta(z)"
        )
        expected = []
        for idx, lhs in (((6, 1, 2), -2), ((6, 2, 1), 2), ((6, 3, 4), -2), ((6, 4, 3), 2)):
            expected += [(swap, idx, lhs, -lhs), (refl, idx, lhs, -lhs)]
        assert [
            (v.identity, v.indices, v.lhs, v.rhs) for v in report.violations
        ] == expected

    def test_last_two_slots_symmetry(self, bracket_fixtures):
        # antisymmetric for the isometry structure, symmetric for the others
        for h in bracket_fixtures.values():
            assert fundamental_tensor(h, 1).antisymmetric_in(1, 2)
            assert symmetric_in(fundamental_tensor(h, 2), 1, 2)
            assert symmetric_in(fundamental_tensor(h, 3), 1, 2)


class TestDerivativeRoutes:
    def test_d_eta_two_routes(self, bracket_fixtures):
        # covariant route vs pure bracket route
        for h in bracket_fixtures.values():
            for alpha in (1, 2, 3):
                eta = h.eta(alpha)
                alg = h.mla.algebra
                direct = build(
                    0, 2, h.dim,
                    lambda i, j: -sum(
                        (alg.bracket[i, j, k] * eta[k] for k in range(h.dim)),
                        Fraction(0),
                    ),
                )
                assert exterior_d_eta(h, alpha) == direct

    def test_killing_defect_on_fixtures(self, builtin2, solvable):
        for alpha in (1, 2, 3):
            assert metric_lie_derivative(builtin2, alpha).is_zero()
            assert not metric_lie_derivative(solvable, alpha).is_zero()


class TestNijenhuisSymmetries:
    def test_bracket_tensor_antisymmetric(self, bracket_fixtures):
        for h in bracket_fixtures.values():
            for alpha in (1, 2, 3):
                vec, form = nijenhuis_tensor(h, alpha)
                assert vec.antisymmetric_in(0, 1)
                assert form.antisymmetric_in(0, 1)

    def test_braces_tensors_symmetric(self, solvable, discriminator):
        for h in (solvable, discriminator):
            for alpha in (1, 2, 3):
                assert symmetric_in(phi_braces(h, alpha), 0, 1)
                vec, form = associated_nijenhuis(h, alpha)
                assert symmetric_in(vec, 0, 1)
                assert symmetric_in(form, 0, 1)


class TestCrossExpressions:
    """Definitional tensors vs their fundamental-tensor expansions."""

    def test_first_structure_family(self, bracket_fixtures):
        for name, h in bracket_fixtures.items():
            f1 = fundamental_tensor(h, 1)
            _, n_form = nijenhuis_tensor(h, 1)
            _, nhat_form = associated_nijenhuis(h, 1)
            assert n_form == nijenhuis_form_via_fundamental(h, f1), name
            assert nhat_form == associated_form_via_fundamental(h, f1), name
            assert metric_lie_derivative(h, 1) == metric_lie_derivative_via_fundamental(h, f1), name

    def test_symmetrized_pair_relation(self, bracket_fixtures):
        # Nhat_1(x,y,z) = N_1(z,x,y) + N_1(z,y,x)
        for name, h in bracket_fixtures.items():
            _, n_form = nijenhuis_tensor(h, 1)
            _, nhat_form = associated_nijenhuis(h, 1)
            rhs = permute_args(n_form, (2, 0, 1)) + permute_args(n_form, (2, 1, 0))
            assert nhat_form == rhs, name

    def test_second_structure_family(self, bracket_fixtures):
        for name, h in bracket_fixtures.items():
            f2 = fundamental_tensor(h, 2)
            _, n_form = nijenhuis_tensor(h, 2)
            _, nhat_form = associated_nijenhuis(h, 2)
            assert nhat_form == associated_form_via_fundamental2(h, f2), name
            assert f2 == fundamental2_via_nijenhuis(h, n_form, nhat_form), name
            assert metric_lie_derivative(h, 2) == (
                metric_lie_derivative_via_associated2(h, nhat_form)
            ), name

    def test_second_structure_on_geodesically_twisted_reeb(self, discriminator):
        # D_{xi_2}xi_2 != 0 here, which separates the last relation's
        # grouping of its Reeb boundary terms from the wrong one
        conn = discriminator.mla.levi_civita
        xi = discriminator.xi(2)
        image = [
            sum((xi[a] * conn.gamma[a, 5, k] for a in range(7)), Fraction(0))
            for k in range(7)
        ]
        assert any(v != 0 for v in image)
        _, nhat_form = associated_nijenhuis(discriminator, 2)
        assert metric_lie_derivative(discriminator, 2) == (
            metric_lie_derivative_via_associated2(discriminator, nhat_form)
        )

    def test_vanishing_pair_on_builtin_family(self, lam_family):
        # whenever the associated tensor vanishes the Reeb vector is Killing
        for h in lam_family.values():
            for alpha in (1, 2, 3):
                _, nhat_form = associated_nijenhuis(h, alpha)
                assert nhat_form.is_zero()
                assert metric_lie_derivative(h, alpha).is_zero()


class TestHatComponents:
    def test_all_vanish_on_builtin_family(self, lam_family):
        for h in lam_family.values():
            for alpha in (1, 2, 3):
                assert all(t.is_zero() for t in zoo_hats(h, alpha))

    def test_fourth_is_reeb_derivative_of_eta(self, solvable, discriminator):
        for h in (solvable, discriminator):
            for alpha in (1, 2, 3):
                assert zoo_hats(h, alpha)[3] == -reeb_lie_derivative_eta(h, alpha)

    def test_first_is_associated_tensor(self, solvable, central_image):
        for h in (solvable, central_image):
            for alpha in (1, 2, 3):
                vec, _ = associated_nijenhuis(h, alpha)
                assert zoo_hats(h, alpha)[0] == vec

    def test_nonzero_on_solvable(self, solvable):
        hat1, hat2, hat3, hat4 = zoo_hats(solvable, 1)
        assert not hat1.is_zero()
        assert not hat2.is_zero()


class TestProductPairings:
    def test_block_identities(self, bracket_fixtures, products):
        # {J_a, J_a} restricted to base arguments reproduces the four
        # associated components, in every fixture geometry
        for name in ("builtin", "solvable", "discriminator"):
            h, p = bracket_fixtures[name], products[name]
            n = h.dim
            for alpha in (1, 2, 3):
                jj = zoo_jj(p, alpha, alpha)
                hat1, hat2, hat3, hat4 = zoo_hats(h, alpha)
                for i in range(n):
                    for j in range(n):
                        for k in range(n):
                            assert jj[i, j, k] == hat1[i, j, k], name
                        assert jj[i, j, n] == hat2[i, j], name
                    for k in range(n):
                        assert jj[i, n, k] == hat3[i, k], name
                    assert jj[i, n, n] == hat4[i], name

    def test_all_six_vanish_on_builtin(self, products):
        p = products["builtin"]
        for alpha in (1, 2, 3):
            for beta in (1, 2, 3):
                assert zoo_jj(p, alpha, beta).is_zero()

    def test_pairing_symmetries(self, products):
        p = products["solvable"]
        for alpha in (1, 2, 3):
            for beta in (1, 2, 3):
                t = zoo_jj(p, alpha, beta)
                assert symmetric_in(t, 0, 1)
                assert t == zoo_jj(p, beta, alpha)

    def test_mixed_pairings_not_identically_zero(self, products):
        assert not zoo_jj(products["solvable"], 1, 2).is_zero()

    def test_each_slot_contraction_runs_once(self, products, monkeypatch):
        # P(J1, J1) needs the braces' derivative of J1 and two slot
        # contractions; the symmetrized (P(J1, J2) + P(J2, J1)) / 2 needs
        # the derivatives of J1 and J2 and four: no derivative is built twice
        p = products["solvable"]
        p.mla.braces  # built before counting
        kernel = tensor.contract
        calls = []

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(tensor, "contract", counting)
        monkeypatch.setattr(liealg, "contract", counting)
        for (alpha, beta), expected in (((1, 1), 3), ((1, 2), 6), ((3, 2), 6)):
            calls.clear()
            braces_nijenhuis_product(p, alpha, beta)
            assert len(calls) == expected, (alpha, beta)
