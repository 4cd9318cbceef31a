"""Acceptance gate: the ten headline checks, one line of output each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines on a green run; a failing criterion prints FAIL and the usual
traceback.  Every comparison is exact, with no tolerance anywhere.

The expected component tables are frozen here in closed form so the gate
does not depend on any other test module.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

from conftest import (
    form_from_seeds,
    last_two_swap,
    signed_perms,
    zoo_hats,
    zoo_jj,
)
from hn3 import (
    associated_form_via_fundamental,
    associated_form_via_fundamental2,
    associated_nijenhuis,
    class_condition_alpha1,
    class_condition_alpha23,
    coincidence_check,
    connection_torsion,
    fundamental_tensor,
    metric_lie_derivative,
    metric_lie_derivative_via_fundamental,
    natural_connection,
    naturality_report,
    nijenhuis_form_via_fundamental,
    nijenhuis_tensor,
    signature,
    structure_torsion,
    torsion_alpha1_via_forms,
    validate_hypercomplex_hn,
    validation_reports,
)
from hn3.structures import EPSILONS
from hn3.tensor import Tensor, cyclic_sum, is_three_form, lower, permute_args
from oracle import build

CANONICAL = (Fraction(1), Fraction(2), Fraction(-3))

# units of lambda/2, 1-based frame indices; entry (i, j, k) is the
# coefficient of e_k in the covariant derivative of e_j along e_i
KOSZUL_UNITS = {
    (1, 2, 7): 1, (2, 1, 7): -1, (3, 4, 7): 1, (4, 3, 7): -1,
    (1, 7, 2): -1, (7, 1, 2): -1, (2, 7, 1): 1, (7, 2, 1): 1,
    (3, 7, 4): 1, (7, 3, 4): 1, (4, 7, 3): -1, (7, 4, 3): -1,
}

# units of lambda/2; each table is completed by the last-two-slot
# symmetry of its structure (antisymmetric for the first, symmetric
# for the other two)
F_UNITS = {
    1: {(1, 1, 7): 1, (1, 2, 6): 1, (2, 1, 6): -1, (2, 2, 7): 1,
        (3, 3, 7): 1, (3, 4, 6): 1, (4, 3, 6): -1, (4, 4, 7): 1},
    2: {(1, 2, 5): 1, (1, 4, 7): 1, (2, 1, 5): -1, (2, 3, 7): 1,
        (3, 2, 7): -1, (3, 4, 5): 1, (4, 1, 7): -1, (4, 3, 5): -1},
    3: {(1, 3, 7): -1, (2, 4, 7): 1, (3, 1, 7): 1, (4, 2, 7): -1},
}

# units of lambda/2; completed to 3-forms over all signed permutations
TORSION_UNITS = {
    1: {(1, 2, 7): -2, (3, 4, 7): -2},
    2: {(1, 2, 7): -1, (3, 4, 7): -1, (1, 4, 5): 1, (2, 3, 5): 1},
    3: {(1, 2, 7): -2, (3, 4, 7): -2},
}


def expected_gamma(lam: Fraction) -> Tensor:
    half = lam / 2
    data = {
        (i - 1, j - 1, k - 1): u * half for (i, j, k), u in KOSZUL_UNITS.items()
    }
    return build(1, 2, 7, lambda *idx: data.get(idx, Fraction(0)))


def expected_f(alpha: int, lam: Fraction) -> Tensor:
    seeds = {idx: u * lam / 2 for idx, u in F_UNITS[alpha].items()}
    return form_from_seeds(7, 3, seeds, last_two_swap(EPSILONS[alpha - 1]))


def expected_t(alpha: int, lam: Fraction) -> Tensor:
    seeds = {idx: u * lam / 2 for idx, u in TORSION_UNITS[alpha].items()}
    return form_from_seeds(7, 3, seeds, signed_perms)


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL {text}")
        raise
    print(f"criterion {num:02d} PASS {text}")


def test_criterion_01_levi_civita(lam_family):
    with criterion(1, "Levi-Civita coefficients match the closed form at "
                      "lambda in {1, 2, -3}"):
        for lam in CANONICAL:
            h = lam_family[lam]
            assert h.mla.levi_civita.gamma == expected_gamma(lam)


def test_criterion_02_fundamental_tensors(lam_family):
    with criterion(2, "fundamental tensors match their component tables, "
                      "every other entry zero"):
        for lam in CANONICAL:
            h = lam_family[lam]
            for alpha in (1, 2, 3):
                assert fundamental_tensor(h, alpha) == expected_f(alpha, lam)


def test_criterion_03_torsion_forms(lam_family):
    with criterion(3, "torsion forms match their component tables up to "
                      "total antisymmetry"):
        for lam in CANONICAL:
            h = lam_family[lam]
            for alpha in (1, 2, 3):
                assert structure_torsion(h, alpha) == (
                    expected_t(alpha, lam)
                )


def test_criterion_04_coincidence_verdict(builtin2):
    with criterion(4, "first and third connections coincide, second differs; "
                      "no unique common connection"):
        c = coincidence_check(builtin2)
        assert c.torsions_equal == {(1, 2): False, (1, 3): True, (2, 3): False}
        assert c.connections_equal == c.torsions_equal
        assert not c.common_exists
        assert "no unique" in c.summary()


def test_criterion_05_structure_validation(builtin2, products):
    with criterion(5, "all structure identities hold; signature (4,3), "
                      "extension signature (4,4)"):
        for report in validation_reports(builtin2):
            assert report.passed, report.render()
        g = builtin2.metric
        for alpha in (1, 2, 3):
            xi = builtin2.xi(alpha)
            sq = sum(xi[i] * g[i, j] * xi[j] for i in range(7) for j in range(7))
            assert sq == -builtin2.eps(alpha)
        assert signature(g) == (4, 3, 0)
        assert products["builtin"].metric_signature == (4, 4, 0)


def test_criterion_06_oracle_equivalences(lam_family, flat):
    with criterion(6, "definitional tensors equal their fundamental-tensor "
                      "expressions; torsion round-trips through the "
                      "connection"):
        for h in (*(lam_family[lam] for lam in CANONICAL), flat):
            f1 = fundamental_tensor(h, 1)
            n_form = nijenhuis_tensor(h, 1)[1]
            nhat_form = associated_nijenhuis(h, 1)[1]
            assert n_form == nijenhuis_form_via_fundamental(h, f1)
            assert nhat_form == associated_form_via_fundamental(h, f1)
            assert metric_lie_derivative(h, 1) == metric_lie_derivative_via_fundamental(h, f1)
            assert nhat_form == (
                permute_args(n_form, (2, 0, 1)) + permute_args(n_form, (2, 1, 0))
            )
            assert associated_nijenhuis(h, 2)[1] == (
                associated_form_via_fundamental2(h, fundamental_tensor(h, 2))
            )
            assert structure_torsion(h, 1) == torsion_alpha1_via_forms(h)
            for alpha in (1, 2, 3):
                d = natural_connection(h, alpha)
                recomputed = lower(
                    connection_torsion(d.connection, h.mla.algebra), h.metric
                )
                assert recomputed == d.torsion


def test_criterion_07_product_extension(builtin2, products):
    with criterion(7, "extension is almost hypercomplex with the right "
                      "metric characters; pairings vanish and split "
                      "blockwise"):
        p = products["builtin"]
        assert validate_hypercomplex_hn(p).passed
        for alpha in (1, 2, 3):
            for beta in (1, 2, 3):
                if alpha != beta:
                    assert zoo_jj(p, alpha, beta).is_zero()
        n = p.dim - 1
        for alpha in (1, 2, 3):
            jj = zoo_jj(p, alpha, alpha)
            hat1, hat2, hat3, hat4 = zoo_hats(builtin2, alpha)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert jj[i, j, k] == hat1[i, j, k]
                    assert jj[i, j, n] == hat2[i, j]
                for k in range(n):
                    assert jj[i, n, k] == hat3[i, k]
                assert jj[i, n, n] == hat4[i]


def test_criterion_08_naturality(builtin2):
    with criterion(8, "each natural connection preserves its whole "
                      "structure; torsion totally skew; torsion-free "
                      "control fails"):
        for alpha in (1, 2, 3):
            d = natural_connection(builtin2, alpha)
            assert is_three_form(d.torsion)
            report = naturality_report(d.connection, builtin2, alpha)
            assert report.passed, report.render()
        control = naturality_report(builtin2.mla.levi_civita, builtin2, 1)
        assert not control.passed
        assert any(v.identity == "D.phi" for v in control.violations)


def test_criterion_09_killing_and_hats(lam_family):
    with criterion(9, "all Reeb vector fields are Killing and every "
                      "associated component vanishes"):
        for lam in CANONICAL:
            h = lam_family[lam]
            for alpha in (1, 2, 3):
                assert metric_lie_derivative(h, alpha).is_zero()
                assert all(t.is_zero() for t in zoo_hats(h, alpha))


def test_criterion_10_class_conditions(lam_family):
    with criterion(10, "the existence class conditions hold for all three "
                       "structures"):
        for lam in CANONICAL:
            h = lam_family[lam]
            assert class_condition_alpha1(h)
            for alpha in (2, 3):
                assert cyclic_sum(fundamental_tensor(h, alpha)).is_zero()
                assert metric_lie_derivative(h, alpha).is_zero()
                assert class_condition_alpha23(h, alpha)
