"""Tensor container and the multilinear operations built on it.

Covers index lowering and raising, cyclic sums, alternation, slot
contractions, the tensor product, the eta-wedge, and the combinators the
geometry modules compose their formulas from.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hn3 import Matrix, Vector, builtin_example
from hn3.errors import ShapeError, SymmetryError
from hn3.liealg import (
    Connection,
    LieAlgebra,
    MetricLieAlgebra,
    covariant_derivative,
    covariant_derivative_vector,
    lie_derivative_covector,
)
from hn3.tensor import (
    Tensor,
    contract_arg_with_vector,
    covector,
    cyclic_sum,
    is_three_form,
    lower,
    metric_tensor,
    operator_from_tensor,
    permute_args,
    postcompose,
    precompose,
    raise_last,
    swap_args,
    tensor_from_operator,
    tensor_product,
    times_vector,
    wedge_1_2,
)
from oracle import alternation, build, rank, value_at

rationals = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)


def tensors(contra: int, arity: int, dim: int = 3):
    n = dim ** (contra + arity)
    return st.lists(rationals, min_size=n, max_size=n).map(
        lambda comps: Tensor(contra, arity, dim, comps)
    )


METRIC3 = Matrix.diagonal([1, -1, 1])

TRANSPOSITIONS = ((0, 1), (1, 2), (0, 2))
RAMP = build(0, 3, 3, lambda i, j, k: Fraction(i * 9 + j * 3 + k))


def antisymmetrized(t: Tensor, pair: tuple[int, int]) -> Tensor:
    """``t`` made antisymmetric in one pair of slots, generically in no other."""
    return t - swap_args(t, *pair)


# plain draws, and draws that pass exactly one transposition check
three_slot_tensors = st.one_of(
    tensors(0, 3),
    *(tensors(0, 3).map(lambda t, p=pair: antisymmetrized(t, p)) for pair in TRANSPOSITIONS),
)


class TestContainer:
    def test_component_count_enforced(self):
        with pytest.raises(ShapeError):
            Tensor(0, 2, 3, [Fraction(0)] * 8)

    def test_getitem_row_major(self):
        t = build(0, 2, 2, lambda i, j: Fraction(10 * i + j))
        assert t[1, 0] == 10
        assert t[(0, 1)] == 1

    def test_nonzero_and_entries_agree(self):
        t = build(0, 2, 3, lambda i, j: Fraction(1) if (i, j) == (2, 1) else Fraction(0))
        assert list(t.nonzero()) == [((2, 1), Fraction(1))]
        assert t.entries_1based() == [((3, 2), Fraction(1))]

    def test_value_at_multilinear(self):
        g = metric_tensor(METRIC3)
        u, v = Vector([1, 2, 0]), Vector([0, 1, 1])
        assert value_at(g, u, v) == Fraction(-2)
        assert value_at(g, u + v, v) == value_at(g, u, v) + value_at(g, v, v)

    def test_operator_round_trip(self):
        m = Matrix([[0, 1, 0], [2, 0, 0], [0, 0, 3]])
        assert operator_from_tensor(tensor_from_operator(m)) == m


class TestMetricOps:
    @given(tensors(1, 2))
    @settings(max_examples=20, deadline=None)
    def test_lower_then_raise(self, t):
        assert raise_last(lower(t, METRIC3), METRIC3) == t

    def test_lower_places_output_last(self):
        m = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])  # e2 -> e1
        low = lower(tensor_from_operator(m), METRIC3)
        # g(m(e2), e1) = g(e1, e1) = 1 sits at argument slot (2) output slot (1)
        assert low[1, 0] == 1

    def test_interior_contracts_first_slot(self):
        g = metric_tensor(METRIC3)
        assert contract_arg_with_vector(g, Vector.basis(3, 1), 0) == covector(Vector([0, -1, 0]))

    def test_contract_arg_with_vector_hits_chosen_slot(self):
        t = build(0, 3, 3, lambda i, j, k: Fraction(i * 9 + j * 3 + k))
        v = Vector([1, 1, 0])
        c = contract_arg_with_vector(t, v, 1)
        assert c[2, 1] == t[2, 0, 1] + t[2, 1, 1]


class TestCyclicAndAlternation:
    @given(tensors(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_cyclic_sum_is_cycle_invariant(self, t):
        s = cyclic_sum(t)
        assert s == permute_args(s, (1, 2, 0))

    @given(tensors(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_alternation_is_three_form(self, t):
        assert is_three_form(alternation(t))

    @given(three_slot_tensors)
    @example(antisymmetrized(RAMP, (0, 1)))
    @example(antisymmetrized(RAMP, (1, 2)))
    @example(antisymmetrized(RAMP, (0, 2)))
    @settings(max_examples=20, deadline=None)
    def test_three_forms_are_alternation_fixed_points(self, t):
        a = alternation(t)
        assert alternation(a) == a
        assert is_three_form(t) == (alternation(t) == t)

    @given(three_slot_tensors)
    @example(RAMP)
    @settings(max_examples=40, deadline=None)
    def test_alternation_is_the_signed_permutation_mean(self, t):
        # the cyclic shifts of t(y, x, z) are exactly the three odd permutations
        odd = cyclic_sum(swap_args(t, 0, 1))
        assert (cyclic_sum(t) - odd) * Fraction(1, 6) == alternation(t)

    def test_cyclic_sum_of_three_form_is_triple(self):
        t = alternation(build(0, 3, 3, lambda i, j, k: Fraction(i - 2 * j + k * k)))
        assert cyclic_sum(t) == t * 3

    def test_cyclic_sum_rejects_other_shapes(self):
        with pytest.raises(ShapeError):
            cyclic_sum(metric_tensor(METRIC3))


class TestWedge:
    def test_wedge_requires_antisymmetric_factor(self):
        eta = covector(Vector([1, 0, 0]))
        with pytest.raises(SymmetryError):
            wedge_1_2(eta, metric_tensor(METRIC3))

    def test_wedge_is_three_form_and_kills_common_factor(self):
        eta = covector(Vector([1, 0, 0]))
        om = build(0, 2, 3, lambda i, j: Fraction((i - j) * (i + j + 1)))
        w = wedge_1_2(eta, om)
        assert is_three_form(w)
        assert value_at(w, Vector.basis(3, 0), Vector.basis(3, 1), Vector.basis(3, 2)) == (
            value_at(om, Vector.basis(3, 1), Vector.basis(3, 2))
        )

    def test_eta_wedge_d_eta_on_example(self):
        h = builtin_example(2)
        from hn3 import exterior_d_eta

        w = wedge_1_2(h.eta(3), exterior_d_eta(h, 3))
        assert is_three_form(w)
        assert w.entries_1based()[0] == ((1, 2, 7), Fraction(-2))


class TestCombinators:
    def test_precompose_each_slot(self):
        g = metric_tensor(METRIC3)
        m = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert value_at(precompose(g, m, 0), Vector.basis(3, 0), Vector.basis(3, 1)) == (
            value_at(g, Vector.basis(3, 1), Vector.basis(3, 1))
        )
        assert precompose(g, m, 1) == swap_args(precompose(g, m, 0), 0, 1)

    def test_postcompose_acts_on_output(self):
        br = build(1, 2, 3, lambda i, j, k: Fraction(1) if (i, j, k) == (0, 1, 2) else Fraction(0))
        m = Matrix.diagonal([5, 5, 5])
        assert postcompose(br, m)[0, 1, 2] == 5

    def test_times_and_covector_products(self):
        eta = covector(Vector([0, 1, 0]))
        om = covector(Vector([1, 0, 0]))
        left = tensor_product(eta, om)
        assert left[1, 0] == 1 and left[0, 1] == 0
        assert tensor_product(om, eta) == swap_args(left, 0, 1)
        with pytest.raises(ShapeError):
            tensor_product(tensor_from_operator(METRIC3), eta)  # a (1,1) factor
        with pytest.raises(ShapeError):
            tensor_product(eta, tensor_from_operator(METRIC3))
        with pytest.raises(ShapeError):
            tensor_product(eta, covector(Vector([1, 0])))  # dimensions 3 and 2

    def test_times_vector_appends_output(self):
        om = covector(Vector([1, 2, 0]))
        t = times_vector(om, Vector([0, 0, 3]))
        assert t[1, 2] == 6
        assert (t.contra, t.arity) == (1, 1)

    @given(tensors(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_permute_args_round_trip(self, t):
        assert permute_args(permute_args(t, (1, 2, 0)), (2, 0, 1)) == t

    @given(tensors(0, 2))
    @settings(max_examples=20, deadline=None)
    def test_swap_args_is_involutive(self, t):
        assert swap_args(swap_args(t, 0, 1), 0, 1) == t


# ---------------------------------------------------------------------------
# The sparse kernels against the dense loops they replaced.  Each reference
# below walks every index tuple and reads components through ``t[...]``,
# exactly as the dense kernels did; the tensors drawn are mostly zeros and
# the operators half zeros, the shape of every input the package sees.

def dense_lower(t, g):
    def fn(*idx):
        *args, z = idx
        return sum((t[tuple(args) + (m,)] * g[m, z] for m in range(t.dim)), Fraction(0))

    return build(0, t.arity + 1, t.dim, fn)


def dense_raise_last(t, g_inv):
    def fn(*idx):
        *args, k = idx
        return sum((t[tuple(args) + (m,)] * g_inv[m, k] for m in range(t.dim)), Fraction(0))

    return build(1, t.arity - 1, t.dim, fn)


def dense_permute_args(t, perm):
    def fn(*idx):
        args, out = idx[:t.arity], idx[t.arity:]
        return t[tuple(args[p] for p in perm) + out]

    return build(t.contra, t.arity, t.dim, fn)


def dense_precompose(t, op, slot):
    def fn(*idx):
        return sum(
            (op[m, idx[slot]] * t[idx[:slot] + (m,) + idx[slot + 1:]] for m in range(t.dim)),
            Fraction(0),
        )

    return build(t.contra, t.arity, t.dim, fn)


def dense_postcompose(t, op):
    def fn(*idx):
        *args, k = idx
        return sum((op[k, m] * t[tuple(args) + (m,)] for m in range(t.dim)), Fraction(0))

    return build(1, t.arity, t.dim, fn)


def dense_contract(t, v, slot):
    def fn(*idx):
        return sum((v[m] * t[idx[:slot] + (m,) + idx[slot:]] for m in range(t.dim)), Fraction(0))

    return build(t.contra, t.arity - 1, t.dim, fn)


def dense_covariant_derivative(gamma, t):
    n = t.dim

    def fn(x, *rest):
        args = rest[:t.arity]
        total = Fraction(0)
        if t.contra:
            k = rest[-1]
            for m in range(n):
                total += gamma[x, m, k] * t[args + (m,)]
        for j, yj in enumerate(args):
            for m in range(n):
                total -= gamma[x, yj, m] * t[args[:j] + (m,) + args[j + 1:] + rest[t.arity:]]
        return total

    return build(t.contra, t.arity + 1, n, fn)


def dense_levi_civita(c, g):
    n = c.dim
    cg = [
        [[sum((c[a, b, m] * g[m, z] for m in range(n)), Fraction(0)) for z in range(n)]
         for b in range(n)]
        for a in range(n)
    ]
    ginv = g.inverse()

    def fn(i, j, k):
        return sum(
            (Fraction(1, 2) * (cg[i][j][l] - cg[j][l][i] + cg[l][i][j]) * ginv[l, k]
             for l in range(n)),
            Fraction(0),
        )

    return build(1, 2, n, fn)


nonzero_rationals = rationals.filter(bool)
DIM = 3


def stored(contra: int, arity: int, entries: dict, dim: int = DIM) -> Tensor:
    """A tensor from ``{row-major position: value}``; the rest are zero."""
    n = dim ** (contra + arity)
    return Tensor(contra, arity, dim, [entries.get(i, 0) for i in range(n)])


def sparse_tensors(contra: int, arity: int, dim: int = DIM):
    n = dim ** (contra + arity)
    return st.dictionaries(
        st.integers(0, n - 1), nonzero_rationals, max_size=max(3, n // 6)
    ).map(lambda d: stored(contra, arity, d, dim))


# coprime denominators (a Mersenne prime and a power of 3): sums of
# products over them take common denominators on multi-word ints
BIG_P, BIG_Q = 2**61 - 1, 3**40


def half_zero(dim: int = DIM):
    return st.lists(st.one_of(st.just(0), rationals), min_size=dim, max_size=dim)


def matrices(dim: int = DIM):
    return st.lists(half_zero(dim), min_size=dim, max_size=dim).map(Matrix)


def assert_canonical(t: Tensor):
    """One positive denominator sharing no factor with every numerator; no zero stored."""
    assert t.den > 0 and gcd(t.den, *t.comps.values()) == 1
    assert 0 not in t.comps.values()


def assert_canonical_equal(sparse: Tensor, dense: Tensor):
    """Same tensor, in canonical form, and nonzeros listed row-major."""
    assert sparse == dense
    assert_canonical(sparse)
    assert sum(1 for c in sparse.comps if c) == len(list(sparse.nonzero()))
    every = itertools.product(range(sparse.dim), repeat=sparse.nslots)
    assert list(sparse.nonzero()) == [(idx, sparse[idx]) for idx in every if sparse[idx]]


class TestSparseKernels:
    @given(sparse_tensors(0, 3), sparse_tensors(1, 2), matrices(), half_zero())
    @example(
        f=stored(0, 3, {0: Fraction(1, BIG_P), 9: Fraction(-5, BIG_Q), 18: Fraction(7, 3),
                        4: Fraction(2, BIG_P * BIG_Q)}),
        b=stored(1, 2, {0: Fraction(1, BIG_Q), 3: Fraction(-1, BIG_P), 4: Fraction(5, BIG_P),
                        13: Fraction(-1, BIG_Q)}),
        op=Matrix([[Fraction(1, BIG_Q), 2, 0], [3, Fraction(-1, BIG_P), 0],
                   [0, 1, Fraction(2, 3)]]),
        v=[Fraction(1, BIG_P), Fraction(1, BIG_Q), 1],
    )
    @example(  # 1/P - (Q/P)(1/Q) = 0 at (0, 0, 0) in slot 0: no key is stored
        f=stored(0, 3, {0: Fraction(1, BIG_P), 9: Fraction(1, BIG_Q)}),
        b=stored(1, 2, {0: Fraction(1, BIG_P), 9: Fraction(1, BIG_Q)}),
        op=Matrix([[1, 0, 0], [Fraction(-BIG_Q, BIG_P), 0, 0], [0, 0, 0]]),
        v=[1, Fraction(-BIG_Q, BIG_P), 0],
    )
    @settings(max_examples=40, deadline=None)
    def test_slot_kernels_match_dense(self, f, b, op, v):
        for t in (f, b):
            for slot in range(t.arity):
                assert_canonical_equal(precompose(t, op, slot), dense_precompose(t, op, slot))
                w = Vector(v)
                assert_canonical_equal(
                    contract_arg_with_vector(t, w, slot), dense_contract(t, w, slot)
                )
            for perm in itertools.permutations(range(t.arity)):
                assert_canonical_equal(permute_args(t, perm), dense_permute_args(t, perm))
        assert_canonical_equal(postcompose(b, op), dense_postcompose(b, op))
        assert_canonical_equal(lower(b, op), dense_lower(b, op))
        assert_canonical_equal(raise_last(f, op), dense_raise_last(f, op))

    @given(sparse_tensors(0, 2), sparse_tensors(0, 1), half_zero())
    @settings(max_examples=40, deadline=None)
    def test_outer_products_match_dense(self, t, eta, v):
        w = Vector(v)
        assert_canonical_equal(
            tensor_product(t, eta), build(0, 3, DIM, lambda *i: t[i[:-1]] * eta[i[-1]])
        )
        assert_canonical_equal(
            tensor_product(eta, t), build(0, 3, DIM, lambda *i: eta[i[0]] * t[i[1:]])
        )
        assert_canonical_equal(
            tensor_product(t, t), build(0, 4, DIM, lambda *i: t[i[:2]] * t[i[2:]])
        )
        assert_canonical_equal(
            times_vector(t, w), build(1, 2, DIM, lambda *i: t[i[:-1]] * w[i[-1]])
        )

    @given(sparse_tensors(0, 2), sparse_tensors(0, 2), rationals)
    @settings(max_examples=40, deadline=None)
    def test_linear_combinations_match_dense(self, s, t, q):
        def dense(fn):
            return build(0, 2, DIM, lambda *i: fn(s[i], t[i]))

        assert_canonical_equal(s + t, dense(lambda a, b: a + b))
        assert_canonical_equal(s - t, dense(lambda a, b: a - b))
        assert_canonical_equal(-s, dense(lambda a, b: -a))
        assert_canonical_equal(s * q, dense(lambda a, b: a * q))
        assert (s - s).comps == {}
        assert (s * 0).comps == {}

    @given(sparse_tensors(0, 3), sparse_tensors(0, 3), nonzero_rationals)
    @example(
        a=stored(0, 3, {0: Fraction(1, BIG_P), 5: Fraction(-2, 3), 26: Fraction(7, BIG_Q)}),
        b=stored(0, 3, {0: Fraction(-1, BIG_P), 5: Fraction(5, 6), 13: Fraction(1, BIG_P * 9)}),
        s=Fraction(BIG_Q, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trips_keep_the_canonical_form(self, a, b, s):
        for t in (a, b, a + b, a - b, -a, a * s, (a + b) - b, (a * s) * (1 / s)):
            assert_canonical(t)
        assert (a + b) - b == a and hash((a + b) - b) == hash(a)
        assert (a * s) * (1 / s) == a and hash((a * s) * (1 / s)) == hash(a)

    @given(sparse_tensors(1, 2), sparse_tensors(0, 2), sparse_tensors(1, 1), half_zero())
    @example(
        gamma=stored(1, 2, {0: Fraction(1, BIG_P), 3: Fraction(-1, BIG_Q),
                            4: Fraction(3, BIG_P), 13: Fraction(2, 5)}),
        t=stored(0, 2, {0: Fraction(1, BIG_Q), 1: Fraction(-7, BIG_P), 4: Fraction(1, 2)}),
        op=stored(1, 1, {0: Fraction(1, BIG_P), 1: Fraction(1, BIG_Q), 3: 1}),
        v=[Fraction(1, BIG_Q), Fraction(1, BIG_P), 0],
    )
    @example(  # the two argument corrections cancel at (0, 0, 1): no key is stored
        gamma=stored(1, 2, {0: Fraction(1, BIG_P), 3: Fraction(-1, BIG_Q)}),
        t=stored(0, 2, {0: Fraction(1, BIG_P), 1: Fraction(1, BIG_Q)}),
        op=stored(1, 1, {0: Fraction(1, BIG_P), 3: Fraction(1, BIG_Q)}),
        v=[1, Fraction(-BIG_Q, BIG_P), 0],
    )
    @settings(max_examples=40, deadline=None)
    def test_covariant_derivatives_match_dense(self, gamma, t, op, v):
        conn = Connection(gamma)
        for tensor in (t, op):
            assert_canonical_equal(
                covariant_derivative(conn, tensor), dense_covariant_derivative(gamma, tensor)
            )
        w = Vector(v)
        assert_canonical_equal(
            covariant_derivative_vector(conn, w),
            build(1, 1, DIM, lambda x, k: sum(
                (w[m] * gamma[x, m, k] for m in range(DIM)), Fraction(0))),
        )

    @given(sparse_tensors(1, 2), sparse_tensors(0, 1), half_zero())
    @settings(max_examples=40, deadline=None)
    def test_lie_derivative_covector_matches_dense(self, c, eta, v):
        xi = Vector(v)
        expected = build(0, 1, DIM, lambda x: -sum(
            (xi[a] * c[a, x, k] * eta[k] for a in range(DIM) for k in range(DIM)),
            Fraction(0)))
        assert_canonical_equal(lie_derivative_covector(LieAlgebra(DIM, c), xi, eta), expected)

    @given(sparse_tensors(1, 2, dim=4), st.lists(half_zero(4), min_size=4, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_levi_civita_matches_dense_koszul(self, c, rows):
        g = Matrix([[rows[min(i, j)][max(i, j)] for j in range(4)] for i in range(4)])
        assume(rank(g) == 4)
        mla = MetricLieAlgebra(LieAlgebra(4, c), g)
        assert_canonical_equal(mla.levi_civita.gamma, dense_levi_civita(c, g))


class TestCanonicalForm:
    def test_dense_constructor_stores_nonzeros_only(self):
        # integer numerators over one denominator; the values read back as Fractions
        t = Tensor(0, 2, 2, [0, Fraction(3, 2), 0, "0/5"])
        assert (t.comps, t.den) == ({(0, 1): 3}, 2) and t[0, 1] == Fraction(3, 2)
        z = Tensor.zeros(1, 2, 3)
        assert (z.comps, z.den) == ({}, 1)
        u = Tensor.from_dict(0, 1, 2, {(0,): Fraction(0), (1,): Fraction(1)})
        assert (u.comps, u.den) == ({(1,): 1}, 1)
        v = Tensor(0, 1, 3, [Fraction(1, 6), Fraction(-1, 4), Fraction(2, 3)])
        assert (v.comps, v.den) == ({(0,): 2, (1,): -3, (2,): 8}, 12)

    def test_cancellation_leaves_nothing_stored(self):
        h = builtin_example(2)
        t = tensor_from_operator(h.phi(1))
        assert (t - t).comps == {}
        assert (t + -t).is_zero()
        assert 0 not in postcompose(t, h.phi(1)).comps.values()

    def test_valences_of_one_shape_do_not_mix(self):
        g = metric_tensor(METRIC3)
        op = tensor_from_operator(METRIC3)
        assert g.comps == op.comps and g != op
        with pytest.raises(ShapeError):
            op + g

    def test_nonzero_count_reads_the_keys(self):
        # every key is a non-empty index tuple, so counting truthy keys, as
        # the benchmark does, counts the stored nonzeros
        t = build(0, 1, 3, lambda i: Fraction(i == 0))
        assert t.comps == {(0,): 1}
        assert sum(1 for c in t.comps if c) == len(list(t.nonzero())) == 1
