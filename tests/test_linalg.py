"""Exact matrix algebra and the signature of symmetric bilinear forms."""

from __future__ import annotations

import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from hn3 import Matrix, Vector, parse_structure, signature
from hn3.linalg import contract, kernel
from hn3.errors import ShapeError, SingularMatrixError, SymmetryError
from hn3.tensor import Tensor, covector, cyclic_sum, permute_args, precompose
from oracle import build, rank
from test_routes import GEN

rationals = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=6)
)

mostly_zero = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)


def square(n, elems=rationals):
    return st.lists(st.lists(elems, min_size=n, max_size=n), min_size=n, max_size=n)


def symmetric(n, diagonal=True):
    def fill(rows):
        return Matrix([
            [rows[min(i, j)][max(i, j)] if i != j or diagonal else 0 for j in range(n)]
            for i in range(n)
        ])
    return square(n).map(fill)


nonzero = rationals.filter(bool)
sizes = st.integers(min_value=1, max_value=6)


def signed_permutation(n):
    """A nonzero rational at (i, perm[i]) for each row i."""
    def fill(args):
        perm, values = args
        return Matrix([[values[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)])
    values = st.lists(nonzero, min_size=n, max_size=n)
    return st.tuples(st.permutations(range(n)), values).map(fill)


def involution(n):
    """A symmetric signed permutation: 2-cycles off the diagonal, fixed points on it.

    With no fixed points the diagonal is zero, so ``signature`` takes the
    hyperbolic-pair step; a fixed point may carry 0, which makes it singular.
    """
    def fill(args):
        perm, pairs, values = args
        rows = [[Fraction(0)] * n for _ in range(n)]
        for c in range(min(pairs, n // 2)):
            i, j = perm[2 * c], perm[2 * c + 1]
            rows[i][j] = rows[j][i] = values[c]
        for i in perm[2 * min(pairs, n // 2):]:
            rows[i][i] = values[i]
        return Matrix(rows)
    return st.tuples(
        st.permutations(range(n)), st.integers(0, n), st.lists(rationals, min_size=n, max_size=n)
    ).map(fill)


def frame_metric(n):
    """``Sᵀ D S`` for a diagonal D and a unimodular S: dense, and singular when D has a 0."""
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from((1, -1)))

    def fill(args):
        diag, ops = args
        s = Matrix.identity(n)
        for i, j, sign in ops:
            if i != j:  # column j gains sign * column i
                e_ij = Matrix.outer(Vector.basis(n, i), Vector.basis(n, j))
                s = s @ (Matrix.identity(n) + e_ij * sign)
        return s.transpose() @ Matrix.diagonal(diag) @ s
    return st.tuples(
        st.lists(rationals, min_size=n, max_size=n), st.lists(steps, max_size=2 * n)
    ).map(fill)


def singular(n):
    """A square matrix whose last row is c times its first plus the rows between (0 for n = 1)."""
    def fill(args):
        rows, c = args
        kept = rows[:-1]
        last = [c * col[0] + sum(col[1:]) for col in zip(*kept)] or [0]
        return Matrix(kept + [last])
    return st.tuples(square(n), rationals).map(fill)


SQUARE_FAMILIES = {
    "dense": lambda n: square(n).map(Matrix),
    "sparse": lambda n: square(n, mostly_zero).map(Matrix),
    "signed permutation": signed_permutation, "symmetric signed permutation": involution,
    "frame metric": frame_metric, "singular": singular,
}
SYMMETRIC_FAMILIES = {
    "dense": symmetric, "zero diagonal": lambda n: symmetric(n, diagonal=False),
    "symmetric signed permutation": involution, "frame metric": frame_metric,
}


class TestMatrix:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ShapeError):
            Matrix([[1, 2], [3]])

    def test_identity_is_neutral(self):
        m = Matrix([[1, 2], [Fraction(1, 3), 5]])
        assert m @ Matrix.identity(2) == m
        assert Matrix.identity(2) @ m == m

    def test_matmul_known_product(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 0]])
        assert a @ b == Matrix([[2, 1], [4, 3]])

    def test_apply_matches_columns(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.apply(Vector.basis(2, 0)) == Vector([1, 3])
        assert m.apply(Vector([1, 1])) == Vector([3, 7])

    def test_inverse_round_trip(self):
        m = Matrix([[2, 1, 0], [1, 1, 1], [0, 3, 1]])
        assert m @ m.inverse() == Matrix.identity(3)
        assert m.inverse() @ m == Matrix.identity(3)

    def test_inverse_exact_entries(self):
        m = Matrix([[2, 0], [0, 3]])
        assert m.inverse() == Matrix.diagonal([Fraction(1, 2), Fraction(1, 3)])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            Matrix([[1, 2], [2, 4]]).inverse()

    def test_rank(self):
        assert rank(Matrix([[1, 2], [2, 4]])) == 1
        assert rank(Matrix.zeros(3)) == 0
        assert rank(Matrix.identity(4)) == 4

    @given(square(3))
    @settings(max_examples=25, deadline=None)
    def test_transpose_reverses_products(self, rows):
        a = Matrix(rows)
        b = Matrix([[r + 1 for r in row] for row in rows])
        assert (a @ b).transpose() == b.transpose() @ a.transpose()

    @given(square(3, mostly_zero), square(3, mostly_zero), rationals)
    @settings(max_examples=40, deadline=None)
    def test_zero_skipping_products_match_full_sums(self, rows, other, s):
        a, b = Matrix(rows), Matrix(other)
        v, w = Vector(other[0]), Vector(rows[1])
        r = range(3)
        pairs = [
            (a @ b, Matrix([[sum(rows[i][k] * other[k][j] for k in r) for j in r] for i in r])),
            (a + b, Matrix([[rows[i][j] + other[i][j] for j in r] for i in r])),
            (a - b, Matrix([[rows[i][j] - other[i][j] for j in r] for i in r])),
            (-a, Matrix([[-rows[i][j] for j in r] for i in r])),
            (a.transpose(), Matrix([[rows[j][i] for j in r] for i in r])),
            (a.apply(v), Vector([sum(rows[i][k] * other[0][k] for k in r) for i in r])),
            (a * s, Matrix([[x * s for x in row] for row in rows])),
            (v * s, Vector([x * s for x in other[0]])),
            (v + w, Vector([x + y for x, y in zip(other[0], rows[1])])),
            (v - w, Vector([x - y for x, y in zip(other[0], rows[1])])),
            (Matrix.outer(v, w), Matrix([[x * y for y in rows[1]] for x in other[0]])),
        ]
        for got, full in pairs:
            assert got == full
            assert 0 not in got.comps.values()
        assert a.is_symmetric() == all(rows[i][j] == rows[j][i] for i in r for j in r)
        assert (a + a.transpose()).is_symmetric()

    def test_all_zero_matrix_keeps_its_shape(self):
        z = Matrix([[0, 0, 0], [0, 0, 0]])
        assert z.comps == {} and z.shape == (2, 3) and (z.rows, z.cols) == (2, 3)
        assert z == Matrix.zeros(2, 3) and z != Matrix.zeros(3, 2)
        assert z.transpose() == Matrix.zeros(3, 2)
        assert (z @ Matrix.zeros(3, 4)).shape == (2, 4)
        with pytest.raises(ShapeError):
            z + Matrix.zeros(3, 2)

    def test_groupings_are_built_once_per_array(self):
        m = Matrix([[1, 0, 2], [0, Fraction(3, 2), 0]])
        assert m.lines(0) is m.lines(0)
        assert m.lines(1) is m.lines(1) and m.lines(1) is not m.lines(0)
        assert m.lines(1, prefix=1) is not m.lines(1)
        # the denominator, then (field id, numerator) per entry with each
        # (prefix, infix) kept once, and whether the groups are wide: one
        # entry per group here, so contract sums this one product by product
        assert m.lines(1) == (
            2, {0: [(0, 2)], 1: [(1, 3)], 2: [(0, 4)]}, [((), (0,)), ((), (1,))], False
        )
        assert m.lines(1, prefix=1) == (
            2, {0: [(0, 2)], 1: [(1, 3)], 2: [(0, 4)]}, [((0,), ()), ((1,), ())], False
        )
        # three entries per group: a wide grouping, summed per output row
        w = Matrix([[1, 2], [3, 4], [5, 6]])
        assert w.lines(1) == (
            1, {0: [(0, 1), (1, 3), (2, 5)], 1: [(0, 2), (1, 4), (2, 6)]},
            [((), (0,)), ((), (1,)), ((), (2,))], True,
        )
        assert w.lines(0)[3] is False  # two entries per group

    def test_tensor_arithmetic_does_no_fraction_work(self, monkeypatch):
        # dense factors with unlike denominators: every kernel and entrywise
        # operation runs on integer numerators, so no Fraction is built,
        # multiplied, added, subtracted, negated or divided
        t = Tensor(0, 3, 3, [Fraction(i - 13, i % 4 + 2) for i in range(27)])
        u = Tensor(0, 3, 3, [Fraction(5 - i, i % 5 + 3) for i in range(27)])
        op = Matrix([[Fraction(i + 2 * j - 3, j + 2) for j in range(3)] for i in range(3)])
        op.lines(0)
        work = Counter()
        for name in ("__new__", "__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                     "__rsub__", "__neg__", "__truediv__", "__rtruediv__"):
            original = getattr(Fraction, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                work[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(Fraction, name, counting)
        out = precompose(t, op, 0)
        results = (t + u, t - u, t * 3, -2 * u, cyclic_sum(t), permute_args(u, (2, 0, 1)))
        monkeypatch.undo()
        assert work == Counter()
        assert out == build(0, 3, 3, lambda i, y, z: sum(
            (op[m, i] * t[m, y, z] for m in range(3)), Fraction(0)))
        assert results == (
            build(0, 3, 3, lambda *i: t[i] + u[i]),
            build(0, 3, 3, lambda *i: t[i] - u[i]),
            build(0, 3, 3, lambda *i: 3 * t[i]),
            build(0, 3, 3, lambda *i: -2 * u[i]),
            build(0, 3, 3, lambda x, y, z: t[x, y, z] + t[y, z, x] + t[z, x, y]),
            build(0, 3, 3, lambda x, y, z: u[z, x, y]),
        )

    def test_one_sum_takes_terms_with_unlike_denominators(self):
        # each term is scaled once to the common denominator of all terms
        a = Matrix([[Fraction(1, 3), 0], [Fraction(2, 5), 1]])
        b = Matrix([[Fraction(1, 7), Fraction(-1, 3)], [0, 2]])
        v, w = Vector([Fraction(1, 2), Fraction(3, 4)]), Vector([Fraction(-5, 6), 1])
        both = Vector.from_ints((2,), *contract((a, 1, v.lines(0)), (b, 1, w.lines(0))))
        assert both == a.apply(v) + b.apply(w)
        assert both == Vector([Fraction(1, 6) - Fraction(5, 42) - Fraction(1, 3),
                               Fraction(1, 5) + Fraction(3, 4) + 2])

    def test_vector_is_not_a_one_form(self):
        assert Vector([1, 0]) != covector([1, 0])
        assert Vector([1, 0]) != Matrix([[1, 0]])
        with pytest.raises(ShapeError):
            Vector([1, 0]) + covector([1, 0])

    @given(square(3))
    @settings(max_examples=25, deadline=None)
    def test_inverse_when_it_exists(self, rows):
        m = Matrix(rows)
        try:
            inv = m.inverse()
        except SingularMatrixError:
            assert rank(m) < 3
            return
        assert rank(m) == 3
        assert m @ inv == Matrix.identity(3)

    @pytest.mark.parametrize("family", SQUARE_FAMILIES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_sparse_inverse_matches_the_dense_reference(self, family, data):
        m = data.draw(sizes.flatmap(SQUARE_FAMILIES[family]))
        try:
            expected = oracle.inverse(m)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                m.inverse()
            return
        assert family != "singular"
        assert m.inverse() == expected


class TestKernel:
    @pytest.mark.parametrize("family", SQUARE_FAMILIES)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_sparse_kernel_matches_the_dense_reference(self, family, data):
        m = data.draw(sizes.flatmap(SQUARE_FAMILIES[family]))
        rows = [covector([m[i, j] for j in range(m.cols)]) for i in range(m.rows)]
        basis = kernel(rows, m.cols)
        assert len(basis) == m.cols - rank(m)
        assert all(m.apply(v).is_zero() for v in basis)
        # independent: the rank of the basis, as rows of a matrix, is its length
        if basis:
            assert rank(Matrix([list(v) for v in basis])) == len(basis)
        reference = oracle.kernel(
            ({j: m[i, j] for j in range(m.cols)} for i in range(m.rows)), m.cols
        )
        assert len(reference) == len(basis)

    def test_no_forms_leave_the_standard_basis(self):
        assert kernel([], 3) == [Vector.basis(3, i) for i in range(3)]


class TestSignature:
    def test_diagonal(self):
        assert signature(Matrix.diagonal([1, 1, -1, 0])) == (2, 1, 1)

    def test_scaling_does_not_change_signs(self):
        assert signature(Matrix.diagonal([Fraction(7, 5), Fraction(-1, 9)])) == (1, 1, 0)

    def test_zero_matrix(self):
        assert signature(Matrix.zeros(3)) == (0, 0, 3)

    def test_hyperbolic_plane(self):
        # all-zero diagonal forces the hyperbolic pivot branch
        assert signature(Matrix([[0, 1], [1, 0]])) == (1, 1, 0)

    def test_stacked_hyperbolic_blocks(self):
        m = Matrix(
            [
                [0, 1, 0, 0],
                [1, 0, 0, 0],
                [0, 0, 0, -2],
                [0, 0, -2, 0],
            ]
        )
        assert signature(m) == (2, 2, 0)

    @pytest.mark.parametrize(
        "rows, expected",
        [
            # the only nonzero pair (2, 3) lies below the pivot row 1
            ([[0, 0, 0], [0, 0, 1], [0, 1, 0]], (1, 1, 1)),
            ([[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, -3, 0], [0, 1, 0, 0]], (1, 2, 1)),
        ],
    )
    def test_hyperbolic_pair_off_the_pivot_row(self, rows, expected):
        assert signature(Matrix(rows)) == expected

    def test_non_symmetric_rejected(self):
        with pytest.raises(SymmetryError):
            signature(Matrix([[0, 1], [0, 0]]))
        with pytest.raises(ShapeError):
            signature(Matrix.zeros(2, 3))

    @given(symmetric(4))
    @settings(max_examples=30, deadline=None)
    def test_counts_sum_to_dimension_and_rank(self, m):
        p, q, z = signature(m)
        assert p + q + z == 4
        assert p + q == rank(m)

    @pytest.mark.parametrize("family", SYMMETRIC_FAMILIES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_sparse_signature_matches_the_dense_reference(self, family, data):
        m = data.draw(sizes.flatmap(SYMMETRIC_FAMILIES[family]))
        assert signature(m) == oracle.signature(m)

    @given(symmetric(3), square(3, st.integers(min_value=-4, max_value=4)))
    @settings(max_examples=30, deadline=None)
    def test_congruence_invariance(self, m, rows):
        s = Matrix(rows)
        try:
            s.inverse()
        except SingularMatrixError:
            return
        assert signature(s.transpose() @ m @ s) == signature(m)


def test_eliminations_cost_in_proportion_to_the_nonzeros():
    # the metric of the n = 403 ladder has one nonzero per row; dense
    # elimination over its rows takes seconds of CPU, the sparse one well under one
    g = parse_structure(GEN.ladder(100)).metric
    start = time.process_time()
    inv, sig = g.inverse(), signature(g)
    assert time.process_time() - start < 1.0
    assert sig == (202, 201, 0)
    assert g @ inv == Matrix.identity(403)
