"""Dense references for the tests.

Each function here walks every index tuple (or every stored entry) and
reads components through ``t[...]``, independently of the sparse kernels
in ``hn3.linalg`` and ``hn3.tensor`` that the tests compare against it.
The eliminations (``rank``, ``inverse``, ``signature``) are fraction-free
Bareiss over dense rows of integer numerators, zeros included.  None of
them is part of the library.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from fractions import Fraction
from math import lcm

from hn3 import LieAlgebra, Matrix, Tensor, Vector
from hn3.errors import ShapeError, SingularMatrixError, SymmetryError

# the six permutations of three slots with their signs
SIGNED_PERMUTATIONS = (
    ((0, 1, 2), 1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((1, 0, 2), -1),
    ((0, 2, 1), -1),
    ((2, 1, 0), -1),
)


def build(contra: int, arity: int, dim: int, fn: Callable) -> Tensor:
    """The tensor with components ``fn(*idx)`` over all 0-based index tuples."""
    every = itertools.product(range(dim), repeat=arity + contra)
    return Tensor(contra, arity, dim, [fn(*idx) for idx in every])


def value_at(t: Tensor, *vectors: Vector) -> Fraction | Vector:
    """Multilinear evaluation of ``t`` on one vector per argument slot."""
    if len(vectors) != t.arity:
        raise ShapeError(f"expected {t.arity} vectors, got {len(vectors)}")
    out = [Fraction(0)] * t.dim
    for idx, value in t.nonzero():
        for v, i in zip(vectors, idx):
            value *= v[i]
        out[idx[-1] if t.contra else 0] += value
    return Vector(out) if t.contra else out[0]


def symmetric_in(t: Tensor, a: int, b: int) -> bool:
    """Whether ``t`` is unchanged when argument slots ``a`` and ``b`` swap."""
    def swapped(*idx):
        idx = list(idx)
        idx[a], idx[b] = idx[b], idx[a]
        return t[tuple(idx)]

    return build(t.contra, t.arity, t.dim, swapped) == t


def bracket_vectors(alg: LieAlgebra, x: Vector, y: Vector) -> Vector:
    """``[x, y]`` summed from the structure constants over every index pair."""
    n = alg.dim
    return Vector([
        sum((alg.bracket[i, j, k] * x[i] * y[j] for i in range(n) for j in range(n)), Fraction(0))
        for k in range(n)
    ])


def alternation(t: Tensor) -> Tensor:
    """Full antisymmetrization of a (0,3) tensor: the signed mean over the six slot orders."""
    return build(0, 3, t.dim, lambda *idx: sum(
        (sign * t[tuple(idx[p] for p in perm)] for perm, sign in SIGNED_PERMUTATIONS),
        Fraction(0),
    ) / 6)


def dense_rows(m: Matrix) -> tuple[list[list[int]], int]:
    """Every entry of ``m`` as an integer numerator over one positive denominator."""
    entries = [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]
    den = lcm(*(x.denominator for row in entries for x in row))
    return [[int(x * den) for x in row] for row in entries], den


def _eliminate(rows: list[list[int]], cols: int) -> tuple[int, int]:
    """In-place Bareiss Gauss-Jordan on the first ``cols`` columns: (pivot count, last pivot)."""
    pivots, prev = 0, 1
    for col in range(cols):
        pivot = next((r for r in range(pivots, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[pivots], rows[pivot] = rows[pivot], rows[pivots]
        d, pivot_row = rows[pivots][col], rows[pivots]
        for r in range(len(rows)):
            f = rows[r][col]
            # with f = 0 and d = prev the update gives the row back unchanged
            if r != pivots and (f or d != prev):
                rows[r] = [(d * x - f * y) // prev for x, y in zip(rows[r], pivot_row)]
        pivots, prev = pivots + 1, d
    return pivots, prev


def rank(m: Matrix) -> int:
    return _eliminate(dense_rows(m)[0], m.cols)[0]


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix by Gauss-Jordan on ``[N | I]``."""
    rows, den = dense_rows(m)
    n = m.rows
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots, d = _eliminate(aug, n)
    if pivots < n:
        raise SingularMatrixError("matrix is singular")
    # aug is [d I | d N^-1], and the inverse of N / den is den N^-1
    return Matrix([[Fraction(den * x, d) for x in row[n:]] for row in aug])


def signature(m: Matrix) -> tuple[int, int, int]:
    """Sylvester signature by symmetric Bareiss congruence over dense rows."""
    if m.rows != m.cols:
        raise ShapeError("signature needs a square matrix")
    if not m.is_symmetric():
        raise SymmetryError("signature needs a symmetric matrix")
    n = m.rows
    a = dense_rows(m)[0]  # the positive denominator keeps every sign
    neg, zero, prev = 0, 0, 1

    def swap_sym(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]

    for k in range(n):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if pivot is not None:
                swap_sym(k, pivot)
            else:
                pairs = ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0)
                pair = next(pairs, None)
                if pair is None:
                    zero += n - k
                    break
                i, j = pair
                # row_i += row_j, then the same on columns: a[i][i] becomes 2*a[i][j] != 0
                a[i] = [x + y for x, y in zip(a[i], a[j])]
                for r in range(n):
                    a[r][i] += a[r][j]
                if i != k:
                    swap_sym(k, i)
        d, pivot_row = a[k][k], a[k]
        for i in range(k + 1, n):
            f = a[i][k]
            rest = zip(a[i][k + 1:], pivot_row[k + 1:])
            a[i][k + 1:] = [(d * x - f * y) // prev for x, y in rest]
        if d * prev < 0:
            neg += 1
        prev = d
    return n - neg - zero, neg, zero
