"""Dense references for the tests.

Each function here walks every index tuple (or every stored entry) and
reads components through ``t[...]``, independently of the sparse kernels
in ``hn3.linalg`` and ``hn3.tensor`` that the tests compare against it.
None of them is part of the library.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from fractions import Fraction

from hn3 import LieAlgebra, Tensor, Vector
from hn3.errors import ShapeError

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
