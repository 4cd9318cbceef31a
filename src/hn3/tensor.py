"""Componentwise tensors on a fixed frame, with the slot conventions used
throughout the package.

Conventions
-----------
* A ``Tensor`` has ``contra`` in {0, 1} output slots and ``arity`` >= 1
  argument slots.  Components are stored argument slots first; a vector
  valued tensor keeps its output index LAST, so ``t[i, j, k]`` reads
  "the k-th component of t(e_i, e_j)".
* ``lower`` contracts the output index with the metric into a NEW LAST
  argument slot: ``lower(t, g)(x.., z) = g(t(x..), e_z)``.
* ``interior`` contracts a vector into the FIRST argument slot.
* Covariant differentiation (see ``liealg``) puts the direction slot
  FIRST.
* The exterior derivative of a one-form carries no 1/2:
  ``d eta (x, y) = (D_x eta)(y) - (D_y eta)(x)``.
* ``wedge_1_2`` of a one-form with a two-form is the bare cyclic sum of
  the tensor product, again with no prefactor.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from fractions import Fraction

from .errors import ShapeError, SymmetryError
from .linalg import Matrix, Vector
from .rational import ZERO, as_scalar

_PERMS3 = (
    ((0, 1, 2), 1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((1, 0, 2), -1),
    ((0, 2, 1), -1),
    ((2, 1, 0), -1),
)


class Tensor:
    """Dense tensor of valence ``(contra, arity)`` on an n-dimensional frame."""

    __slots__ = ("contra", "arity", "dim", "comps")

    def __init__(self, contra: int, arity: int, dim: int, comps):
        if contra not in (0, 1):
            raise ShapeError("contra must be 0 or 1")
        if arity < 1:
            raise ShapeError("arity must be at least 1")
        self.contra = contra
        self.arity = arity
        self.dim = dim
        # zeros dominate most tensors; one shared ZERO keeps them small
        self.comps: tuple[Fraction, ...] = tuple(as_scalar(c) or ZERO for c in comps)
        if len(self.comps) != dim ** self.nslots:
            raise ShapeError(
                f"expected {dim ** self.nslots} components, got {len(self.comps)}"
            )

    @property
    def nslots(self) -> int:
        return self.arity + self.contra

    @classmethod
    def zeros(cls, contra: int, arity: int, dim: int) -> Tensor:
        return cls(contra, arity, dim, [ZERO] * dim ** (arity + contra))

    @classmethod
    def build(cls, contra: int, arity: int, dim: int, fn: Callable) -> Tensor:
        """Fill components from ``fn(*idx)`` over all 0-based index tuples."""
        return cls(
            contra,
            arity,
            dim,
            [fn(*idx) for idx in itertools.product(range(dim), repeat=arity + contra)],
        )

    def _offset(self, idx: tuple[int, ...]) -> int:
        off = 0
        for i in idx:
            off = off * self.dim + i
        return off

    def __getitem__(self, idx) -> Fraction:
        if isinstance(idx, int):
            idx = (idx,)
        if len(idx) != self.nslots:
            raise ShapeError(f"expected {self.nslots} indices, got {len(idx)}")
        return self.comps[self._offset(tuple(idx))]

    def __add__(self, other: Tensor) -> Tensor:
        self._match(other)
        return Tensor(
            self.contra, self.arity, self.dim,
            [a + b for a, b in zip(self.comps, other.comps)],
        )

    def __sub__(self, other: Tensor) -> Tensor:
        self._match(other)
        return Tensor(
            self.contra, self.arity, self.dim,
            [a - b for a, b in zip(self.comps, other.comps)],
        )

    def __neg__(self) -> Tensor:
        return Tensor(self.contra, self.arity, self.dim, [-a for a in self.comps])

    def __mul__(self, scalar) -> Tensor:
        s = as_scalar(scalar)
        return Tensor(self.contra, self.arity, self.dim, [a * s for a in self.comps])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.contra == other.contra
            and self.arity == other.arity
            and self.dim == other.dim
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.contra, self.arity, self.dim, self.comps))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.comps)

    def value_at(self, *vectors: Vector) -> Fraction | Vector:
        """Multilinear evaluation on argument vectors (mostly for tests)."""
        if len(vectors) != self.arity:
            raise ShapeError(f"expected {self.arity} vectors, got {len(vectors)}")
        if self.contra == 0:
            total = ZERO
            for idx in itertools.product(range(self.dim), repeat=self.arity):
                factor = self[idx]
                for v, i in zip(vectors, idx):
                    if factor == 0:
                        break
                    factor *= v[i]
                total += factor
            return total
        out = [ZERO] * self.dim
        for idx in itertools.product(range(self.dim), repeat=self.arity):
            for k in range(self.dim):
                factor = self[idx + (k,)]
                for v, i in zip(vectors, idx):
                    if factor == 0:
                        break
                    factor *= v[i]
                out[k] += factor
        return Vector(out)

    def nonzero(self):
        """Yield ``(idx, value)`` for every nonzero component, 0-based."""
        for pos, value in enumerate(self.comps):
            if value != 0:
                idx = []
                p = pos
                for _ in range(self.nslots):
                    idx.append(p % self.dim)
                    p //= self.dim
                yield tuple(reversed(idx)), value

    def entries_1based(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Sorted nonzero components with 1-based indices, for display."""
        return sorted(
            (tuple(i + 1 for i in idx), value) for idx, value in self.nonzero()
        )

    def symmetric_in(self, a: int, b: int) -> bool:
        return self == swap_args(self, a, b)

    def antisymmetric_in(self, a: int, b: int) -> bool:
        return self == -swap_args(self, a, b)

    def _match(self, other: Tensor) -> None:
        if (self.contra, self.arity, self.dim) != (other.contra, other.arity, other.dim):
            raise ShapeError("tensor valences or dimensions differ")

    def __repr__(self) -> str:
        kind = f"({self.contra},{self.arity})"
        entries = ", ".join(
            f"{idx}={value}" for idx, value in self.entries_1based()[:8]
        )
        return f"Tensor{kind}dim{self.dim}[{entries or '0'}]"


def tensor_from_operator(m: Matrix) -> Tensor:
    """View an endomorphism matrix as a (1,1) tensor: ``t[j, k] = (m e_j)^k``."""
    if m.rows != m.cols:
        raise ShapeError("operator must be square")
    n = m.rows
    return Tensor.build(1, 1, n, lambda j, k: m[k, j])


def operator_from_tensor(t: Tensor) -> Matrix:
    if (t.contra, t.arity) != (1, 1):
        raise ShapeError("need a (1,1) tensor")
    return Matrix([[t[j, k] for j in range(t.dim)] for k in range(t.dim)])


def metric_tensor(g: Matrix) -> Tensor:
    """View a metric matrix as a (0,2) tensor."""
    if g.rows != g.cols:
        raise ShapeError("metric must be square")
    return Tensor.build(0, 2, g.rows, lambda i, j: g[i, j])


def covector(entries) -> Tensor:
    """A (0,1) tensor from raw components."""
    entries = list(entries)
    return Tensor(0, 1, len(entries), entries)


def lower(t: Tensor, g: Matrix) -> Tensor:
    """Lower the output index of a (1,s) tensor into a new last slot."""
    if t.contra != 1:
        raise ShapeError("lower needs a vector-valued tensor")
    if g.rows != t.dim or g.cols != t.dim:
        raise ShapeError("metric dimension mismatch")

    cols = [
        [(m, g[m, z]) for m in range(t.dim) if g[m, z] != 0] for z in range(t.dim)
    ]

    def fn(*idx):
        *args, z = idx
        args = tuple(args)
        return sum((t[args + (m,)] * w for m, w in cols[z]), ZERO)

    return Tensor.build(0, t.arity + 1, t.dim, fn)


def raise_last(t: Tensor, g_inv: Matrix) -> Tensor:
    """Inverse of ``lower``: turn the last argument slot back into the output."""
    if t.contra != 0 or t.arity < 2:
        raise ShapeError("raise_last needs a (0,s) tensor with s >= 2")

    cols = [
        [(m, g_inv[m, k]) for m in range(t.dim) if g_inv[m, k] != 0]
        for k in range(t.dim)
    ]

    def fn(*idx):
        *args, k = idx
        args = tuple(args)
        return sum((t[args + (m,)] * w for m, w in cols[k]), ZERO)

    return Tensor.build(1, t.arity - 1, t.dim, fn)


def permute_args(t: Tensor, perm: tuple[int, ...]) -> Tensor:
    """Rearrange argument slots: ``out[idx] = t[idx[perm[0]], idx[perm[1]], ..]``."""
    if sorted(perm) != list(range(t.arity)):
        raise ShapeError(f"perm must rearrange {t.arity} argument slots")
    if t.contra == 0:
        return Tensor.build(0, t.arity, t.dim, lambda *idx: t[tuple(idx[p] for p in perm)])

    def fn(*idx):
        *args, k = idx
        return t[tuple(args[p] for p in perm) + (k,)]

    return Tensor.build(1, t.arity, t.dim, fn)


def swap_args(t: Tensor, a: int, b: int) -> Tensor:
    perm = list(range(t.arity))
    perm[a], perm[b] = perm[b], perm[a]
    return permute_args(t, tuple(perm))


def precompose(t: Tensor, op: Matrix, slot: int) -> Tensor:
    """Feed ``op`` into one argument slot: ``out(.., x, ..) = t(.., op x, ..)``."""
    if not 0 <= slot < t.arity:
        raise ShapeError(f"slot {slot} out of range for arity {t.arity}")
    if op.rows != t.dim or op.cols != t.dim:
        raise ShapeError("operator dimension mismatch")

    # structure operators are signed permutations on most inputs; walking
    # only the nonzero column entries keeps the exact sums short
    cols = [
        [(m, op[m, i]) for m in range(t.dim) if op[m, i] != 0] for i in range(t.dim)
    ]

    def fn(*idx):
        return sum(
            (w * t[idx[:slot] + (m,) + idx[slot + 1:]] for m, w in cols[idx[slot]]),
            ZERO,
        )

    return Tensor.build(t.contra, t.arity, t.dim, fn)


def postcompose(t: Tensor, op: Matrix) -> Tensor:
    """Apply ``op`` to the output of a (1,s) tensor: ``out(x..) = op(t(x..))``."""
    if t.contra != 1:
        raise ShapeError("postcompose needs a vector-valued tensor")
    if op.rows != t.dim or op.cols != t.dim:
        raise ShapeError("operator dimension mismatch")

    rows = [
        [(m, op[k, m]) for m in range(t.dim) if op[k, m] != 0] for k in range(t.dim)
    ]

    def fn(*idx):
        *args, k = idx
        args = tuple(args)
        return sum((w * t[args + (m,)] for m, w in rows[k]), ZERO)

    return Tensor.build(1, t.arity, t.dim, fn)


def contract_arg_with_vector(t: Tensor, v: Vector, slot: int) -> Tensor:
    """Plug the vector into one argument slot, shortening the tensor."""
    if not 0 <= slot < t.arity:
        raise ShapeError(f"slot {slot} out of range for arity {t.arity}")
    if len(v) != t.dim:
        raise ShapeError("vector dimension mismatch")
    if t.arity == 1 and t.contra == 0:
        raise ShapeError("contraction would leave no slots")

    support = [(m, v[m]) for m in range(t.dim) if v[m] != 0]

    def fn(*idx):
        return sum(
            (w * t[idx[:slot] + (m,) + idx[slot:]] for m, w in support), ZERO
        )

    return Tensor.build(t.contra, t.arity - 1, t.dim, fn)


def interior(v: Vector, t: Tensor) -> Tensor:
    """Interior product: contract ``v`` into the FIRST argument slot."""
    return contract_arg_with_vector(t, v, 0)


def times_covector(t: Tensor, eta: Tensor) -> Tensor:
    """Append a covariant slot: ``out(x.., z) = t(x..) eta(z)``."""
    if t.contra != 0 or eta.contra != 0 or eta.arity != 1:
        raise ShapeError("times_covector combines a (0,s) tensor with a one-form")
    if eta.dim != t.dim:
        raise ShapeError("dimension mismatch")

    def fn(*idx):
        return t[idx[:-1]] * eta[idx[-1]]

    return Tensor.build(0, t.arity + 1, t.dim, fn)


def covector_times(eta: Tensor, t: Tensor) -> Tensor:
    """Prepend a covariant slot: ``out(x, y..) = eta(x) t(y..)``."""
    if t.contra != 0 or eta.contra != 0 or eta.arity != 1:
        raise ShapeError("covector_times combines a one-form with a (0,s) tensor")
    if eta.dim != t.dim:
        raise ShapeError("dimension mismatch")

    def fn(*idx):
        return eta[idx[0]] * t[idx[1:]]

    return Tensor.build(0, t.arity + 1, t.dim, fn)


def times_vector(t: Tensor, v: Vector) -> Tensor:
    """Tensor a (0,s) tensor with an output vector: ``out(x..) = t(x..) v``."""
    if t.contra != 0:
        raise ShapeError("times_vector needs a (0,s) tensor")
    if len(v) != t.dim:
        raise ShapeError("dimension mismatch")

    def fn(*idx):
        return t[idx[:-1]] * v[idx[-1]]

    return Tensor.build(1, t.arity, t.dim, fn)


def cyclic_sum(t: Tensor) -> Tensor:
    """Sum over the three cyclic shifts of the argument slots of a (0,3) tensor."""
    if t.contra != 0 or t.arity != 3:
        raise ShapeError("cyclic_sum is defined for (0,3) tensors")
    return t + permute_args(t, (1, 2, 0)) + permute_args(t, (2, 0, 1))


def alternation(t: Tensor) -> Tensor:
    """Full antisymmetrization (with the 1/3! factor) of a (0,3) tensor."""
    if t.contra != 0 or t.arity != 3:
        raise ShapeError("alternation is defined for (0,3) tensors")
    total = Tensor.zeros(0, 3, t.dim)
    for perm, sign in _PERMS3:
        total = total + permute_args(t, perm) * sign
    return total * Fraction(1, 6)


def is_three_form(t: Tensor) -> bool:
    """True when all six permutation identities of total antisymmetry hold."""
    if t.contra != 0 or t.arity != 3:
        raise ShapeError("is_three_form is defined for (0,3) tensors")
    return all(permute_args(t, perm) * sign == t for perm, sign in _PERMS3)


def wedge_1_2(eta: Tensor, omega: Tensor) -> Tensor:
    """Wedge of a one-form with an antisymmetric two-form, as a bare cyclic sum."""
    if eta.contra != 0 or eta.arity != 1:
        raise ShapeError("first factor must be a one-form")
    if omega.contra != 0 or omega.arity != 2:
        raise ShapeError("second factor must be a two-form")
    if not omega.antisymmetric_in(0, 1):
        raise SymmetryError("second factor must be antisymmetric")
    return cyclic_sum(covector_times(eta, omega))
