"""Componentwise tensors on a fixed frame, with the slot conventions used
throughout the package.

Conventions
-----------
* A ``Tensor`` has ``contra`` in {0, 1} output slots and ``arity`` >= 1
  argument slots.  Only its nonzero components are kept, keyed by index
  tuples with the argument slots first; a vector valued tensor keeps its
  output index LAST, so ``t[i, j, k]`` reads "the k-th component of
  t(e_i, e_j)".  Every contraction below is one call of
  ``hn3.linalg.contract`` and every tensor product one of
  ``hn3.linalg.outer``, so only nonzero components are ever multiplied.
* ``lower`` contracts the output index with the metric into a NEW LAST
  argument slot: ``lower(t, g)(x.., z) = g(t(x..), e_z)``.
* ``tensor_product(a, b)`` puts the argument slots of ``a`` FIRST.
* Covariant differentiation (see ``liealg``) puts the direction slot
  FIRST.
* The exterior derivative of a one-form carries no 1/2:
  ``d eta (x, y) = (D_x eta)(y) - (D_y eta)(x)``.
* ``wedge_1_2`` of a one-form with a two-form is the bare cyclic sum of
  the tensor product, again with no prefactor.
"""

from __future__ import annotations

import itertools

from .errors import ShapeError, SymmetryError
from .linalg import Array, Matrix, Vector, contract, outer
from .rational import as_scalar


class Tensor(Array):
    """Sparse exact tensor of valence ``(contra, arity)`` on an n-dimensional frame.

    Storage, arithmetic and equality come from ``Array``: only the nonzero
    components are kept, in canonical integer form, so two tensors of one
    valence are equal exactly when those forms are, and ``nonzero``
    yields the entries, as Fractions, in row-major order.
    """

    __slots__ = ("contra",)

    def __new__(cls, contra: int, arity: int, dim: int, comps):
        """Build from all ``dim ** (contra + arity)`` components in row-major order."""
        if contra not in (0, 1):
            raise ShapeError("contra must be 0 or 1")
        if arity < 1:
            raise ShapeError("arity must be at least 1")
        if dim < 1:
            raise ShapeError("tensor dimension must be at least 1")
        values = [as_scalar(c) for c in comps]
        if len(values) != dim ** (arity + contra):
            raise ShapeError(
                f"expected {dim ** (arity + contra)} components, got {len(values)}"
            )
        positions = itertools.product(range(dim), repeat=arity + contra)
        return cls.from_dict(contra, arity, dim, dict(zip(positions, values)))

    @classmethod
    def from_ints(cls, contra: int, arity: int, dim: int, comps: dict, den: int) -> Tensor:
        """Tensor holding ``comps[idx] / den``; the pair must be canonical, keys are trusted."""
        t = super().from_ints((dim,) * (arity + contra), comps, den)
        t.contra = contra
        return t

    @property
    def dim(self) -> int:
        return self.shape[0]

    @property
    def nslots(self) -> int:
        return len(self.shape)

    @property
    def arity(self) -> int:
        return len(self.shape) - self.contra

    @classmethod
    def zeros(cls, contra: int, arity: int, dim: int) -> Tensor:
        if dim < 1:
            raise ShapeError("tensor dimension must be at least 1")
        return cls.from_ints(contra, arity, dim, {}, 1)

    def _kind(self) -> tuple:
        return "Tensor", self.contra, self.shape

    def _like(self, comps: dict, den: int) -> Tensor:
        return Tensor.from_ints(self.contra, self.arity, self.dim, comps, den)

    def antisymmetric_in(self, a: int, b: int) -> bool:
        return self == -swap_args(self, a, b)


def _check_operator(op: Matrix, dim: int) -> None:
    if op.rows != dim or op.cols != dim:
        raise ShapeError("operator dimension mismatch")


def tensor_from_operator(m: Matrix) -> Tensor:
    """View an endomorphism matrix as a (1,1) tensor: ``t[j, k] = (m e_j)^k``."""
    if m.rows != m.cols:
        raise ShapeError("operator must be square")
    return Tensor.from_ints(1, 1, m.rows, *m.permuted((1, 0)))


def operator_from_tensor(t: Tensor) -> Matrix:
    if (t.contra, t.arity) != (1, 1):
        raise ShapeError("need a (1,1) tensor")
    return Matrix.from_ints(t.shape, *t.permuted((1, 0)))


def metric_tensor(g: Matrix) -> Tensor:
    """View a metric matrix as a (0,2) tensor."""
    if g.rows != g.cols:
        raise ShapeError("metric must be square")
    return Tensor.from_ints(0, 2, g.rows, *g.permuted((0, 1)))


def covector(entries) -> Tensor:
    """A (0,1) tensor from raw components."""
    entries = list(entries)
    return Tensor(0, 1, len(entries), entries)


def lower(t: Tensor, g: Matrix) -> Tensor:
    """Lower the output index of a (1,s) tensor into a new last slot."""
    if t.contra != 1:
        raise ShapeError("lower needs a vector-valued tensor")
    _check_operator(g, t.dim)
    # out(x.., z) = sum_m t(x..)^m g[m, z]
    return Tensor.from_ints(0, t.arity + 1, t.dim, *contract((t, t.arity, g.lines(0))))


def raise_last(t: Tensor, g_inv: Matrix) -> Tensor:
    """Inverse of ``lower``: turn the last argument slot back into the output."""
    if t.contra != 0 or t.arity < 2:
        raise ShapeError("raise_last needs a (0,s) tensor with s >= 2")
    _check_operator(g_inv, t.dim)
    # out(x..)^k = sum_m t(x.., m) g_inv[m, k]
    return Tensor.from_ints(1, t.arity - 1, t.dim, *contract((t, t.arity - 1, g_inv.lines(0))))


def permute_args(t: Tensor, perm: tuple[int, ...]) -> Tensor:
    """Rearrange argument slots: ``out[idx] = t[idx[perm[0]], idx[perm[1]], ..]``."""
    if sorted(perm) != list(range(t.arity)):
        raise ShapeError(f"perm must rearrange {t.arity} argument slots")
    # the index s of a nonzero lands where out[perm[j]] = s[j]; the output slot stays
    return t._like(*t.permuted([perm.index(p) for p in range(t.arity)] + [t.arity] * t.contra))


def swap_args(t: Tensor, a: int, b: int) -> Tensor:
    perm = list(range(t.arity))
    perm[a], perm[b] = perm[b], perm[a]
    return permute_args(t, tuple(perm))


def precompose(t: Tensor, op: Matrix, slot: int) -> Tensor:
    """Feed ``op`` into one argument slot: ``out(.., x, ..) = t(.., op x, ..)``."""
    if not 0 <= slot < t.arity:
        raise ShapeError(f"slot {slot} out of range for arity {t.arity}")
    _check_operator(op, t.dim)
    # out[.., i, ..] = sum_m op[m, i] t[.., m, ..]
    return t._like(*contract((t, slot, op.lines(0))))


def postcompose(t: Tensor, op: Matrix) -> Tensor:
    """Apply ``op`` to the output of a (1,s) tensor: ``out(x..) = op(t(x..))``."""
    if t.contra != 1:
        raise ShapeError("postcompose needs a vector-valued tensor")
    _check_operator(op, t.dim)
    # out(x..)^k = sum_m op[k, m] t(x..)^m
    return t._like(*contract((t, t.arity, op.lines(1))))


def contract_arg_with_vector(t: Tensor, v: Vector, slot: int) -> Tensor:
    """Plug the vector into one argument slot, shortening the tensor."""
    if not 0 <= slot < t.arity:
        raise ShapeError(f"slot {slot} out of range for arity {t.arity}")
    if len(v) != t.dim:
        raise ShapeError("vector dimension mismatch")
    if t.arity == 1 and t.contra == 0:
        raise ShapeError("contraction would leave no slots")
    return Tensor.from_ints(t.contra, t.arity - 1, t.dim, *contract((t, slot, v.lines(0))))


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    """Tensor product of two (0,s) tensors: ``out(x.., y..) = a(x..) b(y..)``."""
    if a.contra != 0 or b.contra != 0:
        raise ShapeError("tensor_product combines two (0,s) tensors")
    if a.dim != b.dim:
        raise ShapeError("dimension mismatch")
    return Tensor.from_ints(0, a.arity + b.arity, a.dim, *outer(a, b))


def times_vector(t: Tensor, v: Vector) -> Tensor:
    """Tensor a (0,s) tensor with an output vector: ``out(x..) = t(x..) v``."""
    if t.contra != 0:
        raise ShapeError("times_vector needs a (0,s) tensor")
    if len(v) != t.dim:
        raise ShapeError("dimension mismatch")
    return Tensor.from_ints(1, t.arity, t.dim, *outer(t, v))


def cyclic_sum(t: Tensor) -> Tensor:
    """Sum over the three cyclic shifts of the argument slots of a (0,3) or (1,3) tensor."""
    if t.arity != 3:
        raise ShapeError("cyclic_sum needs three argument slots")
    return t + permute_args(t, (1, 2, 0)) + permute_args(t, (2, 0, 1))


def is_three_form(t: Tensor) -> bool:
    """True when ``t`` is antisymmetric under (0 1) and (1 2), which generate S3."""
    if t.contra != 0 or t.arity != 3:
        raise ShapeError("is_three_form is defined for (0,3) tensors")
    return t.antisymmetric_in(0, 1) and t.antisymmetric_in(1, 2)


def wedge_1_2(eta: Tensor, omega: Tensor) -> Tensor:
    """Wedge of a one-form with an antisymmetric two-form, as a bare cyclic sum."""
    if eta.contra != 0 or eta.arity != 1:
        raise ShapeError("first factor must be a one-form")
    if omega.contra != 0 or omega.arity != 2:
        raise ShapeError("second factor must be a two-form")
    if not omega.antisymmetric_in(0, 1):
        raise SymmetryError("second factor must be antisymmetric")
    return cyclic_sum(tensor_product(eta, omega))
