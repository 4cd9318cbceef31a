"""Sparse exact linear algebra over the rationals.

Vectors, matrices and the tensors of ``hn3.tensor`` share one storage,
``Array``: only the nonzero entries are kept, in ``comps``, a dict from
0-based index tuples to Fractions, next to the array's ``shape``.  The
entrywise arithmetic, equality and hashing are written once, on that
dict.  Every product of two arrays in the package runs in one of two
places here, and multiplies their stored nonzeros only: ``contract``,
which sums over one shared index (matrix products, slot contractions,
covariant derivatives, Jacobi sums), and ``outer``, the tensor product
with no summed index.  ``contract`` sums exactly in Python ints: each
output entry keeps an integer numerator over a common denominator while
its products arrive, and is reduced to a Fraction once, at the end.

Matrices act on column vectors, so column ``j`` of an operator holds the
image of the ``j``-th basis vector; entry ``(i, j)`` is keyed ``(i, j)``.
Only ``inverse``, ``rank`` and ``signature`` expand a matrix into dense
rows, for elimination.  Every routine is exact; there is no pivot-size
heuristic anywhere because there is no rounding to fight.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd

from .errors import ShapeError, SingularMatrixError, SymmetryError
from .rational import ONE, ZERO, as_scalar, from_ratio, split


def accumulate(acc: dict, key, value) -> None:
    """Add ``value`` into ``acc[key]``; a new key stores ``value`` itself, adding nothing."""
    old = acc.get(key)
    acc[key] = value if old is None else old + value


def contract(*terms: tuple[Array, int, dict]) -> dict:
    """Sum over one index per term; each output entry is reduced once.

    A term ``(t, pos, lines)`` sums over the index in slot ``pos`` of
    ``t``: each stored ``t[head, m, tail]`` meets every ``(prefix, infix,
    p, q)`` in ``lines[m]`` (as ``Array.lines`` groups them) and adds
    ``p/q * t[..]`` at ``prefix + head + infix + tail``.  Only stored
    nonzeros on both sides are multiplied, in ints: an output entry keeps
    a numerator over a denominator, which stays while a product's matches
    and becomes the lcm otherwise.  The result maps each key to its one
    reduced Fraction; a key whose terms cancel is left out.
    """
    acc: dict = {}
    for t, pos, lines in terms:
        for idx, v in t.comps.items():
            group = lines.get(idx[pos])
            if group is None:
                continue
            vp, vq = split(v)
            head, tail = idx[:pos], idx[pos + 1:]
            for prefix, infix, p, q in group:
                key = prefix + head + infix + tail
                p *= vp
                q *= vq
                entry = acc.get(key)
                if entry is None:
                    acc[key] = [p, q]
                elif entry[1] == q:
                    entry[0] += p
                else:
                    g = gcd(entry[1], q)
                    entry[0] = entry[0] * (q // g) + p * (entry[1] // g)
                    entry[1] *= q // g
    return {key: from_ratio(p, q) for key, (p, q) in acc.items() if p}


def outer(left: Array, right: Array) -> dict:
    """Components of the tensor product: ``left[i] * right[j]`` at ``i + j``."""
    return {i + j: a * b for i, a in left.comps.items() for j, b in right.comps.items()}


class Array:
    """Exact array that stores only its nonzero entries.

    ``comps`` maps 0-based index tuples to nonzero Fractions and ``shape``
    gives the range of each index.  No zero is ever stored, so two arrays
    of one kind are equal exactly when their dicts are.  A subclass whose
    kind is more than its class and shape (a tensor's valence) extends
    ``_kind`` and ``_like``.
    """

    __slots__ = ("shape", "comps", "_lines")

    @classmethod
    def from_dict(cls, shape: tuple[int, ...], comps: dict):
        """Array from ``{idx: Fraction}``; zero values are dropped, keys are trusted."""
        out = object.__new__(cls)
        out.shape = shape
        out.comps = {idx: v for idx, v in comps.items() if v}
        return out

    def _kind(self) -> tuple:
        """What two arrays must share to be added, subtracted or equal."""
        return type(self).__name__, self.shape

    def _like(self, comps: dict):
        """An array of the same kind holding ``comps``."""
        return type(self).from_dict(self.shape, comps)

    def _match(self, other: Array) -> None:
        if self._kind() != other._kind():
            raise ShapeError(f"cannot combine {self._kind()} with {other._kind()}")

    def __getitem__(self, idx) -> Fraction:
        key = idx if isinstance(idx, tuple) else (idx,)
        if len(key) != len(self.shape):
            raise ShapeError(f"expected {len(self.shape)} indices, got {len(key)}")
        return self.comps.get(key, ZERO)

    def __add__(self, other: Array):
        self._match(other)
        out = dict(self.comps)
        for idx, v in other.comps.items():
            accumulate(out, idx, v)
        return self._like(out)

    def __sub__(self, other: Array):
        return self + -other

    def __neg__(self):
        return self._like({idx: -v for idx, v in self.comps.items()})

    def __mul__(self, scalar):
        s = as_scalar(scalar)
        return self._like({idx: v * s for idx, v in self.comps.items()} if s else {})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Array):
            return NotImplemented
        return self._kind() == other._kind() and self.comps == other.comps

    def __hash__(self):
        return hash((self._kind(), frozenset(self.comps.items())))

    def is_zero(self) -> bool:
        return not self.comps

    def lines(self, axis: int, prefix: int = 0) -> dict[int, list]:
        """Nonzeros grouped by their index on ``axis``, ready for ``contract``.

        Each group ``m`` lists ``(prefix, infix, p, q)`` for the entries
        with index ``m`` on ``axis``: the other indices in order, the first
        ``prefix`` (at most ``axis``) of them split off, then the value
        ``p/q`` as ints.  ``comps`` never changes after construction, so
        each grouping is built once per array.
        """
        if not hasattr(self, "_lines"):
            self._lines = {}
        out = self._lines.get((axis, prefix))
        if out is None:
            out = self._lines[axis, prefix] = {}
            for idx, a in self.comps.items():
                infix = idx[prefix:axis] + idx[axis + 1:]
                out.setdefault(idx[axis], []).append((idx[:prefix], infix, *split(a)))
        return out

    def nonzero(self):
        """Yield ``(idx, value)`` for every nonzero entry, 0-based, row-major."""
        yield from sorted(self.comps.items())

    def entries_1based(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Sorted nonzero entries with 1-based indices, for display."""
        return [(tuple(i + 1 for i in idx), value) for idx, value in self.nonzero()]

    def __repr__(self) -> str:
        entries = ", ".join(f"{idx}={value}" for idx, value in self.entries_1based()[:8])
        return f"{type(self).__name__}{self.shape}[{entries or '0'}]"


class Vector(Array):
    """Rational column vector of shape ``(n,)``."""

    __slots__ = ()

    def __init__(self, entries: Iterable):
        values = [as_scalar(e) for e in entries]
        if not values:
            raise ShapeError("empty vector")
        self.shape = (len(values),)
        self.comps = {(i,): v for i, v in enumerate(values) if v}

    @classmethod
    def zero(cls, n: int) -> Vector:
        return cls.from_dict((n,), {})

    @classmethod
    def basis(cls, n: int, i: int) -> Vector:
        """The ``i``-th standard basis vector (0-based) in dimension ``n``."""
        return cls.from_dict((n,), {(i,): ONE})

    def __len__(self) -> int:
        return self.shape[0]

    def __iter__(self):
        return (self.comps.get((i,), ZERO) for i in range(self.shape[0]))


class Matrix(Array):
    """Rational matrix of shape ``(rows, cols)``, entries keyed ``(row, col)``."""

    __slots__ = ()

    def __init__(self, rows: Iterable[Iterable]):
        dense = [[as_scalar(e) for e in row] for row in rows]
        if not dense:
            raise ShapeError("empty matrix")
        if any(len(row) != len(dense[0]) for row in dense):
            raise ShapeError("ragged rows")
        self.shape = (len(dense), len(dense[0]))
        self.comps = {
            (i, j): a for i, row in enumerate(dense) for j, a in enumerate(row) if a
        }

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls.from_dict((n, n), {(i, i): ONE for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> Matrix:
        return cls.from_dict((rows, rows if cols is None else cols), {})

    @classmethod
    def diagonal(cls, values: Sequence) -> Matrix:
        n = len(values)
        return cls.from_dict((n, n), {(i, i): as_scalar(v) for i, v in enumerate(values)})

    @classmethod
    def outer(cls, u: Array, w: Array) -> Matrix:
        """Rank-one ``u wᵀ`` of two vectors or one-forms; entry (i, j) is ``u[i]·w[j]``."""
        return cls.from_dict((u.shape[0], w.shape[0]), outer(u, w))

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        return Matrix.from_dict((self.rows, other.cols), contract((self, 1, other.lines(0))))

    def apply(self, v: Array) -> Vector:
        """``self v`` for a vector, or the components of a one-form, of length ``cols``."""
        if v.shape != (self.cols,):
            raise ShapeError(f"cannot apply {self.shape} to an array of shape {v.shape}")
        return Vector.from_dict((self.rows,), contract((self, 1, v.lines(0))))

    def transpose(self) -> Matrix:
        return Matrix.from_dict(
            (self.cols, self.rows), {(j, i): a for (i, j), a in self.comps.items()}
        )

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.comps.get((j, i)) == a for (i, j), a in self.comps.items()
        )

    def _dense_rows(self) -> list[list[Fraction]]:
        return [
            [self.comps.get((i, j), ZERO) for j in range(self.cols)]
            for i in range(self.rows)
        ]

    def inverse(self) -> Matrix:
        """Exact inverse by Gauss-Jordan elimination."""
        if self.rows != self.cols:
            raise ShapeError("only square matrices have inverses")
        n = self.rows
        aug = [
            row + [ONE if i == j else ZERO for j in range(n)]
            for i, row in enumerate(self._dense_rows())
        ]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if pivot is None:
                raise SingularMatrixError("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            d = aug[col][col]
            aug[col] = [x / d for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return Matrix(row[n:] for row in aug)

    def rank(self) -> int:
        a = self._dense_rows()
        pivots = 0
        for col in range(self.cols):
            pivot = next((r for r in range(pivots, self.rows) if a[r][col] != 0), None)
            if pivot is None:
                continue
            a[pivots], a[pivot] = a[pivot], a[pivots]
            d = a[pivots][col]
            for r in range(self.rows):
                if r != pivots and a[r][col] != 0:
                    f = a[r][col] / d
                    a[r] = [x - f * y for x, y in zip(a[r], a[pivots])]
            pivots += 1
        return pivots


def signature(m: Matrix) -> tuple[int, int, int]:
    """Sylvester signature (positive, negative, zero) of a symmetric matrix.

    Symmetric congruence diagonalization: simultaneous row/column
    operations preserve the signature, and every step stays rational.
    When the whole active diagonal vanishes, a nonzero off-diagonal entry
    spans a hyperbolic pair; adding its partner row and column produces a
    nonzero diagonal pivot.
    """
    if m.rows != m.cols:
        raise ShapeError("signature needs a square matrix")
    if not m.is_symmetric():
        raise SymmetryError("signature needs a symmetric matrix")
    n = m.rows
    a = m._dense_rows()
    pos = neg = zero = 0

    def add_sym(i: int, j: int, f: Fraction) -> None:
        # row_i += f * row_j, then the same on columns
        for c in range(n):
            a[i][c] += f * a[j][c]
        for r in range(n):
            a[r][i] += f * a[r][j]

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
                pair = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0),
                    None,
                )
                if pair is None:
                    zero += n - k
                    break
                i, j = pair
                add_sym(i, j, ONE)  # a[i][i] becomes 2*a[i][j] != 0
                if i != k:
                    swap_sym(k, i)
        d = a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                add_sym(i, k, -a[i][k] / d)
        if d > 0:
            pos += 1
        else:
            neg += 1
    return pos, neg, zero
