"""Dense exact linear algebra over the rationals.

Matrices act on column vectors, so column ``j`` of an operator holds the
image of the ``j``-th basis vector.  All entries are Fractions and every
routine is exact; there is no pivot-size heuristic anywhere because there
is no rounding to fight.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import ShapeError, SingularMatrixError, SymmetryError
from .rational import ONE, ZERO, as_scalar


class Vector:
    """Fixed-length tuple of rational components."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        self.entries: tuple[Fraction, ...] = tuple(as_scalar(e) for e in entries)
        if not self.entries:
            raise ShapeError("empty vector")

    @classmethod
    def zero(cls, n: int) -> Vector:
        return cls([ZERO] * n)

    @classmethod
    def basis(cls, n: int, i: int) -> Vector:
        """The ``i``-th standard basis vector (0-based) in dimension ``n``."""
        return cls([ONE if j == i else ZERO for j in range(n)])

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __add__(self, other: Vector) -> Vector:
        self._match(other)
        return Vector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: Vector) -> Vector:
        self._match(other)
        return Vector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> Vector:
        return Vector(-a for a in self.entries)

    def __mul__(self, scalar) -> Vector:
        s = as_scalar(scalar)
        return Vector(a * s if a else ZERO for a in self.entries)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def _match(self, other: Vector) -> None:
        if len(self) != len(other):
            raise ShapeError(f"vector lengths differ: {len(self)} vs {len(other)}")

    def __repr__(self) -> str:
        return f"Vector({list(map(str, self.entries))})"


class Matrix:
    """Immutable dense rational matrix."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, rows: Iterable[Iterable]):
        self.entries: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(as_scalar(e) for e in row) for row in rows
        )
        if not self.entries:
            raise ShapeError("empty matrix")
        self.rows = len(self.entries)
        self.cols = len(self.entries[0])
        if any(len(row) != self.cols for row in self.entries):
            raise ShapeError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> Matrix:
        cols = rows if cols is None else cols
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, values: Sequence) -> Matrix:
        vals = [as_scalar(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def outer(cls, u: Vector, w: Sequence) -> Matrix:
        """Rank-one matrix ``u wᵀ``; entry (i, j) is ``u[i]·w[j]``."""
        ws = [as_scalar(x) for x in w]
        zeros = [ZERO] * len(ws)
        return cls([[ui * wj if wj else ZERO for wj in ws] if ui else zeros for ui in u])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def sparse_rows(self) -> list[list[tuple[int, Fraction]]]:
        """Row ``i`` as the ``(j, entry)`` pairs of its nonzero entries."""
        return [[(j, a) for j, a in enumerate(row) if a] for row in self.entries]

    def column(self, j: int) -> Vector:
        return Vector(self.entries[i][j] for i in range(self.rows))

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        right = other.sparse_rows()
        out = []
        for row in self.sparse_rows():
            acc = [ZERO] * other.cols
            for j, a in row:
                for k, b in right[j]:
                    acc[k] += a * b
            out.append(acc)
        return Matrix(out)

    def apply(self, v: Vector) -> Vector:
        if self.cols != len(v):
            raise ShapeError(f"cannot apply {self.rows}x{self.cols} to a vector of length {len(v)}")
        return Vector(sum((a * v[j] for j, a in row), ZERO) for row in self.sparse_rows())

    def __add__(self, other: Matrix) -> Matrix:
        self._match(other)
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: Matrix) -> Matrix:
        self._match(other)
        return Matrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> Matrix:
        return Matrix([[-a for a in row] for row in self.entries])

    def __mul__(self, scalar) -> Matrix:
        s = as_scalar(scalar)
        return Matrix([[a * s if a else ZERO for a in row] for row in self.entries])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def transpose(self) -> Matrix:
        return Matrix(zip(*self.entries))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def inverse(self) -> Matrix:
        """Exact inverse by Gauss-Jordan elimination."""
        if self.rows != self.cols:
            raise ShapeError("only square matrices have inverses")
        n = self.rows
        aug = [
            list(self.entries[i]) + [ONE if i == j else ZERO for j in range(n)]
            for i in range(n)
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
        a = [list(row) for row in self.entries]
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

    def _match(self, other: Matrix) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(
                f"shapes differ: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, row)) for row in self.entries)
        return f"Matrix[{body}]"


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
    a = [list(row) for row in m.entries]
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
