"""Sparse exact linear algebra over the rationals.

Vectors, matrices and the tensors of ``hn3.tensor`` share one storage,
``Array``: only the nonzero entries are kept, as integer numerators in
``comps`` over one positive ``den`` per array (only this module reads
it), next to the array's ``shape``.  Fractions appear only in the
constructors, ``__getitem__`` and ``nonzero``.  All arithmetic is written
once, in ints.  Every product of two arrays runs in ``contract``, which
sums over one shared index (matrix products, slot contractions, covariant
derivatives, Jacobi sums), or ``outer``, the tensor product; both multiply
nonzero entries only and reduce once per output array.  ``contract`` reads
its second factor in one format, ``Array.lines``, and adds product by
product.

Matrices act on column vectors, so column ``j`` of an operator holds the
image of the ``j``-th basis vector; entry ``(i, j)`` is keyed ``(i, j)``.
``inverse`` and ``signature`` run fraction-free (Bareiss) elimination over
rows that hold only their nonzero numerators: a pivot updates the rows with
an entry in its column and only rescales the others, or leaves them as they
are when it equals the previous pivot, so a signed permutation costs in
proportion to its size.  There is no pivot-size heuristic anywhere because
there is no rounding to fight.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .errors import ShapeError, SingularMatrixError, SymmetryError
from .rational import ZERO, as_scalar, from_ratio, reduced, split, to_ints


def contract(*terms: tuple[Array, int, tuple[int, dict]]) -> tuple[dict, int]:
    """Sum over one index per term, in ints; returns the canonical ``(comps, den)``.

    A term ``(t, pos, lines)`` sums over the index in slot ``pos`` of
    ``t``: each nonzero ``t[head, m, tail]`` meets every ``(prefix, infix,
    p)`` in group ``m`` of ``lines`` (as ``Array.lines`` builds them) and
    adds ``p * t[..]`` at ``prefix + head + infix + tail``.  Each term is
    scaled to the common denominator once, so every product adds as an int,
    into one accumulator that is reduced once.
    """
    common = lcm(*(t.den * den for t, _, (den, _) in terms))
    acc: dict = {}
    get = acc.get
    for t, pos, (den, groups) in terms:
        scale = common // (t.den * den)
        for idx, v in t.comps.items():
            group = groups.get(idx[pos])
            if group is None:
                continue
            v *= scale
            head, tail = idx[:pos], idx[pos + 1:]
            for prefix, infix, p in group:
                key = prefix + head + infix + tail
                acc[key] = get(key, 0) + p * v
    return reduced(acc, common)


def outer(left: Array, right: Array) -> tuple[dict, int]:
    """Numerators and denominator of the tensor product: ``left[i] * right[j]`` at ``i + j``."""
    # only one side's numerators and the other's denominator share factors
    gl, gr = gcd(right.den, *left.comps.values()), gcd(left.den, *right.comps.values())
    ls = [(i, a // gl) for i, a in left.comps.items()]
    rs = [(j, b // gr) for j, b in right.comps.items()]
    return {i + j: a * b for i, a in ls for j, b in rs}, left.den // gr * (right.den // gl)


class Array:
    """Exact array that stores only its nonzero entries.

    ``comps`` maps 0-based index tuples to nonzero integer numerators over
    one positive ``den``; ``shape`` gives the range of each index.  The form
    is canonical (``rational.reduced``), so arrays of one kind are equal
    exactly when their dicts and ``den`` are.  A subclass whose kind is more
    than its class and shape (a tensor's valence) extends ``_kind``/``_like``.
    """

    __slots__ = ("shape", "comps", "den", "_lines", "_hash")

    @classmethod
    def from_ints(cls, shape: tuple[int, ...], comps: dict, den: int):
        """Array holding ``comps[idx] / den``; the pair must be canonical, keys are trusted."""
        out = object.__new__(cls)
        out.shape, out.comps, out.den = shape, comps, den
        return out

    @classmethod
    def from_dict(cls, *kind_and_comps):
        """``from_ints`` with ``{idx: Fraction}`` for the pair; zeros are dropped, keys trusted."""
        *kind, comps = kind_and_comps
        return cls.from_ints(*kind, *to_ints(comps))

    def _kind(self) -> tuple:
        """What two arrays must share to be added, subtracted or equal."""
        return type(self).__name__, self.shape

    def _like(self, comps: dict, den: int):
        """An array of the same kind holding ``comps / den``."""
        return type(self).from_ints(self.shape, comps, den)

    def __getitem__(self, idx) -> Fraction:
        key = idx if isinstance(idx, tuple) else (idx,)
        if len(key) != len(self.shape):
            raise ShapeError(f"expected {len(self.shape)} indices, got {len(key)}")
        v = self.comps.get(key)
        if v is not None:  # a stored key is in range
            return from_ratio(v, self.den)
        if not all(0 <= i < n for i, n in zip(key, self.shape)):
            raise ShapeError(f"index {key} out of range for shape {self.shape}")
        return ZERO

    def __add__(self, other: Array, sign: int = 1):
        if self._kind() != other._kind():
            raise ShapeError(f"cannot combine {self._kind()} with {other._kind()}")
        p, q = self.den, other.den
        g = gcd(p, q)
        fa, fb = q // g, p // g * sign
        out = dict(self.comps) if fa == 1 else {k: v * fa for k, v in self.comps.items()}
        for k, v in other.comps.items():
            out[k] = out.get(k, 0) + v * fb
        return self._like(*reduced(out, p * fa))

    def __sub__(self, other: Array):
        return self.__add__(other, -1)

    def __neg__(self):
        return self._like({idx: -v for idx, v in self.comps.items()}, self.den)

    def __mul__(self, scalar):
        p, q = (scalar, 1) if type(scalar) is int else split(as_scalar(scalar))
        if not p:
            return self._like({}, 1)
        # a = gcd(p, den) and b = gcd(q, numerators) are the only factors to cancel
        a, b = gcd(p, self.den), gcd(q, *self.comps.values())
        p, q = p // a, q // b
        return self._like({k: v // b * p for k, v in self.comps.items()}, self.den // a * q)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Array):
            return NotImplemented
        return (self._kind(), self.den, self.comps) == (other._kind(), other.den, other.comps)

    def __hash__(self):
        # an array never changes after construction, so its hash is computed once
        if not hasattr(self, "_hash"):
            self._hash = hash((self._kind(), self.den, frozenset(self.comps.items())))
        return self._hash

    def is_zero(self) -> bool:
        return not self.comps

    def differs_at(self, other: Array) -> set:
        """The positions where two arrays of one shape differ, whatever their kinds."""
        if self.shape != other.shape:
            raise ShapeError(f"cannot compare shapes {self.shape} and {other.shape}")
        a, p, b, q = self.comps, self.den, other.comps, other.den
        return {k for k in a.keys() | b.keys() if a.get(k, 0) * q != b.get(k, 0) * p}

    def permuted(self, order: Sequence[int]) -> tuple[dict, int]:
        """Numerators rekeyed to ``(idx[order[0]], idx[order[1]], ..)``, and the same ``den``."""
        # the identity, the only order of one slot, where itemgetter returns no tuple
        if list(order) == list(range(len(order))):
            return self.comps, self.den
        key = itemgetter(*order)
        return {key(idx): v for idx, v in self.comps.items()}, self.den

    def lines(self, axis: int, prefix: int = 0) -> tuple[int, dict[int, list]]:
        """``(den, groups)``: the nonzeros grouped by their index on ``axis``.

        This is the one grouping ``contract`` reads.  Group ``m`` lists
        ``(prefix, infix, p)`` for each entry with index ``m`` on ``axis``:
        its numerator ``p`` and its other indices, the first ``prefix`` (at
        most ``axis``) split off.  Built once per array and ``(axis,
        prefix)``.
        """
        if not hasattr(self, "_lines"):
            self._lines = {}
        out = self._lines.get((axis, prefix))
        if out is None:
            groups: dict = {}
            for idx, v in self.comps.items():
                groups.setdefault(idx[axis], []).append(
                    (idx[:prefix], idx[prefix:axis] + idx[axis + 1:], v)
                )
            out = self._lines[axis, prefix] = self.den, groups
        return out

    def nonzero(self):
        """Yield ``(idx, value)`` for every nonzero entry, 0-based, row-major."""
        yield from ((idx, from_ratio(v, self.den)) for idx, v in sorted(self.comps.items()))

    def entries_1based(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Sorted nonzero entries with 1-based indices, for display."""
        return [(tuple(i + 1 for i in idx), value) for idx, value in self.nonzero()]

    def __repr__(self) -> str:
        entries = ", ".join(f"{idx}={value}" for idx, value in self.entries_1based()[:8])
        return f"{type(self).__name__}{self.shape}[{entries or '0'}]"


class Vector(Array):
    """Rational column vector of shape ``(n,)``."""

    __slots__ = ()

    def __new__(cls, entries: Iterable):
        values = [as_scalar(e) for e in entries]
        if not values:
            raise ShapeError("empty vector")
        return cls.from_dict((len(values),), {(i,): v for i, v in enumerate(values)})

    @classmethod
    def zero(cls, n: int) -> Vector:
        if n < 1:
            raise ShapeError("empty vector")
        return cls.from_ints((n,), {}, 1)

    @classmethod
    def basis(cls, n: int, i: int) -> Vector:
        """The ``i``-th standard basis vector (0-based) in dimension ``n``."""
        if not 0 <= i < n:
            raise ShapeError(f"basis index {i} out of range 0..{n - 1}")
        return cls.from_ints((n,), {(i,): 1}, 1)

    def __len__(self) -> int:
        return self.shape[0]

    def __iter__(self):
        return (self[i] for i in range(self.shape[0]))


class Matrix(Array):
    """Rational matrix of shape ``(rows, cols)``, entries keyed ``(row, col)``."""

    __slots__ = ()

    def __new__(cls, rows: Iterable[Iterable]):
        dense = [[as_scalar(e) for e in row] for row in rows]
        if not dense:
            raise ShapeError("empty matrix")
        if any(len(row) != len(dense[0]) for row in dense):
            raise ShapeError("ragged rows")
        values = {(i, j): a for i, row in enumerate(dense) for j, a in enumerate(row)}
        return cls.from_dict((len(dense), len(dense[0])), values)

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @classmethod
    def identity(cls, n: int) -> Matrix:
        if n < 1:
            raise ShapeError("empty matrix")
        return cls.from_ints((n, n), {(i, i): 1 for i in range(n)}, 1)

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> Matrix:
        cols = rows if cols is None else cols
        if min(rows, cols) < 1:
            raise ShapeError("empty matrix")
        return cls.from_ints((rows, cols), {}, 1)

    @classmethod
    def diagonal(cls, values: Sequence) -> Matrix:
        n = len(values)
        if n < 1:
            raise ShapeError("empty matrix")
        return cls.from_dict((n, n), {(i, i): as_scalar(v) for i, v in enumerate(values)})

    @classmethod
    def outer(cls, u: Array, w: Array) -> Matrix:
        """Rank-one ``u wᵀ`` of two vectors or one-forms; entry (i, j) is ``u[i]·w[j]``."""
        return cls.from_ints((u.shape[0], w.shape[0]), *outer(u, w))

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        return Matrix.from_ints((self.rows, other.cols), *contract((self, 1, other.lines(0))))

    def apply(self, v: Array) -> Vector:
        """``self v`` for a vector, or the components of a one-form, of length ``cols``."""
        if v.shape != (self.cols,):
            raise ShapeError(f"cannot apply {self.shape} to an array of shape {v.shape}")
        return Vector.from_ints((self.rows,), *contract((self, 1, v.lines(0))))

    def transpose(self) -> Matrix:
        return Matrix.from_ints((self.cols, self.rows), *self.permuted((1, 0)))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.permuted((1, 0))[0] == self.comps

    def inverse(self) -> Matrix:
        """Exact inverse by fraction-free Gauss-Jordan elimination."""
        if self.rows != self.cols:
            raise ShapeError("only square matrices have inverses")
        n = self.rows
        aug: list[dict] = [{n + i: 1} for i in range(n)]
        for (i, j), x in self.comps.items():
            aug[i][j] = x
        pivots, d = _eliminate(aug, n)
        if pivots < n:
            raise SingularMatrixError("matrix is singular")
        # aug is [d I | d N^-1] for the numerators N, and the inverse is den N^-1
        sign = self.den if d > 0 else -self.den
        inv = {(i, j - n): sign * x for i, row in enumerate(aug) for j, x in row.items() if j >= n}
        return Matrix.from_ints((n, n), *reduced(inv, abs(d)))


def _update(row: dict, f: int | None, pivot_row: dict, d: int, prev: int) -> dict:
    """The Bareiss step ``(d * row - f * pivot_row) / prev`` over stored entries, zeros dropped."""
    if f is None:  # only the rescale: every quotient is exact and nonzero
        return {k: d * x // prev for k, x in row.items()}
    out = {k: d * x for k, x in row.items()}
    get = out.get
    for k, y in pivot_row.items():
        out[k] = get(k, 0) - f * y
    return {k: x // prev for k, x in out.items() if x}


def _eliminate(rows: list[dict], cols: int) -> tuple[int, int]:
    """In-place Bareiss Gauss-Jordan on the first ``cols`` columns: (pivot count, last pivot).

    Each row holds its nonzero numerators only, keyed by column.
    """
    pivots, prev = 0, 1
    for col in range(cols):
        pivot = next((r for r in range(pivots, len(rows)) if col in rows[r]), None)
        if pivot is None:
            continue
        rows[pivots], rows[pivot] = rows[pivot], rows[pivots]
        pivot_row = rows[pivots]
        d = pivot_row[col]
        for r, row in enumerate(rows):
            f = row.get(col)
            # a row without an entry in this column is only rescaled, and kept when d = prev
            if r != pivots and (f is not None or d != prev):
                rows[r] = _update(row, f, pivot_row, d, prev)
        pivots, prev = pivots + 1, d
    return pivots, prev


def kernel(forms: Sequence[Array], n: int) -> list[Vector]:
    """A basis of the vectors of length ``n`` that every one-form in ``forms`` kills.

    Bareiss Gauss-Jordan (``_eliminate``) over the forms' numerators leaves
    each pivot row with the last pivot d in its leading column and zeros in
    the other pivot columns; each free column f then gives the kernel vector
    with d at f and minus the rows' entries in f at their leading columns,
    divided by its content, an integer vector.
    """
    rows = [{idx[0]: x for idx, x in f.comps.items()} for f in forms]
    pivots, d = _eliminate(rows, n)
    lead = [(min(row), row) for row in rows[:pivots]]
    out = []
    for f in sorted(set(range(n)).difference(c for c, _ in lead)):
        comps = {(f,): d}
        comps.update({(c,): -row[f] for c, row in lead if f in row})
        g = gcd(*comps.values())
        out.append(Vector.from_ints((n,), {k: x // g for k, x in comps.items()}, 1))
    return out


def signature(m: Matrix) -> tuple[int, int, int]:
    """Sylvester signature (positive, negative, zero) of a symmetric matrix.

    Fraction-free symmetric congruence diagonalization over the stored
    entries of the active block, kept as symmetric rows: after each pivot
    the block holds the pivot ``prev`` times the Schur complement, so the
    next true pivot has the sign of ``d * prev``.  When the whole active
    diagonal vanishes, a nonzero off-diagonal entry spans a hyperbolic pair;
    adding its partner row and column produces a nonzero diagonal pivot.
    """
    if m.rows != m.cols:
        raise ShapeError("signature needs a square matrix")
    if not m.is_symmetric():
        raise SymmetryError("signature needs a symmetric matrix")
    n = m.rows
    # the active block, row by row; the positive denominator keeps every sign
    rows: dict[int, dict] = {i: {} for i in range(n)}
    for (i, j), x in m.comps.items():
        rows[i][j] = x
    neg, prev = 0, 1
    while rows:
        p = next((i for i, row in rows.items() if i in row), None)
        if p is None:
            # the whole diagonal is zero, so every stored entry is off it
            pair = next(((i, j) for i, row in rows.items() for j in row), None)
            if pair is None:
                break
            p, j = pair
            # e_p + e_j replaces e_p, so row p gains row j and its diagonal
            # entry becomes a[p][p] + 2 a[p][j] + a[j][j] = 2 a[p][j] != 0;
            # column p is read back from row p, by symmetry
            row, c = rows[p], rows[p][j]
            for k, x in rows[j].items():
                row[k] = row.get(k, 0) + x
            row[p] = 2 * c
            rows[p] = {k: x for k, x in row.items() if x}
        pivot_row = rows.pop(p)
        d = pivot_row.pop(p)
        for i, row in rows.items():
            row.pop(p, None)
            f = pivot_row.get(i)
            # a row without an entry in the pivot column is only rescaled, and kept when d = prev
            if f is not None or d != prev:
                rows[i] = _update(row, f, pivot_row, d, prev)
        if d * prev < 0:
            neg += 1
        prev = d
    zero = len(rows)
    return n - neg - zero, neg, zero
