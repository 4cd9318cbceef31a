"""Dense references for the tests.

Each function here walks every index tuple (or every stored entry) and
reads components through ``t[...]``, independently of the sparse kernels
in ``hn3.linalg`` and ``hn3.tensor`` that the tests compare against it.
The eliminations (``rank``, ``inverse``, ``signature``) are fraction-free
Bareiss over dense rows of integer numerators, zeros included; ``kernel``
is Gauss-Jordan over Fractions, and ``natural_skew_connections`` solves
for natural connections with 3-form torsion with it.  None of them is
part of the library.
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


def kernel(rows, ncols: int) -> list[list[Fraction]]:
    """A basis of the vectors x with ``sum(row[c] * x[c]) = 0`` for each row, by Gauss-Jordan.

    Each row is a dict ``{column: value}``.  The pivot rows are kept in
    reduced echelon form, 1 at their pivot column and 0 at the others, so
    reducing a new row takes one pass over the pivots it meets.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        for c in [c for c in row if c in pivots]:
            f = row.pop(c)
            for k, v in pivots[c].items():
                if k != c:
                    w = row.get(k, 0) - f * v
                    if w:
                        row[k] = w
                    else:
                        row.pop(k, None)
        if not row:
            continue
        c = min(row)
        inv = 1 / row[c]
        row = {k: v * inv for k, v in row.items()}
        for other in pivots.values():
            f = other.pop(c, 0)
            if not f:
                continue
            for k, v in row.items():
                if k != c:
                    w = other.get(k, 0) - f * v
                    if w:
                        other[k] = w
                    else:
                        other.pop(k, None)
        pivots[c] = row
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for c, row in pivots.items():
            x[c] = -row.get(f, 0)
        basis.append(x)
    return basis


def _dense(m) -> list[list[Fraction]]:
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def levi_civita(h) -> dict:
    """``{(x, y, k): Gamma}`` from the Koszul formula, ``2 g(D_x y, z) = g([x,y],z) - g([y,z],x) + g([z,x],y)``."""
    n = h.dim
    g, g_inv = _dense(h.metric), _dense(inverse(h.metric))
    cg: dict = {}  # g([x, y], z)
    for (x, y, k), c in h.mla.algebra.bracket.nonzero():
        for z in range(n):
            if g[k][z]:
                cg[x, y, z] = cg.get((x, y, z), 0) + c * g[k][z]
    koszul: dict = {}
    for (x, y, z), v in cg.items():
        for key, w in (((x, y, z), v), ((z, x, y), -v), ((y, z, x), v)):
            koszul[key] = koszul.get(key, 0) + w
    return _raised(koszul, g_inv, Fraction(1, 2))


def _raised(form: dict, g_inv, factor) -> dict:
    """``factor`` times the (1,2) tensor of a (0,3) form, its last slot raised."""
    out: dict = {}
    for (x, y, z), v in form.items():
        for k, w in enumerate(g_inv[z]):
            if v and w:
                out[x, y, k] = out.get((x, y, k), 0) + factor * v * w
    return out


def naturality_residual(h, gamma: dict, alphas=(1, 2, 3)) -> dict:
    """The nonzero components of D phi_a, D xi_a and D eta_a (a in ``alphas``) and of D g.

    D has coefficients ``gamma = {(x, y, k): value}``; the components are
    keyed by a label and their indices.  Every one is linear in gamma.
    """
    n = h.dim

    def lines(m) -> tuple[list, list]:
        """Each row's and each column's nonzero entries ``(index, value)``."""
        dense = _dense(m)
        rows = [[(j, v) for j, v in enumerate(row) if v] for row in dense]
        return rows, [[(i, dense[i][j]) for i in range(n) if dense[i][j]] for j in range(n)]

    g_rows, g_cols = lines(h.metric)
    structures = [
        (a, *lines(h.phi(a)), list(h.xi(a)), [h.eta(a)[i] for i in range(n)]) for a in alphas
    ]
    out: dict = {}

    def add(key, v):
        out[key] = out.get(key, 0) + v

    for (x, y, m), c in gamma.items():
        for a, phi_rows, phi_cols, xi, eta in structures:
            for z, p in phi_rows[y]:
                add((a, "phi", x, z, m), p * c)  # D_x(phi e_z) meets e_y
            for z, p in phi_cols[m]:
                add((a, "phi", x, y, z), -p * c)  # phi(D_x e_y)
            if xi[y]:
                add((a, "xi", x, m), xi[y] * c)
            if eta[m]:
                add((a, "eta", x, y), -eta[m] * c)
        for z, w in g_rows[m]:
            add(("g", x, y, z), -w * c)
        for z, w in g_cols[m]:
            add(("g", x, z, y), -w * c)
    return {k: v for k, v in out.items() if v}


def natural_skew_connections(h, alphas=(1, 2, 3)) -> tuple[bool, int]:
    """Is some ``LC + T/2`` (T a 3-form, last slot raised) natural for each of ``alphas``?

    Returns that verdict and the dimension of the space of 3-forms S that
    keep ``LC + (T + S)/2`` natural.  The unknowns are the C(n, 3)
    components of T: column E is the residual of ``E/2`` for the basis
    3-form E, and the system asks that they cancel the residual of LC.
    """
    n = h.dim
    g_inv = _dense(inverse(h.metric))
    triples = list(itertools.combinations(range(n), 3))
    rows: dict = {}
    for col, ijk in enumerate(triples):
        form = {tuple(ijk[p] for p in perm): sign for perm, sign in SIGNED_PERMUTATIONS}
        for key, v in naturality_residual(h, _raised(form, g_inv, Fraction(1, 2)), alphas).items():
            rows.setdefault(key, {})[col] = v
    for key, v in naturality_residual(h, levi_civita(h), alphas).items():
        rows.setdefault(key, {})[len(triples)] = v
    basis = kernel(rows.values(), len(triples) + 1)
    solvable = any(x[-1] for x in basis)
    return solvable, len(basis) - solvable
