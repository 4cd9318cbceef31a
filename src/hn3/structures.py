"""Almost contact 3-structures with Hermitian-Norden metrics.

A triple of almost contact structures ``(phi_a, xi_a, eta_a)`` on a metric
Lie algebra, numbered ``a = 1, 2, 3`` with metric characters fixed to
``(+1, -1, -1)``: the first structure is metric-compatible in the
Hermitian way, the other two in the Norden (B-metric) way.  The triple
interacts through the quaternionic-like composition laws checked by
``validate_ac3``.  Appending one flat time-like direction produces an
almost hypercomplex frame with the matching Hermitian-Norden metric.

Validation lives here and runs once per manifold: ``validation_reports``
keeps the four validators' reports in the manifold's memo, and
``require_valid`` is the one gate that refuses an invalid manifold: when
a file is loaded (through ``adapt``), when the product extension is
built, and before every ``derived`` build.  ``move`` rewrites a manifold
in another frame.  ``adapt`` moves one to a frame where each phi_a is a
signed permutation and runs the validators there, on the moved manifold
only: every identity they check is a tensor equation and ``move`` is
exact, so the moved manifold is valid exactly when the input is.  An
invalid input meets the gate in its own frame, so its violations keep
its indices.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import wraps

from .errors import ShapeError, SingularMatrixError, ValidationError
from .linalg import Matrix, Vector, kernel
from .liealg import LieAlgebra, MetricLieAlgebra, validate_lie_algebra, validate_metric
from .rational import ONE, ZERO
from .reporting import Report
from .tensor import Tensor, postcompose, precompose

EPSILONS = (1, -1, -1)


def _position(alpha: int) -> int:
    if alpha not in (1, 2, 3):
        raise ValueError(f"structures are numbered 1, 2, 3, not {alpha!r}")
    return alpha - 1


def _product(a: int, b: int) -> tuple[int, int]:
    """For ``a != b``: the third number c and the sign e of ``phi_a phi_b = e phi_c + ..``."""
    # e is +1 on the cyclic order (1, 2), (2, 3), (3, 1) and -1 against it
    return 6 - a - b, 1 if (b - a) % 3 == 1 else -1


@dataclass(frozen=True)
class AlmostContactStructure:
    """One almost contact structure: endomorphism, Reeb vector, contact form."""

    phi: Matrix
    xi: Vector
    eta: Tensor

    def __post_init__(self):
        n = self.phi.rows
        if self.phi.cols != n or len(self.xi) != n:
            raise ShapeError("structure tensor dimensions disagree")
        if (self.eta.contra, self.eta.arity, self.eta.dim) != (0, 1, n):
            raise ShapeError("eta must be a one-form of matching dimension")

    @property
    def dim(self) -> int:
        return self.phi.rows


@dataclass(frozen=True, eq=False)
class HN3Manifold:
    """Metric Lie algebra carrying an almost contact 3-structure.

    The constructor enforces shapes; each slot fixes its structure's metric
    character (``EPSILONS``), and the ``validate_*`` functions check the
    identities under those characters, reporting every violated component.
    The manifold is immutable, so each object derived from it is computed
    once and kept in ``_memo`` for the manifold's lifetime (see ``derived``).
    ``frame`` records a change of frame: ``move(h, p)`` has frame ``p``, so
    a vector with components ``x`` in h has ``p x`` in it; None otherwise.
    """

    mla: MetricLieAlgebra
    structures: tuple[AlmostContactStructure, ...]
    frame: Matrix | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if len(self.structures) != 3:
            raise ValidationError("exactly three structures required")
        if any(s.dim != self.mla.dim for s in self.structures):
            raise ShapeError("structure dimensions disagree with the algebra")

    @property
    def dim(self) -> int:
        return self.mla.dim

    @property
    def metric(self) -> Matrix:
        return self.mla.metric

    def structure(self, alpha: int) -> AlmostContactStructure:
        return self.structures[_position(alpha)]

    def phi(self, alpha: int) -> Matrix:
        return self.structure(alpha).phi

    def xi(self, alpha: int) -> Vector:
        return self.structure(alpha).xi

    def eta(self, alpha: int) -> Tensor:
        return self.structure(alpha).eta

    def eps(self, alpha: int) -> int:
        return EPSILONS[_position(alpha)]


def derived(build: Callable) -> Callable:
    """Make ``build(h, *args)`` run once per manifold and argument values.

    The result lives in the manifold's memo, freed with it, under ``(build,
    *args)``.  Structure numbers and arrays compare and hash by value, so
    equal arguments share one entry; a call that raises keeps nothing.  A
    miss first passes ``require_valid``, so nothing is built on an invalid
    manifold.  A build reads a structure number through
    ``HN3Manifold.structure``, which refuses numbers outside 1, 2, 3.  A hit
    is one lookup.
    """

    @wraps(build)
    def memoized(h: HN3Manifold, *args):
        key = (build, *args)
        value = h._memo.get(key, key)  # no build returns its own key, so it marks a miss
        if value is key:
            require_valid(h)
            value = h._memo[key] = build(h, *args)
        return value

    return memoized


def validate_ac3(h: HN3Manifold) -> Report:
    """Composition laws of the structure triple, all pairs, all components.

    Checked for every ordered pair (a, b), with ``c, e = _product(a, b)``:
    ``phi_a phi_b = -delta_ab I + xi_a (x) eta_b + e phi_c``,
    ``phi_a xi_b = e xi_c``, ``eta_a . phi_b = e eta_c``,
    ``eta_a(xi_b) = delta_ab``.
    """
    report = Report("almost contact 3-structure")
    n = h.dim
    if n % 4 != 3:
        report.warnings.append(
            f"dimension {n} is not of the form 4m+3; the frame cannot split into "
            "three contact distributions of equal rank"
        )
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            c, e = _product(a, b) if a != b else (0, 0)
            rhs = Matrix.outer(h.xi(a), h.eta(b))
            if a == b:
                rhs = rhs - Matrix.identity(n)
            else:
                rhs = rhs + h.phi(c) * e
            report.require_equal(
                f"phi{a}.phi{b} composition", (a, b), h.phi(a) @ h.phi(b), rhs
            )
            report.require_equal(
                f"phi{a}.xi{b}", (a, b), h.phi(a).apply(h.xi(b)),
                h.xi(c) * e if a != b else Vector.zero(n),
            )
            eta_phi = h.phi(b).transpose().apply(h.eta(a))
            report.require_equal(
                f"eta{a}.phi{b}", (a, b), eta_phi,
                h.eta(c) * e if a != b else Vector.zero(n),
            )
            pairing = sum((x * h.xi(b)[m] for (m,), x in h.eta(a).nonzero()), ZERO)
            report.require(
                f"eta{a}(xi{b})", (a, b), pairing, ONE if a == b else ZERO
            )
    return report


def validate_hn_metric(h: HN3Manifold) -> Report:
    """Metric compatibility of Hermitian-Norden type for each structure.

    ``g(phi_a x, phi_a y) = eps_a g(x, y) + eta_a(x) eta_a(y)`` together
    with its consequences ``eta_a = -eps_a (xi_a . g)`` and
    ``g(xi_a, xi_a) = -eps_a``.
    """
    report = Report("Hermitian-Norden metric compatibility")
    g = h.metric
    for a in (1, 2, 3):
        phi, xi, eta, eps = h.phi(a), h.xi(a), h.eta(a), h.eps(a)
        eta_eta = Matrix.outer(eta, eta)
        report.require_equal(
            f"g(phi{a}.,phi{a}.) compatibility", (a,),
            phi.transpose() @ g @ phi, g * eps + eta_eta,
        )
        gxi = g.apply(xi)
        report.require_equal(f"eta{a} duality", (a,), eta, gxi * -eps)
        norm = sum((x * gxi[i] for (i,), x in xi.nonzero()), ZERO)
        report.require(f"xi{a} square norm", (a,), norm, -eps)
    if g.is_symmetric():
        report.findings["metric_signature"] = "({},{},{})".format(*h.mla.metric_signature)
    return report


def validation_reports(h: HN3Manifold) -> tuple[Report, ...]:
    """The four validators' reports in checking order; memoized, but not gated like ``derived``."""
    key = (validation_reports,)
    reports = h._memo.get(key)
    if reports is None:
        reports = h._memo[key] = (
            validate_lie_algebra(h.mla.algebra),
            validate_metric(h.mla),
            validate_ac3(h),
            validate_hn_metric(h),
        )
    return reports


def require_valid(h: HN3Manifold) -> None:
    """Raise ``ValidationError`` naming the first violation of the first failed validator."""
    for report in validation_reports(h):
        if not report.passed:
            first = report.violations[0].render()
            raise ValidationError(
                f"{report.check}: {first} "
                f"({len(report.violations)} violations in total)"
            )


def move(h: HN3Manifold, p: Matrix) -> HN3Manifold:
    """``h`` in the frame where a vector with components ``x`` has ``p x``; its frame is ``p``.

    Every piece transforms as a tensor, with ``q = p^-1``: the bracket
    ``p [q x, q y]``, the metric ``q^T g q``, ``p phi_a q``, ``p xi_a`` and
    ``eta_a q``.
    """
    q = p.inverse()
    bracket = postcompose(precompose(precompose(h.mla.algebra.bracket, q, 0), q, 1), p)
    structures = tuple(
        AlmostContactStructure(p @ s.phi @ q, p.apply(s.xi), precompose(s.eta, q, 0))
        for s in h.structures
    )
    mla = MetricLieAlgebra(LieAlgebra(h.dim, bracket), q.transpose() @ h.metric @ q)
    return HN3Manifold(mla, structures, p)


def _is_signed_permutation(m: Matrix) -> bool:
    """At most one nonzero in each row and each column, and each of them is 1 or -1."""
    entries = list(m.nonzero())
    rows, cols = {i for (i, _), _ in entries}, {j for (_, j), _ in entries}
    return len(rows) == len(cols) == len(entries) and all(abs(x) == 1 for _, x in entries)


def _from_columns(vectors: list[Vector]) -> Matrix:
    return Matrix.from_dict(
        (len(vectors[0]), len(vectors)),
        {(i, c): x for c, v in enumerate(vectors) for (i,), x in v.nonzero()},
    )


def _block_vector(h: HN3Manifold, basis: list[Vector]) -> Vector | None:
    """The first of ``basis`` and its pairwise sums that spans a block, diagonal if one does.

    None when every candidate has ``(p, s, t) = 0``, which only an invalid h allows.
    """
    b = _from_columns(basis)
    gb = (h.metric @ b).transpose()
    # g(b_i, b_j), g(b_i, phi_2 b_j) and g(b_i, phi_3 b_j)
    grams = (gb @ b, gb @ (h.phi(2) @ b), gb @ (h.phi(3) @ b))
    k = len(basis)
    pairs = [(i, i) for i in range(k)] + [(i, j) for i in range(k) for j in range(i + 1, k)]
    # (p, s, t) of v = b_i + b_j, or of b_i alone when i = j
    pst = [
        [m[i, i] if i == j else m[i, i] + m[i, j] + m[j, i] + m[j, j] for m in grams]
        for i, j in pairs
    ]
    pick = next((c for c, (p, s, t) in enumerate(pst) if p and not s and not t), None)
    if pick is None:
        pick = next((c for c, v in enumerate(pst) if any(v)), None)
    if pick is None:
        return None
    i, j = pairs[pick]
    return basis[i] if i == j else basis[i] + basis[j]


def _adapted_frame(h: HN3Manifold) -> Matrix | None:
    """The matrix that moves h to an adapted frame, or None where the search cannot finish.

    Each pass draws v from a kernel basis of ``3 + 4k`` forms in ``n > 3 +
    4k`` dimensions, never empty.  A valid h finishes (see ``adapt``); an
    invalid one may not: n is not 4m+3, no candidate spans a block, or the
    vectors found are dependent.
    """
    n = h.dim
    if n % 4 != 3:
        return None
    forms: list = [h.eta(a) for a in (1, 2, 3)]
    columns: list[Vector] = []
    while len(columns) < n - 3:
        v = _block_vector(h, kernel(forms, n))
        if v is None:
            return None
        block = [v, *(h.phi(a).apply(v) for a in (1, 2, 3))]
        columns += block
        forms += [h.metric.apply(w) for w in block]
    columns += [h.xi(a) for a in (1, 2, 3)]
    try:
        return _from_columns(columns).inverse()
    except SingularMatrixError:
        return None


def adapt(h: HN3Manifold) -> HN3Manifold:
    """``h`` validated, and moved to a frame where each phi_a is a signed permutation.

    Raises ``ValidationError`` for an invalid h.  The frame is blocks ``(v,
    phi_1 v, phi_2 v, phi_3 v)`` spanning ``H = ker eta_1 ∩ ker eta_2 ∩ ker
    eta_3 = xi^⊥``, then ``xi_1, xi_2, xi_3``, so the metric is block
    diagonal.  On H the phi_a multiply like the quaternion units, phi_1 is
    g-skew and phi_2, phi_3 are g-symmetric.  So with ``p = g(v, v)``, ``s
    = g(v, phi_2 v)`` and ``t = g(v, phi_3 v)`` a block's Gram matrix is
    ``[[p, 0, s, t], [0, p, -t, s], [s, -t, -p, 0], [t, s, 0, -p]]``, with
    determinant ``(p^2 + s^2 + t^2)^2``.  Each v is drawn from a kernel
    basis of the eta_a and of ``g(w, .)`` for the block vectors w found so
    far, which spans the g-complement C of those blocks in H, and then from
    the basis's pairwise sums: the first with s = t = 0 != p gives a
    diagonal block, else the first with (p, s, t) != 0 a nondegenerate one.
    The search ends for a valid h: g is nondegenerate on H (it is ``diag(-1,
    1, 1)`` on the xi_a), the blocks are phi-invariant and nondegenerate, so
    C is phi-invariant and g is nondegenerate on it; and if g(v, v) were 0
    for each basis vector and each pairwise sum, then ``2 g(b_i, b_j) =
    g(b_i + b_j, b_i + b_j) - g(b_i, b_i) - g(b_j, b_j)`` would make g
    vanish on C.  So each pass adds a block, until the blocks span H.

    Validation runs once, on the moved manifold, whose memo keeps the
    reports.  That is exact: every identity the validators check is a
    tensor equation, and ``move`` rewrites each piece as a tensor with
    exact rationals, so the moved manifold is valid exactly when h is.  Its
    violations would name the new frame's components, so where the search
    cannot finish or the moved manifold fails, h is validated in its own
    frame instead, and the error names h's components; a valid h never gets
    there.  An h whose phi_a are signed permutations already is validated
    as it is and comes back itself, so ``adapt(adapt(h)) is adapt(h)``.
    """
    if not all(_is_signed_permutation(h.phi(a)) for a in (1, 2, 3)):
        p = _adapted_frame(h)
        if p is not None:
            moved = move(h, p)
            if all(report.passed for report in validation_reports(moved)):
                return moved
    require_valid(h)
    return h


@dataclass(frozen=True, eq=False)
class ProductExtension:
    """The algebra extended by one flat central time-like direction.

    The new frame vector sits LAST (index dim+1); each structure becomes
    an almost complex operator ``J_a`` mixing its Reeb direction with the
    new one, and the extended metric is the original one with a ``-1``
    block appended.
    """

    mla: MetricLieAlgebra
    j_ops: tuple[Matrix, Matrix, Matrix]

    @property
    def dim(self) -> int:
        return self.mla.dim

    def j(self, alpha: int) -> Matrix:
        """``J_alpha``; raises ``ValueError`` outside 1, 2, 3."""
        return self.j_ops[_position(alpha)]

    @property
    def metric_signature(self) -> tuple[int, int, int]:
        return self.mla.metric_signature


def build_product(h: HN3Manifold) -> ProductExtension:
    """Extend by the flat direction; refuses an invalid base."""
    require_valid(h)
    n = h.dim
    ext_g = Matrix.from_dict((n + 1, n + 1), {**dict(h.metric.nonzero()), (n, n): -ONE})
    ext_bracket = Tensor.from_dict(1, 2, n + 1, dict(h.mla.algebra.bracket.nonzero()))
    ext_mla = MetricLieAlgebra(LieAlgebra(n + 1, ext_bracket), ext_g)
    js = []
    for a in (1, 2, 3):
        # phi_a, with -xi_a in the new last column and eta_a in the new last row
        comps = dict(h.phi(a).nonzero())
        comps.update({(i, n): -x for (i,), x in h.xi(a).nonzero()})
        comps.update({(n, i): x for (i,), x in h.eta(a).nonzero()})
        js.append(Matrix.from_dict((n + 1, n + 1), comps))
    return ProductExtension(ext_mla, tuple(js))


def validate_hypercomplex_hn(p: ProductExtension) -> Report:
    """Almost hypercomplex frame checks on the extension.

    ``J_a^2 = -I``, the quaternionic products ``J_a J_b = e J_c`` for
    ``a != b``, and metric compatibility ``G(J_a X, J_a Y) = eps_a G(X, Y)``
    (Hermitian for a = 1, Norden for a = 2, 3).
    """
    report = Report("hypercomplex Hermitian-Norden extension")
    g = p.mla.metric
    minus_id = -Matrix.identity(p.dim)
    for a in (1, 2, 3):
        j = p.j(a)
        report.require_equal(f"J{a} squares to -I", (a,), j @ j, minus_id)
        report.require_equal(
            f"G(J{a}.,J{a}.) compatibility", (a,),
            j.transpose() @ g @ j, g * EPSILONS[a - 1],
        )
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if a == b:
                continue
            c, e = _product(a, b)
            report.require_equal(
                f"J{a}J{b} = {'+' if e > 0 else '-'}J{c}", (a, b),
                p.j(a) @ p.j(b), p.j(c) * e,
            )
    report.findings["extension_signature"] = "({},{},{})".format(*p.metric_signature)
    return report
