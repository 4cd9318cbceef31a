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
a file is loaded, when the product extension is built, and before every
``derived`` build.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import wraps

from .errors import ShapeError, ValidationError
from .linalg import Matrix, Vector
from .liealg import LieAlgebra, MetricLieAlgebra, validate_lie_algebra, validate_metric
from .rational import ONE, ZERO
from .reporting import Report
from .tensor import Tensor

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
    """

    mla: MetricLieAlgebra
    structures: tuple[AlmostContactStructure, ...]
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
