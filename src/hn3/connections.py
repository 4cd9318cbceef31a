"""Natural connections with totally skew-symmetric torsion.

A connection D is natural for a structure when it annihilates phi, xi,
eta and the metric.  One with 3-form torsion exists only inside a class
of structures cut out by one first order condition on the fundamental
tensor:

* first structure: the four-term reflection identity
  ``F(phi x, y, z) + F(phi y, x, z) + F(x, y, phi z) + F(y, x, phi z) = 0``;
* second and third structures: vanishing cyclic sum of F together with a
  Killing Reeb vector.

Inside the class the torsion has a closed form in F, and
``D = LC + torsion/2`` after raising the last slot.  For the first
structure the 3-form torsion pins D down uniquely; for the second and
third it does not: other 3-forms give natural connections too (on the
built-in example ``D_1`` is natural for all three structures).  The
coincidence check compares the three closed-form connections, which is
exactly the componentwise equality of the three torsion forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExistenceError, SymmetryError, ValidationError
from .liealg import Connection, connection_torsion, covariant_derivative, \
    covariant_derivative_vector
from .linalg import Matrix
from .nijenhuis import (
    exterior_d_eta,
    fundamental_tensor,
    metric_lie_derivative,
    nijenhuis_tensor,
)
from .rational import HALF, MINUS_HALF
from .reporting import Report, Violation
from .structures import HN3Manifold, derived, require_valid
from .tensor import (
    Tensor,
    contract_arg_with_vector,
    cyclic_sum,
    is_three_form,
    lower,
    permute_args,
    precompose,
    raise_last,
    tensor_from_operator,
    tensor_product,
    wedge_1_2,
)


def class_condition_alpha1(h: HN3Manifold, fund: Tensor | None = None) -> bool:
    """Whether the first structure admits a natural connection with 3-form torsion.

    ``fund`` defaults to the memoized F_1; the verdict is kept per tensor value.
    """
    return _reflection_defect(h, fundamental_tensor(h, 1) if fund is None else fund).is_zero()


def class_condition_alpha23(h: HN3Manifold, alpha: int, fund: Tensor | None = None) -> bool:
    """Same admissibility for the Norden-type structures: cyclic-free F, Killing Reeb.

    ``fund`` defaults to the memoized F_alpha; the cyclic-sum verdict is kept per tensor value.
    """
    if alpha not in (2, 3):
        raise ValueError("this condition applies to the second and third structures")
    f = fundamental_tensor(h, alpha) if fund is None else fund
    return cyclic_sum_vanishes(h, f) and metric_lie_derivative(h, alpha).is_zero()


@derived
def _phi1_composed(h: HN3Manifold, fund: Tensor) -> tuple[Tensor, Tensor]:
    """``F(phi x, y, z)`` and ``F(x, y, phi z)`` for the first phi: the class and T_1 share them."""
    phi = h.phi(1)
    return precompose(fund, phi, 0), precompose(fund, phi, 2)


@derived
def _reflection_defect(h: HN3Manifold, fund: Tensor) -> Tensor:
    """The left side of the reflection identity, zero exactly inside the first class."""
    a, b = _phi1_composed(h, fund)
    return a + permute_args(a, (1, 0, 2)) + b + permute_args(b, (1, 0, 2))


@derived
def cyclic_sum_vanishes(h: HN3Manifold, fund: Tensor) -> bool:
    """Whether the cyclic sum of a (0,3) tensor vanishes, decided once per manifold and value."""
    return cyclic_sum(fund).is_zero()


def in_skew_torsion_class(h: HN3Manifold, alpha: int) -> bool:
    """The class condition of one structure, read from the memoized verdicts."""
    h.structure(alpha)  # refuses numbers outside 1, 2, 3
    return class_condition_alpha1(h) if alpha == 1 else class_condition_alpha23(h, alpha)


def torsion_alpha1_via_forms(h: HN3Manifold) -> Tensor:
    """The same torsion assembled from exterior objects.

    ``-eta ^ d eta + d^phi Phi + N - eta ^ (xi -| N)`` with
    ``Phi(x, y) = g(x, phi y)``, ``d Phi = -cyclic_sum(F)`` and
    ``d^phi Phi (x,y,z) = -d Phi (phi x, phi y, phi z)``.  Only meaningful
    where the class condition holds; outside it the interior product of N
    is not antisymmetric and the assembly refuses.
    """
    eta, phi, xi = h.eta(1), h.phi(1), h.xi(1)
    deta = exterior_d_eta(h, 1)
    n_form = nijenhuis_tensor(h, 1)[1]
    dphi_big = -cyclic_sum(fundamental_tensor(h, 1))
    d_phi_phi = -precompose(
        precompose(precompose(dphi_big, phi, 0), phi, 1), phi, 2
    )
    return (
        -wedge_1_2(eta, deta)
        + d_phi_phi
        + n_form
        - wedge_1_2(eta, contract_arg_with_vector(n_form, xi, 0))
    )


def structure_torsion(h: HN3Manifold, alpha: int) -> Tensor:
    """Torsion 3-form of the natural connection of one structure, computed once per manifold.

    First structure: ``T(x,y,z) = F(x,y,phi z) - F(y,x,phi z) - F(phi z,x,y)
    + 2 F(x,phi y,xi) eta(z)``.  Norden-type structures 2 and 3:
    ``T = -1/2 cyclic_sum( F(x,y,phi z) - 3 eta(x) F(y,phi z,xi) )``.
    Raises unless the class condition holds, naming a witness: the failing
    identity (the reflection identity; else the cyclic sum of F_alpha, or
    L_xi g where that sum vanishes), its count of nonzero components and the
    first of them in row-major order.
    """
    if in_skew_torsion_class(h, alpha):
        return _torsion(h, alpha)
    if alpha == 1:
        which, why = "the first structure", "reflection identity"
        name, defect = "the reflection identity", _reflection_defect(h, fundamental_tensor(h, 1))
    else:
        which, why = f"structure {alpha}", "cyclic or Killing condition"
        name, defect = f"the cyclic sum of F_{alpha}", cyclic_sum(fundamental_tensor(h, alpha))
        if defect.is_zero():
            name, defect = f"L_xi g of structure {alpha}", metric_lie_derivative(h, alpha)
    entries = defect.entries_1based()
    idx, value = entries[0]
    raise ExistenceError(
        f"{which} does not admit a natural connection with totally "
        f"skew-symmetric torsion ({why} fails); witness: {name} is nonzero at "
        f"{len(entries)} of {h.dim ** defect.nslots} components, first at {idx} = {value}"
    )


@derived
def _torsion(h: HN3Manifold, alpha: int) -> Tensor:
    """The raw torsion expression, a 3-form where the class condition holds."""
    f = fundamental_tensor(h, alpha)
    phi, xi, eta = h.phi(alpha), h.xi(alpha), h.eta(alpha)
    w = precompose(contract_arg_with_vector(f, xi, 2), phi, 1)  # F(x, phi y, xi)
    if alpha == 1:
        a, b = _phi1_composed(h, f)  # F(phi x, y, z), F(x, y, phi z)
        c = permute_args(a, (2, 0, 1))  # F(phi z, x, y)
        return b - permute_args(b, (1, 0, 2)) - c + tensor_product(w, eta) * 2
    b = precompose(f, phi, 2)  # F(x, y, phi z)
    return cyclic_sum(b - tensor_product(eta, w) * 3) * MINUS_HALF


@dataclass(frozen=True, eq=False)
class NaturalConnection:
    """A structure-preserving connection together with its 3-form torsion."""

    connection: Connection
    torsion: Tensor


def natural_connection(
    h: HN3Manifold, alpha: int, torsion: Tensor | None = None
) -> NaturalConnection:
    """Build ``D = LC + torsion/2`` and re-derive the torsion as a consistency check.

    ``torsion`` defaults to ``structure_torsion(h, alpha)``.  D does not depend on
    alpha, so it is built once per torsion value and equal torsions share it.
    """
    h.structure(alpha)  # refuses numbers outside 1, 2, 3
    t = structure_torsion(h, alpha) if torsion is None else torsion
    return _connection_with_torsion(h, t)


@derived
def _connection_with_torsion(h: HN3Manifold, t: Tensor) -> NaturalConnection:
    if not is_three_form(t):
        raise SymmetryError("torsion must be totally skew-symmetric")
    gamma = h.mla.levi_civita.gamma + raise_last(t, h.mla.metric_inverse) * HALF
    conn = Connection(gamma)
    recomputed = lower(connection_torsion(conn, h.mla.algebra), h.metric)
    if recomputed != t:
        idx = min(recomputed.differs_at(t))
        v = Violation("recomputed = T", tuple(i + 1 for i in idx), recomputed[idx], t[idx])
        raise ValidationError(f"torsion round-trip failed: {v.render()}")
    return NaturalConnection(conn, t)


def _metric_derivative(conn: Connection, g: Matrix) -> Tensor:
    """``(D_x g)(y, z) = -g(D_x y, z) - g(y, D_x z)`` for a symmetric g: one lowering of D."""
    low = lower(conn.gamma, g)  # g(D_x y, z)
    return -(low + permute_args(low, (0, 2, 1)))


def naturality_report(conn: Connection, h: HN3Manifold, alpha: int) -> Report:
    """Does the connection annihilate phi, xi, eta and g of one structure?  Refuses an invalid h."""
    require_valid(h)
    report = Report(f"naturality for structure {alpha}")
    dphi = covariant_derivative(conn, tensor_from_operator(h.phi(alpha)))
    dxi = covariant_derivative_vector(conn, h.xi(alpha))
    deta = covariant_derivative(conn, h.eta(alpha))
    dg = _metric_derivative(conn, h.metric)
    for name, t in (("D.phi", dphi), ("D.xi", dxi), ("D.eta", deta), ("D.g", dg)):
        for idx, value in t.nonzero():
            report.require(name, tuple(i + 1 for i in idx), value, 0)
    return report


@dataclass(frozen=True, eq=False)
class Coincidence:
    """Outcome of comparing the three structure-wise natural connections."""

    torsions_equal: dict[tuple[int, int], bool]
    connections_equal: dict[tuple[int, int], bool]

    @property
    def routes_agree(self) -> bool:
        return self.torsions_equal == self.connections_equal

    @property
    def common_exists(self) -> bool:
        return all(self.torsions_equal.values())

    def summary(self) -> str:
        def word(pair):
            return "=" if self.torsions_equal[pair] else "!="

        chain = f"D1 {word((1, 2))} D2, D1 {word((1, 3))} D3, D2 {word((2, 3))} D3"
        if self.common_exists:
            return (
                f"{chain}; the three torsion forms coincide, so one natural "
                "connection with totally skew-symmetric torsion preserves the "
                "whole 3-structure"
            )
        return (
            f"{chain}; the torsion forms do not all coincide, so no unique "
            "natural connection with totally skew-symmetric torsion preserves "
            "the whole 3-structure"
        )


def coincidence_check(h: HN3Manifold) -> Coincidence:
    """Compare the three natural connections by two independent routes.

    Route one compares the closed-form torsion expressions componentwise;
    route two compares the coefficient tensors of the built connections.
    The two verdicts agree identically since the metric is fixed; both are
    exposed, and both reuse the torsions and connections of the manifold.
    The class conditions gate it.  They hold exactly when the associated
    Nijenhuis tensor N̂_a vanishes for a = 2, 3, and for a = 1 exactly when
    N̂_1 vanishes and xi_1 is Killing; N̂_1 = 0 alone does not suffice.
    """
    missing = [a for a in (1, 2, 3) if not in_skew_torsion_class(h, a)]
    if missing:
        raise ExistenceError(
            f"structures {missing} fail their class condition; "
            "per-structure natural connections do not all exist"
        )
    torsions = {a: _torsion(h, a) for a in (1, 2, 3)}
    conns = {a: natural_connection(h, a, torsions[a]) for a in (1, 2, 3)}
    pairs = ((1, 2), (1, 3), (2, 3))
    torsions_equal = {(a, b): torsions[a] == torsions[b] for a, b in pairs}
    connections_equal = {
        (a, b): conns[a].connection.gamma == conns[b].connection.gamma for a, b in pairs
    }
    return Coincidence(torsions_equal, connections_equal)
