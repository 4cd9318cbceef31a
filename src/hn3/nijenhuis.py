"""The Nijenhuis tensor zoo of an almost contact structure.

For each structure the module computes the fundamental (0,3) tensor, the
Nijenhuis tensor built from Lie brackets, its associated sibling built
from the symmetric braces, and the four associated components that govern
the product extension.  Each Nijenhuis-type tensor is one pairing
``P(a, b)(x, y) = (D_{a x} b) y - a((D_x b) y)`` (``_pairing``) taken on
the Levi-Civita coefficients or on the extension's braces.  Alongside the
definitional routes it carries the closed-form expansions in terms of the
fundamental tensor; the two kinds of route are algebraically equal, which
the test suite exploits as a cross-check of every contraction in sight.

Slot conventions are those of ``hn3.tensor``; the structure index
``alpha`` is 1-based everywhere.  Functions marked ``@derived`` run once
per manifold and structure, and only on a valid manifold, whose bracket
is antisymmetric: ``D_x y - D_y x = [x, y]`` for the Levi-Civita D.
"""

from __future__ import annotations

from .errors import ShapeError
from .linalg import Matrix
from .liealg import (
    Connection,
    covariant_derivative,
    covariant_derivative_vector,
    lie_derivative_covector,
    lie_derivative_metric,
)
from .rational import HALF, MINUS_HALF, QUARTER
from .reporting import Report
from .structures import HN3Manifold, ProductExtension, derived
from .tensor import (
    Tensor,
    contract_arg_with_vector,
    lower,
    operator_from_tensor,
    permute_args,
    postcompose,
    precompose,
    swap_args,
    tensor_from_operator,
    tensor_product,
    times_vector,
)


def _derivative(gamma: Tensor, b: Matrix) -> Tensor:
    """``(D_x b) y`` for the connection with coefficients gamma, direction slot first."""
    return covariant_derivative(Connection(gamma), tensor_from_operator(b))


def _pairing(d_b: Tensor, a: Matrix) -> Tensor:
    """``P(a, b)(x, y) = (D_{a x} b) y - a((D_x b) y)`` from ``d_b = D b``.

    For coefficients G, ``P(a, a) = G(a., a.) + a^2 G - a (G(a., .) + G(., a.))``.
    """
    return precompose(d_b, a, 0) - postcompose(d_b, a)


@derived
def _phi_derivative(h: HN3Manifold, alpha: int) -> Tensor:
    """``(D_x phi) y`` for the Levi-Civita D, direction slot first."""
    return _derivative(h.mla.levi_civita.gamma, h.phi(alpha))


@derived
def fundamental_tensor(h: HN3Manifold, alpha: int) -> Tensor:
    """(0,3) tensor ``F(x, y, z) = g((D_x phi) y, z)`` for the Levi-Civita D."""
    return lower(_phi_derivative(h, alpha), h.metric)


def check_fundamental_properties(fund: Tensor, h: HN3Manifold, alpha: int) -> Report:
    """Check the structural symmetries a fundamental tensor must carry.

    Two identities for every structure: the last two arguments are related
    by the sign ``-eps``, and composing them with ``phi`` reflects the
    tensor up to Reeb boundary terms.  For the first structure their
    phi-composed consequence is checked as well.  Diagnostic: violations
    are recorded per component, nothing is raised.
    """
    if (fund.contra, fund.arity) != (0, 3) or fund.dim != h.dim:
        raise ShapeError(f"expected a (0,3) tensor of dimension {h.dim}")
    phi, xi, eta, eps = h.phi(alpha), h.xi(alpha), h.eta(alpha), h.eps(alpha)
    report = Report(check=f"fundamental tensor properties, structure {alpha}")

    flip = permute_args(fund, (0, 2, 1)) * (-eps)
    u = tensor_product(contract_arg_with_vector(fund, xi, 1), eta)
    refl = precompose(precompose(fund, phi, 1), phi, 2) * (-eps)
    refl = refl + swap_args(u, 1, 2)
    refl = refl + tensor_product(contract_arg_with_vector(fund, xi, 2), eta)
    report.require_equal(
        (
            "F(x,y,z) = -eps F(x,z,y)",
            "F(x,y,z) = -eps F(x,phi y,phi z) + F(x,xi,z) eta(y) + F(x,y,xi) eta(z)",
        ),
        (), fund, (flip, refl),
    )

    if alpha == 1:
        lhs = precompose(fund, phi, 2)
        w = tensor_product(
            precompose(contract_arg_with_vector(fund, xi, 1), phi, 1), eta
        )
        rhs = precompose(fund, phi, 1) + w + swap_args(w, 1, 2)
        report.require_equal(
            "F(x,y,phi z) = F(x,phi y,z) + F(x,xi,phi y) eta(z) + F(x,xi,phi z) eta(y)",
            (), lhs, rhs,
        )
    return report


@derived
def metric_lie_derivative(h: HN3Manifold, alpha: int) -> Tensor:
    """Lie derivative of the metric along the structure's Reeb vector."""
    return lie_derivative_metric(h.mla, h.xi(alpha))


def reeb_lie_derivative_eta(h: HN3Manifold, alpha: int) -> Tensor:
    """Lie derivative of the contact form along its own Reeb vector."""
    return lie_derivative_covector(h.mla.algebra, h.xi(alpha), h.eta(alpha))


@derived
def exterior_d_eta(h: HN3Manifold, alpha: int) -> Tensor:
    """``d eta (x, y) = (D_x eta)(y) - (D_y eta)(x)``, no 1/2 in front."""
    eta = h.eta(alpha)
    de = covariant_derivative(h.mla.levi_civita, eta)
    return de - permute_args(de, (1, 0))


@derived
def _phi_pairing(h: HN3Manifold, alpha: int) -> Tensor:
    """``A = P(phi, phi)`` on the Levi-Civita ``D phi``.

    ``A(x, y) = (D_{phi x} phi) y - phi((D_x phi) y)``.  The pairing is
    linear in the coefficients G of D and swaps its arguments with G's, so
    on the braces ``G + G^T`` it is ``A + A^T``, and on the brackets
    ``G - G^T`` it is ``A - A^T``: both Nijenhuis tensors come from A.
    """
    return _pairing(_phi_derivative(h, alpha), h.phi(alpha))


@derived
def nijenhuis_tensor(h: HN3Manifold, alpha: int) -> tuple[Tensor, Tensor]:
    """Nijenhuis tensor ``[phi, phi] + xi (x) d eta`` as a (1,2) and its (0,3) form."""
    pairing, deta = _phi_pairing(h, alpha), exterior_d_eta(h, alpha)
    vec = pairing - swap_args(pairing, 0, 1) + times_vector(deta, h.xi(alpha))
    return vec, lower(vec, h.metric)


def phi_braces(h: HN3Manifold, alpha: int) -> Tensor:
    """Symmetric analogue of ``[phi, phi]`` built on the braces pairing: ``A + A^T``."""
    pairing = _phi_pairing(h, alpha)
    return pairing + swap_args(pairing, 0, 1)


@derived
def associated_nijenhuis(h: HN3Manifold, alpha: int) -> tuple[Tensor, Tensor]:
    """Associated Nijenhuis tensor ``{phi, phi} - eps xi (x) L_xi g`` and its (0,3) form."""
    lg, eps = metric_lie_derivative(h, alpha), h.eps(alpha)
    vec = phi_braces(h, alpha) - times_vector(lg, h.xi(alpha)) * eps
    return vec, lower(vec, h.metric)


def hat_components(h: HN3Manifold, alpha: int) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """The four associated components governing the product extension.

    Returns ``(hat1, hat2, hat3, hat4)``: a (1,2) tensor, a (0,2) tensor,
    a (1,1) tensor and a one-form.  The first is the associated Nijenhuis
    tensor itself; the rest mix the braces defect of ``phi`` with the
    Killing defect of the Reeb vector.
    """
    phi, xi, eta, eps = h.phi(alpha), h.xi(alpha), h.eta(alpha), h.eps(alpha)
    lg = metric_lie_derivative(h, alpha)
    leta = reeb_lie_derivative_eta(h, alpha)

    hat1 = associated_nijenhuis(h, alpha)[0]
    pb = phi_braces(h, alpha)  # {phi, phi} = A + A^T, on the memoized pairing A
    hat2 = (precompose(lg, phi, 0) + precompose(lg, phi, 1)) * (-eps)

    # hat3(x) = {phi,phi}(phi x, xi) + (L_xi eta)(phi x) xi + 2 eta(x) phi(D_xi xi)
    w = contract_arg_with_vector(precompose(pb, phi, 0), xi, 1)
    t2 = times_vector(precompose(leta, phi, 0), xi)
    dxi = covariant_derivative_vector(h.mla.levi_civita, xi)
    nabla_xi_xi = operator_from_tensor(dxi).apply(xi)
    t3 = times_vector(eta, phi.apply(nabla_xi_xi)) * 2
    hat3 = w + t2 + t3

    hat4 = -leta
    return hat1, hat2, hat3, hat4


# ---------------------------------------------------------------------------
# Closed-form expansions in terms of the fundamental tensor.  Each one is an
# independent computation path for a tensor defined elsewhere by brackets or
# braces; the pairs must agree on every valid input.

def _fund_pieces(h: HN3Manifold, alpha: int, fund: Tensor):
    phi, xi, eta = h.phi(alpha), h.xi(alpha), h.eta(alpha)
    a = precompose(fund, phi, 0)  # F(phi x, y, z)
    b = precompose(fund, phi, 2)  # F(x, y, phi z)
    w = contract_arg_with_vector(precompose(fund, phi, 1), xi, 2)  # F(x, phi y, xi)
    return a, b, w, eta


def nijenhuis_form_via_fundamental(h: HN3Manifold, fund: Tensor) -> Tensor:
    """(0,3) Nijenhuis tensor of the first structure from its fundamental tensor."""
    a, b, w, eta = _fund_pieces(h, 1, fund)
    half = a + b + tensor_product(w, eta)
    return half - permute_args(half, (1, 0, 2))


def associated_form_via_fundamental(h: HN3Manifold, fund: Tensor) -> Tensor:
    """(0,3) associated Nijenhuis tensor of the first structure, same pieces, all plus."""
    a, b, w, eta = _fund_pieces(h, 1, fund)
    half = a + b + tensor_product(w, eta)
    return half + permute_args(half, (1, 0, 2))


def metric_lie_derivative_via_fundamental(h: HN3Manifold, fund: Tensor) -> Tensor:
    """Killing defect of the first Reeb vector: symmetrized ``F(x, phi y, xi)``."""
    _, _, w, _ = _fund_pieces(h, 1, fund)
    return w + permute_args(w, (1, 0))


def associated_form_via_fundamental2(h: HN3Manifold, fund: Tensor) -> Tensor:
    """(0,3) associated Nijenhuis tensor of the second structure (Norden signs)."""
    a, b, w, eta = _fund_pieces(h, 2, fund)
    half = a - b + tensor_product(w, eta)
    return half + permute_args(half, (1, 0, 2))


def fundamental2_via_nijenhuis(
    h: HN3Manifold, nij_form: Tensor, assoc_form: Tensor
) -> Tensor:
    """Fundamental tensor of the second structure from its two Nijenhuis forms."""
    phi, xi, eta = h.phi(2), h.xi(2), h.eta(2)
    s = nij_form + assoc_form
    sa = precompose(s, phi, 0)  # S(phi x, y, z)
    part1 = (sa + permute_args(sa, (0, 2, 1))) * (-QUARTER)
    u = contract_arg_with_vector(precompose(s, phi, 2), xi, 0)  # S(xi, y, phi z)
    q = contract_arg_with_vector(
        contract_arg_with_vector(precompose(assoc_form, phi, 2), xi, 0), xi, 0
    )  # Nhat(xi, xi, phi y)
    part2 = tensor_product(eta, u + tensor_product(q, eta)) * HALF
    return part1 + part2


def metric_lie_derivative_via_associated2(h: HN3Manifold, assoc_form: Tensor) -> Tensor:
    """Killing defect of the second Reeb vector from the associated (0,3) tensor."""
    phi, xi, eta = h.phi(2), h.xi(2), h.eta(2)
    a = contract_arg_with_vector(
        precompose(precompose(assoc_form, phi, 0), phi, 1), xi, 2
    )  # Nhat(phi x, phi y, xi)
    b = contract_arg_with_vector(
        precompose(precompose(assoc_form, phi, 1), phi, 2), xi, 0
    )  # Nhat(xi, phi x, phi y)
    r = contract_arg_with_vector(contract_arg_with_vector(assoc_form, xi, 0), xi, 0)
    d = tensor_product(eta, r)  # eta(x) Nhat(xi, xi, y)
    return (
        a + b + permute_args(b, (1, 0)) + d + permute_args(d, (1, 0))
    ) * MINUS_HALF


# ---------------------------------------------------------------------------
# Product extension.

def braces_nijenhuis_product(p: ProductExtension, alpha: int, beta: int) -> Tensor:
    """``{J_alpha, J_beta}`` is ``P(Ja, Jb)`` on the braces, symmetrized when alpha != beta."""
    ja, jb = p.j(alpha), p.j(beta)
    d_a = _derivative(p.mla.braces, ja)
    if alpha == beta:
        return _pairing(d_a, ja)
    return (_pairing(_derivative(p.mla.braces, jb), ja) + _pairing(d_a, jb)) * HALF
