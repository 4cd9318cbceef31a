"""Shared fixtures: the built-in family plus hand-picked bracket variants.

Structure validity never constrains the brackets, so the standard frame
(same metric, same three structures) combined with different Lie algebra
structure constants yields genuinely different geometries:

- ``solvable``: each Reeb direction acts diagonally on one of e1..e3, so
  no Reeb vector is Killing and the associated Nijenhuis tensors are
  nonzero.  Exercises every code path that the built-in family leaves
  trivially satisfied.
- ``central_image``: brackets of e1..e4 land in span(e5, e6, e7), which
  keeps the Reebs Killing (Jacobi holds trivially) while still producing
  nonzero fundamental tensors.
- ``discriminator``: a single bracket [e6, e1] = e6 making D_{xi_2}xi_2
  nonzero; separates formula readings that agree whenever the Reeb flows
  are geodesic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest

from hn3 import (
    braces_nijenhuis_product,
    build_product,
    builtin_example,
    flat_example,
    hat_components,
    validate_lie_algebra,
)
from hn3.builtin import DIM, standard_metric, standard_structures
from hn3.liealg import LieAlgebra, MetricLieAlgebra
from hn3.structures import HN3Manifold
from hn3.tensor import Tensor
from oracle import build

# The parameter family used wherever a test wants "several" inputs.
# Every built-in component is a degree <= 1 polynomial in the parameter,
# so six values spanning signs and non-integers are already generous.
LAMBDAS = [
    Fraction(1), Fraction(-1), Fraction(2),
    Fraction(-3), Fraction(5, 2), Fraction(-7, 3),
]

SOLVABLE_BRACKETS = {
    (5, 1, 1): 1, (1, 5, 1): -1,
    (6, 2, 2): 1, (2, 6, 2): -1,
    (7, 3, 3): 1, (3, 7, 3): -1,
}

CENTRAL_IMAGE_BRACKETS = {
    (1, 2, 7): 3, (2, 1, 7): -3,
    (1, 3, 5): Fraction(1, 2), (3, 1, 5): Fraction(-1, 2),
    (2, 4, 6): -2, (4, 2, 6): 2,
    (3, 4, 7): 1, (4, 3, 7): -1,
}

DISCRIMINATOR_BRACKETS = {(6, 1, 6): 1, (1, 6, 6): -1}


def manifold_from_brackets(brackets) -> HN3Manifold:
    algebra = LieAlgebra.from_nonzero(DIM, brackets)
    assert validate_lie_algebra(algebra).passed
    return HN3Manifold(
        MetricLieAlgebra(algebra, standard_metric()), standard_structures()
    )


@pytest.fixture(scope="session")
def builtin2() -> HN3Manifold:
    return builtin_example(2)


@pytest.fixture(scope="session")
def flat() -> HN3Manifold:
    return flat_example()


@pytest.fixture(scope="session")
def solvable() -> HN3Manifold:
    return manifold_from_brackets(SOLVABLE_BRACKETS)


@pytest.fixture(scope="session")
def central_image() -> HN3Manifold:
    return manifold_from_brackets(CENTRAL_IMAGE_BRACKETS)


@pytest.fixture(scope="session")
def discriminator() -> HN3Manifold:
    return manifold_from_brackets(DISCRIMINATOR_BRACKETS)


@pytest.fixture(scope="session")
def bracket_fixtures(builtin2, flat, solvable, central_image, discriminator):
    """Every fixture manifold, labelled, for identity sweeps."""
    return {
        "builtin": builtin2,
        "flat": flat,
        "solvable": solvable,
        "central_image": central_image,
        "discriminator": discriminator,
    }


@pytest.fixture(scope="session")
def lam_family():
    """One manifold per parameter value, shared so caches persist."""
    return {lam: builtin_example(lam) for lam in LAMBDAS}


@pytest.fixture(scope="session")
def products(bracket_fixtures):
    return {name: build_product(h) for name, h in bracket_fixtures.items()}


# Memoized tensor computations that the manifold does not keep itself.
# The manifolds above are session-scoped and hash by identity, so each
# (manifold, alpha) pair is computed once for the whole run; tests stay
# independent because everything here is immutable.

zoo_hats = lru_cache(maxsize=None)(hat_components)
zoo_jj = lru_cache(maxsize=None)(braces_nijenhuis_product)


def form_from_seeds(dim: int, arity: int, seeds: dict, closure) -> Tensor:
    """Dense (0, arity) tensor from 1-based seed entries and a closure rule.

    ``closure`` maps one (indices, value) pair to the complete set of
    pairs it implies; conflicting completions are a bug in the seed table
    and assert out.
    """
    full: dict = {}
    for idx, val in seeds.items():
        for jdx, w in closure(idx, Fraction(val)):
            assert full.get(jdx, w) == w, f"inconsistent closure at {jdx}"
            full[jdx] = w
    return build(
        0, arity, dim,
        lambda *i: full.get(tuple(a + 1 for a in i), Fraction(0)),
    )


def last_two_swap(eps: int):
    """Closure of F(x,y,z) = -eps F(x,z,y)."""
    def rule(idx, val):
        i, j, k = idx
        return [((i, j, k), val), ((i, k, j), -eps * val)]
    return rule


def signed_perms(idx, val):
    """Closure of a totally antisymmetric 3-form."""
    i, j, k = idx
    return [
        ((i, j, k), val), ((j, k, i), val), ((k, i, j), val),
        ((i, k, j), -val), ((k, j, i), -val), ((j, i, k), -val),
    ]


def symmetric_pair(idx, val):
    i, j = idx
    return [((i, j), val), ((j, i), val)]
