"""A built-in 7-dimensional family used by the CLI and the test suite.

Two-step nilpotent algebra on ``e_1 .. e_7`` with
``[e_1, e_2] = [e_3, e_4] = lam e_7`` for a nonzero rational parameter,
carrying the standard almost contact 3-structure of the frame and the
neutral-signature-compatible metric ``diag(1, 1, -1, -1, -1, 1, 1)``.
``flat_example`` keeps the same structure on the abelian algebra.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Matrix, Vector
from .liealg import LieAlgebra, MetricLieAlgebra
from .rational import as_scalar
from .structures import AlmostContactStructure, HN3Manifold
from .tensor import covector

DIM = 7

_PHI1 = [
    [0, -1, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, 0, 1, 0],
]

_PHI2 = [
    [0, 0, -1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, -1, 0, 0],
]

_PHI3 = [
    [0, 0, 0, -1, 0, 0, 0],
    [0, 0, -1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, -1, 0],
    [0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
]

_METRIC = [1, 1, -1, -1, -1, 1, 1]


def standard_structures() -> tuple[AlmostContactStructure, ...]:
    """The structure triple of the frame: Reeb vectors ``e_5, e_6, e_7``."""
    out = []
    for a, phi in enumerate((_PHI1, _PHI2, _PHI3), start=1):
        reeb = 3 + a  # 0-based slot of e_{4+a}
        xi = Vector.basis(DIM, reeb)
        eta = covector([1 if i == reeb else 0 for i in range(DIM)])
        out.append(AlmostContactStructure(Matrix(phi), xi, eta))
    return tuple(out)


def standard_metric() -> Matrix:
    return Matrix.diagonal(_METRIC)


def builtin_example(lam: int | str | Fraction) -> HN3Manifold:
    """The two-step nilpotent member of the family with parameter ``lam != 0``."""
    lam = as_scalar(lam)
    if lam == 0:
        raise ValueError("the bracket parameter must be nonzero")
    alg = LieAlgebra.from_nonzero(
        DIM,
        {
            (1, 2, 7): lam,
            (2, 1, 7): -lam,
            (3, 4, 7): lam,
            (4, 3, 7): -lam,
        },
    )
    return HN3Manifold(MetricLieAlgebra(alg, standard_metric()), standard_structures())


def flat_example() -> HN3Manifold:
    """Same frame and structures on the abelian algebra; everything flat."""
    return HN3Manifold(
        MetricLieAlgebra(LieAlgebra.abelian(DIM), standard_metric()),
        standard_structures(),
    )
