"""Left-invariant geometry of metric Lie algebras.

Everything lives on a fixed frame ``e_1 .. e_n``.  Structure constants,
the metric, and all derived tensors are constant, so covariant and Lie
derivatives reduce to finite exact contractions; the directional terms of
the usual formulas vanish identically and are not coded.  Each of those
contractions, and the Jacobi sums of the validator, is a call of
``hn3.linalg.contract``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ShapeError
from .linalg import Matrix, Vector, contract, signature
from .rational import HALF, as_scalar
from .reporting import Report
from .tensor import Tensor, lower
from . import tensor as tz


@dataclass(frozen=True)
class LieAlgebra:
    """Bracket of a finite-dimensional real Lie algebra in a fixed frame.

    ``bracket`` is the (1,2) tensor of structure constants:
    ``[e_i, e_j] = sum_k bracket[i, j, k] e_k``.  The constructor does not
    check antisymmetry or Jacobi; ``validate_lie_algebra`` reports on both.
    """

    dim: int
    bracket: Tensor

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError("Lie algebra dimension must be at least 1")
        if (self.bracket.contra, self.bracket.arity) != (1, 2):
            raise ShapeError("structure constants form a (1,2) tensor")
        if self.bracket.dim != self.dim:
            raise ShapeError("structure constant dimension mismatch")

    @classmethod
    def from_nonzero(cls, dim: int, entries: dict[tuple[int, int, int], Fraction | int | str]) -> LieAlgebra:
        """Build from sparse 1-based entries ``{(i, j, k): c^k_ij}``.

        Only listed entries are set; in particular the (j, i) partner of a
        listed bracket is NOT filled in automatically.
        """
        comps = {}
        for key, value in entries.items():
            for index in key:
                if not 1 <= index <= dim:
                    raise ShapeError(f"bracket index {index} out of range 1..{dim}")
            comps[tuple(i - 1 for i in key)] = as_scalar(value)
        return cls(dim, Tensor.from_dict(1, 2, dim, comps))

    @classmethod
    def abelian(cls, dim: int) -> LieAlgebra:
        return cls(dim, Tensor.zeros(1, 2, dim))


def validate_lie_algebra(alg: LieAlgebra) -> Report:
    """Report antisymmetry and Jacobi violations, one line per failed tuple."""
    report = Report("lie algebra axioms")
    c = alg.bracket
    # only a tuple with a nonzero entry on either side can fail
    for i, j, k in sorted({(min(i, j), max(i, j), k) for i, j, k in c.comps}):
        report.require("antisymmetry", (i + 1, j + 1, k + 1), c[i, j, k], -c[j, i, k])
    # [[e_i, e_j], e_l]^k = sum_m c[i, j, m] c[m, l, k], then the cyclic
    # sum over (i, j, l); only its nonzero totals can fail
    nested = Tensor.from_ints(1, 3, alg.dim, *contract((c, 2, c.lines(0))))
    jacobi = tz.cyclic_sum(nested)
    report.require_equal("jacobi", (), jacobi, Tensor.zeros(1, 3, alg.dim))
    return report


@dataclass(frozen=True)
class Connection:
    """Coefficients of a left-invariant linear connection.

    ``gamma`` is a (1,2) tensor: ``D_{e_i} e_j = sum_k gamma[i, j, k] e_k``.
    """

    gamma: Tensor

    def __post_init__(self):
        if (self.gamma.contra, self.gamma.arity) != (1, 2):
            raise ShapeError("connection coefficients form a (1,2) tensor")

    @property
    def dim(self) -> int:
        return self.gamma.dim


@dataclass(frozen=True, eq=False)
class MetricLieAlgebra:
    """Lie algebra with a (pseudo-)metric on the frame.

    Treated as immutable; the Levi-Civita connection, its symmetric
    braces, the inverse metric and its signature are computed once and
    cached.
    """

    algebra: LieAlgebra
    metric: Matrix

    def __post_init__(self):
        if self.metric.rows != self.metric.cols or self.metric.rows != self.algebra.dim:
            raise ShapeError("metric dimension mismatch")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def metric_inverse(self) -> Matrix:
        return self.metric.inverse()

    @cached_property
    def metric_signature(self) -> tuple[int, int, int]:
        """Sylvester signature of the metric; raises unless it is symmetric."""
        return signature(self.metric)

    @cached_property
    def levi_civita(self) -> Connection:
        """Unique torsion-free metric connection, from the Koszul formula.

        With all fields left-invariant the formula collapses to
        ``2 g(D_x y, z) = g([x,y],z) - g([y,z],x) + g([z,x],y)``.
        """
        cg = lower(self.algebra.bracket, self.metric)  # g([x,y],z)
        koszul = cg - tz.permute_args(cg, (1, 2, 0)) + tz.permute_args(cg, (2, 0, 1))
        return Connection(tz.raise_last(koszul * HALF, self.metric_inverse))

    @cached_property
    def braces(self) -> Tensor:
        """Symmetrized Levi-Civita derivative ``{x, y} = D_x y + D_y x``."""
        gamma = self.levi_civita.gamma
        return gamma + tz.permute_args(gamma, (1, 0))


def validate_metric(mla: MetricLieAlgebra) -> Report:
    """Symmetry and nondegeneracy of the frame metric."""
    report = Report("metric")
    g = mla.metric
    n = mla.dim
    # only a pair with a nonzero on either side can fail
    for i, j in sorted((i, j) for i, j in g.differs_at(g.transpose()) if i < j):
        report.require("symmetry", (i + 1, j + 1), g[i, j], g[j, i])
    if g.is_symmetric():
        plus, minus, _ = mla.metric_signature
        report.require("nondegeneracy (rank = dim)", (), plus + minus, n)
    return report


def covariant_derivative(conn: Connection, t: Tensor) -> Tensor:
    """Covariant derivative of a constant tensor; the direction slot comes FIRST.

    For a (0,s) tensor only the argument corrections survive:
    ``(D_x t)(y..) = -sum_j t(y_1, .., D_x y_j, .., y_s)``.
    A (1,s) tensor additionally gets the derivative of its output vector.
    """
    n = t.dim
    if conn.dim != n:
        raise ShapeError("connection dimension mismatch")
    # gamma[x, y, m] meets -t at m in every argument correction and t at y
    # in the derivative of the output vector; the direction x is the prefix
    # of every term, so one sum holds them all
    corrections, minus_t = conn.gamma.lines(2, prefix=1), -t
    terms = [(minus_t, j, corrections) for j in range(t.arity)]
    if t.contra:
        terms.append((t, t.arity, conn.gamma.lines(1, prefix=1)))
    return Tensor.from_ints(t.contra, t.arity + 1, n, *contract(*terms))


def covariant_derivative_vector(conn: Connection, v: Vector) -> Tensor:
    """Derivative of a constant vector field: ``out[x, k] = sum_m v[m] gamma[x, m, k]``."""
    return tz.contract_arg_with_vector(conn.gamma, v, 1)


def connection_torsion(conn: Connection, alg: LieAlgebra) -> Tensor:
    """Torsion ``T(x, y) = D_x y - D_y x - [x, y]`` as a (1,2) tensor."""
    gamma = conn.gamma
    return gamma - tz.permute_args(gamma, (1, 0)) - alg.bracket


def lie_derivative_metric(mla: MetricLieAlgebra, xi: Vector) -> Tensor:
    """Lie derivative of the metric: ``g(D_x xi, y) + g(x, D_y xi)``."""
    dxi = covariant_derivative_vector(mla.levi_civita, xi)
    low = lower(dxi, mla.metric)  # (0,2): g(D_x xi, y)
    return low + tz.permute_args(low, (1, 0))


def lie_derivative_covector(alg: LieAlgebra, xi: Vector, eta: Tensor) -> Tensor:
    """Lie derivative of a constant one-form: ``(L_xi eta)(x) = -eta([xi, x])``."""
    if (eta.contra, eta.arity, eta.dim) != (0, 1, alg.dim) or xi.shape != (alg.dim,):
        raise ShapeError(f"need a vector and a one-form of dimension {alg.dim}")
    eta_bracket = contract((alg.bracket, 2, eta.lines(0)))  # eta([e_a, e_x])
    inner = Matrix.from_ints((alg.dim, alg.dim), *eta_bracket)
    return Tensor.from_ints(0, 1, alg.dim, *contract((-inner, 0, xi.lines(0))))
