"""Every shape and type guard refuses its bad input with its own message.

One row per guard: the call, the exception it must raise and the message
it must carry.  The inputs are tiny on purpose; each reaches exactly one
guard, past every guard checked before it.
"""

from __future__ import annotations

import re

import pytest

from hn3 import (
    AlmostContactStructure,
    Connection,
    HN3Manifold,
    LieAlgebra,
    Matrix,
    MetricLieAlgebra,
    ShapeError,
    Tensor,
    Vector,
    as_scalar,
    builtin_example,
    check_fundamental_properties,
    covariant_derivative,
    covariant_derivative_vector,
    covector,
    is_three_form,
    lie_derivative_covector,
    lower,
    metric_tensor,
    operator_from_tensor,
    permute_args,
    raise_last,
    tensor_from_operator,
    wedge_1_2,
)
from hn3.tensor import contract_arg_with_vector, postcompose, precompose, times_vector

I2, I3 = Matrix.identity(2), Matrix.identity(3)
ROW = Matrix([[1, 2]])
G = metric_tensor(I2)  # a (0,2) tensor on a 2-dimensional frame
ETA = covector([1, 0])
OP = tensor_from_operator(I2)  # a (1,1) tensor
V3 = Vector([1, 2, 3])
S2 = AlmostContactStructure(I2, Vector([1, 0]), ETA)
EXAMPLE = builtin_example(2)  # n = 7

GUARDS = [
    # hn3.tensor
    ("contra", lambda: Tensor(2, 1, 2, [0] * 8), ShapeError, "contra must be 0 or 1"),
    ("arity", lambda: Tensor(0, 0, 2, [1]), ShapeError, "arity must be at least 1"),
    ("empty covector", lambda: covector([]), ShapeError, "tensor dimension must be at least 1"),
    ("empty zero tensor", lambda: Tensor.zeros(0, 1, 0), ShapeError,
     "tensor dimension must be at least 1"),
    ("operator size", lambda: precompose(G, I3, 0), ShapeError, "operator dimension mismatch"),
    ("operator square", lambda: tensor_from_operator(ROW), ShapeError, "operator must be square"),
    ("(1,1) tensor", lambda: operator_from_tensor(G), ShapeError, "need a (1,1) tensor"),
    ("metric square", lambda: metric_tensor(ROW), ShapeError, "metric must be square"),
    ("lower", lambda: lower(G, I2), ShapeError, "lower needs a vector-valued tensor"),
    ("raise_last", lambda: raise_last(ETA, I2), ShapeError,
     "raise_last needs a (0,s) tensor with s >= 2"),
    ("perm", lambda: permute_args(G, (0, 0)), ShapeError, "perm must rearrange 2 argument slots"),
    ("precompose slot", lambda: precompose(G, I2, 2), ShapeError,
     "slot 2 out of range for arity 2"),
    ("postcompose", lambda: postcompose(G, I2), ShapeError,
     "postcompose needs a vector-valued tensor"),
    ("contraction slot", lambda: contract_arg_with_vector(G, V3, 2), ShapeError,
     "slot 2 out of range for arity 2"),
    ("contraction vector", lambda: contract_arg_with_vector(G, V3, 0), ShapeError,
     "vector dimension mismatch"),
    ("contraction to nothing", lambda: contract_arg_with_vector(ETA, Vector([1, 0]), 0),
     ShapeError, "contraction would leave no slots"),
    ("times_vector valence", lambda: times_vector(OP, Vector([1, 0])), ShapeError,
     "times_vector needs a (0,s) tensor"),
    ("times_vector size", lambda: times_vector(G, V3), ShapeError, "dimension mismatch"),
    ("three-form valence", lambda: is_three_form(G), ShapeError,
     "is_three_form is defined for (0,3) tensors"),
    ("wedge first", lambda: wedge_1_2(G, G), ShapeError, "first factor must be a one-form"),
    ("wedge second", lambda: wedge_1_2(ETA, ETA), ShapeError, "second factor must be a two-form"),
    # hn3.liealg
    ("empty algebra", lambda: LieAlgebra.from_nonzero(0, {}), ShapeError,
     "Lie algebra dimension must be at least 1"),
    ("bracket valence", lambda: LieAlgebra(2, G), ShapeError,
     "structure constants form a (1,2) tensor"),
    ("bracket size", lambda: LieAlgebra(3, Tensor.zeros(1, 2, 2)), ShapeError,
     "structure constant dimension mismatch"),
    ("bracket index", lambda: LieAlgebra.from_nonzero(2, {(1, 2, 3): 1}), ShapeError,
     "bracket index 3 out of range 1..2"),
    ("connection valence", lambda: Connection(G), ShapeError,
     "connection coefficients form a (1,2) tensor"),
    ("metric size", lambda: MetricLieAlgebra(LieAlgebra.abelian(2), I3), ShapeError,
     "metric dimension mismatch"),
    ("connection size", lambda: covariant_derivative(Connection(Tensor.zeros(1, 2, 3)), G),
     ShapeError, "connection dimension mismatch"),
    ("Lie derivative, xi of 8", lambda: lie_derivative_covector(
        EXAMPLE.mla.algebra, Vector([1, 0, 0, 0, 0, 0, 0, 5]), EXAMPLE.eta(1)),
     ShapeError, "need a vector and a one-form of dimension 7"),
    ("Lie derivative, xi of 2", lambda: lie_derivative_covector(
        EXAMPLE.mla.algebra, Vector([1, 0]), EXAMPLE.eta(1)),
     ShapeError, "need a vector and a one-form of dimension 7"),
    ("Lie derivative, eta of 9", lambda: lie_derivative_covector(
        EXAMPLE.mla.algebra, EXAMPLE.xi(1), covector([1] * 9)),
     ShapeError, "need a vector and a one-form of dimension 7"),
    ("covariant derivative, xi of 8", lambda: covariant_derivative_vector(
        EXAMPLE.mla.levi_civita, Vector([1, 0, 0, 0, 0, 0, 0, 5])),
     ShapeError, "vector dimension mismatch"),
    # hn3.linalg
    ("index count", lambda: V3[0, 1], ShapeError, "expected 1 indices, got 2"),
    ("negative vector index", lambda: V3[-1], ShapeError,
     "index (-1,) out of range for shape (3,)"),
    ("vector index", lambda: V3[3], ShapeError, "index (3,) out of range for shape (3,)"),
    ("negative matrix index", lambda: I3[-1, -1], ShapeError,
     "index (-1, -1) out of range for shape (3, 3)"),
    ("matrix index", lambda: EXAMPLE.metric[7, 7], ShapeError,
     "index (7, 7) out of range for shape (7, 7)"),
    ("negative tensor index", lambda: G[0, -2], ShapeError,
     "index (0, -2) out of range for shape (2, 2)"),
    ("tensor index", lambda: EXAMPLE.mla.levi_civita.gamma[0, 1, 7], ShapeError,
     "index (0, 1, 7) out of range for shape (7, 7, 7)"),
    ("empty vector", lambda: Vector([]), ShapeError, "empty vector"),
    ("empty matrix", lambda: Matrix([]), ShapeError, "empty matrix"),
    ("empty zero vector", lambda: Vector.zero(0), ShapeError, "empty vector"),
    ("basis index", lambda: Vector.basis(3, 5), ShapeError, "basis index 5 out of range 0..2"),
    ("negative basis index", lambda: Vector.basis(3, -1), ShapeError,
     "basis index -1 out of range 0..2"),
    ("empty diagonal", lambda: Matrix.diagonal([]), ShapeError, "empty matrix"),
    ("empty zero matrix", lambda: Matrix.zeros(0), ShapeError, "empty matrix"),
    ("empty identity", lambda: Matrix.identity(0), ShapeError, "empty matrix"),
    ("matmul", lambda: ROW @ ROW, ShapeError, "cannot multiply (1, 2) by (1, 2)"),
    ("apply", lambda: I2.apply(V3), ShapeError, "cannot apply (2, 2) to an array of shape (3,)"),
    ("inverse", lambda: ROW.inverse(), ShapeError, "only square matrices have inverses"),
    # hn3.structures and hn3.nijenhuis
    ("structure sizes", lambda: AlmostContactStructure(I2, V3, ETA), ShapeError,
     "structure tensor dimensions disagree"),
    ("structure form", lambda: AlmostContactStructure(I3, V3, ETA), ShapeError,
     "eta must be a one-form of matching dimension"),
    ("manifold sizes", lambda: HN3Manifold(EXAMPLE.mla, (S2, S2, S2)), ShapeError,
     "structure dimensions disagree with the algebra"),
    ("fundamental valence", lambda: check_fundamental_properties(G, EXAMPLE, 1),
     ShapeError, "expected a (0,3) tensor of dimension 7"),
    # hn3.rational
    ("bool scalar", lambda: as_scalar(True), TypeError, "bool is not a scalar"),
    ("float scalar", lambda: as_scalar(0.5), TypeError, "exact scalar expected, got float"),
]


@pytest.mark.parametrize(
    "call, error, message", [row[1:] for row in GUARDS], ids=[row[0] for row in GUARDS]
)
def test_guard_refuses_its_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
