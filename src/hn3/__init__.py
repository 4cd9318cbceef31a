"""Exact verification of almost contact 3-structures with Hermitian-Norden
metrics on Lie algebras, and of their natural connections with totally
skew-symmetric torsion.  All arithmetic is rational and exact."""

from types import ModuleType as _ModuleType

from .builtin import builtin_example, flat_example
from .connections import (
    Coincidence,
    NaturalConnection,
    class_condition_alpha1,
    class_condition_alpha23,
    coincidence_check,
    in_skew_torsion_class,
    natural_connection,
    naturality_report,
    structure_torsion,
    torsion_alpha1_via_forms,
)
from .errors import (
    ExistenceError,
    ShapeError,
    SingularMatrixError,
    StructureFileError,
    SymmetryError,
    ValidationError,
)
from .fileio import (
    dump_structure,
    load_structure,
    parse_structure,
    structure_to_json,
)
from .liealg import (
    Connection,
    LieAlgebra,
    MetricLieAlgebra,
    connection_torsion,
    covariant_derivative,
    covariant_derivative_vector,
    lie_derivative_covector,
    lie_derivative_metric,
    validate_lie_algebra,
    validate_metric,
)
from .linalg import Matrix, Vector, signature
from .nijenhuis import (
    associated_form_via_fundamental,
    associated_form_via_fundamental2,
    associated_nijenhuis,
    braces_nijenhuis_product,
    check_fundamental_properties,
    exterior_d_eta,
    fundamental_tensor,
    fundamental2_via_nijenhuis,
    hat_components,
    metric_lie_derivative,
    metric_lie_derivative_via_associated2,
    metric_lie_derivative_via_fundamental,
    nijenhuis_form_via_fundamental,
    nijenhuis_tensor,
    phi_braces,
    reeb_lie_derivative_eta,
)
from .rational import Scalar, as_scalar, format_scalar
from .reporting import Report, Violation
from .structures import (
    AlmostContactStructure,
    HN3Manifold,
    ProductExtension,
    adapt,
    build_product,
    move,
    validate_ac3,
    validate_hn_metric,
    validate_hypercomplex_hn,
    validation_reports,
)
from .tensor import (
    Tensor,
    covector,
    cyclic_sum,
    is_three_form,
    lower,
    metric_tensor,
    operator_from_tensor,
    permute_args,
    raise_last,
    tensor_from_operator,
    wedge_1_2,
)

# the submodules are attributes of the package as well, but not part of its API
__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
