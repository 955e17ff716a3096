"""Exact-arithmetic workbench for n-Lie (Filippov) algebras."""

from .algebra import (
    AlgebraFormatError,
    NotNilpotentError,
    StructureAlgebra,
    abelian,
    bracket_product,
    direct_sum,
    from_json_dict,
    gamma_term,
    heisenberg,
    is_ideal,
    lower_central_series,
    minimal_generators,
    nilpotency_class,
    quotient_algebra,
    subalgebra_on,
    to_json_dict,
    upper_central_series,
    z_term,
)
from .bounds import BoundCheck, catalog_algebras, run_catalog, violations
from .counting import (
    CountDomainError,
    CountRow,
    compare_table,
    convention_count,
    formula_count,
    layer_sum,
)
from .free_algebra import (
    FreeNilpotentAlgebra,
    GradedComponent,
    ResourceLimitError,
    canon_trees,
    filippov_relations,
    free_nilpotent,
    graded_component,
    graded_dimension,
)
from .linalg import (
    AmbientMismatchError,
    InclusionError,
    Subspace,
    quotient_dim,
    subspace_intersect,
    subspace_sum,
)
from .multiplier import (
    MultiplierReport,
    Presentation,
    gamma_ideal_chain,
    heisenberg_multiplier_dim,
    is_capable,
    multiplier_dim,
    multiplier_report,
    present,
    z_star,
)
from .trees import canonicalize, order_key, tree_to_str, weight

__version__ = "0.1.0"
