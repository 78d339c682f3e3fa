"""Wei-Norman factorization of time-dependent flows on SL(N, C).

The package derives, in exact symbolic form, the staged ODE hierarchy for
the coordinates of the exponential-product representation
K(t) = exp(u_1 X_1) ... exp(u_n X_n) of the solution of K' = M(t) K, and
integrates it numerically with chart re-anchoring across coordinate
singularities.  A direct matrix-ODE oracle and an extensive property
battery keep the two routes honest against each other.
"""

from .adjoint import (
    Algebra,
    PropertyCheck,
    PropertyReport,
    algebra,
    all_ad_matrices,
    apply_exp_ad,
    check_algebraic_properties,
    exp_ad,
)
from .basis import (
    BasisElement,
    BlockRef,
    OrderedBasis,
    StructureTensor,
    SubalgebraPartition,
    build_ordered_basis,
    build_partition,
    expand_in_basis,
    matrix_from_coefficients,
    structure_constants,
)
from .hierarchy import (
    CartanStage,
    HierarchySchedule,
    LinearStage,
    RiccatiStage,
    StageLocalityError,
    assemble_A_numeric,
    assemble_A_symbolic,
    check_A_block_structure,
    condition_estimate,
    derive_hierarchy,
    emit,
    parse_hierarchy_json,
    rhs,
)
from .integrate import (
    ChartSingularityError,
    ComparisonReport,
    IntegrationConfig,
    SingularityReport,
    StepSizeUnderflow,
    Trajectory,
    compare,
    factor_exp,
    integrate_direct,
    integrate_wn,
    reconstruct_K,
)
from .signals import (
    CoefficientSignal,
    ConstantSignal,
    FourierSignal,
    HamiltonianSignal,
    PiecewiseSignal,
    PolynomialSignal,
    random_antihermitian_signal,
)
from .symexpr import RationalComplex, SymbolicExpr

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "BasisElement",
    "BlockRef",
    "CartanStage",
    "ChartSingularityError",
    "CoefficientSignal",
    "ComparisonReport",
    "ConstantSignal",
    "FourierSignal",
    "HamiltonianSignal",
    "HierarchySchedule",
    "IntegrationConfig",
    "LinearStage",
    "OrderedBasis",
    "PiecewiseSignal",
    "PolynomialSignal",
    "PropertyCheck",
    "PropertyReport",
    "RationalComplex",
    "RiccatiStage",
    "SingularityReport",
    "StageLocalityError",
    "StepSizeUnderflow",
    "StructureTensor",
    "SubalgebraPartition",
    "SymbolicExpr",
    "Trajectory",
    "algebra",
    "all_ad_matrices",
    "apply_exp_ad",
    "assemble_A_numeric",
    "assemble_A_symbolic",
    "build_ordered_basis",
    "build_partition",
    "check_A_block_structure",
    "check_algebraic_properties",
    "compare",
    "condition_estimate",
    "derive_hierarchy",
    "emit",
    "expand_in_basis",
    "exp_ad",
    "factor_exp",
    "integrate_direct",
    "integrate_wn",
    "matrix_from_coefficients",
    "parse_hierarchy_json",
    "random_antihermitian_signal",
    "reconstruct_K",
    "rhs",
    "structure_constants",
    "__version__",
]
