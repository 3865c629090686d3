"""srlab: frames of vector fields on tori, their canonical complements,
frame Laplacians, and periodic-grid spectra."""

import os as _os

_threads = _os.environ.get("SRLAB_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)

from .expr import (
    EvalError,
    Expr,
    ExprError,
    ParseError,
    differentiate,
    equivalent,
    evaluate,
    parse,
    render,
    simplify,
)
from .geometry import (
    FatnessResult,
    FlagResult,
    RegularityReport,
    StructureError,
    SubRiemannianStructure,
    VectorField,
    cartan_residual,
    hausdorff_dimension,
    hormander_flag,
    is_fat,
    is_regular,
    lie_bracket,
    linear_combination,
    structure_constants,
)
from .complement import (
    AdaptedComplement,
    ComplementError,
    MetricExtension,
    canonical_complement,
    reference_mean_curvature,
    solve_canonical_complement,
    verify_flat_complement,
)
from .operators import (
    FrameError,
    HorizontalField,
    OperatorSpec,
    connection_coefficients,
    connection_sums,
    horizontal_connection,
    horizontal_divergence,
    horizontal_gradient,
    mean_curvature_field,
    penalty_laplacian,
    potential_residual,
    product_rule_residual,
    promoted_structure_constants,
    riemannian_divergence,
    riemannian_laplacian,
    sublaplacian,
    weighted_laplacian,
)
from .discrete import (
    DiagonalMass,
    Grid,
    GridError,
    PeriodicityError,
    SparseOperator,
    WeakForm,
    assemble_field,
    assemble_strong,
    assemble_weak_laplacian,
    check_periodicity,
    evaluate_on_grid,
    exact_constant_image,
    exact_green_defect,
    exact_symmetry_defect,
    read_matrix_market,
    write_matrix_market,
)
from .spectrum import (
    KernelReport,
    SpectrumError,
    SpectrumReport,
    SweepReport,
    cluster_eigenvalues,
    dense_spectrum,
    epsilon_sweep,
    fourier_smallest,
    kernel_check,
    lanczos_smallest,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
