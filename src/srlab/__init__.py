"""srlab: frames of vector fields on tori, their canonical complements,
frame Laplacians, and periodic-grid spectra.

The public names are loaded on first use: ``import srlab`` imports no
submodule, and the first use of a name imports the module defining it."""

import os as _os
from importlib import import_module as _import_module

_threads = _os.environ.get("SRLAB_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)

# every public name, by the module that defines it; each module is
# imported on the first access to one of its names (PEP 562)
_EXPORTS = {
    "expr": """EvalError Expr ExprError ParseError differentiate equivalent
        evaluate parse render simplify""",
    "geometry": """FatnessResult FlagResult RegularityReport StructureError
        SubRiemannianStructure VectorField cartan_residual hausdorff_dimension
        hormander_flag is_fat is_regular lie_bracket linear_combination
        structure_constants""",
    "complement": """AdaptedComplement ComplementError MetricExtension
        canonical_complement reference_mean_curvature
        solve_canonical_complement verify_flat_complement""",
    "operators": """FrameError HorizontalField OperatorSpec
        connection_coefficients connection_sums horizontal_connection
        horizontal_divergence horizontal_gradient mean_curvature_field
        penalty_laplacian potential_residual product_rule_residual
        promoted_structure_constants riemannian_divergence
        riemannian_laplacian sublaplacian weighted_laplacian""",
    "discrete": """DiagonalMass Grid GridError PeriodicityError SparseOperator
        WeakForm assemble_field assemble_strong assemble_weak_laplacian
        check_periodicity exact_constant_image exact_green_defect
        exact_symmetry_defect read_matrix_market write_matrix_market""",
    "spectrum": """KernelReport SpectrumError SpectrumReport SweepReport
        cluster_eigenvalues dense_spectrum epsilon_sweep fourier_smallest
        kernel_check lanczos_smallest""",
}
_HOME = {
    name: module for module, names in _EXPORTS.items() for name in names.split()
}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    """Import a module, or the module defining a public name, on first use."""
    if name in _EXPORTS:
        return _import_module("." + name, __name__)
    if name in _HOME:
        value = getattr(_import_module("." + _HOME[name], __name__), name)
        globals()[name] = value
        return value
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
