"""Cone square functions under Dini-modulus kernel conditions.

Numerical library and CLI: Dini-constant quadratures, example kernels with
size/smoothness verification, discretized square functions and g*,
Calderon-Zygmund decomposition, shifted dyadic grids, sparse-family
construction with pointwise domination checks, and weighted-bound
campaigns.
"""

from .errors import (
    ConfigError,
    ConstructionError,
    ContainmentError,
    CoverageError,
    DisjointnessError,
    DivergenceError,
    GeometryError,
    GridError,
    LpsqError,
    MonotonicityError,
    ParameterError,
    QuadratureBudgetError,
    ResolutionError,
)
from .moduli import (
    ModulusOfContinuity,
    dini_constant,
    dini_inequality_suite,
    dini_integral,
    log_dini_integral,
    log_modulus,
    logsplit_moduli,
    parse_modulus,
    power_modulus,
    table_modulus,
)
from .grids import (
    Box,
    ConeGrid,
    GridFunction,
    build_cone,
    build_halfspace,
    load_binary,
    load_csv,
    parse_function,
    sample_function,
    save_binary,
    save_csv,
)
from .kernels import (
    ConditionReport,
    KernelSpec,
    SamplePlan,
    bilinear_example_kernel,
    example_kernel,
    fourier_decay_profile,
    kernel_condition_check,
    parse_kernel,
    unit_cube_maximal,
)
from .operators import (
    SquareEvaluator,
    far_field_majorant,
    g_star,
    g_star_cascade_bound,
    lerner_maximal,
    marcinkiewicz_fw,
    maximal,
    psi_t_apply,
    square_function,
    square_function_at,
    square_function_multi,
)
from .dyadic import (
    Cube,
    CZDecomposition,
    SparseFamily,
    cz_decompose,
    dyadic_cube_pool,
    shifted_cover,
    shifted_family,
    sparse_construct,
    sparse_rhs_eval,
    verify_sparse,
)
from .weights import WeightVector, apvec_constant
from .harness import (
    FitReport,
    aperture_scaling_check,
    kolmogorov_check,
    lattice_superlevel_measure,
    weak_type_profile,
    weighted_norm_check,
)

__version__ = "0.1.0"
