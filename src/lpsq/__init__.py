"""Cone square functions under Dini-modulus kernel conditions.

Numerical library and CLI: Dini-constant quadratures, example kernels with
size/smoothness verification, discretized square functions and g*,
Calderon-Zygmund decomposition on the dyadic lattice, sparse-family
construction over its cubes and their 3-dilates with pointwise domination
checks, and weighted-bound campaigns.
"""

from .errors import (
    ConfigError,
    ConstructionError,
    ContainmentError,
    CoverageError,
    DisjointnessError,
    DivergenceError,
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
    log_modulus,
    logsplit_moduli,
    parse_modulus,
    power_modulus,
    table_modulus,
)
from .grids import (
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
    kernel_condition_check,
    parse_kernel,
    unit_cube_maximal,
)
from .operators import (
    SquareEvaluator,
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
    sparse_construct,
    sparse_rhs_eval,
    verify_sparse,
)
from .weights import WeightVector, apvec_constant
from .harness import (
    FitReport,
    aperture_scaling_check,
    kolmogorov_check,
    weak_type_profile,
    weighted_norm_check,
)

__version__ = "0.1.0"
