"""Numerical certification of uniform L^p lower bounds.

Functions with Delta u >= 1 (or heat-operator excess Hu >= 1) on a domain
cannot be small on most of it: their L^p quasinorms, p-means, and sublevel
sets obey explicit lower bounds.  This package computes the constants in
those bounds, checks the mean-value machinery behind them by Monte Carlo,
and builds the constructions showing where they stop being improvable.
"""

from .geometry import (
    Box,
    EuclideanBall,
    Heatball,
    BallSystem,
    euclidean_system,
    box_system,
    parabolic_box_system,
    build_radius_function,
    euclidean_shrink,
    heatball_shrink,
    system_shrink,
    unit_ball_volume,
)
from .fields import (
    ScalarField,
    LinearOperator,
    field_sum,
    polynomial_field,
    quadratic_field,
    harmonic_polynomial_field,
    bump_function,
    heat_kernel_field,
    heat_polynomial_field,
    monomial_field,
    neg_time_field,
    random_laplace_one,
    random_heat_one,
    random_harmonic,
    random_caloric,
    laplacian_operator,
    heat_operator,
    mixed_xy_operator,
    neg_hessian_det,
    positive_part,
)
from .quadrature import (
    QuadResult,
    PMeanReport,
    EmptyRegionError,
    integrate,
    measure,
    pmean,
    pmean_grid,
    agreement,
    box_gauss,
)
from .averages import (
    ball_average,
    ball_average_fd,
    deriv1_rhs,
    heatball_average,
    heatball_average_fd,
    deriv2_rhs,
    modified_heatball_average,
    heatball_unit_volume,
    MviCheckReport,
    pmvi_constant,
    concave_mvi_constant,
    sample_admissible,
    check_mvi,
    check_pmvi,
    check_concave_mvi,
    check_modified_heatball_mvi,
    dense_box_sup,
    claim_laplace_drop,
    claim_heat_drop,
)
from .constants import (
    ConstantReport,
    k_laplace,
    k_heat,
    k_heat_value,
    heatball_unit_volume_exact,
    heatball_unit_volume_quad,
    kappa,
    kappa_max,
    adjoint_constant,
    assemble_cp_laplace,
    assemble_cp_heat,
    sublevel_to_pmean_bound,
    pmean_to_sublevel_bound,
    constants_table,
)
from .counterexamples import (
    CombSet,
    build_comb,
    ccw_target,
    fit_harmonic,
    assemble_ccw_witness,
    hessian_family_check,
    lift_check,
)
from .verify import (
    CheckResult,
    SuiteResult,
    SUITE_NAMES,
    default_config,
    run_suite,
)

__version__ = "0.1.0"
