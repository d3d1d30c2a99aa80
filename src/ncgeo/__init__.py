"""Metric geometry of homogeneous spaces of unitary groups of finite
tracial matrix algebras: trace p-norms, best-approximant projections onto
isotropy Lie algebras, quotient and rectifiable distances, lifting ODEs,
and minimal geodesics, with a seeded verification-suite runner.
"""

from .core import (
    TracialAlgebra,
    StepFunction,
    trace_tau,
    inner_tau,
    p_norm,
    operator_norm,
    is_hermitian,
    is_skew_hermitian,
    is_unitary,
    unitary_exp,
    principal_log,
    exp_differential,
    spectral_scale,
    s_numbers,
    fold_symbol,
    h_form,
    quadratic_form,
    random_hermitian,
    random_skew,
    random_unitary,
)
from .projection import (
    SkewSubspace,
    ProjectionResult,
    ConvergenceError,
    orthonormal_basis,
    best_approximant,
    lifting_certificate,
    quotient_norm,
)
from .geometry import (
    SampledCurve,
    HomSpace,
    GeodesicResult,
    curve_length_p,
    quotient_length,
    unitary_distance,
    quotient_distance,
    lift_ode_solve,
    epsilon_isometric_lift,
    minimal_geodesic,
    rectifiable_path_length,
    convexity_probe,
    minimality_probe,
)
from .models import (
    ModelSpec,
    MODELS,
    build_model_space,
    conditional_expectation,
    model_facts,
)
from .suites import SuiteConfig, VerificationReport, run_verification_suite

__version__ = "0.1.0"
