"""cylstable: a desk-scale laboratory for stochastic evolution equations
driven by canonical alpha-stable cylindrical noise.

Samples the noise, evaluates the explicit constants of the stable
calculus, runs the Picard iteration for the discrete mild solution, and
verifies the quantitative constant-free claims (tail plateaus,
homogeneity, contraction, pathwise uniqueness) by reproducible
Monte-Carlo experiments.
"""

__version__ = "0.3.0"

from .constants import (
    ConstantsReport,
    c3_and_Tmax,
    c_alpha,
    chain_constants,
    constants_report,
    jensen_bound,
    levy_tail_mass,
    sphere_total_mass,
)
from .experiments import (
    ExperimentReport,
    HypothesisFailed,
    char_function_test,
    moment_experiment,
    picard_convergence_experiment,
    tail_experiment,
    uniqueness_experiment,
    willet_wong_check,
)
from .hilbert import (
    DiagonalModel,
    HSMatrix,
    apply_semigroup,
    check_A2,
    check_A3,
    check_norm_continuity,
    fractional_norm,
    heat_preset,
    make_model,
    parse_model_config,
)
from .integral import (
    AdaptednessError,
    StepIntegrand,
    constant_integrand,
    discretize_predictable,
    integrate,
    refinement_experiment,
)
from .picard import (
    MildPath,
    NonConvergenceError,
    SolverConfig,
    binding_time_bound,
    glue_solve,
    picard_step,
    residual,
    solve,
)
from .sampling import (
    AlphaParams,
    NoisePath,
    extend_dimension,
    generate_noise_path,
    noise_path_from_csv,
    noise_path_to_csv,
    sample_isotropic,
    sample_positive_stable,
    sample_scalar_sas,
)

__all__ = [
    "__version__",
    "AlphaParams",
    "NoisePath",
    "sample_scalar_sas",
    "sample_positive_stable",
    "sample_isotropic",
    "generate_noise_path",
    "extend_dimension",
    "noise_path_to_csv",
    "noise_path_from_csv",
    "HSMatrix",
    "DiagonalModel",
    "make_model",
    "heat_preset",
    "parse_model_config",
    "apply_semigroup",
    "fractional_norm",
    "check_norm_continuity",
    "check_A2",
    "check_A3",
    "ConstantsReport",
    "c_alpha",
    "sphere_total_mass",
    "chain_constants",
    "c3_and_Tmax",
    "levy_tail_mass",
    "jensen_bound",
    "constants_report",
    "AdaptednessError",
    "StepIntegrand",
    "integrate",
    "discretize_predictable",
    "constant_integrand",
    "refinement_experiment",
    "NonConvergenceError",
    "SolverConfig",
    "MildPath",
    "picard_step",
    "solve",
    "residual",
    "glue_solve",
    "binding_time_bound",
    "ExperimentReport",
    "HypothesisFailed",
    "tail_experiment",
    "moment_experiment",
    "picard_convergence_experiment",
    "uniqueness_experiment",
    "willet_wong_check",
    "char_function_test",
]
