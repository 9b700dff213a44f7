"""entrolab: differential-entropy functionals and sumset-type inequality checks."""

__version__ = "0.1.0"

from .distributions import (
    DensityModel,
    Exponential,
    Gamma,
    Gaussian,
    Gridded,
    Laplace,
    Mixture,
    ModelError,
    MomentSummary,
    Uniform,
    make_model,
    sample,
)
from .grids import (
    GridDensity,
    GridError,
    GridSpec,
    convolve,
    discretize,
    entropy,
    gaussian_fit,
    kl_divergence,
    reflect,
)
from .poincare import poincare_constant
from .gaussians import (
    BsgScenarioReport,
    DegenerateSubsetError,
    GaussianVector,
    run_bsg_scenario,
    run_conditional_copies_scenario,
    run_weak_bsg_scenario,
)
from .estimators import EstimateResult, estimate_functional, knn_entropy
from .report import InequalityReport
from .checks import (
    CHECKS,
    CheckDef,
    GridContext,
    RuzsaFunctionals,
    default_corpus,
    doubling_and_difference,
    inverse_theorem_check,
    sum_minus_difference_gap,
    sum_dominant_gap,
    ruzsa_distance,
    run_check,
)
from .discrete import (
    DiscreteJoint,
    DiscretePmf,
    check_covering_lemma,
    check_discrete_registry,
    check_functional_submodularity,
    difference_pmf,
    discrete_entropy,
    sum_pmf,
)
from .suite import ConfigError, SuiteConfig, SuiteReport, load_config, run_suite
