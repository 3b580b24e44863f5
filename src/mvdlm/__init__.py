"""Sequential Bayesian estimation of multivariate stochastic volatility.

A closed-form filter for vector time series whose innovation covariance
evolves through a discounted Wishart/matrix-beta scheme, with one-step
forecasting, goodness-of-fit diagnostics, Value-at-Risk, sequential model
comparison, a generative simulator and a command-line pipeline.
"""

from . import errors
from .diagnostics import (
    DiagnosticsReport,
    LbfSeries,
    VaRConfig,
    compute_diagnostics,
    grid_search,
    lbf,
    loglik_constant,
    loglik_time_varying,
    msse_mae_me,
    standardize,
    var_portfolio,
)
from .distributions import (
    InvWishartParams,
    MultiTParams,
    SingularBetaParams,
    cholesky_upper,
    evolve_precision,
    invwishart_logpdf,
    invwishart_sample,
    matrix_normal_sample,
    mvt_logpdf,
    singular_beta_sample,
    wishart_sample,
)
from .filter import (
    StepResult,
    Trajectory,
    linear_transform,
    mle_constant,
    predict,
    run,
    run_constant_volatility,
    update,
)
from .model import (
    FilterState,
    ModelSpec,
    Priors,
    ValidationReport,
    compute_n,
    validate,
)
from .simulate import PairedScenario, SimPath, paired_volatility_scenario, simulate

__version__ = "0.1.0"

__all__ = [
    "DiagnosticsReport",
    "FilterState",
    "InvWishartParams",
    "LbfSeries",
    "ModelSpec",
    "MultiTParams",
    "PairedScenario",
    "Priors",
    "SimPath",
    "SingularBetaParams",
    "StepResult",
    "Trajectory",
    "VaRConfig",
    "ValidationReport",
    "cholesky_upper",
    "compute_diagnostics",
    "compute_n",
    "errors",
    "evolve_precision",
    "grid_search",
    "invwishart_logpdf",
    "invwishart_sample",
    "lbf",
    "linear_transform",
    "loglik_constant",
    "loglik_time_varying",
    "matrix_normal_sample",
    "mle_constant",
    "msse_mae_me",
    "mvt_logpdf",
    "paired_volatility_scenario",
    "predict",
    "run",
    "run_constant_volatility",
    "simulate",
    "singular_beta_sample",
    "standardize",
    "update",
    "validate",
    "var_portfolio",
    "wishart_sample",
]
