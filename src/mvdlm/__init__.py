"""Sequential Bayesian estimation of multivariate stochastic volatility.

A closed-form filter for vector time series whose innovation covariance
evolves through a discounted Wishart/matrix-beta scheme, with one-step
forecasting, goodness-of-fit diagnostics, Value-at-Risk, sequential model
comparison, a generative simulator and a command-line pipeline.
"""

from . import errors
from .diagnostics import (
    DiagnosticsReport,
    compute_diagnostics,
    grid_search,
    var_portfolio,
)
from .distributions import (
    InvWishartParams,
    MultiTParams,
    SingularBetaParams,
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
    update,
)
from .model import (
    FilterState,
    ModelSpec,
    Priors,
    compute_n,
    validate,
)
from .simulate import SimPath, simulate

__version__ = "0.1.0"

__all__ = [
    "DiagnosticsReport",
    "FilterState",
    "InvWishartParams",
    "ModelSpec",
    "MultiTParams",
    "Priors",
    "SimPath",
    "SingularBetaParams",
    "StepResult",
    "Trajectory",
    "compute_diagnostics",
    "compute_n",
    "errors",
    "evolve_precision",
    "grid_search",
    "invwishart_logpdf",
    "invwishart_sample",
    "linear_transform",
    "matrix_normal_sample",
    "mle_constant",
    "mvt_logpdf",
    "predict",
    "run",
    "simulate",
    "singular_beta_sample",
    "update",
    "validate",
    "var_portfolio",
    "wishart_sample",
]
