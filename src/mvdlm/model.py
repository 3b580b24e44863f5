"""Model definition: dimensions, design/evolution sequences, discounts, priors.

The observation vector y_t (length p) follows a state-space model with a
d x p state matrix, a d-vector design sequence F_t and a d x d evolution
sequence G_t. Two groups of discount factors drive the dynamics: the state
discounts delta_1..delta_d inflate the state covariance from step to step,
and the volatility discounts beta_1..beta_p govern the stochastic evolution
of the innovation covariance matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDegrees,
    DimensionMismatch,
    DiscountOutOfRange,
    NonPositiveDefinite,
)
from .linalg import cholesky_upper, symmetrize

# Thresholds on the mean volatility discount tr(beta)/p.
POSTERIOR_MEAN_THRESHOLD = 0.5
FORECAST_MOMENT_THRESHOLD = 2.0 / 3.0


def _resolve_sequence(provider, t, shape, what):
    """Look up a (possibly time-varying) matrix/vector sequence at step t.

    ``provider`` may be a constant array, a dict keyed by step index, or a
    callable t -> array. Dict providers fall back to the entry under key
    ``None`` when the step is absent.
    """
    if callable(provider):
        value = provider(t)
    elif isinstance(provider, dict):
        value = provider.get(t, provider.get(None))
        if value is None:
            raise DimensionMismatch(f"no {what} entry for step {t}")
    else:
        value = provider
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise DimensionMismatch(
            f"{what} at step {t} has shape {value.shape}, expected {shape}"
        )
    return value


def compute_n(beta):
    """Working degrees of freedom 1 / (1 - tr(beta)/p).

    Raises :class:`DegenerateDegrees` when the mean discount equals 1
    (the constant-volatility branch has no finite fixed point).
    """
    beta = np.asarray(beta, dtype=float)
    mean_beta = float(np.mean(beta))
    if mean_beta >= 1.0:
        raise DegenerateDegrees(
            "mean volatility discount is 1; use the constant-volatility branch"
        )
    return 1.0 / (1.0 - mean_beta)


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model configuration.

    Parameters
    ----------
    p : int
        Observation dimension.
    d : int
        State dimension.
    design : array_like, dict or callable
        Sequence provider t -> F_t (d-vector). A plain array is treated as
        constant in time.
    evolution : array_like, dict or callable
        Sequence provider t -> G_t (d x d matrix), same conventions.
    state_discounts : array_like
        delta_1..delta_d, each in (0, 1].
    vol_discounts : array_like
        beta_1..beta_p, each in (0, 1].
    """

    p: int
    d: int
    design: object
    evolution: object
    state_discounts: np.ndarray
    vol_discounts: np.ndarray

    def __post_init__(self):
        if self.p < 1 or self.d < 1:
            raise DimensionMismatch("dimensions p and d must be at least 1")
        object.__setattr__(
            self, "state_discounts", np.asarray(self.state_discounts, dtype=float)
        )
        object.__setattr__(
            self, "vol_discounts", np.asarray(self.vol_discounts, dtype=float)
        )
        if self.state_discounts.shape != (self.d,):
            raise DimensionMismatch("state_discounts must have length d")
        if self.vol_discounts.shape != (self.p,):
            raise DimensionMismatch("vol_discounts must have length p")
        for i, delta in enumerate(self.state_discounts):
            if not 0.0 < delta <= 1.0:
                raise DiscountOutOfRange(f"state discount delta_{i + 1} = {delta}")
        for i, beta in enumerate(self.vol_discounts):
            if not 0.0 < beta <= 1.0:
                raise DiscountOutOfRange(f"volatility discount beta_{i + 1} = {beta}")
        # Freeze constant providers as arrays of the right shape up front.
        for name, shape in (("design", (self.d,)), ("evolution", (self.d, self.d))):
            provider = getattr(self, name)
            if not callable(provider) and not isinstance(provider, dict):
                object.__setattr__(self, name, _resolve_sequence(provider, 1, shape, name))

    def design_at(self, t):
        """F_t as a d-vector."""
        return _resolve_sequence(self.design, t, (self.d,), "design")

    def evolution_at(self, t):
        """G_t as a d x d matrix."""
        return _resolve_sequence(self.evolution, t, (self.d, self.d), "evolution")

    @property
    def time_invariant(self):
        """True when F and G are constant arrays."""
        return isinstance(self.design, np.ndarray) and isinstance(self.evolution, np.ndarray)

    @property
    def mean_beta(self):
        """tr(beta)/p, the mean volatility discount."""
        return float(np.mean(self.vol_discounts))

    @property
    def constant_volatility(self):
        """True when every beta_i equals 1 (time-invariant volatility)."""
        return bool(np.all(self.vol_discounts == 1.0))

    @property
    def beta_sqrt(self):
        """Element-wise square roots of the volatility discounts."""
        return np.sqrt(self.vol_discounts)

    def working_dof(self):
        """The fixed degrees of freedom of the time-varying branch."""
        return compute_n(self.vol_discounts)


@dataclass(frozen=True)
class Priors:
    """Initial state and volatility hyperparameters.

    ``n0`` is only consulted in the constant-volatility branch; the
    time-varying branch forces its working degrees of freedom from the
    volatility discounts.
    """

    m0: np.ndarray
    P0: np.ndarray
    S0: np.ndarray
    n0: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "m0", np.atleast_2d(np.asarray(self.m0, dtype=float)))
        object.__setattr__(self, "P0", symmetrize(np.atleast_2d(self.P0)))
        object.__setattr__(self, "S0", symmetrize(np.atleast_2d(self.S0)))


@dataclass
class FilterState:
    """Posterior quantities after absorbing observations up to step t.

    ``m`` is the d x p state mean, ``P`` the d x d left covariance, ``S``
    the p x p volatility scale matrix and ``n`` the degrees of freedom
    (constant across steps in the time-varying branch, n0 + t otherwise).
    """

    t: int
    m: np.ndarray
    P: np.ndarray
    S: np.ndarray
    n: float


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: branch, degrees of freedom and features."""

    p: int
    d: int
    mean_beta: float
    constant_volatility: bool
    n: float
    features: dict = field(default_factory=dict)
    notes: tuple = ()


def validate(spec, priors):
    """Check spec and priors, returning the resolved branch and feature set.

    Features gate the moment formulas: the one-step forecast mean of the
    volatility needs tr(beta)/p > 2/3 and the posterior mean needs
    tr(beta)/p > 1/2. In the constant-volatility branch both are available
    once enough observations have accumulated, so they are reported enabled.
    """
    matrices = {"m0": (spec.d, spec.p), "P0": (spec.d, spec.d), "S0": (spec.p, spec.p)}
    for name, shape in matrices.items():
        value = getattr(priors, name)
        if value.shape != shape:
            raise DimensionMismatch(f"{name} has shape {value.shape}, expected {shape}")
    for name in ("P0", "S0"):
        try:
            cholesky_upper(getattr(priors, name))
        except NonPositiveDefinite as exc:
            raise NonPositiveDefinite(f"{name} is not positive definite") from exc
    # F_1 and G_1 must resolve; a matrix-valued design would make the
    # forecast spread non-scalar, which this model rules out.
    spec.design_at(1)
    spec.evolution_at(1)

    mean_beta = spec.mean_beta
    notes = []
    if spec.constant_volatility:
        n = float(priors.n0)
        features = {"posterior_mean": True, "forecast_moments": True}
        notes.append(
            "constant-volatility branch: degrees of freedom grow by 1 per step"
        )
    else:
        n = compute_n(spec.vol_discounts)
        features = {
            "posterior_mean": mean_beta > POSTERIOR_MEAN_THRESHOLD,
            "forecast_moments": mean_beta > FORECAST_MOMENT_THRESHOLD,
        }
        if not features["posterior_mean"]:
            notes.append(
                f"mean_beta = {mean_beta:.6g} <= 1/2: posterior mean of the "
                "volatility is unavailable"
            )
        if not features["forecast_moments"]:
            notes.append(
                f"mean_beta = {mean_beta:.6g} <= 2/3: forecast mean and "
                "standardized errors are unavailable"
            )
    return ValidationReport(
        p=spec.p,
        d=spec.d,
        mean_beta=mean_beta,
        constant_volatility=spec.constant_volatility,
        n=n,
        features=features,
        notes=tuple(notes),
    )
