"""Model definition: dimensions, design/evolution sequences, discounts, priors.

The observation vector y_t (length p) follows a state-space model with a
d x p state matrix, a d-vector design sequence F_t and a d x d evolution
sequence G_t. Two groups of discount factors drive the dynamics: the state
discounts delta_1..delta_d inflate the state covariance from step to step,
and the volatility discounts beta_1..beta_p govern the stochastic evolution
of the innovation covariance matrix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDegrees,
    DimensionMismatch,
    DiscountOutOfRange,
    NonPositiveDefinite,
)
from .linalg import cholesky_upper_stack, symmetrize

# Thresholds on the mean volatility discount tr(beta)/p.
POSTERIOR_MEAN_THRESHOLD = 0.5
FORECAST_MOMENT_THRESHOLD = 2.0 / 3.0


def _resolve_sequence(provider, t, shape, what):
    """Look up a (possibly time-varying) matrix/vector sequence at step t.

    ``provider`` may be a constant array or a callable t -> array.
    """
    value = np.asarray(provider(t) if callable(provider) else provider, dtype=float)
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


def check_discounts(values, name):
    """Raise :class:`DiscountOutOfRange` at the first discount outside (0, 1],
    naming it ``<name>_<i>``."""
    for i, value in enumerate(values):
        if not 0.0 < value <= 1.0:
            raise DiscountOutOfRange(f"{name}_{i + 1} = {value}")


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model configuration.

    Parameters
    ----------
    p : int
        Observation dimension.
    d : int
        State dimension.
    design : array_like or callable
        Sequence provider t -> F_t (d-vector). A plain array is treated as
        constant in time.
    evolution : array_like or callable
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
        check_discounts(self.state_discounts, "state discount delta")
        check_discounts(self.vol_discounts, "volatility discount beta")
        # Freeze constant providers as arrays of the right shape up front.
        for name, shape in (("design", (self.d,)), ("evolution", (self.d, self.d))):
            provider = getattr(self, name)
            if not callable(provider):
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
    def features(self):
        """The moment formulas the volatility discounts admit: the posterior
        mean of the volatility needs tr(beta)/p > 1/2, its one-step forecast
        mean and the standardized errors tr(beta)/p > 2/3. The
        constant-volatility branch admits both."""
        if self.constant_volatility:
            return {"posterior_mean": True, "forecast_moments": True}
        mean_beta = self.mean_beta
        return {
            "posterior_mean": mean_beta > POSTERIOR_MEAN_THRESHOLD,
            "forecast_moments": mean_beta > FORECAST_MOMENT_THRESHOLD,
        }


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


def validate(spec, priors):
    """Check spec and priors; returns the working degrees of freedom: the
    prior ``n0`` when every beta_i = 1, else :func:`compute_n` of beta.

    What the discounts admit is :attr:`ModelSpec.features`.
    """
    matrices = {"m0": (spec.d, spec.p), "P0": (spec.d, spec.d), "S0": (spec.p, spec.p)}
    for name, shape in matrices.items():
        value = getattr(priors, name)
        if value.shape != shape:
            raise DimensionMismatch(f"{name} has shape {value.shape}, expected {shape}")
    for name in ("P0", "S0"):
        try:
            cholesky_upper_stack(getattr(priors, name))
        except NonPositiveDefinite as exc:
            raise NonPositiveDefinite(f"{name} is not positive definite") from exc
    # F_1 and G_1 must resolve; a matrix-valued design would make the
    # forecast spread non-scalar, which this model rules out.
    spec.design_at(1)
    spec.evolution_at(1)
    if spec.constant_volatility:
        return float(priors.n0)
    return compute_n(spec.vol_discounts)
