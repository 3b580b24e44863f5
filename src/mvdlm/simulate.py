"""Generative sampling from the full model.

Draws an initial volatility matrix from its inverted-Wishart prior, an
initial state conditional on it, then alternates the stochastic precision
evolution, the matrix-normal state evolution and the observation equation.
The state-evolution covariances Omega_t come from the filter's data-free
covariance pass, seeded from the prior state covariance, so simulated paths
are the oracle for filter calibration.
"""

from dataclasses import dataclass

import numpy as np

from .distributions import (
    evolve_precision,
    invwishart_sample,
    matrix_normal_sample,
)
from .filter import _check_finite, covariance_pass
from .linalg import cholesky_upper, inv_spd, symmetrize
from .model import ModelSpec, Priors, validate


@dataclass(frozen=True)
class SimPath:
    """A simulated trajectory: observations with their latent states and
    volatility matrices (one entry per step, aligned)."""

    observations: np.ndarray  # (N, p)
    states: np.ndarray  # (N, d, p)
    volatilities: np.ndarray  # (N, p, p)
    seed: int | None = None

    def __len__(self):
        return self.observations.shape[0]


def simulate(spec, priors, n_steps, rng=None, seed=None, sigma0=None, theta0=None):
    """Draw one path of length ``n_steps`` from the generative model.

    ``sigma0`` and ``theta0`` override the prior draws of the initial
    volatility and state (useful for fixed-truth calibration studies).
    When every volatility discount is 1 the volatility stays at its initial
    value for the whole path. An Omega_t that is not finite (the state
    discounts inflate a component past the float range within the horizon)
    raises :class:`StateOverflow`.
    """
    report = validate(spec, priors)
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    omega = covariance_pass(spec, priors.P0, n_steps).omega
    _check_finite(omega, np.arange(spec.d), 1)
    if rng is None:
        rng = np.random.default_rng(seed)
    p, d = spec.p, spec.d
    n = report.n
    if sigma0 is None:
        sigma0 = invwishart_sample(n + 2 * p, priors.S0, rng)
    else:
        sigma0 = symmetrize(np.atleast_2d(sigma0))
    if theta0 is None:
        theta0 = matrix_normal_sample(priors.m0, priors.P0, sigma0, rng)
    else:
        theta0 = np.atleast_2d(np.asarray(theta0, dtype=float))

    observations = np.empty((n_steps, p))
    states = np.empty((n_steps, d, p))
    volatilities = np.empty((n_steps, p, p))

    theta = theta0
    sigma = sigma0
    phi = None if report.constant_volatility else inv_spd(sigma0)
    for i in range(n_steps):
        t = i + 1
        if not report.constant_volatility:
            phi = evolve_precision(phi, spec.vol_discounts, n, rng)
            sigma = inv_spd(phi)
        w_noise = matrix_normal_sample(np.zeros((d, p)), omega[i], sigma, rng)
        theta = spec.evolution_at(t) @ theta + w_noise
        eps = cholesky_upper(sigma).T @ rng.standard_normal(p)
        observations[i] = theta.T @ spec.design_at(t) + eps
        states[i] = theta
        volatilities[i] = sigma
    return SimPath(
        observations=observations,
        states=states,
        volatilities=volatilities,
        seed=seed,
    )


@dataclass(frozen=True)
class PairedScenario:
    """A simulated 4-series local-level path with paired volatility
    discounts, together with the generating spec and priors."""

    path: SimPath
    spec: ModelSpec
    priors: Priors


def paired_volatility_scenario(
    n_steps=333,
    seed=0,
    beta_pair=(0.95, 0.92),
    delta=0.95,
    state_scale=0.01,
):
    """Four return-like series driven by two volatility regimes.

    The model is a local level with design [1, 0]' and identity evolution;
    the outer pair of series shares the first volatility discount and the
    inner pair the second, so series 1 and 4 co-move in volatility, as do
    series 2 and 3. The default discounts are close together on purpose:
    component volatilities drift apart geometrically at rate beta_2/beta_1
    per step under the generative evolution, so widely split pairs produce
    astronomically ill-conditioned paths over a few hundred steps.
    """
    beta1, beta2 = beta_pair
    spec = ModelSpec(
        p=4,
        d=2,
        design=np.array([1.0, 0.0]),
        evolution=np.eye(2),
        state_discounts=np.array([delta, delta]),
        vol_discounts=np.array([beta1, beta2, beta2, beta1]),
    )
    priors = Priors(
        m0=np.zeros((2, 4)),
        P0=state_scale * np.eye(2),
        S0=np.eye(4),
        n0=1.0,
    )
    path = simulate(spec, priors, n_steps, seed=seed)
    return PairedScenario(path=path, spec=spec, priors=priors)
