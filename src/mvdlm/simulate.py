"""Generative sampling from the full model.

Draws an initial volatility matrix from its inverted-Wishart prior, an
initial state conditional on it, then alternates the stochastic precision
evolution, the matrix-normal state evolution and the observation equation.
Omega_t, F_t and G_t come from the filter's data-free covariance pass, so
simulated paths are the oracle for filter calibration. The factor of Phi_t
checks the draw, is the next step's C_{t-1} and gives Sigma_t = Phi_t^{-1},
whose factor drives both the state and the observation noise.
"""

from dataclasses import dataclass

import numpy as np

from .distributions import _evolution_constants, _evolve_factored, _psd_lower_factor
from .distributions import invwishart_sample, matrix_normal_sample
from .errors import EmptyData
from .filter import _check_finite, covariance_pass
from .linalg import cholesky_upper, factor_symmetric, inv_factor, symmetrize
from .model import validate


@dataclass(frozen=True)
class SimPath:
    """A simulated trajectory: observations with their latent states and
    volatility matrices (one entry per step, aligned)."""

    observations: np.ndarray  # (N, p)
    states: np.ndarray  # (N, d, p)
    volatilities: np.ndarray  # (N, p, p)

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
    n = validate(spec, priors)
    if n_steps < 1:
        raise EmptyData("n_steps must be at least 1")
    cov = covariance_pass(spec, priors.P0, n_steps)
    _check_finite(cov.omega, np.arange(spec.d), 1)
    if rng is None:
        rng = np.random.default_rng(seed)
    p, d = spec.p, spec.d
    if sigma0 is None:
        sigma = invwishart_sample(n + 2 * p, priors.S0, rng)
    else:
        sigma = symmetrize(np.atleast_2d(sigma0))
    if theta0 is None:
        theta = matrix_normal_sample(priors.m0, priors.P0, sigma, rng)
    else:
        theta = np.atleast_2d(np.asarray(theta0, dtype=float))

    observations = np.empty((n_steps, p))
    states = np.empty((n_steps, d, p))
    volatilities = np.empty((n_steps, p, p))

    root = cholesky_upper(sigma)
    evolving = not spec.constant_volatility
    if evolving:
        half_dofs, scale_outer = _evolution_constants(spec.vol_discounts, n)
        phi_root = factor_symmetric(inv_factor(root))
    moving = cov.omega.any(axis=(1, 2))
    for i in range(n_steps):
        if evolving:
            _, phi_root = _evolve_factored(phi_root, half_dofs, scale_outer, rng)
            sigma = inv_factor(phi_root)
            root = factor_symmetric(sigma)
        theta = cov.G[i] @ theta
        if moving[i]:
            theta = theta + _psd_lower_factor(cov.omega[i]) @ rng.standard_normal((d, p)) @ root
        observations[i] = theta.T @ cov.F[i] + root.T @ rng.standard_normal(p)
        states[i] = theta
        volatilities[i] = sigma
    return SimPath(observations=observations, states=states, volatilities=volatilities)
