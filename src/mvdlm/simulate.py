"""Generative sampling from the full model.

Draws an initial volatility matrix from its inverted-Wishart prior, an
initial state conditional on it, then alternates the stochastic precision
evolution, the matrix-normal state evolution and the observation equation.
Omega_t, F_t and G_t come from the filter's data-free covariance pass, so
simulated paths are the oracle for filter calibration. A per-step loop only
draws; the stacked pass takes Phi_t's factor from a chain of triangular products.
"""

from dataclasses import dataclass

import numpy as np

from .distributions import _evolution_constants, _psd_lower_factor
from .distributions import invwishart_sample, matrix_normal_sample
from .errors import EmptyData, NonPositiveDefinite
from .filter import _check_finite, covariance_pass
from .linalg import (cholesky_upper, cholesky_upper_stack, factor_symmetric, solve_lower_stack,
                     symmetrize)
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
    raises :class:`StateOverflow`, and a precision draw past it :class:`NonPositiveDefinite`.
    """
    n = validate(spec, priors)
    if n_steps < 1:
        raise EmptyData("n_steps must be at least 1")
    cov = covariance_pass(spec, priors.P0, n_steps)
    _check_finite(cov.omega, np.arange(spec.d), 1)
    if rng is None:
        rng = np.random.default_rng(seed)
    p, d = spec.p, spec.d
    sigma = (invwishart_sample(n + 2 * p, priors.S0, rng) if sigma0 is None
             else symmetrize(np.atleast_2d(sigma0)))
    theta = (matrix_normal_sample(priors.m0, priors.P0, sigma, rng) if theta0 is None
             else np.atleast_2d(np.asarray(theta0, dtype=float)))

    # Per step, in the samplers' order: the Bartlett gammas, then one row of
    # normals: the Bartlett's, u, the state's where Omega_t != 0, the observation's.
    evolving = not spec.constant_volatility
    k = p * (p + 1) // 2 if evolving else 0
    normals = np.zeros((n_steps, k + d * p + p))
    moving = cov.omega.any(axis=(1, 2))
    if evolving:
        half_dofs, gammas = _evolution_constants(spec.vol_discounts, n), np.empty((n_steps, p))
        root_beta = np.sqrt(spec.vol_discounts)
    for i, move in enumerate(moving.tolist()):
        if evolving:
            gammas[i] = [rng.gamma(half_dof, 2.0) for half_dof in half_dofs]
        rng.standard_normal(out=normals[i] if move else normals[i, :k])
        if not move:
            rng.standard_normal(out=normals[i, -p:])
    if evolving:  # [T_t u_t] gives C_t'C_t = T_tT_t' + u_tu_t' and W_t^{-1} = T_t^{-1}C_t'
        below, tu = np.tri(p, p + 1, k=-1, dtype=bool), np.zeros((n_steps, p, p + 1))
        tu[:, below], tu[:, :, p] = normals[:, :k - p], normals[:, k - p:k]
        tu.reshape(n_steps, -1)[:, ::p + 2] = np.sqrt(gammas)
        c = cholesky_upper_stack(tu @ tu.swapaxes(1, 2))
        # X_t = V_t^{-1} from the lower X_0 with X_0'X_0 = Sigma_0 (the reversed factor).
        x, prev = np.empty_like(c), factor_symmetric(sigma[::-1, ::-1])[::-1, ::-1]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # T_tY_t = C_t' column by column, exactly 0 above the diagonal; a Bartlett
            # diagonal drawn as 0 gives inf or NaN, which the check below raises on
            y = solve_lower_stack(tu[:, None, :, :p], c).swapaxes(1, 2)
            for i in range(n_steps):
                prev = x[i] = (y[i] @ prev) * root_beta
            diag = np.diagonal(x, axis1=1, axis2=2)
            if not 0.0 < diag.min() <= diag.max() < np.inf:
                raise NonPositiveDefinite("a precision draw left the float range")
            volatilities = symmetrize(x.swapaxes(1, 2) @ x)
            root = cholesky_upper_stack(volatilities)
    else:
        volatilities = np.broadcast_to(sigma, (n_steps, p, p)).copy()
        root = cholesky_upper(sigma)
    try:
        lower = cholesky_upper_stack(cov.omega).swapaxes(1, 2)
    except NonPositiveDefinite:  # a zero Omega_t, or one rounded to indefinite
        lower = np.array([_psd_lower_factor(m) if m.any() else m for m in cov.omega])
    noise = normals[:, k:].reshape(n_steps, d + 1, p) @ root  # [Z_t; z_t'] times R_t
    state_noise = lower @ noise[:, :d]
    states = np.empty((n_steps, d, p))
    for i in range(n_steps):
        theta = states[i] = cov.G[i] @ theta + state_noise[i]
    observations = (states.swapaxes(1, 2) @ cov.F[:, :, None])[..., 0] + noise[:, d]
    return SimPath(observations=observations, states=states, volatilities=volatilities)
