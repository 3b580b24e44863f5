"""The sequential conjugate filter.

One engine of two passes drives both branches. The state pass runs the
beta-independent recursions once per (delta, F, G):

    R_t = G_t P_{t-1} G_t' + Omega_t,    Q_t = F_t' R_t F_t + 1
    e_t = y_t - m_{t-1}' G_t' F_t,       m_t = G_t m_{t-1} + R_t F_t e_t' / Q_t
    P_t = R_t - R_t F_t F_t' R_t / Q_t

and the volatility pass runs, for K candidate discount vectors at once,

    S_t = beta^{1/2} S_{t-1} beta^{1/2} + e_t e_t' / Q_t
    n_t = tr(beta)/p * n_{t-1} + 1

At beta = I, n grows by one per observation (the constant-volatility
branch); with beta < I and n = 1/(1 - tr(beta)/p) it is a fixed point of
the last line. Also here: the maximum-likelihood estimator of a constant
volatility and closure under full-row-rank linear maps of y_t.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import write_csv
from .distributions import InvWishartParams, MultiTParams
from .errors import (
    DimensionMismatch,
    DofTooSmall,
    EmptyData,
    FeatureUnavailable,
    MvdlmError,
    NonPositiveDefinite,
    RankDeficient,
    StateOverflow,
)
from .linalg import cholesky_upper_stack, symmetrize, vech_indices
from .model import FilterState, ModelSpec, Priors, validate

FIXED_POINT_TOL = 1e-9
CLOSED_FORM_RTOL = 1e-8


@dataclass(frozen=True)
class Prediction:
    """One-step-ahead quantities computed before seeing y_t."""

    t: int
    R: np.ndarray
    f: np.ndarray
    Q: float
    sigma_prior: InvWishartParams
    forecast: MultiTParams
    sigma_forecast_mean: np.ndarray | None


@dataclass(frozen=True)
class StepResult:
    """Per-step byproducts of a predict/update cycle.

    ``u`` is the standardized forecast error and is None when the forecast
    law has 2 or fewer degrees of freedom.
    """

    t: int
    f: np.ndarray
    Q: float
    R: np.ndarray
    e: np.ndarray
    r: np.ndarray
    u: np.ndarray | None
    sigma_prior: InvWishartParams
    sigma_post: InvWishartParams


@dataclass(frozen=True)
class StatePass:
    """Output of the state recursions over N steps (independent of beta)."""

    f: np.ndarray  # (N, p) forecast means
    e: np.ndarray  # (N, p) forecast errors
    Q: np.ndarray  # (N,) forecast spreads
    R: np.ndarray  # (N, d, d) prior state covariances
    m: np.ndarray  # (d, p) posterior state mean after step N
    P: np.ndarray  # (d, d) posterior state covariance after step N


@dataclass(frozen=True)
class VolatilityPass:
    """Output of the volatility recursions for K discount vectors."""

    S: np.ndarray  # (K, N+1, p, p) scales S_0..S_N
    n: np.ndarray  # (K, N+1) degrees of freedom n_0..n_N
    u: np.ndarray  # (K, N, p) standardized errors, NaN where dof <= 2


def _iw_means(scales, dof, p):
    """Inverted-Wishart means scale / (dof - 2p - 2) of a stack of scales,
    NaN where the mean is undefined."""
    divisor = np.asarray(dof - 2 * p - 2, dtype=float)[..., None, None]
    means = np.full(scales.shape, np.nan)
    return np.divide(scales, divisor, out=means, where=divisor > 0)


@dataclass
class Trajectory:
    """Filter output over N steps, stored as arrays.

    ``steps`` rebuilds per-step :class:`StepResult` records from the arrays
    on each access, for callers of the single-step API; the package itself
    works on the arrays.
    """

    f: np.ndarray  # (N, p) forecast means
    e: np.ndarray  # (N, p) forecast errors
    Q: np.ndarray  # (N,) forecast spreads
    R: np.ndarray  # (N, d, d) prior state covariances
    S: np.ndarray  # (N+1, p, p) volatility scales S_0 (the prior)..S_N
    n: np.ndarray  # (N+1,) degrees of freedom n_0..n_N
    u: np.ndarray  # (N, p) standardized errors, NaN where forecast dof <= 2
    final: FilterState
    spec: ModelSpec
    priors: Priors
    constant_volatility: bool
    sqrt_convention: str = "spectral"

    # Descriptive names of the arrays, as earlier versions spelled them.
    forecasts = property(lambda self: self.f)
    errors = property(lambda self: self.e)
    q_values = property(lambda self: self.Q)
    standardized = property(lambda self: self.u)
    residuals = property(lambda self: self.e / self.Q[:, None])
    p = property(lambda self: self.spec.p)

    @classmethod
    def from_passes(cls, states, vol, k, spec, priors, sqrt_convention):
        """Trajectory of row ``k`` of a volatility pass (views, no copies)."""
        S, n = vol.S[k], vol.n[k]
        final = FilterState(t=len(states.Q), m=states.m, P=states.P, S=S[-1], n=float(n[-1]))
        return cls(
            states.f, states.e, states.Q, states.R, S, n, vol.u[k], final, spec,
            priors, spec.constant_volatility, sqrt_convention,
        )

    def __len__(self):
        return len(self.Q)

    @property
    def prior_scales(self):
        """Scales beta^{1/2} S_{t-1} beta^{1/2} of the one-step priors, (N, p, p)."""
        root = self.spec.beta_sqrt
        return symmetrize(self.S[:-1] * np.outer(root, root))

    @property
    def forecast_dofs(self):
        """Degrees of freedom k_t = tr(beta)/p n_{t-1} of the forecast laws, (N,)."""
        return self.spec.mean_beta * self.n[:-1]

    @property
    def posterior_means(self):
        """Posterior-mean volatilities Sigma_0..Sigma_N, NaN where undefined."""
        return _iw_means(self.S, self.n + 2 * self.p, self.p)

    @property
    def forecast_means(self):
        """One-step forecast means of the volatility, NaN where undefined."""
        return _iw_means(self.prior_scales, self.forecast_dofs + 2 * self.p, self.p)

    @property
    def steps(self):
        """Per-step records rebuilt from the arrays (a read-only view)."""
        p = self.p
        prior_scales = self.prior_scales
        prior_dofs = self.forecast_dofs + 2 * p
        return tuple(
            StepResult(
                i + 1, self.f[i], float(self.Q[i]), self.R[i], self.e[i],
                self.e[i] / self.Q[i], None if np.isnan(self.u[i, 0]) else self.u[i],
                InvWishartParams(prior_dofs[i], prior_scales[i]),
                InvWishartParams(self.n[i + 1] + 2 * p, self.S[i + 1]),
            )
            for i in range(len(self))
        )

    def posterior_mean_path(self, include_initial=True):
        """Plug-in volatility path from the per-step posterior means.

        Returns the (N+1, p, p) array Sigma_0, Sigma_1, ..., Sigma_N
        (Sigma_0 comes from the priors) or Sigma_1..Sigma_N when
        ``include_initial`` is false. Raises when a mean is undefined.
        """
        means = self.posterior_means
        if not include_initial:
            means = means[1:]
        if np.isnan(means).any():
            raise DofTooSmall(
                f"posterior mean of the volatility requires n > 2, got {self.n.min()}"
            )
        return means


def _delta_outer(spec):
    """Delta^{1/2} 1 1' Delta^{1/2} with Delta = diag((1 - delta_i)/delta_i)."""
    root = np.sqrt((1.0 - spec.state_discounts) / spec.state_discounts)
    return np.outer(root, root)


def _state_prior(m, P, g, f_vec, delta_outer, t):
    """R_t, f_t and Q_t from the posterior at t-1.

    G P G' is formed once and inflated by the discount matrix. A
    non-finite R_t or Q_t raises :class:`StateOverflow` naming the step and
    the state component; callers silence numpy's overflow warnings for it.
    """
    inner = g @ P @ g.T
    r_mat = symmetrize(inner + symmetrize(inner * delta_outer))
    f = (g @ m).T @ f_vec
    q = float(f_vec @ r_mat @ f_vec) + 1.0
    if not (np.isfinite(q) and np.isfinite(r_mat).all()):
        bad = ~np.isfinite(r_mat).all(axis=1)
        where = f"state component {int(np.argmax(bad)) + 1}" if bad.any() else "Q_t"
        raise StateOverflow(
            f"state covariance overflowed at step {t} in {where}: the state "
            "discounts inflate a component the observations do not inform"
        )
    return r_mat, f, q


def _state_posterior(m, g, f_vec, r_mat, q, e):
    """m_t and P_t after absorbing the forecast error e_t."""
    gain = r_mat @ f_vec / q
    m_new = g @ m + np.outer(gain, e)
    return m_new, symmetrize(r_mat - np.outer(gain, f_vec @ r_mat))


def _discount(S, beta_outer):
    """Prior scale beta^{1/2} S beta^{1/2} (element-wise with sqrt(b) sqrt(b)')."""
    return symmetrize(S * beta_outer)


def _absorb(prior_scale, e, q):
    """Posterior scale prior + e e' / Q."""
    return symmetrize(prior_scale + np.outer(e, e) / q)


def _whiten_rows(e, q, scale, dof, method):
    """Standardized errors {(dof - 2) Q^{-1} scale^{-1}}^{1/2} e over a
    (..., p, p) stack of scales; rows with dof <= 2 come back NaN.

    Spectral: with scale = V diag(lam) V', u = V (V'e / sqrt(lam)), never
    forming the root. Cholesky: u = C e, C the upper factor of the whitening
    matrix.
    """
    factor = np.sqrt(np.where(dof > 2.0, dof - 2.0, np.nan) / q)[..., None]
    if method == "spectral":
        lam, vecs = np.linalg.eigh(scale)
        if np.any(lam <= 0.0):
            raise NonPositiveDefinite("volatility scale has a non-positive eigenvalue")
        coef = (np.swapaxes(vecs, -1, -2) @ e[..., None])[..., 0] / np.sqrt(lam)
        return (vecs @ coef[..., None])[..., 0] * factor
    if method == "cholesky":
        root_inv = np.linalg.inv(cholesky_upper_stack(scale))  # scale^{-1} = C^{-1} C^{-T}
        upper = cholesky_upper_stack(root_inv @ np.swapaxes(root_inv, -1, -2))
        return (upper @ e[..., None])[..., 0] * factor
    raise ValueError(f"unknown square-root method {method!r}")


def _whiten(e, q, scale, dof, method):
    """Standardize one forecast error; needs dof > 2."""
    if dof <= 2.0:
        raise DofTooSmall(
            f"standardization requires more than 2 degrees of freedom, got {dof}"
        )
    return _whiten_rows(e, q, scale, dof, method)


def _as_observation_matrix(observations, p):
    obs = np.asarray(observations, dtype=float)
    if obs.size == 0:
        return np.empty((0, p))
    if obs.ndim == 1:
        if p != 1:
            raise DimensionMismatch("1-d observations only valid when p = 1")
        obs = obs.reshape(-1, 1)
    if obs.ndim != 2 or obs.shape[1] != p:
        raise DimensionMismatch(
            f"observations have shape {obs.shape}, expected (N, {p})"
        )
    return obs


def state_pass(spec, priors, observations):
    """Run the beta-independent state recursions over every observation.

    F_t and G_t are resolved per step, so time-varying designs work.
    Returns a :class:`StatePass`.
    """
    y = _as_observation_matrix(observations, spec.p)
    missing = ~np.isfinite(y).all(axis=1)
    if missing.any():
        raise DimensionMismatch(
            f"observation at step {int(np.argmax(missing)) + 1} has missing or "
            "non-finite components"
        )
    n_steps = y.shape[0]
    f = np.empty((n_steps, spec.p))
    e = np.empty((n_steps, spec.p))
    q = np.empty(n_steps)
    r = np.empty((n_steps, spec.d, spec.d))
    m, P = priors.m0, priors.P0
    delta_outer = _delta_outer(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            t = i + 1
            g = spec.evolution_at(t)
            f_vec = spec.design_at(t)
            r[i], f[i], q[i] = _state_prior(m, P, g, f_vec, delta_outer, t)
            e[i] = y[i] - f[i]
            m, P = _state_posterior(m, g, f_vec, r[i], q[i], e[i])
    return StatePass(f=f, e=e, Q=q, R=r, m=m, P=P)


def volatility_pass(e, Q, betas, S0, n, sqrt_method="spectral", check_identities=True):
    """Run the volatility recursions for K discount vectors at once.

    ``betas`` is (K, p) and ``n`` the starting degrees of freedom (scalar or
    (K,)). Rows with every beta_i = 1 grow n by one per step; for the
    others n must be the fixed point 1/(1 - tr(beta)/p), which is asserted.
    With ``check_identities`` the closed-form expression for S_N is checked
    against the recursion to relative 1e-8 for every time-varying row.
    Returns a :class:`VolatilityPass`.
    """
    betas = np.atleast_2d(np.asarray(betas, dtype=float))
    n_cells, p = betas.shape
    n_steps = len(Q)
    mean_beta = np.array([float(np.mean(beta)) for beta in betas])
    constant = np.all(betas == 1.0, axis=1)
    n0 = np.broadcast_to(np.asarray(n, dtype=float), (n_cells,))
    drift = np.abs(mean_beta * n0 + 1.0 - n0)
    off = ~constant & (drift > FIXED_POINT_TOL * np.maximum(1.0, np.abs(n0)))
    if off.any():
        k = int(np.argmax(off))
        raise MvdlmError(
            f"degrees-of-freedom fixed point violated at step 1: "
            f"{mean_beta[k] * n0[k] + 1.0} != {n0[k]}"
        )
    growth = np.broadcast_to(constant[:, None], (n_cells, n_steps))
    n_path = np.cumsum(np.hstack([n0[:, None], growth]), axis=1)
    roots = np.sqrt(betas)
    beta_outer = roots[:, :, None] * roots[:, None, :]
    S = np.empty((n_cells, n_steps + 1, p, p))
    S[:, 0] = S0
    for i in range(n_steps):
        S[:, i + 1] = _absorb(_discount(S[:, i], beta_outer), e[i], Q[i])
    prior_scales = _discount(S[:, :-1], beta_outer[:, None])
    dof = mean_beta[:, None] * n_path[:, :-1]
    u = _whiten_rows(e, Q, prior_scales, dof, sqrt_method)
    if check_identities and n_steps and not constant.all():
        final = S[~constant, -1]
        closed = _closed_form_scales(e, Q, roots[~constant], S0)
        rel = np.max(np.abs(closed - final), axis=(1, 2)) / np.maximum(
            np.max(np.abs(final), axis=(1, 2)), 1e-300
        )
        if np.any(rel > CLOSED_FORM_RTOL):
            raise MvdlmError(
                f"closed-form scale accumulation deviates from the recursion "
                f"(relative error {float(np.max(rel)):.3e})"
            )
    return VolatilityPass(S=S, n=n_path, u=u)


def _closed_form_scales(e, q, roots, S0):
    """Direct evaluation of the accumulated-scale identity at the horizon.

    S_T = beta^{T/2} S_0 beta^{T/2} + sum_i beta^{i/2} r_{T-i} e_{T-i}' beta^{i/2}
    computed without using the recursion, for each row of ``roots`` (K, p).
    """
    big_t = len(q)
    decay = roots**big_t
    total = S0 * (decay[:, :, None] * decay[:, None, :])
    ages = big_t - np.arange(1, big_t + 1)  # beta exponent i for step t
    weights = roots[:, None, :] ** ages[None, :, None]
    r_scaled = (e / q[:, None]) * weights
    total = total + np.swapaxes(r_scaled, 1, 2) @ (e * weights)
    return symmetrize(total)


def _closed_form_scale(trajectory):
    """The accumulated-scale identity evaluated for one trajectory."""
    roots = trajectory.spec.beta_sqrt[None, :]
    return _closed_form_scales(trajectory.e, trajectory.Q, roots, trajectory.priors.S0)[0]


def predict(state, spec, t):
    """One-step prediction from the posterior at t-1.

    Returns the prior state covariance R_t, the forecast mean and spread,
    the inverted-Wishart prior of the step volatility, the multivariate-t
    forecast law of y_t and (when defined) the forecast mean of the
    volatility matrix.
    """
    g = spec.evolution_at(t)
    f_vec = spec.design_at(t)
    with np.errstate(over="ignore", invalid="ignore"):
        r_mat, f, q = _state_prior(state.m, state.P, g, f_vec, _delta_outer(spec), t)
    root = spec.beta_sqrt
    scale_prior = _discount(state.S, np.outer(root, root))
    k = spec.mean_beta * state.n
    sigma_prior = InvWishartParams(dof=k + 2 * spec.p, scale=scale_prior)
    forecast = MultiTParams(dof=k, location=f, scale_row=q, scale_col=scale_prior)
    try:
        sigma_forecast_mean = sigma_prior.mean
    except MvdlmError:
        sigma_forecast_mean = None
    return Prediction(t, r_mat, f, q, sigma_prior, forecast, sigma_forecast_mean)


def update(state, y_t, spec, t, prediction=None, sqrt_method="spectral"):
    """Absorb the observation y_t, returning the new state and step record."""
    y_t = np.asarray(y_t, dtype=float)
    if y_t.shape != (spec.p,):
        raise DimensionMismatch(
            f"observation at step {t} has shape {y_t.shape}, expected {(spec.p,)}"
        )
    if not np.all(np.isfinite(y_t)):
        raise DimensionMismatch(
            f"observation at step {t} has missing or non-finite components"
        )
    if prediction is None or prediction.t != t:
        prediction = predict(state, spec, t)
    q = prediction.Q
    e = y_t - prediction.f
    m_new, p_new = _state_posterior(
        state.m, spec.evolution_at(t), spec.design_at(t), prediction.R, q, e
    )
    s_new = _absorb(prediction.sigma_prior.scale, e, q)
    n_new = spec.mean_beta * state.n + 1.0
    k = prediction.forecast.dof
    u = _whiten(e, q, prediction.sigma_prior.scale, k, sqrt_method) if k > 2.0 else None
    sigma_post = InvWishartParams(dof=n_new + 2 * spec.p, scale=s_new)
    step = StepResult(
        t, prediction.f, q, prediction.R, e, e / q, u, prediction.sigma_prior, sigma_post
    )
    return FilterState(t=t, m=m_new, P=p_new, S=s_new, n=n_new), step


def _filter(spec, priors, observations, n, sqrt_method, check_identities):
    """One state pass and a one-row volatility pass."""
    states = state_pass(spec, priors, observations)
    vol = volatility_pass(
        states.e, states.Q, spec.vol_discounts[None, :], priors.S0, n,
        sqrt_method, check_identities,
    )
    return Trajectory.from_passes(states, vol, 0, spec, priors, sqrt_method)


def run(spec, priors, observations, sqrt_method="spectral", check_identities=True):
    """Filter a full observation sequence.

    Dispatches to :func:`run_constant_volatility` when every beta_i = 1.
    In the time-varying branch the degrees-of-freedom fixed point is
    asserted, and with ``check_identities`` the closed-form expression for
    the final scale matrix is verified against the recursion to relative
    1e-8.
    """
    report = validate(spec, priors)
    if report.constant_volatility:
        return run_constant_volatility(spec, priors, observations, sqrt_method)
    return _filter(spec, priors, observations, report.n, sqrt_method, check_identities)


def run_constant_volatility(spec, priors, observations, sqrt_method="spectral"):
    """Filter under time-invariant volatility (all beta_i = 1).

    The scale matrix accumulates without decay and the degrees of freedom
    grow by one per observation, starting from the prior n0.
    """
    if not spec.constant_volatility:
        raise MvdlmError(
            "run_constant_volatility requires every volatility discount to be 1"
        )
    validate(spec, priors)
    return _filter(spec, priors, observations, float(priors.n0), sqrt_method, False)


def mle_constant(observations, spec, priors):
    """Closed-form maximum-likelihood estimate of a constant volatility.

    Averages the per-step cross products r_t e_t' of the residual and
    forecast errors produced by the constant-volatility recursions. The
    result is symmetrized; each term already is symmetric because
    r_t is proportional to e_t.
    """
    obs = _as_observation_matrix(observations, spec.p)
    if obs.shape[0] == 0:
        raise EmptyData("maximum-likelihood estimation needs observations")
    trajectory = run_constant_volatility(spec, priors, obs)
    return symmetrize(trajectory.residuals.T @ trajectory.e / obs.shape[0])


@dataclass(frozen=True)
class LinearTransformResult:
    """Outcome of filtering a linearly transformed observation series."""

    trajectory: Trajectory
    base_trajectory: Trajectory
    transform: np.ndarray
    marginal_dof: float
    max_closure_error: float


def linear_transform(spec, priors, observations, a_matrix, sqrt_method="spectral"):
    """Filter y*_t = A y_t and verify closure of the scale recursion.

    A must be q x p with full row rank. With a scalar discount matrix
    (beta = b I_p) the transformed run satisfies S*_t = A S_t A' exactly;
    that identity is asserted to 1e-10. For non-scalar beta the transform
    is only supported when A selects coordinates, the per-coordinate
    discounts carry over, and a warning notes that exact closure of the
    general transform is not established.

    ``marginal_dof`` reports the inverted-Wishart degrees-of-freedom
    parameter of the transformed posterior implied by closure,
    n + 2(p - q) + 2q.
    """
    a_matrix = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    q_dim, p = a_matrix.shape
    if p != spec.p:
        raise DimensionMismatch(
            f"transform has {p} columns, expected {spec.p}"
        )
    if q_dim > p or np.linalg.matrix_rank(a_matrix) < q_dim:
        raise RankDeficient("transform must have full row rank q <= p")
    beta = spec.vol_discounts
    if np.all(beta == beta[0]):
        beta_star = np.full(q_dim, beta[0])
    else:
        selection = _selection_rows(a_matrix)
        if selection is None:
            raise FeatureUnavailable(
                "exact closure under a general transform requires a scalar "
                "discount matrix; non-scalar discounts only support "
                "coordinate-selection transforms"
            )
        beta_star = beta[selection]
        warnings.warn(
            "non-scalar volatility discounts: closure is asserted for the "
            "selected coordinates only",
            stacklevel=2,
        )
    obs = _as_observation_matrix(observations, spec.p)
    base = run(spec, priors, obs, sqrt_method=sqrt_method)
    spec_star = replace(spec, p=q_dim, vol_discounts=beta_star)
    priors_star = Priors(
        priors.m0 @ a_matrix.T, priors.P0, a_matrix @ priors.S0 @ a_matrix.T, priors.n0
    )
    transformed = run(spec_star, priors_star, obs @ a_matrix.T, sqrt_method=sqrt_method)
    expected = a_matrix @ base.S[1:] @ a_matrix.T
    err = np.max(np.abs(transformed.S[1:] - expected), axis=(1, 2), initial=0.0)
    scale = np.maximum(np.max(np.abs(expected), axis=(1, 2), initial=0.0), 1.0)
    max_err = float(np.max(err / scale, initial=0.0))
    if max_err > 1e-10:
        raise MvdlmError(
            f"scale closure violated: max relative deviation {max_err:.3e}"
        )
    marginal_dof = float(base.n[0]) + 2 * (spec.p - q_dim) + 2 * q_dim
    return LinearTransformResult(transformed, base, a_matrix, marginal_dof, max_err)


def _selection_rows(a_matrix):
    """Indices selected by a 0/1 coordinate-selection matrix, else None."""
    rows = np.argmax(a_matrix != 0.0, axis=1)
    unit_rows = np.array_equal(a_matrix, np.eye(a_matrix.shape[1])[rows])
    return rows if unit_rows and len(set(rows.tolist())) == len(rows) else None


def trajectory_to_csv(trajectory, path):
    """Write the per-step record to CSV with a fixed, documented column order.

    Columns: t, f_1..f_p, e_1..e_p, u_1..u_p, Q, the lower triangle of the
    posterior-mean volatility (column-stacked, named sigma_post_i_j) and
    the lower triangle of the forecast-mean volatility (sigma_fore_i_j).
    Moments that are undefined under the model's discounts are written as
    NaN rather than being invented.
    """
    p = trajectory.p
    pairs = vech_indices(p)
    header = [
        "t", *(f"{name}_{i + 1}" for name in "feu" for i in range(p)), "Q",
        *(f"sigma_{kind}_{i + 1}_{j + 1}" for kind in ("post", "fore") for i, j in pairs),
    ]
    rows, cols = (np.array(idx) for idx in zip(*pairs))
    table = np.column_stack([
        trajectory.f, trajectory.e, trajectory.u, trajectory.Q,
        trajectory.posterior_means[1:, rows, cols], trajectory.forecast_means[:, rows, cols],
    ])
    write_csv(path, [header], range(1, len(table) + 1), table)
