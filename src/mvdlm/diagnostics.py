"""Goodness-of-fit statistics, likelihood evaluation and model comparison.

The standardized one-step forecast errors drive the mean-of-squares
statistic (close to 1 per component under a well-specified model), the
sequential log Bayes factor compares two fitted models through the
predictive densities of their standardized errors, and the path
log-likelihood scores candidate discount configurations for grid search.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.stats
from scipy.special import gammaln, multigammaln

from .data import write_csv
from .distributions import InvWishartParams
from .errors import (
    DofTooSmall,
    EmptyData,
    EmptyGrid,
    FeatureUnavailable,
    InvalidWeights,
    LengthMismatch,
    LikelihoodUndefined,
    MvdlmError,
    NoPositiveEigenvalues,
)
from .filter import Trajectory, _discount, _whiten, state_pass, volatility_pass
from .linalg import cholesky_upper_stack, inv_spd, logdet_spd, symmetrize
from .model import compute_n, validate

EIGENVALUE_THRESHOLD = 1e-10
WEIGHT_TOL = 1e-10
GRID_BLOCK = 64  # candidates per batched volatility pass in grid_search


@dataclass(frozen=True)
class DiagnosticsReport:
    """Summary statistics of a filtered trajectory.

    ``msse`` averages the squared standardized errors component-wise (only
    over steps where standardization is defined), ``mae`` and ``me`` average
    the absolute and raw forecast errors, and ``loglik`` holds the
    branch-appropriate path log-likelihood when requested.
    """

    msse: np.ndarray
    mae: np.ndarray
    me: np.ndarray
    loglik: float | None
    n_obs: int
    sqrt_convention: str = "spectral"


@dataclass(frozen=True)
class VaRConfig:
    """Portfolio weights, confidence percentage and quantile family.

    ``alpha`` is the confidence percentage (95 and 99 are the conventional
    choices); ``quantile_family`` is "t" for the model-implied standardized
    Student t (requires ``dof`` > 2) or "normal". Weights must be
    nonnegative and sum to 1.
    """

    weights: np.ndarray
    alpha: float
    quantile_family: str = "t"
    dof: float | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "weights", np.atleast_1d(np.asarray(self.weights, dtype=float))
        )
        w = self.weights
        if np.any(w < -WEIGHT_TOL) or abs(float(np.sum(w)) - 1.0) > WEIGHT_TOL:
            raise InvalidWeights(
                "weights must be nonnegative and sum to 1 within 1e-10"
            )
        if not 0.0 < self.alpha < 100.0:
            raise InvalidWeights("alpha must be a percentage in (0, 100)")
        if self.quantile_family not in ("t", "normal"):
            raise InvalidWeights(
                f"unknown quantile family {self.quantile_family!r}"
            )


@dataclass(frozen=True)
class LbfSeries:
    """Per-step log Bayes factors of model 1 against model 2."""

    values: np.ndarray
    model_labels: tuple

    def __len__(self):
        return len(self.values)

    @property
    def cumulative(self):
        return float(np.sum(self.values))


def standardize(e, q, s_prev, vol_discounts=None, n=None, dof=None, method="spectral"):
    """Standardize a one-step forecast error.

    With volatility discounts supplied (all below 1) the predictive
    degrees of freedom are k = tr(beta)/p * n, defaulting n to the working
    value 1/(1 - tr(beta)/p), and the scale is beta^{1/2} S_prev beta^{1/2}.
    Without discounts (or with all discounts equal to 1) the caller passes
    the degrees of freedom explicitly and S_prev is used unscaled. Requires
    more than 2 degrees of freedom.
    """
    e = np.atleast_1d(np.asarray(e, dtype=float))
    s_prev = symmetrize(np.atleast_2d(s_prev))
    beta = np.atleast_1d(np.asarray(1.0 if vol_discounts is None else vol_discounts, dtype=float))
    if np.mean(beta) < 1.0:
        dof = float(np.mean(beta)) * (compute_n(beta) if n is None else n)
        root = np.sqrt(beta)
        s_prev = _discount(s_prev, np.outer(root, root))
    elif dof is None:
        raise DofTooSmall(
            "explicit degrees of freedom are required when no discounting "
            "below 1 is in effect"
        )
    if dof <= 2.0:
        raise DofTooSmall(
            f"standardization requires more than 2 degrees of freedom, got {dof}"
        )
    return _whiten(e, float(q), s_prev, float(dof), method)


def error_summary(e, u):
    """Component-wise MSSE, MAE and ME of forecast errors ``e`` and
    standardized errors ``u`` (N, p arrays).

    The MSSE averages over the steps where the standardized error exists
    (u not NaN); MAE and ME average the raw forecast errors over every step.
    """
    defined = ~np.isnan(u[:, 0])
    if not np.any(defined):
        raise FeatureUnavailable(
            "no standardized errors: the forecast law never had more than 2 "
            "degrees of freedom"
        )
    return np.mean(u[defined] ** 2, axis=0), np.mean(np.abs(e), axis=0), np.mean(e, axis=0)


def msse_mae_me(trajectory):
    """Component-wise MSSE, MAE and ME of a trajectory (log-likelihood unset)."""
    if len(trajectory) == 0:
        raise EmptyData("diagnostics need at least one filtered step")
    msse, mae, me = error_summary(trajectory.e, trajectory.u)
    return DiagnosticsReport(
        msse=msse,
        mae=mae,
        me=me,
        loglik=None,
        n_obs=len(trajectory),
        sqrt_convention=trajectory.sqrt_convention,
    )


def loglik_arrays(errors, q_values, sigma_path, vol_discounts, posterior=False):
    """Array-level core of the evolving-volatility path log-likelihood.

    ``sigma_path`` holds N+1 SPD matrices (the plug-in value at step 0
    followed by one per observation). For each step the positive
    eigenvalues of I - B_t, with
    B_t = (C_{t-1}')^{-1} beta^{1/2} Sigma_t^{-1} beta^{1/2} C_{t-1}^{-1}
    and C_{t-1} the upper Cholesky factor of Sigma_{t-1}^{-1}, enter
    through their log-determinant; eigenvalues below
    1e-10 * max(1, largest magnitude) are treated as zero.

    With ``posterior`` the path must be the posterior means
    Sigma_t = S_t / (n - 2) of the filter. There I - B_t has rank one and
    its only non-zero eigenvalue is e_t' S_t^{-1} e_t / Q_t, which is used
    directly instead of an eigendecomposition.
    """
    errors = np.atleast_2d(np.asarray(errors, dtype=float))
    q_values = np.atleast_1d(np.asarray(q_values, dtype=float))
    beta = np.atleast_1d(np.asarray(vol_discounts, dtype=float))
    n_steps, p = errors.shape
    if n_steps == 0:
        raise EmptyData("likelihood evaluation needs at least one step")
    b = float(np.mean(beta))
    if b >= 1.0:
        raise MvdlmError(
            "the evolving-volatility likelihood is undefined when every "
            "discount is 1; use loglik_constant"
        )
    m_param = b / (1.0 - b) + p - 1
    if m_param <= p - 1:
        raise LikelihoodUndefined(
            "the normalizing constant requires tr(beta)/p in (0, 1)"
        )
    if len(sigma_path) != n_steps + 1:
        raise LengthMismatch(
            f"sigma path must list {n_steps + 1} matrices (initial plus one "
            f"per step), got {len(sigma_path)}"
        )
    path = symmetrize(np.asarray(sigma_path, dtype=float).reshape(n_steps + 1, p, p))
    constant = n_steps * (
        0.5 * (m_param - p) * float(np.sum(np.log(beta)))
        + multigammaln((m_param + 1) / 2.0, p)
        - 0.5 * p * np.log(2.0)
        - p * np.log(np.pi)
        - multigammaln(m_param / 2.0, p)
    )
    upper = cholesky_upper_stack(path)  # Sigma_t = C_t' C_t
    logdet = 2.0 * np.sum(np.log(np.diagonal(upper, axis1=1, axis2=2)), axis=1)
    lower = np.swapaxes(upper, 1, 2)
    solved = np.linalg.solve(lower[1:], errors[:, :, None])[:, :, 0]
    quad = np.sum(solved * solved, axis=1) / q_values  # e' Sigma_t^{-1} e / Q
    if posterior:
        eigvals = (quad / (1.0 / (1.0 - b) - 2.0))[:, None]  # exact: no cutoff
        positive = eigvals > 0.0
    else:
        # I - B_t is similar to I - K_t'K_t with K_t = C_t'^{-1} beta^{1/2} C_{t-1}'
        k_mat = np.linalg.solve(lower[1:], np.sqrt(beta)[:, None] * lower[:-1])
        eigvals = np.linalg.eigvalsh(np.eye(p) - np.swapaxes(k_mat, 1, 2) @ k_mat)
        cutoff = EIGENVALUE_THRESHOLD * np.maximum(np.max(np.abs(eigvals), axis=1), 1.0)
        positive = eigvals > cutoff[:, None]
    if not positive.any(axis=1).all():
        step = int(np.argmin(positive.any(axis=1))) + 1
        raise NoPositiveEigenvalues(
            f"step {step}: the volatility transition factor is degenerate"
        )
    log_eig = np.sum(np.log(eigvals, where=positive, out=np.zeros_like(eigvals)), axis=1)
    total = np.sum(
        p * np.log(q_values)
        + (p - m_param) * logdet[:-1]
        + quad
        + p * log_eig
        + (m_param - p - 2) * logdet[1:]
    )
    return float(constant - 0.5 * total)


def loglik_time_varying(trajectory, sigma_path=None):
    """Path log-likelihood of a volatility sequence under the evolving model.

    ``sigma_path`` may be "posterior" (default: per-step posterior means,
    including the prior mean at step 0, scored through the rank-one closed
    form), "forecast" (one-step forecast means) or an explicit sequence of
    N+1 SPD matrices.
    """
    if trajectory.constant_volatility:
        raise MvdlmError(
            "the evolving-volatility likelihood is undefined at beta = I; "
            "use loglik_constant"
        )
    posterior = sigma_path is None or (
        isinstance(sigma_path, str) and sigma_path == "posterior"
    )
    if posterior:
        sigma_path = trajectory.posterior_mean_path()
    elif isinstance(sigma_path, str) and sigma_path == "forecast":
        sigma_path = np.concatenate(
            [trajectory.posterior_means[:1], trajectory.forecast_means]
        )
        if np.isnan(sigma_path).any():
            raise DofTooSmall("the one-step forecast mean of the volatility is undefined")
    beta = trajectory.spec.vol_discounts
    return loglik_arrays(trajectory.e, trajectory.Q, sigma_path, beta, posterior=posterior)


def loglik_constant_arrays(errors, q_values, sigma):
    """Array-level core of the constant-volatility log-likelihood."""
    errors = np.atleast_2d(np.asarray(errors, dtype=float))
    q_values = np.atleast_1d(np.asarray(q_values, dtype=float))
    n_steps, p = errors.shape
    if n_steps == 0:
        raise EmptyData("likelihood evaluation needs at least one step")
    sigma = symmetrize(np.atleast_2d(sigma))
    phi = inv_spd(sigma)
    quad = float(np.sum((errors @ phi) * errors / q_values[:, None]))
    return (
        -0.5 * p * n_steps * np.log(2.0 * np.pi)
        - 0.5 * p * float(np.sum(np.log(q_values)))
        - 0.5 * n_steps * logdet_spd(sigma)
        - 0.5 * quad
    )


def loglik_constant(trajectory, sigma=None):
    """Log-likelihood of a single constant volatility matrix.

    Defaults to the final posterior mean of the constant-volatility run.
    """
    if len(trajectory) == 0:
        raise EmptyData("likelihood evaluation needs at least one step")
    if sigma is None:
        final = trajectory.final
        sigma = InvWishartParams(final.n + 2 * trajectory.p, final.S).mean
    return loglik_constant_arrays(trajectory.e, trajectory.Q, sigma)


def var_portfolio(mu, sigma, config):
    """Value-at-Risk of a weighted portfolio at confidence ``config.alpha``.

    Evaluates mu_port + F^{-1}(alpha/100) * sigma_port where F is the
    standardized quantile family: the model t scaled to unit variance, or
    the normal. ``alpha`` is a confidence percentage, so the value is
    nondecreasing in alpha and equals the portfolio mean at alpha = 50.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = symmetrize(np.atleast_2d(sigma))
    w = config.weights
    if w.shape != mu.shape or sigma.shape != (w.size, w.size):
        raise InvalidWeights(
            f"weights of length {w.size} do not match a mean of shape "
            f"{mu.shape} and a covariance of shape {sigma.shape}"
        )
    port_mean = float(w @ mu)
    port_var = float(w @ sigma @ w)
    if port_var < 0:
        raise InvalidWeights("portfolio variance is negative")
    level = config.alpha / 100.0
    if config.quantile_family == "normal":
        quantile = scipy.stats.norm.ppf(level)
    else:
        k = config.dof
        if k is None or k <= 2:
            raise DofTooSmall(
                "the t quantile family needs dof > 2 in the VaR configuration"
            )
        quantile = scipy.stats.t.ppf(level, df=k) * math.sqrt((k - 2.0) / k)
    return port_mean + quantile * math.sqrt(port_var)


def lbf(u_model1, u_model2, dof_model1, dof_model2, labels=("M1", "M2")):
    """Sequential log Bayes factors from two standardized-error series.

    Each step contributes log p(u_t | M1) - log p(u_t | M2), where the
    predictive law of a standardized error with k degrees of freedom is the
    multivariate t with identity covariance (column scale (k - 2) I).
    Positive values favour model 1.
    """
    u1 = np.atleast_2d(np.asarray(u_model1, dtype=float))
    u2 = np.atleast_2d(np.asarray(u_model2, dtype=float))
    if u1.shape != u2.shape:
        raise LengthMismatch(
            f"standardized error series differ in shape: {u1.shape} vs {u2.shape}"
        )
    n_steps, p = u1.shape
    k1 = np.broadcast_to(np.asarray(dof_model1, dtype=float), (n_steps,))
    k2 = np.broadcast_to(np.asarray(dof_model2, dtype=float), (n_steps,))
    bad = ~((k1 > 2) & (k2 > 2))
    if bad.any():
        step = int(np.argmax(bad)) + 1
        raise DofTooSmall(f"step {step}: standardized-error densities need dof > 2")
    values = _standardized_t_logpdf(u1, k1) - _standardized_t_logpdf(u2, k2)
    return LbfSeries(values=values, model_labels=tuple(labels))


def _standardized_t_logpdf(u, k):
    """Row-wise log-density of standardized errors u (N, p) under the t law
    with dof k (N,), location 0, row scale 1 and column scale (k - 2) I.
    Each term is summed as :func:`mvt_logpdf` sums it (from the root
    sqrt(k - 2), with a BLAS dot, gammaln summed along a row), so the values
    match its per-step results bitwise (seen for p = 1..33 with OpenBLAS)."""
    p = u.shape[1]
    root = np.sqrt(k - 2.0)[:, None]
    w = u / root
    logdet = 2.0 * np.sum(np.log(np.repeat(root, p, axis=1)), axis=1)
    mvgammaln = [  # multigammaln(a, p) for a = (k + p)/2 and (k + p - 1)/2
        p * (p - 1) * 0.25 * np.log(np.pi) + np.sum(gammaln(a - np.arange(p) / 2.0), axis=1)
        for a in ((k[:, None] + p) / 2.0, (k[:, None] + p - 1) / 2.0)
    ]
    return (
        mvgammaln[0] - mvgammaln[1] - 0.5 * p * np.log(np.pi) - 0.5 * logdet
        - 0.5 * (k + p) * np.log1p((w[:, None, :] @ w[:, :, None])[:, 0, 0])
    )


def lbf_from_trajectories(traj1, traj2, labels=("M1", "M2")):
    """Log Bayes factors of two fitted models over the same observations."""
    if len(traj1) != len(traj2):
        raise LengthMismatch("trajectories cover different horizons")
    if np.any(np.isnan(traj1.u)) or np.any(np.isnan(traj2.u)):
        raise FeatureUnavailable(
            "both models must produce standardized errors at every step"
        )
    return lbf(traj1.u, traj2.u, traj1.forecast_dofs, traj2.forecast_dofs, labels=labels)


def compute_diagnostics(trajectory, with_loglik=True):
    """Full diagnostics report with the branch-appropriate log-likelihood."""
    report = msse_mae_me(trajectory)
    if not with_loglik:
        return report
    score = loglik_constant if trajectory.constant_volatility else loglik_time_varying
    return replace(report, loglik=score(trajectory))


@dataclass(frozen=True)
class GridRow:
    """One evaluated (delta, beta) candidate."""

    delta: float
    beta: tuple
    msse: np.ndarray
    me: np.ndarray
    loglik: float
    var95: float | None
    var99: float | None


@dataclass(frozen=True)
class GridSearchResult:
    """Feasible candidates ranked by log-likelihood plus exclusions."""

    rows: tuple
    excluded: tuple  # (delta, beta, reason) triples

    def to_csv(self, path):
        """Column order: delta, beta_1..beta_p, msse_1..msse_p,
        me_1..me_p, loglik, var95, var99."""
        if not self.rows:
            raise EmptyGrid("no feasible candidates to export")
        p = len(self.rows[0].beta)
        names = (f"{name}_{i + 1}" for name in ("beta", "msse", "me") for i in range(p))
        header = ["delta", *names, "loglik", "var95", "var99"]
        table = np.array([
            [*row.beta, *row.msse, *row.me, row.loglik,
             *(np.nan if v is None else v for v in (row.var95, row.var99))]
            for row in self.rows
        ])
        write_csv(path, [header], (row.delta for row in self.rows), table)


def var_at_horizon(trajectory, weights, family="t", alphas=(95.0, 99.0)):
    """Portfolio VaR from the end-of-sample posterior.

    Uses the filtered level m_N'F as the portfolio mean components, the
    posterior-mean volatility matrix, and (for the t family) the
    end-of-sample forecast degrees of freedom. Returns one value per
    requested confidence percentage.
    """
    if len(trajectory) == 0:
        raise EmptyData("VaR needs at least one filtered step")
    final = trajectory.final
    spec = trajectory.spec
    f_vec = spec.design_at(final.t)
    mu = final.m.T @ f_vec
    sigma = InvWishartParams(final.n + 2 * spec.p, final.S).mean
    dof = spec.mean_beta * final.n  # of the forecast law at step N + 1
    values = []
    for alpha in alphas:
        config = VaRConfig(
            weights=weights, alpha=float(alpha), quantile_family=family, dof=dof
        )
        values.append(var_portfolio(mu, sigma, config))
    return values


def grid_search(
    spec_template,
    priors,
    observations,
    delta_grid,
    beta_grid,
    weights=None,
    var_family="t",
    sqrt_method="spectral",
):
    """Score every (delta, beta) candidate and rank by log-likelihood.

    ``delta_grid`` holds scalar state discounts (applied to every state
    component); ``beta_grid`` holds explicit length-p vectors. Candidates
    whose mean volatility discount is 2/3 or less cannot produce
    standardized errors with finite variance and are reported in
    ``excluded`` instead of being scored; all-ones candidates run the
    constant-volatility branch and are scored with its likelihood.
    Ranking is by log-likelihood, descending, with lexicographic
    (delta, beta) tie-breaks.

    The state pass runs once per delta; the candidates sharing it run
    through one batched volatility pass per block of ``GRID_BLOCK``, and
    each row holds exactly what :func:`compute_diagnostics` and
    :func:`var_at_horizon` give for that candidate's own trajectory.
    """
    delta_grid = list(delta_grid)
    beta_grid = [np.atleast_1d(np.asarray(b, dtype=float)) for b in beta_grid]
    if not delta_grid or not beta_grid:
        raise EmptyGrid("both the delta grid and the beta grid must be non-empty")
    groups = {}
    excluded = []
    for delta in delta_grid:
        for beta in beta_grid:
            spec = replace(
                spec_template,
                state_discounts=np.full(spec_template.d, float(delta)),
                vol_discounts=beta,
            )
            report = validate(spec, priors)
            if not report.constant_volatility and not report.features["forecast_moments"]:
                reason = f"mean volatility discount {report.mean_beta:.6g} <= 2/3"
                excluded.append((float(delta), tuple(beta.tolist()), reason))
                continue
            groups.setdefault(float(delta), []).append((spec, report.n))
    rows = []
    for delta, cells in groups.items():
        states = state_pass(cells[0][0], priors, observations)
        for lo in range(0, len(cells), GRID_BLOCK):
            block = cells[lo:lo + GRID_BLOCK]
            vol = volatility_pass(
                states.e,
                states.Q,
                [spec.vol_discounts for spec, _ in block],
                priors.S0,
                [n for _, n in block],
                sqrt_method,
            )
            for k, (spec, _) in enumerate(block):
                trajectory = Trajectory.from_passes(states, vol, k, spec, priors, sqrt_method)
                report = compute_diagnostics(trajectory)
                var95 = var99 = None
                if weights is not None:
                    var95, var99 = var_at_horizon(trajectory, weights, var_family)
                beta = tuple(spec.vol_discounts.tolist())
                rows.append(
                    GridRow(delta, beta, report.msse, report.me, report.loglik, var95, var99)
                )
    rows.sort(key=lambda row: (-row.loglik, row.delta, row.beta))
    return GridSearchResult(rows=tuple(rows), excluded=tuple(excluded))


def export_report_json(report, path=None):
    """Serialize a diagnostics report to JSON (returns the dict)."""
    payload = {
        "msse": report.msse.tolist(),
        "mae": report.mae.tolist(),
        "me": report.me.tolist(),
        "loglik": report.loglik,
        "n_obs": report.n_obs,
        "sqrt_convention": report.sqrt_convention,
    }
    if path is not None:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return payload


def export_report_csv(report, path):
    """One-row CSV export of a diagnostics report."""
    p = report.msse.size
    header = [f"{name}_{i + 1}" for name in ("msse", "mae", "me") for i in range(p)]
    loglik = float("nan") if report.loglik is None else report.loglik
    row = [*report.msse.tolist(), *report.mae.tolist(), *report.me.tolist(), loglik,
           report.n_obs, report.sqrt_convention]
    write_csv(path, [header + ["loglik", "n_obs", "sqrt_convention"], row])
