"""Goodness-of-fit statistics, likelihood evaluation and model comparison.

The standardized one-step forecast errors drive the mean-of-squares
statistic (close to 1 per component under a well-specified model), the
sequential log Bayes factor compares two fitted models through the
predictive densities of their standardized errors, and one scoring rule,
:func:`posterior_loglik`, gives the log-likelihood that fit, grid search and
diagnose report.
"""

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .data import write_csv, write_json
from .distributions import _t_quantile, log_multigamma
from .errors import (
    DimensionMismatch,
    DofTooSmall,
    EmptyData,
    EmptyGrid,
    FeatureUnavailable,
    InvalidWeights,
    LengthMismatch,
    MvdlmError,
    NonPositiveDefinite,
    NoPositiveEigenvalues,
)
from .filter import forecast_law, predict, run_models
from .linalg import cholesky_upper_stack, logdet_factor, solve_lower_stack, symmetrize

QUANTILE_FAMILIES = ("t", "normal")  # of the VaR
WEIGHT_TOL = 1e-10


@dataclass(frozen=True)
class DiagnosticsReport:
    """Summary statistics of a filtered trajectory.

    ``msse`` averages the squared standardized errors component-wise (only
    over steps where standardization is defined), ``mae`` and ``me`` average
    the absolute and raw forecast errors, and ``loglik`` holds the
    log-likelihood of :func:`posterior_loglik`.
    """

    msse: np.ndarray
    mae: np.ndarray
    me: np.ndarray
    loglik: float
    n_obs: int


def error_summary(e, u):
    """Component-wise MSSE, MAE and ME of forecast errors ``e`` and
    standardized errors ``u`` (N, p arrays).

    The MSSE averages over the steps where the standardized error exists
    (u not NaN); MAE and ME average the raw forecast errors over every step.
    """
    if len(e) == 0:
        raise EmptyData("diagnostics need at least one filtered step")
    return _msse(u), np.mean(np.abs(e), axis=0), np.mean(e, axis=0)


def _msse(u):
    defined = ~np.isnan(u[:, 0])
    if not np.any(defined):
        raise FeatureUnavailable("no standardized errors: the forecast law never had more "
                                 "than 2 degrees of freedom")
    return np.mean(u[defined] ** 2, axis=0)


def loglik_arrays(q_values, logdet, r, vol_discounts):
    """Array-level core of the evolving-volatility path log-likelihood at the
    posterior means Sigma_t = S_t / (n - 2) of the filter, Sigma_0 (the
    prior's) to Sigma_N, from the spreads Q_t (N,) and a row of
    :attr:`~mvdlm.filter.VolatilityPass.scale_terms`: log|S_0|..log|S_N|
    (N+1,) and r_t = e_t' S_t^{-1} e_t / Q_t (N,); given R rows of them and
    (R, p) discounts, the R likelihoods, each bitwise that of its row alone.

    For each step the positive eigenvalues of I - B_t, with
    B_t = (C_{t-1}')^{-1} beta^{1/2} Sigma_t^{-1} beta^{1/2} C_{t-1}^{-1}
    and C_{t-1} the upper Cholesky factor of Sigma_{t-1}^{-1}, enter
    through their log-determinant. On the posterior-mean path I - B_t has
    rank one, and its only non-zero eigenvalue is r_t (the closed form);
    log|Sigma_t| = log|S_t| - p log(n - 2), and the quadratic form
    e_t' Sigma_t^{-1} e_t / Q_t is (n - 2) r_t. No factorization runs here.
    """
    q_values = np.atleast_1d(np.asarray(q_values, dtype=float))
    beta = np.atleast_1d(np.asarray(vol_discounts, dtype=float))
    n_steps, p = len(q_values), beta.shape[-1]
    if n_steps == 0:
        raise EmptyData("likelihood evaluation needs at least one step")
    b = np.mean(beta, axis=-1)
    if np.any(b >= 1.0):
        raise MvdlmError(
            "the evolving-volatility likelihood is undefined when every "
            "discount is 1; use loglik_constant_arrays"
        )
    m_param = b / (1.0 - b) + p - 1
    scale = 1.0 / (1.0 - b) - 2.0  # n - 2 at the fixed point n = 1/(1 - b)
    ratio = np.reshape([log_multigamma(m / 2.0, p, ratio=True) for m in m_param.flat], b.shape)
    constant = n_steps * (
        0.5 * (m_param - p) * np.sum(np.log(beta), axis=-1)
        + ratio
        - 0.5 * p * np.log(2.0)
        - p * np.log(np.pi)
    )
    positive = np.reshape(r > 0.0, (-1, n_steps)).all(axis=0)
    if not np.all(positive):
        raise NoPositiveEigenvalues(
            f"step {int(np.argmin(positive)) + 1}: the volatility transition "
            "factor is degenerate"
        )
    m_param, scale = m_param[..., None], scale[..., None]  # against the step axis
    logdet = logdet - p * np.log(scale)  # log|Sigma_0|..log|Sigma_N|
    terms = (
        p * np.log(q_values)
        + (p - m_param) * logdet[..., :-1]
        + scale * r
        + p * np.log(r)
        + (m_param - p - 2) * logdet[..., 1:]
    )  # broadcasting may lay rows out column-major: each must sum pairwise, as one row does
    total = np.sum(np.ascontiguousarray(terms), axis=-1)
    return constant - 0.5 * total if total.ndim else float(constant - 0.5 * total)


def posterior_loglik(vol, k):
    """The log-likelihood that fit, grid search and diagnose report for row k
    of the volatility pass ``vol``, or the array of them for a list of rows:
    at beta = I the constant-volatility likelihood of the final posterior
    mean Sigma_N, else the path likelihood of :func:`loglik_arrays` from
    ``vol.scale_terms``, one call for all such rows. An undefined posterior
    mean (n <= 2) raises DofTooSmall."""
    rows = np.atleast_1d(k)
    sigma = _final_means(vol, rows)
    constant = np.all(vol.betas[rows] == 1.0, axis=1)
    loglik = np.empty(len(rows))
    for i in np.flatnonzero(constant):
        loglik[i] = loglik_constant_arrays(vol.e, vol.Q, sigma[i])
    if not constant.all():
        (logdet, r), evolving = vol.scale_terms, rows[~constant]
        loglik[~constant] = loglik_arrays(vol.Q, logdet[evolving], r[evolving],
                                          vol.betas[evolving])
    return loglik if np.ndim(k) else float(loglik[0])


def _final_means(vol, rows):
    """Sigma_N of ``rows`` of the pass ``vol``; an undefined one (n <= 2) raises DofTooSmall."""
    if not np.all(vol.n[rows, -1] > 2.0):
        raise DofTooSmall("posterior mean of the volatility requires n > 2")
    return vol.posterior_means(rows, -1)


def loglik_constant_arrays(errors, q_values, sigma):
    """Array-level core of the constant-volatility log-likelihood at ``sigma``, from one
    factor Sigma = C'C and one forward substitution C'x = e_t for all N errors."""
    errors = np.atleast_2d(np.asarray(errors, dtype=float))
    q_values = np.atleast_1d(np.asarray(q_values, dtype=float))
    n_steps, p = errors.shape
    if n_steps == 0:
        raise EmptyData("likelihood evaluation needs at least one step")
    upper = cholesky_upper_stack(symmetrize(np.atleast_2d(sigma)))
    solved = solve_lower_stack(upper.T, errors)
    quad = float(np.sum(solved * solved / q_values[:, None]))
    return (
        -0.5 * p * n_steps * np.log(2.0 * np.pi)
        - 0.5 * p * float(np.sum(np.log(q_values)))
        - 0.5 * n_steps * logdet_factor(upper)
        - 0.5 * quad
    )


def check_var_settings(weights, alphas, family):
    """The VaR rule of :func:`var_portfolio` and of a config at load, else InvalidWeights:
    ``weights`` (None passes) on the simplex, ``alphas`` in (0, 100), ``family`` "t" or "normal"."""
    w = None if weights is None else np.asarray(weights, dtype=float)
    if w is not None and not (np.all(w >= -WEIGHT_TOL)  # written so that NaN fails
                              and abs(float(np.sum(w)) - 1.0) <= WEIGHT_TOL):
        raise InvalidWeights("weights must be nonnegative and sum to 1 within 1e-10")
    a = np.asarray(alphas, dtype=float)
    if not np.all((0.0 < a) & (a < 100.0)):
        raise InvalidWeights(f"var.alphas must be percentages in (0, 100), got {a.tolist()}")
    if family not in QUANTILE_FAMILIES:
        raise InvalidWeights(f"var.family must be 't' or 'normal', not {family!r}")


def var_portfolio(mu, sigma, weights, alphas, family="t", dof=None):
    """Value-at-Risk of a weighted portfolio, one value per confidence
    percentage of ``alphas`` (one list per matrix of a stack ``sigma``, with
    a ``dof`` per matrix).

    Evaluates mu_port + F^{-1}(alpha/100) * sigma_port where F is the
    standardized quantile ``family``: "t", the model t with a finite ``dof``
    > 2 scaled to unit variance, or "normal". The weights must be
    nonnegative and sum to 1, each alpha lies in (0, 100), ``mu`` and
    ``sigma`` are finite and ``dof`` has the shape of the stack, so the
    values are nondecreasing in alpha and equal the portfolio mean at alpha
    = 50. The quantiles run on ``math``: the normal one is
    ``statistics.NormalDist().inv_cdf``, the t one a Halley solve on the
    regularized incomplete beta, taken once per distinct (dof, alpha) of
    the stack; both agree with ``scipy.stats`` to a relative 1e-12 at dof
    up to 400 (2e-15 for the normal).
    """
    check_var_settings(weights, alphas, family)
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = symmetrize(np.atleast_2d(sigma))
    if w.shape != mu.shape or sigma.shape[-2:] != (w.size, w.size):
        raise InvalidWeights(
            f"weights of length {w.size} do not match a mean of shape "
            f"{mu.shape} and a covariance of shape {sigma.shape}"
        )
    if not np.isfinite(mu).all():
        raise DimensionMismatch("the VaR mean has non-finite components")
    if not np.isfinite(sigma).all():
        raise NonPositiveDefinite("the VaR covariance is not finite")
    port_mean = float(w @ mu)
    port_var = np.reshape([float(w @ s @ w) for s in sigma.reshape(-1, w.size, w.size)],
                          sigma.shape[:-2])
    if np.any(port_var < 0):
        raise InvalidWeights("portfolio variance is negative")
    if family == "normal":
        from statistics import NormalDist  # loaded only where a quantile is taken

        quantiles = np.array([NormalDist().inv_cdf(alpha / 100.0) for alpha in alphas.tolist()])
    else:
        dof = None if dof is None else np.asarray(dof, dtype=float)
        if dof is None or not np.all(np.isfinite(dof) & (dof > 2)):
            raise DofTooSmall("the t quantile family needs a finite dof > 2 in the VaR "
                              "configuration")
        if dof.shape != port_var.shape:
            raise DimensionMismatch(f"dof of shape {dof.shape} for a covariance stack of "
                                    f"shape {sigma.shape}")
        distinct, index = np.unique(dof.ravel(), return_inverse=True)
        table = np.array([[_t_quantile(k, alpha) for alpha in alphas.tolist()]
                          for k in distinct.tolist()])
        table *= np.sqrt((distinct - 2.0) / distinct)[:, None]
        quantiles = table[index].reshape(*dof.shape, alphas.size)
    return (port_mean + quantiles * np.sqrt(port_var)[..., None]).tolist()


def lbf_from_trajectories(traj1, traj2):
    """Sequential log Bayes factors of two fitted models over the same
    observations, an (N,) array whose sum is the cumulative log Bayes factor.

    Each step contributes log p(u_t | M1) - log p(u_t | M2), where the
    predictive law of a standardized error with k_t degrees of freedom is the
    multivariate t with identity covariance (column scale (k_t - 2) I).
    Positive values favour model 1. The density reads u_t only through
    log(1 + u_t'u_t / (k_t - 2)) = log(1 + e_t' A_t^{-1} e_t / Q_t), with A_t
    the prior scale beta^{1/2} S_{t-1} beta^{1/2}; since S_t = A_t +
    e_t e_t' / Q_t, the matrix determinant lemma makes that term
    log|S_t| - log|S_{t-1}| - sum_i log beta_i, read from the ``scale_terms``
    of each model's volatility pass. Nothing is whitened.
    """
    if len(traj1) != len(traj2):
        raise LengthMismatch("trajectories cover different horizons")
    dofs = [traj1.forecast_dofs, traj2.forecast_dofs]
    if not all(np.all(k > 2.0) for k in dofs):
        raise FeatureUnavailable("both models must produce standardized errors at every step")
    if traj1.p != traj2.p:
        raise LengthMismatch(
            f"standardized error series differ in shape: {traj1.e.shape} vs {traj2.e.shape}"
        )
    p, terms = traj1.p, []
    for traj, k in zip((traj1, traj2), dofs):
        logdet = traj.volatility.scale_terms[0][traj.row]
        log1p_quad = np.diff(logdet) - np.sum(np.log(traj.spec.vol_discounts))
        distinct, step = np.unique(k, return_inverse=True)
        ratio = np.array([log_multigamma((dof + p - 1) / 2.0, p, ratio=True) for dof in distinct])
        terms.append(ratio[step] - 0.5 * p * np.log(np.pi * (k - 2.0))
                     - 0.5 * (k + p) * log1p_quad)
    return terms[0] - terms[1]


def compute_diagnostics(trajectory):
    """The :func:`error_summary` of a trajectory with the log-likelihood of
    :func:`posterior_loglik`."""
    msse, mae, me = error_summary(trajectory.e, trajectory.u)
    loglik = posterior_loglik(trajectory.volatility, trajectory.row)
    return DiagnosticsReport(msse, mae, me, loglik, len(trajectory))


@dataclass(frozen=True)
class GridRow:
    """One evaluated (delta, beta) candidate."""

    delta: float
    beta: tuple
    msse: np.ndarray
    me: np.ndarray
    loglik: float
    var: tuple  # VaR at each of the search's alphas, NaN without weights


@dataclass(frozen=True)
class GridSearchResult:
    """Feasible candidates ranked by log-likelihood plus exclusions."""

    rows: tuple
    excluded: tuple  # (delta, beta, reason) triples
    alphas: tuple  # confidence percentages of each row's ``var``

    def to_csv(self, path):
        """Column order: delta, beta_1..beta_p, msse_1..msse_p,
        me_1..me_p, loglik and one var<alpha> column per alpha."""
        if not self.rows:
            raise EmptyGrid("no feasible candidates to export")
        p = len(self.rows[0].beta)
        names = (f"{name}_{i + 1}" for name in ("beta", "msse", "me") for i in range(p))
        header = ["delta", *names, "loglik", *(f"var{alpha:g}" for alpha in self.alphas)]
        table = np.array([[*row.beta, *row.msse, *row.me, row.loglik, *row.var]
                          for row in self.rows])
        write_csv(path, [header], (row.delta for row in self.rows), table)


def var_at_horizon(trajectory, weights, family="t", alphas=(95.0, 99.0)):
    """Portfolio VaR of step N + 1 from the end-of-sample posterior, one value
    per confidence percentage, by :func:`var_portfolio`.

    The portfolio mean components are the forecast mean of
    :func:`~mvdlm.filter.predict` at step N + 1, f_{N+1} = (G_{N+1} m_N)'
    F_{N+1}; the covariance is the posterior-mean volatility Sigma_N, and
    the t family takes the degrees of freedom of that step's forecast law.
    A final scale that is not positive definite to working precision raises
    :class:`NonPositiveDefinite`.
    """
    if len(trajectory) == 0:
        raise EmptyData("VaR needs at least one filtered step")
    return _pass_var([trajectory], weights, family, alphas)[0]


def _pass_var(members, weights, family, alphas):
    """The :func:`var_at_horizon` of each of ``members``, which share one volatility pass,
    from one check of their final scales, one :func:`~mvdlm.filter.predict` at step N + 1
    and one :func:`var_portfolio` call."""
    vol, rows, p = members[0].volatility, [t.row for t in members], members[0].p
    lam = np.linalg.eigvalsh(vol.S[rows, -1])  # below p eps of the largest, round-off sets the sign
    if not np.all(lam[:, 0] > lam[:, -1] * p * np.finfo(float).eps):  # NaN S: 0, inf S: NaN
        raise NonPositiveDefinite("final volatility scale is not positive definite")
    final = members[0].final
    location = predict(final, members[0].spec, final.t + 1).f
    dof = forecast_law(vol.betas[rows]).mean * vol.n[rows, -1]  # predict's, of step N + 1
    return var_portfolio(location, _final_means(vol, rows), weights, alphas, family, dof)


def grid_search(spec_template, priors, observations, delta_grid, beta_grid, weights=None,
                var_family="t", var_alphas=(95.0, 99.0)):
    """Score every (delta, beta) candidate and rank by log-likelihood.

    ``delta_grid`` holds scalar state discounts (applied to every state
    component); ``beta_grid`` holds explicit length-p vectors. Candidates
    whose mean volatility discount is 2/3 or less cannot produce
    standardized errors with finite variance and are reported in
    ``excluded`` instead of being scored; all-ones candidates run the
    constant-volatility branch and are scored with its likelihood.
    Ranking is by log-likelihood, descending, with lexicographic
    (delta, beta) tie-breaks. With ``weights``, each row holds the VaR at
    every confidence percentage of ``var_alphas``; without, NaN.

    The candidates run through :func:`run_models`: one state pass per delta
    and one batched volatility pass per block of candidates, kept together
    by its delta-major output. Each pass is scored whole: the ME, the MSSE
    row by row, one :func:`posterior_loglik` and one :func:`_pass_var`.
    Each row holds exactly what :func:`compute_diagnostics` and
    :func:`var_at_horizon` give for that candidate's own trajectory.
    """
    delta_grid = list(delta_grid)
    beta_grid = [np.atleast_1d(np.asarray(b, dtype=float)) for b in beta_grid]
    if not delta_grid or not beta_grid:
        raise EmptyGrid("both the delta grid and the beta grid must be non-empty")
    models, excluded = [], []
    for delta, beta in itertools.product(delta_grid, beta_grid):
        spec = replace(spec_template, state_discounts=np.full(spec_template.d, float(delta)),
                       vol_discounts=beta)
        if spec.features["forecast_moments"]:
            models.append((spec, priors, observations))
        else:
            reason = f"mean volatility discount {spec.mean_beta:.6g} <= 2/3"
            excluded.append((float(delta), tuple(beta.tolist()), reason))
    alphas = tuple(var_alphas)
    rows = []
    for vol, members in itertools.groupby(run_models(models), lambda t: t.volatility):
        members = list(members)  # one volatility pass, scored whole
        index = [t.row for t in members]
        me = error_summary(members[0].e, members[0].u)[2]  # failing as the first row's would
        msse = [_msse(vol.u[k]) for k in index]
        loglik = posterior_loglik(vol, index)
        var = ([[np.nan] * len(alphas)] * len(index) if weights is None
               else _pass_var(members, weights, var_family, alphas))
        rows += [GridRow(float(t.spec.state_discounts[0]), tuple(t.spec.vol_discounts.tolist()),
                         msse[i], me, float(loglik[i]), tuple(var[i]))
                 for i, t in enumerate(members)]
    rows.sort(key=lambda row: (-row.loglik, row.delta, row.beta))
    return GridSearchResult(rows=tuple(rows), excluded=tuple(excluded), alphas=alphas)


def export_report_json(report, path=None):
    """Serialize a diagnostics report to JSON (returns the dict)."""
    payload = {"msse": report.msse.tolist(), "mae": report.mae.tolist(), "me": report.me.tolist(),
               "loglik": report.loglik, "n_obs": report.n_obs}
    if path is not None:
        write_json(path, payload)
    return payload

