"""Independent numpy-only reference for the benchmark's correctness checks.

Nothing here imports mvdlm. The recursions follow the paper (and West &
Harrison 1997, ch. 16) written out directly, with different linear algebra
from the package where there is a choice (eigendecomposition and LU
determinants instead of Cholesky factors), so a shared mistake is unlikely.
"""

import math

import numpy as np


def returns_from_prices_csv(path):
    """Compound returns diff(log(price)) from a price CSV in the ingestion
    schema (header ``date,<names>``, one row per date)."""
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",")[1:] for line in handle if line.strip()]
    prices = np.array([[float(x) for x in row] for row in rows])
    if prices.shape[1] != len(header) - 1:
        raise ValueError(f"{path}: ragged price table")
    return np.diff(np.log(prices), axis=0)


class FilterPath:
    """Per-step output of the reference filter (arrays indexed by step)."""

    def __init__(self, f, e, q, u, scale, n_post, n_work, beta):
        self.f = f  # (N, p) one-step forecast means
        self.e = e  # (N, p) forecast errors
        self.q = q  # (N,) forecast spreads Q_t
        self.u = u  # (N, p) standardized errors, NaN where undefined
        self.scale = scale  # (N + 1, p, p): S_0, S_1, ..., S_N
        self.n_post = n_post  # (N + 1,) degrees of freedom after each step
        self.n_work = n_work  # working dof (time-varying) or None
        self.beta = beta

    @property
    def constant(self):
        return self.n_work is None

    def msse(self):
        defined = ~np.isnan(self.u[:, 0])
        return np.mean(self.u[defined] ** 2, axis=0)

    def me(self):
        return np.mean(self.e, axis=0)

    def sigma_post_mean(self, t):
        """Posterior mean of the volatility after step t (t = 1..N)."""
        return self.scale[t] / (self.n_post[t] - 2.0)

    def loglik(self):
        """The branch-appropriate path log-likelihood."""
        if self.constant:
            return loglik_constant(self.e, self.q, self.sigma_post_mean(len(self.q)))
        return loglik_path(self.e, self.q, self.scale, self.beta, self.n_work)


def run_filter(y, design, evolution, state_discounts, vol_discounts, m0, P0, S0, n0=1.0):
    """The conjugate filter, both branches.

    R_t = G P G' (1 + Delta), Delta_ij = sqrt((1-d_i)/d_i) sqrt((1-d_j)/d_j)
    Q_t = F'RF + 1, e_t = y_t - (G m)'F, m_t = G m + RF e'/Q,
    P_t = R - RF F'R / Q, S_t = (S_{t-1} o sqrt(b)sqrt(b)') + e e'/Q.
    The time-varying branch holds n at 1/(1 - mean(beta)); with every
    beta = 1 the degrees of freedom grow by one per step from n0. The
    forecast law has k = mean(beta) * n_{t-1} degrees of freedom and the
    standardized error is ((k-2)/Q)^{1/2} (scale prior)^{-1/2} e with the
    symmetric root.
    """
    y = np.asarray(y, dtype=float)
    big_n, p = y.shape
    F = np.asarray(design, dtype=float)
    G = np.asarray(evolution, dtype=float)
    delta = np.asarray(state_discounts, dtype=float)
    beta = np.asarray(vol_discounts, dtype=float)
    constant = bool(np.all(beta == 1.0))
    b = float(np.mean(beta))
    n = float(n0) if constant else 1.0 / (1.0 - b)
    droot = np.sqrt((1.0 - delta) / delta)
    inflate = 1.0 + np.outer(droot, droot)
    broot = np.sqrt(beta)
    bmat = np.outer(broot, broot)
    m = np.array(m0, dtype=float)
    P = np.array(P0, dtype=float)
    S = np.array(S0, dtype=float)
    f = np.empty((big_n, p))
    e = np.empty((big_n, p))
    q = np.empty(big_n)
    u = np.full((big_n, p), np.nan)
    scale = np.empty((big_n + 1, p, p))
    n_post = np.empty(big_n + 1)
    scale[0] = S
    n_post[0] = n
    for t in range(big_n):
        R = (G @ P @ G.T) * inflate
        a = G @ m
        f[t] = a.T @ F
        rf = R @ F
        q[t] = F @ rf + 1.0
        e[t] = y[t] - f[t]
        s_prior = S * bmat
        k = b * n
        if k > 2.0:
            lam, vec = np.linalg.eigh(s_prior)
            root = (vec / np.sqrt(lam)) @ vec.T
            u[t] = math.sqrt((k - 2.0) / q[t]) * (root @ e[t])
        m = a + np.outer(rf / q[t], e[t])
        P = R - np.outer(rf, rf) / q[t]
        S = s_prior + np.outer(e[t], e[t]) / q[t]
        if constant:
            n = n + 1.0
        scale[t + 1] = S
        n_post[t + 1] = n
    return FilterPath(f, e, q, u, scale, n_post, None if constant else n, beta)


def lmvgamma(a, p):
    """log of the multivariate gamma function Gamma_p(a)."""
    return p * (p - 1) / 4.0 * math.log(math.pi) + sum(
        math.lgamma(a + (1.0 - j) / 2.0) for j in range(1, p + 1)
    )


def loglik_path(e, q, scale, beta, n):
    """Path log-likelihood of the posterior-mean plug-in volatility path.

    With Sigma_t = S_t / (n - 2) the factor I - B_t of the singular beta
    step has rank one; its only non-zero eigenvalue is
    lambda_t = e_t' S_t^{-1} e_t / Q_t, and only that eigenvalue enters.
    """
    big_n, p = e.shape
    b = float(np.mean(beta))
    m = b / (1.0 - b) + p - 1
    constant = big_n * (
        0.5 * (m - p) * float(np.sum(np.log(beta)))
        + lmvgamma((m + 1) / 2.0, p)
        - 0.5 * p * math.log(2.0)
        - p * math.log(math.pi)
        - lmvgamma(m / 2.0, p)
    )
    logdet = np.linalg.slogdet(scale / (n - 2.0))[1]  # (N + 1,)
    solved = np.linalg.solve(scale[1:], e[:, :, None])[:, :, 0]
    lam = np.einsum("ti,ti->t", e, solved) / q
    total = (
        p * np.sum(np.log(q))
        + (p - m) * np.sum(logdet[:-1])
        + (n - 2.0) * np.sum(lam)
        + p * np.sum(np.log(lam))
        + (m - p - 2) * np.sum(logdet[1:])
    )
    return float(constant - 0.5 * total)


def loglik_constant(e, q, sigma):
    """Gaussian log-likelihood of the errors under one constant volatility."""
    big_n, p = e.shape
    phi = np.linalg.inv(sigma)
    quad = float(np.einsum("ti,ij,tj->", e, phi, e / q[:, None]))
    return (
        -0.5 * p * big_n * math.log(2.0 * math.pi)
        - 0.5 * p * float(np.sum(np.log(q)))
        - 0.5 * big_n * float(np.linalg.slogdet(sigma)[1])
        - 0.5 * quad
    )


def log_t_standardized(u, k):
    """Log-density of a standardized error under the p-variate t with k
    degrees of freedom and identity covariance (scale (k - 2) I)."""
    u = np.atleast_2d(u)
    p = u.shape[1]
    quad = np.sum(u * u, axis=1) / (k - 2.0)
    return (
        math.lgamma((k + p) / 2.0)
        - math.lgamma(k / 2.0)
        - 0.5 * p * math.log(math.pi * (k - 2.0))
        - 0.5 * (k + p) * np.log1p(quad)
    )


def lbf_series(path1, path2):
    """Per-step log Bayes factors of model 1 against model 2 as the package
    defines them: the ratio of the standardized-error densities."""
    k1 = float(np.mean(path1.beta)) * path1.n_work
    k2 = float(np.mean(path2.beta)) * path2.n_work
    return log_t_standardized(path1.u, k1) - log_t_standardized(path2.u, k2)


def rel_err(actual, expected):
    """Largest absolute deviation over the largest reference magnitude."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return math.inf
    denom = max(float(np.max(np.abs(expected))), 1e-300)
    return float(np.max(np.abs(actual - expected))) / denom
