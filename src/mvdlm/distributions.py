"""Distribution families used by the volatility model.

Covers the inverted Wishart in the (k, S) parameterization with k > 2p
(equivalently Sigma^{-1} ~ Wishart with k - p - 1 degrees of freedom and
scale S^{-1}), the one-row multivariate Student t that drives the forecast
law, and the singular multivariate beta that multiplies the precision
matrix from one step to the next. Samplers take an explicit numpy
Generator; densities are pure functions.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import multigammaln

from .errors import DofTooSmall, DimensionMismatch, NonPositiveDefinite
from .linalg import cholesky_upper, factor_symmetric, inv_spd, logdet_spd, symmetrize
from .linalg import solve_upper_t

__all__ = [
    "InvWishartParams",
    "MultiTParams",
    "SingularBetaParams",
    "cholesky_upper",
    "evolve_precision",
    "invwishart_logpdf",
    "invwishart_sample",
    "matrix_normal_sample",
    "mvt_logpdf",
    "singular_beta_sample",
    "wishart_sample",
]


@dataclass(frozen=True)
class InvWishartParams:
    """Inverted Wishart IW_p(dof, scale) with the k > 2p convention."""

    dof: float
    scale: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scale", symmetrize(np.atleast_2d(self.scale)))

    @property
    def p(self):
        return self.scale.shape[0]

    @property
    def mean(self):
        """scale / (dof - 2p - 2), defined for dof > 2p + 2."""
        divisor = self.dof - 2 * self.p - 2
        if divisor <= 0:
            raise DofTooSmall(
                f"mean of IW_{self.p}({self.dof}, .) requires dof > {2 * self.p + 2}"
            )
        return self.scale / divisor


@dataclass(frozen=True)
class MultiTParams:
    """One-row multivariate Student t: dof, p-vector location, scalar
    row scale and p x p column scale."""

    dof: float
    location: np.ndarray
    scale_row: float
    scale_col: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "location", np.atleast_1d(np.asarray(self.location, dtype=float))
        )
        object.__setattr__(self, "scale_row", float(np.squeeze(self.scale_row)))
        object.__setattr__(self, "scale_col", symmetrize(np.atleast_2d(self.scale_col)))

    @property
    def p(self):
        return self.scale_col.shape[0]

    @property
    def covariance(self):
        """scale_row * scale_col / (dof - 2), defined for dof > 2."""
        if self.dof <= 2:
            raise DofTooSmall("covariance of the t law requires dof > 2")
        return self.scale_row * self.scale_col / (self.dof - 2.0)


@dataclass(frozen=True)
class SingularBetaParams:
    """Singular multivariate beta with second shape fixed at 1/2.

    ``shape_a`` is (tr(beta)/p * n + p - 1)/2 in the volatility evolution;
    only the single-degree case shape_b = 1/2 is supported here.
    """

    shape_a: float
    p: int
    shape_b: float = 0.5

    def __post_init__(self):
        if self.shape_b != 0.5:
            raise ValueError("only shape_b = 1/2 is supported")
        if self.shape_a <= (self.p - 1) / 2.0:
            raise DofTooSmall(
                f"shape_a must exceed (p - 1)/2 = {(self.p - 1) / 2.0}"
            )


def invwishart_logpdf(x, params):
    """Log-density of the inverted Wishart in the (k, S) parameterization.

    Valid for k > 2p; both x and the scale must be SPD. Determinants are
    taken through Cholesky factors.
    """
    x = symmetrize(np.atleast_2d(x))
    k = params.dof
    s = params.scale
    p = s.shape[0]
    if x.shape != (p, p):
        raise DimensionMismatch(f"x has shape {x.shape}, expected {(p, p)}")
    if k <= 2 * p:
        raise DofTooSmall(f"inverted Wishart density requires dof > 2p = {2 * p}")
    a = (k - p - 1) / 2.0
    x_inv = inv_spd(x)
    return (
        -a * p * np.log(2.0)
        + a * logdet_spd(s)
        - multigammaln(a, p)
        - 0.5 * k * logdet_spd(x)
        - 0.5 * float(np.sum(s * x_inv))
    )


def mvt_logpdf(x, params):
    """Log-density of the one-row multivariate Student t forecast law.

    The normalizing constant is the ratio of multivariate gamma functions
    at (dof + p)/2 and (dof + p - 1)/2; the kernel collapses through the
    rank-one determinant identity |S + vv'/u| = |S| (1 + v'S^{-1}v / u).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p = params.p
    if x.shape != (p,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected {(p,)}")
    nu = params.dof
    u = params.scale_row
    if u <= 0:
        raise NonPositiveDefinite("row scale must be positive")
    s = params.scale_col
    c = cholesky_upper(s)
    v = x - params.location
    # v' S^{-1} v through one triangular solve.
    w = solve_upper_t(c, v)
    quad = float(w @ w)
    logdet_s = 2.0 * np.sum(np.log(np.diag(c)))
    return (
        multigammaln((nu + p) / 2.0, p)
        - multigammaln((nu + p - 1) / 2.0, p)
        - 0.5 * p * np.log(np.pi)
        - 0.5 * p * np.log(u)
        - 0.5 * logdet_s
        - 0.5 * (nu + p) * np.log1p(quad / u)
    )


def wishart_sample(dof, scale, rng):
    """Draw from W_p(dof, scale) by the Bartlett decomposition.

    Works for any real dof > p - 1 (chi-square marginals drawn as gammas).
    """
    scale = symmetrize(np.atleast_2d(scale))
    p = scale.shape[0]
    if dof <= p - 1:
        raise DofTooSmall(f"Wishart sampling requires dof > p - 1 = {p - 1}")
    a = factor_symmetric(scale).T @ _bartlett((dof - np.arange(p)) / 2.0, rng)
    return symmetrize(a @ a.T)


def _bartlett(half_dofs, rng):
    """Bartlett factor of W_p(dof, I): the roots of gamma((dof - i)/2, 2)
    draws on the diagonal, then standard normals below it, row by row."""
    p = len(half_dofs)
    t = np.diag(np.sqrt(rng.gamma(half_dofs, 2.0)))
    z = rng.standard_normal(p * (p - 1) // 2)
    for i in range(1, p):
        t[i, :i] = z[i * (i - 1) // 2:i * (i + 1) // 2]
    return t


def invwishart_sample(dof, scale, rng):
    """Draw Sigma ~ IW_p(dof, scale), i.e. Sigma^{-1} ~ W_p(dof - p - 1, scale^{-1})."""
    scale = np.atleast_2d(scale)
    return inv_spd(wishart_sample(dof - scale.shape[0] - 1, inv_spd(scale), rng))


def matrix_normal_sample(mean, row_cov, col_cov, rng):
    """Draw from the matrix normal by X = M + L_row Z L_col'.

    ``row_cov`` may be exactly zero (degenerate state evolution when all
    state discounts are 1), in which case the mean is returned.
    """
    mean = np.atleast_2d(np.asarray(mean, dtype=float))
    row_cov = symmetrize(np.atleast_2d(row_cov))
    if not np.any(row_cov):
        return mean.copy()
    z = rng.standard_normal(mean.shape)
    return mean + _psd_lower_factor(row_cov) @ z @ cholesky_upper(np.atleast_2d(col_cov))


def _psd_lower_factor(m):
    """Lower factor L with LL' = M (exactly symmetric), tolerating semi-definite M."""
    try:
        return factor_symmetric(m).T
    except NonPositiveDefinite:
        eigvals, eigvecs = np.linalg.eigh(symmetrize(m))
        eigvals = np.clip(eigvals, 0.0, None)
        return eigvecs @ np.diag(np.sqrt(eigvals))


def singular_beta_sample(params, rng):
    """Draw B from the singular multivariate beta with shapes (shape_a, 1/2).

    Construction: A ~ W_p(2 shape_a, I), u ~ N_p(0, I), C'C = A + uu'
    (upper Cholesky), B = (C')^{-1} A C^{-1}. The result is symmetric with
    eigenvalues in [0, 1] and I - B of rank one.
    """
    return _singular_beta((2.0 * params.shape_a - np.arange(params.p)) / 2.0, rng)


def _singular_beta(half_dofs, rng):
    """:func:`singular_beta_sample` given the half dofs of its Wishart draw."""
    t = _bartlett(half_dofs, rng)
    a = symmetrize(t @ t.T)
    u = rng.standard_normal(len(half_dofs))
    c = factor_symmetric(a + np.outer(u, u))
    # (C')^{-1} A C^{-1} via two triangular solves.
    return symmetrize(solve_upper_t(c, solve_upper_t(c, a).T).T)


def _evolution_constants(beta, n):
    """The half dofs of the singular-beta draw at shape_a = (tr(beta)/p n + p - 1)/2,
    after its check, and beta^{-1/2} 1 1' beta^{-1/2}."""
    p = len(beta)
    params = SingularBetaParams(shape_a=(float(np.mean(beta)) * n + p - 1) / 2.0, p=p)
    inv_root = 1.0 / np.sqrt(beta)
    return (2.0 * params.shape_a - np.arange(p)) / 2.0, np.outer(inv_root, inv_root)


def _evolve_factored(c_prev, half_dofs, scale_outer, rng):
    """Phi_t = beta^{-1/2} C' B C beta^{-1/2} from the factor C of Phi_{t-1},
    and the factor of Phi_t, which fails fast if the draw degenerated."""
    b = _singular_beta(half_dofs, rng)
    phi = symmetrize(c_prev.T @ b @ c_prev * scale_outer)
    return phi, factor_symmetric(phi)


def evolve_precision(phi_prev, beta, n, rng):
    """One stochastic step of the precision evolution.

    Computes beta^{-1/2} C' B C beta^{-1/2} where C is the upper Cholesky
    factor of the previous precision and B is a singular-beta draw with
    shapes ((tr(beta)/p * n + p - 1)/2, 1/2). Marginally over a Wishart
    previous precision with n + p - 1 degrees of freedom and scale S^{-1},
    the result is Wishart with tr(beta)/p * n + p - 1 degrees of freedom
    and scale beta^{-1/2} S^{-1} beta^{-1/2}.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    p = beta.shape[0]
    phi_prev = symmetrize(np.atleast_2d(phi_prev))
    if phi_prev.shape != (p, p):
        raise DimensionMismatch(f"phi_prev has shape {phi_prev.shape}, expected {(p, p)}")
    half_dofs, scale_outer = _evolution_constants(beta, n)
    return _evolve_factored(factor_symmetric(phi_prev), half_dofs, scale_outer, rng)[0]
