"""Distribution families used by the volatility model.

Covers the inverted Wishart in the (k, S) parameterization with k > 2p
(equivalently Sigma^{-1} ~ Wishart with k - p - 1 degrees of freedom and
scale S^{-1}), the one-row multivariate Student t that drives the forecast
law, and the singular multivariate beta that multiplies the precision
matrix from one step to the next. Samplers take an explicit numpy
Generator; densities are pure functions.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DiscountOutOfRange, DofTooSmall, DimensionMismatch, MvdlmError,
                     NonPositiveDefinite)
from .linalg import (cholesky_upper, factor_symmetric, inv_factor, inv_spd, logdet_factor,
                     solve_upper_t, symmetrize)

__all__ = [
    "InvWishartParams",
    "MultiTParams",
    "SingularBetaParams",
    "evolve_precision",
    "invwishart_logpdf",
    "invwishart_sample",
    "log_multigamma",
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
    """Singular multivariate beta with second shape fixed at 1/2 (the
    single-degree case). ``shape_a`` is (tr(beta)/p * n + p - 1)/2 in the
    volatility evolution.
    """

    shape_a: float
    p: int

    def __post_init__(self):
        _singular_half_dofs(self.shape_a, self.p)


def log_multigamma(a, p, ratio=False):
    """log Gamma_p(a) = p(p - 1)/4 log(pi) + sum_j lgamma(a - j/2), j < p; with
    ``ratio``, log Gamma_p(a + 1/2) - log Gamma_p(a), which telescopes to
    lgamma(a + 1/2) - lgamma(a - (p - 1)/2), from a >= 16 + 2p by its series at
    z = a - p/4: (p/2) log z - sum_m B_{2m+1}(1/2 + p/4) / (m(2m + 1) z^{2m}), m <= 8
    (DLMF 5.11.8), within a few ulp. Both need a > (p - 1)/2."""
    low = a - (p - 1) / 2.0
    if not low > 0.0:
        raise DofTooSmall(f"log Gamma_{p}(a) needs a > {(p - 1) / 2.0}, got a = {a}")
    if ratio and a < 16.0 + 2.0 * p:
        return math.lgamma(a + 0.5) - math.lgamma(low)
    if ratio:  # Horner's rule in z^{-2}
        z, series = a - p / 4.0, 0.0
        for coefficient in _ratio_series(p):
            series = (series + coefficient) / (z * z)
        return p / 2.0 * math.log(z) + series
    return p * (p - 1) / 4.0 * math.log(math.pi) + math.fsum(
        math.lgamma(a - j / 2.0) for j in range(p)
    )


@functools.lru_cache
def _ratio_series(p):
    """-B_{2m+1}(1/2 + p/4) / (m(2m + 1)), m = 8..1, of :func:`log_multigamma`'s series, from
    B_{2j}(1/2) = (2^{1 - 2j} - 1) B_{2j}, j = 0..8, and the binomial expansion about 1/2."""
    half = (1.0, -1 / 12, 7 / 240, -31 / 1344, 127 / 3840, -2555 / 33792, 1414477 / 5591040,
            -57337 / 49152, 118518239 / 16711680)
    return tuple(-math.fsum(math.comb(2 * m + 1, 2 * j) * b * (p / 4.0) ** (2 * (m - j) + 1)
                            for j, b in enumerate(half[:m + 1])) / (m * (2 * m + 1))
                 for m in range(8, 0, -1))


def _t_quantile(dof, alpha):
    """Quantile of the standard Student t with ``dof`` > 2 at the percentage ``alpha``
    in (0, 100): 0 at alpha = 50, and for alpha > 50 exactly -q(100 - alpha), as both
    solve for the one tail.

    With tail = min(alpha, 100 - alpha) / 100, solves F(t) = tail for t < 0, where
    F(t) = I_x(dof/2, 1/2) / 2 at x = dof / (dof + t^2), by Halley steps from Hill's
    (1970, CACM Algorithm 396) approximation. Each step evaluates the regularized
    incomplete beta by its continued fraction, or that of I_{1-x}(1/2, dof/2) =
    1 - I_x(dof/2, 1/2) where that one converges faster; the log-beta prefactor comes
    from :func:`log_multigamma` (relative 4.5e-14 from a 40-digit value at dof = 1e4).
    """
    tail = min(alpha, 100.0 - alpha) / 100.0
    if tail == 0.5:
        return 0.0
    a = dof / 2.0
    log_beta = 0.5 * math.log(math.pi) - log_multigamma(a, 1, ratio=True)  # log B(a, 1/2)
    t = -_hill_t_quantile(dof, tail)
    for _ in range(16):
        s = t * t
        x, y = dof / (dof + s), s / (dof + s)
        prefactor = math.exp(-a * math.log1p(s / dof) + 0.5 * math.log(y) - log_beta)
        if x < (a + 1.0) / (a + 2.5):
            gap = 0.5 * prefactor * _beta_fraction(a, 0.5, x) / a - tail
        else:  # (1/2 - tail) is exact near the median, so t keeps its relative accuracy
            gap = (0.5 - tail) - prefactor * _beta_fraction(0.5, a, y)
        step = gap / (prefactor / -t)  # the density is prefactor / |t|
        step /= 1.0 + step * (dof + 1.0) * t / (2.0 * (dof + s))
        t -= step
        if abs(step) <= 1e-6 * abs(t):  # cubic convergence: the error left is below round-off
            return t if alpha < 50.0 else -t
    raise MvdlmError(f"t quantile at dof {dof}, alpha {alpha} did not converge")


def _hill_t_quantile(dof, tail):
    """|t| with P(|T| > t) = 2 tail for T ~ t_dof, dof > 2, by Hill's approximation:
    within a relative 1.1e-3 near dof = 2, closer as dof grows."""
    from statistics import NormalDist  # loaded only where a quantile is taken

    a = 1.0 / (dof - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * dof
    y = (2.0 * d * tail) ** (2.0 / dof)
    if y > 0.05 + a:  # the normal-based expansion, away from the far tail
        z = NormalDist().inv_cdf(tail)
        if dof < 5.0:
            c += 0.3 * (dof - 4.5) * (z + 0.6)
        c = (((0.05 * d * z - 5.0) * z - 7.0) * z - 2.0) * z + b + c
        w = (((((0.4 * z * z + 6.3) * z * z + 36.0) * z * z + 94.5) / c - z * z - 3.0) / b
             + 1.0) * z
        y = math.expm1(a * w * w)
    else:
        y = ((1.0 / (((dof + 6.0) / (dof * y) - 0.089 * d - 0.822) * (dof + 2.0) * 3.0)
              + 0.5 / (dof + 4.0)) * y - 1.0) * (dof + 1.0) / (dof + 2.0) + 1.0 / y
    return math.sqrt(dof * y)


def _beta_fraction(a, b, x):
    """The continued fraction of I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) * fraction,
    by the modified Lentz method."""
    tiny, eps = 1e-300, math.ulp(1.0)
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    c, value = 1.0, d
    for m in range(1, 10_000):
        for term in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + term / c
            c = c if abs(c) > tiny else tiny
            value *= c * d
        if abs(c * d - 1.0) <= eps:
            return value
    raise MvdlmError(f"incomplete beta fraction at a = {a}, b = {b}, x = {x} did not converge")


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
    root = cholesky_upper(x)  # one factor of x gives its inverse and its log-determinant
    return (
        -a * p * np.log(2.0)
        + a * logdet_factor(cholesky_upper(s))
        - log_multigamma(a, p)
        - 0.5 * k * logdet_factor(root)
        - 0.5 * float(np.sum(s * inv_factor(root)))
    )


def mvt_logpdf(x, params):
    """Log-density of the one-row multivariate Student t forecast law.

    The normalizing constant is the ratio of multivariate gamma functions
    at (dof + p)/2 and (dof + p - 1)/2, defined for dof > 0; the kernel
    collapses through |S + vv'/u| = |S| (1 + v'S^{-1}v / u).
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
    return (
        log_multigamma((nu + p - 1) / 2.0, p, ratio=True)
        - 0.5 * p * np.log(np.pi)
        - 0.5 * p * np.log(u)
        - 0.5 * logdet_factor(c)
        - 0.5 * (nu + p) * np.log1p(quad / u)
    )


def wishart_sample(dof, scale, rng):
    """Draw from W_p(dof, scale) by the Bartlett decomposition.

    Works for any finite real dof > p - 1 (chi-square marginals drawn as gammas).
    """
    scale = symmetrize(np.array(scale, dtype=float, ndmin=2))
    p = scale.shape[0]
    if not p - 1 < dof < math.inf:
        raise DofTooSmall(f"Wishart sampling requires a finite dof > p - 1 = {p - 1}, got {dof}")
    a = factor_symmetric(scale).T @ _bartlett([(dof - i) / 2.0 for i in range(p)], rng)
    # numpy takes a @ a.T as one syrk and mirrors its upper triangle: exactly symmetric.
    return a @ a.T


def _bartlett(half_dofs, rng, extra=False):
    """Bartlett factor of W_p(dof, I): the roots of scalar gamma((dof - i)/2, 2) draws on
    the diagonal, then standard normals below it, row by row (``extra``: then a column)."""
    p = len(half_dofs)
    t = np.zeros((p, p + extra))
    for i, half_dof in enumerate(half_dofs):
        t[i, i] = math.sqrt(rng.gamma(half_dof, 2.0))
    z = rng.standard_normal(p * (p - 1 + 2 * extra) // 2)
    for i in range(1, p):
        t[i, :i] = z[i * (i - 1) // 2:i * (i + 1) // 2]
    if extra:
        t[:, p] = z[-p:]
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

    Construction: A = TT' ~ W_p(2 shape_a, I) (Bartlett T), u ~ N_p(0, I),
    C'C = A + uu' (upper Cholesky), B = XX' with the lower X = (C')^{-1} T, so
    B = (C')^{-1} A C^{-1}. The result is exactly symmetric with eigenvalues in
    [0, 1] and I - B of rank one.
    """
    x = _singular_root(_singular_half_dofs(params.shape_a, params.p), rng)
    return x @ x.T


def _singular_half_dofs(shape_a, p):
    """The half dofs (2 shape_a - i)/2 of the Wishart draw inside the singular
    beta, after the check shape_a > (p - 1)/2 (finite)."""
    if not (p - 1) / 2.0 < shape_a < math.inf:
        raise DofTooSmall(f"shape_a must be finite and exceed (p - 1)/2 = {(p - 1) / 2.0}")
    return [(2.0 * shape_a - i) / 2.0 for i in range(p)]


def _singular_root(half_dofs, rng):
    """The lower root X = (C')^{-1} T of a singular-beta draw B = XX' given the half
    dofs of its Wishart draw: T, then u, one factor C of [T u][T u]' and one solve."""
    tu = _bartlett(half_dofs, rng, extra=True)
    return solve_upper_t(factor_symmetric(tu @ tu.T), tu[:, :-1])


def _evolution_constants(beta, n):
    """The half dofs of the singular-beta draw at shape_a = (tr(beta)/p n + p - 1)/2,
    after the checks of beta and shape_a."""
    p = len(beta)
    if not all(0.0 < b <= 1.0 for b in beta.tolist()):
        raise DiscountOutOfRange(f"volatility discounts {beta.tolist()} must lie in (0, 1]")
    return _singular_half_dofs((float(beta.sum()) / p * n + p - 1) / 2.0, p)


def evolve_precision(phi_prev, beta, n, rng):
    """One stochastic step of the precision evolution: beta^{-1/2} C' B C beta^{-1/2} = YY',
    exactly symmetric, with C'C = phi_prev (upper Cholesky), B = XX' a singular-beta draw with
    shapes ((tr(beta)/p * n + p - 1)/2, 1/2) and the lower Y = beta^{-1/2} C' X. Marginally
    over a Wishart previous precision with n + p - 1 degrees of freedom and scale S^{-1}, the
    result is Wishart with tr(beta)/p * n + p - 1 degrees of freedom and scale
    beta^{-1/2} S^{-1} beta^{-1/2}. Needs each beta_i in (0, 1], n finite. A Y diagonal not
    finite and above 0, or a result not finite, raises :class:`NonPositiveDefinite`.
    """
    beta = np.array(beta, dtype=float, ndmin=1)
    p = beta.shape[0]
    phi_prev = symmetrize(np.array(phi_prev, dtype=float, ndmin=2))
    if phi_prev.shape != (p, p):
        raise DimensionMismatch(f"phi_prev has shape {phi_prev.shape}, expected {(p, p)}")
    half_dofs = _evolution_constants(beta, n)
    lower = factor_symmetric(phi_prev).T
    with np.errstate(over="ignore", invalid="ignore"):
        y = (lower @ _singular_root(half_dofs, rng)) / np.sqrt(beta)[:, None]
        phi = y @ y.T
        if not (all(0.0 < v < math.inf for v in y.diagonal().tolist())
                and np.isfinite(phi).all()):
            raise NonPositiveDefinite("a precision draw degenerated or left the float range")
    return phi
