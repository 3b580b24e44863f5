import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from numpy.testing import assert_allclose

from mvdlm.distributions import (
    InvWishartParams,
    MultiTParams,
    SingularBetaParams,
    evolve_precision,
    invwishart_logpdf,
    invwishart_sample,
    log_multigamma,
    matrix_normal_sample,
    mvt_logpdf,
    singular_beta_sample,
    wishart_sample,
)
from mvdlm.errors import DiscountOutOfRange, DofTooSmall, MvdlmError, NonPositiveDefinite
from mvdlm import distributions, linalg
from mvdlm.linalg import cholesky_upper, factor_symmetric


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


class TestCholeskyUpper:
    def test_identity(self):
        assert_allclose(cholesky_upper(np.eye(3)), np.eye(3))

    def test_scalar(self):
        assert_allclose(cholesky_upper([[4.0]]), [[2.0]])

    def test_reconstruction(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        c = cholesky_upper(m)
        assert np.allclose(np.triu(c), c)
        assert np.all(np.diag(c) > 0)
        assert_allclose(c.T @ c, m, rtol=1e-10)

    def test_non_pd(self):
        with pytest.raises(NonPositiveDefinite):
            cholesky_upper([[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite(self, bad):
        with pytest.raises(NonPositiveDefinite, match="not finite"):
            cholesky_upper([[1.0, 0.0], [0.0, bad]])


class TestInvWishartLogpdf:
    def test_scalar_inverse_gamma_oracle(self):
        # the p=1 family with dof k and unit scale is inverse-gamma
        # with shape (k-2)/2 and rate 1/2
        params = InvWishartParams(dof=5.0, scale=[[1.0]])
        oracle = scipy.stats.invgamma(a=1.5, scale=0.5)
        for x in (0.3, 1.0, 2.7):
            assert_allclose(
                invwishart_logpdf([[x]], params), oracle.logpdf(x), rtol=1e-12
            )

    def test_quadrature_mass(self):
        params = InvWishartParams(dof=5.0, scale=[[1.0]])
        mass, _ = scipy.integrate.quad(
            lambda x: np.exp(invwishart_logpdf([[x]], params)), 0.0, np.inf
        )
        assert abs(mass - 1.0) < 1e-6

    def test_orthogonal_invariance(self):
        h = rotation(np.pi / 6.0)
        s = np.array([[2.0, 0.3], [0.3, 1.0]])
        x = np.array([[1.5, -0.2], [-0.2, 0.9]])
        params = InvWishartParams(dof=9.0, scale=s)
        rotated = InvWishartParams(dof=9.0, scale=h @ s @ h.T)
        assert (
            abs(
                invwishart_logpdf(x, params)
                - invwishart_logpdf(h @ x @ h.T, rotated)
            )
            < 1e-10
        )

    def test_dof_guard(self):
        with pytest.raises(DofTooSmall):
            invwishart_logpdf([[1.0]], InvWishartParams(dof=2.0, scale=[[1.0]]))

    def test_factors_x_and_the_scale_once_each(self, monkeypatch):
        """x's one factor gives both its inverse and its log-determinant."""
        calls = []

        def counting(m):
            calls.append(m.shape)
            return factor_symmetric(m)

        monkeypatch.setattr(linalg, "factor_symmetric", counting)
        x = np.array([[1.5, -0.2], [-0.2, 0.9]])
        invwishart_logpdf(x, InvWishartParams(dof=9.0, scale=[[2.0, 0.3], [0.3, 1.0]]))
        assert len(calls) == 2

    def test_mean_property(self):
        params = InvWishartParams(dof=12.0, scale=2.0 * np.eye(2))
        assert_allclose(params.mean, 2.0 * np.eye(2) / 6.0)
        with pytest.raises(DofTooSmall):
            InvWishartParams(dof=6.0, scale=np.eye(2)).mean


class TestMvtLogpdf:
    def test_scalar_t_oracle(self):
        params = MultiTParams(dof=9.0, location=[0.2], scale_row=2.0, scale_col=[[3.0]])
        oracle = scipy.stats.t(df=9, loc=0.2, scale=np.sqrt(2.0 * 3.0 / 9.0))
        for x in (-1.0, 0.5, 3.0):
            assert_allclose(mvt_logpdf([x], params), oracle.logpdf(x), rtol=1e-12)

    def test_quadrature_mass(self):
        params = MultiTParams(dof=9.0, location=[0.2], scale_row=2.0, scale_col=[[3.0]])
        mass, _ = scipy.integrate.quad(
            lambda x: np.exp(mvt_logpdf([x], params)), -np.inf, np.inf
        )
        assert abs(mass - 1.0) < 1e-6

    def test_elliptical_symmetry(self):
        params = MultiTParams(
            dof=7.0,
            location=[1.0, -2.0],
            scale_row=1.5,
            scale_col=[[2.0, 0.5], [0.5, 1.0]],
        )
        z = np.array([0.3, -0.7])
        left = mvt_logpdf(params.location + z, params)
        right = mvt_logpdf(params.location - z, params)
        assert abs(left - right) < 1e-12

    def test_covariance_property(self):
        params = MultiTParams(dof=9.0, location=[0.0], scale_row=2.0, scale_col=[[3.0]])
        assert_allclose(params.covariance, [[6.0 / 7.0]])

    @pytest.mark.parametrize("dof", [0.0, -0.5])
    def test_non_positive_dof_is_typed(self, dof):
        params = MultiTParams(dof=dof, location=[0.0, 0.0], scale_row=1.0, scale_col=np.eye(2))
        with pytest.raises(DofTooSmall):
            mvt_logpdf([0.3, -0.1], params)


class TestLogMultigamma:
    """log_multigamma on math.lgamma against scipy.special, from just above
    the pole at (p - 1)/2 up to 500."""

    @staticmethod
    def arguments(p):
        low = (p - 1) / 2.0
        return np.concatenate([low + np.geomspace(1e-9, 1.0, 25), np.linspace(low + 1.0, 500.0, 60)])

    @pytest.mark.parametrize("p", [1, 2, 4, 16, 33])
    def test_matches_scipy(self, p):
        a = self.arguments(p)
        values = [log_multigamma(x, p) for x in a]
        assert_allclose(values, scipy.special.multigammaln(a, p), rtol=1e-13)
        if p == 1:
            assert_allclose(values, scipy.special.gammaln(a), rtol=1e-13)

    @pytest.mark.parametrize("p", [1, 2, 4, 16, 33])
    def test_ratio_telescopes(self, p):
        """log Gamma_p(a + 1/2) - log Gamma_p(a) to 1e-12, plus the rounding of
        scipy's two terms: at |log Gamma_p| ~ 3e4 (p = 33, a = 500) their
        difference alone is off by up to 3e-11 from a 50-digit value, while
        the telescoped form stays within 1e-12 of it (see the mpmath test)."""
        a = self.arguments(p)
        upper = scipy.special.multigammaln(a + 0.5, p)
        difference = upper - scipy.special.multigammaln(a, p)
        ratio = np.array([log_multigamma(x, p, ratio=True) for x in a])
        assert np.all(np.abs(ratio - difference) <= 1e-12 + 64 * np.spacing(np.abs(upper)))

    @pytest.mark.parametrize("p", [1, 4, 33])
    def test_ratio_against_high_precision(self, p):
        """Against a 50-digit value: within 1e-12 below a = 16 + 2p, where the
        lgamma difference is taken, and within 3 ulp of the value from there to
        a = 1e8, where the series is (the difference erred by 2.1e-11 at 5e4)."""
        mpmath = pytest.importorskip("mpmath")
        start = 16.0 + 2.0 * p
        points = np.concatenate([self.arguments(p), start + np.array([-1e-9, 0.0, 1e-9]),
                                 np.geomspace(start, 1e8, 60)])
        with mpmath.workdps(50):
            for x in points:
                exact = float(mpmath.loggamma(mpmath.mpf(x) + 0.5) - mpmath.loggamma(
                    mpmath.mpf(x) - mpmath.mpf(p - 1) / 2))
                bound = 1e-12 if x < start else 3 * np.spacing(abs(exact))
                assert abs(log_multigamma(x, p, ratio=True) - exact) <= bound, x

    @pytest.mark.parametrize("p", [1, 2, 16])
    def test_argument_at_or_below_the_pole(self, p):
        for a in ((p - 1) / 2.0, (p - 1) / 2.0 - 0.25, float("nan")):
            for ratio in (False, True):
                with pytest.raises(DofTooSmall):
                    log_multigamma(a, p, ratio=ratio)


class TestTQuantile:
    """The VaR's t quantile, a Halley solve on the incomplete beta. Against a
    40-digit value it is within 1.5e-14 to dof = 100 and 4.5e-14 at dof = 1e4
    (2.5e-11 there while the log-beta prefactor took the lgamma difference at any
    dof). ``scipy.stats.t.ppf`` takes the level alpha / 100, whose complement
    1 - level is rounded, so near dof = 2 it sits up to 2.4e-13 from the value at
    the percentage alpha."""

    ALPHAS = (0.01, 1.0, 5.0, 25.0, 49.9, 50.1, 75.0, 95.0, 99.0, 99.99)

    @staticmethod
    def rtol(dof, floor):
        return floor + 4e-18 * dof  # the rounding grows slowly with dof

    @pytest.mark.parametrize("dof", np.geomspace(2.001, 1e4, 12), ids=lambda dof: f"{dof:.4g}")
    def test_matches_scipy(self, dof):
        values = [distributions._t_quantile(dof, alpha) for alpha in self.ALPHAS]
        expected = scipy.stats.t.ppf(np.array(self.ALPHAS) / 100.0, dof)
        assert_allclose(values, expected, rtol=self.rtol(dof, 4e-13))

    @pytest.mark.parametrize("dof", [2.001, 3.0, 7.5, 60.0, 1e4])
    def test_antisymmetric_about_the_median(self, dof):
        assert distributions._t_quantile(dof, 50.0) == 0.0
        for alpha in self.ALPHAS:
            if alpha > 50.0:
                upper = distributions._t_quantile(dof, alpha)
                assert upper > 0.0 and upper == -distributions._t_quantile(dof, 100.0 - alpha)

    def test_against_high_precision(self):
        """Spot values against 40-digit roots of I_x(dof/2, 1/2) / 2 = tail, where
        scipy.stats lies within 4.6e-16 of them."""
        mpmath = pytest.importorskip("mpmath")
        points = [(2.001, 0.01), (2.001, 99.99), (2.5, 5.0), (3.0, 1.0), (4.5, 25.0),
                  (7.0, 99.0), (12.3, 49.9), (30.0, 95.0), (100.0, 50.1), (400.0, 75.0),
                  (2000.0, 0.01), (1e4, 5.0)]
        with mpmath.workdps(40):
            for dof, alpha in points:
                k, level = mpmath.mpf(dof), mpmath.mpf(alpha) / 100
                tail = min(level, 1 - level)
                root = mpmath.findroot(
                    lambda t: mpmath.betainc(k / 2, 0.5, 0, k / (k + t * t), regularized=True)
                    / 2 - tail, -abs(scipy.stats.t.ppf(float(tail), dof)))
                exact = float(root if alpha < 50.0 else -root)
                value = distributions._t_quantile(dof, alpha)
                assert abs(value - exact) <= self.rtol(dof, 2e-14) * abs(exact), (dof, alpha)

    def test_a_solve_that_does_not_converge_raises(self, monkeypatch):
        with pytest.raises(MvdlmError, match="did not converge"):  # at x = 1, with b < 1
            distributions._beta_fraction(2.0, 0.5, 1.0)
        monkeypatch.setattr(distributions, "_beta_fraction", lambda a, b, x: math.nan)
        with pytest.raises(MvdlmError, match="did not converge"):
            distributions._t_quantile(5.0, 95.0)


class TestSingularBeta:
    def test_scalar_marginal_ks(self):
        # with one degree the p=1 law is Beta(shape_a, 1/2)
        rng = np.random.default_rng(2024)
        params = SingularBetaParams(shape_a=4.5, p=1)
        draws = np.array(
            [singular_beta_sample(params, rng)[0, 0] for _ in range(100_000)]
        )
        stat = scipy.stats.kstest(draws, scipy.stats.beta(4.5, 0.5).cdf).statistic
        assert stat < 0.01

    def test_rank_one_complement(self):
        rng = np.random.default_rng(7)
        params = SingularBetaParams(shape_a=6.0, p=3)
        for _ in range(25):
            b = singular_beta_sample(params, rng)
            eigvals = np.sort(np.linalg.eigvalsh(np.eye(3) - b))
            assert eigvals[-1] > 0
            assert np.all(np.abs(eigvals[:-1]) < 1e-10)

    def test_eigenvalue_support(self):
        rng = np.random.default_rng(8)
        params = SingularBetaParams(shape_a=5.0, p=2)
        for _ in range(50):
            eigvals = np.linalg.eigvalsh(singular_beta_sample(params, rng))
            assert eigvals.min() >= -1e-12
            assert eigvals.max() <= 1.0 + 1e-12

    def test_parameter_validation(self):
        with pytest.raises(DofTooSmall):
            SingularBetaParams(shape_a=0.4, p=2)

    @pytest.mark.parametrize("shape_a", [np.nan, np.inf])
    def test_non_finite_shape_refused(self, shape_a):
        with pytest.raises(DofTooSmall):
            SingularBetaParams(shape_a=shape_a, p=2)


class TestEvolvePrecision:
    def test_scalar_beta_scaling_ks(self):
        # with fixed previous precision 1, beta * Phi_t is a Beta(4.5, 0.5) draw
        rng = np.random.default_rng(11)
        draws = np.array(
            [
                0.9 * evolve_precision([[1.0]], [0.9], 10.0, rng)[0, 0]
                for _ in range(20_000)
            ]
        )
        stat = scipy.stats.kstest(draws, scipy.stats.beta(4.5, 0.5).cdf).statistic
        assert stat < 0.015

    def test_marginal_moments(self):
        # Wishart previous precision propagates to the discounted Wishart:
        # mean dof * V and elementwise variance dof * (V_ij^2 + V_ii V_jj)
        rng = np.random.default_rng(12)
        p, n, beta = 2, 10.0, 0.9
        n_draws = 20_000
        draws = np.empty((n_draws, p, p))
        for i in range(n_draws):
            phi_prev = wishart_sample(n + p - 1, np.eye(p), rng)
            draws[i] = evolve_precision(phi_prev, [beta, beta], n, rng)
        dof = beta * n + p - 1
        v = np.eye(p) / beta
        mean_expected = dof * v
        var_expected = dof * (v**2 + np.outer(np.diag(v), np.diag(v)))
        mean_obs = draws.mean(axis=0)
        var_obs = draws.var(axis=0)
        mc_se_mean = np.sqrt(var_expected / n_draws)
        assert np.all(np.abs(mean_obs - mean_expected) < 3.0 * mc_se_mean)
        # fourth-moment control for the variance check is looser
        assert np.all(
            np.abs(var_obs - var_expected) < 0.1 * var_expected + 5 * mc_se_mean
        )

    def test_near_unit_discount_preserves_mean(self):
        rng = np.random.default_rng(13)
        p, beta = 2, 0.999
        n = 1.0 / (1.0 - beta)
        n_draws = 30_000
        total = np.zeros((p, p))
        for _ in range(n_draws):
            phi_prev = wishart_sample(n + p - 1, np.eye(p), rng)
            total += evolve_precision(phi_prev, [beta, beta], n, rng)
        drift = np.abs(np.diag(total / n_draws) / (n + p - 1) - 1.0)
        assert np.all(drift < 0.005)

    @pytest.mark.slow
    def test_conditional_mean_identity(self):
        # E[Phi_t | Phi_{t-1}] = a/(a + 1/2) beta^{-1/2} Phi_{t-1} beta^{-1/2}
        # with a = (tr(beta)/p n + p - 1)/2, since E[B] = a/(a + 1/2) I
        beta = np.array([0.66, 0.9, 0.9, 0.66])
        p = len(beta)
        n = 1.0 / (1.0 - beta.mean())
        a = (beta.mean() * n + p - 1) / 2.0
        phi_prev = 0.7 * np.eye(p) + 0.3 * np.ones((p, p))
        rng = np.random.default_rng(5)
        draws = np.array([evolve_precision(phi_prev, beta, n, rng) for _ in range(40_000)])
        inv_root = 1.0 / np.sqrt(beta)
        expected = a / (a + 0.5) * phi_prev * np.outer(inv_root, inv_root)
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - expected) < 4.0 * se)

    def test_spd_preserved(self):
        rng = np.random.default_rng(14)
        phi = np.array([[2.0, 0.5], [0.5, 1.0]])
        for _ in range(2000):
            phi = evolve_precision(phi, [0.95, 0.9], 13.0, rng)
            # cholesky inside evolve_precision already guarantees SPD; make
            # sure the iteration does not degenerate numerically
            assert np.all(np.isfinite(phi))


BAD_SAMPLER_INPUTS = {
    "wishart nan dof": (wishart_sample, (np.nan, np.eye(2)), DofTooSmall),
    "wishart inf dof": (wishart_sample, (np.inf, np.eye(2)), DofTooSmall),
    "invwishart nan dof": (invwishart_sample, (np.nan, np.eye(2)), DofTooSmall),
    "invwishart inf dof": (invwishart_sample, (np.inf, np.eye(2)), DofTooSmall),
    "beta above 1": (evolve_precision, (np.eye(2), [1.5, 0.9], 10.0), DiscountOutOfRange),
    "beta 0": (evolve_precision, (np.eye(2), [0.0, 0.9], 10.0), DiscountOutOfRange),
    "beta negative": (evolve_precision, (np.eye(2), [-0.5, 0.9], 10.0), DiscountOutOfRange),
    "beta nan": (evolve_precision, (np.eye(2), [np.nan, 0.9], 10.0), DiscountOutOfRange),
    "n nan": (evolve_precision, (np.eye(2), [0.9, 0.9], np.nan), DofTooSmall),
    "n inf": (evolve_precision, (np.eye(2), [0.9, 0.9], np.inf), DofTooSmall),
}


@pytest.mark.parametrize("case", list(BAD_SAMPLER_INPUTS))
def test_bad_sampler_input_raises_before_any_draw(case):
    # the typed error comes first: the generator is left where a fresh one starts
    sampler, args, error = BAD_SAMPLER_INPUTS[case]
    rng = np.random.default_rng(4)
    with pytest.raises(error):
        sampler(*args, rng)
    assert rng.random() == np.random.default_rng(4).random()


class TestTransitionDensityScalar:
    """One-dimensional check of the volatility transition density.

    The transformed variable X = a^2 / B with B ~ Beta(m/2, 1/2) has density
    const * a^m (1 - a^2/x)^{-1/2} x^{-(m+2)/2} on (a^2, inf); this matches
    the plain change-of-variables density and integrates to 1.
    """

    @staticmethod
    def structured_density(x, a, m):
        const = np.exp(
            scipy.special.gammaln((m + 1) / 2.0)
            - scipy.special.gammaln(m / 2.0)
            - 0.5 * np.log(np.pi)
        )
        kappa = 1.0 - a**2 / x
        return const * a**m * kappa**-0.5 * x ** (-(m + 2) / 2.0)

    @staticmethod
    def change_of_variables_density(x, a, m):
        b = a**2 / x
        return scipy.stats.beta.pdf(b, m / 2.0, 0.5) * a**2 / x**2

    def test_matches_oracle_and_integrates(self):
        a, m = 1.3, 9.0
        xs = np.linspace(a**2 * 1.0001, a**2 * 50, 7)
        for x in xs:
            assert_allclose(
                self.structured_density(x, a, m),
                self.change_of_variables_density(x, a, m),
                rtol=1e-10,
            )
        mass, _ = scipy.integrate.quad(
            lambda x: self.structured_density(x, a, m), a**2, np.inf
        )
        assert abs(mass - 1.0) < 1e-6


class TestSamplers:
    def test_wishart_mean(self):
        rng = np.random.default_rng(21)
        v = np.array([[2.0, 0.4], [0.4, 1.0]])
        draws = np.mean(
            [wishart_sample(7.5, v, rng) for _ in range(20_000)], axis=0
        )
        assert np.max(np.abs(draws - 7.5 * v) / (7.5 * v[0, 0])) < 0.02

    def test_invwishart_mean(self):
        rng = np.random.default_rng(22)
        p = 2
        s = np.array([[2.0, 0.3], [0.3, 1.0]])
        k = 14.0
        draws = np.mean(
            [invwishart_sample(k, s, rng) for _ in range(20_000)], axis=0
        )
        assert np.max(np.abs(draws - s / (k - 2 * p - 2)) / s[0, 0]) < 0.02

    def test_matrix_normal_covariances(self):
        rng = np.random.default_rng(23)
        row = np.array([[0.5]])
        col = np.array([[2.0, 0.8], [0.8, 1.0]])
        draws = np.array(
            [matrix_normal_sample(np.zeros((1, 2)), row, col, rng) for _ in range(30_000)]
        ).reshape(-1, 2)
        assert np.max(np.abs(np.cov(draws.T) - 0.5 * col)) < 0.03

    def test_matrix_normal_zero_row_cov(self):
        rng = np.random.default_rng(24)
        mean = np.array([[1.0, 2.0]])
        out = matrix_normal_sample(mean, np.zeros((1, 1)), np.eye(2), rng)
        assert_allclose(out, mean)
