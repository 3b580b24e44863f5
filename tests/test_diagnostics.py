import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gammaln, multigammaln

from mvdlm import ModelSpec, Priors, predict, run
from mvdlm.diagnostics import (
    compute_diagnostics,
    error_summary,
    export_report_json,
    grid_search,
    lbf_from_trajectories,
    loglik_arrays,
    loglik_constant_arrays,
    var_at_horizon,
    var_portfolio,
)
from mvdlm.errors import (
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
from mvdlm import diagnostics as diagnostics_module
from mvdlm import filter as filter_module
from mvdlm.filter import forecast_law, mle_constant, run_models
from mvdlm.simulate import simulate

from conftest import local_level


class TestMsse:
    def test_zero_errors(self):
        spec, priors = local_level(1, 0.5, [0.9])
        traj = run(spec, priors, np.zeros((5, 1)))
        msse, mae, me = error_summary(traj.e, traj.u)
        assert_allclose(msse, [0.0])
        assert_allclose(mae, [0.0])
        assert_allclose(me, [0.0])

    def test_empty_trajectory(self):
        spec, priors = local_level(1, 0.5, [0.9])
        traj = run(spec, priors, [])
        with pytest.raises(EmptyData):
            error_summary(traj.e, traj.u)

    def test_well_specified_simulation(self):
        spec, priors = local_level(2, 0.95, [0.95, 0.95], p0=0.1)
        path = simulate(spec, priors, 2000, seed=101)
        traj = run(spec, priors, path.observations)
        msse = error_summary(traj.e, traj.u)[0]
        assert np.all(msse > 0.8) and np.all(msse < 1.25)
        u = traj.u
        n = len(traj)
        assert np.all(np.abs(u.mean(axis=0)) < 3.0 / np.sqrt(n))
        emp_cov = u.T @ u / n
        assert np.all(np.abs(emp_cov - np.eye(2)) < 3.0 * np.sqrt(2.0 / n))


def path_loglik(traj):
    """:func:`loglik_arrays` of a trajectory at its own discounts."""
    logdet, q = (terms[traj.row] for terms in traj.volatility.scale_terms)
    return loglik_arrays(traj.Q, logdet, q, traj.spec.vol_discounts)


class TestLoglikTimeVarying:
    def test_scalar_cross_check(self):
        """Independent plain-float coding of the same path-likelihood."""
        spec, priors = local_level(1, 0.8, [0.9], p0=1.0)
        rng = np.random.default_rng(1)
        obs = rng.standard_normal((10, 1))
        traj = run(spec, priors, obs)
        value = path_loglik(traj)

        beta = 0.9
        n = 1.0 / (1.0 - beta)
        m = beta / (1.0 - beta)  # m = k + p - 1 with p = 1
        sigmas = [priors.S0[0, 0] / (n - 2)]
        sigmas += list(traj.S[1:, 0, 0] / (n - 2))
        big_n = len(traj)
        const = big_n * (
            (m - 1) / 2.0 * np.log(beta)
            + gammaln((m + 1) / 2.0)
            - 0.5 * np.log(2.0)
            - np.log(np.pi)
            - gammaln(m / 2.0)
        )
        total = 0.0
        for t in range(1, big_n + 1):
            e = float(traj.e[t - 1, 0])
            q = float(traj.Q[t - 1])
            s_prev, s_cur = sigmas[t - 1], sigmas[t]
            l_t = 1.0 - beta * (1.0 / s_cur) / (1.0 / s_prev)
            total += (
                np.log(q)
                + (1 - m) * np.log(s_prev)
                + e * e / (q * s_cur)
                + np.log(l_t)
                + (m - 3) * np.log(s_cur)
            )
        assert abs(value - (const - 0.5 * total)) < 1e-8

    def test_requires_evolving_volatility(self):
        spec, priors = local_level(1, 0.8, [1.0], n0=3.0)
        traj = run(spec, priors, np.ones((4, 1)))
        with pytest.raises(MvdlmError, match="use loglik_constant_arrays$"):
            path_loglik(traj)

    def test_invariant_under_orthogonal_recoordinatization(self):
        # with a scalar discount matrix, rotating the observation space
        # (and the priors with it) leaves the evaluation unchanged
        angle = np.pi / 7.0
        h = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        rng = np.random.default_rng(44)
        obs = rng.standard_normal((25, 2))
        spec, priors = local_level(2, 0.9, [0.9, 0.9], p0=1.0)
        base = path_loglik(run(spec, priors, obs))
        priors_rot = Priors(
            m0=priors.m0 @ h.T, P0=priors.P0, S0=h @ priors.S0 @ h.T
        )
        rotated = path_loglik(run(spec, priors_rot, obs @ h.T))
        assert abs(base - rotated) < 1e-8

    def test_rows_equal_one_row_calls_bitwise(self):
        # given rows of scale terms and discounts, the core returns each
        # row's one-row likelihood bit for bit (the grid scores a pass so)
        spec, priors = local_level(4, 0.9, [0.9] * 4, p0=1.0)
        obs = 0.01 * np.random.default_rng(21).standard_normal((200, 4))
        levels = (0.6, 0.7, 0.8, 0.9, 0.95, 1.0)
        betas = [[o, i, i, o] for o in levels for i in levels if (o + i) / 2 > 2 / 3 and o * i < 1]
        models = [(replace(spec, vol_discounts=np.array(beta)), priors, obs) for beta in betas]
        vol = run_models(models)[0].volatility
        logdet, q = vol.scale_terms
        rows = loglik_arrays(vol.Q, logdet, q, vol.betas)
        assert rows.shape == (len(betas),)
        assert rows.tolist() == [loglik_arrays(vol.Q, logdet[k], q[k], beta)
                                 for k, beta in enumerate(betas)]
        assert rows.tolist() == [compute_diagnostics(t).loglik for t in run_models(models)]


class TestLoglikRankOne:
    """The only eigenvalue of I - B_t on the posterior-mean path is
    lambda_t = e_t' S_t^{-1} e_t / Q_t. Two inputs: returns of scale 1e-4
    against S0 = I, where lambda_t is far below 1e-10, and p = 16."""

    def inputs(self):
        rng = np.random.default_rng(8020214)
        spec = ModelSpec(
            p=4, d=2, design=[1.0, 0.0], evolution=np.eye(2),
            state_discounts=[0.95, 0.95], vol_discounts=[0.66, 0.9, 0.9, 0.66],
        )
        priors = Priors(m0=np.zeros((2, 4)), P0=np.eye(2), S0=np.eye(4))
        yield spec, priors, 1e-4 * rng.standard_normal((120, 4))
        beta = np.linspace(0.9, 0.98, 16)
        yield (*local_level(16, 0.95, beta, p0=1.0), rng.standard_normal((200, 16)))

    def test_matches_per_step_closed_form(self):
        for spec, priors, obs in self.inputs():
            self.check_per_step_closed_form(spec, priors, obs)

    def check_per_step_closed_form(self, spec, priors, obs):
        traj = run(spec, priors, obs)
        value = path_loglik(traj)
        # plain per-step evaluation from the recursion's scales
        p = spec.p
        beta = spec.vol_discounts
        b = beta.mean()
        n = 1.0 / (1.0 - b)
        m = b / (1.0 - b) + p - 1
        big_n = len(traj)
        const = big_n * (
            0.5 * (m - p) * np.sum(np.log(beta))
            + multigammaln((m + 1) / 2.0, p)
            - 0.5 * p * np.log(2.0)
            - p * np.log(np.pi)
            - multigammaln(m / 2.0, p)
        )
        total = 0.0
        for t in range(1, big_n + 1):
            e, q = traj.e[t - 1], traj.Q[t - 1]
            lam = float(e @ np.linalg.solve(traj.S[t], e)) / q
            logdet_prev = np.linalg.slogdet(traj.S[t - 1] / (n - 2))[1]
            logdet_cur = np.linalg.slogdet(traj.S[t] / (n - 2))[1]
            total += (
                p * np.log(q)
                + (p - m) * logdet_prev
                + (n - 2) * lam
                + p * np.log(lam)
                + (m - p - 2) * logdet_cur
            )
        assert_allclose(value, const - 0.5 * total, rtol=1e-10)

    def test_zero_error_step_is_degenerate(self):
        spec, priors = local_level(1, 1.0, [0.9])
        traj = run(spec, priors, np.zeros((3, 1)))
        with pytest.raises(NoPositiveEigenvalues):
            path_loglik(traj)


class TestLoglikConstant:
    def test_single_step_hand_value(self):
        spec, priors = local_level(1, 0.5, [1.0], p0=1.0, n0=1.0)
        traj = run(spec, priors, np.zeros((1, 1)))
        q1 = traj.Q[0]
        sigma = 2.0
        expected = -0.5 * np.log(2 * np.pi) - 0.5 * np.log(q1) - 0.5 * np.log(sigma)
        assert_allclose(loglik_constant_arrays(traj.e, traj.Q, [[sigma]]), expected, rtol=1e-12)

    def test_maximized_at_mle(self):
        rng = np.random.default_rng(3)
        obs = rng.standard_normal((80, 2)) @ np.array([[1.2, 0.5], [0.0, 0.7]])
        spec, priors = local_level(
            2, 0.9, [1.0, 1.0], p0=1.0, s0_scale=1e-12, n0=0.0
        )
        traj = run(spec, priors, obs)
        sigma_hat = mle_constant(obs, spec, priors)
        base = loglik_constant_arrays(traj.e, traj.Q, sigma_hat)
        for i in range(2):
            for eps in (0.01, -0.01, 0.05, -0.05):
                perturbed = sigma_hat.copy()
                perturbed[i, i] *= 1.0 + eps
                assert loglik_constant_arrays(traj.e, traj.Q, perturbed) <= base + 1e-9

    @pytest.mark.parametrize("sigma, message", [
        ([[1.0, np.nan], [np.nan, 1.0]], "not finite"),
        ([[1.0, 2.0], [2.0, 1.0]], "not positive definite"),
    ], ids=["nan", "indefinite"])
    def test_unusable_sigma_is_typed(self, sigma, message):
        with pytest.raises(NonPositiveDefinite, match=message):
            loglik_constant_arrays(np.ones((3, 2)), np.ones(3), sigma)

    def test_singular_sigma_takes_the_jitter_retry(self):
        # numpy's factor refuses diag(1, 1, 0); the LAPACK retry with jitter accepts it
        errors = np.array([[0.5, -1.0, 0.0], [1.5, 0.2, 0.0]])
        assert np.isfinite(loglik_constant_arrays(errors, [1.0, 2.0], np.diag([1.0, 1.0, 0.0])))


class TestVarPortfolio:
    def test_median_equals_mean(self):
        value = var_portfolio([0.3, -0.1], np.eye(2), [0.5, 0.5], [50.0], "normal")
        assert_allclose(value, 0.1, atol=1e-12)

    def test_normal_quantile_oracle(self):
        value = var_portfolio([0.0, 0.0], np.eye(2), [0.5, 0.5], [95.0], "normal")
        expected = scipy.stats.norm.ppf(0.95) * np.sqrt(0.5)
        assert_allclose(value, expected, rtol=1e-12)

    def test_t_family_needs_dof(self):
        with pytest.raises(DofTooSmall):
            var_portfolio([0.0], [[1.0]], [1.0], [95.0], "t")

    def test_t_quantile_scaled_to_unit_variance(self):
        value = var_portfolio([0.0], [[1.0]], [1.0], [99.0], "t", 9.0)
        expected = scipy.stats.t.ppf(0.99, 9) * np.sqrt(7.0 / 9.0)
        assert_allclose(value, expected, rtol=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 50.0, 95.0, 99.0])
    def test_quantiles_equal_scipy_stats(self, alpha):
        # the math-only quantiles against norm.ppf and t.ppf (measured: 3.2e-16, 7.1e-13)
        mu, sigma, weights = np.array([0.05, -0.02]), np.array([[1.3, 0.4], [0.4, 0.9]]), [0.3, 0.7]
        mean, scale = weights @ mu, np.sqrt(weights @ sigma @ weights)
        dofs = np.linspace(2.01, 400.0, 500)
        level = alpha / 100.0
        normal = var_portfolio(mu, sigma, weights, [alpha], "normal")[0]
        assert_allclose(normal, mean + scipy.stats.norm.ppf(level) * scale, rtol=2e-15)
        t_values = [var_portfolio(mu, sigma, weights, [alpha], "t", k)[0] for k in dofs]
        quantiles = [scipy.stats.t.ppf(level, df=k) * np.sqrt((k - 2.0) / k) for k in dofs]
        assert_allclose(t_values, mean + np.array(quantiles) * scale, rtol=1e-12)

    @pytest.mark.parametrize("inputs, error", [
        ({"dof": np.nan}, DofTooSmall),
        ({"dof": np.inf}, DofTooSmall),
        ({"weights": [np.nan, 1.0]}, InvalidWeights),
        ({"mu": [np.inf, 0.0]}, DimensionMismatch),
        ({"sigma": [[1.0, np.nan], [np.nan, 1.0]]}, NonPositiveDefinite),
        ({"sigma": np.stack([np.eye(2)] * 3), "dof": [5.0, 6.0]}, DimensionMismatch),
    ], ids=["nan-dof", "inf-dof", "nan-weight", "inf-mu", "nan-sigma", "dof-shape"])
    def test_refuses_inputs_that_give_no_number(self, inputs, error):
        """Each of these once gave a NaN or inf VaR, a RuntimeWarning or numpy's
        broadcasting error."""
        arguments = {"mu": [0.1, 0.0], "sigma": np.eye(2), "weights": [0.5, 0.5],
                     "alphas": [95.0], "family": "t", "dof": 5.0, **inputs}
        with pytest.raises(error):
            var_portfolio(**arguments)

    def test_invalid_weights(self):
        with pytest.raises(InvalidWeights):
            var_portfolio([0.0, 0.0], np.eye(2), [0.5, 0.6], [95.0])
        with pytest.raises(InvalidWeights):
            var_portfolio([0.0, 0.0], np.eye(2), [-0.1, 1.1], [95.0])
        with pytest.raises(InvalidWeights):
            var_portfolio([0.0], [[1.0]], [1.0], [0.0])

    @given(st.floats(min_value=51.0, max_value=99.9), st.floats(min_value=51.0, max_value=99.9))
    @settings(max_examples=40)
    def test_monotone_in_alpha(self, a1, a2):
        lo, hi = sorted((a1, a2))
        mu = np.array([0.05, -0.02])
        sigma = np.array([[1.3, 0.4], [0.4, 0.9]])
        v = var_portfolio(mu, sigma, [0.3, 0.7], [lo, hi], "t", 8.0)
        assert v[0] <= v[1] + 1e-12

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-0.8, max_value=0.8),
    )
    @settings(max_examples=40)
    def test_variance_expansion_identity(self, w1, rho):
        # w' Sigma w equals the element-wise expansion with cross terms
        w = np.array([w1, 1.0 - w1])
        sigma = np.array([[1.5, rho], [rho, 0.7]])
        direct = float(w @ sigma @ w)
        expanded = (
            w[0] ** 2 * sigma[0, 0]
            + w[1] ** 2 * sigma[1, 1]
            + 2 * w[0] * w[1] * sigma[0, 1]
        )
        assert_allclose(direct, expanded, atol=1e-12)


def lbf_pair(n_steps=12, p=2, seed=1):
    """Trajectories of two local levels (beta = 0.95 I, k_t = 19, and
    beta = 0.75 I, k_t = 3) fitted to the same standard-normal series."""
    obs = np.random.default_rng(seed).standard_normal((n_steps, p))
    return [run(*local_level(p, 0.9, [beta] * p), obs) for beta in (0.95, 0.75)]


class TestLbf:
    def test_identical_models_zero(self):
        traj = lbf_pair(n_steps=10, seed=0)[0]
        series = lbf_from_trajectories(traj, traj)
        assert_allclose(series, np.zeros(10), atol=1e-14)

    def test_swap_negates_exactly(self):
        t1, t2 = lbf_pair()
        fwd = lbf_from_trajectories(t1, t2)
        rev = lbf_from_trajectories(t2, t1)
        assert_allclose(fwd, -rev, atol=0)
        assert fwd.shape == (12,)

    def test_length_mismatch(self):
        t1, t2 = lbf_pair(n_steps=4)
        with pytest.raises(LengthMismatch):
            lbf_from_trajectories(run(t1.spec, t1.priors, np.zeros((3, 2))), t2)

    def test_refusals(self):
        # a dof of 2 or less at any step, then a different p
        t1, t2 = lbf_pair()
        low = run(*local_level(2, 0.9, [0.6, 0.6]), np.ones((12, 2)))  # k_t = 1.5
        with pytest.raises(FeatureUnavailable, match="standardized errors at every step"):
            lbf_from_trajectories(t1, low)
        wide = run(*local_level(3, 0.9, [0.95] * 3), np.ones((12, 3)))
        with pytest.raises(LengthMismatch, match=r"differ in shape: \(12, 2\) vs \(12, 3\)"):
            lbf_from_trajectories(t1, wide)

    def test_favours_truth_against_oversmoothed_model(self):
        # Standardized errors of an over-smooth wrong model are badly
        # over-dispersed, so its own predictive law is rejected. The
        # standardized-error Bayes factor does not penalize an over-adaptive
        # wrong model the same way, because standardization forgives a
        # model its own scale errors.
        spec1, priors = local_level(2, 0.9, [0.85, 0.85])
        spec2, _ = local_level(2, 0.9, [0.995, 0.995])
        wins = 0
        n_rep = 30
        for seed in range(n_rep):
            path = simulate(spec1, priors, 120, seed=seed)
            t1 = run(spec1, priors, path.observations)
            t2 = run(spec2, priors, path.observations)
            series = lbf_from_trajectories(t1, t2)
            wins += np.sum(series) > 0
        assert wins >= int(0.95 * n_rep)


class TestGridSearch:
    def test_singleton_matches_direct_run(self):
        spec, priors = local_level(2, 0.9, [0.9, 0.9])
        rng = np.random.default_rng(4)
        obs = rng.standard_normal((40, 2))
        result = grid_search(spec, priors, obs, [0.9], [[0.9, 0.9]])
        assert len(result.rows) == 1
        row = result.rows[0]
        traj = run(spec, priors, obs)
        report = compute_diagnostics(traj)
        assert_allclose(row.msse, report.msse, rtol=1e-12)
        assert_allclose(row.loglik, report.loglik, rtol=1e-12)

    def test_infeasible_candidates_excluded(self):
        spec, priors = local_level(4, 0.9, [0.9] * 4)
        obs = np.random.default_rng(5).standard_normal((20, 4))
        result = grid_search(
            spec, priors, obs, [0.9], [[0.2] * 4, [0.9] * 4]
        )
        assert len(result.rows) == 1
        assert len(result.excluded) == 1
        assert result.excluded[0][1] == (0.2, 0.2, 0.2, 0.2)

    def test_unit_discount_candidate_uses_constant_likelihood(self):
        spec, priors = local_level(2, 0.9, [0.9, 0.9], n0=3.0)
        obs = np.random.default_rng(6).standard_normal((30, 2))
        result = grid_search(spec, priors, obs, [0.9], [[1.0, 1.0]])
        assert len(result.rows) == 1
        traj = run(
            ModelSpec(
                p=2, d=1, design=[1.0], evolution=[[1.0]],
                state_discounts=[0.9], vol_discounts=[1.0, 1.0],
            ),
            priors,
            obs,
        )
        sigma_n = traj.posterior_means[-1]  # the final posterior mean
        assert_allclose(result.rows[0].loglik, loglik_constant_arrays(traj.e, traj.Q, sigma_n),
                        rtol=1e-12)

    def test_deterministic_ranking(self):
        spec, priors = local_level(2, 0.9, [0.9, 0.9])
        obs = np.random.default_rng(7).standard_normal((40, 2))
        betas = [[0.85, 0.85], [0.9, 0.9], [0.95, 0.95]]
        first = grid_search(spec, priors, obs, [0.8, 0.9], betas)
        second = grid_search(spec, priors, obs, [0.8, 0.9], betas)
        assert [(r.delta, r.beta) for r in first.rows] == [
            (r.delta, r.beta) for r in second.rows
        ]
        assert [r.loglik for r in first.rows] == [r.loglik for r in second.rows]
        # ranked by log-likelihood, descending
        logliks = [r.loglik for r in first.rows]
        assert logliks == sorted(logliks, reverse=True)

    def test_batched_rows_equal_direct_runs(self, monkeypatch):
        p, weights = 3, [0.2, 0.3, 0.5]
        spec = ModelSpec(
            p=p, d=2, design=[1.0, 0.0], evolution=np.eye(2),
            state_discounts=[0.9, 0.9], vol_discounts=[0.9] * p,
        )
        priors = Priors(m0=np.zeros((2, p)), P0=np.eye(2), S0=np.eye(p), n0=2.0)
        obs = np.random.default_rng(12).standard_normal((60, p))
        deltas = [0.8, 0.95]
        betas = [
            [1.0, 1.0, 1.0],  # constant-volatility branch
            [0.6, 0.65, 0.7],  # mean 0.65 <= 2/3: excluded
            [0.7, 0.95, 0.85],  # non-scalar
            [0.9, 0.9, 0.9],
            [0.99, 0.8, 0.9],
        ]
        result = grid_search(spec, priors, obs, deltas, betas, weights=weights)
        assert result.excluded == tuple(
            (d, (0.6, 0.65, 0.7), "mean volatility discount 0.65 <= 2/3") for d in deltas
        )
        assert len(result.rows) == len(deltas) * (len(betas) - 1)
        for row in result.rows:
            cell = ModelSpec(
                p=p, d=2, design=[1.0, 0.0], evolution=np.eye(2),
                state_discounts=[row.delta] * 2, vol_discounts=row.beta,
            )
            traj = run(cell, priors, obs)
            report = compute_diagnostics(traj)
            assert_allclose(row.msse, report.msse, rtol=1e-12)
            assert_allclose(row.me, report.me, rtol=1e-12)
            assert_allclose(row.loglik, report.loglik, rtol=1e-12)
            assert_allclose(row.var, var_at_horizon(traj, weights), rtol=1e-12)
        # smaller blocks (several volatility passes per delta) rank identically
        monkeypatch.setattr(filter_module, "BLOCK_ROWS", 2)
        again = grid_search(spec, priors, obs, deltas, betas, weights=weights)
        assert [(r.delta, r.beta, r.loglik) for r in again.rows] == [
            (r.delta, r.beta, r.loglik) for r in result.rows
        ]

    def test_rows_bitwise_equal_direct_runs(self, monkeypatch):
        # one state pass and one step-N+1 prediction per delta; each scored
        # cell validated once, each excluded one ruled out by its discounts alone
        calls = {"validate": [], "state_pass": [], "predict": []}
        for name, found in calls.items():
            module = diagnostics_module if name == "predict" else filter_module
            original = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, f=original, c=found: c.append(args) or f(*args))
        spec, priors = local_level(3, 0.9, [0.9] * 3, p0=1.0)
        obs = np.random.default_rng(13).standard_normal((80, 3))
        deltas = [0.8, 0.95]
        betas = [[1.0] * 3, [0.6, 0.65, 0.7], [0.7, 0.95, 0.85], [0.9] * 3]
        result = grid_search(spec, priors, obs, deltas, betas, weights=[0.2, 0.3, 0.5])
        assert len(calls["state_pass"]) == len(calls["predict"]) == len(deltas)
        assert len(calls["validate"]) == len(result.rows) == 6 and len(result.excluded) == 2
        for row in result.rows:
            cell = replace(spec, state_discounts=[row.delta], vol_discounts=row.beta)
            traj = run(cell, priors, obs)
            report = compute_diagnostics(traj)
            assert np.array_equal(row.msse, report.msse) and np.array_equal(row.me, report.me)
            assert row.loglik == report.loglik
            assert list(row.var) == var_at_horizon(traj, [0.2, 0.3, 0.5])

    def test_rows_bitwise_equal_direct_runs_with_a_repeated_delta(self):
        # both 0.8 blocks share one state pass and one volatility pass, which
        # run_models returns in two runs; each run is scored on its own rows
        spec, priors = local_level(3, 0.9, [0.9] * 3, p0=1.0)
        obs = np.random.default_rng(13).standard_normal((80, 3))
        betas = [[1.0] * 3, [0.7, 0.95, 0.85], [0.9] * 3]
        result = grid_search(spec, priors, obs, [0.8, 0.95, 0.8], betas, weights=[0.2, 0.3, 0.5])
        assert len(result.rows) == 9
        for row in result.rows:
            traj = run(replace(spec, state_discounts=[row.delta], vol_discounts=row.beta),
                       priors, obs)
            report = compute_diagnostics(traj)
            assert np.array_equal(row.msse, report.msse) and np.array_equal(row.me, report.me)
            assert row.loglik == report.loglik
            assert list(row.var) == var_at_horizon(traj, [0.2, 0.3, 0.5])

    @pytest.mark.parametrize("weights, family", [(None, "t"), ([0.2, 0.3, 0.5], "normal")],
                             ids=["no_weights", "normal"])
    def test_rows_bitwise_equal_direct_runs_in_each_var_setting(self, monkeypatch, weights,
                                                                  family):
        # as test_rows_bitwise_equal_direct_runs: without weights the VaR is
        # NaN and nothing is predicted; the normal family reads no dof
        calls = []
        original = diagnostics_module.predict
        monkeypatch.setattr(diagnostics_module, "predict",
                            lambda *args: calls.append(args) or original(*args))
        spec, priors = local_level(3, 0.9, [0.9] * 3, p0=1.0)
        obs = np.random.default_rng(13).standard_normal((80, 3))
        deltas = [0.8, 0.95]
        betas = [[1.0] * 3, [0.6, 0.65, 0.7], [0.7, 0.95, 0.85], [0.9] * 3]
        result = grid_search(spec, priors, obs, deltas, betas, weights=weights,
                             var_family=family)
        assert len(calls) == (0 if weights is None else len(deltas))
        assert len(result.rows) == 6
        for row in result.rows:
            cell = replace(spec, state_discounts=[row.delta], vol_discounts=row.beta)
            traj = run(cell, priors, obs)
            report = compute_diagnostics(traj)
            assert np.array_equal(row.msse, report.msse) and np.array_equal(row.me, report.me)
            assert row.loglik == report.loglik
            expected = ([np.nan] * 2 if weights is None
                        else var_at_horizon(traj, weights, family=family))
            assert np.array_equal(row.var, expected, equal_nan=True)

    def test_empty_grid(self):
        spec, priors = local_level(1, 0.9, [0.9])
        with pytest.raises(EmptyGrid):
            grid_search(spec, priors, np.zeros((3, 1)), [], [])

    def test_csv_column_order(self, tmp_path):
        spec, priors = local_level(2, 0.9, [0.9, 0.9])
        obs = np.random.default_rng(8).standard_normal((25, 2))
        result = grid_search(
            spec, priors, obs, [0.9], [[0.9, 0.9]], weights=[0.5, 0.5]
        )
        out = tmp_path / "grid.csv"
        result.to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == (
            "delta,beta_1,beta_2,msse_1,msse_2,me_1,me_2,loglik,var95,var99"
        )

    def test_var_columns_with_weights(self):
        spec, priors = local_level(2, 0.9, [0.9, 0.9])
        obs = np.random.default_rng(9).standard_normal((30, 2))
        result = grid_search(
            spec, priors, obs, [0.9], [[0.9, 0.9]], weights=[0.5, 0.5]
        )
        row = result.rows[0]
        var95, var99 = row.var
        assert not np.isnan(row.var).any()
        assert var95 < var99
        traj = run(spec, priors, obs)
        v95, v99 = var_at_horizon(traj, [0.5, 0.5], family="t")
        assert_allclose([var95, var99], [v95, v99], rtol=1e-12)


def trend_model():
    """A local linear trend (G = [[1, 1], [0, 1]], F = [1, 0]) at p = 4,
    N = 333, fitted to series that rise by 0.5 per step."""
    spec = ModelSpec(p=4, d=2, design=[1.0, 0.0], evolution=[[1.0, 1.0], [0.0, 1.0]],
                     state_discounts=[0.9, 0.9], vol_discounts=[0.95] * 4)
    priors = Priors(m0=np.zeros((2, 4)), P0=np.eye(2), S0=np.eye(4))
    rng = np.random.default_rng(333)
    return spec, priors, 0.5 * np.arange(1, 334)[:, None] + rng.standard_normal((333, 4))


def switching_design_model():
    """F_t = [1, 0] up to step 50 and [1, 1] after, G = I, m0 = [[0, 0], [1, 1]],
    N = 50: the second state row first meets the data at step N + 1."""
    spec = ModelSpec(p=2, d=2, design=lambda t: [1.0, 0.0] if t <= 50 else [1.0, 1.0],
                     evolution=np.eye(2), state_discounts=[0.9, 0.9], vol_discounts=[0.9, 0.9])
    priors = Priors(m0=[[0.0, 0.0], [1.0, 1.0]], P0=np.eye(2), S0=np.eye(2))
    return spec, priors, np.random.default_rng(50).standard_normal((50, 2))


class TestVarAtHorizon:
    @pytest.mark.parametrize("model", [trend_model, switching_design_model],
                             ids=["trend", "switching_design"])
    def test_portfolio_mean_is_the_forecast_of_the_next_step(self, model):
        # at alpha = 50 the VaR is the portfolio mean: w' f_{N+1}, with
        # f_{N+1} = (G_{N+1} m_N)' F_{N+1}, not the filtered level m_N' F_N
        spec, priors, obs = model()
        traj = run(spec, priors, obs)
        weights = np.full(spec.p, 1.0 / spec.p)
        median = var_at_horizon(traj, weights, family="normal", alphas=[50.0])
        forecast = predict(traj.final, spec, len(traj) + 1).f
        assert_allclose(median, [weights @ forecast], rtol=1e-12)


class TestReportExport:
    def test_json_and_csv(self, tmp_path):
        spec, priors = local_level(1, 0.5, [0.9])
        traj = run(spec, priors, np.array([[3.0], [1.0], [0.5]]))
        report = compute_diagnostics(traj)
        payload = export_report_json(report, tmp_path / "report.json")
        assert payload["n_obs"] == 3
        assert set(payload) == {"msse", "mae", "me", "loglik", "n_obs"}
        assert (tmp_path / "report.json").exists()


class TestLbfClosedForm:
    """lbf_from_trajectories reads each step's density term from the scale
    log-determinants; the per-step density loop over the whitened errors u
    stays here as the reference."""

    @staticmethod
    def loop_reference(traj):
        """Per-step log-densities of a trajectory's whitened errors u."""
        from mvdlm.distributions import MultiTParams, mvt_logpdf

        p = traj.p
        return np.array([
            mvt_logpdf(u, MultiTParams(dof=k, location=np.zeros(p), scale_row=1.0,
                                       scale_col=(k - 2) * np.eye(p)))
            for u, k in zip(traj.u, traj.forecast_dofs)
        ])

    @pytest.mark.parametrize("p", [1, 2, 4, 16])
    def test_matches_per_step_loop(self, p):
        # an evolving model against a constant one, whose k_t = n0 + t - 1
        # grows, on one simulated path; each step's factor is the difference
        # of two densities, so it is held to 1e-12 of their size
        spec, priors = local_level(p, 0.9, np.linspace(0.9, 1.0, p + 1)[:p], p0=1.0)
        obs = simulate(spec, priors, 50, seed=p).observations
        constant, priors2 = local_level(p, 0.9, [1.0] * p, p0=1.0, n0=2.5)
        t1, t2 = run(spec, priors, obs), run(constant, priors2, obs)
        series = lbf_from_trajectories(t1, t2)
        first, second = self.loop_reference(t1), self.loop_reference(t2)
        error = np.abs(series - (first - second))
        assert np.all(error <= 1e-12 * (np.abs(first) + np.abs(second))), np.max(error)

    def test_exact_on_ill_conditioned_scales(self):
        # returns of scale 1e-4 against S0 = I with beta = (0.6, 1, 1, 0.6):
        # the prior scales A_t = beta^{1/2} S_{t-1} beta^{1/2} reach a
        # condition number of 6e8. Each density term log(1 + e_t' A_t^{-1} e_t
        # / Q_t) is checked against exact rational arithmetic on the filter's
        # own float A_t, e_t and Q_t.
        from mvdlm.distributions import log_multigamma

        def quad(a, e, q):  # e' a^{-1} e / q by exact Gaussian elimination
            rows = [[*map(Fraction, row), Fraction(x)] for row, x in zip(a.tolist(), e.tolist())]
            for i, pivot in enumerate(rows):
                for row in rows[i + 1:]:
                    factor = row[i] / pivot[i]
                    row[:] = [x - factor * y for x, y in zip(row, pivot)]
            x = []
            for row in reversed(rows):
                x.insert(0, (row[-1] - sum(r * y for r, y in zip(row[-1 - len(x):-1], x)))
                         / row[-2 - len(x)])
            return sum(Fraction(v) * y for v, y in zip(e.tolist(), x)) / Fraction(q)

        def exact_terms(traj):  # each step's standardized-error log-density
            k, p = traj.forecast_dofs, traj.p
            scales = traj.S[:-1] * forecast_law(traj.spec.vol_discounts).outer
            log1p = np.array([math.log1p(quad(a, e, q)) for a, e, q in zip(scales, traj.e, traj.Q)])
            ratio = np.array([log_multigamma((dof + p - 1) / 2.0, p, ratio=True) for dof in k])
            return ratio - 0.5 * p * np.log(np.pi * (k - 2.0)) - 0.5 * (k + p) * log1p, log1p

        spec = ModelSpec(
            p=4, d=2, design=[1.0, 0.0], evolution=np.eye(2),
            state_discounts=[0.95, 0.95], vol_discounts=[0.6, 1.0, 1.0, 0.6],
        )
        priors = Priors(m0=np.zeros((2, 4)), P0=np.eye(2), S0=np.eye(4))
        obs = 1e-4 * np.random.default_rng(8020214).standard_normal((120, 4))
        ill = run(spec, priors, obs)
        other = run(replace(spec, vol_discounts=np.full(4, 0.9)), priors, obs)
        (ill_terms, log1p), (other_terms, _) = exact_terms(ill), exact_terms(other)
        logdet, q = (terms[ill.row] for terms in ill.volatility.scale_terms)
        assert_allclose(np.log1p(q), log1p, rtol=0, atol=1e-12)
        # the determinant lemma, S_t = A_t + e_t e_t' / Q_t, checks log|S_t| on the same terms
        assert_allclose(np.diff(logdet) - np.sum(np.log(spec.vol_discounts)), log1p,
                        rtol=0, atol=1e-12)
        # in the log Bayes factor the terms carry (k_t + p)/2 = 4 and 6.5
        assert_allclose(lbf_from_trajectories(ill, other), ill_terms - other_terms,
                        rtol=0, atol=(4 + 6.5) * 1e-12)
