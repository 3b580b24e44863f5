import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gammaln, multigammaln

from mvdlm import ModelSpec, Priors, run
from mvdlm.diagnostics import (
    VaRConfig,
    compute_diagnostics,
    export_report_csv,
    export_report_json,
    grid_search,
    lbf,
    lbf_from_trajectories,
    loglik_constant,
    loglik_time_varying,
    msse_mae_me,
    standardize,
    var_at_horizon,
    var_portfolio,
)
from mvdlm.errors import (
    DegreesTooSmall,
    EmptyData,
    EmptyGrid,
    InvalidWeights,
    LengthMismatch,
    MvdlmError,
    NoPositiveEigenvalues,
)
from mvdlm import diagnostics
from mvdlm.filter import mle_constant
from mvdlm.simulate import simulate

from conftest import local_level


class TestStandardize:
    def test_scalar_hand_value(self):
        u = standardize([3.0], 3.0, [[1.0]], vol_discounts=[0.9], n=10.0)
        assert_allclose(u, [3.0 * np.sqrt(7.0 / 2.7)], rtol=1e-12)
        assert_allclose(u[0] ** 2, 23.0 + 1.0 / 3.0, rtol=1e-12)

    def test_zero_error(self):
        u = standardize([0.0, 0.0], 2.0, np.eye(2), vol_discounts=[0.9, 0.9])
        assert_allclose(u, [0.0, 0.0])

    def test_constant_branch_hand_value(self):
        # unit scale, dof 10, Q = 1: u = sqrt(k - 2) e
        u = standardize([1.0, 0.0], 1.0, np.eye(2), dof=10.0)
        assert_allclose(u, [np.sqrt(8.0), 0.0], rtol=1e-12)

    def test_low_dof_rejected(self):
        with pytest.raises(DegreesTooSmall):
            standardize([1.0], 1.0, [[1.0]], dof=2.0)
        with pytest.raises(DegreesTooSmall):
            # mean discount 0.6 gives k = 1.5
            standardize([1.0], 1.0, [[1.0]], vol_discounts=[0.6])

    def test_root_conventions_agree_on_quadratic_form(self):
        e = np.array([1.0, -2.0])
        s = np.array([[2.0, 0.5], [0.5, 1.0]])
        u_spec = standardize(e, 1.5, s, vol_discounts=[0.9, 0.9])
        u_chol = standardize(e, 1.5, s, vol_discounts=[0.9, 0.9], method="cholesky")
        # different roots of the same whitening matrix preserve u'u
        assert_allclose(u_spec @ u_spec, u_chol @ u_chol, rtol=1e-10)


class TestMsse:
    def test_zero_errors(self):
        spec, priors = local_level(1, 0.5, [0.9])
        traj = run(spec, priors, np.zeros((5, 1)))
        report = msse_mae_me(traj)
        assert_allclose(report.msse, [0.0])
        assert_allclose(report.mae, [0.0])
        assert_allclose(report.me, [0.0])
        assert report.n_obs == 5

    def test_empty_trajectory(self):
        spec, priors = local_level(1, 0.5, [0.9])
        traj = run(spec, priors, [])
        with pytest.raises(EmptyData):
            msse_mae_me(traj)

    def test_well_specified_simulation(self):
        spec, priors = local_level(2, 0.95, [0.95, 0.95], p0=0.1)
        path = simulate(spec, priors, 2000, seed=101)
        traj = run(spec, priors, path.observations)
        report = msse_mae_me(traj)
        assert np.all(report.msse > 0.8) and np.all(report.msse < 1.25)
        u = traj.u
        n = len(traj)
        assert np.all(np.abs(u.mean(axis=0)) < 3.0 / np.sqrt(n))
        emp_cov = u.T @ u / n
        assert np.all(np.abs(emp_cov - np.eye(2)) < 3.0 * np.sqrt(2.0 / n))


class TestLoglikTimeVarying:
    def test_scalar_cross_check(self):
        """Independent plain-float coding of the same path-likelihood."""
        spec, priors = local_level(1, 0.8, [0.9], p0=1.0)
        rng = np.random.default_rng(1)
        obs = rng.standard_normal((10, 1))
        traj = run(spec, priors, obs)
        value = loglik_time_varying(traj)

        beta = 0.9
        n = 1.0 / (1.0 - beta)
        m = beta / (1.0 - beta)  # m = k + p - 1 with p = 1
        sigmas = [priors.S0[0, 0] / (n - 2)]
        sigmas += [s.sigma_post.scale[0, 0] / (n - 2) for s in traj.steps]
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
            e = float(traj.steps[t - 1].e[0])
            q = float(traj.steps[t - 1].Q)
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

    def test_quadratic_term_scaling(self):
        # doubling every error quadruples the error-dependent part of the
        # evaluation at a fixed volatility path
        spec, priors = local_level(1, 0.8, [0.9], p0=1.0)
        rng = np.random.default_rng(2)
        obs = rng.standard_normal((8, 1))
        traj = run(spec, priors, obs)
        path = traj.posterior_mean_path()
        base = loglik_time_varying(traj, sigma_path=path)
        from mvdlm.diagnostics import loglik_arrays

        doubled = loglik_arrays(
            2.0 * traj.e, traj.Q, path, spec.vol_discounts
        )
        quad = sum(
            float(s.e[0]) ** 2 / (s.Q * path[i + 1][0, 0])
            for i, s in enumerate(traj.steps)
        )
        assert_allclose(doubled - base, -0.5 * 3.0 * quad, rtol=1e-10)

    def test_requires_evolving_volatility(self):
        spec, priors = local_level(1, 0.8, [1.0], n0=3.0)
        traj = run(spec, priors, np.ones((4, 1)))
        with pytest.raises(MvdlmError):
            loglik_time_varying(traj)

    def test_explicit_path_length_checked(self):
        spec, priors = local_level(1, 0.8, [0.9])
        traj = run(spec, priors, np.ones((4, 1)))
        with pytest.raises(LengthMismatch):
            loglik_time_varying(traj, sigma_path=[np.eye(1)] * 3)

    def test_forecast_plugin_available(self):
        spec, priors = local_level(1, 0.8, [0.9])
        traj = run(spec, priors, np.ones((4, 1)))
        assert np.isfinite(loglik_time_varying(traj, sigma_path="forecast"))

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
        base = loglik_time_varying(run(spec, priors, obs))
        priors_rot = Priors(
            m0=priors.m0 @ h.T, P0=priors.P0, S0=h @ priors.S0 @ h.T
        )
        rotated = loglik_time_varying(run(spec, priors_rot, obs @ h.T))
        assert abs(base - rotated) < 1e-8


class TestLoglikRankOne:
    """Returns of scale 1e-4 against S0 = I: the only eigenvalue of I - B_t
    on the posterior-mean path is lambda_t = e_t' S_t^{-1} e_t / Q_t, far
    below 1e-10 of nothing else; round-off eigenvalues must not enter."""

    def setup_method(self):
        rng = np.random.default_rng(8020214)
        self.obs = 1e-4 * rng.standard_normal((120, 4))
        self.spec = ModelSpec(
            p=4, d=2, design=[1.0, 0.0], evolution=np.eye(2),
            state_discounts=[0.95, 0.95], vol_discounts=[0.66, 0.9, 0.9, 0.66],
        )
        self.priors = Priors(m0=np.zeros((2, 4)), P0=np.eye(2), S0=np.eye(4))

    def test_matches_per_step_closed_form(self):
        traj = run(self.spec, self.priors, self.obs)
        value = loglik_time_varying(traj)
        # plain per-step evaluation from the recursion's scales
        p = 4
        beta = self.spec.vol_discounts
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
        scales = [self.priors.S0] + [s.sigma_post.scale for s in traj.steps]
        total = 0.0
        for t in range(1, big_n + 1):
            e, q = traj.steps[t - 1].e, traj.steps[t - 1].Q
            lam = float(e @ np.linalg.solve(scales[t], e)) / q
            logdet_prev = np.linalg.slogdet(scales[t - 1] / (n - 2))[1]
            logdet_cur = np.linalg.slogdet(scales[t] / (n - 2))[1]
            total += (
                p * np.log(q)
                + (p - m) * logdet_prev
                + (n - 2) * lam
                + p * np.log(lam)
                + (m - p - 2) * logdet_cur
            )
        assert_allclose(value, const - 0.5 * total, rtol=1e-10)

    def test_general_route_cutoff_keeps_small_eigenvalue(self):
        # the eigendecomposition route on the same explicit path measures its
        # cutoff against max(1, |eig|) and so keeps lambda_t as well
        traj = run(self.spec, self.priors, self.obs)
        explicit = loglik_time_varying(traj, sigma_path=traj.posterior_mean_path())
        assert_allclose(explicit, loglik_time_varying(traj), rtol=1e-8)

    def test_zero_error_step_is_degenerate(self):
        spec, priors = local_level(1, 1.0, [0.9])
        traj = run(spec, priors, np.zeros((3, 1)))
        with pytest.raises(NoPositiveEigenvalues):
            loglik_time_varying(traj)


class TestLoglikConstant:
    def test_single_step_hand_value(self):
        spec, priors = local_level(1, 0.5, [1.0], p0=1.0, n0=1.0)
        traj = run(spec, priors, np.zeros((1, 1)))
        q1 = traj.steps[0].Q
        sigma = 2.0
        expected = -0.5 * np.log(2 * np.pi) - 0.5 * np.log(q1) - 0.5 * np.log(sigma)
        assert_allclose(loglik_constant(traj, [[sigma]]), expected, rtol=1e-12)

    def test_maximized_at_mle(self):
        rng = np.random.default_rng(3)
        obs = rng.standard_normal((80, 2)) @ np.array([[1.2, 0.5], [0.0, 0.7]])
        spec, priors = local_level(
            2, 0.9, [1.0, 1.0], p0=1.0, s0_scale=1e-12, n0=0.0
        )
        traj = run(spec, priors, obs)
        sigma_hat = mle_constant(obs, spec, priors)
        base = loglik_constant(traj, sigma_hat)
        for i in range(2):
            for eps in (0.01, -0.01, 0.05, -0.05):
                perturbed = sigma_hat.copy()
                perturbed[i, i] *= 1.0 + eps
                assert loglik_constant(traj, perturbed) <= base + 1e-9


class TestVarPortfolio:
    def test_median_equals_mean(self):
        config = VaRConfig(weights=[0.5, 0.5], alpha=50.0, quantile_family="normal")
        value = var_portfolio([0.3, -0.1], np.eye(2), config)
        assert_allclose(value, 0.1, atol=1e-12)

    def test_normal_quantile_oracle(self):
        config = VaRConfig(weights=[0.5, 0.5], alpha=95.0, quantile_family="normal")
        value = var_portfolio([0.0, 0.0], np.eye(2), config)
        expected = scipy.stats.norm.ppf(0.95) * np.sqrt(0.5)
        assert_allclose(value, expected, rtol=1e-12)

    def test_t_family_needs_dof(self):
        config = VaRConfig(weights=[1.0], alpha=95.0, quantile_family="t")
        with pytest.raises(DegreesTooSmall):
            var_portfolio([0.0], [[1.0]], config)

    def test_t_quantile_scaled_to_unit_variance(self):
        config = VaRConfig(weights=[1.0], alpha=99.0, quantile_family="t", dof=9.0)
        value = var_portfolio([0.0], [[1.0]], config)
        expected = scipy.stats.t.ppf(0.99, 9) * np.sqrt(7.0 / 9.0)
        assert_allclose(value, expected, rtol=1e-12)

    def test_invalid_weights(self):
        with pytest.raises(InvalidWeights):
            VaRConfig(weights=[0.5, 0.6], alpha=95.0)
        with pytest.raises(InvalidWeights):
            VaRConfig(weights=[-0.1, 1.1], alpha=95.0)
        with pytest.raises(InvalidWeights):
            VaRConfig(weights=[1.0], alpha=0.0)

    @given(st.floats(min_value=51.0, max_value=99.9), st.floats(min_value=51.0, max_value=99.9))
    @settings(max_examples=40)
    def test_monotone_in_alpha(self, a1, a2):
        lo, hi = sorted((a1, a2))
        mu = np.array([0.05, -0.02])
        sigma = np.array([[1.3, 0.4], [0.4, 0.9]])
        v = [
            var_portfolio(
                mu, sigma, VaRConfig(weights=[0.3, 0.7], alpha=a, quantile_family="t", dof=8.0)
            )
            for a in (lo, hi)
        ]
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


class TestLbf:
    def test_identical_models_zero(self):
        u = np.random.default_rng(0).standard_normal((10, 2))
        series = lbf(u, u, 9.0, 9.0)
        assert_allclose(series.values, np.zeros(10), atol=1e-14)

    def test_swap_negates_exactly(self):
        rng = np.random.default_rng(1)
        u1 = rng.standard_normal((12, 2))
        u2 = rng.standard_normal((12, 2))
        fwd = lbf(u1, u2, 9.0, 5.0, labels=("A", "B"))
        rev = lbf(u2, u1, 5.0, 9.0, labels=("B", "A"))
        assert_allclose(fwd.values, -rev.values, atol=0)
        assert fwd.model_labels == ("A", "B")

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            lbf(np.zeros((3, 1)), np.zeros((4, 1)), 9.0, 9.0)

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
            wins += series.cumulative > 0
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
        assert_allclose(result.rows[0].loglik, loglik_constant(traj), rtol=1e-12)

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

    @pytest.mark.parametrize("sqrt_method", ["spectral", "cholesky"])
    def test_batched_rows_equal_direct_runs(self, sqrt_method, monkeypatch):
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
        result = grid_search(
            spec, priors, obs, deltas, betas, weights=weights, sqrt_method=sqrt_method
        )
        assert result.excluded == tuple(
            (d, (0.6, 0.65, 0.7), "mean volatility discount 0.65 <= 2/3") for d in deltas
        )
        assert len(result.rows) == len(deltas) * (len(betas) - 1)
        for row in result.rows:
            cell = ModelSpec(
                p=p, d=2, design=[1.0, 0.0], evolution=np.eye(2),
                state_discounts=[row.delta] * 2, vol_discounts=row.beta,
            )
            traj = run(cell, priors, obs, sqrt_method=sqrt_method)
            report = compute_diagnostics(traj)
            assert_allclose(row.msse, report.msse, rtol=1e-12)
            assert_allclose(row.me, report.me, rtol=1e-12)
            assert_allclose(row.loglik, report.loglik, rtol=1e-12)
            assert_allclose(
                [row.var95, row.var99], var_at_horizon(traj, weights), rtol=1e-12
            )
        # smaller blocks (several volatility passes per delta) rank identically
        monkeypatch.setattr(diagnostics, "GRID_BLOCK", 2)
        again = grid_search(
            spec, priors, obs, deltas, betas, weights=weights, sqrt_method=sqrt_method
        )
        assert [(r.delta, r.beta, r.loglik) for r in again.rows] == [
            (r.delta, r.beta, r.loglik) for r in result.rows
        ]

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
        assert row.var95 is not None and row.var99 is not None
        assert row.var95 < row.var99
        traj = run(spec, priors, obs)
        v95, v99 = var_at_horizon(traj, [0.5, 0.5], family="t")
        assert_allclose([row.var95, row.var99], [v95, v99], rtol=1e-12)


class TestReportExport:
    def test_json_and_csv(self, tmp_path):
        spec, priors = local_level(1, 0.5, [0.9])
        traj = run(spec, priors, np.array([[3.0], [1.0], [0.5]]))
        report = compute_diagnostics(traj)
        payload = export_report_json(report, tmp_path / "report.json")
        assert payload["n_obs"] == 3
        assert payload["sqrt_convention"] == "spectral"
        assert (tmp_path / "report.json").exists()
        export_report_csv(report, tmp_path / "report.csv")
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert header == "msse_1,mae_1,me_1,loglik,n_obs,sqrt_convention"


class TestLbfClosedForm:
    """lbf evaluates all steps in one closed form; the per-step density
    loop it replaced stays here as the reference."""

    @staticmethod
    def loop_reference(u1, u2, k1, k2):
        from mvdlm.distributions import MultiTParams, mvt_logpdf

        p = u1.shape[1]
        values = []
        for t in range(len(u1)):
            params = [
                MultiTParams(dof=k, location=np.zeros(p), scale_row=1.0,
                             scale_col=(k - 2) * np.eye(p))
                for k in (k1[t], k2[t])
            ]
            values.append(mvt_logpdf(u1[t], params[0]) - mvt_logpdf(u2[t], params[1]))
        return np.array(values)

    @pytest.mark.parametrize("p", [1, 2, 4, 16])
    def test_matches_per_step_loop(self, p):
        rng = np.random.default_rng(p)
        u1, u2 = rng.standard_normal((2, 50, p)) * 1.5
        k1 = 2.5 + 30.0 * rng.random(50)
        k2 = np.full(50, 9.0)
        series = lbf(u1, u2, k1, k2)
        assert_allclose(series.values, self.loop_reference(u1, u2, k1, k2), rtol=1e-12)

    def test_first_bad_step_named(self):
        u = np.zeros((5, 2))
        k1 = np.array([9.0, 9.0, 2.0, 1.0, 9.0])
        with pytest.raises(DegreesTooSmall, match="^step 3: standardized-error densities"):
            lbf(u, u, k1, 9.0)
        with pytest.raises(DegreesTooSmall, match="^step 2:"):
            lbf(u, u, 9.0, [9.0, np.nan, 9.0, 9.0, 9.0])
