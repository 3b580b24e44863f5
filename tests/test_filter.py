import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mvdlm import ModelSpec, Priors, predict, run, run_constant_volatility, update
from mvdlm.errors import (
    DimensionMismatch,
    EmptyData,
    FeatureUnavailable,
    MvdlmError,
    RankDeficient,
    StateOverflow,
)
from mvdlm.diagnostics import compute_diagnostics, loglik_time_varying
from mvdlm.filter import (
    _closed_form_scale,
    covariance_pass,
    linear_transform,
    mle_constant,
    state_pass,
    trajectory_to_csv,
    volatility_pass,
)
from mvdlm.model import FilterState
from mvdlm.simulate import paired_volatility_scenario, simulate

from conftest import local_level


def initial_state(spec, priors):
    n = priors.n0 if spec.constant_volatility else spec.working_dof()
    return FilterState(t=0, m=priors.m0, P=priors.P0, S=priors.S0, n=n)


class TestPredict:
    def test_scalar_hand_values(self, scalar_spec, scalar_priors):
        state = initial_state(scalar_spec, scalar_priors)
        pred = predict(state, scalar_spec, 1)
        assert_allclose(pred.R, [[2.0]])  # P/delta with delta = 0.5
        assert_allclose(pred.Q, 3.0)
        # one-step volatility mean 0.1 * 0.9 / 0.7
        assert_allclose(pred.sigma_forecast_mean, [[0.9 / 7.0]])
        assert_allclose(pred.forecast.dof, 9.0)

    def test_unit_state_discount_no_inflation(self):
        spec = ModelSpec(
            p=1, d=2, design=[1.0, 0.0], evolution=np.eye(2),
            state_discounts=[1.0, 1.0], vol_discounts=[0.9],
        )
        priors = Priors(m0=np.zeros((2, 1)), P0=np.diag([2.0, 3.0]), S0=[[1.0]])
        state = initial_state(spec, priors)
        pred = predict(state, spec, 1)
        assert_allclose(pred.R, priors.P0)

    def test_forecast_mean_unavailable_below_threshold(self):
        spec, priors = local_level(1, 0.9, [0.6])  # mean beta 0.6 <= 2/3
        state = initial_state(spec, priors)
        pred = predict(state, spec, 1)
        assert pred.sigma_forecast_mean is None
        assert pred.sigma_prior.dof > 0  # parameters still reported


class TestUpdate:
    def test_scalar_hand_values(self, scalar_spec, scalar_priors):
        state = initial_state(scalar_spec, scalar_priors)
        new_state, step = update(state, np.array([3.0]), scalar_spec, 1)
        assert_allclose(step.e, [3.0])
        assert_allclose(new_state.m, [[2.0]])
        assert_allclose(new_state.P, [[2.0 / 3.0]])
        assert_allclose(step.r, [1.0])
        assert_allclose(new_state.S, [[3.9]])
        assert_allclose(step.sigma_post.mean, [[3.9 / 8.0]])
        # standardized error 3 sqrt(7 / 2.7)
        assert_allclose(step.u, [4.830458915396479], rtol=1e-12)
        assert_allclose(step.u[0] ** 2, 7.0 * 9.0 / (3.0 * 0.9), rtol=1e-12)

    def test_zero_error_pure_decay(self, scalar_spec, scalar_priors):
        state = initial_state(scalar_spec, scalar_priors)
        pred = predict(state, scalar_spec, 1)
        new_state, step = update(
            state, pred.f, scalar_spec, 1, prediction=pred
        )
        assert_allclose(step.e, [0.0])
        assert_allclose(new_state.S, 0.9 * scalar_priors.S0)
        assert_allclose(step.u, [0.0])

    def test_fixed_point_for_paired_discounts(self):
        spec, priors = local_level(4, 0.9, [0.66, 0.9, 0.9, 0.66])
        state = initial_state(spec, priors)
        n = state.n
        new_state, _ = update(state, np.zeros(4), spec, 1)
        assert abs(new_state.n - n) < 1e-12

    def test_residual_identity_from_definition(self, scalar_spec, scalar_priors):
        # r stored as e/Q must agree with y - m_t'F computed from the update
        state = initial_state(scalar_spec, scalar_priors)
        y = np.array([1.7])
        new_state, step = update(state, y, scalar_spec, 1)
        f_vec = scalar_spec.design_at(1)
        r_def = y - new_state.m.T @ f_vec
        assert_allclose(step.r, r_def, atol=1e-12)

    def test_rejects_bad_observations(self, scalar_spec, scalar_priors):
        state = initial_state(scalar_spec, scalar_priors)
        with pytest.raises(DimensionMismatch):
            update(state, np.array([1.0, 2.0]), scalar_spec, 1)
        with pytest.raises(DimensionMismatch):
            update(state, np.array([np.nan]), scalar_spec, 1)


class TestRun:
    def test_empty_observations(self, scalar_spec, scalar_priors):
        traj = run(scalar_spec, scalar_priors, [])
        assert len(traj) == 0
        assert_allclose(traj.final.m, scalar_priors.m0)
        assert_allclose(traj.final.S, scalar_priors.S0)

    def test_three_step_scalar_against_plain_recursion(
        self, scalar_spec, scalar_priors
    ):
        ys = [3.0, -1.0, 0.5]
        traj = run(scalar_spec, scalar_priors, np.array(ys).reshape(-1, 1))
        # independent scalar recursion with plain floats
        m, P, S = 0.0, 1.0, 1.0
        delta, beta = 0.5, 0.9
        for y, step in zip(ys, traj.steps):
            R = P + (1 - delta) / delta * P
            Q = R + 1.0
            e = y - m
            m = m + R / Q * e
            P = R - R * R / Q
            S = beta * S + e * e / Q
            assert_allclose(step.e, [e], rtol=1e-14)
            assert_allclose(step.Q, Q, rtol=1e-14)
        assert_allclose(traj.final.m, [[m]], rtol=1e-13)
        assert_allclose(traj.final.P, [[P]], rtol=1e-13)
        assert_allclose(traj.final.S, [[S]], rtol=1e-13)

    def test_long_multivariate_run_invariants(self):
        scenario = paired_volatility_scenario(n_steps=333, seed=3)
        traj = run(scenario.spec, scenario.priors, scenario.path.observations)
        assert len(traj) == 333
        for step in traj.steps:
            assert step.Q >= 1.0
            assert_allclose(step.r, step.e / step.Q, atol=1e-13)
            np.linalg.cholesky(step.sigma_post.scale)
        # degrees of freedom pinned at the fixed point
        assert_allclose(traj.final.n, scenario.spec.working_dof(), rtol=1e-12)

    def test_closed_form_scale_matches_recursion(self):
        scenario = paired_volatility_scenario(n_steps=333, seed=5)
        traj = run(scenario.spec, scenario.priors, scenario.path.observations)
        closed = _closed_form_scale(traj)
        rel = np.max(np.abs(closed - traj.final.S)) / np.max(np.abs(traj.final.S))
        assert rel < 1e-8

    @given(
        st.floats(min_value=0.2, max_value=1.0),
        st.floats(min_value=0.7, max_value=0.99),
        st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_scalar_run_properties(self, delta, beta, ys):
        spec, priors = local_level(1, delta, [beta], p0=1.0)
        traj = run(spec, priors, np.array(ys).reshape(-1, 1))
        for step in traj.steps:
            assert step.Q >= 1.0
            assert_allclose(step.r, step.e / step.Q, atol=1e-12)


class TestTwoPassEngine:
    def test_run_equals_predict_update_loop(self):
        # the single-step API is the loop reference of the batched passes
        scenario = paired_volatility_scenario(n_steps=80, seed=2)
        spec, priors = scenario.spec, scenario.priors
        obs = scenario.path.observations
        for sqrt_method in ("spectral", "cholesky"):
            traj = run(spec, priors, obs, sqrt_method=sqrt_method)
            state = initial_state(spec, priors)
            for i, batched in enumerate(traj.steps):
                state, step = update(state, obs[i], spec, i + 1, sqrt_method=sqrt_method)
                for name in ("f", "e", "Q", "R"):
                    assert np.array_equal(getattr(step, name), getattr(batched, name))
                assert np.array_equal(step.sigma_post.scale, batched.sigma_post.scale)
                assert_allclose(step.u, batched.u, rtol=1e-12, atol=1e-14)
            assert np.array_equal(state.m, traj.final.m)
            assert np.array_equal(state.P, traj.final.P)

    def test_volatility_pass_rows_equal_single_runs(self):
        scenario = paired_volatility_scenario(n_steps=60, seed=4)
        spec, priors = scenario.spec, scenario.priors
        states = state_pass(spec, priors, scenario.path.observations)
        betas = np.array([[0.9, 0.8, 0.8, 0.9], [1.0] * 4, [0.95] * 4])
        n0 = [1 / (1 - 0.85), priors.n0, 1 / (1 - 0.95)]
        vol = volatility_pass(states.e, states.Q, betas, priors.S0, n0)
        for k in range(3):
            one = volatility_pass(states.e, states.Q, betas[k:k + 1], priors.S0, n0[k])
            assert np.array_equal(vol.S[k], one.S[0])
            assert np.array_equal(vol.n[k], one.n[0])
            assert_allclose(vol.u[k], one.u[0], rtol=1e-12, atol=1e-14)
        assert_allclose(vol.n[1], priors.n0 + np.arange(61))  # grows at beta = 1
        assert np.all(vol.n[0] == n0[0])  # fixed point elsewhere

    def test_fixed_point_asserted(self):
        with pytest.raises(MvdlmError, match="fixed point"):
            volatility_pass(np.zeros((2, 1)), np.ones(2), [[0.9]], np.eye(1), 5.0)

    def test_state_covariance_overflow_is_typed(self):
        # delta = 0.08 inflates the second component 12.5x per step; P0
        # couples it to the observed first one, so it stays in the observed
        # block and overflows there near step 279
        spec = ModelSpec(
            p=2, d=2, design=[1.0, 0.0], evolution=np.eye(2),
            state_discounts=[0.08, 0.08], vol_discounts=[0.9, 0.9],
        )
        priors = Priors(m0=np.zeros((2, 2)), P0=[[1000.0, 1.0], [1.0, 1000.0]], S0=np.eye(2))
        obs = np.random.default_rng(3).standard_normal((300, 2))
        with pytest.raises(StateOverflow, match=r"step 27\d in state component 2"):
            run(spec, priors, obs)
        # short inputs stay finite
        assert np.isfinite(run(spec, priors, obs[:100]).S).all()


def reference_model(d, p=4, beta=(0.95, 0.92, 0.92, 0.95)):
    """The paper's setup: a local level under delta = 0.08 and P0 = 1000 I;
    with d = 2 its second component is never observed."""
    spec = ModelSpec(
        p=p, d=d, design=np.eye(d)[0], evolution=np.eye(d),
        state_discounts=np.full(d, 0.08), vol_discounts=beta,
    )
    return spec, Priors(m0=np.zeros((d, p)), P0=1000.0 * np.eye(d), S0=np.eye(p))


class TestObservedBlock:
    def test_reference_configuration_equals_d1(self):
        obs = 0.01 * np.random.default_rng(8).standard_normal((333, 4))
        full, level = (run(*reference_model(d), obs) for d in (2, 1))
        for name in ("f", "e", "Q", "S", "n", "u"):
            assert np.array_equal(getattr(full, name), getattr(level, name)), name
        reports = [compute_diagnostics(traj) for traj in (full, level)]
        assert np.array_equal(reports[0].msse, reports[1].msse)
        assert reports[0].loglik == reports[1].loglik
        forecast = [loglik_time_varying(traj, "forecast") for traj in (full, level)]
        assert forecast[0] == forecast[1]
        assert np.array_equal(full.R[:, 0, 0], level.R[:, 0, 0])
        assert np.array_equal(full.final.m[:1], level.final.m)
        assert np.all(full.final.m[1] == 0.0)  # zero gain: m evolves by G_UU alone
        # the unobserved component overflows to inf without a NaN anywhere
        assert np.isinf(full.R[-1, 1, 1]) and np.isinf(full.final.P[1, 1])
        assert not np.isnan(full.R).any() and not np.isnan(full.final.P).any()
        assert np.all(full.R[:, 0, 1] == 0.0)

    def test_unobserved_block_follows_prior_recursion(self):
        spec, priors = reference_model(2)
        cov = covariance_pass(spec, priors.P0, 300)
        assert np.all(cov.gain[:, 1] == 0.0)
        finite = np.isfinite(cov.R[:, 1, 1])
        assert 270 < np.count_nonzero(finite) < 290 and finite[:270].all()
        r_u = cov.R[finite, 1, 1]
        assert_allclose(r_u[0], 1000.0 / 0.08, rtol=1e-12)
        assert_allclose(r_u[1:], r_u[:-1] / 0.08, rtol=1e-12)  # P_U = R_U
        assert_allclose(cov.omega[finite, 1, 1], r_u * 0.92, rtol=1e-12)
        assert cov.P[1, 1] == cov.R[-1, 1, 1]

    def test_coupled_unobserved_block_reads_inf(self):
        # a 2 x 2 unobserved block whose recursion meets inf - inf
        spec = ModelSpec(
            p=4, d=3, design=[1.0, 0.0, 0.0],
            evolution=[[1.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]],
            state_discounts=np.full(3, 0.08), vol_discounts=(0.95, 0.92, 0.92, 0.95),
        )
        priors = Priors(m0=np.zeros((3, 4)), P0=1000.0 * np.eye(3), S0=np.eye(4))
        obs = 0.01 * np.random.default_rng(8).standard_normal((333, 4))
        full, level = run(spec, priors, obs), run(*reference_model(1), obs)
        for name in ("f", "e", "Q", "S", "u"):
            assert np.array_equal(getattr(full, name), getattr(level, name)), name
        assert not np.isnan(full.R).any() and not np.isnan(full.final.P).any()
        assert np.isinf(full.final.P[1:, 1:]).all()

    def test_single_step_api_decouples(self):
        spec, priors = reference_model(2)
        obs = 0.01 * np.random.default_rng(9).standard_normal((300, 4))
        traj = run(spec, priors, obs)
        state = initial_state(spec, priors)
        for i, batched in enumerate(traj.steps):
            state, step = update(state, obs[i], spec, i + 1)
            for name in ("f", "e", "Q", "R"):
                assert np.array_equal(getattr(step, name), getattr(batched, name))
        assert np.array_equal(state.m, traj.final.m)
        assert np.array_equal(state.P, traj.final.P)

    @pytest.mark.parametrize("coupled", [False, True])
    def test_callable_sequences_equal_constant_arrays(self, coupled):
        # constant arrays take the reduced route (O = {1, 2} here, U = {3}
        # unless P0 couples it); callables run every component
        design = np.array([1.0, 0.0, 0.0])
        evolution = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.7]])
        P0 = np.diag([1.0, 0.5, 2.0])
        if coupled:
            P0[0, 2] = P0[2, 0] = 0.3
        obs = 0.1 * np.random.default_rng(6).standard_normal((150, 2))
        runs = []
        for provider in (lambda x: x, lambda x: (lambda t: x)):
            spec = ModelSpec(
                p=2, d=3, design=provider(design), evolution=provider(evolution),
                state_discounts=[0.9, 0.95, 0.8], vol_discounts=[0.95, 0.9],
            )
            priors = Priors(m0=np.zeros((3, 2)), P0=P0, S0=np.eye(2))
            runs.append(run(spec, priors, obs))
        constant, callable_ = runs
        for name in ("f", "e", "Q", "R", "S", "n", "u"):
            assert np.array_equal(getattr(constant, name), getattr(callable_, name)), name
        assert np.array_equal(constant.final.m, callable_.final.m)
        assert np.array_equal(constant.final.P, callable_.final.P)

    def test_callable_design_resolved_once_per_step(self):
        calls = []

        def design(t):
            calls.append(t)
            return np.array([1.0, 0.0])

        spec = ModelSpec(p=2, d=2, design=design, evolution=np.eye(2),
                         state_discounts=[0.9, 0.95], vol_discounts=[0.9, 0.95])
        priors = Priors(m0=np.zeros((2, 2)), P0=np.eye(2), S0=np.eye(2))
        run(spec, priors, 0.1 * np.random.default_rng(3).standard_normal((150, 2)))
        assert calls == [1, *range(1, 151)]  # validate, then once per step
        calls.clear()
        simulate(spec, priors, 150, seed=3)
        assert calls == [1, *range(1, 151)]

    def test_simulate_overflow_is_typed(self):
        spec, priors = reference_model(2)
        with pytest.raises(StateOverflow, match="at step 279 in state component 2"):
            simulate(spec, priors, 333, seed=5)
        assert np.isfinite(simulate(spec, priors, 100, seed=5).observations).all()


class TestConstantVolatility:
    def test_requires_unit_discounts(self, scalar_spec, scalar_priors):
        with pytest.raises(MvdlmError):
            run_constant_volatility(scalar_spec, scalar_priors, np.zeros((3, 1)))

    def test_zero_errors_keep_scale(self):
        spec, priors = local_level(2, 1.0, [1.0, 1.0], p0=1.0, n0=4.0)
        # with delta = 1 and m0 = 0 the forecast stays 0, so zero data
        # produces zero errors
        traj = run_constant_volatility(spec, priors, np.zeros((6, 2)))
        assert_allclose(traj.final.S, priors.S0)
        assert traj.final.n == 10.0  # n0 + 6

    def test_posterior_scale_tracks_truth(self):
        rng = np.random.default_rng(42)
        sigma_true = np.array([[1.5, 0.4], [0.4, 0.8]])
        spec, priors = local_level(2, 0.95, [1.0, 1.0], p0=1.0, n0=2.0)
        path = simulate(spec, priors, 50, seed=10, sigma0=sigma_true)
        traj = run_constant_volatility(spec, priors, path.observations)
        estimate = traj.final.S / (priors.n0 + 50 - 2)
        assert np.all(np.abs(estimate - sigma_true) / np.abs(sigma_true) < 0.3)

    def test_dispatch_from_run(self):
        spec, priors = local_level(2, 0.95, [1.0, 1.0], n0=3.0)
        traj = run(spec, priors, np.zeros((4, 2)))
        assert traj.constant_volatility


class TestMleConstant:
    def test_equals_limit_of_posterior_scale(self):
        rng = np.random.default_rng(3)
        obs = rng.standard_normal((80, 2)) @ np.array([[1.2, 0.5], [0.0, 0.7]])
        spec, priors = local_level(2, 0.9, [1.0, 1.0], p0=1.0, s0_scale=1e-12, n0=0.0)
        traj = run_constant_volatility(spec, priors, obs)
        estimate = mle_constant(obs, spec, priors)
        assert np.max(np.abs(traj.final.S / 80 - estimate)) < 1e-6

    def test_single_observation(self):
        spec, priors = local_level(1, 0.5, [1.0], p0=1.0, n0=1.0)
        traj = run_constant_volatility(spec, priors, np.array([[3.0]]))
        estimate = mle_constant(np.array([[3.0]]), spec, priors)
        q1 = traj.steps[0].Q
        assert_allclose(estimate, [[9.0 / q1]], rtol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        obs = rng.standard_normal((30, 3))
        spec, priors = local_level(3, 0.9, [1.0] * 3, n0=1.0)
        estimate = mle_constant(obs, spec, priors)
        assert np.max(np.abs(estimate - estimate.T)) < 1e-12

    def test_empty(self):
        spec, priors = local_level(1, 0.9, [1.0])
        with pytest.raises(EmptyData):
            mle_constant(np.zeros((0, 1)), spec, priors)


class TestLinearTransform:
    def setup_method(self):
        rng = np.random.default_rng(17)
        self.obs = rng.standard_normal((40, 2))
        self.spec, self.priors = local_level(2, 0.9, [0.9, 0.9], p0=1.0)

    def test_identity_transform(self):
        res = linear_transform(self.spec, self.priors, self.obs, np.eye(2))
        base = run(self.spec, self.priors, self.obs)
        assert_allclose(
            res.trajectory.final.S, base.final.S, rtol=1e-12
        )
        assert res.max_closure_error < 1e-12

    def test_coordinate_marginal(self):
        a = np.array([[1.0, 0.0]])
        res = linear_transform(self.spec, self.priors, self.obs, a)
        base = res.base_trajectory
        for full, marg in zip(base.steps, res.trajectory.steps):
            assert (
                abs(marg.sigma_post.scale[0, 0] - full.sigma_post.scale[0, 0])
                < 1e-10
            )
        # q = 1 marginal dof: n + 2(p - 1) + 2
        n = self.spec.working_dof()
        assert_allclose(res.marginal_dof, n + 2.0 * (2 - 1) + 2.0)

    def test_general_mixing_transform(self):
        a = np.array([[0.7, 0.3]])
        res = linear_transform(self.spec, self.priors, self.obs, a)
        assert res.max_closure_error < 1e-10

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            linear_transform(
                self.spec, self.priors, self.obs, np.array([[1.0, 0.0], [2.0, 0.0]])
            )

    def test_nonscalar_discounts_selection_warns(self):
        spec, priors = local_level(2, 0.9, [0.95, 0.85], p0=1.0)
        with pytest.warns(UserWarning):
            res = linear_transform(spec, priors, self.obs, np.array([[1.0, 0.0]]))
        assert res.max_closure_error < 1e-10

    def test_nonscalar_discounts_general_transform_rejected(self):
        spec, priors = local_level(2, 0.9, [0.95, 0.85], p0=1.0)
        with pytest.raises(FeatureUnavailable):
            linear_transform(spec, priors, self.obs, np.array([[0.7, 0.3]]))


class TestSingleDiscountEquivalence:
    """With design [1, 0]' and identity evolution, the second state discount
    has no effect on anything observable: the filter path matches the
    single-discount parameterization in m_t, S_t and every element of P_t
    except the (2, 2) entry, which is exactly the block the second discount
    parameterizes."""

    def test_equivalence(self):
        rng = np.random.default_rng(29)
        obs = rng.standard_normal((50, 2))
        priors = Priors(m0=np.zeros((2, 2)), P0=1000.0 * np.eye(2), S0=np.eye(2))
        d1 = 0.7
        base = ModelSpec(
            p=2, d=2, design=[1.0, 0.0], evolution=np.eye(2),
            state_discounts=[d1, d1], vol_discounts=[0.9, 0.8],
        )
        single = run(base, priors, obs)
        for d2 in (0.2, 0.5, 0.95, 1.0):
            spec = ModelSpec(
                p=2, d=2, design=[1.0, 0.0], evolution=np.eye(2),
                state_discounts=[d1, d2], vol_discounts=[0.9, 0.8],
            )
            multi = run(spec, priors, obs)
            for s_single, s_multi in zip(single.steps, multi.steps):
                assert_allclose(s_multi.f, s_single.f, atol=1e-10)
                assert abs(s_multi.Q - s_single.Q) < 1e-10
                assert_allclose(
                    s_multi.sigma_post.scale, s_single.sigma_post.scale, atol=1e-10
                )
            assert_allclose(multi.final.m, single.final.m, atol=1e-10)
            mask = np.array([[1.0, 1.0], [1.0, 0.0]])
            assert_allclose(
                multi.final.P * mask, single.final.P * mask, atol=1e-10
            )


class TestTrajectoryCsv:
    def test_header_and_row_count(self, tmp_path, scalar_spec, scalar_priors):
        traj = run(scalar_spec, scalar_priors, np.array([[3.0], [1.0]]))
        out = tmp_path / "trajectory.csv"
        trajectory_to_csv(traj, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,f_1,e_1,u_1,Q,sigma_post_1_1,sigma_fore_1_1"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[2]) == 3.0
