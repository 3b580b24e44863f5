import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mvdlm import ModelSpec, Priors, compute_n, predict, run, update
from mvdlm.errors import (
    DimensionMismatch,
    DofTooSmall,
    EmptyData,
    FeatureUnavailable,
    MvdlmError,
    RankDeficient,
    StateOverflow,
)
from mvdlm.diagnostics import compute_diagnostics, var_at_horizon
from mvdlm.distributions import InvWishartParams, invwishart_sample
from mvdlm.filter import (
    _closed_form_scales,
    _evolve,
    _observe,
    _whiten,
    covariance_pass,
    forecast_law,
    linear_transform,
    mle_constant,
    run_models,
    state_pass,
    trajectory_to_csv,
    volatility_pass,
)
from mvdlm import filter as filter_module
from mvdlm.linalg import symmetrize
from mvdlm.model import FilterState
from mvdlm.simulate import simulate

from conftest import local_level, paired_volatility_scenario
from long_double import needs_long_double, quadratic_forms_ld


def initial_state(spec, priors):
    n = priors.n0 if spec.constant_volatility else compute_n(spec.vol_discounts)
    return FilterState(t=0, m=priors.m0, P=priors.P0, S=priors.S0, n=n)


def assert_step_equals_row(step, traj, i):
    """The StepResult of update at step i + 1 equals the trajectory's rows
    bitwise; a NaN row of u stands for None."""
    for name in ("f", "e", "Q", "R"):
        assert np.array_equal(getattr(step, name), getattr(traj, name)[i]), name
    u = np.full(traj.p, np.nan) if step.u is None else step.u
    assert np.array_equal(u, traj.u[i], equal_nan=True)


class TestPredict:
    def test_scalar_hand_values(self, scalar_spec, scalar_priors):
        state = initial_state(scalar_spec, scalar_priors)
        pred = predict(state, scalar_spec, 1)
        assert_allclose(pred.R, [[2.0]])  # P/delta with delta = 0.5
        assert_allclose(pred.Q, 3.0)
        # one-step volatility mean 0.1 * 0.9 / 0.7
        assert_allclose(pred.sigma_prior.mean, [[0.9 / 7.0]])
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
        with pytest.raises(DofTooSmall):
            pred.sigma_prior.mean
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

    def test_constant_branch_hand_value(self):
        # S = I, n = 10 and Q = 1 (P0 = 0): u = sqrt(k - 2) e with k = n
        spec, priors = local_level(2, 1.0, [1.0, 1.0], p0=0.0)
        state = FilterState(t=0, m=priors.m0, P=priors.P0, S=priors.S0, n=10.0)
        _, step = update(state, np.array([1.0, 0.0]), spec, 1)
        assert step.Q == 1.0
        assert_allclose(step.u, [np.sqrt(8.0), 0.0], rtol=1e-12)

    def test_no_standardized_error_at_two_or_fewer_dof(self):
        spec, priors = local_level(1, 0.9, [0.6])  # k = 0.6 / 0.4 = 1.5
        _, step = update(initial_state(spec, priors), np.array([1.0]), spec, 1)
        assert step.u is None

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

    def test_asserts_fixed_point(self, scalar_spec, scalar_priors):
        # n = 5 is off the fixed point 1/(1 - 0.9) = 10, as run would refuse it
        state = FilterState(t=0, m=scalar_priors.m0, P=scalar_priors.P0, S=scalar_priors.S0, n=5.0)
        with pytest.raises(MvdlmError, match="fixed point"):
            update(state, np.array([1.0]), scalar_spec, 1)

    def test_rejects_bad_observations(self, scalar_spec, scalar_priors):
        state = initial_state(scalar_spec, scalar_priors)
        with pytest.raises(DimensionMismatch):
            update(state, np.array([1.0, 2.0]), scalar_spec, 1)
        with pytest.raises(DimensionMismatch):
            update(state, np.array([np.nan]), scalar_spec, 1)

    def test_callable_evolution_resolved_once_per_step(self):
        # predict resolves G_t for the prior mean a_t, which update reuses
        calls = []

        def evolution(t):
            calls.append(t)
            return np.eye(2)

        spec = ModelSpec(p=2, d=2, design=[1.0, 0.0], evolution=evolution,
                         state_discounts=[0.9, 0.95], vol_discounts=[0.9, 0.95])
        priors = Priors(m0=np.zeros((2, 2)), P0=np.eye(2), S0=np.eye(2))
        obs = 0.1 * np.random.default_rng(4).standard_normal((50, 2))
        state = initial_state(spec, priors)
        for t in range(1, 51):
            state, _ = update(state, obs[t - 1], spec, t)
        assert calls == list(range(1, 51))


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
        for i, y in enumerate(ys):
            R = P + (1 - delta) / delta * P
            Q = R + 1.0
            e = y - m
            m = m + R / Q * e
            P = R - R * R / Q
            S = beta * S + e * e / Q
            assert_allclose(traj.e[i], [e], rtol=1e-14)
            assert_allclose(traj.Q[i], Q, rtol=1e-14)
        assert_allclose(traj.final.m, [[m]], rtol=1e-13)
        assert_allclose(traj.final.P, [[P]], rtol=1e-13)
        assert_allclose(traj.final.S, [[S]], rtol=1e-13)

    def test_observation_shapes(self, scalar_spec, scalar_priors):
        spec, priors = local_level(2, 0.9, [0.9, 0.95])
        with pytest.raises(DimensionMismatch, match=r"shape \(5, 3\), expected \(N, 2\)"):
            run(spec, priors, np.zeros((5, 3)))
        with pytest.raises(DimensionMismatch, match="1-d observations"):
            run(spec, priors, np.zeros(5))
        missing = np.zeros((5, 2))
        missing[3, 1] = np.nan
        with pytest.raises(DimensionMismatch, match="observation at step 4 has missing"):
            run(spec, priors, missing)
        ys = np.array([3.0, -1.0, 0.5, 2.0])
        flat = run(scalar_spec, scalar_priors, ys)
        column = run(scalar_spec, scalar_priors, ys[:, None])
        for name in ("f", "e", "Q", "R", "S", "n", "u"):
            assert np.array_equal(getattr(flat, name), getattr(column, name)), name
        assert np.array_equal(flat.final.m, column.final.m)

    def test_long_multivariate_run_invariants(self):
        scenario = paired_volatility_scenario(n_steps=333, seed=3)
        traj = run(scenario.spec, scenario.priors, scenario.path.observations)
        assert len(traj) == 333
        assert np.all(traj.Q >= 1.0)
        assert_allclose(traj.residuals, traj.e / traj.Q[:, None], atol=1e-13)
        np.linalg.cholesky(traj.S[1:])
        # degrees of freedom pinned at the fixed point
        assert_allclose(traj.final.n, compute_n(scenario.spec.vol_discounts), rtol=1e-12)

    def test_closed_form_scale_matches_recursion(self):
        scenario = paired_volatility_scenario(n_steps=333, seed=5)
        traj = run(scenario.spec, scenario.priors, scenario.path.observations)
        roots = np.sqrt(scenario.spec.vol_discounts)[None]
        closed = _closed_form_scales(traj.e, traj.Q, roots, scenario.priors.S0)[0]
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
        assert np.all(traj.Q >= 1.0)
        assert_allclose(traj.residuals, traj.e / traj.Q[:, None], atol=1e-12)


class TestTwoPassEngine:
    def test_run_equals_predict_update_loop(self):
        # the single-step API is the loop reference of the batched passes
        scenario = paired_volatility_scenario(n_steps=80, seed=2)
        spec, priors = scenario.spec, scenario.priors
        obs = scenario.path.observations
        traj = run(spec, priors, obs)
        state = initial_state(spec, priors)
        for i in range(len(traj)):
            state, step = update(state, obs[i], spec, i + 1)
            assert_step_equals_row(step, traj, i)
            assert np.array_equal(step.sigma_post.scale, traj.S[i + 1])
            assert state.n == traj.n[i + 1]
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
            assert np.array_equal(vol.scales(k), one.scales(0))
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
        assert np.array_equal(full.R[:, 0, 0], level.R[:, 0, 0])
        assert np.array_equal(full.final.m[:1], level.final.m)
        assert np.all(full.final.m[1] == 0.0)  # zero gain: m evolves by G_UU alone
        # the unobserved component overflows to inf without a NaN anywhere
        assert np.isinf(full.R[-1, 1, 1]) and np.isinf(full.final.P[1, 1])
        assert not np.isnan(full.R).any() and not np.isnan(full.final.P).any()
        assert np.all(full.R[:, 0, 1] == 0.0)

    @pytest.mark.parametrize("g_unobserved", [[[2.0]], [[2.0, 1.0], [0.0, -2.0]]])
    def test_unobserved_mean_overflow_reads_inf(self, g_unobserved):
        # G_UU doubles the unobserved means past the float range near step
        # 1024 (and meets inf - inf in the two-component block); they never
        # meet the data, so the fit equals d = 1
        obs = np.random.default_rng(5).standard_normal((1100, 2))
        level, priors = local_level(2, 0.9, [0.9, 0.9], p0=1.0)
        d = 1 + len(g_unobserved)
        evolution = np.eye(d)
        evolution[1:, 1:] = g_unobserved
        full = replace(level, d=d, design=np.eye(d)[0], evolution=evolution,
                       state_discounts=np.full(d, 0.9))
        wide = run(full, Priors(m0=np.ones((d, 2)), P0=np.eye(d), S0=np.eye(2)), obs)
        narrow = run(level, replace(priors, m0=np.ones((1, 2))), obs)
        for name in ("f", "e", "Q", "S", "n", "u"):
            assert_bitwise(getattr(wide, name), getattr(narrow, name))
        assert_bitwise(wide.final.m[:1], narrow.final.m)
        assert np.all(wide.final.m[1:] == np.inf)
        # the next forecast and the VaR read F's support alone (a RuntimeWarning
        # of inf * 0 is a test error)
        horizon = len(obs) + 1
        assert_bitwise(predict(wide.final, full, horizon).f,
                       predict(narrow.final, level, horizon).f)
        assert_bitwise(var_at_horizon(wide, [0.5, 0.5]), var_at_horizon(narrow, [0.5, 0.5]))

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
        for i in range(len(traj)):
            state, step = update(state, obs[i], spec, i + 1)
            assert_step_equals_row(step, traj, i)
        assert np.array_equal(state.m, traj.final.m)
        assert np.array_equal(state.P, traj.final.P)

    @pytest.mark.parametrize("coupled", [False, True])
    def test_callable_sequences_equal_constant_arrays(self, coupled):
        # both routes take the blocks of the support: O = {1, 2} here, and
        # U = {3} unless P0 couples it
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

    def test_reference_configuration_as_callables(self):
        # callables with the support of constant arrays get their blocks, so
        # the unobserved level overflows on its own instead of inside O
        spec, priors = reference_model(2)
        design, evolution = spec.design, spec.evolution
        callables = replace(spec, design=lambda t: design, evolution=lambda t: evolution)
        obs = 0.01 * np.random.default_rng(8).standard_normal((333, 4))
        constant, provided = run(spec, priors, obs), run(callables, priors, obs)
        for name in ("f", "e", "Q", "R", "S", "n", "u"):
            assert_bitwise(getattr(constant, name), getattr(provided, name))
        for name in ("m", "P", "S"):
            assert_bitwise(getattr(constant.final, name), getattr(provided.final, name))


def assert_bitwise(actual, expected):
    """Equal as int64 views, so NaN payloads and the sign of zero count."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


def loop_covariance(spec, P0, n_steps, blocks):
    """The covariance pass as a per-step loop of the matrix kernel over the
    given blocks, the observed one first."""
    d = spec.d
    root = np.sqrt((1.0 - spec.state_discounts) / spec.state_discounts)
    omega, R = np.zeros((2, n_steps, d, d))
    Q, gain, P = np.ones(n_steps), np.zeros((n_steps, d)), np.zeros((d, d))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, idx in enumerate(map(np.array, blocks)):
            sub = np.ix_(idx, idx)
            P_b = P0[sub]
            for i in range(n_steps):
                g, f = spec.evolution_at(i + 1)[sub], spec.design_at(i + 1)[idx]
                omega[i][sub], R[i][sub] = _evolve(P_b, g, np.outer(root[idx], root[idx]))
                if k:
                    P_b = R[i][sub]
                else:
                    Q[i], gain[i, idx], P_b = _observe(R[i][sub], f)
            P[sub] = P_b
    for array in (omega, R, P):  # the unobserved convention: past the range reads inf
        array[np.isnan(array)] = np.inf
    return omega, R, Q, gain, P


def kernel_case(name):
    """(spec, P0, N, blocks) of one pinned configuration."""
    beta = (0.95, 0.9)
    if name == "d1":
        spec = ModelSpec(p=2, d=1, design=[1.0], evolution=[[1.0]],
                         state_discounts=[0.9], vol_discounts=beta)
        return spec, np.array([[2.0]]), 200, [[0]]
    if name == "local_level":
        spec = ModelSpec(p=2, d=2, design=[1.0, 0.0], evolution=np.eye(2),
                         state_discounts=[0.95, 0.9], vol_discounts=beta)
        return spec, np.diag([1.0, 0.5]), 200, [[0], [1]]
    if name == "scaled_evolution":
        spec = ModelSpec(p=2, d=2, design=[1.0, 0.0], evolution=np.diag([0.9, 1.05]),
                         state_discounts=[0.9, 0.9], vol_discounts=beta)
        return spec, np.diag([3.0, 0.5]), 200, [[0], [1]]
    if name == "coupled":
        spec = ModelSpec(p=2, d=3, design=[1.0, 0.0, 0.0],
                         evolution=[[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.7]],
                         state_discounts=[0.9, 0.95, 0.8], vol_discounts=beta)
        return spec, np.diag([1.0, 0.5, 2.0]), 200, [[0, 1], [2]]
    if name == "varying_d1":
        # F_t = -0.0 every 7th step: a 1 x 1 product sums from +0.0
        spec = ModelSpec(p=2, d=1,
                         design=lambda t: np.array([0.5 + np.sin(t) if t % 7 else -0.0]),
                         evolution=lambda t: np.array([[0.9 + 0.2 * np.cos(t)]]),
                         state_discounts=[0.85], vol_discounts=beta)
        return spec, np.array([[2.0]]), 200, [[0]]
    if name == "float_range_edge":
        # unobserved entries past half the float range, where the (x + x) / 2
        # of symmetrize reads inf: Omega_1 of component 2, R_1 of component 3
        spec = ModelSpec(p=2, d=3, design=[1.0, 0.0, 0.0], evolution=np.eye(3),
                         state_discounts=[0.5] * 3, vol_discounts=beta)
        big = np.finfo(float).max
        return spec, np.diag([1.0, 0.6 * big, 0.3 * big]), 3, [[0], [1], [2]]
    spec, priors = reference_model(2)
    return spec, priors.P0, 333, [[0], [1]]


def loop_mean(spec, priors, y):
    """The mean pass as a per-step numpy loop over the whole state."""
    cov = covariance_pass(spec, priors.P0, len(y))
    f, m = np.empty((len(y), spec.p)), priors.m0
    gains = cov.gain[:, :, None]
    for i, g, f_vec in zip(range(len(y)), cov.G, cov.F):
        a = g @ m
        f[i] = a.T @ f_vec
        m = a + gains[i] * (y[i] - f[i])
    return f, m


def mean_case(name):
    """(spec, priors, y) of one pinned configuration, with a non-zero m0."""
    rng = np.random.default_rng(21)
    beta = (0.95, 0.9)
    if name == "reference":
        spec, _ = reference_model(2)
        P0, n_steps = 1000.0 * np.eye(2), 333
    elif name == "callable_design":  # F_t = -0.0 every 7th step
        spec, P0, n_steps, _ = kernel_case("varying_d1")
    elif name == "varying_evolution":
        spec = ModelSpec(p=2, d=2, design=[1.0, 0.0],
                         evolution=lambda t: np.diag([0.9 + 0.2 * np.cos(t), 1.05]),
                         state_discounts=[0.9, 0.95], vol_discounts=beta)
        P0, n_steps = np.diag([1.0, 0.5]), 200
    elif name == "two_component_block":
        spec, P0, n_steps, _ = kernel_case("coupled")
    elif name == "p1":
        spec = ModelSpec(p=1, d=2, design=[1.0, 0.0], evolution=np.diag([1.0, 0.9]),
                         state_discounts=[0.9, 0.9], vol_discounts=[0.9])
        P0, n_steps = np.eye(2), 200
    else:  # no observations
        spec, P0, n_steps = reference_model(2)[0], np.eye(2), 0
    priors = Priors(m0=rng.standard_normal((spec.d, spec.p)), P0=P0, S0=np.eye(spec.p))
    return spec, priors, rng.standard_normal((n_steps, spec.p))


class TestKernelPins:
    """The covariance, mean and volatility passes against per-step loops of
    the kernels they replace, bitwise."""

    @pytest.mark.parametrize(
        "name", ["reference", "callable_design", "varying_evolution", "two_component_block",
                 "p1", "no_observations"]
    )
    def test_mean_pass_equals_kernel_loop(self, name):
        spec, priors, y = mean_case(name)
        states = state_pass(spec, priors, y)
        f, m = loop_mean(spec, priors, y)
        assert_bitwise(states.f, f)
        assert_bitwise(states.e, y - f)
        assert_bitwise(states.m, m)

    @pytest.mark.parametrize(
        "name", ["d1", "local_level", "scaled_evolution", "coupled", "varying_d1", "reference",
                 "float_range_edge"]
    )
    def test_covariance_pass_equals_kernel_loop(self, name):
        spec, P0, n_steps, blocks = kernel_case(name)
        cov = covariance_pass(spec, P0, n_steps)
        expected = loop_covariance(spec, P0, n_steps, blocks)
        for field, value in zip(("omega", "R", "Q", "gain", "P"), expected):
            assert_bitwise(getattr(cov, field), value)
        if name == "reference":  # the unobserved level reaches inf, never NaN
            assert np.isinf(cov.R[-1, 1, 1]) and np.isinf(cov.P[1, 1])
            assert not np.isnan(cov.R).any() and not np.isnan(cov.omega).any()
        if name == "float_range_edge":
            assert np.isinf(cov.omega[0, 1, 1]) and np.isfinite(cov.omega[0, 2, 2])
            assert np.isinf(cov.R[0, 2, 2])

    def test_observed_overflow_step_and_component(self):
        # F_t = 0 after step 1 leaves the observed level to the prior
        # recursion under delta = 0.08, so R_t overflows inside O
        spec = ModelSpec(p=2, d=1, design=lambda t: np.array([1.0 if t == 1 else 0.0]),
                         evolution=[[1.0]], state_discounts=[0.08], vol_discounts=[0.9, 0.9])
        P0 = np.array([[1000.0]])
        R = loop_covariance(spec, P0, 333, [[0]])[1]
        step = int(np.argmax(~np.isfinite(R[:, 0, 0]))) + 1
        assert 250 < step < 333
        with pytest.raises(StateOverflow, match=f"at step {step} in state component 1:"):
            covariance_pass(spec, P0, 333)

    def test_volatility_pass_equals_law_loop(self):
        rng = np.random.default_rng(12)
        e, Q = rng.standard_normal((120, 3)), 1.0 + rng.random(120)
        betas = np.array([[0.8, 0.95, 0.8], [0.9] * 3, [1.0] * 3])
        n0 = np.array([1 / (1 - np.mean(betas[0])), 1 / (1 - 0.9), 4.0])
        S0 = np.eye(3) + 0.2 * np.triu(np.ones((3, 3)), 1)  # asymmetric as given
        vol = volatility_pass(e, Q, betas, S0, n0)
        for k, beta in enumerate(betas):
            law, S, n = forecast_law(beta), [S0], [n0[k]]
            u = []
            for i in range(len(Q)):
                prior, dof = law(S[-1], n[-1])
                S.append(symmetrize(prior + np.outer(e[i], e[i]) / Q[i]))
                n.append(n[-1] + 1.0 if k == 2 else n[-1])
                u.append(_whiten(e[i], Q[i], prior, dof))
            assert_bitwise(vol.scales(k), np.array(S))
            assert_bitwise(vol.n[k], np.array(n))
            assert_bitwise(vol.u[k], np.array(u))

    @pytest.mark.parametrize("n_steps", [0, 1, 40])
    @pytest.mark.parametrize("n_cells", [1, 2, 33])
    def test_rows_equal_a_step_loop_and_one_row_passes(self, n_cells, n_steps):
        # the time-major recursion gives each row, evolving or at beta = I and
        # from its own S0, the bits of a plain per-step loop in the same
        # operation order and of a pass of that row alone; N = 1 is update's pass
        p = 3
        rng = np.random.default_rng(100 * n_cells + n_steps)
        e, Q = rng.standard_normal((n_steps, p)), 1.0 + rng.random(n_steps)
        betas = rng.uniform(0.7, 1.0, (n_cells, p))
        betas[1::3] = 1.0
        constant = np.all(betas == 1.0, axis=1)
        n0 = 3.0 + np.arange(n_cells)  # the prior n0 at beta = I, else the fixed point
        n0[~constant] = 1.0 / (1.0 - betas[~constant].mean(axis=1))
        S0 = np.eye(p) + 0.2 * rng.random((n_cells, p, p))  # asymmetric, as a caller may give
        vol = volatility_pass(e, Q, betas, S0, n0)
        assert vol.scales().shape == (n_cells, n_steps + 1, p, p)
        assert vol.n.shape == (n_cells, n_steps + 1)
        for k, beta in enumerate(betas):
            law = forecast_law(beta)
            prior, S = law(S0[k], n0[k])[0], [S0[k]]
            for e_t, q_t in zip(e, Q):
                S.append(prior + e_t[:, None] * e_t[None, :] / q_t)
                prior = S[-1] * law.outer
            assert_bitwise(vol.scales(k), np.array(S))
            one = volatility_pass(e, Q, beta[None], S0[k], n0[k])
            assert_bitwise(vol.scales(k), one.scales(0))
            assert_bitwise(vol.n[k], one.n[0])
            assert_bitwise(vol.n[k], n0[k] + constant[k] * np.arange(n_steps + 1.0))


class TestRunModels:
    """One engine for a list of models: one state pass per group of equal
    state-pass inputs, each trajectory as its model gives it alone."""

    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        original = getattr(filter_module, name)
        monkeypatch.setattr(filter_module, name,
                            lambda *args: calls.append(args) or original(*args))
        return calls

    @staticmethod
    def models():
        spec, priors = reference_model(2)
        obs = 0.01 * np.random.default_rng(6).standard_normal((120, 4))
        return spec, priors, obs

    def assert_alone(self, trajectories, models):
        for trajectory, model in zip(trajectories, models):
            alone = run(*model)
            for name in ("f", "e", "Q", "R", "S", "n", "u"):
                assert_bitwise(getattr(trajectory, name), getattr(alone, name))
            assert_bitwise(trajectory.final.m, alone.final.m)
            assert trajectory.spec is model[0] and trajectory.priors is model[1]

    def test_scale_and_dof_priors_share_the_state_pass(self, monkeypatch):
        spec, priors, obs = self.models()
        constant = replace(spec, vol_discounts=np.ones(4))
        models = [
            (spec, priors, obs),
            (spec, replace(priors, S0=2.0 * np.eye(4)), obs.copy()),
            (constant, replace(priors, n0=3.0), obs),
            (constant, replace(priors, n0=7.0), obs),
        ]
        passes, checks = (self.counted(monkeypatch, name) for name in ("state_pass", "validate"))
        trajectories = run_models(models)
        assert len(passes) == 1 and len(checks) == len(models)
        self.assert_alone(trajectories, models)

    @pytest.mark.parametrize("field", ["state_discounts", "m0", "P0", "data"])
    def test_other_state_inputs_do_not(self, monkeypatch, field):
        spec, priors, obs = self.models()
        other = {
            "state_discounts": (replace(spec, state_discounts=np.full(2, 0.5)), priors, obs),
            "m0": (spec, replace(priors, m0=np.ones((2, 4))), obs),
            "P0": (spec, replace(priors, P0=np.eye(2)), obs),
            "data": (spec, priors, obs[:, ::-1]),
        }[field]
        models = [(spec, priors, obs), other]
        passes = self.counted(monkeypatch, "state_pass")
        trajectories = run_models(models)
        assert len(passes) == 2
        self.assert_alone(trajectories, models)

    def test_batched_u_equals_whitening_each_trajectory(self):
        # the identity the lazy u rests on, over the benchmark's grid lattice
        # (37 paired betas x 2 deltas): whitening a block of rows at once
        # gives each row the bits of whitening its own forecast laws
        spec, priors = reference_model(2)
        obs = 0.01 * np.random.default_rng(9).standard_normal((333, 4))
        levels = (0.6, 0.7, 0.8, 0.9, 0.95, 1.0)
        betas = [[o, i, i, o] for o in levels for i in levels] + [[2 / 3] * 4]
        models = [(replace(spec, state_discounts=np.full(2, delta), vol_discounts=np.array(beta)),
                   priors, obs) for delta in (0.8, 0.95) for beta in betas]
        trajectories = run_models(models)
        assert len(trajectories) == 74
        for t in trajectories:
            assert_bitwise(t.u, _whiten(t.e, t.Q, *t.forecast_laws()))

    def test_scale_terms_equal_a_per_step_loop(self):
        # one batched factor of the pass's S stack gives each row, evolving or
        # constant, the log|S_t| and q_t = e_t' A_t^{-1} e_t / Q_t of a per-step loop,
        # with A_t = beta^{1/2} S_{t-1} beta^{1/2} the prior scale
        # (S0 at the data's scale keeps log|S_t| away from 0, where rtol means little)
        spec, priors, obs = self.models()
        priors = replace(priors, S0=1e-4 * np.eye(4))
        models = [(replace(spec, vol_discounts=np.array(beta)), replace(priors, n0=n0), obs)
                  for beta, n0 in (([0.66, 0.9, 0.9, 0.66], 1.0), ([0.95] * 4, 1.0),
                                   ([1.0] * 4, 1.0), ([1.0] * 4, 7.0))]
        trajectories = run_models(models)
        logdet, q = trajectories[0].volatility.scale_terms
        assert logdet.shape == (4, 121) and q.shape == (4, 120)
        for k, t in enumerate(trajectories):
            assert t.volatility is trajectories[0].volatility and t.row == k
            assert_allclose(logdet[k], [np.linalg.slogdet(s)[1] for s in t.S], rtol=1e-12)
            quad = [e @ np.linalg.solve(a, e) / q_t
                    for a, e, q_t in zip(t.forecast_laws()[0], t.e, t.Q)]
            assert_allclose(q[k], quad, rtol=1e-12)

    def test_blocks_of_rows(self, monkeypatch):
        spec, priors, obs = self.models()
        models = [(replace(spec, vol_discounts=np.full(4, b)), priors, obs)
                  for b in (0.9, 0.95, 0.97, 1.0, 0.92)]
        monkeypatch.setattr(filter_module, "BLOCK_ROWS", 2)
        passes = self.counted(monkeypatch, "volatility_pass")
        trajectories = run_models(models)
        assert len(passes) == 3  # blocks of 2, 2 and 1 rows
        self.assert_alone(trajectories, models)


class TestQuadraticForm:
    """q_t = e_t' A_t^{-1} e_t / Q_t of ``scale_terms``, against the prior scale
    A_t = beta^{1/2} S_{t-1} beta^{1/2}, on paths simulated from the fitted model."""

    @staticmethod
    def fitted(p, beta, n_steps, seed, **priors):
        spec, priors = local_level(p, 0.9, beta, **priors)
        traj = run(spec, priors, simulate(spec, priors, n_steps, seed=seed).observations)
        return traj, traj.volatility.scale_terms[1][traj.row]

    # cond(S_t) reaches 6.7e3 and 6.7e7; measured 2.9e-15 and 1.6e-10, where the
    # log-determinant route expm1(log|S_t| - log|S_{t-1}| - sum log beta) was 6.6e-13
    # and 3.3e-9 off
    @needs_long_double
    @pytest.mark.parametrize("p, beta, n_steps, bound", [(2, [0.95, 0.92], 250, 1e-14),
                                                         (16, [0.97] * 16, 1000, 5e-10)])
    def test_matches_a_long_double_recursion(self, p, beta, n_steps, bound):
        traj, q = self.fitted(p, beta, n_steps, seed=0, p0=1.0)
        oracle = quadratic_forms_ld(traj.e, traj.Q, beta, traj.S[0])
        assert np.max(np.abs(q - oracle) / oracle) <= bound

    def test_finite_on_a_drifting_path(self):
        # cond(S_t) passes 1e29 and r_t = q_t / (1 + q_t) rounds to 1.0 at one step;
        # q_t stays finite, and no step warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, q = self.fitted(4, [0.66, 0.9, 0.9, 0.66], 333, seed=20, p0=1.0, s0_scale=0.01)
        assert np.isfinite(q).all() and np.any(q / (1.0 + q) == 1.0)


class TestConstantVolatility:
    def test_requires_unit_discounts(self, scalar_spec, scalar_priors):
        with pytest.raises(MvdlmError, match="every volatility discount to be 1"):
            mle_constant(np.zeros((3, 1)), scalar_spec, scalar_priors)

    def test_zero_errors_keep_scale(self):
        spec, priors = local_level(2, 1.0, [1.0, 1.0], p0=1.0, n0=4.0)
        # with delta = 1 and m0 = 0 the forecast stays 0, so zero data
        # produces zero errors
        traj = run(spec, priors, np.zeros((6, 2)))
        assert_allclose(traj.final.S, priors.S0)
        assert traj.final.n == 10.0  # n0 + 6

    def test_posterior_scale_tracks_truth(self):
        rng = np.random.default_rng(42)
        sigma_true = np.array([[1.5, 0.4], [0.4, 0.8]])
        spec, priors = local_level(2, 0.95, [1.0, 1.0], p0=1.0, n0=2.0)
        path = simulate(spec, priors, 50, seed=10, sigma0=sigma_true)
        traj = run(spec, priors, path.observations)
        estimate = traj.final.S / (priors.n0 + 50 - 2)
        assert np.all(np.abs(estimate - sigma_true) / np.abs(sigma_true) < 0.3)

    def test_dispatch_from_run(self):
        spec, priors = local_level(2, 0.95, [1.0, 1.0], n0=3.0)
        traj = run(spec, priors, np.zeros((4, 2)))
        assert traj.spec.constant_volatility


class TestMleConstant:
    def test_equals_limit_of_posterior_scale(self):
        rng = np.random.default_rng(3)
        obs = rng.standard_normal((80, 2)) @ np.array([[1.2, 0.5], [0.0, 0.7]])
        spec, priors = local_level(2, 0.9, [1.0, 1.0], p0=1.0, s0_scale=1e-12, n0=0.0)
        traj = run(spec, priors, obs)
        estimate = mle_constant(obs, spec, priors)
        assert np.max(np.abs(traj.final.S / 80 - estimate)) < 1e-6

    def test_single_observation(self):
        spec, priors = local_level(1, 0.5, [1.0], p0=1.0, n0=1.0)
        traj = run(spec, priors, np.array([[3.0]]))
        estimate = mle_constant(np.array([[3.0]]), spec, priors)
        q1 = traj.Q[0]
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
        marg = res.trajectory
        assert np.all(np.abs(marg.S[1:, 0, 0] - base.S[1:, 0, 0]) < 1e-10)
        # q = 1 marginal dof: n_N + 2q, with n_N = n at the fixed point
        n = compute_n(self.spec.vol_discounts)
        assert_allclose(res.marginal_dof, n + 2.0)

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


class TestMarginalDof:
    """``marginal_dof`` is the dof of the transformed posterior IW_q(n_N + 2q, S*_N): a linear
    map of Sigma keeps the dimension-free n_N, so its mean is A Sigma_N A'."""

    obs = np.random.default_rng(17).standard_normal((40, 2))

    @pytest.mark.parametrize("beta, a, dof", [
        (0.9, [[1.0, 0.0]], 12.0),  # n_N = n = 10 at the fixed point
        (0.9, [[0.7, 0.3]], 12.0),
        (0.9, [[1.0, 0.0], [0.0, 1.0]], 14.0),
        (1.0, [[1.0, 0.0]], 43.0),  # n_N = n0 + N = 41
    ])
    def test_mean_is_the_mapped_posterior_mean(self, beta, a, dof):
        spec, priors = local_level(2, 0.9, [beta, beta], p0=1.0)
        res = linear_transform(spec, priors, self.obs, a)
        a, base = np.array(a), res.base_trajectory
        assert_allclose(res.marginal_dof, dof, rtol=1e-12)  # n = 1/(1 - 0.9) in floats
        mean = InvWishartParams(res.marginal_dof, a @ base.S[-1] @ a.T).mean
        assert_allclose(mean, a @ base.posterior_means[-1] @ a.T, rtol=1e-12)
        assert_allclose(mean, res.trajectory.posterior_means[-1], rtol=1e-12)

    def test_monte_carlo_mean(self):
        # A Sigma A' over draws of the base posterior IW_2(n_N + 4, S_N)
        spec, priors = local_level(2, 0.9, [0.9, 0.9], p0=1.0)
        a = np.array([[1.0, 0.0]])
        res = linear_transform(spec, priors, self.obs, a)
        base, rng = res.base_trajectory, np.random.default_rng(5)
        draws = np.array([(a @ invwishart_sample(base.n[-1] + 4.0, base.S[-1], rng) @ a.T)[0, 0]
                          for _ in range(4000)])
        mean = InvWishartParams(res.marginal_dof, a @ base.S[-1] @ a.T).mean[0, 0]
        assert abs(draws.mean() - mean) < 4.0 * draws.std() / np.sqrt(len(draws))


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
            assert_allclose(multi.f, single.f, atol=1e-10)
            assert np.all(np.abs(multi.Q - single.Q) < 1e-10)
            assert_allclose(multi.S[1:], single.S[1:], atol=1e-10)
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
        assert lines[0] == "t,f_1,e_1,u_1,Q,sigma_post_1_1"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[2]) == 3.0
