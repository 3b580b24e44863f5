import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from numpy.random import SeedSequence, default_rng

from mvdlm import ModelSpec, Priors, run, validate
from mvdlm.diagnostics import compute_diagnostics, msse_mae_me
from mvdlm.distributions import (
    SingularBetaParams,
    evolve_precision,
    invwishart_sample,
    matrix_normal_sample,
    singular_beta_sample,
    wishart_sample,
)
from mvdlm.filter import covariance_pass, predict
from mvdlm.linalg import cholesky_upper, inv_spd, symmetrize
from mvdlm.model import FilterState
from mvdlm.simulate import paired_volatility_scenario, simulate

from conftest import local_level


def wishart_reference(dof, scale, rng):
    """Bartlett draw with one scalar gamma call per diagonal entry and scipy's
    Cholesky factor of the scale."""
    p = scale.shape[0]
    lower = scipy.linalg.cholesky(scale, lower=False).T
    t = np.zeros((p, p))
    for i in range(p):
        t[i, i] = np.sqrt(rng.gamma(shape=(dof - i) / 2.0, scale=2.0))
    idx = np.tril_indices(p, -1)
    t[idx] = rng.standard_normal(len(idx[0]))
    a = lower @ t
    return symmetrize(a @ a.T)


def singular_beta_reference(shape_a, p, rng):
    """B = (C')^{-1} A C^{-1} with C'C = A + uu', through scipy's Cholesky
    factor and triangular solves."""
    a = wishart_reference(2.0 * shape_a, np.eye(p), rng)
    u = rng.standard_normal(p)
    c = scipy.linalg.cholesky(a + np.outer(u, u), lower=False)
    y = scipy.linalg.solve_triangular(c, a, trans="T", lower=False)
    return symmetrize(scipy.linalg.solve_triangular(c, y.T, trans="T", lower=False).T)


def evolve_reference(phi_prev, beta, n, rng):
    p = len(beta)
    b = singular_beta_reference((float(np.mean(beta)) * n + p - 1) / 2.0, p, rng)
    c = scipy.linalg.cholesky(phi_prev, lower=False)
    inv_root = 1.0 / np.sqrt(beta)
    return symmetrize(c.T @ b @ c * np.outer(inv_root, inv_root))


def simulate_reference(spec, priors, n_steps, rng, sigma0=None, theta0=None):
    """The simulator's step loop written with the public samplers, one
    factorization per use: observations, states and volatilities."""
    n, p, d = validate(spec, priors).n, spec.p, spec.d
    omega = covariance_pass(spec, priors.P0, n_steps).omega
    sigma = invwishart_sample(n + 2 * p, priors.S0, rng) if sigma0 is None else sigma0
    theta = matrix_normal_sample(priors.m0, priors.P0, sigma, rng) if theta0 is None else theta0
    phi = inv_spd(sigma)
    rows = []
    for t in range(1, n_steps + 1):
        if not spec.constant_volatility:
            phi = evolve_precision(phi, spec.vol_discounts, n, rng)
            sigma = inv_spd(phi)
        noise = matrix_normal_sample(np.zeros((d, p)), omega[t - 1], sigma, rng)
        theta = spec.evolution_at(t) @ theta + noise
        eps = cholesky_upper(sigma).T @ rng.standard_normal(p)
        rows.append((theta.T @ spec.design_at(t) + eps, theta, sigma))
    return [np.array(column) for column in zip(*rows)]


def _callable_design_model():
    spec = ModelSpec(
        p=2, d=2, design=lambda t: np.array([1.0, np.sin(t / 7.0)]),
        evolution=lambda t: np.array([[1.0, 0.1], [0.0, 0.99]]),
        state_discounts=[0.9, 0.95], vol_discounts=[0.9, 0.85],
    )
    return spec, Priors(m0=np.zeros((2, 2)), P0=0.5 * np.eye(2), S0=[[1.0, 0.2], [0.2, 0.5]])


REFERENCE_CASES = {
    "time-varying beta": (local_level(3, 0.9, [0.95, 0.9, 0.9]), {}),
    "beta = 1": (local_level(3, 0.9, [1.0, 1.0, 1.0], n0=6.0), {}),
    "callable F and G": (_callable_design_model(), {}),
    "d = 1, p = 1": (local_level(1, 0.5, [0.9], p0=1.0), {}),
    "overrides": (
        local_level(3, 0.9, [0.95, 0.9, 0.9]),
        {"sigma0": np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.7]]),
         "theta0": np.array([[0.1, -0.2, 0.3]])},
    ),
}


class TestBitwiseReference:
    """The simulator and the samplers draw exactly what the public pieces
    and the scipy-based constructions draw from the same seed."""

    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_simulate_equals_step_loop(self, case):
        (spec, priors), overrides = REFERENCE_CASES[case]
        for seed in range(3):
            path = simulate(spec, priors, 120, rng=default_rng(seed), **overrides)
            ref = simulate_reference(spec, priors, 120, default_rng(seed), **overrides)
            for got, want in zip((path.observations, path.states, path.volatilities), ref):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_samplers_equal_scipy_constructions(self, p):
        rng, ref = default_rng(30 + p), default_rng(30 + p)
        scale = np.eye(p) + 0.3 * np.ones((p, p))
        beta = np.linspace(0.8, 0.95, p)
        n = 1.0 / (1.0 - beta.mean())
        phi = phi_ref = scale
        for _ in range(50):
            assert np.array_equal(wishart_sample(p + 2.7, scale, rng),
                                  wishart_reference(p + 2.7, scale, ref))
            params = SingularBetaParams(shape_a=p / 2.0 + 1.3, p=p)
            assert np.array_equal(singular_beta_sample(params, rng),
                                  singular_beta_reference(params.shape_a, p, ref))
            phi, phi_ref = evolve_precision(phi, beta, n, rng), evolve_reference(phi_ref, beta, n, ref)
            assert np.array_equal(phi, phi_ref)
        assert rng.random() == ref.random()


class TestSimulate:
    def test_seed_determinism(self):
        spec, priors = local_level(2, 0.9, [0.9, 0.9])
        a = simulate(spec, priors, 50, seed=77)
        b = simulate(spec, priors, 50, seed=77)
        assert np.array_equal(a.observations, b.observations)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.volatilities, b.volatilities)
        c = simulate(spec, priors, 50, seed=78)
        assert not np.array_equal(a.observations, c.observations)

    def test_iid_case(self):
        # no state evolution (delta = 1) and constant volatility with a
        # fixed matrix: observations are i.i.d. normal around theta0'F
        spec = ModelSpec(
            p=2, d=1, design=[1.0], evolution=[[1.0]],
            state_discounts=[1.0], vol_discounts=[1.0, 1.0],
        )
        priors = Priors(m0=np.zeros((1, 2)), P0=[[0.5]], S0=np.eye(2), n0=5.0)
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        theta0 = np.array([[0.3, -0.2]])
        path = simulate(spec, priors, 10_000, seed=9, sigma0=sigma, theta0=theta0)
        assert np.max(np.abs(np.cov(path.observations.T) - sigma) / sigma[0, 0]) < 0.05
        assert np.max(np.abs(path.observations.mean(axis=0) - theta0[0])) < 0.05
        assert np.array_equal(path.volatilities[0], path.volatilities[-1])

    def test_one_step_prior_predictive(self):
        # the first coordinate of a single-step path follows the forecast
        # t law implied by the priors
        spec, priors = local_level(2, 0.9, [0.9, 0.9])
        report = validate(spec, priors)
        state = FilterState(t=0, m=priors.m0, P=priors.P0, S=priors.S0, n=report.n)
        pred = predict(state, spec, 1)
        k = pred.forecast.dof
        scale = np.sqrt(pred.Q * pred.forecast.scale_col[0, 0] / k)
        children = SeedSequence(2024).spawn(10_000)
        draws = np.empty(10_000)
        for i, child in enumerate(children):
            draws[i] = simulate(spec, priors, 1, rng=default_rng(child)).observations[
                0, 0
            ]
        stat = scipy.stats.kstest(
            draws, lambda x: scipy.stats.t.cdf(x, df=k, loc=pred.f[0], scale=scale)
        ).statistic
        assert stat < 0.02

    def test_rejects_empty_horizon(self):
        spec, priors = local_level(1, 0.9, [0.9])
        with pytest.raises(ValueError):
            simulate(spec, priors, 0)

    def test_volatility_marginal_mean(self):
        # one evolution step away from the prior, the precision mean matches
        # the discounted Wishart marginal
        spec, priors = local_level(2, 1.0, [0.9, 0.9], p0=1e-12)
        n = spec.working_dof()
        total = np.zeros((2, 2))
        n_draws = 4000
        children = SeedSequence(55).spawn(n_draws)
        for child in children:
            path = simulate(spec, priors, 1, rng=default_rng(child))
            total += np.linalg.inv(path.volatilities[0])
        expected = (n + 1.0 / 0.9) * np.eye(2)
        assert np.max(np.abs(total / n_draws - expected)) < 0.15


class TestPairedScenario:
    def test_shape(self):
        scenario = paired_volatility_scenario(n_steps=333, seed=0)
        assert scenario.path.observations.shape == (333, 4)
        assert scenario.path.states.shape == (333, 2, 4)
        assert scenario.path.volatilities.shape == (333, 4, 4)
        beta = scenario.spec.vol_discounts
        assert beta[0] == beta[3] and beta[1] == beta[2]

    def test_msse_calibrated_at_generating_configuration(self):
        for seed in (0, 1, 2):
            scenario = paired_volatility_scenario(n_steps=333, seed=seed)
            traj = run(scenario.spec, scenario.priors, scenario.path.observations)
            report = msse_mae_me(traj)
            assert np.all(report.msse > 0.7) and np.all(report.msse < 1.4)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the plug-in path log-likelihood orders candidates by discount "
            "smoothness on data generated from the model, so the generating "
            "pairing does not outrank the equal-trace uniform candidate; "
            "empirically the uniform candidate wins every seed"
        ),
    )
    def test_pairing_outranks_uniform(self):
        wins = 0
        n_rep = 10
        for seed in range(n_rep):
            scenario = paired_volatility_scenario(n_steps=333, seed=seed)
            beta = scenario.spec.vol_discounts
            uniform = np.full(4, float(np.mean(beta)))
            traj_truth = run(
                scenario.spec, scenario.priors, scenario.path.observations
            )
            spec_uniform = ModelSpec(
                p=4, d=2, design=scenario.spec.design,
                evolution=scenario.spec.evolution,
                state_discounts=scenario.spec.state_discounts,
                vol_discounts=uniform,
            )
            traj_uniform = run(
                spec_uniform, scenario.priors, scenario.path.observations
            )
            wins += (
                compute_diagnostics(traj_truth).loglik
                > compute_diagnostics(traj_uniform).loglik
            )
        assert wins >= int(0.8 * n_rep)


class TestForecastCoverage:
    def test_ninety_percent_intervals(self):
        # reduced replication count; the acceptance suite runs the full 200
        spec, priors = local_level(2, 0.95, [0.95, 0.95], p0=0.1)
        k = spec.mean_beta / (1.0 - spec.mean_beta)
        q90 = scipy.stats.t.ppf(0.95, df=k)
        hits = total = 0
        for seed in range(60):
            path = simulate(spec, priors, 40, seed=seed)
            traj = run(spec, priors, path.observations)
            for i, step in enumerate(traj.steps):
                scale = step.sigma_prior.scale
                for j in range(2):
                    half = q90 * np.sqrt(step.Q * scale[j, j] / k)
                    hits += abs(path.observations[i, j] - step.f[j]) <= half
                    total += 1
        assert abs(hits / total - 0.90) < 0.03
