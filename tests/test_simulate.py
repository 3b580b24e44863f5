import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from numpy.random import SeedSequence, default_rng

from mvdlm import ModelSpec, Priors, compute_n, run, validate
from mvdlm.diagnostics import compute_diagnostics, error_summary
from mvdlm.distributions import (
    SingularBetaParams,
    evolve_precision,
    invwishart_sample,
    matrix_normal_sample,
    singular_beta_sample,
    wishart_sample,
)
from mvdlm.errors import EmptyData, NonPositiveDefinite
from mvdlm.filter import covariance_pass, predict
from mvdlm.linalg import cholesky_upper, inv_spd, symmetrize
from mvdlm.model import FilterState
from mvdlm.simulate import simulate

from conftest import local_level, paired_volatility_scenario


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
    n, p, d = validate(spec, priors), spec.p, spec.d
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


def _cholesky_lower_ld(m):
    low = np.zeros_like(m)
    for j in range(len(m)):
        low[j, j] = np.sqrt(m[j, j] - low[j, :j] @ low[j, :j])
        low[j + 1:, j] = (m[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low


def _solve_lower_ld(low, b):
    x = np.zeros_like(b)
    for i in range(len(low)):
        x[i] = (b[i] - low[i, :i] @ x[:i]) / low[i, i]
    return x


def _singular_root_ld(a, p, rng):
    """W = L^{-1} T in long double from the documented draws of one singular beta
    (p gammas, the Bartlett normals, u), with LL' = TT' + uu'."""
    ld = np.longdouble
    t = np.zeros((p, p), dtype=ld)
    gammas = [rng.gamma((2 * a - j) / 2, 2.0) for j in range(p)]
    t[np.diag_indices(p)] = np.sqrt(np.array(gammas, dtype=ld))
    t[np.tril_indices(p, -1)] = rng.standard_normal(p * (p - 1) // 2)
    u = rng.standard_normal(p).astype(ld)
    return _solve_lower_ld(_cholesky_lower_ld(t @ t.T + np.outer(u, u)), t)


def volatility_oracle(beta, d, n_steps, rng, sigma0):
    """Sigma_1..Sigma_N in long double, from ``sigma0`` and the state of ``rng``
    after the initial draws, for a model whose Omega_t is never 0. Each step
    replays the documented draws (p gammas, the Bartlett normals, u, the d x p
    state and the p observation normals); B_t = W_tW_t' with W_t = L_t^{-1}T_t
    and L_tL_t' = T_tT_t' + u_tu_t', and Phi_t = V_tV_t' with
    V_t = beta^{-1/2} V_{t-1} W_t from the lower factor V_0 of Phi_0."""
    p, ld = len(beta), np.longdouble
    n = 1.0 / (1.0 - np.mean(beta))  # the working dof, and the beta's shape a
    a = (np.sum(beta) / p * n + p - 1) / 2.0
    eye = np.eye(p, dtype=ld)
    x = _solve_lower_ld(_cholesky_lower_ld(np.asarray(sigma0, dtype=ld)), eye)
    v = _cholesky_lower_ld(x.T @ x)
    inv_root = 1 / np.sqrt(np.asarray(beta, dtype=ld))
    out = np.empty((n_steps, p, p), dtype=ld)
    for i in range(n_steps):
        w = _singular_root_ld(a, p, rng)
        rng.standard_normal(d * p + p)
        v = inv_root[:, None] * (v @ w)
        x = _solve_lower_ld(v, eye)
        out[i] = x.T @ x
    return out


def _callable_design_model():
    spec = ModelSpec(
        p=2, d=2, design=lambda t: np.array([1.0, np.sin(t / 7.0)]),
        evolution=lambda t: np.array([[1.0, 0.1], [0.0, 0.99]]),
        state_discounts=[0.9, 0.95], vol_discounts=[0.9, 0.85],
    )
    return spec, Priors(m0=np.zeros((2, 2)), P0=0.5 * np.eye(2), S0=[[1.0, 0.2], [0.2, 0.5]])


def _one_fixed_component_model():
    spec = ModelSpec(
        p=2, d=2, design=[1.0, 0.0], evolution=[[1.0, 0.1], [0.0, 1.0]],
        state_discounts=[0.9, 1.0], vol_discounts=[0.9, 0.85],
    )
    return spec, Priors(m0=np.zeros((2, 2)), P0=0.5 * np.eye(2), S0=np.eye(2))


REFERENCE_CASES = {
    "time-varying beta": (local_level(3, 0.9, [0.95, 0.9, 0.9]), {}),
    "no state evolution": (local_level(3, 1.0, [0.95, 0.9, 0.9]), {}),
    "one state discount of 1": (_one_fixed_component_model(), {}),
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
    """The samplers draw the same numbers as the scipy-based constructions from
    the same seed: the Wishart draw is bitwise theirs, and the singular beta and
    the evolved precision, taken from a triangular root instead of B's explicit
    product, are within 1e-13 of theirs (8.7e-15 measured over a 50-step chain at
    p = 16); the simulator draws the same numbers in the same order as the
    public samplers composed step by step, and equals them within 1e-10."""

    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_simulate_equals_step_loop(self, case):
        (spec, priors), overrides = REFERENCE_CASES[case]
        for seed in range(3):
            rng, ref_rng = default_rng(seed), default_rng(seed)
            path = simulate(spec, priors, 120, rng=rng, **overrides)
            ref = simulate_reference(spec, priors, 120, ref_rng, **overrides)
            assert rng.random() == ref_rng.random()
            for got, want in zip((path.observations, path.states, path.volatilities), ref):
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("p", [1, 2, 4, 16])
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
            b, b_ref = singular_beta_sample(params, rng), singular_beta_reference(params.shape_a, p, ref)
            assert np.max(np.abs(b - b_ref)) <= 1e-13 * np.max(np.abs(b_ref))
            phi, phi_ref = evolve_precision(phi, beta, n, rng), evolve_reference(phi_ref, beta, n, ref)
            assert np.max(np.abs(phi - phi_ref)) <= 1e-13 * np.max(np.abs(phi_ref))
        assert rng.random() == ref.random()


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-17, reason="no long double wider than double")
def test_volatilities_match_a_long_double_oracle():
    """Each Sigma_t is within 1e-12 of the same draws evaluated in long double,
    on a path whose cond(Sigma_t) reaches 4e10; re-factoring Phi_t squares its
    condition number and errs by 3e-6 here."""
    beta = np.full(4, 0.9)
    spec, priors = local_level(4, 0.9, beta, p0=1.0)
    path = simulate(spec, priors, 600, rng=default_rng(0), sigma0=np.eye(4),
                    theta0=np.zeros((1, 4)))
    oracle = volatility_oracle(beta, 1, 600, default_rng(0), np.eye(4))
    err = np.abs(path.volatilities - oracle).max(axis=(1, 2)) / np.abs(oracle).max(axis=(1, 2))
    assert err.max() <= 1e-12


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-17, reason="no long double wider than double")
def test_evolved_precisions_match_a_long_double_oracle():
    """A 600-step chain of evolve_precision against the same draws evaluated in
    long double, through the chain of lower factors V_t = beta^{-1/2} V_{t-1} W_t
    (W_t from :func:`_singular_root_ld`). Each step refactors Phi_{t-1}, whose
    condition number reaches 1.6e13 here: the triangular root errs by up to
    9.8e-10 of max|Phi_t|, the explicit product C'BC with a second factor by 4.6e-10."""
    p, beta = 4, np.full(4, 0.9)
    n = 1.0 / (1.0 - beta.mean())
    a = (beta.sum() / p * n + p - 1) / 2.0
    rng, ref = default_rng(0), default_rng(0)
    phi, v = np.eye(p), np.eye(p, dtype=np.longdouble)
    inv_root = 1 / np.sqrt(beta.astype(np.longdouble))
    for _ in range(600):
        phi = evolve_precision(phi, beta, n, rng)
        v = inv_root[:, None] * (v @ _singular_root_ld(a, p, ref))
        want = v @ v.T
        assert np.abs(phi - want).max() <= 4e-9 * np.abs(want).max()
    assert rng.random() == ref.random()


def test_an_evolved_precision_past_the_float_range_is_a_typed_error():
    """beta^{-1/2} inflates Phi past the float range, in its root Y or only in
    Phi = YY': NonPositiveDefinite, with no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in ([1.0, 5e-324], [1e-4, 1.0]):
            with pytest.raises(NonPositiveDefinite, match="float range"):
                evolve_precision(1e307 * np.eye(2), beta, 10.0, default_rng(0))


def test_a_precision_past_the_float_range_is_a_typed_error():
    # beta = 0.02 inflates Sigma_t by about 50 a step, past the float range in 200
    spec, priors = local_level(2, 0.9, [0.02, 0.02])
    with pytest.raises(NonPositiveDefinite):
        simulate(spec, priors, 500, seed=0)


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

    @pytest.mark.slow
    def test_one_step_prior_predictive(self):
        # the first coordinate of a single-step path follows the forecast
        # t law implied by the priors
        spec, priors = local_level(2, 0.9, [0.9, 0.9])
        state = FilterState(t=0, m=priors.m0, P=priors.P0, S=priors.S0, n=validate(spec, priors))
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
        with pytest.raises(EmptyData):
            simulate(spec, priors, 0)

    @pytest.mark.slow
    def test_volatility_marginal_mean(self):
        # one evolution step away from the prior, the precision mean matches
        # the discounted Wishart marginal
        spec, priors = local_level(2, 1.0, [0.9, 0.9], p0=1e-12)
        n = compute_n(spec.vol_discounts)
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
            msse = error_summary(traj.e, traj.u)[0]
            assert np.all(msse > 0.7) and np.all(msse < 1.4)

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
            for i, scale in enumerate(traj.forecast_laws()[0]):
                for j in range(2):
                    half = q90 * np.sqrt(traj.Q[i] * scale[j, j] / k)
                    hits += abs(path.observations[i, j] - traj.f[i, j]) <= half
                    total += 1
        assert abs(hits / total - 0.90) < 0.03
