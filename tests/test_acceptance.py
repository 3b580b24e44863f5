"""Acceptance suite: one test per acceptance criterion.

Each test prints an `ACCEPTANCE <name>: PASS|FAIL` line (run with `-s` to
see them live) and then asserts. The reproduction test against frozen
reference diagnostics is conditional on a historical four-metal daily
price file that is not shipped; it is supplied via the MVDLM_METALS_CSV
environment variable and skipped when absent.

The grid-search recovery criterion is implemented faithfully and is
expected to fail: the plug-in path log-likelihood orders candidates by
discount smoothness rather than by closeness to the generating cell on
model-simulated data (details in the recovery test's docstring).
"""

import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from scipy.special import gammaln

from mvdlm import (
    InvWishartParams,
    ModelSpec,
    MultiTParams,
    Priors,
    compute_n,
    invwishart_logpdf,
    mvt_logpdf,
    run,
    validate,
)
from mvdlm.diagnostics import (
    error_summary,
    grid_search,
    lbf_from_trajectories,
    loglik_constant_arrays,
    posterior_loglik,
)
from mvdlm.distributions import evolve_precision, wishart_sample
from mvdlm.filter import _closed_form_scales, mle_constant
from mvdlm.simulate import simulate

from conftest import local_level, paired_volatility_scenario


def report(name, checks):
    """Print one PASS/FAIL line for a criterion, then assert every check."""
    ok = all(passed for _, passed in checks)
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    for label, passed in checks:
        print(f"    [{'ok' if passed else 'FAILED'}] {label}")
    assert ok, f"criterion {name} failed: " + "; ".join(
        label for label, passed in checks if not passed
    )


class TestAlgebraicIdentities:
    def test_identities(self):
        checks = []

        # residual identity and degrees-of-freedom fixed point on a
        # 333-step 4-series run
        scenario = paired_volatility_scenario(n_steps=333, seed=3)
        traj = run(scenario.spec, scenario.priors, scenario.path.observations)
        f_vec = scenario.spec.design_at(1)
        worst_r = 0.0
        state_m = scenario.priors.m0
        for i in range(len(traj)):
            # reconstruct m_t to evaluate r_t = y_t - m_t'F from definition
            gain = traj.R[i] @ f_vec / traj.Q[i]
            state_m = state_m + np.outer(gain, traj.e[i])
            r_def = scenario.path.observations[i] - state_m.T @ f_vec
            worst_r = max(worst_r, float(np.max(np.abs(traj.e[i] / traj.Q[i] - r_def))))
        checks.append((f"r_t = e_t/Q_t from definition (max dev {worst_r:.2e})",
                       worst_r <= 1e-10))
        n = compute_n(scenario.spec.vol_discounts)
        fixed_point_dev = abs(scenario.spec.mean_beta * n + 1.0 - n)
        checks.append(
            (f"degrees-of-freedom fixed point (dev {fixed_point_dev:.2e})",
             fixed_point_dev <= 1e-10)
        )

        # closed-form scale accumulation vs the recursion over 333 steps
        roots = np.sqrt(scenario.spec.vol_discounts)[None]
        closed = _closed_form_scales(traj.e, traj.Q, roots, scenario.priors.S0)[0]
        rel = float(np.max(np.abs(closed - traj.final.S))) / float(
            np.max(np.abs(traj.final.S))
        )
        checks.append(
            (f"closed-form scale accumulation (rel dev {rel:.2e})", rel <= 1e-10)
        )

        # single-discount equivalence of the local-level model: the second
        # state discount affects nothing observable; every recorded
        # quantity matches the single-discount run except the P entry that
        # the second discount parameterizes (see the decisions ledger)
        rng = np.random.default_rng(29)
        obs = rng.standard_normal((60, 2))
        priors = Priors(m0=np.zeros((2, 2)), P0=1000.0 * np.eye(2), S0=np.eye(2))
        base_spec = ModelSpec(
            p=2, d=2, design=[1.0, 0.0], evolution=np.eye(2),
            state_discounts=[0.7, 0.7], vol_discounts=[0.9, 0.8],
        )
        single = run(base_spec, priors, obs)
        equiv_ok = True
        worst = 0.0
        for d2 in (0.3, 0.6, 0.95):
            spec = ModelSpec(
                p=2, d=2, design=[1.0, 0.0], evolution=np.eye(2),
                state_discounts=[0.7, d2], vol_discounts=[0.9, 0.8],
            )
            multi = run(spec, priors, obs)
            dev = max(
                float(np.max(np.abs(single.f - multi.f))),
                float(np.max(np.abs(single.Q - multi.Q) / single.Q)),
                float(np.max(np.abs(single.S[1:] - multi.S[1:]))),
            )
            worst = max(worst, dev)
            worst = max(worst, float(np.max(np.abs(single.final.m - multi.final.m))))
            mask = np.array([[1.0, 1.0], [1.0, 0.0]])
            worst = max(
                worst,
                float(np.max(np.abs((single.final.P - multi.final.P) * mask))),
            )
        equiv_ok = worst <= 1e-10
        checks.append(
            (f"single-discount equivalence (max dev {worst:.2e})", equiv_ok)
        )

        # log Bayes factor antisymmetry under model swap is exact
        other = run(replace(base_spec, vol_discounts=[0.95, 0.95]), priors, obs)
        fwd = lbf_from_trajectories(single, other)
        rev = lbf_from_trajectories(other, single)
        swap_dev = float(np.max(np.abs(fwd + rev)))
        checks.append((f"LBF antisymmetry (max dev {swap_dev:.2e})", swap_dev == 0.0))

        report("algebraic-identities", checks)


class TestConstantVolatilityMle:
    def test_mle_identity_and_optimality(self):
        checks = []
        rng = np.random.default_rng(101)
        sigma_true = np.array([[1.5, 0.4], [0.4, 0.8]])
        chol = np.linalg.cholesky(sigma_true)
        obs = rng.standard_normal((200, 2)) @ chol.T
        spec, priors = local_level(
            2, 0.9, [1.0, 1.0], p0=1.0, s0_scale=1e-12, n0=0.0
        )
        traj = run(spec, priors, obs)
        estimate = mle_constant(obs, spec, priors)
        dev = float(np.max(np.abs(traj.final.S / len(traj) - estimate)))
        checks.append(
            (f"posterior scale / N equals summed estimator (max dev {dev:.2e})",
             dev <= 1e-6)
        )

        base = loglik_constant_arrays(traj.e, traj.Q, estimate)
        optimal = True
        for i in range(2):
            for eps in (0.01, -0.01, 0.05, -0.05):
                perturbed = estimate.copy()
                perturbed[i, i] *= 1.0 + eps
                if loglik_constant_arrays(traj.e, traj.Q, perturbed) > base + 1e-9:
                    optimal = False
        checks.append(
            ("axis-aligned +/-1%, +/-5% perturbations never increase the "
             "constant-volatility log-likelihood", optimal)
        )
        report("constant-volatility-mle", checks)


@pytest.mark.slow
class TestPrecisionEvolutionMonteCarlo:
    def test_moments_and_scalar_law(self):
        checks = []
        rng = np.random.default_rng(7)
        p, n, beta = 2, 10.0, 0.9
        n_draws = 100_000
        total = np.zeros((p, p))
        for _ in range(n_draws):
            phi_prev = wishart_sample(n + p - 1, np.eye(p), rng)
            total += evolve_precision(phi_prev, [beta, beta], n, rng)
        mean = total / n_draws
        expected = (n + (p - 1) / beta) * np.eye(p)
        rel = float(np.max(np.abs(np.diag(mean) - np.diag(expected)))) / (
            n + (p - 1) / beta
        )
        off = float(np.max(np.abs(mean - np.diag(np.diag(mean)))))
        checks.append(
            (f"mean precision after evolution 11.111*I within 1% "
             f"(rel dev {rel:.4f}, off-diag {off:.4f})",
             rel < 0.01 and off < 0.15)
        )

        draws = np.empty(n_draws)
        rng2 = np.random.default_rng(8)
        for i in range(n_draws):
            draws[i] = 0.9 * evolve_precision([[1.0]], [0.9], 10.0, rng2)[0, 0]
        stat = scipy.stats.kstest(draws, scipy.stats.beta(4.5, 0.5).cdf).statistic
        checks.append(
            (f"scalar evolution matches the rescaled beta law "
             f"(KS statistic {stat:.4f})", stat < 0.01)
        )
        report("precision-evolution-monte-carlo", checks)


class TestCalibration:
    def test_msse_and_coverage(self):
        checks = []

        # constant-volatility simulation with a known matrix, N = 2000
        spec, priors = local_level(2, 0.95, [1.0, 1.0], p0=1.0, n0=3.0)
        sigma_true = np.array([[1.5, 0.4], [0.4, 0.8]])
        path = simulate(spec, priors, 2000, seed=11, sigma0=sigma_true)
        traj = run(spec, priors, path.observations)
        msse = error_summary(traj.e, traj.u)[0]
        checks.append(
            (f"MSSE components in [0.8, 1.25] at N=2000 "
             f"({np.array2string(msse, precision=3)})",
             bool(np.all(msse > 0.8) and np.all(msse < 1.25)))
        )

        # 90% one-step intervals over 200 replications
        spec_c, priors_c = local_level(2, 0.95, [0.95, 0.95], p0=0.1)
        k = spec_c.mean_beta / (1.0 - spec_c.mean_beta)
        q90 = scipy.stats.t.ppf(0.95, df=k)
        hits = total = 0
        for seed in range(200):
            sim = simulate(spec_c, priors_c, 40, seed=seed)
            fit = run(spec_c, priors_c, sim.observations)
            for i, scale in enumerate(fit.forecast_laws()[0]):
                for j in range(2):
                    half = q90 * np.sqrt(fit.Q[i] * scale[j, j] / k)
                    hits += abs(sim.observations[i, j] - fit.f[i, j]) <= half
                    total += 1
        coverage = hits / total
        checks.append(
            (f"90% forecast-interval coverage over 200 replications "
             f"({coverage:.4f})", abs(coverage - 0.90) < 0.03)
        )
        report("calibration", checks)


class TestLikelihoodCrossChecks:
    def test_scalar_path_likelihood_and_quadrature(self):
        checks = []

        # scalar path-likelihood against an independent plain-float coding
        spec, priors = local_level(1, 0.8, [0.9], p0=1.0)
        rng = np.random.default_rng(1)
        obs = rng.standard_normal((10, 1))
        traj = run(spec, priors, obs)
        value = posterior_loglik(traj.volatility, traj.row)
        beta, n = 0.9, 10.0
        m = beta / (1 - beta)
        sigmas = [priors.S0[0, 0] / (n - 2)]
        sigmas += list(traj.S[1:, 0, 0] / (n - 2))
        const = 10 * (
            (m - 1) / 2 * np.log(beta)
            + gammaln((m + 1) / 2)
            - 0.5 * np.log(2.0)
            - np.log(np.pi)
            - gammaln(m / 2)
        )
        total = 0.0
        for t in range(1, 11):
            e = float(traj.e[t - 1, 0])
            q = float(traj.Q[t - 1])
            s_prev, s_cur = sigmas[t - 1], sigmas[t]
            total += (
                np.log(q)
                + (1 - m) * np.log(s_prev)
                + e * e / (q * s_cur)
                + np.log(1.0 - beta * s_prev / s_cur)
                + (m - 3) * np.log(s_cur)
            )
        dev = abs(value - (const - 0.5 * total))
        checks.append(
            (f"10-step scalar path likelihood cross-check (dev {dev:.2e})",
             dev <= 1e-8)
        )

        iw = InvWishartParams(dof=5.0, scale=[[1.0]])
        iw_mass, _ = scipy.integrate.quad(
            lambda x: np.exp(invwishart_logpdf([[x]], iw)), 0.0, np.inf
        )
        checks.append(
            (f"inverted-Wishart density mass (dev {abs(iw_mass - 1):.2e})",
             abs(iw_mass - 1.0) < 1e-6)
        )
        tp = MultiTParams(dof=9.0, location=[0.2], scale_row=2.0, scale_col=[[3.0]])
        t_mass, _ = scipy.integrate.quad(
            lambda x: np.exp(mvt_logpdf([x], tp)), -np.inf, np.inf
        )
        checks.append(
            (f"multivariate-t density mass (dev {abs(t_mass - 1):.2e})",
             abs(t_mass - 1.0) < 1e-6)
        )
        report("likelihood-crosschecks", checks)


class TestGridSearchRecovery:
    def test_generating_cell_in_top_three(self):
        """Recovery of the generating discount cell by log-likelihood rank.

        Expected to FAIL: the plug-in path log-likelihood is ordered by
        discount smoothness on model-generated data (measured across
        designs at p in {1, 2, 4}, horizons 150-333 and both the
        posterior-mean and forecast-mean plug-ins), so an interior
        generating cell of a two-dimensional discount grid ranks behind
        the smoother cells regardless of the data. Model selection in
        practice must weigh this score against the MSSE instead of
        maximizing it alone.
        """
        p, d = 2, 1
        truth = (0.95, 0.92)
        spec_truth = ModelSpec(
            p=p, d=d, design=[1.0], evolution=np.eye(d),
            state_discounts=[0.9], vol_discounts=list(truth),
        )
        priors = Priors(m0=np.zeros((d, p)), P0=0.01 * np.eye(d), S0=np.eye(p))
        beta_grid = [
            [b1, b2] for b1 in (0.90, 0.95, 0.98) for b2 in (0.89, 0.92, 0.95)
        ]
        top3 = 0
        n_rep = 50
        for seed in range(n_rep):
            path = simulate(spec_truth, priors, 250, seed=seed)
            result = grid_search(
                spec_truth, priors, path.observations, [0.9], beta_grid
            )
            order = [row.beta for row in result.rows]
            top3 += order.index(truth) < 3
        frequency = top3 / n_rep
        report(
            "grid-search-recovery",
            [(f"generating cell in top 3 of 9 by log-likelihood in >= 80% "
              f"of {n_rep} replications (observed {frequency:.2f})",
              frequency >= 0.80)],
        )


METALS_ENV = "MVDLM_METALS_CSV"


@pytest.mark.skipif(
    METALS_ENV not in os.environ,
    reason=(
        "conditional criterion: requires the historical 334-day, 4-metal "
        f"price file; point {METALS_ENV} at it to enable"
    ),
)
class TestReferenceReproduction:
    def test_reference_row(self):
        from mvdlm.data import ingest, to_returns

        table = to_returns(ingest(os.environ[METALS_ENV]))
        assert table.returns.shape == (333, 4)
        spec = ModelSpec(
            p=4, d=2, design=[1.0, 0.0], evolution=np.eye(2),
            state_discounts=[0.08, 0.08],
            vol_discounts=[0.66, 0.9, 0.9, 0.66],
        )
        priors = Priors(
            m0=np.zeros((2, 4)), P0=1000.0 * np.eye(2), S0=np.eye(4), n0=1.0
        )
        validate(spec, priors)
        traj = run(spec, priors, table.returns)
        msse = error_summary(traj.e, traj.u)[0]
        loglik = posterior_loglik(traj.volatility, traj.row)
        checks = [
            (f"MSSE (1.05, 1.37, 1.34, 0.94) +/- 0.02 "
             f"({np.array2string(msse, precision=3)})",
             bool(np.all(np.abs(msse - np.array([1.05, 1.37, 1.34, 0.94])) <= 0.02))),
            (f"path log-likelihood -32970.79 +/- 0.5% ({loglik:.2f})",
             abs(loglik + 32970.79) <= 0.005 * 32970.79),
        ]
        spec_const = ModelSpec(
            p=4, d=2, design=[1.0, 0.0], evolution=np.eye(2),
            state_discounts=[0.08, 0.08], vol_discounts=[1.0] * 4,
        )
        traj_const = run(spec_const, priors, table.returns)
        const_loglik = loglik_constant_arrays(
            traj_const.e, traj_const.Q, traj_const.posterior_means[-1]
        )
        checks.append(
            (f"constant-volatility log-likelihood -10344.66 +/- 0.5% "
             f"({const_loglik:.2f})",
             abs(const_loglik + 10344.66) <= 0.005 * 10344.66)
        )
        report("reference-reproduction", checks)
