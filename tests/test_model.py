import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mvdlm import ModelSpec, Priors, compute_n, validate
from mvdlm.filter import covariance_pass
from mvdlm.errors import (
    DegenerateDegrees,
    DimensionMismatch,
    DiscountOutOfRange,
    NonPositiveDefinite,
)


class TestComputeN:
    def test_single_discount(self):
        assert_allclose(compute_n([0.9]), 10.0)

    def test_paired_discounts(self):
        # 1 / (1 - 3.12/4) with the paired layout
        assert_allclose(compute_n([0.66, 0.9, 0.9, 0.66]), 1.0 / 0.22)

    def test_half(self):
        assert_allclose(compute_n([0.5, 0.5]), 2.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateDegrees):
            compute_n([1.0, 1.0])

    @given(
        st.lists(st.floats(min_value=0.05, max_value=0.99), min_size=1, max_size=6)
    )
    def test_fixed_point_identity(self, beta):
        n = compute_n(beta)
        assert abs(n * (1.0 - np.mean(beta)) - 1.0) < 1e-12


def evolution_covariance(spec, p_prev):
    """Omega_1 of the covariance pass started from ``p_prev``."""
    return covariance_pass(spec, np.asarray(p_prev, dtype=float), 1).omega[0]


class TestEvolutionCovariance:
    def test_no_discounting_gives_zero(self):
        spec = ModelSpec(
            p=1, d=2, design=[1.0, 0.0], evolution=np.eye(2),
            state_discounts=[1.0, 1.0], vol_discounts=[0.9],
        )
        omega = evolution_covariance(spec, np.eye(2))
        assert_allclose(omega, np.zeros((2, 2)))

    def test_scalar_hand_value(self):
        spec = ModelSpec(
            p=1, d=1, design=[1.0], evolution=[[1.0]],
            state_discounts=[0.5], vol_discounts=[0.9],
        )
        assert_allclose(evolution_covariance(spec, [[1.0]]), [[1.0]])

    def test_two_dim_hand_value(self):
        spec = ModelSpec(
            p=1, d=2, design=[1.0, 0.0], evolution=np.eye(2),
            state_discounts=[0.9, 0.9], vol_discounts=[0.9],
        )
        assert_allclose(evolution_covariance(spec, np.eye(2)), np.eye(2) / 9.0)

    @given(
        st.floats(min_value=0.1, max_value=1.0),
        st.floats(min_value=0.1, max_value=1.0),
        st.floats(min_value=-0.9, max_value=0.9),
    )
    @settings(max_examples=50)
    def test_symmetric_psd(self, d1, d2, rho):
        spec = ModelSpec(
            p=1, d=2, design=[1.0, 0.0], evolution=[[1.0, 0.3], [0.0, 1.0]],
            state_discounts=[d1, d2], vol_discounts=[0.9],
        )
        p_prev = np.array([[1.0, rho], [rho, 1.0]])
        omega = evolution_covariance(spec, p_prev)
        assert np.max(np.abs(omega - omega.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(omega)) >= -1e-10


class TestValidate:
    def test_time_varying_branch(self):
        spec = ModelSpec(
            p=1, d=1, design=[1.0], evolution=[[1.0]],
            state_discounts=[0.5], vol_discounts=[0.9],
        )
        report = validate(spec, Priors(m0=[[0.0]], P0=[[1.0]], S0=[[1.0]]))
        assert_allclose(report.n, 10.0)
        assert not report.constant_volatility
        assert report.features == {"posterior_mean": True, "forecast_moments": True}

    def test_constant_branch(self):
        spec = ModelSpec(
            p=4, d=1, design=[1.0], evolution=[[1.0]],
            state_discounts=[0.9], vol_discounts=[1.0, 1.0, 1.0, 1.0],
        )
        priors = Priors(m0=np.zeros((1, 4)), P0=[[1.0]], S0=np.eye(4), n0=3.0)
        report = validate(spec, priors)
        assert report.constant_volatility
        assert report.n == 3.0

    def test_boundary_features_disabled(self):
        spec = ModelSpec(
            p=2, d=1, design=[1.0], evolution=[[1.0]],
            state_discounts=[0.9], vol_discounts=[0.5, 0.5],
        )
        priors = Priors(m0=np.zeros((1, 2)), P0=[[1.0]], S0=np.eye(2))
        report = validate(spec, priors)
        assert report.mean_beta == 0.5
        assert not report.features["posterior_mean"]
        assert not report.features["forecast_moments"]
        assert report.notes

    def test_rejects_non_pd_priors(self):
        spec = ModelSpec(
            p=2, d=1, design=[1.0], evolution=[[1.0]],
            state_discounts=[0.9], vol_discounts=[0.9, 0.9],
        )
        bad_s = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NonPositiveDefinite):
            validate(spec, Priors(m0=np.zeros((1, 2)), P0=[[1.0]], S0=bad_s))
        with pytest.raises(NonPositiveDefinite):
            validate(
                spec, Priors(m0=np.zeros((1, 2)), P0=[[-1.0]], S0=np.eye(2))
            )

    def test_rejects_bad_dimensions(self):
        spec = ModelSpec(
            p=2, d=1, design=[1.0], evolution=[[1.0]],
            state_discounts=[0.9], vol_discounts=[0.9, 0.9],
        )
        with pytest.raises(DimensionMismatch):
            validate(spec, Priors(m0=np.zeros((2, 2)), P0=[[1.0]], S0=np.eye(2)))

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.2])
    def test_discounts_out_of_range(self, bad):
        with pytest.raises(DiscountOutOfRange):
            ModelSpec(
                p=1, d=1, design=[1.0], evolution=[[1.0]],
                state_discounts=[bad], vol_discounts=[0.9],
            )
        with pytest.raises(DiscountOutOfRange):
            ModelSpec(
                p=1, d=1, design=[1.0], evolution=[[1.0]],
                state_discounts=[0.9], vol_discounts=[bad],
            )


class TestSequenceProviders:
    def test_dict_provider_by_step(self):
        design = {1: np.array([1.0]), 2: np.array([2.0]), None: np.array([3.0])}
        spec = ModelSpec(
            p=1, d=1, design=design, evolution=[[1.0]],
            state_discounts=[0.9], vol_discounts=[0.9],
        )
        assert spec.design_at(1)[0] == 1.0
        assert spec.design_at(2)[0] == 2.0
        assert spec.design_at(99)[0] == 3.0  # fallback entry

    def test_callable_provider(self):
        spec = ModelSpec(
            p=1, d=1, design=lambda t: np.array([float(t)]), evolution=[[1.0]],
            state_discounts=[0.9], vol_discounts=[0.9],
        )
        assert spec.design_at(7)[0] == 7.0

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionMismatch):
            ModelSpec(
                p=1, d=2, design=[1.0], evolution=np.eye(2),
                state_discounts=[0.9, 0.9], vol_discounts=[0.9],
            )
