import os

# One BLAS thread, as perfbench/run.py sets it, set before numpy loads: the
# suite's matrices are small, so a second thread adds CPU time and no speed,
# and it makes the suite's times follow the load of the host's other cores.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from dataclasses import dataclass

import numpy as np
import pytest

from mvdlm import ModelSpec, Priors
from mvdlm.simulate import SimPath, simulate


@pytest.fixture
def scalar_spec():
    """p = d = 1 local level with delta = 0.5, beta = 0.9."""
    return ModelSpec(
        p=1,
        d=1,
        design=[1.0],
        evolution=[[1.0]],
        state_discounts=[0.5],
        vol_discounts=[0.9],
    )


@pytest.fixture
def scalar_priors():
    return Priors(m0=[[0.0]], P0=[[1.0]], S0=[[1.0]])


def local_level(p, delta, beta, p0=0.01, s0_scale=1.0, n0=1.0):
    """Convenience builder: d = 1 random-walk level model."""
    spec = ModelSpec(
        p=p,
        d=1,
        design=[1.0],
        evolution=[[1.0]],
        state_discounts=[delta],
        vol_discounts=np.atleast_1d(beta),
    )
    priors = Priors(
        m0=np.zeros((1, p)),
        P0=[[p0]],
        S0=s0_scale * np.eye(p),
        n0=n0,
    )
    return spec, priors


@dataclass(frozen=True)
class PairedScenario:
    """A simulated 4-series local-level path with paired volatility
    discounts, together with the generating spec and priors."""

    path: SimPath
    spec: ModelSpec
    priors: Priors


def paired_volatility_scenario(
    n_steps=333,
    seed=0,
    beta_pair=(0.95, 0.92),
    delta=0.95,
    state_scale=0.01,
):
    """Four return-like series driven by two volatility regimes.

    The model is a local level with design [1, 0]' and identity evolution;
    the outer pair of series shares the first volatility discount and the
    inner pair the second, so series 1 and 4 co-move in volatility, as do
    series 2 and 3. The default discounts are close together on purpose:
    component volatilities drift apart geometrically at rate beta_2/beta_1
    per step under the generative evolution, so widely split pairs produce
    astronomically ill-conditioned paths over a few hundred steps.
    """
    beta1, beta2 = beta_pair
    spec = ModelSpec(
        p=4,
        d=2,
        design=np.array([1.0, 0.0]),
        evolution=np.eye(2),
        state_discounts=np.array([delta, delta]),
        vol_discounts=np.array([beta1, beta2, beta2, beta1]),
    )
    priors = Priors(
        m0=np.zeros((2, 4)),
        P0=state_scale * np.eye(2),
        S0=np.eye(4),
        n0=1.0,
    )
    path = simulate(spec, priors, n_steps, seed=seed)
    return PairedScenario(path=path, spec=spec, priors=priors)
