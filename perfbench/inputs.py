"""Benchmark inputs: price CSVs in the ingestion schema and JSON configs.

Prices come from the benchmark's own numpy generator, never from
``mvdlm.simulate``, so a workload's inputs stay the same when the package's
samplers change their draw stream.
"""

import datetime
import json

import numpy as np

START_DATE = datetime.date(2000, 1, 3)


def price_paths(rng, n_returns, p, scale):
    """(n_returns + 1, p) positive prices whose log returns have standard
    deviation about ``scale``.

    Returns mix a random correlation across series with a slowly varying
    log-volatility per series (AR(1), persistence 0.98). Each log-price path
    is centred, which leaves the returns unchanged and keeps prices far from
    overflow on long paths.
    """
    mix = np.eye(p) + 0.3 * rng.standard_normal((p, p))
    mix /= np.sqrt(np.sum(mix * mix, axis=1, keepdims=True))
    shocks = rng.standard_normal((n_returns, p))
    log_vol = np.empty((n_returns, p))
    h = 0.5 * rng.standard_normal(p)
    for t in range(n_returns):
        h = 0.98 * h + 0.1 * shocks[t]
        log_vol[t] = h
    z = rng.standard_normal((n_returns, p)) @ mix.T
    returns = scale * np.exp(0.5 * log_vol) * z
    log_prices = np.vstack([np.zeros(p), np.cumsum(returns, axis=0)])
    log_prices -= log_prices.mean(axis=0)
    return 100.0 * np.exp(log_prices)


def write_prices(path, prices, names=None):
    """Write prices as ``date,<names>`` rows with shortest round-trip floats."""
    n, p = prices.shape
    if names is None:
        names = [f"s{i + 1}" for i in range(p)]
    lines = ["date," + ",".join(names)]
    for i in range(n):
        date = (START_DATE + datetime.timedelta(days=i)).isoformat()
        lines.append(date + "," + ",".join(repr(float(v)) for v in prices[i]))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)


class Model:
    """One local-level configuration: the JSON the CLI reads and the
    arrays the reference filter takes."""

    def __init__(self, p, d, state_discount, vol_discounts, P0=1.0, grid=None,
                 weights=None):
        self.p = p
        self.d = d
        self.delta = float(state_discount)
        self.beta = np.broadcast_to(np.asarray(vol_discounts, dtype=float), (p,)).copy()
        self.P0 = float(P0)
        self.grid = grid
        self.weights = weights

    def config(self):
        raw = {
            "p": self.p,
            "d": self.d,
            "design": [1.0] + [0.0] * (self.d - 1),
            "evolution": "identity",
            "state_discounts": self.delta,
            "vol_discounts": self.beta.tolist(),
            "priors": {"m0": 0.0, "P0": self.P0, "S0": 1.0, "n0": 1.0},
            "data_kind": "prices",
        }
        if self.grid is not None:
            raw["grid"] = self.grid
        if self.weights is not None:
            raw["weights"] = list(self.weights)
        return raw

    def write(self, path):
        write_json(path, self.config())

    def reference_args(self, delta=None, beta=None):
        d, p = self.d, self.p
        design = np.zeros(d)
        design[0] = 1.0
        return dict(
            design=design,
            evolution=np.eye(d),
            state_discounts=np.full(d, self.delta if delta is None else delta),
            vol_discounts=self.beta if beta is None else np.asarray(beta, dtype=float),
            m0=np.zeros((d, p)),
            P0=self.P0 * np.eye(d),
            S0=np.eye(p),
        )
