"""JSON configuration files for the command-line pipeline.

Schema (all matrices may be given as nested lists, flat row-major lists,
or a scalar meaning ``scalar * identity`` for square matrices and a
constant fill for the state mean):

    {
      "p": 4, "d": 2,
      "design": [1.0, 0.0],               # F, length d
      "evolution": "identity",            # or a d x d matrix
      "state_discounts": 0.95,            # scalar or length-d list
      "vol_discounts": [0.9, 0.75, 0.75, 0.9],
      "branch": "auto",                   # "auto" | "constant" | "time-varying"
      "priors": {"m0": 0.0, "P0": 1000.0, "S0": 1.0, "n0": 1.0},
      "data_kind": "prices",              # or "returns"
      "names": ["alum", "copp", "lead", "zinc"],
      "weights": [0.25, 0.25, 0.25, 0.25],
      "seed": 20,
      "horizon": 333,
      "grid": {"deltas": [0.08, 0.8], "betas": [[0.66, 0.9, 0.9, 0.66]]},
      "var": {"family": "t", "alphas": [95, 99]}
    }

``branch: "constant"`` forces the time-invariant volatility model; the
volatility discounts must then be omitted or all 1.
"""

import json

import numpy as np

from .errors import ConfigError
from .model import ModelSpec, Priors


def _as_matrix(value, rows, cols, what):
    if isinstance(value, (int, float)):
        arr = float(value) * np.eye(rows) if rows == cols else np.full((rows, cols), float(value))
    else:
        arr = np.asarray(value, dtype=float)
    if arr.ndim == 1:
        if arr.size != rows * cols:
            raise ConfigError(
                f"{what}: flat list of length {arr.size} cannot fill "
                f"{rows}x{cols}"
            )
        arr = arr.reshape(rows, cols)
    if arr.shape != (rows, cols):
        raise ConfigError(f"{what}: expected shape {(rows, cols)}, got {arr.shape}")
    return _finite(arr, what)


def _as_vector(value, length, what):
    scalar = isinstance(value, (int, float))
    arr = np.full(length, float(value)) if scalar else np.asarray(value, dtype=float)
    if arr.shape != (length,):
        raise ConfigError(f"{what}: expected {length} entries, got shape {arr.shape}")
    return _finite(arr, what)


def _finite(value, what):  # JSON admits NaN and Infinity; the model does not
    if not np.isfinite(value).all():
        raise ConfigError(f"{what}: values must be finite")
    return value


class RunConfig:
    """Parsed configuration; builds the model spec and priors on demand."""

    def __init__(self, raw, path="<config>"):
        self.raw = raw
        self.path = path
        try:
            self.p = int(raw["p"])
            self.d = int(raw["d"])
        except KeyError as exc:
            raise ConfigError(f"{path}: missing required key {exc}") from None
        if self.p < 1 or self.d < 1:
            raise ConfigError(f"{path}: p and d must be positive")
        self.branch = raw.get("branch", "auto")
        if self.branch not in ("auto", "constant", "time-varying"):
            raise ConfigError(f"{path}: unknown branch {self.branch!r}")
        self.data_kind = raw.get("data_kind", "prices")
        if self.data_kind not in ("prices", "returns"):
            raise ConfigError(f"{path}: unknown data_kind {self.data_kind!r}")
        self.names = raw.get("names")
        self.seed = raw.get("seed")
        self.horizon = raw.get("horizon")
        self.weights = raw.get("weights")
        self.grid = raw.get("grid")
        var = raw.get("var", {})
        self.var_family = var.get("family", "t")
        self.var_alphas = var.get("alphas", [95, 99])

    def spec(self):
        raw = self.raw
        try:
            design = _as_vector(raw["design"], self.d, "design")
        except KeyError:
            raise ConfigError(f"{self.path}: missing design vector") from None
        evolution = raw.get("evolution", "identity")
        if isinstance(evolution, str):
            if evolution != "identity":
                raise ConfigError(
                    f"{self.path}: evolution must be a matrix or 'identity'"
                )
            evolution = np.eye(self.d)
        else:
            evolution = _as_matrix(evolution, self.d, self.d, "evolution")
        state_discounts = _as_vector(
            raw.get("state_discounts", 1.0), self.d, "state_discounts"
        )
        vol_raw = raw.get("vol_discounts")
        if vol_raw is None:
            if self.branch != "constant":
                raise ConfigError(
                    f"{self.path}: vol_discounts required unless branch is "
                    "'constant'"
                )
            vol_discounts = np.ones(self.p)
        else:
            vol_discounts = _as_vector(vol_raw, self.p, "vol_discounts")
        if self.branch == "constant" and not np.all(vol_discounts == 1.0):
            raise ConfigError(
                f"{self.path}: branch 'constant' requires all vol_discounts = 1"
            )
        if self.branch == "time-varying" and np.all(vol_discounts == 1.0):
            raise ConfigError(
                f"{self.path}: branch 'time-varying' requires some "
                "vol_discount below 1"
            )
        try:
            return ModelSpec(
                p=self.p,
                d=self.d,
                design=design,
                evolution=evolution,
                state_discounts=state_discounts,
                vol_discounts=vol_discounts,
            )
        except Exception as exc:
            raise ConfigError(f"{self.path}: {exc}") from exc

    def priors(self):
        raw = self.raw.get("priors", {})
        try:
            return Priors(
                m0=_as_matrix(raw.get("m0", 0.0), self.d, self.p, "m0"),
                P0=_as_matrix(raw.get("P0", 1.0), self.d, self.d, "P0"),
                S0=_as_matrix(raw.get("S0", 1.0), self.p, self.p, "S0"),
                n0=_finite(float(raw.get("n0", 1.0)), "n0"),
            )
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"{self.path}: bad priors ({exc})") from exc

    def grid_candidates(self):
        if not self.grid:
            raise ConfigError(f"{self.path}: no 'grid' section")
        deltas = self.grid.get("deltas")
        betas = self.grid.get("betas")
        if not deltas or not betas:
            raise ConfigError(
                f"{self.path}: grid needs non-empty 'deltas' and 'betas'"
            )
        return [float(x) for x in deltas], [_as_vector(b, self.p, "grid beta") for b in betas]


def load_config(path):
    """Read and validate a JSON configuration file."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return RunConfig(raw, path=str(path))
