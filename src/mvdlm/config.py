"""JSON configuration files for the command-line pipeline.

Schema (all matrices may be given as nested lists, flat row-major lists,
or a scalar meaning ``scalar * identity`` for square matrices and a
constant fill for the state mean):

    {
      "p": 4, "d": 2,
      "design": [1.0, 0.0],               # F, length d
      "evolution": "identity",            # or a d x d matrix
      "state_discounts": 0.95,            # scalar or length-d list
      "vol_discounts": [0.9, 0.75, 0.75, 0.9],   # scalar or length-p list
      "priors": {"m0": 0.0, "P0": 1000.0, "S0": 1.0, "n0": 1.0},
      "data_kind": "prices",              # or "returns"
      "names": ["alum", "copp", "lead", "zinc"],
      "weights": [0.25, 0.25, 0.25, 0.25],
      "seed": 20,
      "horizon": 333,
      "grid": {"deltas": [0.08, 0.8], "betas": [[0.66, 0.9, 0.9, 0.66]]},
      "var": {"family": "t", "alphas": [95, 99]}   # family "t" or "normal"
    }

``vol_discounts`` is required: all 1 is the time-invariant volatility
model, anything else evolves. ``names`` holds p distinct strings and
``weights`` p numbers that pass the VaR rule with ``var``. The grid's deltas
and betas lie in (0, 1], each given once. A key outside this schema, at any
level, is a configuration error.
"""

import json

import numpy as np

from .diagnostics import check_var_settings
from .errors import ConfigError, DiscountOutOfRange, InvalidWeights
from .model import ModelSpec, Priors, check_discounts

KEYS = {  # the schema above: top-level keys, then those of each section
    None: {"p", "d", "design", "evolution", "state_discounts", "vol_discounts", "priors",
           "data_kind", "names", "weights", "seed", "horizon", "grid", "var"},
    "priors": {"m0", "P0", "S0", "n0"},
    "grid": {"deltas", "betas"},
    "var": {"family", "alphas"},
}


# A JSON number parses to int or float (true and false to bool, "1" to str).
def _is_number(value):
    return type(value) in (int, float)


def _as_matrix(value, rows, cols, what):
    if _is_number(value):
        arr = float(value) * np.eye(rows) if rows == cols else np.full((rows, cols), float(value))
    else:
        arr = _floats(value, what)
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
    arr = np.full(length, float(value)) if _is_number(value) else _floats(value, what)
    if arr.shape != (length,):
        raise ConfigError(f"{what}: expected {length} entries, got shape {arr.shape}")
    return _finite(arr, what)


def _floats(value, what):
    """A list of numbers, or a list of such lists, as a float array, else
    ConfigError (a string, a bool, an object, a ragged list)."""
    rows = value if type(value) is list and all(type(x) is list for x in value) else [value]
    numbers = all(type(row) is list and all(map(_is_number, row)) for row in rows)
    if not (numbers and len({len(row) for row in rows}) < 2):
        raise ConfigError(f"{what}: expected numbers, got {value!r}")
    return np.asarray(value, dtype=float)


def _finite(value, what):  # JSON admits NaN and Infinity; the model does not
    if not np.isfinite(value).all():
        raise ConfigError(f"{what}: values must be finite")
    return value


def _numbers(value, what):
    """A list of finite numbers (None passes through), else ConfigError."""
    numbers = type(value) is list and all(map(_is_number, value))
    if value is not None and not numbers:
        raise ConfigError(f"{what}: expected a list of numbers, got {value!r}")
    return value if value is None else _finite(value, what)


def _check_keys(raw, path):
    """Raise ConfigError naming the first key outside :data:`KEYS` (a section
    given as null counts as absent)."""
    for section, allowed in KEYS.items():
        table = raw if section is None else raw.get(section) or {}
        if not isinstance(table, dict):
            raise ConfigError(f"{path}: {section!r} must be an object")
        unknown = [f"{section}.{key}" if section else key for key in sorted(set(table) - allowed)]
        if unknown:
            raise ConfigError(f"{path}: unknown key {unknown[0]!r}")


def whole_number(value, what, low):
    """A whole number >= ``low`` as an int (None passes through), else ConfigError."""
    whole = type(value) is int or type(value) is float and value.is_integer()
    if value is not None and not (whole and value >= low):
        raise ConfigError(f"{what}: expected a whole number >= {low}, got {value!r}")
    return value if value is None else int(value)


class RunConfig:
    """Parsed configuration; builds the model spec and priors on demand."""

    def __init__(self, raw, path="<config>"):
        _check_keys(raw, path)
        self.raw = raw
        self.path = path
        for key in ("p", "d"):
            if raw.get(key) is None:
                raise ConfigError(f"{path}: missing required key {key!r}")
        self.p = whole_number(raw["p"], "p", 1)
        self.d = whole_number(raw["d"], "d", 1)
        self.data_kind = raw.get("data_kind", "prices")
        if self.data_kind not in ("prices", "returns"):
            raise ConfigError(f"{path}: unknown data_kind {self.data_kind!r}")
        self.names = names = raw.get("names")
        if names is not None and (type(names) is not list or [*map(type, names)] != [str] * self.p
                                  or len(set(names)) < self.p):
            raise ConfigError(f"{path}: names must be a list of {self.p} distinct strings")
        self.seed = whole_number(raw.get("seed"), "seed", 0)
        self.horizon = whole_number(raw.get("horizon"), "horizon", 1)
        self.weights = _numbers(raw.get("weights"), "weights")
        if self.weights is not None and len(self.weights) != self.p:
            raise ConfigError(f"{path}: weights must be a list of {self.p} numbers")
        self.grid = raw.get("grid")
        self.deltas, self.betas = _grid_values(self.grid or {}, self.p, path)
        var = raw.get("var") or {}
        self.var_family = var.get("family", "t")
        self.var_alphas = _numbers(var.get("alphas", [95, 99]), "var.alphas")
        try:
            check_var_settings(self.weights, self.var_alphas, self.var_family)
        except InvalidWeights as exc:
            raise ConfigError(f"{path}: {exc}") from None

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
        if raw.get("vol_discounts") is None:
            raise ConfigError(f"{self.path}: missing required key 'vol_discounts'")
        vol_discounts = _as_vector(raw["vol_discounts"], self.p, "vol_discounts")
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
            n0 = raw.get("n0", 1.0)
            if not _is_number(n0):
                raise ConfigError(f"n0: expected a number, got {n0!r}")
            return Priors(
                m0=_as_matrix(raw.get("m0", 0.0), self.d, self.p, "m0"),
                P0=_as_matrix(raw.get("P0", 1.0), self.d, self.d, "P0"),
                S0=_as_matrix(raw.get("S0", 1.0), self.p, self.p, "S0"),
                n0=_finite(float(n0), "n0"),
            )
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"{self.path}: bad priors ({exc})") from exc

    def grid_candidates(self):
        if not self.grid:
            raise ConfigError(f"{self.path}: no 'grid' section")
        if not self.deltas or not self.betas:
            raise ConfigError(
                f"{self.path}: grid needs non-empty 'deltas' and 'betas'"
            )
        return self.deltas, self.betas


def _grid_values(grid, p, path):
    """The grid's deltas (floats) and betas (length-p arrays), empty where
    absent; every entry in (0, 1], as :class:`ModelSpec` requires of the
    model's discounts, and no delta or beta row given twice."""
    betas = grid.get("betas")
    if betas is not None and type(betas) is not list:
        raise ConfigError(f"{path}: grid.betas must be a list of beta vectors, got {betas!r}")
    deltas = [float(x) for x in _numbers(grid.get("deltas"), "grid.deltas") or []]
    betas = [_as_vector(b, p, "grid beta") for b in betas or []]
    try:
        check_discounts(deltas, "grid.deltas: delta")
        for row, beta in enumerate(betas, start=1):
            check_discounts(beta, f"grid.betas row {row}: beta")
    except DiscountOutOfRange as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for name, keys in (("grid.deltas", deltas), ("grid.betas", [b.tolist() for b in betas])):
        repeated = [key for i, key in enumerate(keys) if key in keys[:i]]
        if repeated:
            raise ConfigError(f"{path}: {name} repeats {repeated[0]}")
    return deltas, betas


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
