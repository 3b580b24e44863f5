"""Byte format of every CSV the package writes, and the diagnose reader.

Each expected file is built here with ``csv.writer`` from the same numbers,
so the streamed writers must keep its bytes exactly: CRLF line ends,
shortest round-trip floats, ``nan`` for undefined moments and quoting of
header names that need it.
"""

import csv
import json

import numpy as np
import pytest

from mvdlm import run
from mvdlm.cli import _read_trajectory_csv, _write_volatility_series, main
from mvdlm.data import ingest_returns, synthetic_dates, write_observations_csv
from mvdlm.diagnostics import GridRow, GridSearchResult, lbf_from_trajectories
from mvdlm.filter import trajectory_to_csv
from mvdlm.linalg import vech_indices

from conftest import local_level


def csv_writer_bytes(tmp_path, header, rows):
    path = tmp_path / "expected.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def constant_trajectory(p, n=25, seed=3):
    """beta = 1 with n0 = 1: the first forecast laws have dof <= 2, so the
    leading u rows and several moments are NaN."""
    spec, priors = local_level(p, 0.9, np.ones(p), n0=1.0)
    obs = np.random.default_rng(seed).normal(0.0, 0.01, (n, p))
    traj = run(spec, priors, obs)
    assert np.isnan(traj.u[0]).all() and not np.isnan(traj.u[-1]).any()
    return traj


@pytest.fixture(params=[1, 2])
def trajectory(request):
    return constant_trajectory(request.param)


def test_trajectory_csv_bytes(tmp_path, trajectory):
    p = trajectory.p
    pairs = vech_indices(p)
    header = (
        ["t"] + [f"{c}_{i + 1}" for c in "feu" for i in range(p)] + ["Q"]
        + [f"sigma_{w}_{i + 1}_{j + 1}" for w in ("post", "fore") for i, j in pairs]
    )
    rows, cols = np.array(pairs).T
    post = trajectory.posterior_means[1:, rows, cols]
    fore = trajectory.forecast_means[:, rows, cols]
    expected = csv_writer_bytes(tmp_path, header, [
        [t + 1, *trajectory.f[t], *trajectory.e[t], *trajectory.u[t],
         trajectory.Q[t], *post[t], *fore[t]]
        for t in range(len(trajectory))
    ])
    out = tmp_path / "trajectory.csv"
    trajectory_to_csv(trajectory, out)
    assert b"nan" in expected
    assert out.read_bytes() == expected


def test_volatility_series_bytes(tmp_path, trajectory):
    p = trajectory.p
    header = ["t"] + [f"fore_var_{i + 1}" for i in range(p)]
    header += [f"fore_corr_{i + 1}_{j + 1}" for i in range(p) for j in range(i + 1, p)]
    rows = []
    for t, sigma in enumerate(trajectory.forecast_means, start=1):
        denom = {(i, j): sigma[i, i] * sigma[j, j] for i in range(p) for j in range(i + 1, p)}
        corr = [sigma[ij] / np.sqrt(d) if d > 0 else np.nan for ij, d in denom.items()]
        rows.append([t, *np.diag(sigma).tolist(), *corr])
    out = tmp_path / "volatility_series.csv"
    _write_volatility_series(trajectory, out)
    assert out.read_bytes() == csv_writer_bytes(tmp_path, header, rows)


def test_lbf_file_bytes(tmp_path):
    _, priors = local_level(2, 0.9, [0.9, 0.9])
    obs = np.random.default_rng(4).normal(0.0, 0.01, (40, 2))
    data = tmp_path / "obs.csv"
    write_observations_csv(data, obs)
    configs = []
    for name, beta in (("smooth", 0.95), ("rough", 0.85)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "p": 2, "d": 1, "design": [1.0], "state_discounts": 0.9,
            "vol_discounts": [beta, beta], "data_kind": "returns",
            "priors": {"m0": 0.0, "P0": 0.01, "S0": 1.0, "n0": 1.0},
        }))
        configs.append(path)
    out = tmp_path / "lbf.csv"
    assert main(["compare", "--config", str(configs[0]), "--config2", str(configs[1]),
                 "--data", str(data), "--out", str(out)]) == 0
    trajectories = [
        run(local_level(2, 0.9, [beta, beta])[0], priors, obs) for beta in (0.95, 0.85)
    ]
    values = lbf_from_trajectories(*trajectories).values
    expected = csv_writer_bytes(tmp_path, ["t", "lbf"], list(enumerate(values, start=1)))
    assert out.read_bytes() == expected


def test_grid_csv_bytes_with_numpy_scalars(tmp_path):
    rows = (
        GridRow(0.9, (np.float64(0.95), np.float64(0.9)), np.array([1.01, 0.98]),
                np.array([1e-5, -2.5e-17]), np.float64(-123.456), np.float64(0.0312), None),
        GridRow(0.8, (0.85, 0.85), np.array([1.2, np.inf]), np.array([0.1, 3.0]),
                -130.0, 0.05, 0.07),
    )
    header = ["delta", "beta_1", "beta_2", "msse_1", "msse_2", "me_1", "me_2",
              "loglik", "var95", "var99"]
    expected = csv_writer_bytes(tmp_path, header, [
        [row.delta, *row.beta, *row.msse.tolist(), *row.me.tolist(), row.loglik,
         *(float("nan") if v is None else v for v in (row.var95, row.var99))]
        for row in rows
    ])
    out = tmp_path / "grid.csv"
    GridSearchResult(rows=rows, excluded=()).to_csv(out)
    assert b"np.float64" not in out.read_bytes()
    assert out.read_bytes() == expected


def test_observations_bytes_with_quoted_name(tmp_path):
    values = np.random.default_rng(5).normal(0.0, 0.02, (12, 2))
    values[3, 1] = 1e22
    dates = synthetic_dates(12)
    names = ["alum", 'copper, "grade A"']
    expected = csv_writer_bytes(tmp_path, ["date", *names], [
        [date.isoformat(), *(repr(float(v)) for v in row)] for date, row in zip(dates, values)
    ])
    out = tmp_path / "obs.csv"
    write_observations_csv(out, values, dates=dates, names=names)
    assert out.read_bytes() == expected
    table = ingest_returns(out)
    assert table.names == tuple(names)
    assert np.array_equal(table.returns, values)


def test_trajectory_round_trip_is_bitwise(tmp_path, trajectory):
    out = tmp_path / "trajectory.csv"
    trajectory_to_csv(trajectory, out)
    e, u, q, sigma_ends = _read_trajectory_csv(out)
    assert np.array_equal(e, trajectory.e)
    assert np.array_equal(u, trajectory.u, equal_nan=True)
    assert np.array_equal(q, trajectory.Q)
    rows, cols = np.array(vech_indices(trajectory.p)).T  # diagnose reads Sigma_1 and Sigma_N
    ends = trajectory.posterior_means[[1, -1]][:, rows, cols]
    assert np.array_equal(sigma_ends, ends, equal_nan=True)
