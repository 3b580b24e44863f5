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

from mvdlm import data, run
from mvdlm.cli import _read_trajectory_csv, main
from mvdlm.data import (
    ingest_returns, read_columns, read_end_rows, synthetic_dates, write_csv,
    write_observations_csv,
)
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
        + [f"sigma_post_{i + 1}_{j + 1}" for i, j in pairs]
    )
    rows, cols = np.array(pairs).T
    post = trajectory.posterior_means[1:, rows, cols]
    expected = csv_writer_bytes(tmp_path, header, [
        [t + 1, *trajectory.f[t], *trajectory.e[t], *trajectory.u[t],
         trajectory.Q[t], *post[t]]
        for t in range(len(trajectory))
    ])
    out = tmp_path / "trajectory.csv"
    trajectory_to_csv(trajectory, out)
    assert b"nan" in expected
    assert out.read_bytes() == expected


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
    values = lbf_from_trajectories(*trajectories)
    expected = csv_writer_bytes(tmp_path, ["t", "lbf"], list(enumerate(values, start=1)))
    assert out.read_bytes() == expected


def test_grid_csv_bytes_with_numpy_scalars(tmp_path):
    rows = (
        GridRow(0.9, (np.float64(0.95), np.float64(0.9)), np.array([1.01, 0.98]),
                np.array([1e-5, -2.5e-17]), np.float64(-123.456), (np.float64(0.0312), np.nan)),
        GridRow(0.8, (0.85, 0.85), np.array([1.2, np.inf]), np.array([0.1, 3.0]),
                -130.0, (0.05, 0.07)),
    )
    header = ["delta", "beta_1", "beta_2", "msse_1", "msse_2", "me_1", "me_2",
              "loglik", "var95", "var99"]
    expected = csv_writer_bytes(tmp_path, header, [
        [row.delta, *row.beta, *row.msse.tolist(), *row.me.tolist(), row.loglik, *row.var]
        for row in rows
    ])
    out = tmp_path / "grid.csv"
    GridSearchResult(rows=rows, excluded=(), alphas=(95.0, 99.0)).to_csv(out)
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


def sigma_post_names(p):
    return [f"sigma_post_{i + 1}_{j + 1}" for i, j in vech_indices(p)]


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("beta, n0, undefined", [(0.9, 1.0, 0), (1.0, 1.0, 2), (1.0, 12.0, 0)],
                         ids=["evolving", "constant-n0=1", "constant-n0=12"])
def test_forecast_means_rebuilt_from_written_cells(tmp_path, p, beta, n0, undefined):
    """E[Sigma_t | D_{t-1}] = (beta^{1/2} 1 1' beta^{1/2}) o Sigma_post,t-1
    (n_{t-1} - 2) / (k_t - 2) with k_t = mean(beta) n_{t-1}: the forecast
    means the trajectory CSV does not hold follow from the cells it holds,
    the prior mean Sigma_0 and n. At beta = 1 with n0 = 1 the first two
    steps have k_t <= 2, where both sides are NaN."""
    betas = np.linspace(beta, 1.0, p) if beta < 1.0 else np.ones(p)
    spec, priors = local_level(p, 0.9, betas, s0_scale=0.5, n0=n0)
    traj = run(spec, priors, np.random.default_rng(8).normal(0.0, 0.1, (30, p)))
    out = tmp_path / "trajectory.csv"
    trajectory_to_csv(traj, out)
    rows, cols = np.array(vech_indices(p)).T
    n = traj.n[:-1]
    prior_mean = priors.S0[rows, cols] / (n[0] - 2.0) if n[0] > 2.0 else np.nan
    post = np.vstack([np.broadcast_to(prior_mean, (1, len(rows))),
                      read_columns(out, sigma_post_names(p))[:-1]])  # Sigma_0..Sigma_{N-1}
    k = np.mean(betas) * n
    ratio = np.divide(n - 2.0, k - 2.0, out=np.full(len(n), np.nan), where=k > 2.0)
    rebuilt = np.sqrt(betas[rows] * betas[cols]) * post * ratio[:, None]
    expected = traj.forecast_means[:, rows, cols]
    assert np.array_equal(np.isnan(rebuilt), np.isnan(expected))
    assert np.isnan(expected).all(axis=1).sum() == np.sum(k <= 2.0) == undefined
    np.testing.assert_allclose(rebuilt, expected, rtol=1e-12, atol=0.0)


def test_diagnose_reads_old_and_new_trajectories_alike(tmp_path, capsys):
    """A trajectory written with the former trailing sigma_fore_i_j block
    diagnoses to the same report, byte for byte, as the current file."""
    spec, priors = local_level(2, 0.9, [0.9, 0.95], n0=1.0)
    traj = run(spec, priors, np.random.default_rng(9).normal(0.0, 0.01, (40, 2)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "p": 2, "d": 1, "design": [1.0], "state_discounts": 0.9,
        "vol_discounts": [0.9, 0.95], "data_kind": "returns",
        "priors": {"m0": 0.0, "P0": 0.01, "S0": 1.0, "n0": 1.0},
    }))
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    trajectory_to_csv(traj, new)
    with open(new) as handle:
        header = handle.readline().rstrip("\r\n").split(",")
    rows, cols = np.array(vech_indices(2)).T
    write_csv(old, [header + [name.replace("post", "fore") for name in sigma_post_names(2)]],
              range(1, len(traj) + 1),
              np.column_stack([read_columns(new, header[1:]), traj.forecast_means[:, rows, cols]]))
    reports = []
    for path in (new, old):
        out = tmp_path / f"{path.stem}.json"
        assert main(["diagnose", "--config", str(config), "--traj", str(path),
                     "--out", str(out)]) == 0
        reports.append((out.read_bytes(), capsys.readouterr().out.rsplit("wrote", 1)[0]))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("p", [1, 2, 16])
def test_end_rows_of_a_trajectory_take_the_fast_path(tmp_path, monkeypatch, p):
    """The window of eight header lengths at the end of a trajectory holds
    its whole last line at small and large p, so diagnose never rescans."""
    spec, priors = local_level(p, 0.9, np.full(p, 0.95), n0=1.0)
    traj = run(spec, priors, np.random.default_rng(10).normal(0.0, 0.01, (30, p)))
    out = tmp_path / "trajectory.csv"
    trajectory_to_csv(traj, out)

    def refuse(*args):
        raise AssertionError("read_end_rows fell back to read_columns")

    monkeypatch.setattr(data, "read_columns", refuse)
    rows, cols = np.array(vech_indices(p)).T
    ends = read_end_rows(out, sigma_post_names(p))
    assert np.array_equal(ends, traj.posterior_means[[1, -1]][:, rows, cols], equal_nan=True)
