import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mvdlm import run
from mvdlm.cli import main
from mvdlm.config import load_config
from mvdlm.data import ingest_returns, write_observations_csv
from mvdlm.errors import ConfigError
from mvdlm.simulate import simulate


BASE_CONFIG = {
    "p": 2,
    "d": 1,
    "design": [1.0],
    "evolution": "identity",
    "state_discounts": 0.9,
    "vol_discounts": [0.9, 0.9],
    "priors": {"m0": 0.0, "P0": 0.1, "S0": 1.0, "n0": 1.0},
    "data_kind": "returns",
    "weights": [0.5, 0.5],
    "seed": 11,
    "horizon": 60,
    "grid": {"deltas": [0.8, 0.9], "betas": [[0.85, 0.85], [0.9, 0.9]]},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    raw = dict(BASE_CONFIG)
    if overrides:
        raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def write_returns(tmp_path, n=60, p=2, seed=11, name="returns.csv"):
    config = load_config(write_config(tmp_path, name="gen.json"))
    path = simulate(config.spec(), config.priors(), n, seed=seed)
    out = tmp_path / name
    write_observations_csv(out, path.observations)
    return out, path


class TestConfig:
    def test_spec_and_priors(self, tmp_path):
        config = load_config(write_config(tmp_path))
        spec = config.spec()
        assert spec.p == 2 and spec.d == 1
        assert_allclose(spec.state_discounts, [0.9])
        priors = config.priors()
        assert_allclose(priors.P0, [[0.1]])
        assert_allclose(priors.S0, np.eye(2))

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": 2}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_constant_branch_requires_unit_discounts(self, tmp_path):
        path = write_config(
            tmp_path, {"branch": "constant", "vol_discounts": [0.9, 0.9]}
        )
        with pytest.raises(ConfigError):
            load_config(path).spec()

    def test_constant_branch_defaults_to_ones(self, tmp_path):
        raw = dict(BASE_CONFIG)
        raw.pop("vol_discounts")
        raw["branch"] = "constant"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        spec = load_config(path).spec()
        assert spec.constant_volatility

    def test_matrix_shapes_checked(self, tmp_path):
        path = write_config(tmp_path, {"priors": {"S0": [1.0, 2.0, 3.0]}})
        with pytest.raises(ConfigError):
            load_config(path).priors()

    def test_row_major_flat_matrix(self, tmp_path):
        path = write_config(
            tmp_path, {"priors": {"S0": [2.0, 0.5, 0.5, 1.0]}}
        )
        priors = load_config(path).priors()
        assert_allclose(priors.S0, [[2.0, 0.5], [0.5, 1.0]])


class TestCliPipeline:
    def test_simulate_fit_diagnose_round_trip(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        obs_path = tmp_path / "obs.csv"
        assert main(
            ["simulate", "--config", str(config_path), "--out", str(obs_path)]
        ) == 0
        out_dir = tmp_path / "fit"
        assert main(
            [
                "fit", "--config", str(config_path),
                "--data", str(obs_path), "--out", str(out_dir),
            ]
        ) == 0
        assert (out_dir / "trajectory.csv").exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert len(report["msse"]) == 2
        assert report["n_obs"] == 60
        assert np.isfinite(report["loglik"])
        assert (out_dir / "volatility_series.csv").exists()

        # the stored trajectory reproduces the in-memory pipeline
        config = load_config(config_path)
        table = ingest_returns(obs_path)
        traj = run(config.spec(), config.priors(), table.returns)
        in_memory = simulate(config.spec(), config.priors(), 60, seed=11)
        assert np.array_equal(table.returns, in_memory.observations)
        lines = (out_dir / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        last = np.array([float(x) for x in lines[-1].split(",")])
        assert last[0] == 60
        assert_allclose(
            last[header.index("u_1")], traj.steps[-1].u[0], rtol=1e-12
        )
        assert_allclose(
            last[header.index("Q")], traj.steps[-1].Q, rtol=1e-12
        )

        # diagnose on the stored trajectory matches the fit report
        report_path = tmp_path / "rediag.json"
        assert main(
            [
                "diagnose", "--config", str(config_path),
                "--traj", str(out_dir / "trajectory.csv"),
                "--out", str(report_path),
            ]
        ) == 0
        rediag = json.loads(report_path.read_text())
        assert_allclose(rediag["msse"], report["msse"], rtol=1e-9)
        assert_allclose(rediag["loglik"], report["loglik"], rtol=1e-6)

    def test_grid_command(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        obs_path, _ = write_returns(tmp_path)
        out = tmp_path / "grid.csv"
        assert main(
            [
                "grid", "--config", str(config_path),
                "--data", str(obs_path), "--out", str(out),
            ]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("delta,beta_1,beta_2,msse_1")
        assert len(lines) == 1 + 4  # 2 deltas x 2 betas

    def test_var_command(self, tmp_path):
        config_path = write_config(tmp_path)
        obs_path, _ = write_returns(tmp_path)
        out = tmp_path / "var.json"
        assert main(
            [
                "var", "--config", str(config_path),
                "--data", str(obs_path), "--out", str(out),
            ]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["family"] == "t"
        assert payload["var"]["95"] < payload["var"]["99"]

    def test_compare_command_antisymmetric(self, tmp_path):
        config1 = write_config(tmp_path, name="m1.json")
        config2 = write_config(
            tmp_path, {"vol_discounts": [0.99, 0.99]}, name="m2.json"
        )
        obs_path, _ = write_returns(tmp_path)
        fwd = tmp_path / "fwd.csv"
        rev = tmp_path / "rev.csv"
        assert main(
            [
                "compare", "--config", str(config1), "--config2", str(config2),
                "--data", str(obs_path), "--out", str(fwd),
            ]
        ) == 0
        assert main(
            [
                "compare", "--config", str(config2), "--config2", str(config1),
                "--data", str(obs_path), "--out", str(rev),
            ]
        ) == 0
        fwd_vals = np.loadtxt(fwd, delimiter=",", skiprows=1)[:, 1]
        rev_vals = np.loadtxt(rev, delimiter=",", skiprows=1)[:, 1]
        assert_allclose(fwd_vals, -rev_vals, atol=0)

    def test_fit_and_diagnose_agree_on_small_returns(self, tmp_path):
        # returns of scale 1e-4 against S0 = I: both commands score the
        # path through the same rank-one closed form
        config_path = write_config(
            tmp_path, {"p": 4, "d": 2, "design": [1.0, 0.0],
                       "vol_discounts": [0.66, 0.9, 0.9, 0.66],
                       "weights": [0.25] * 4, "grid": None}
        )
        obs = 1e-4 * np.random.default_rng(8020214).standard_normal((120, 4))
        obs_path = tmp_path / "small.csv"
        write_observations_csv(obs_path, obs)
        out_dir = tmp_path / "fit"
        assert main(
            ["fit", "--config", str(config_path), "--data", str(obs_path),
             "--out", str(out_dir)]
        ) == 0
        assert main(
            ["diagnose", "--config", str(config_path),
             "--traj", str(out_dir / "trajectory.csv"),
             "--out", str(tmp_path / "diag.json")]
        ) == 0
        fit = json.loads((out_dir / "report.json").read_text())
        diag = json.loads((tmp_path / "diag.json").read_text())
        assert_allclose(diag["loglik"], fit["loglik"], rtol=1e-12)
        assert_allclose(diag["msse"], fit["msse"], rtol=1e-12)

    def test_fit_with_price_data(self, tmp_path):
        config_path = write_config(tmp_path, {"data_kind": "prices"})
        rng = np.random.default_rng(5)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, (61, 2)), axis=0))
        price_path = tmp_path / "prices.csv"
        from mvdlm.data import synthetic_dates

        lines = ["date,series_1,series_2"]
        for date, row in zip(synthetic_dates(61), prices):
            lines.append(date.isoformat() + "," + ",".join(repr(float(v)) for v in row))
        price_path.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "fit"
        assert main(
            [
                "fit", "--config", str(config_path),
                "--data", str(price_path), "--out", str(out_dir),
            ]
        ) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["n_obs"] == 60  # 61 prices -> 60 returns


class TestExitCodes:
    def test_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        obs_path = tmp_path / "obs.csv"
        obs_path.write_text("date,x\n2005-01-04,0.1\n")
        code = main(
            ["fit", "--config", str(bad), "--data", str(obs_path), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_data_error(self, tmp_path):
        config_path = write_config(tmp_path, {"data_kind": "prices"})
        bad_data = tmp_path / "bad.csv"
        bad_data.write_text("date,a,b\n2005-01-04,1,-5\n2005-01-05,1,2\n")
        code = main(
            [
                "fit", "--config", str(config_path),
                "--data", str(bad_data), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 3

    def test_state_covariance_overflow_exits_model_error(self, tmp_path, capsys):
        config_path = write_config(
            tmp_path, {"d": 2, "design": [1.0, 0.0], "state_discounts": 0.08,
                       "priors": {"m0": 0.0, "P0": [1000.0, 1.0, 1.0, 1000.0],
                                  "S0": 1.0, "n0": 1.0}}
        )
        obs_path, _ = write_returns(tmp_path, n=300)
        code = main(
            ["fit", "--config", str(config_path), "--data", str(obs_path),
             "--out", str(tmp_path / "o")]
        )
        assert code == 4
        assert "state covariance overflowed at step" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("S0", float("nan")), ("P0", float("inf"))])
    def test_non_finite_config_value(self, tmp_path, capsys, key, value):
        # JSON admits NaN and Infinity
        config_path = write_config(tmp_path, {"priors": {**BASE_CONFIG["priors"], key: value}})
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 2
        assert f"{key}: values must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_model_error(self, tmp_path):
        # S0 not positive definite surfaces as a model error
        config_path = write_config(
            tmp_path, {"priors": {"S0": [1.0, 2.0, 2.0, 1.0]}}
        )
        obs_path, _ = write_returns(tmp_path)
        code = main(
            [
                "fit", "--config", str(config_path),
                "--data", str(obs_path), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 4


REFERENCE = {"d": 2, "design": [1.0, 0.0], "state_discounts": 0.08,
             "priors": {"m0": 0.0, "P0": 1000.0, "S0": 1.0, "n0": 1.0}}


class TestReferenceConfiguration:
    """The paper's setup: the second state component is never observed and
    delta = 0.08 inflates it from P0 = 1000 I until it overflows."""

    def test_fit_equals_level_model(self, tmp_path):
        obs_path, _ = write_returns(tmp_path, n=333)
        outputs = []
        for name, overrides in (
            ("full", REFERENCE),
            ("level", {**REFERENCE, "d": 1, "design": [1.0]}),
        ):
            config_path = write_config(tmp_path, overrides, name=f"{name}.json")
            assert main(["fit", "--config", str(config_path), "--data", str(obs_path),
                         "--out", str(tmp_path / name)]) == 0
            outputs.append([(tmp_path / name / file).read_bytes() for file in (
                "trajectory.csv", "report.json", "volatility_series.csv")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("horizon,code", [(333, 4), (100, 0)])
    def test_simulate(self, tmp_path, capsys, horizon, code):
        config_path = write_config(tmp_path, {**REFERENCE, "horizon": horizon})
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == code
        if code:
            assert "overflowed at step 279 in state component 2" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert len(out.read_text().splitlines()) == horizon + 1


class TestMalformedTrajectory:
    """diagnose reports a damaged trajectory file as a data error (exit 3)
    naming the missing column or the bad line."""

    @pytest.fixture
    def fitted(self, tmp_path):
        config_path = write_config(tmp_path)
        obs_path, _ = write_returns(tmp_path, n=20)
        assert main(["fit", "--config", str(config_path), "--data", str(obs_path),
                     "--out", str(tmp_path / "fit")]) == 0
        lines = (tmp_path / "fit" / "trajectory.csv").read_text().splitlines()
        return config_path, lines

    def diagnose(self, tmp_path, config_path, lines, capsys):
        traj = tmp_path / "damaged.csv"
        traj.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["diagnose", "--config", str(config_path), "--traj", str(traj),
                     "--out", str(tmp_path / "diag.json")])
        return code, capsys.readouterr().err

    def test_duplicated_header(self, tmp_path, fitted, capsys):
        config_path, lines = fitted
        code, err = self.diagnose(tmp_path, config_path, lines[:5] + lines, capsys)
        assert code == 3
        assert "bad number 'e_1' (line 6, column 4)" in err

    def test_truncated_row(self, tmp_path, fitted, capsys):
        config_path, lines = fitted
        width = len(lines[0].split(","))
        lines[-1] = lines[-1][: lines[-1].rindex(",")]
        code, err = self.diagnose(tmp_path, config_path, lines, capsys)
        assert code == 3
        assert f"expected {width} cells, found {width - 1} (line {len(lines)})" in err

    def test_trailing_cells(self, tmp_path, fitted, capsys):
        config_path, lines = fitted
        width = len(lines[0].split(","))
        lines[5] += ",1.0,2.0"
        code, err = self.diagnose(tmp_path, config_path, lines, capsys)
        assert code == 3
        assert f"expected {width} cells, found {width + 2} (line 6)" in err

    def test_missing_column(self, tmp_path, fitted, capsys):
        config_path, lines = fitted
        col = lines[0].split(",").index("u_1")
        lines = [",".join(c for i, c in enumerate(line.split(",")) if i != col) for line in lines]
        code, err = self.diagnose(tmp_path, config_path, lines, capsys)
        assert code == 3
        assert "column 'u_1' not in header (line 1)" in err
