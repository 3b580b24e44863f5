import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mvdlm import data, run
from mvdlm import filter as filter_module
from mvdlm.filter import linear_transform, mle_constant
from mvdlm.cli import main
from mvdlm.config import load_config
from mvdlm.data import ingest_returns, write_observations_csv
from mvdlm.diagnostics import lbf_from_trajectories, var_at_horizon
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

    def test_unit_vol_discounts_give_constant_volatility(self, tmp_path):
        # the discounts alone pick the branch: a scalar 1 is beta = I
        config = load_config(write_config(tmp_path, {"vol_discounts": 1.0}))
        spec = config.spec()
        assert spec.constant_volatility
        assert np.array_equal(spec.vol_discounts, np.ones(2))
        traj = run(spec, config.priors(), np.zeros((5, 2)))
        assert np.array_equal(traj.n, 1.0 + np.arange(6))  # n grows from n0 by one per step

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
        assert sorted(path.name for path in out_dir.iterdir()) == ["report.json", "trajectory.csv"]

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
            last[header.index("u_1")], traj.u[-1, 0], rtol=1e-12
        )
        assert_allclose(
            last[header.index("Q")], traj.Q[-1], rtol=1e-12
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

    def test_diagnose_reproduces_constant_branch_loglik(self, tmp_path):
        # with n0 = 1 the first posterior means are undefined (NaN in the
        # trajectory); the constant-volatility likelihood reads Sigma_N only
        config_path = write_config(tmp_path, {"vol_discounts": 1.0})
        obs_path, _ = write_returns(tmp_path)
        out_dir = tmp_path / "fit"
        assert main(["fit", "--config", str(config_path), "--data", str(obs_path),
                     "--out", str(out_dir)]) == 0
        assert main(["diagnose", "--config", str(config_path),
                     "--traj", str(out_dir / "trajectory.csv"),
                     "--out", str(tmp_path / "diag.json")]) == 0
        fit = json.loads((out_dir / "report.json").read_text())
        diag = json.loads((tmp_path / "diag.json").read_text())
        assert fit["loglik"] is not None and diag["loglik"] == fit["loglik"]

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

    @pytest.mark.parametrize("command", ["fit", "grid", "var", "compare", "diagnose"])
    def test_missing_input_file_is_a_data_error(self, tmp_path, capsys, command):
        config_path = str(write_config(tmp_path))
        missing = str(tmp_path / "missing.csv")
        source = ["--traj" if command == "diagnose" else "--data", missing]
        if command == "compare":
            source += ["--config2", config_path]
        out = tmp_path / "out"
        assert main([command, "--config", config_path, *source, "--out", str(out)]) == 3
        assert f"data error: cannot read {missing}: [Errno 2]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "grid", "var", "compare", "diagnose", "simulate"])
    def test_unwritable_out_is_a_data_error(self, tmp_path, capsys, command):
        # an --out below a regular file can be neither created nor written
        config_path = str(write_config(tmp_path))
        obs_path, _ = write_returns(tmp_path)
        assert main(["fit", "--config", config_path, "--data", str(obs_path),
                     "--out", str(tmp_path / "fit")]) == 0
        source = {"simulate": [], "diagnose": ["--traj", str(tmp_path / "fit/trajectory.csv")],
                  "compare": ["--data", str(obs_path), "--config2", config_path]}
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        capsys.readouterr()
        argv = [command, "--config", config_path,
                *source.get(command, ["--data", str(obs_path)]), "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(f"data error: cannot write {out}: [Errno ")

    @pytest.mark.parametrize("command, flag", [("simulate", "--seed"), ("grid", "--top")])
    def test_negative_count_flag_is_a_config_error(self, tmp_path, capsys, command, flag):
        # the rule of the config's seed: a whole number >= 0
        args = [command, "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out")]
        if command == "grid":
            args += ["--data", str(write_returns(tmp_path)[0])]
        assert main([*args, flag, "-70"]) == 2
        assert f"config error: {flag}: expected a whole number >= 0, got -70" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_compare_refuses_models_of_different_p(self, tmp_path, capsys):
        # the second config reads two of the data's four columns by name
        config1 = write_config(tmp_path, {"p": 4, "vol_discounts": 0.9, "weights": None,
                                          "grid": None}, name="p4.json")
        config2 = write_config(tmp_path, {"names": ["series_1", "series_2"]}, name="p2.json")
        obs_path = tmp_path / "obs.csv"
        write_observations_csv(obs_path, np.random.default_rng(2).standard_normal((60, 4)))
        out = tmp_path / "lbf.csv"
        assert main(["compare", "--config", str(config1), "--config2", str(config2),
                     "--data", str(obs_path), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "model error: standardized error series differ in shape: (60, 4) vs (60, 2)\n")
        assert not out.exists()

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

    def test_var_of_a_singular_final_scale_exits_model_error(self, tmp_path, capsys):
        # series 3 and 4 repeat series 1 and 2: the data give the scale rank 2
        # and the prior's share decays as 0.9^333, so the final scale is
        # singular to working precision and VaR must not be read off it (var
        # reads no u, so no whitening trips)
        config_path = write_config(tmp_path, {
            "p": 4, "vol_discounts": [0.9] * 4, "weights": [0.25] * 4, "grid": None,
        })
        y = write_returns(tmp_path, n=333)[1].observations
        sim, out = tmp_path / "sim.csv", tmp_path / "var.json"
        write_observations_csv(sim, np.hstack([y, y]))
        assert main(["var", "--config", str(config_path), "--data", str(sim),
                     "--out", str(out)]) == 4
        assert "final volatility scale is not positive definite" in capsys.readouterr().err
        assert not out.exists()


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
                "trajectory.csv", "report.json")])
        assert outputs[0] == outputs[1]

    def test_unobserved_mean_overflow_equals_level_model(self, tmp_path):
        # G_UU = 2 doubles the unobserved mean past the float range near
        # step 1024; it never meets the data, so no forecast reads it, and
        # the VaR's m'F reads F's support alone
        obs_path, _ = write_returns(tmp_path, n=1100)
        priors = {**BASE_CONFIG["priors"], "m0": 1.0, "P0": 1.0}
        outputs = []
        for name, overrides in (
            ("full", {"d": 2, "design": [1.0, 0.0], "evolution": [1.0, 0.0, 0.0, 2.0],
                      "priors": {**priors, "m0": [1.0] * 4, "P0": [1.0, 0.0, 0.0, 1.0]}}),
            ("level", {"priors": priors}),
        ):
            config_path = write_config(tmp_path, overrides, name=f"{name}.json")
            common = ["--config", str(config_path), "--data", str(obs_path), "--out"]
            assert main(["fit", *common, str(tmp_path / name)]) == 0
            assert main(["var", *common, str(tmp_path / name / "var.json")]) == 0
            outputs.append([(tmp_path / name / file).read_bytes() for file in (
                "trajectory.csv", "report.json", "var.json")])
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

    @pytest.mark.parametrize("column, cell, message", [
        ("Q", "0", "non-positive value '0'"),
        ("Q", "-1", "non-positive value '-1'"),
        ("Q", "inf", "non-finite value 'inf'"),
        ("Q", "nan", "non-finite value 'nan'"),
        ("e_2", "nan", "non-finite value 'nan'"),
        ("e_2", "inf", "non-finite value 'inf'"),
    ])
    def test_unusable_e_or_q_cell(self, tmp_path, fitted, capsys, column, cell, message):
        # u may be NaN (undefined where dof <= 2); e must be finite and Q above 0
        config_path, lines = fitted
        col = lines[0].split(",").index(column)
        cells = lines[10].split(",")
        cells[col] = cell
        lines[10] = ",".join(cells)
        code, err = self.diagnose(tmp_path, config_path, lines, capsys)
        assert code == 3
        assert f"{message} (line 11, column {col + 1})" in err

    def test_dimension_mismatch_is_config_error(self, tmp_path, fitted, capsys):
        _, lines = fitted  # a p = 2 trajectory
        config_path = write_config(tmp_path, {"p": 3, "vol_discounts": [0.9] * 3,
                                              "weights": [0.5, 0.25, 0.25], "grid": None},
                                   "p3.json")
        code, err = self.diagnose(tmp_path, config_path, lines, capsys)
        assert code == 2
        assert "trajectory has 2 series but the config declares p = 3" in err

    def test_missing_column(self, tmp_path, fitted, capsys):
        config_path, lines = fitted
        col = lines[0].split(",").index("u_1")
        lines = [",".join(c for i, c in enumerate(line.split(",")) if i != col) for line in lines]
        code, err = self.diagnose(tmp_path, config_path, lines, capsys)
        assert code == 3
        assert "column 'u_1' not in header (line 1)" in err

    def test_bad_sigma_post_cell_on_last_line(self, tmp_path, fitted, capsys):
        # diagnose reads the sigma_post cells of the last line only
        config_path, lines = fitted
        col = lines[0].split(",").index("sigma_post_2_1")
        cells = lines[-1].split(",")
        cells[col] = "x"
        lines[-1] = ",".join(cells)
        code, err = self.diagnose(tmp_path, config_path, lines, capsys)
        assert code == 3
        assert f"bad number 'x' (line {len(lines)}, column {col + 1})" in err

    def test_missing_sigma_post_column(self, tmp_path, fitted, capsys):
        config_path, lines = fitted
        col = lines[0].split(",").index("sigma_post_2_2")
        lines = [",".join(c for i, c in enumerate(line.split(",")) if i != col) for line in lines]
        code, err = self.diagnose(tmp_path, config_path, lines, capsys)
        assert code == 3
        assert "column 'sigma_post_2_2' not in header (line 1)" in err


@pytest.mark.parametrize("command, overrides, key", [
    ("simulate", {"horizon": float("inf")}, "horizon"),
    ("simulate", {"horizon": 0}, "horizon"),
    ("simulate", {"horizon": -3}, "horizon"),
    ("simulate", {"horizon": 2.5}, "horizon"),
    ("simulate", {"seed": 1.5}, "seed"),
    ("simulate", {"seed": -1}, "seed"),
    ("var", {"weights": [0.5, "half"]}, "weights"),
    ("var", {"var": {"alphas": [95, "99"]}}, "var.alphas"),
    ("grid", {"grid": {"deltas": [0.9, "x"], "betas": [[0.9, 0.9]]}}, "grid.deltas"),
    ("var", {"var": {"family": "student"}}, "var.family"),
    ("grid", {"var": {"family": "Normal"}}, "var.family"),
    ("fit", {"state_discount": 0.08}, "unknown key 'state_discount'"),
    ("fit", {"priors": {"P_0": 1000.0}}, "unknown key 'priors.P_0'"),
    ("fit", {"grid": {"deltas": [0.9], "betas": [[0.9, 0.9]], "top": 3}}, "grid.top"),
    ("var", {"var": {"alpha": [95]}}, "unknown key 'var.alpha'"),
    ("fit", {"names": ["series_1"]}, "names"),
    ("fit", {"names": ["series_1", "series_1"]}, "names"),
    ("fit", {"weights": [0.5, 0.25, 0.25]}, "weights"),
    ("fit", {"branch": "auto"}, "unknown key 'branch'"),
    ("fit", {"vol_discounts": None}, "vol_discounts"),
    ("var", {"weights": [1.0, 1.0]}, "weights must be nonnegative and sum to 1"),
    ("grid", {"weights": [-0.5, 1.5]}, "weights must be nonnegative and sum to 1"),
    ("fit", {"weights": [1.0, 1.0]}, "weights must be nonnegative and sum to 1"),
    ("simulate", {"weights": [-0.5, 1.5]}, "weights must be nonnegative and sum to 1"),
    ("var", {"var": {"alphas": [0, 99]}}, "var.alphas must be percentages in (0, 100)"),
    ("grid", {"var": {"alphas": [95, 150]}}, "var.alphas must be percentages in (0, 100)"),
    ("fit", {"var": {"alphas": [95, 150]}}, "var.alphas must be percentages in (0, 100)"),
])
def test_bad_config_values_exit_2(tmp_path, capsys, command, overrides, key):
    config_path = write_config(tmp_path, overrides)
    args = [command, "--config", str(config_path), "--out", str(tmp_path / "out")]
    if command != "simulate":
        args += ["--data", str(write_returns(tmp_path)[0])]
    assert main(args) == 2
    assert key in capsys.readouterr().err


GRID = BASE_CONFIG["grid"]


@pytest.mark.parametrize("command, overrides, at_load", [
    ("fit", {"p": 2.5}, True),
    ("fit", {"d": 1.5}, True),
    ("fit", {"p": "2"}, True),
    ("fit", {"p": None}, True),
    ("fit", {"p": "x"}, True),
    ("fit", {"design": "x"}, False),
    ("fit", {"design": {"a": 1}}, False),
    ("fit", {"vol_discounts": "x"}, False),
    ("fit", {"state_discounts": ["a"]}, False),
    ("fit", {"evolution": [["a"]]}, False),
    ("grid", {"grid": {**GRID, "betas": [["a", 0.9]]}}, True),
    ("grid", {"grid": {**GRID, "betas": 0.9}}, True),
    ("grid", {"grid": {**GRID, "deltas": [0.9, 1.5]}}, True),
    ("grid", {"grid": {**GRID, "betas": [[0.9, 0.0]]}}, True),
    ("fit", {"grid": {**GRID, "betas": [[0.9, 1.2]]}}, True),
    ("grid", {"grid": {**GRID, "deltas": [0.8, 0.9, 0.8]}}, True),
    ("grid", {"grid": {**GRID, "betas": [[0.9, 0.85], [0.8, 0.8], [0.9, 0.85]]}}, True),
    ("fit", {"vol_discounts": True}, False),
    ("fit", {"vol_discounts": ["0.9", "0.9"]}, False),
    ("fit", {"design": ["1"]}, False),
    ("fit", {"priors": {**BASE_CONFIG["priors"], "n0": "5"}}, False),
    ("fit", {"priors": {**BASE_CONFIG["priors"], "n0": True}}, False),
    ("fit", {"priors": {**BASE_CONFIG["priors"], "S0": [["1", 0], [0, 1]]}}, False),
    ("grid", {"grid": {**GRID, "betas": [["0.9", 0.9]]}}, True),
])
def test_malformed_config_values_exit_2(tmp_path, capsys, command, overrides, at_load):
    """A non-numeric or fractional value, a bool or a numeric string where a
    number belongs (none is read as 1 or parsed), a grid entry outside (0, 1]
    and a repeated grid candidate are configuration errors, never internal
    ones; those ``at_load`` stop the command before it reads ``--data``."""
    config_path = write_config(tmp_path, overrides)
    data_path = tmp_path / "absent.csv" if at_load else write_returns(tmp_path)[0]
    assert main([command, "--config", str(config_path), "--data", str(data_path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "internal error" not in err


@pytest.mark.parametrize("command", ["fit", "grid", "var", "compare"])
def test_var_settings_are_checked_before_the_data_is_read(tmp_path, capsys, command):
    config_path = str(write_config(tmp_path, {"var": {"alphas": [95, 100]}}))
    args = [command, "--config", config_path, "--data", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "out")]
    assert main(args + (["--config2", config_path] if command == "compare" else [])) == 2
    err = capsys.readouterr().err
    assert "var.alphas must be percentages in (0, 100), got [95.0, 100.0]" in err


def _without(key):
    return {name: value for name, value in BASE_CONFIG.items() if name != key}


THREE_SERIES = "date,a,b,c\n2000-01-03,0.1,0.2,0.3\n2000-01-04,0.2,0.1,0.3\n"


@pytest.mark.parametrize("command, raw, data_text, code, key", [
    ("fit", {**BASE_CONFIG, "p": 0}, None, 2, "p: expected a whole number >= 1, got 0"),
    ("fit", {**BASE_CONFIG, "data_kind": "xls"}, None, 2, "unknown data_kind 'xls'"),
    ("fit", _without("design"), None, 2, "missing design vector"),
    ("fit", {**BASE_CONFIG, "evolution": "foo"}, None, 2,
     "evolution must be a matrix or 'identity'"),
    ("fit", {**BASE_CONFIG, "priors": 5}, None, 2, "'priors' must be an object"),
    ("grid", {**BASE_CONFIG, "grid": {"deltas": [0.9]}}, None, 2,
     "grid needs non-empty 'deltas' and 'betas'"),
    ("fit", {**BASE_CONFIG, "design": [1.0, 0.0]}, None, 2, "design: expected 1 entries"),
    ("fit", {**BASE_CONFIG, "priors": {"S0": [[1.0, 0.0, 0.0]]}}, None, 2,
     "S0: expected shape (2, 2), got (1, 3)"),
    ("fit", [BASE_CONFIG], None, 2, "top level must be an object"),
    ("fit", {**BASE_CONFIG, "p": 4, "vol_discounts": 0.9, "weights": [0.25] * 4, "grid": None},
     THREE_SERIES, 2, "data has 3 series but the config declares p = 4"),
    ("simulate", _without("horizon"), None, 2, "simulation needs a 'horizon' key"),
    ("var", _without("weights"), None, 2, "VaR needs a 'weights' key"),
    ("fit", {**BASE_CONFIG, "vol_discounts": [0.6, 0.6]}, None, 4,
     "model error: no standardized errors"),
    ("grid", {**BASE_CONFIG, "grid": {"deltas": [0.9], "betas": [[0.6, 0.6]]}}, None, 4,
     "model error: no feasible candidates"),
    ("fit", BASE_CONFIG, "", 3, "data error: file is empty (line 1)"),
    ("fit", BASE_CONFIG, "date,series_1,series_2\n", 3, "data error: no data rows (line 2)"),
])
def test_typed_exits(tmp_path, capsys, command, raw, data_text, code, key):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    args = [command, "--config", str(config_path), "--out", str(tmp_path / "out")]
    if command != "simulate":
        data_path = write_returns(tmp_path)[0]
        if data_text is not None:
            data_path.write_text(data_text)
        args += ["--data", str(data_path)]
    assert main(args) == code
    assert key in capsys.readouterr().err


class TestSettings:
    """Each setting takes effect, and from one source."""

    def test_var_family_read_from_config(self, tmp_path):
        config_path = write_config(tmp_path, {"var": {"family": "normal"}})
        obs_path, _ = write_returns(tmp_path)
        config = load_config(config_path)
        traj = run(config.spec(), config.priors(), ingest_returns(obs_path).returns)
        normal = var_at_horizon(traj, config.weights, family="normal")
        assert not np.allclose(normal, var_at_horizon(traj, config.weights, family="t"))
        out = tmp_path / "var.json"
        assert main(["var", "--config", str(config_path), "--data", str(obs_path),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["family"] == "normal"
        assert [payload["var"]["95"], payload["var"]["99"]] == normal
        grid = tmp_path / "grid.csv"
        assert main(["grid", "--config", str(config_path), "--data", str(obs_path),
                     "--out", str(grid)]) == 0
        rows = np.loadtxt(grid, delimiter=",", skiprows=1)
        # the cell delta = 0.9, beta = (0.9, 0.9) is the config's own model
        row = rows[(rows[:, 0] == 0.9) & (rows[:, 1] == 0.9) & (rows[:, 2] == 0.9)][0]
        assert_allclose(row[-2:], normal, rtol=1e-12)

    @pytest.mark.parametrize("command, flag", [
        ("var", ["--sqrt", "cholesky"]),
        ("diagnose", ["--sqrt", "cholesky"]),
        ("var", ["--var-family", "normal"]),
        ("grid", ["--var-family", "normal"]),
        ("compare", ["--sqrt", "cholesky"]),
        ("fit", ["--sqrt", "cholesky"]),
        ("grid", ["--sqrt", "spectral"]),
    ])
    def test_retired_flags_rejected(self, tmp_path, capsys, command, flag):
        source = ["--traj" if command == "diagnose" else "--data", "in.csv"]
        if command == "compare":
            source += ["--config2", "c2.json"]
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", "c.json", *source, "--out", "o", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_var_alphas_read_by_grid(self, tmp_path):
        config_path = write_config(tmp_path, {"var": {"alphas": [90, 97.5]}})
        obs_path, _ = write_returns(tmp_path)
        grid = tmp_path / "grid.csv"
        assert main(["grid", "--config", str(config_path), "--data", str(obs_path),
                     "--out", str(grid)]) == 0
        assert grid.read_text().splitlines()[0].endswith(",loglik,var90,var97.5")
        config = load_config(config_path)
        returns = ingest_returns(obs_path).returns
        for row in np.loadtxt(grid, delimiter=",", skiprows=1):
            cell = replace(config.spec(), state_discounts=row[:1], vol_discounts=row[1:3])
            traj = run(cell, config.priors(), returns)
            assert row[-2:].tolist() == var_at_horizon(traj, config.weights, alphas=[90, 97.5])

    @pytest.mark.parametrize("names, reads", [(None, 1), (["series_2", "series_1"], 2)])
    def test_compare_parses_data_once_when_read_alike(self, tmp_path, monkeypatch,
                                                      names, reads):
        calls = []
        read_table = data._read_table
        monkeypatch.setattr(data, "_read_table",
                            lambda *args: calls.append(args) or read_table(*args))
        config1 = write_config(tmp_path, name="m1.json")
        config2 = write_config(tmp_path, {"vol_discounts": [0.99, 0.99], "names": names},
                               name="m2.json")
        obs_path, _ = write_returns(tmp_path)
        assert main(["compare", "--config", str(config1), "--config2", str(config2),
                     "--data", str(obs_path), "--out", str(tmp_path / "lbf.csv")]) == 0
        assert len(calls) == reads

    def test_compare_runs_one_state_pass(self, tmp_path, monkeypatch):
        # the benchmark's metals pair: p = 4, d = 2, configs that differ in beta alone
        metals = {"p": 4, "d": 2, "design": [1.0, 0.0], "state_discounts": 0.95,
                  "data_kind": "prices", "weights": [0.25] * 4,
                  "grid": {"deltas": [0.95], "betas": [[0.9] * 4]}}
        configs = [write_config(tmp_path, {**metals, "vol_discounts": beta}, name=f"{name}.json")
                   for name, beta in (("paired", [0.66, 0.9, 0.9, 0.66]), ("uniform", [0.9] * 4))]
        steps = 0.01 * np.random.default_rng(3).standard_normal((334, 4))
        data_path = tmp_path / "prices.csv"
        write_observations_csv(data_path, 100.0 * np.exp(np.cumsum(steps, axis=0)))
        passes = count_state_passes(monkeypatch)
        out = tmp_path / "lbf.csv"
        assert main(["compare", "--config", str(configs[0]), "--config2", str(configs[1]),
                     "--data", str(data_path), "--out", str(out)]) == 0
        assert len(passes) == 1
        returns = data.to_returns(data.ingest(data_path)).returns
        series = lbf_from_trajectories(*(
            run(config.spec(), config.priors(), returns) for config in map(load_config, configs)
        ))
        expected = tmp_path / "two_runs.csv"
        data.write_csv(expected, [["t", "lbf"]], range(1, len(series) + 1), series[:, None])
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("overrides, passes", [
        ({"priors": {**BASE_CONFIG["priors"], "S0": 2.0}}, 1),
        ({"priors": {**BASE_CONFIG["priors"], "n0": 4.0}}, 1),
        ({"state_discounts": 0.8}, 2),
        ({"priors": {**BASE_CONFIG["priors"], "m0": 0.5}}, 2),
        ({"names": ["series_2", "series_1"]}, 2),
    ])
    def test_compare_shares_the_state_pass_of_equal_inputs(self, tmp_path, monkeypatch,
                                                           overrides, passes):
        config1 = write_config(tmp_path, name="m1.json")
        config2 = write_config(tmp_path, {"vol_discounts": [0.99, 0.99], **overrides},
                               name="m2.json")
        obs_path, _ = write_returns(tmp_path)
        calls = count_state_passes(monkeypatch)
        assert main(["compare", "--config", str(config1), "--config2", str(config2),
                     "--data", str(obs_path), "--out", str(tmp_path / "lbf.csv")]) == 0
        assert len(calls) == passes


def count_state_passes(monkeypatch):
    """The argument tuples of every state pass the filter engine runs."""
    calls = []
    state_pass = filter_module.state_pass
    monkeypatch.setattr(filter_module, "state_pass",
                        lambda *args: calls.append(args) or state_pass(*args))
    return calls


def count_whitenings(monkeypatch):
    """The argument tuples of every whitening of standardized errors."""
    calls = []
    whiten = filter_module._whiten
    monkeypatch.setattr(filter_module, "_whiten",
                        lambda *args: calls.append(args) or whiten(*args))
    return calls


PAIRED = [0.66, 0.9, 0.9, 0.66]
LEVELS = (0.6, 0.7, 0.8, 0.9, 0.95, 1.0)


def metals_inputs(tmp_path, **configs):
    """Prices at the benchmark's metals shape (p = 4, N = 333 returns) and a
    config of that shape per keyword (its overrides); each carries the
    benchmark's grid lattice, 37 paired betas x 2 deltas."""
    metals = {"p": 4, "d": 2, "design": [1.0, 0.0], "state_discounts": 0.95,
              "data_kind": "prices", "weights": [0.25] * 4,
              "grid": {"deltas": [0.8, 0.95],
                       "betas": [[o, i, i, o] for o in LEVELS for i in LEVELS] + [[2 / 3] * 4]}}
    steps = 0.01 * np.random.default_rng(3).standard_normal((334, 4))
    data_path = tmp_path / "prices.csv"
    write_observations_csv(data_path, 100.0 * np.exp(np.cumsum(steps, axis=0)))
    paths = {name: str(write_config(tmp_path, {**metals, **overrides}, f"{name}.json"))
             for name, overrides in configs.items()}
    return paths, str(data_path)


def test_non_positive_price_message(tmp_path, capsys):
    config = write_config(tmp_path, {"p": 1, "vol_discounts": [0.9], "weights": [1.0],
                                     "names": ["b"], "data_kind": "prices", "grid": None})
    data_path = tmp_path / "prices.csv"
    data_path.write_text("date,a,b,c\n2020-01-01,1.0,2.0,3.0\n2020-01-02,1.5,-2.5,3.0\n")
    argv = ["fit", "--config", str(config), "--data", str(data_path), "--out", str(tmp_path / "o")]
    assert main(argv) == 3
    assert capsys.readouterr().err == "data error: price -2.5 in column 'b' (line 3, column 3)\n"


@pytest.mark.parametrize("p", [4, 16])
def test_diagnose_reports_fits_numbers_bitwise(tmp_path, p):
    """diagnose reads e and u back bitwise and sums them in fit's order, so
    its MSSE, MAE, ME and log-likelihood are fit's to the last bit."""
    config_path = str(write_config(tmp_path, {
        "p": p, "d": 2, "design": [1.0, 0.0], "vol_discounts": [0.95] * p,
        "weights": [1.0 / p] * p, "grid": None}))
    obs_path = tmp_path / "returns.csv"
    write_observations_csv(obs_path, 0.01 * np.random.default_rng(p).standard_normal((333, p)))
    out = tmp_path / "fit"
    assert main(["fit", "--config", config_path, "--data", str(obs_path), "--out", str(out)]) == 0
    assert main(["diagnose", "--config", config_path, "--traj", str(out / "trajectory.csv"),
                 "--out", str(tmp_path / "diag.json")]) == 0
    fit = json.loads((out / "report.json").read_text())
    diag = json.loads((tmp_path / "diag.json").read_text())
    for key in ("msse", "mae", "me", "loglik", "n_obs"):
        assert diag[key] == fit[key], key


class TestDiagnoseRederivesThePath:
    """diagnose re-derives Sigma_0..Sigma_N from the stored e and Q under its
    config, and refuses a trajectory whose stored Sigma_N that config does
    not reproduce."""

    @pytest.mark.parametrize("fitted, other", [
        ({"vol_discounts": PAIRED}, {"vol_discounts": [0.95] * 4}),
        ({"vol_discounts": PAIRED},
         {"vol_discounts": PAIRED, "priors": {**BASE_CONFIG["priors"], "S0": 2.0}}),
        ({"vol_discounts": [1.0] * 4},
         {"vol_discounts": [1.0] * 4, "priors": {**BASE_CONFIG["priors"], "n0": 4.0}}),
    ], ids=["beta", "S0", "n0"])
    def test_another_models_trajectory_exits_2(self, tmp_path, capsys, fitted, other):
        configs, data_path = metals_inputs(tmp_path, fitted=fitted, other=other)
        traj = str(tmp_path / "fit" / "trajectory.csv")
        assert main(["fit", "--config", configs["fitted"], "--data", data_path,
                     "--out", str(tmp_path / "fit")]) == 0
        diagnose = ["diagnose", "--traj", traj, "--out", str(tmp_path / "diag.json")]
        assert main([*diagnose, "--config", configs["fitted"]]) == 0
        capsys.readouterr()
        assert main([*diagnose, "--config", configs["other"]]) == 2
        assert "was not fitted with this config's discounts and priors" in capsys.readouterr().err


@pytest.mark.parametrize("action, whitenings", [
    ("fit", 1), ("compare", 0), ("compare-deltas", 0), ("grid", 2),
    ("var", 0), ("diagnose", 0), ("mle_constant", 0), ("linear_transform", 0),
])
def test_whitening_once_per_block_where_u_is_read(tmp_path, monkeypatch, action, whitenings):
    """fit and grid whiten each batch of rows of their run_models call once,
    each step of it in one call per block of steps (the grid lattice runs in
    two batches, one per delta, each two blocks of steps); compare, var,
    diagnose, mle_constant and linear_transform read no u and never whiten."""
    configs, data_path = metals_inputs(
        tmp_path, paired={"vol_discounts": PAIRED}, uniform={"vol_discounts": [0.9] * 4},
        delta={"vol_discounts": PAIRED, "state_discounts": 0.8},
    )
    out = str(tmp_path / "out")
    fit = ["fit", "--config", configs["paired"], "--data", data_path, "--out", out]
    if action == "diagnose":
        assert main(fit) == 0
    calls = count_whitenings(monkeypatch)
    uniform = load_config(configs["uniform"])
    returns = data.to_returns(data.ingest(data_path)).returns
    if action == "mle_constant":
        mle_constant(returns, replace(uniform.spec(), vol_discounts=np.ones(4)), uniform.priors())
    elif action == "linear_transform":
        linear_transform(uniform.spec(), uniform.priors(), returns, [[1.0, 1.0, 0.0, 0.0]])
    else:
        second = {"compare": "uniform", "compare-deltas": "delta"}.get(action)
        argv = {
            "fit": fit,
            "diagnose": ["diagnose", "--config", configs["paired"],
                         "--traj", f"{out}/trajectory.csv", "--out", f"{out}/diag.json"],
            "grid": ["grid", "--config", configs["paired"], "--data", data_path,
                     "--out", f"{out}.csv"],
            "var": ["var", "--config", configs["paired"], "--data", data_path,
                    "--out", f"{out}.json"],
        }.get(action) or ["compare", "--config", configs["paired"], "--config2",
                          configs[second], "--data", data_path, "--out", f"{out}.csv"]
        assert main(argv) == 0
    assert sum(len(args[0]) for args in calls) == whitenings * len(returns)
