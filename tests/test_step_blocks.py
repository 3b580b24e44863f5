"""Blocks of steps: the volatility pass runs its scale path S_0..S_N one block
of at most ``filter.BLOCK_BYTES`` of scales at a time and keeps only its ends;
every stage that reads S_t (the scale terms, the whitening and the trajectory
CSV) replays the path block by block, and its numbers are bitwise those of a
one-block run."""

import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mvdlm import filter as filter_module
from mvdlm import linalg as linalg_module
from mvdlm.cli import main
from mvdlm.config import load_config
from mvdlm.data import write_observations_csv
from mvdlm.diagnostics import compute_diagnostics, grid_search, posterior_loglik
from mvdlm.errors import NonPositiveDefinite
from mvdlm.filter import run, step_blocks, trajectory_to_csv, volatility_pass
from mvdlm.linalg import cholesky_upper, solve_lower_stack

from test_filter import assert_bitwise

B = filter_module.BLOCK_BYTES // (16 * 16 * 8)  # the steps of one block of one row at p = 16
WHOLE = 1 << 62  # a budget that holds any pass of a test as one block
FILES = ("trajectory.csv", "report.json", "diagnose.json")


def budget(steps, rows, p):
    """The BLOCK_BYTES that makes a block of ``rows`` rows at p series ``steps`` steps long."""
    return steps * rows * p * p * 8


def returns(n_steps, p, seed=5):
    return 0.01 * np.random.default_rng(seed).standard_normal((n_steps, p))


def write_inputs(tmp_path, n_steps, p, **overrides):
    """A returns CSV of N rows and a local-level config at p series, beta = 0.95,
    with a grid of 2 deltas x 3 betas (one of them beta = I) and VaR weights."""
    config = {"p": p, "d": 1, "design": [1.0], "evolution": "identity",
              "state_discounts": 0.9, "vol_discounts": [0.95] * p,
              "priors": {"m0": 0.0, "P0": 0.1, "S0": 1e-4, "n0": 1.0},
              "data_kind": "returns", "weights": [1.0 / p] * p,
              "grid": {"deltas": [0.9, 0.8],
                       "betas": [[0.95] * p, np.linspace(0.9, 0.99, p).tolist(), [1.0] * p]},
              **overrides}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    data_path = tmp_path / "returns.csv"
    write_observations_csv(data_path, returns(n_steps, p))
    return str(config_path), str(data_path)


def fit_and_diagnose(config_path, data_path, out):
    """The bytes of every file that fit and diagnose write."""
    assert main(["fit", "--config", config_path, "--data", data_path, "--out", str(out)]) == 0
    assert main(["diagnose", "--config", config_path, "--traj", str(out / "trajectory.csv"),
                 "--out", str(out / "diagnose.json")]) == 0
    return {name: (out / name).read_bytes() for name in FILES}


def three_rows(n_steps, p, seed=7):
    """A K = 3 pass: two evolving rows around a beta = I row, with a caller's
    S0 that is not exactly symmetric."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, p))
    s0 = 1e-4 * (a @ a.T / p + np.eye(p))
    s0[0, -1] *= 1.0 + 1e-15
    betas = [[0.95] * p, [1.0] * p, np.linspace(0.9, 0.99, p)]
    dofs = [1.0 / (1.0 - np.mean(b)) if b[0] < 1.0 else 7.0 for b in betas]
    return returns(n_steps, p, seed), 1.0 + rng.random(n_steps), betas, s0, dofs


def pass_numbers(vol):
    logdet, q = vol.scale_terms
    rows = list(range(len(vol.betas)))
    return vol.u, logdet, q, posterior_loglik(vol, rows), vol.scales(), vol.final


def count_runs(monkeypatch):
    """The number of blocks that each run of the scale recursion yields, one entry per run:
    the pass's own run and each replay."""
    runs, recursion = [], filter_module.scale_blocks

    def counted(*args):
        i = len(runs)
        runs.append(0)
        for block in recursion(*args):
            runs[i] += 1
            yield block
    monkeypatch.setattr(filter_module, "scale_blocks", counted)
    return runs


@pytest.mark.parametrize("n_steps, blocks", [(0, 1), (1, 1), (B - 1, 1), (B, 1), (B + 1, 2),
                                             (2 * B + 1, 3)])
def test_step_blocks_cover_the_steps(n_steps, blocks):
    slices = step_blocks(n_steps, 1, 16)
    assert len(slices) == blocks
    assert np.array_equal(np.arange(n_steps), np.concatenate(
        [np.arange(n_steps)[s] for s in slices]))
    assert all(s.stop - s.start <= B for s in slices)


@pytest.mark.parametrize("n_steps, rows, p, lengths", [
    (333, 1, 4, [333]),  # a fit at the metals shape: one block
    (333, 2, 4, [333]),  # a compare of two betas
    (333, 33, 4, [248, 85]),  # a batch of the benchmark's grid lattice
    (5000, 64, 16, [8] * 625),  # a full batch of BLOCK_ROWS at p = 16
    (3, 1, 400, [1, 1, 1]),  # one scale past the budget: a block is still one step
])
def test_block_length_follows_the_byte_budget(n_steps, rows, p, lengths):
    assert [s.stop - s.start for s in step_blocks(n_steps, rows, p)] == lengths


@pytest.mark.parametrize("p", [3, 16])
@pytest.mark.parametrize("n_steps", [B - 1, B, B + 1, 2 * B + 1])
class TestBlockBoundaries:
    """With blocks of B steps, at N = B - 1, B, B + 1 and 2B + 1, every number
    and every byte equals that of a pass held whole as one block."""

    @pytest.mark.parametrize("rows", [1, 3])
    def test_pass_numbers(self, monkeypatch, p, n_steps, rows):
        e, q, betas, s0, dofs = three_rows(n_steps, p)
        args = (e, q, betas[:rows], s0, dofs[:rows])
        monkeypatch.setattr(filter_module, "BLOCK_BYTES", budget(B, rows, p))
        blocked = pass_numbers(volatility_pass(*args))
        monkeypatch.setattr(filter_module, "BLOCK_BYTES", WHOLE)
        whole = pass_numbers(volatility_pass(*args))
        for actual, expected in zip(blocked, whole):
            assert_bitwise(actual, expected)

    def test_fit_and_diagnose_files(self, tmp_path, monkeypatch, p, n_steps):
        config_path, data_path = write_inputs(tmp_path, n_steps, p)
        monkeypatch.setattr(filter_module, "BLOCK_BYTES", budget(B, 1, p))
        blocked = fit_and_diagnose(config_path, data_path, tmp_path / "blocked")
        monkeypatch.setattr(filter_module, "BLOCK_BYTES", WHOLE)
        assert blocked == fit_and_diagnose(config_path, data_path, tmp_path / "whole")

    def test_grid_and_compare_files(self, tmp_path, monkeypatch, capsys, p, n_steps):
        """grid runs batches of 3 rows, compare one of 2 (its configs differ in beta only)."""
        config_path, data_path = write_inputs(tmp_path, n_steps, p)
        config2 = tmp_path / "config2.json"
        config2.write_text(json.dumps({**json.loads(open(config_path).read()),
                                       "vol_discounts": [0.97] * p}))

        def outputs(out, grid_bytes, compare_bytes):
            monkeypatch.setattr(filter_module, "BLOCK_BYTES", grid_bytes)
            assert main(["grid", "--config", config_path, "--data", data_path,
                         "--out", str(out / "grid.csv"), "--top", "6"]) == 0
            monkeypatch.setattr(filter_module, "BLOCK_BYTES", compare_bytes)
            assert main(["compare", "--config", config_path, "--config2", str(config2),
                         "--data", data_path, "--out", str(out / "compare.csv")]) == 0
            stdout = capsys.readouterr().out.replace(str(out), "<out>")
            return stdout, (out / "grid.csv").read_bytes(), (out / "compare.csv").read_bytes()

        blocked = outputs(tmp_path / "blocked", budget(B, 3, p), budget(B, 2, p))
        assert blocked == outputs(tmp_path / "whole", WHOLE, WHOLE)


class TestWorkingMemory:
    """At p = 16 a fit, its exports and a diagnose hold a few blocks of scales
    above their O(N p) arrays, and a grid a few blocks above its O(K N p)
    arrays: no bound has an N p^2 term, so no scale path of N + 1 matrices
    fits under it (it alone is 2 to 4 times the O(N p) allowance)."""

    p = 16
    blocks = 4  # the bound: 4 blocks of BLOCK_BYTES plus 8 (N, p) float arrays (per row)
    arrays = 8

    def bound(self, n_steps, rows=1):
        return self.blocks * filter_module.BLOCK_BYTES + self.arrays * rows * n_steps * self.p * 8

    @staticmethod
    def traced_peak(action):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            action()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    horizons = (4 * B, 8 * B)

    def test_fit_and_exports(self, tmp_path):
        for n_steps in self.horizons:
            config_path, data_path = write_inputs(tmp_path, n_steps, self.p)
            config = load_config(config_path)
            model = config.spec(), config.priors(), returns(n_steps, self.p)

            def fit():
                trajectory = run(*model)
                compute_diagnostics(trajectory)
                trajectory_to_csv(trajectory, tmp_path / "trajectory.csv")

            assert self.traced_peak(fit) < self.bound(n_steps), n_steps

    def test_diagnose(self, tmp_path):
        for n_steps in self.horizons:
            config_path, data_path = write_inputs(tmp_path, n_steps, self.p)
            out = tmp_path / "fit"
            assert main(["fit", "--config", config_path, "--data", data_path,
                         "--out", str(out)]) == 0
            argv = ["diagnose", "--config", config_path, "--traj", str(out / "trajectory.csv"),
                    "--out", str(out / "diagnose.json")]
            assert self.traced_peak(lambda: main(argv)) < self.bound(n_steps), n_steps

    def test_grid_search_of_sixteen_rows(self, tmp_path):
        n_steps, rows = 4 * B, 16
        config = load_config(write_inputs(tmp_path, n_steps, self.p)[0])
        betas = [np.full(self.p, b) for b in np.linspace(0.9, 0.99, rows)]
        y = returns(n_steps, self.p)
        search = lambda: grid_search(config.spec(), config.priors(), y, [0.9], betas)  # noqa: E731
        assert self.traced_peak(search) < self.bound(n_steps, rows)


class TestReplays:
    """How often a command runs the scale recursion: the pass itself once, and
    a replay for each reader of S_t past its ends when the pass is more than
    one block. compare and var read the scale terms and S_N only; diagnose
    reads S_1 from the first block; fit replays for u and for the CSV, and
    grid for u."""

    p, n_steps = 4, 300

    @pytest.fixture
    def inputs(self, tmp_path):
        config_path, data_path = write_inputs(tmp_path, self.n_steps, self.p)
        config2 = tmp_path / "config2.json"
        config2.write_text(json.dumps({**json.loads(open(config_path).read()),
                                       "vol_discounts": [0.97] * self.p}))
        return config_path, data_path, str(config2), str(tmp_path / "out")

    def split(self, monkeypatch, rows=1):
        """Blocks of 64 steps for a pass of ``rows`` rows: 300 steps run in 5."""
        monkeypatch.setattr(filter_module, "BLOCK_BYTES", budget(64, rows, self.p))

    def test_one_block_fit_runs_once(self, monkeypatch, inputs):
        config_path, data_path, _, out = inputs
        runs = count_runs(monkeypatch)
        assert main(["fit", "--config", config_path, "--data", data_path, "--out", out]) == 0
        assert runs == [1]

    def test_fit_runs_three_times(self, monkeypatch, inputs):
        config_path, data_path, _, out = inputs
        self.split(monkeypatch)
        runs = count_runs(monkeypatch)
        assert main(["fit", "--config", config_path, "--data", data_path, "--out", out]) == 0
        assert runs == [5, 5, 5]  # the pass, u and the CSV

    def test_compare_and_var_run_once(self, monkeypatch, inputs):
        config_path, data_path, config2, out = inputs
        self.split(monkeypatch, rows=2)
        runs = count_runs(monkeypatch)
        assert main(["compare", "--config", config_path, "--config2", config2,
                     "--data", data_path, "--out", out + ".csv"]) == 0
        assert runs == [5]  # one pass of both models
        self.split(monkeypatch)
        runs.clear()
        assert main(["var", "--config", config_path, "--data", data_path,
                     "--out", out + ".json"]) == 0
        assert runs == [5]

    def test_diagnose_runs_once_and_its_first_block(self, monkeypatch, inputs):
        config_path, data_path, _, out = inputs
        assert main(["fit", "--config", config_path, "--data", data_path, "--out", out]) == 0
        self.split(monkeypatch)
        runs = count_runs(monkeypatch)
        assert main(["diagnose", "--config", config_path, "--traj", f"{out}/trajectory.csv",
                     "--out", f"{out}/diagnose.json"]) == 0
        assert runs == [5, 1]

    def test_grid_runs_twice_per_pass(self, monkeypatch, inputs):
        config_path, data_path, _, out = inputs
        self.split(monkeypatch, rows=3)
        runs = count_runs(monkeypatch)
        assert main(["grid", "--config", config_path, "--data", data_path,
                     "--out", out + ".csv"]) == 0
        assert runs == [5, 5, 5, 5]  # per delta: the pass and u


class TestCholeskyFallbackPerBlock:
    """When the batched factor of one block fails, only that block is factored
    matrix by matrix by LAPACK (``cholesky_upper``, with its jitter retry).

    The pass runs at beta = I over 12 steps in blocks of 4. The third series
    enters only at steps 6 and 7, with e_t = (0, 0, 1) and Q_7 = -Q_6 < 0:
    S_6 dips the third diagonal entry of S_5 (exactly 1) by 1/|Q_6| and S_7
    restores it exactly, so S_6 alone is not positive definite, and every
    scale but S_6 equals that of the good pass, where e_6 = e_7 = 0."""

    p, n_steps, block = 3, 12, 4  # steps in blocks [0, 4), [4, 8), [8, 12)

    def pass_with(self, dip):
        """The pass whose S_6 has third diagonal entry 1 - dip (no dip: the good pass)."""
        rng = np.random.default_rng(11)
        a = rng.standard_normal((2, 2))
        S0 = np.eye(self.p)
        S0[:2, :2] += a @ a.T
        e, Q = rng.standard_normal((self.n_steps, self.p)), 1.0 + rng.random(self.n_steps)
        e[:, 2] = 0.0
        e[5:7] = [0.0, 0.0, 1.0] if dip else 0.0
        if dip:
            Q[5:7] = -1.0 / dip, 1.0 / dip
        return volatility_pass(e, Q, np.ones((1, self.p)), S0, 10.0)

    def test_jitter_retry_in_block_two_of_three(self, monkeypatch):
        monkeypatch.setattr(filter_module, "BLOCK_BYTES", budget(self.block, 1, self.p))
        factored = []
        monkeypatch.setattr(linalg_module, "cholesky_upper",
                            lambda m: factored.append(m) or cholesky_upper(m))
        vol = self.pass_with(1.0 + 1e-13)  # S_6 dips to -1e-13; its retry adds 2.9e-10
        logdet, q = vol.scale_terms
        assert len(factored) == self.block + 1  # block two only
        scales = vol.scales(0)
        assert scales[6, 2, 2] < 0.0 and np.array_equal(scales[7, 2, 2], 1.0)
        upper = np.stack([cholesky_upper(s) for s in scales[4:9]])
        solved = solve_lower_stack(np.swapaxes(upper[:-1], -1, -2), vol.e[4:8])
        # S_8 is factored again, batched, by block three, which writes its log|S_8|
        assert_bitwise(logdet[0, 4:8],
                       2.0 * np.sum(np.log(np.diagonal(upper[:-1], 0, -2, -1)), -1))
        assert_bitwise(q[0, 4:8], np.sum(solved ** 2, axis=-1) / vol.Q[4:8])
        lu = np.linalg.solve(np.swapaxes(upper[:-1], -1, -2), vol.e[4:8, :, None])[..., 0]
        assert_allclose(q[0, 4:8], np.sum(lu ** 2, axis=-1) / vol.Q[4:8], rtol=1e-13, atol=0)
        # the other blocks keep the batched factor: their terms are a good pass's
        good = self.pass_with(None)
        good_logdet, good_q = good.scale_terms
        assert_bitwise(good.scales(0)[7:], scales[7:])
        for steps in (slice(0, 4), slice(8, None)):
            assert_bitwise(logdet[0, steps], good_logdet[0, steps])
            assert_bitwise(q[0, steps], good_q[0, steps])

    def test_not_positive_definite_still_raises(self, monkeypatch):
        monkeypatch.setattr(filter_module, "BLOCK_BYTES", budget(self.block, 1, self.p))
        vol = self.pass_with(2.0)  # S_6 has -1 on its diagonal; the pass itself completes
        assert np.array_equal(vol.final, self.pass_with(None).final)
        with pytest.raises(NonPositiveDefinite):
            vol.scale_terms
