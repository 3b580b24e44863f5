"""Blocks of steps: every stage that reads the scales S_0..S_N of a volatility
pass (the whitening, the factor of the scale stack and the trajectory CSV)
works on at most ``filter.BLOCK_STEPS`` steps at a time, and its numbers are
bitwise those of a one-block run."""

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
from mvdlm.diagnostics import compute_diagnostics, posterior_loglik
from mvdlm.errors import NonPositiveDefinite
from mvdlm.filter import VolatilityPass, run, step_blocks, trajectory_to_csv, volatility_pass
from mvdlm.linalg import cholesky_upper, solve_lower_stack

from test_filter import assert_bitwise

B = filter_module.BLOCK_STEPS
FILES = ("trajectory.csv", "report.json", "diagnose.json")


def returns(n_steps, p, seed=5):
    return 0.01 * np.random.default_rng(seed).standard_normal((n_steps, p))


def write_inputs(tmp_path, n_steps, p):
    """A returns CSV of N rows and a local-level config at p series, beta = 0.95."""
    config = {"p": p, "d": 1, "design": [1.0], "evolution": "identity",
              "state_discounts": 0.9, "vol_discounts": [0.95] * p,
              "priors": {"m0": 0.0, "P0": 0.1, "S0": 1e-4, "n0": 1.0},
              "data_kind": "returns"}
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
    logdet, r = vol.scale_terms
    rows = list(range(len(vol.betas)))
    return vol.u, logdet, r, posterior_loglik(vol, rows)


@pytest.mark.parametrize("n_steps, blocks", [(0, 1), (1, 1), (B - 1, 1), (B, 1), (B + 1, 2),
                                             (2 * B + 1, 3)])
def test_step_blocks_cover_the_steps(n_steps, blocks):
    slices = step_blocks(n_steps)
    assert len(slices) == blocks
    assert np.array_equal(np.arange(n_steps), np.concatenate(
        [np.arange(n_steps)[s] for s in slices]))
    assert all(s.stop - s.start <= B for s in slices)


@pytest.mark.parametrize("p", [3, 16])
@pytest.mark.parametrize("n_steps", [B - 1, B, B + 1, 2 * B + 1])
class TestBlockBoundaries:
    """At N = B - 1, B, B + 1 and 2B + 1 every number and every byte equals
    that of a run with BLOCK_STEPS >= N, which is one block."""

    @pytest.mark.parametrize("rows", [1, 3])
    def test_pass_numbers(self, monkeypatch, p, n_steps, rows):
        e, q, betas, s0, dofs = three_rows(n_steps, p)
        args = (e, q, betas[:rows], s0, dofs[:rows])
        blocked = pass_numbers(volatility_pass(*args))
        monkeypatch.setattr(filter_module, "BLOCK_STEPS", n_steps)
        whole = pass_numbers(volatility_pass(*args))
        for actual, expected in zip(blocked, whole):
            assert_bitwise(actual, expected)

    def test_fit_and_diagnose_files(self, tmp_path, monkeypatch, p, n_steps):
        config_path, data_path = write_inputs(tmp_path, n_steps, p)
        blocked = fit_and_diagnose(config_path, data_path, tmp_path / "blocked")
        monkeypatch.setattr(filter_module, "BLOCK_STEPS", n_steps)
        assert blocked == fit_and_diagnose(config_path, data_path, tmp_path / "whole")


class TestWorkingMemory:
    """At p = 16 and N = 4B a fit holds its scale stack S and a few blocks'
    worth of temporaries above it, never a second (N, p, p) array."""

    p, n_steps = 16, 4 * B
    blocks = 6  # the bound: S.nbytes + 6 (B, p, p) float blocks (6.3 MB at p = 16)

    def bound(self):
        s_bytes = (self.n_steps + 1) * self.p * self.p * 8
        return s_bytes + self.blocks * B * self.p * self.p * 8

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

    def test_fit_and_exports(self, tmp_path):
        config_path, data_path = write_inputs(tmp_path, self.n_steps, self.p)
        config = load_config(config_path)
        model = config.spec(), config.priors(), returns(self.n_steps, self.p)

        def fit():
            trajectory = run(*model)
            compute_diagnostics(trajectory)
            trajectory_to_csv(trajectory, tmp_path / "trajectory.csv")

        assert self.traced_peak(fit) < self.bound()

    def test_diagnose(self, tmp_path):
        config_path, data_path = write_inputs(tmp_path, self.n_steps, self.p)
        out = tmp_path / "fit"
        assert main(["fit", "--config", config_path, "--data", data_path, "--out", str(out)]) == 0
        argv = ["diagnose", "--config", config_path, "--traj", str(out / "trajectory.csv"),
                "--out", str(out / "diagnose.json")]
        assert self.traced_peak(lambda: main(argv)) < self.bound()


class TestCholeskyFallbackPerBlock:
    """When the batched factor of one block fails, only that block is factored
    matrix by matrix by LAPACK (``cholesky_upper``, with its jitter retry)."""

    p, n_steps, block = 3, 12, 4  # steps in blocks [0, 4), [4, 8), [8, 12)
    bad = 6  # S_5..S_8 are the second block's scales

    def pass_with(self, matrix):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((self.n_steps + 1, self.p, self.p))
        S = a @ np.swapaxes(a, -1, -2) + np.eye(self.p)
        S[self.bad] = matrix
        return VolatilityPass(S=S[None], n=np.full((1, self.n_steps + 1), 10.0),
                              e=rng.standard_normal((self.n_steps, self.p)),
                              Q=1.0 + rng.random(self.n_steps), betas=np.ones((1, self.p)))

    def test_jitter_retry_in_block_two_of_three(self, monkeypatch):
        monkeypatch.setattr(filter_module, "BLOCK_STEPS", self.block)
        factored = []
        monkeypatch.setattr(linalg_module, "cholesky_upper",
                            lambda m: factored.append(m) or cholesky_upper(m))
        jittered = np.diag([1.0, 1.0, -1e-13])  # its retry adds 6.7e-11 to the diagonal
        logdet, r = self.pass_with(jittered).scale_terms
        assert len(factored) == self.block  # block two only
        vol = self.pass_with(jittered)
        upper = np.stack([cholesky_upper(s) for s in vol.S[0, 5:9]])
        solved = solve_lower_stack(np.swapaxes(upper, -1, -2), vol.e[4:8])
        assert_bitwise(logdet[0, 5:9], 2.0 * np.sum(np.log(np.diagonal(upper, 0, -2, -1)), -1))
        assert_bitwise(r[0, 4:8], np.sum(solved ** 2, axis=-1) / vol.Q[4:8])
        lu = np.linalg.solve(np.swapaxes(upper, -1, -2), vol.e[4:8, :, None])[..., 0]
        assert_allclose(r[0, 4:8], np.sum(lu ** 2, axis=-1) / vol.Q[4:8], rtol=1e-13, atol=0)
        # the other blocks keep the batched factor: their terms are a good pass's
        good_logdet, good_r = self.pass_with(np.eye(self.p)).scale_terms
        for steps in (slice(0, 5), slice(9, None)):
            assert_bitwise(logdet[0, steps], good_logdet[0, steps])
        for steps in (slice(0, 4), slice(8, None)):
            assert_bitwise(r[0, steps], good_r[0, steps])

    def test_not_positive_definite_still_raises(self, monkeypatch):
        monkeypatch.setattr(filter_module, "BLOCK_STEPS", self.block)
        with pytest.raises(NonPositiveDefinite):
            self.pass_with(np.diag([1.0, 1.0, -1.0])).scale_terms
