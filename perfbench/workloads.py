"""The four workloads: inputs, one round of operations, and their checks.

Each workload runs a closed loop of whole rounds; a round is a fixed list of
operations, so the share of known-fault operations among those attempted is
the same in every run. Every operation is checked against the independent
reference (``reference.py``) or against a property of the method, never
against stored program output. An operation that fails outside the
known-fault batches makes the run incorrect.
"""

import contextlib
import inspect
import io
import json
import math
import os
import time
import traceback

import numpy as np

import inputs
import reference as ref

RTOL = 1e-8  # agreement with the reference: e, Q, S, u, MSSE, likelihoods
FAULT_SEED = 802_0214  # known-fault inputs do not depend on --seed

PAIRED = (0.66, 0.9, 0.9, 0.66)
FAULT_STATE_OVERFLOW = "filter-state-covariance-overflow"
FAULT_EIGEN_CUTOFF = "loglik-relative-eigenvalue-cutoff"


# Machine speed. Benchmark machines are often shared, and their speed can
# drift by tens of percent within seconds. Each operation is bracketed by
# calibration blocks, run for CALIBRATION_SHARE of its last time before it
# and of its own time after it, and its latency is reported at the
# reference speed: scaled by REFERENCE_BLOCK_S over the median block. That
# tracks operations of a fraction of a second; operations that run for
# seconds (a workload's ``long_ops``) drift in ways the blocks around them
# do not see, and are reported as measured.
REFERENCE_BLOCK_S = 0.75e-3
CALIBRATION_SHARE = 0.025


class Calibration:
    """A fixed block of the kinds of work the package does: 4 x 4
    factorizations and products from a Python loop, a 16 x 16
    eigendecomposition, float formatting as in the CSV writers, and a copy
    larger than the core's cache. It runs only the benchmark's code, so no
    change to mvdlm moves it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        self.a = a @ a.T + 4.0 * np.eye(4)
        self.v = rng.standard_normal(4)
        b = rng.standard_normal((16, 16))
        self.b = b @ b.T
        self.row = rng.standard_normal(160).tolist()
        self.big = rng.standard_normal(2**18)

    def block(self):
        a, v, b = self.a, self.v, self.b
        start = time.perf_counter()
        for _ in range(15):
            np.linalg.cholesky(a)
            np.linalg.eigh((a + a.T) / 2.0)
            np.outer(v, v)
            float(v @ a @ v)
        np.linalg.eigh(b @ b)
        ",".join([repr(x) for x in self.row])
        self.big.copy()
        return time.perf_counter() - start

    def blocks(self, budget):
        """Block times over about ``budget`` seconds (one block at least)."""
        end = time.perf_counter() + budget
        times = [self.block()]
        while time.perf_counter() < end:
            times.append(self.block())
        return times


class Tally:
    """Operations attempted and failed, and the latency of each successful
    operation by kind: as measured (``times``) and at the reference speed
    (``latencies``)."""

    def __init__(self):
        self.times = {}
        self.scaled = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.faults = {}
        self.calibration = Calibration()
        self.blocks = []
        self._typical = {}

    def latencies(self, kind, scaled=True):
        return (self.scaled if scaled else self.times).get(kind, [])

    def run(self, kind, op, check, fault=None):
        """Time ``op()``, then check its result outside the timed region.

        ``check(result)`` returns None when the output is right, else a
        message. Operations of a known-fault batch (``fault`` set) that fail
        are counted under that fault; they never abort the run.
        """
        self.attempted += 1
        before = self.calibration.blocks(CALIBRATION_SHARE * self._typical.get(kind, 0.0))
        start = time.perf_counter()
        try:
            result = op()
        except Exception as exc:  # the op boundary: record and keep running
            elapsed = time.perf_counter() - start
            message = f"raised {''.join(traceback.format_exception_only(exc)).strip()}"
        else:
            elapsed = time.perf_counter() - start
            after = self.calibration.blocks(CALIBRATION_SHARE * elapsed)
            try:
                message = check(result)
            except Exception as exc:  # a malformed output is a failed check
                message = f"check raised {''.join(traceback.format_exception_only(exc)).strip()}"
        self._typical[kind] = elapsed
        if message is None:
            if fault is None:
                self.times.setdefault(kind, []).append(elapsed)
                block = float(np.median(before + after))
                self.blocks.append(block)
                self.scaled.setdefault(kind, []).append(elapsed * REFERENCE_BLOCK_S / block)
            return result
        self.failed += 1
        if fault is None:
            if len(self.errors) < 20:
                self.errors.append(f"{kind}: {message}")
        else:
            entry = self.faults.setdefault(fault, [0, message])
            entry[0] += 1
        return None


def median_ms(times):
    return 1e3 * float(np.median(times)) if times else math.nan


def cli_call(argv):
    """Run ``mvdlm <argv>`` in-process; returns (exit code, stdout, stderr)."""
    from mvdlm import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_failure(code, err):
    lines = [line for line in err.strip().splitlines() if line.strip()]
    return f"exit {code}: {lines[-1] if lines else 'no message'}"


def exit_ok_then(check):
    """Check of a ``cli_call`` result: a non-zero exit fails, otherwise
    ``check(stdout)`` decides."""
    def checked(result):
        code, stdout, err = result
        return cli_failure(code, err) if code != 0 else check(stdout)
    return checked


def read_table(path):
    """A CSV written by the package as {column name: float array}."""
    with open(path) as handle:
        header = handle.readline().strip().split(",")
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: values[:, i] for i, name in enumerate(header)}


def columns(table, prefix, p):
    return np.column_stack([table[f"{prefix}_{i + 1}"] for i in range(p)])


def sigma_post_last(table, p):
    """Posterior-mean volatility at the last step, from the vech columns."""
    out = np.empty((p, p))
    for i in range(p):
        for j in range(i, p):
            value = table[f"sigma_post_{j + 1}_{i + 1}"][-1]
            out[i, j] = out[j, i] = value
    return out


def compare_fields(label, actual, expected, rtol=RTOL):
    err = ref.rel_err(actual, expected)
    if not err <= rtol:
        return f"{label} deviates from the reference by {err:.3e} (relative)"
    return None


def first_problem(*messages):
    return next((m for m in messages if m is not None), None)


def check_report(path, expected, n_obs):
    """report.json of a fit against the reference path."""
    with open(path) as handle:
        report = json.load(handle)
    if report["n_obs"] != n_obs:
        return f"n_obs {report['n_obs']} != {n_obs}"
    if report["loglik"] is None:
        return "no log-likelihood in the report"
    return first_problem(
        compare_fields("MSSE", report["msse"], expected.msse()),
        compare_fields("path log-likelihood", report["loglik"], expected.loglik()),
    )


def check_trajectory(path, expected, p):
    """f, e, Q, u and the final scale S_N of trajectory.csv."""
    table = read_table(path)
    n_steps = len(expected.q)
    s_final = sigma_post_last(table, p) * (expected.n_post[-1] - 2.0)
    return first_problem(
        compare_fields("f", columns(table, "f", p), expected.f),
        compare_fields("e", columns(table, "e", p), expected.e),
        compare_fields("Q", table["Q"], expected.q),
        compare_fields("u", np.nan_to_num(columns(table, "u", p)),
                       np.nan_to_num(expected.u)),
        compare_fields("S_N", s_final, expected.scale[n_steps]),
    )


def check_diagnose(diag_path, report_path):
    """``mvdlm diagnose`` on the written trajectory reproduces fit's report."""
    with open(diag_path) as handle:
        diag = json.load(handle)
    with open(report_path) as handle:
        report = json.load(handle)
    if diag["n_obs"] != report["n_obs"] or diag["loglik"] is None:
        return "diagnose report is incomplete"
    return first_problem(*(
        compare_fields(f"diagnose {key}", diag[key], report[key])
        for key in ("msse", "mae", "me", "loglik")
    ))


class Context:
    """Where a run writes, its seed and whether it runs at smoke size."""

    def __init__(self, work, seed, smoke):
        self.work = work
        self.seed = seed
        self.smoke = smoke

    def path(self, name):
        return os.path.join(self.work, name)


class Workload:
    """Shared plumbing; subclasses define the inputs, ops and checks."""

    name = ""
    primary = ""
    secondary = ""
    long_ops = ()

    def __init__(self, ctx):
        self.ctx = ctx

    def path(self, name):
        return self.ctx.path(name)

    def alloc_target(self):
        """(config, prices) whose ``filter.run`` the traced run measures
        under tracemalloc, or None."""
        return None

    def extras(self, tracer):
        """Work a traced run adds after its rounds, outside the rounds;
        returns the problems found."""
        return []

    def final_checks(self):
        return []


class FitMetals(Workload):
    """Repeated ``mvdlm fit`` and ``mvdlm compare`` at the metals shape,
    plus one operation from each known-fault batch per round."""

    name = "fit-metals"
    primary = "fit"
    secondary = "compare"
    fits_per_round = 4
    compares_per_round = 2

    def generate(self):
        small = self.ctx.smoke
        self.n = 40 if small else 333
        rng = np.random.default_rng(self.ctx.seed)
        inputs.write_prices(self.path("main.csv"), inputs.price_paths(rng, self.n, 4, 1.0))
        inputs.write_prices(self.path("warm.csv"), inputs.price_paths(rng, 30, 4, 1.0))
        fixed = np.random.default_rng(FAULT_SEED)
        # Fault 1 fails near step 278, so the smoke run's short input passes
        # and exercises the property check that applies once it is mended.
        self.n_fault1 = 100 if small else 333
        inputs.write_prices(self.path("fault1.csv"),
                            inputs.price_paths(fixed, self.n_fault1, 4, 1.0))
        self.n_fault2 = 40 if small else 333
        inputs.write_prices(self.path("fault2.csv"),
                            inputs.price_paths(fixed, self.n_fault2, 4, 1e-4))
        self.paired = inputs.Model(4, 2, 0.95, PAIRED)
        self.uniform = inputs.Model(4, 2, 0.95, 0.9)
        # The paper's reference configuration.
        self.fault1 = inputs.Model(4, 2, 0.08, PAIRED, P0=1000.0)
        self.paired.write(self.path("paired.json"))
        self.uniform.write(self.path("uniform.json"))
        self.fault1.write(self.path("fault1.json"))

    def _fit(self, data, config, out):
        return cli_call(["fit", "--config", self.path(config), "--data",
                         self.path(data), "--out", self.path(out)])

    def _compare(self, data, first, second, out):
        return cli_call(["compare", "--config", self.path(first), "--config2",
                         self.path(second), "--data", self.path(data),
                         "--out", self.path(out)])

    def warm_up(self):
        self._fit("warm.csv", "paired.json", "warm")
        self._compare("warm.csv", "paired.json", "uniform.json", "warm_cmp.csv")

    def prepare(self):
        y = ref.returns_from_prices_csv(self.path("main.csv"))
        self.ref_paired = ref.run_filter(y, **self.paired.reference_args())
        self.ref_uniform = ref.run_filter(y, **self.uniform.reference_args())
        self.ref_lbf = ref.lbf_series(self.ref_paired, self.ref_uniform)
        y1 = ref.returns_from_prices_csv(self.path("fault1.csv"))
        # The second state component is never observed, so the fit must
        # equal the d = 1 model with the same delta.
        decoupled = inputs.Model(4, 1, 0.08, PAIRED, P0=1000.0)
        self.ref_fault1 = ref.run_filter(y1, **decoupled.reference_args())
        y2 = ref.returns_from_prices_csv(self.path("fault2.csv"))
        self.ref_fault2 = ref.run_filter(y2, **self.paired.reference_args())

    def _check_fit(self, stdout):
        return check_report(self.path("fit/report.json"), self.ref_paired, self.n)

    def _check_compare(self, stdout):
        lbf = read_table(self.path("compare.csv"))["lbf"]
        return compare_fields("log Bayes factors", lbf, self.ref_lbf)

    def _check_fault1(self, stdout):
        table = read_table(self.path("fault1/trajectory.csv"))
        expected = self.ref_fault1
        s_final = sigma_post_last(table, 4) * (expected.n_post[-1] - 2.0)
        return first_problem(
            compare_fields("f (decoupled d=1)", columns(table, "f", 4), expected.f),
            compare_fields("e (decoupled d=1)", columns(table, "e", 4), expected.e),
            compare_fields("Q (decoupled d=1)", table["Q"], expected.q),
            compare_fields("S_N (decoupled d=1)", s_final, expected.scale[-1]),
        )

    def _check_fault2(self, stdout):
        return check_report(self.path("fault2/report.json"), self.ref_fault2, self.n_fault2)

    def round(self, tally):
        for _ in range(self.fits_per_round):
            tally.run("fit", lambda: self._fit("main.csv", "paired.json", "fit"),
                      exit_ok_then(self._check_fit))
        for _ in range(self.compares_per_round):
            tally.run("compare",
                      lambda: self._compare("main.csv", "paired.json", "uniform.json",
                                            "compare.csv"),
                      exit_ok_then(self._check_compare))
        tally.run("fault1", lambda: self._fit("fault1.csv", "fault1.json", "fault1"),
                  exit_ok_then(self._check_fault1), fault=FAULT_STATE_OVERFLOW)
        tally.run("fault2", lambda: self._fit("fault2.csv", "paired.json", "fault2"),
                  exit_ok_then(self._check_fault2), fault=FAULT_EIGEN_CUTOFF)

    def final_checks(self):
        problems = [check_trajectory(self.path("fit/trajectory.csv"), self.ref_paired, 4)]
        code, _, err = cli_call(["diagnose", "--config", self.path("paired.json"),
                                 "--traj", self.path("fit/trajectory.csv"),
                                 "--out", self.path("diagnose.json")])
        problems.append(cli_failure(code, err) if code else check_diagnose(
            self.path("diagnose.json"), self.path("fit/report.json")))
        code, _, err = self._compare("main.csv", "uniform.json", "paired.json",
                                     "compare_swapped.csv")
        if code:
            problems.append(cli_failure(code, err))
        else:
            forward = read_table(self.path("compare.csv"))["lbf"]
            swapped = read_table(self.path("compare_swapped.csv"))["lbf"]
            if not np.array_equal(forward, -swapped):
                problems.append("compare is not antisymmetric under swapping the models")
        return [f"final: {p}" for p in problems if p is not None]

    def alloc_target(self):
        return "paired.json", "main.csv"

    def figures(self, tally):
        fits = tally.times.get("fit", [])
        out = {
            "fit_p50_ms": median_ms(fits),
            "compare_p50_ms": median_ms(tally.times.get("compare", [])),
            "fit_samples": len(fits),
        }
        if len(fits) >= 100:  # at least ten samples beyond the percentile
            out["fit_p90_ms"] = 1e3 * float(np.percentile(fits, 90))
        return out


class GridBeta(Workload):
    """``mvdlm grid`` over a paired (beta_outer, beta_inner) lattice at two
    deltas, then ``mvdlm fit`` of the lattice's constant-volatility cell."""

    name = "grid-beta"
    primary = "grid"
    secondary = "constant-fit"
    long_ops = ("grid",)
    deltas = (0.8, 0.95)
    constant_fits_per_round = 8

    def generate(self):
        small = self.ctx.smoke
        self.n = 40 if small else 333
        levels = (0.6, 0.7, 0.9, 1.0) if small else (0.6, 0.7, 0.8, 0.9, 0.95, 1.0)
        rng = np.random.default_rng(self.ctx.seed)
        inputs.write_prices(self.path("main.csv"), inputs.price_paths(rng, self.n, 4, 1.0))
        inputs.write_prices(self.path("warm.csv"), inputs.price_paths(rng, 30, 4, 1.0))
        # Plus one cell on the exclusion boundary: mean beta exactly 2/3.
        self.betas = [[o, i, i, o] for o in levels for i in levels] + [[2.0 / 3.0] * 4]
        self.cells = [(d, tuple(b)) for d in self.deltas for b in self.betas]
        self.excluded = {c for c in self.cells if np.mean(c[1]) <= 2.0 / 3.0}
        self.scored = [c for c in self.cells if c not in self.excluded]
        weights = [0.25] * 4
        self.model = inputs.Model(4, 2, 0.95, PAIRED, weights=weights,
                                  grid={"deltas": list(self.deltas), "betas": self.betas})
        self.model.write(self.path("grid.json"))
        warm = inputs.Model(4, 2, 0.95, PAIRED, weights=weights,
                            grid={"deltas": [0.95], "betas": [[0.9] * 4, [1.0] * 4]})
        warm.write(self.path("warm_grid.json"))
        self.constant = inputs.Model(4, 2, 0.95, 1.0)
        self.constant.write(self.path("constant.json"))
        # Cells compared with the reference: both constant-volatility cells
        # and three time-varying cells drawn from the seed.
        varying = [c for c in self.scored if c[1] != (1.0,) * 4]
        picks = rng.choice(len(varying), size=3, replace=False)
        self.sampled = [c for c in self.scored if c[1] == (1.0,) * 4]
        self.sampled += [varying[i] for i in sorted(picks)]

    def _grid(self, config, data, out):
        return cli_call(["grid", "--config", self.path(config), "--data",
                         self.path(data), "--out", self.path(out)])

    def _fit_constant(self, data, out):
        return cli_call(["fit", "--config", self.path("constant.json"), "--data",
                         self.path(data), "--out", self.path(out)])

    def warm_up(self):
        self._grid("warm_grid.json", "warm.csv", "warm_grid.csv")
        self._fit_constant("warm.csv", "warm")

    def prepare(self):
        y = ref.returns_from_prices_csv(self.path("main.csv"))
        self.ref_cells = {
            cell: ref.run_filter(y, **self.model.reference_args(delta=cell[0], beta=cell[1]))
            for cell in self.sampled
        }
        self.ref_constant = ref.run_filter(y, **self.constant.reference_args())

    def _excluded_from_stdout(self, stdout):
        found = []
        for line in stdout.splitlines():
            if line.startswith("excluded delta="):
                head, _ = line.split(":", 1)
                delta_txt, beta_txt = head[len("excluded delta="):].split(" beta=")
                found.append((delta_txt, tuple(beta_txt.strip("[]").split())))
        return found

    @staticmethod
    def _label(cell):
        delta, beta = cell
        return (f"{delta:.3g}", tuple(f"{b:.3g}" for b in beta))

    def _check_grid(self, stdout):
        excluded = self._excluded_from_stdout(stdout)
        expected = sorted(self._label(c) for c in self.excluded)
        if sorted(excluded) != expected:
            return f"excluded cells {sorted(excluded)} != those with mean beta <= 2/3"
        table = read_table(self.path("grid.csv"))
        loglik = table["loglik"]
        if not np.all(np.diff(loglik) <= 0.0):
            return "grid rows are not sorted by log-likelihood"
        rows = {
            (float(table["delta"][r]), tuple(float(table[f"beta_{i + 1}"][r]) for i in range(4))): r
            for r in range(len(loglik))
        }
        if sorted(rows) != sorted(self.scored):
            return "grid rows are not exactly the cells with mean beta > 2/3"
        for cell in self.sampled:
            r = rows[cell]
            expected_path = self.ref_cells[cell]
            problem = first_problem(
                compare_fields(f"MSSE of {cell}",
                               [table[f"msse_{i + 1}"][r] for i in range(4)],
                               expected_path.msse()),
                compare_fields(f"ME of {cell}",
                               [table[f"me_{i + 1}"][r] for i in range(4)],
                               expected_path.me()),
                compare_fields(f"log-likelihood of {cell}", loglik[r], expected_path.loglik()),
            )
            if problem:
                return problem
        return None

    def _check_constant(self, stdout):
        return check_report(self.path("constant/report.json"), self.ref_constant, self.n)

    def round(self, tally):
        tally.run("grid", lambda: self._grid("grid.json", "main.csv", "grid.csv"),
                  exit_ok_then(self._check_grid))
        for _ in range(self.constant_fits_per_round):
            tally.run("constant-fit", lambda: self._fit_constant("main.csv", "constant"),
                      exit_ok_then(self._check_constant))

    def final_checks(self):
        problem = check_trajectory(self.path("constant/trajectory.csv"), self.ref_constant, 4)
        return [] if problem is None else [f"final: constant fit {problem}"]

    def extras(self, tracer):
        """The same lattice through ``grid_search`` on one thread."""
        with tracer.span("bench.grid_serial"):
            rows = serial_grid(self.path("grid.json"), self.path("main.csv"))
        table = read_table(self.path("grid.csv"))
        if not np.array_equal([row.loglik for row in rows], table["loglik"]):
            return ["serial grid: ranking differs from the pooled grid"]
        return []

    def alloc_target(self):
        return "grid.json", "main.csv"

    def figures(self, tally):
        grid_ms = median_ms(tally.times.get("grid", []))
        return {
            "grid_cells_per_s": 1e3 * len(self.scored) / grid_ms,
            "grid_p50_ms": grid_ms,
            "cells_scored": len(self.scored),
            "cells_excluded": len(self.excluded),
            "constant_fit_p50_ms": median_ms(tally.times.get("constant-fit", [])),
        }


def serial_grid(config_path, data_path):
    """grid_search of a grid config on one worker thread (when the package
    still offers a choice)."""
    from mvdlm import config as mconfig
    from mvdlm import data as mdata
    from mvdlm import diagnostics

    cfg = mconfig.load_config(config_path)
    table = mdata.to_returns(mdata.ingest(data_path))
    deltas, betas = cfg.grid_candidates()
    kwargs = {"weights": cfg.weights}
    if "max_workers" in inspect.signature(diagnostics.grid_search).parameters:
        kwargs["max_workers"] = 1
    return diagnostics.grid_search(cfg.spec(), cfg.priors(), table.returns, deltas,
                                   betas, **kwargs).rows


class WideLong(Workload):
    """One ``mvdlm fit`` at p = 16, N = 5000, then ``mvdlm diagnose`` on the
    trajectory it wrote."""

    name = "wide-long"
    primary = "fit"
    secondary = "diagnose"
    long_ops = ("fit", "diagnose")
    p = 16

    def generate(self):
        self.n = 60 if self.ctx.smoke else 5000
        rng = np.random.default_rng(self.ctx.seed)
        inputs.write_prices(self.path("wide.csv"), inputs.price_paths(rng, self.n, self.p, 1.0))
        inputs.write_prices(self.path("warm.csv"), inputs.price_paths(rng, 60, self.p, 1.0))
        self.model = inputs.Model(self.p, 2, 0.95, 0.95)
        self.model.write(self.path("wide.json"))

    def _fit(self, data, out):
        return cli_call(["fit", "--config", self.path("wide.json"), "--data",
                         self.path(data), "--out", self.path(out)])

    def _diagnose(self, out):
        return cli_call(["diagnose", "--config", self.path("wide.json"), "--traj",
                         self.path(f"{out}/trajectory.csv"), "--out",
                         self.path(f"{out}/diagnose.json")])

    def warm_up(self):
        self._fit("warm.csv", "warm")
        self._diagnose("warm")

    def prepare(self):
        y = ref.returns_from_prices_csv(self.path("wide.csv"))
        self.ref_path = ref.run_filter(y, **self.model.reference_args())

    def _check_fit(self, stdout):
        return check_report(self.path("fit/report.json"), self.ref_path, self.n)

    def _check_diagnose(self, stdout):
        return check_diagnose(self.path("fit/diagnose.json"), self.path("fit/report.json"))

    def round(self, tally):
        tally.run("fit", lambda: self._fit("wide.csv", "fit"), exit_ok_then(self._check_fit))
        tally.run("diagnose", lambda: self._diagnose("fit"), exit_ok_then(self._check_diagnose))

    def final_checks(self):
        problem = check_trajectory(self.path("fit/trajectory.csv"), self.ref_path, self.p)
        return [] if problem is None else [f"final: {problem}"]

    def alloc_target(self):
        return "wide.json", "wide.csv"

    def figures(self, tally):
        return {
            "wide_fit_s": median_ms(tally.times.get("fit", [])) / 1e3,
            "diagnose_s": median_ms(tally.times.get("diagnose", [])) / 1e3,
        }


class SamplerMc(Workload):
    """Precision-evolution draws at p = 2 (the Monte Carlo acceptance
    shape) and ``simulate`` paths at p = 4, N = 333 over spawned seeds."""

    name = "sampler-mc"
    primary = "draws"
    secondary = "simulate"
    p_draw, n_draw, beta_draw = 2, 10.0, 0.9

    def generate(self):
        from mvdlm import ModelSpec, Priors

        small = self.ctx.smoke
        self.batch = 10 if small else 100
        self.horizon = 30 if small else 333
        self.ks_draws = 500 if small else 5000
        root = np.random.SeedSequence(self.ctx.seed)
        draw_seq, self.sim_seq, ks_seq = root.spawn(3)
        self.draw_rng = np.random.default_rng(draw_seq)
        self.ks_rng = np.random.default_rng(ks_seq)
        self.spec = ModelSpec(p=4, d=2, design=np.array([1.0, 0.0]), evolution=np.eye(2),
                              state_discounts=np.array([0.95, 0.95]),
                              vol_discounts=np.array([0.95, 0.92, 0.92, 0.95]))
        self.priors = Priors(m0=np.zeros((2, 4)), P0=0.01 * np.eye(2), S0=np.eye(4), n0=1.0)
        self.sum = np.zeros((2, 2))
        self.sum_sq = np.zeros((2, 2))
        self.count = 0

    def _draws(self, count, rng):
        from mvdlm.distributions import evolve_precision, wishart_sample

        p, n, beta = self.p_draw, self.n_draw, self.beta_draw
        eye = np.eye(p)
        out = []
        for _ in range(count):
            phi_prev = wishart_sample(n + p - 1, eye, rng)
            out.append(evolve_precision(phi_prev, [beta] * p, n, rng))
        return out

    def _simulate(self, horizon, seq):
        from mvdlm.simulate import simulate

        return simulate(self.spec, self.priors, horizon, rng=np.random.default_rng(seq))

    def warm_up(self):
        warm = np.random.default_rng(0)
        self._draws(10, warm)
        self._simulate(30, np.random.SeedSequence(0))

    def prepare(self):
        pass

    def _check_draws(self, draws):
        stack = np.asarray(draws)
        if stack.shape != (self.batch, 2, 2) or not np.all(np.isfinite(stack)):
            return "non-finite or misshapen precision draws"
        self.sum += stack.sum(axis=0)
        self.sum_sq += (stack * stack).sum(axis=0)
        self.count += len(stack)
        return None

    def _check_path(self, path):
        vols = np.asarray(path.volatilities)
        if vols.shape != (self.horizon, 4, 4) or not np.all(np.isfinite(path.observations)):
            return "simulated path is misshapen or not finite"
        if not np.all(np.linalg.eigvalsh(vols)[:, 0] > 0.0):
            return "a simulated volatility is not positive definite"
        return None

    def round(self, tally):
        tally.run("draws", lambda: self._draws(self.batch, self.draw_rng), self._check_draws)
        seq = self.sim_seq.spawn(1)[0]
        tally.run("simulate", lambda: self._simulate(self.horizon, seq), self._check_path)

    def final_checks(self):
        import scipy.stats
        from mvdlm.distributions import evolve_precision

        problems = []
        mean = self.sum / self.count
        se = np.sqrt(np.maximum(self.sum_sq / self.count - mean * mean, 0.0) / self.count)
        p, n, beta = self.p_draw, self.n_draw, self.beta_draw
        expected = (n + (p - 1) / beta) * np.eye(p)
        z = np.abs(mean - expected) / se
        if not np.all(z <= 6.0):
            problems.append(f"Monte Carlo mean of the evolved precision is {z.max():.1f} "
                            f"standard errors from (n + (p-1)/beta) I")
        draws = np.array([beta * evolve_precision([[1.0]], [beta], n, self.ks_rng)[0, 0]
                          for _ in range(self.ks_draws)])
        stat = scipy.stats.kstest(draws, scipy.stats.beta(4.5, 0.5).cdf).statistic
        bound = 3.0 / math.sqrt(self.ks_draws)  # false alarm about 3e-8
        if not stat < bound:
            problems.append(f"scalar evolution KS statistic {stat:.4f} >= {bound:.4f} "
                            "against Beta(4.5, 1/2)")
        return [f"final: {p}" for p in problems]

    def figures(self, tally):
        return {
            "draws_per_s": 1e3 * self.batch / median_ms(tally.times.get("draws", [])),
            "sim_steps_per_s": 1e3 * self.horizon / median_ms(tally.times.get("simulate", [])),
            "draws_checked": self.count,
        }


WORKLOADS = {cls.name: cls for cls in (FitMetals, GridBeta, WideLong, SamplerMc)}


def probe(ctx, tracer):
    """One small pass over every layer, for the traced run's figures of the
    layers its workload does not reach. Returns the problems found."""
    from mvdlm.distributions import invwishart_sample

    work = ctx.path("probe")
    os.makedirs(work, exist_ok=True)
    sub = Context(work, ctx.seed, smoke=True)
    tally = Tally()
    fit = FitMetals(sub)
    fit.generate()
    fit.prepare()
    tally.run("fit", lambda: fit._fit("main.csv", "paired.json", "fit"),
              exit_ok_then(fit._check_fit))
    tally.run("compare",
              lambda: fit._compare("main.csv", "paired.json", "uniform.json", "compare.csv"),
              exit_ok_then(fit._check_compare))
    grid = GridBeta(sub)
    grid.generate()
    grid.prepare()
    grid.round(tally)
    problems = grid.extras(tracer)
    sampler = SamplerMc(sub)
    sampler.generate()
    sampler.round(tally)
    rng = np.random.default_rng(ctx.seed)
    for _ in range(5):
        invwishart_sample(12.0, np.eye(4), rng)
    return [f"probe {e}" for e in tally.errors + problems]
