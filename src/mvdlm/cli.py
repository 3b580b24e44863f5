"""Command-line pipeline: fit, grid, simulate, var, compare, diagnose.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 model or
numerical error, 1 unexpected internal error.
"""

import argparse
import contextlib
import functools
import sys
from pathlib import Path

import numpy as np

from . import diagnostics
from .config import load_config, whole_number
from .data import (
    ingest,
    ingest_returns,
    read_columns,
    read_end_rows,
    to_returns,
    write_csv,
    write_json,
    write_observations_csv,
)
from .errors import ConfigError, DataError, MvdlmError
from .filter import CLOSED_FORM_RTOL, posterior_path, run, run_models, trajectory_to_csv
from .linalg import vech_indices
from .simulate import simulate

# main dispatches to cmd_<command> by name
__all__ = ["main", "cmd_fit", "cmd_grid", "cmd_simulate", "cmd_var", "cmd_compare", "cmd_diagnose"]

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_MODEL = 4


@contextlib.contextmanager
def _io(verb, path):
    """Turn an OSError raised while reading the input or writing the output
    ``path`` into a DataError."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot {verb} {path}: {exc}") from exc


def _read_data(config, data_path):
    """The return table of the data CSV as ``config`` reads it (its
    ``data_kind`` and ``names``)."""
    with _io("read", data_path):
        if config.data_kind == "prices":
            return to_returns(ingest(data_path, columns=config.names))
        return ingest_returns(data_path, columns=config.names)


def _observations(config, table):
    """The returns of ``table``, checked against the config's p."""
    if table.p != config.p:
        raise ConfigError(
            f"data has {table.p} series but the config declares p = {config.p}"
        )
    return table.returns


def _model(config, table):
    """The (spec, priors, observations) that ``config`` fits to ``table``."""
    return config.spec(), config.priors(), _observations(config, table)


def _print_report(report):
    def fmt(vec):
        return " ".join(f"{x:.4f}" for x in vec)

    print(f"n_obs: {report.n_obs}")
    print(f"MSSE: {fmt(report.msse)}")
    print(f"MAE:  {fmt(report.mae)}")
    print(f"ME:   {fmt(report.me)}")
    print(f"LogL: {report.loglik:.2f}")  # fit and diagnose always score


def cmd_fit(args):
    config = load_config(args.config)
    trajectory = run(*_model(config, _read_data(config, args.data)))
    report = diagnostics.compute_diagnostics(trajectory)  # whitens: a failure writes nothing
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trajectory_to_csv(trajectory, out / "trajectory.csv")
    diagnostics.export_report_json(report, out / "report.json")
    _print_report(report)
    print(f"wrote {out / 'trajectory.csv'}")
    return EXIT_OK


def cmd_grid(args):
    config = load_config(args.config)
    top = whole_number(args.top, "--top", 0)
    observations = _observations(config, _read_data(config, args.data))
    deltas, betas = config.grid_candidates()
    result = diagnostics.grid_search(config.spec(), config.priors(), observations, deltas, betas,
                                     weights=config.weights, var_family=config.var_family,
                                     var_alphas=config.var_alphas)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    result.to_csv(out)
    for row in result.rows[:top]:
        beta_txt = " ".join(f"{b:.3g}" for b in row.beta)
        msse_txt = " ".join(f"{x:.2f}" for x in row.msse)
        print(f"delta={row.delta:.3g} beta=[{beta_txt}] MSSE=[{msse_txt}] LogL={row.loglik:.2f}")
    for delta, beta, reason in result.excluded:
        beta_txt = " ".join(f"{b:.3g}" for b in beta)
        print(f"excluded delta={delta:.3g} beta=[{beta_txt}]: {reason}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_simulate(args):
    config = load_config(args.config)
    if config.horizon is None:
        raise ConfigError(f"{args.config}: simulation needs a 'horizon' key")
    seed = config.seed if args.seed is None else whole_number(args.seed, "--seed", 0)
    path = simulate(config.spec(), config.priors(), config.horizon, seed=seed)
    write_observations_csv(args.out, path.observations, names=config.names)
    print(f"simulated {len(path)} steps (seed={seed}) -> {args.out}")
    return EXIT_OK


def cmd_var(args):
    config = load_config(args.config)
    if config.weights is None:
        raise ConfigError(f"{args.config}: VaR needs a 'weights' key")
    trajectory = run(*_model(config, _read_data(config, args.data)))
    alphas = [float(a) for a in config.var_alphas]
    values = diagnostics.var_at_horizon(trajectory, config.weights, config.var_family, alphas)
    write_json(args.out, {
        "weights": list(config.weights),
        "family": config.var_family,
        "var": {f"{alpha:g}": value for alpha, value in zip(alphas, values)},
    })
    for alpha, value in zip(alphas, values):
        print(f"VaR({alpha:g}%) = {value:.6g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_compare(args):
    config1 = load_config(args.config)
    config2 = load_config(args.config2)
    table1 = table2 = _read_data(config1, args.data)
    # configs that read the file alike share one parse; each checks its own p
    if (config2.data_kind, config2.names) != (config1.data_kind, config1.names):
        table2 = _read_data(config2, args.data)
    traj1, traj2 = run_models([_model(config1, table1), _model(config2, table2)])
    lbf = diagnostics.lbf_from_trajectories(traj1, traj2)
    write_csv(args.out, [["t", "lbf"]], range(1, len(lbf) + 1), lbf[:, None])
    total = float(np.sum(lbf))
    labels = (Path(args.config).stem, Path(args.config2).stem)
    favored = labels[0] if total > 0 else labels[1] if total < 0 else "neither"
    print(f"cumulative LBF = {total:.4f} (favours {favored})")
    print(f"wrote {args.out}")
    return EXIT_OK


def _read_trajectory_csv(path):
    """e, u and Q of a trajectory CSV, and the sigma_post cells of its end lines;
    e and u are C-ordered, as fit's are, so that their column means sum alike."""
    with _io("read", path):
        with open(path) as handle:  # without e_ columns, e_1 is reported missing
            p = sum(name.startswith("e_") for name in handle.readline().split(",")) or 1
        e_names = [f"e_{i + 1}" for i in range(p)]  # u may be NaN: undefined where dof <= 2
        data = read_columns(path, [*e_names, *(f"u_{i + 1}" for i in range(p)), "Q"],
                            finite=[*e_names, "Q"], positive=["Q"])
        ends = read_end_rows(path, [f"sigma_post_{i + 1}_{j + 1}" for i, j in vech_indices(p)])
    e, u = (np.ascontiguousarray(data[:, i * p:(i + 1) * p]) for i in range(2))
    return e, u, data[:, 2 * p], ends


def cmd_diagnose(args):
    config = load_config(args.config)
    e, u, q, ends = _read_trajectory_csv(args.traj)
    if e.shape[1] != config.p:
        raise ConfigError(
            f"trajectory has {e.shape[1]} series but the config declares p = {config.p}"
        )
    msse, mae, me = diagnostics.error_summary(e, u)
    vol = posterior_path(e, q, config.spec(), config.priors())
    first = next(vol.blocks())[1][0, 1]  # S_1: the first block of the path, never all of it
    # Sigma_1 shows S0 and n0, Sigma_N beta
    means = vol.posterior_means(0, np.stack([first, vol.final[0]]), [1, -1])
    rows, cols = np.array(vech_indices(config.p)).T
    if not np.allclose(means[:, rows, cols], ends, CLOSED_FORM_RTOL, 0.0, equal_nan=True):
        raise ConfigError(f"{args.traj} was not fitted with this config's discounts and priors")
    loglik = diagnostics.posterior_loglik(vol, 0)
    report = diagnostics.DiagnosticsReport(msse, mae, me, loglik, e.shape[0])
    diagnostics.export_report_json(report, args.out)
    _print_report(report)
    print(f"wrote {args.out}")
    return EXIT_OK


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="mvdlm",
        description=(
            "Sequential Bayesian filtering of multivariate stochastic "
            "volatility with discounted dynamic linear models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=True):
        p.add_argument("--config", required=True, help="JSON configuration file")
        if data:
            p.add_argument("--data", required=True, help="input CSV")

    p_fit = sub.add_parser("fit", help="filter a series and write diagnostics")
    add_common(p_fit)
    p_fit.add_argument("--out", required=True, help="output directory")

    p_grid = sub.add_parser("grid", help="rank discount candidates by log-likelihood")
    add_common(p_grid)
    p_grid.add_argument("--out", required=True, help="output CSV path")
    p_grid.add_argument("--top", type=int, default=5, help="rows to print")

    p_sim = sub.add_parser("simulate", help="draw a synthetic path")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--seed", type=int, default=None)

    p_var = sub.add_parser("var", help="portfolio Value-at-Risk at the horizon")
    add_common(p_var)
    p_var.add_argument("--out", required=True, help="output JSON path")

    p_cmp = sub.add_parser("compare", help="sequential log Bayes factors")
    add_common(p_cmp)
    p_cmp.add_argument("--config2", required=True, help="second configuration")
    p_cmp.add_argument("--out", required=True, help="output CSV path")

    p_diag = sub.add_parser("diagnose", help="re-run diagnostics on a stored trajectory")
    add_common(p_diag, data=False)
    p_diag.add_argument("--traj", required=True, help="trajectory CSV from fit")
    p_diag.add_argument("--out", required=True, help="output JSON path")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:  # looked up at call time, so a command replaced on the module is the one that runs
        with _io("write", args.out):  # every input is read under _io("read", ...)
            return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        location = ""
        if exc.row is not None:
            location = f" (line {exc.row}"
            location += f", column {exc.col})" if exc.col is not None else ")"
        print(f"data error: {exc}{location}", file=sys.stderr)
        return EXIT_DATA
    except MvdlmError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
