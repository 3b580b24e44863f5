"""Command-line pipeline: fit, grid, simulate, var, compare, diagnose.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 model or
numerical error, 1 unexpected internal error.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics
from .config import load_config
from .data import (
    ingest,
    ingest_returns,
    read_columns,
    synthetic_dates,
    to_returns,
    write_csv,
    write_observations_csv,
)
from .distributions import InvWishartParams
from .errors import ConfigError, DataError, MvdlmError
from .filter import run, trajectory_to_csv
from .linalg import vech_indices
from .simulate import simulate

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_MODEL = 4


def _load_observations(config, data_path):
    if config.data_kind == "prices":
        table = to_returns(ingest(data_path, columns=config.names))
    else:
        table = ingest_returns(data_path, columns=config.names)
    if table.p != config.p:
        raise ConfigError(
            f"data has {table.p} series but the config declares p = {config.p}"
        )
    return table


def _fit(config, data_path, sqrt_method):
    table = _load_observations(config, data_path)
    return run(config.spec(), config.priors(), table.returns, sqrt_method=sqrt_method), table


def _write_volatility_series(trajectory, path):
    """Plot-ready series: forecast-volatility diagonals and correlations."""
    p = trajectory.p
    rows, cols = np.triu_indices(p, 1)
    header = ["t", *(f"fore_var_{i + 1}" for i in range(p)),
              *(f"fore_corr_{i + 1}_{j + 1}" for i, j in zip(rows, cols))]
    sigma = trajectory.forecast_means  # NaN where undefined
    diag = np.diagonal(sigma, axis1=1, axis2=2)
    denom = np.sqrt(diag[:, rows] * diag[:, cols])
    corr = np.divide(
        sigma[:, rows, cols], denom, out=np.full(denom.shape, np.nan), where=denom > 0
    )
    write_csv(path, [header], range(1, len(sigma) + 1), np.hstack([diag, corr]))


def _print_report(report):
    def fmt(vec):
        return " ".join(f"{x:.4f}" for x in vec)

    print(f"n_obs: {report.n_obs}")
    print(f"MSSE: {fmt(report.msse)}")
    print(f"MAE:  {fmt(report.mae)}")
    print(f"ME:   {fmt(report.me)}")
    if report.loglik is not None:
        print(f"LogL: {report.loglik:.2f}")


def cmd_fit(args):
    config = load_config(args.config)
    trajectory, _ = _fit(config, args.data, args.sqrt)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trajectory_to_csv(trajectory, out / "trajectory.csv")
    report = diagnostics.compute_diagnostics(trajectory)
    diagnostics.export_report_json(report, out / "report.json")
    diagnostics.export_report_csv(report, out / "report.csv")
    _write_volatility_series(trajectory, out / "volatility_series.csv")
    _print_report(report)
    print(f"wrote {out / 'trajectory.csv'}")
    return EXIT_OK


def cmd_grid(args):
    config = load_config(args.config)
    table = _load_observations(config, args.data)
    deltas, betas = config.grid_candidates()
    result = diagnostics.grid_search(
        config.spec(), config.priors(), table.returns, deltas, betas,
        weights=config.weights, var_family=args.var_family, sqrt_method=args.sqrt,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    result.to_csv(out)
    for row in result.rows[: args.top]:
        beta_txt = " ".join(f"{b:.3g}" for b in row.beta)
        msse_txt = " ".join(f"{x:.2f}" for x in row.msse)
        print(
            f"delta={row.delta:.3g} beta=[{beta_txt}] "
            f"MSSE=[{msse_txt}] LogL={row.loglik:.2f}"
        )
    for delta, beta, reason in result.excluded:
        beta_txt = " ".join(f"{b:.3g}" for b in beta)
        print(f"excluded delta={delta:.3g} beta=[{beta_txt}]: {reason}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_simulate(args):
    config = load_config(args.config)
    horizon = config.horizon
    if horizon is None:
        raise ConfigError(f"{args.config}: simulation needs a 'horizon' key")
    seed = args.seed if args.seed is not None else config.seed
    spec = config.spec()
    priors = config.priors()
    path = simulate(spec, priors, int(horizon), seed=seed)
    names = config.names or [f"series_{i + 1}" for i in range(config.p)]
    write_observations_csv(
        args.out, path.observations, dates=synthetic_dates(len(path)), names=names
    )
    print(f"simulated {len(path)} steps (seed={seed}) -> {args.out}")
    return EXIT_OK


def cmd_var(args):
    config = load_config(args.config)
    if config.weights is None:
        raise ConfigError(f"{args.config}: VaR needs a 'weights' key")
    trajectory, _ = _fit(config, args.data, args.sqrt)
    alphas = [float(a) for a in config.var_alphas]
    values = diagnostics.var_at_horizon(
        trajectory, config.weights, family=args.var_family, alphas=alphas
    )
    payload = {
        "weights": list(config.weights),
        "family": args.var_family,
        "var": {f"{alpha:g}": value for alpha, value in zip(alphas, values)},
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for alpha, value in zip(alphas, values):
        print(f"VaR({alpha:g}%) = {value:.6g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_compare(args):
    config1 = load_config(args.config)
    config2 = load_config(args.config2)
    traj1, _ = _fit(config1, args.data, args.sqrt)
    traj2, _ = _fit(config2, args.data, args.sqrt)
    labels = (Path(args.config).stem, Path(args.config2).stem)
    series = diagnostics.lbf_from_trajectories(traj1, traj2, labels=labels)
    write_csv(args.out, [["t", "lbf"]], range(1, len(series) + 1), series.values[:, None])
    total = series.cumulative
    favored = labels[0] if total > 0 else labels[1] if total < 0 else "neither"
    print(f"cumulative LBF = {total:.4f} (favours {favored})")
    print(f"wrote {args.out}")
    return EXIT_OK


def _read_trajectory_csv(path):
    """e, u, Q and the posterior-mean volatilities of a trajectory CSV."""
    with open(path) as handle:  # without e_ columns, e_1 is reported missing
        p = sum(name.startswith("e_") for name in handle.readline().split(",")) or 1
    pairs = vech_indices(p)
    data = read_columns(path, [
        *(f"{name}_{i + 1}" for name in "eu" for i in range(p)), "Q",
        *(f"sigma_post_{i + 1}_{j + 1}" for i, j in pairs),
    ])
    rows, columns = np.array(pairs).T
    sigma_post = np.empty((data.shape[0], p, p))
    sigma_post[:, rows, columns] = sigma_post[:, columns, rows] = data[:, 2 * p + 1:]
    return data[:, :p], data[:, p:2 * p], data[:, 2 * p], sigma_post


def cmd_diagnose(args):
    config = load_config(args.config)
    e, u, q, sigma_post = _read_trajectory_csv(args.traj)
    msse, mae, me = diagnostics.error_summary(e, u)
    loglik = _stored_loglik(config, e, q, sigma_post)
    report = diagnostics.DiagnosticsReport(msse, mae, me, loglik, e.shape[0], args.sqrt)
    diagnostics.export_report_json(report, args.out)
    _print_report(report)
    print(f"wrote {args.out}")
    return EXIT_OK


def _stored_loglik(config, e, q, sigma_post):
    """The path log-likelihood fit reports, from the stored posterior means."""
    if np.any(np.isnan(sigma_post)):
        return None
    spec = config.spec()
    priors = config.priors()
    if spec.constant_volatility:
        return diagnostics.loglik_constant_arrays(e, q, sigma_post[-1])
    n = spec.working_dof()
    if n <= 2:
        return None
    sigma0 = InvWishartParams(n + 2 * spec.p, priors.S0).mean
    sigma_path = np.concatenate([sigma0[None], sigma_post])
    return diagnostics.loglik_arrays(e, q, sigma_path, spec.vol_discounts, posterior=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mvdlm",
        description=(
            "Sequential Bayesian filtering of multivariate stochastic "
            "volatility with discounted dynamic linear models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=True, var_family=False):
        p.add_argument("--config", required=True, help="JSON configuration file")
        if data:
            p.add_argument("--data", required=True, help="input CSV")
        p.add_argument(
            "--sqrt",
            choices=("spectral", "cholesky"),
            default="spectral",
            help="square-root convention for standardized errors, recorded in the report",
        )
        if var_family:
            p.add_argument("--var-family", choices=("t", "normal"), default="t",
                           help="quantile family for the VaR values")

    p_fit = sub.add_parser("fit", help="filter a series and write diagnostics")
    add_common(p_fit)
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.set_defaults(func=cmd_fit)

    p_grid = sub.add_parser("grid", help="rank discount candidates by log-likelihood")
    add_common(p_grid, var_family=True)
    p_grid.add_argument("--out", required=True, help="output CSV path")
    p_grid.add_argument("--top", type=int, default=5, help="rows to print")
    p_grid.set_defaults(func=cmd_grid)

    p_sim = sub.add_parser("simulate", help="draw a synthetic path")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_var = sub.add_parser("var", help="portfolio Value-at-Risk at the horizon")
    add_common(p_var, var_family=True)
    p_var.add_argument("--out", required=True, help="output JSON path")
    p_var.set_defaults(func=cmd_var)

    p_cmp = sub.add_parser("compare", help="sequential log Bayes factors")
    add_common(p_cmp)
    p_cmp.add_argument("--config2", required=True, help="second configuration")
    p_cmp.add_argument("--out", required=True, help="output CSV path")
    p_cmp.set_defaults(func=cmd_compare)

    p_diag = sub.add_parser("diagnose", help="re-run diagnostics on a stored trajectory")
    add_common(p_diag, data=False)
    p_diag.add_argument("--traj", required=True, help="trajectory CSV from fit")
    p_diag.add_argument("--out", required=True, help="output JSON path")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
