"""Benchmark of mvdlm: one workload per run, checked, with every metric named.

    python3 perfbench/run.py --workload fit-metals --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke            # every workload, tiny, all checks

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds, writes the spans under perfbench/.work/ and
prints the per-layer metrics with the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Run it from the root of a checkout; it builds nothing and imports mvdlm
from ./src. See perfbench/README.md.
"""

import os

# One BLAS thread, set before numpy loads; the run records the setting.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "primary_p50_ms": "ms",
    "secondary_p50_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload (or --workload) at tiny sizes, traced "
                             "and untraced, one round each")
    return parser.parse_args(argv)


def import_package():
    """Import mvdlm from this checkout's src; returns the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "mvdlm", "__init__.py")):
        raise SystemExit(f"perfbench: no mvdlm package under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import mvdlm
    import mvdlm.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if not os.path.abspath(mvdlm.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported mvdlm from {mvdlm.__file__}, not {SRC}")
    return elapsed


def machine_facts():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # older numpy: the name is informational only
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def loop(workload, tally, seconds):
    """Whole rounds until ``seconds`` have passed (at least one round)."""
    rounds = 0
    start = time.perf_counter()
    while True:
        workload.round(tally)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return rounds


def guarded(what, func, *args):
    """Problems reported by ``func``, or the exception it raised as one."""
    try:
        return func(*args)
    except Exception as exc:  # a crashed check is a failed check
        return [f"{what} raised {type(exc).__name__}: {exc}"]


def alloc_peak_mb(config_path, prices_path):
    """tracemalloc peak inside ``filter.run`` for one config and price file."""
    from mvdlm import config as mconfig
    from mvdlm import data as mdata
    from mvdlm import filter as mfilter

    cfg = mconfig.load_config(config_path)
    returns = mdata.to_returns(mdata.ingest(prices_path)).returns
    spec, priors = cfg.spec(), cfg.priors()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mfilter.run(spec, priors, returns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


def run_workload(name, seed, seconds, trace, smoke, import_s, out=print):
    """One benchmark run; returns the result object printed last."""
    import numpy as np

    import tracing
    import workloads

    def p50(tally, kind):
        return workloads.median_ms(tally.latencies(kind, scaled=kind not in wl.long_ops))

    work = os.path.join(HERE, ".work", f"{name}-seed{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ctx = workloads.Context(work, seed, smoke)
        wl = workloads.WORKLOADS[name](ctx)
        # Set-up is timed like the operations: bracketed by calibration
        # blocks and reported at the reference speed.
        calibration = workloads.Calibration()
        speed = workloads.REFERENCE_BLOCK_S / float(np.median(calibration.blocks(0.1)))
        setup, setup_scaled = [], []
        for _ in range(1 if smoke else SETUP_REPEATS):
            before = calibration.blocks(0.05)
            start = time.perf_counter()
            wl.generate()
            wl.warm_up()
            setup.append(time.perf_counter() - start)
            block = float(np.median(before + calibration.blocks(0.05)))
            setup_scaled.append(setup[-1] * workloads.REFERENCE_BLOCK_S / block)
        wl.prepare()

        tally = workloads.Tally()
        problems = []
        if trace == 0:
            rounds = loop(wl, tally, seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            halves = [tally]
        else:
            # Untraced and traced rounds alternate, so both see the same
            # machine; the difference of their medians is the overhead.
            traced = workloads.Tally()
            tracer = tracing.Tracer()
            rounds = 0
            start = time.perf_counter()
            while True:
                wl.round(tally)
                tracer.install()
                try:
                    wl.round(traced)
                finally:
                    tracer.uninstall()
                rounds += 1
                if time.perf_counter() - start >= seconds:
                    break
            tracer.tag = "warm"
            problems += guarded("probe", workloads.probe, ctx, tracer)
            tracer.install()
            try:
                tracer.tag = "extra"
                problems += guarded("extra work", wl.extras, tracer)
                tracer.tag = "probe"
                problems += guarded("probe", workloads.probe, ctx, tracer)
            finally:
                tracer.uninstall()
            target = wl.alloc_target()
            if target is None:
                target = (os.path.join("probe", "paired.json"), os.path.join("probe", "main.csv"))
            try:
                alloc_mb = alloc_peak_mb(ctx.path(target[0]), ctx.path(target[1]))
            except Exception as exc:  # reported, and the run is incorrect
                problems.append(f"tracemalloc run raised {type(exc).__name__}: {exc}")
                alloc_mb = -1.0
            halves = [tally, traced]
        problems += guarded("final checks", wl.final_checks)

        errors = [e for half in halves for e in half.errors] + problems
        attempted = sum(half.attempted for half in halves)
        failed = sum(half.failed for half in halves)
        faults = {}
        for half in halves:
            for fault, (count, message) in half.faults.items():
                faults.setdefault(fault, [0, message])[0] += count

        out(f"perfbench {name} seed={seed} seconds={seconds:g} trace={trace} "
            f"rounds={rounds} smoke={smoke}")
        out("machine: " + json.dumps(machine_facts(), sort_keys=True))
        out(f"setup (as measured): import {import_s:.4f} s, generate+warm-up "
            + ", ".join(f"{s:.4f}" for s in setup) + " s")
        out("figures (as measured): " + json.dumps(wl.figures(tally), sort_keys=True))
        blocks = [b for half in halves for b in half.blocks]
        out(f"calibration: median block {workloads.median_ms(blocks):.4f} ms over "
            f"{len(blocks)} ops; latencies are reported at "
            f"{workloads.REFERENCE_BLOCK_S * 1e3:g} ms per block")
        for fault, (count, message) in sorted(faults.items()):
            out(f"known fault {fault}: {count} operations failed ({message})")
        for error in errors:
            out(f"ERROR {error}")

        if trace == 0:
            metrics = {
                "setup_s": import_s * speed + sorted(setup_scaled)[len(setup) // 2],
                "peak_rss_mb": peak_rss_mb,
                "primary_p50_ms": p50(tally, wl.primary),
                "secondary_p50_ms": p50(tally, wl.secondary),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        else:
            spans_path = os.path.join(HERE, ".work", f"spans-{name}-seed{seed}.csv")
            tracer.write_csv(spans_path)
            view = tracing.LayerView(tracer.spans, rounds)
            layer = view.metrics()
            layer["filter.run_peak_alloc_mb"] = (alloc_mb, "MB")
            untraced = p50(tally, wl.primary)
            with_spans = p50(traced, wl.primary)
            layer["trace.overhead_pct"] = (100.0 * (with_spans / untraced - 1.0), "%")
            out(f"trace: {len(tracer.spans)} spans -> {os.path.relpath(spans_path, ROOT)}; "
                f"{wl.primary} p50 {untraced:.3f} ms untraced, {with_spans:.3f} ms traced")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        for value in metrics.values():
            if value["value"] != value["value"]:  # NaN: no successful op of that kind
                errors.append("a metric has no successful operation to measure")
                value["value"] = -1.0
        return {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    args = parse_args(argv)
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import mvdlm: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    if args.smoke:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        ok = True
        for name in names:
            for trace in (0, 1):
                result = run_workload(name, args.seed, 0.0, trace, True, import_s,
                                      out=lambda line: print("  " + line))
                ok = ok and result["correct"]
                print(f"smoke {name} trace={trace}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      f"metrics={len(result['metrics'])}")
        print("smoke: " + ("ok" if ok else "FAILED"))
        return 0 if ok else 1

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: --workload must be one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, False, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
