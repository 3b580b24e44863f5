"""Span tracing of mvdlm's public functions, from outside the package.

``Tracer.install`` replaces each public function named in ``TARGETS`` by a
wrapper, in every loaded ``mvdlm`` module that holds a reference to it (so
``from .filter import run`` in ``cli`` is traced as well), and ``uninstall``
puts the originals back. Spans (name, start, end, parent) are kept in memory
and written out once, at the end of the run. Nothing inside ``src/mvdlm``
is changed.

Each span records wall time and the busy time of its thread
(``time.thread_time``). The grid scores candidates on a thread pool, where
a call's wall time also counts the time it waited for the interpreter lock;
per-unit layer costs therefore use busy time, and self times and grid cells
use wall time.
"""

import contextlib
import os
import sys
import threading
import time

# Public functions per layer (module of src/mvdlm). linalg is reached only
# through these, so its cost shows in their self time.
TARGETS = {
    "data": ("ingest", "ingest_returns", "to_returns"),
    "config": ("load_config",),
    "model": ("validate",),
    "filter": ("run", "run_constant_volatility", "trajectory_to_csv"),
    "diagnostics": (
        "compute_diagnostics",
        "msse_mae_me",
        "loglik_time_varying",
        "loglik_constant",
        "loglik_arrays",
        "loglik_constant_arrays",
        "var_at_horizon",
        "lbf",
        "lbf_from_trajectories",
        "grid_search",
        "export_report_json",
        "export_report_csv",
    ),
    "distributions": (
        "wishart_sample",
        "singular_beta_sample",
        "evolve_precision",
        "invwishart_sample",
        "mvt_logpdf",
    ),
    "simulate": ("simulate",),
    "cli": ("cmd_fit", "cmd_grid", "cmd_compare", "cmd_diagnose"),
}


def _length_of_first(args, kwargs, result):
    return len(args[0])


def _length_of_result(args, kwargs, result):
    return len(result)


def _export_size(args, kwargs, result):
    return (len(args[0]), os.path.getsize(args[1]))


def _grid_counts(args, kwargs, result):
    return (len(result.rows), len(result.excluded))


# Work done by one call, read from its arguments or result: rows, steps,
# (rows, bytes) or (cells scored, cells excluded).
UNITS = {
    "data.ingest": _length_of_result,
    "data.ingest_returns": _length_of_result,
    "filter.run": _length_of_result,
    "filter.trajectory_to_csv": _export_size,
    "diagnostics.loglik_time_varying": _length_of_first,
    "diagnostics.loglik_constant": _length_of_first,
    "diagnostics.loglik_arrays": _length_of_first,
    "diagnostics.loglik_constant_arrays": _length_of_first,
    "diagnostics.lbf": _length_of_result,
    "diagnostics.grid_search": _grid_counts,
    "simulate.simulate": _length_of_result,
}

# Span fields.
NAME, TAG, START, END, PARENT, UNIT, CPU_START, CPU_END = range(8)


class Tracer:
    """In-memory span recorder with monkeypatch install/uninstall."""

    def __init__(self):
        self.spans = []
        self.tag = "work"
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._patches = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            # A worker thread of the program: its caller is the span the
            # main thread is blocked in.
            parent = self._main_stack[-1]
        else:
            parent = -1
        span = [name, self.tag, time.perf_counter(), None, parent, None,
                time.thread_time(), None]
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        span[CPU_END] = time.thread_time()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name):
        """A benchmark-level span around a block."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, func):
        units = UNITS.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if units is not None:
                span[UNIT] = units(args, kwargs, result)
            return result

        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        traced.__wrapped__ = func
        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "mvdlm" or key.startswith("mvdlm."))]
        for layer, names in TARGETS.items():
            owner = sys.modules.get(f"mvdlm.{layer}")
            if owner is None:
                continue
            for attr in names:
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patches.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def write_csv(self, path):
        origin = min((s[START] for s in self.spans), default=0.0)
        lines = ["id,name,tag,start_us,end_us,busy_us,parent,units"]
        for i, s in enumerate(self.spans):
            unit = s[UNIT]
            unit_txt = "" if unit is None else (
                " ".join(str(x) for x in unit) if isinstance(unit, tuple) else str(unit))
            lines.append(
                f"{i},{s[NAME]},{s[TAG]},{(s[START] - origin) * 1e6:.3f},"
                f"{(s[END] - origin) * 1e6:.3f},{(s[CPU_END] - s[CPU_START]) * 1e6:.3f},"
                f"{s[PARENT]},{unit_txt}"
            )
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")


def self_times(spans):
    """Duration of each span minus the part its children cover."""
    children = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s[START]
        for start, end in sorted((spans[c][START], spans[c][END]) for c in children.get(i, ())):
            start = max(start, cursor)
            end = min(end, s[END])
            if end > start:
                covered += end - start
                cursor = end
        out.append(s[END] - s[START] - covered)
    return out


class LayerView:
    """Per-layer figures from the spans: the workload's own spans where it
    reaches a layer (its rounds, then the extra work of its traced run),
    else the probe's. Spans tagged otherwise (the probe's warm-up) are
    ignored."""

    def __init__(self, spans, rounds):
        self.spans = spans
        self.rounds = max(rounds, 1)
        self.self_time = self_times(spans)
        self.by_name = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[NAME], []).append(i)

    def _pick(self, names, keep=None):
        for tag in ("work", "extra", "probe"):
            found = [
                i for name in names for i in self.by_name.get(name, ())
                if self.spans[i][TAG] == tag and (keep is None or keep(i))
            ]
            if found:
                return found
        return []

    def _time(self, i, how):
        s = self.spans[i]
        if how == "busy":
            return s[CPU_END] - s[CPU_START]
        if how == "self":
            return self.self_time[i]
        return s[END] - s[START]

    def _parent_name(self, i):
        parent = self.spans[i][PARENT]
        return self.spans[parent][NAME] if parent >= 0 else None

    def mean(self, names, scale, how="busy", keep=None):
        idx = self._pick(names, keep)
        if not idx:
            return 0.0
        return scale * sum(self._time(i, how) for i in idx) / len(idx)

    def per_unit(self, names, scale, unit_index=None, how="busy", keep=None):
        """Time per unit of work, over the calls that returned."""
        idx = [i for i in self._pick(names, keep) if self.spans[i][UNIT] is not None]
        units = 0
        for i in idx:
            u = self.spans[i][UNIT]
            units += u[unit_index] if unit_index is not None else u
        if not units:
            return 0.0
        return scale * sum(self._time(i, how) for i in idx) / units

    def work_units_per_round(self, name, unit_index=None, keep=None):
        total = 0
        for i in self.by_name.get(name, ()):
            s = self.spans[i]
            if s[TAG] == "work" and s[UNIT] is not None and (keep is None or keep(i)):
                total += s[UNIT][unit_index] if unit_index is not None else s[UNIT]
        return total / self.rounds

    def mean_unit(self, name, unit_index, keep=None):
        idx = [i for i in self._pick([name], keep) if self.spans[i][UNIT] is not None]
        if not idx:
            return 0.0
        return sum(self.spans[i][UNIT][unit_index] for i in idx) / len(idx)

    def metrics(self):
        serial = lambda i: self._parent_name(i) == "bench.grid_serial"  # noqa: E731
        pooled = lambda i: not serial(i)  # noqa: E731
        outer = ("diagnostics.loglik_time_varying", "diagnostics.loglik_constant")
        top_loglik = lambda i: (  # noqa: E731
            self.spans[i][NAME] in outer or self._parent_name(i) not in outer
        )
        loglik_names = outer + ("diagnostics.loglik_arrays", "diagnostics.loglik_constant_arrays")
        return {
            "data.ingest_us_per_row": (
                self.per_unit(["data.ingest", "data.ingest_returns"], 1e6), "us"),
            "config.load_us": (self.mean(["config.load_config"], 1e6), "us"),
            "cli.fit_self_ms": (self.mean(["cli.cmd_fit"], 1e3, how="self"), "ms"),
            "cli.grid_self_ms": (self.mean(["cli.cmd_grid"], 1e3, how="self"), "ms"),
            "model.validate_us": (self.mean(["model.validate"], 1e6), "us"),
            "filter.run_us_per_step": (self.per_unit(["filter.run"], 1e6), "us"),
            "filter.export_us_per_row": (
                self.per_unit(["filter.trajectory_to_csv"], 1e6, unit_index=0), "us"),
            "filter.export_bytes": (
                self.mean_unit("filter.trajectory_to_csv", 1), "bytes"),
            "filter.steps": (self.work_units_per_round("filter.run"), "count"),
            "diagnostics.loglik_us_per_step": (
                self.per_unit(loglik_names, 1e6, keep=top_loglik), "us"),
            "diagnostics.msse_ms": (self.mean(["diagnostics.msse_mae_me"], 1e3), "ms"),
            "diagnostics.var_us": (self.mean(["diagnostics.var_at_horizon"], 1e6), "us"),
            "diagnostics.lbf_us_per_step": (self.per_unit(["diagnostics.lbf"], 1e6), "us"),
            "distributions.mvt_logpdf_us": (
                self.mean(["distributions.mvt_logpdf"], 1e6), "us"),
            "diagnostics.grid_cell_ms": (
                self.per_unit(["diagnostics.grid_search"], 1e3, unit_index=0, how="wall",
                              keep=pooled), "ms"),
            "diagnostics.grid_serial_cell_ms": (
                self.per_unit(["diagnostics.grid_search"], 1e3, unit_index=0, how="wall",
                              keep=serial), "ms"),
            "diagnostics.cells_scored": (
                self.work_units_per_round("diagnostics.grid_search", 0, keep=pooled), "count"),
            "diagnostics.cells_excluded": (
                self.work_units_per_round("diagnostics.grid_search", 1, keep=pooled), "count"),
            "distributions.wishart_us": (
                self.mean(["distributions.wishart_sample"], 1e6), "us"),
            "distributions.singular_beta_us": (
                self.mean(["distributions.singular_beta_sample"], 1e6), "us"),
            "distributions.evolve_precision_us": (
                self.mean(["distributions.evolve_precision"], 1e6), "us"),
            "distributions.invwishart_us": (
                self.mean(["distributions.invwishart_sample"], 1e6), "us"),
            "simulate.us_per_step": (self.per_unit(["simulate.simulate"], 1e6), "us"),
        }
