"""Per-layer tracing from outside the library.

The layers are the library's modules.  A Tracer wraps every function named
in each layer module's __all__, plus the cli entry point and its cmd_*
handlers, and installs each wrapper on every lockcycle module that bound the
original, since modules import names from one another (cfr binds
series.moving_average directly).  Wrappers are installed only while a traced
op runs, so untraced ops in the same process run the library untouched.

A span is [name, start, end, parent index, op id].  Spans stay in memory and
are written out when the run ends; self time is a span's duration minus the
durations of its direct children.  Counters are added at the same call
boundaries.

The import layer cannot be wrapped this way, so it is measured with
`python -X importtime` in fresh interpreters.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

LAYERS = ("core", "costs", "cfr", "series")


def _fit_counts(args, model):
    delays = int(args["k_range"][1]) - int(args["k_range"][0]) + 1
    return {"cfr.fit_calls": 1, "cfr.delays_searched": delays,
            "cfr.points_fitted": len(model.fitted_deaths) * delays}


def _read_counts(args, result):
    return {"series.rows_read": sum(len(s) for s in result.values())}


# Counters added when a wrapped call returns, from its bound arguments and result.
COUNTERS = {
    "cli.main": lambda args, result: {"cli.calls": 1},
    "series.parse_jhu_timeseries": lambda args, result: {
        "series.parse_calls": 1, "series.parse_bytes": os.path.getsize(args["path"])},
    "series.series_to_rows": lambda args, result: {"series.rows_written": len(result)},
    "series.read_long_csv": _read_counts,
    "series.read_long_json": _read_counts,
    "cfr.fit": _fit_counts,
    "core.solve_trajectory": lambda args, result: {"core.samples": len(result.times)},
}


# Self time per op, summed over the spans each metric names.
TIME_METRICS = {
    "cli.self_ms": ("cli.",),
    "series.parse_ms": ("series.parse_jhu_timeseries",),
    "series.derive_ms": ("series.difference", "series.window", "series.active_cases",
                         "series.moving_average"),
    "series.report_ms": ("series.ingest_report",),
    "series.write_ms": ("series.write_long_csv", "series.write_long_json",
                        "series.series_to_rows"),
    "series.read_ms": ("series.read_long_csv", "series.read_long_json"),
    "cfr.fit_ms": ("cfr.fit",),
    "cfr.cvs_ms": ("cfr.parameter_cvs",),
    "cfr.predict_ms": ("cfr.predict_deaths",),
    "core.solve_ms": ("core.solve_trajectory",),
    "costs.cost_ms": ("costs.",),
}

COUNT_METRICS = {
    "cli.calls": "count/op",
    "cli.stdout_bytes": "B/op",
    "series.parse_calls": "count/op",
    "series.parse_bytes": "B/op",
    "series.rows_written": "count/op",
    "series.rows_read": "count/op",
    "cfr.fit_calls": "count/op",
    "cfr.delays_searched": "count/op",
    "cfr.points_fitted": "count/op",
    "core.samples": "count/op",
}

# -X importtime module names, cumulative.
IMPORT_METRICS = {
    "import.lockcycle_ms": "lockcycle",
    "import.scipy_signal_ms": "scipy.signal",
    "import.numpy_ms": "numpy",
    "import.cli_ms": "lockcycle.cli",
}


def _targets():
    """(span name, function) for every wrapped function."""
    import lockcycle.cli as cli

    out = []
    for layer in LAYERS:
        module = sys.modules["lockcycle." + layer]
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj):
                out.append(("%s.%s" % (layer, attr), obj))
    for attr, obj in vars(cli).items():
        if inspect.isfunction(obj) and (attr == "main" or attr.startswith("cmd_")):
            out.append(("cli.%s" % attr, obj))
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._op = None
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in _targets()}
        self._sites = []
        for modname, module in list(sys.modules.items()):
            if modname != "lockcycle" and not modname.startswith("lockcycle."):
                continue
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._sites.append((module, attr, obj, wrappers[id(obj)]))

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, self._op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    counts[key] += value
            return result

        return wrapper

    @contextlib.contextmanager
    def active(self, op):
        """Install every wrapper for the duration of one op."""
        self._op = op
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._sites:
                setattr(module, attr, original)
            self._op = None

    def self_times(self):
        """Total self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def layer_metrics(self, n_ops):
        """Per-op means of the TIME_METRICS (ms) and COUNT_METRICS."""
        selfs = self.self_times()
        out = {}
        for metric, names in TIME_METRICS.items():
            total = sum(t for span, t in selfs.items()
                        if any(span == n or (n.endswith(".") and span.startswith(n))
                               for n in names))
            out[metric] = (1000.0 * total / n_ops, "ms")
        for metric, unit in COUNT_METRICS.items():
            out[metric] = (self.counts[metric] / n_ops, unit)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def import_times(root, runs):
    """Median cumulative import time in ms of each IMPORT_METRICS module,
    from `python -X importtime -c "import lockcycle"` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    samples = defaultdict(list)
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lockcycle"],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            if not fields[1].strip().isdigit():
                continue
            seen.setdefault(fields[2].strip(), int(fields[1]) / 1000.0)
        for metric, module in IMPORT_METRICS.items():
            samples[metric].append(seen.get(module, 0.0))
    return {metric: (statistics.median(v), "ms") for metric, v in samples.items()}
