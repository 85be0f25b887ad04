"""lockcycle benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload {cli_session,fit_batch,ingest_bulk}
                             --seed N --seconds S --trace {0,1}

Paths resolve against the checkout that holds this file; the library is
imported from its src/ directory, and scratch files go to perfbench/_scratch.
Each workload (see workloads.py) is one client in a closed loop that runs ops
for S seconds and checks every output; a wrong output or a raised error is a
failed op.  The seed sets every input.

With --trace 0 the run reports the end-to-end metrics, measured untraced:

  setup_s     median of three fresh-interpreter set-ups, each timed from
              spawn to ready: interpreter start and import lockcycle, plus
              the synthetic snapshot, its parsed series and a warm-up op for
              fit_batch and ingest_bulk
  op_p50_ms   median wall time of a successful op
  op_tail_ms  wall time at the workload's fixed tail percentile (nearest
              rank), chosen so a run at the parent's speed has at least ten
              ops above it
  ops_per_s   ops per second over one pass through the workload's op list,
              each op at the upper quartile (nearest rank) of its wall times
              in the run.  The shared 2-vCPU host this was tuned on switches
              between speed states about 1.4x apart that last tens of
              seconds; a mean or median follows whichever state held most of
              a run, the upper quartile only one that held three quarters
  max_rss_mb  peak resident memory: over the child processes (set-ups and
              commands) for cli_session, of this process otherwise

fail_ratio (failed / attempted) is printed with them and carried by the
"attempted" and "failed" fields of the result line; it reads 0 on correct
code, so it has no relative regression bound in BENCHMARK.json.

With --trace 1 a separate run reports per-layer metrics (see tracing.py):
traced and untraced ops alternate on the same inputs, layer self times and
counters are per traced op, and trace.overhead_ratio is the median traced /
untraced time of a pair.  cli_session replays its commands in-process through
cli.main here, and every workload adds fresh-interpreter -X importtime runs
for the import layer.  Spans are written to
perfbench/_scratch/spans-<workload>-seed<N>.jsonl.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(HERE, "_scratch")

SETUP_RUNS = 3
IMPORT_RUNS = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def _make(name, seed, workdir, traced):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliSession:
        return cls(ROOT, seed, workdir, in_process=traced)
    return cls(ROOT, seed, workdir)


def _time_setup(args):
    """Wall time from spawning a fresh interpreter to its set-up being done."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError("%s set-up failed with exit code %s" % (args.workload, code))
    return elapsed


def _attempt(workload, i):
    """Run and check op i; returns (seconds, None or the failure reason)."""
    start = time.perf_counter()
    try:
        output = workload.op(i)
    except Exception:  # a crashing op is a failed op; the run goes on
        return time.perf_counter() - start, traceback.format_exc(limit=4), None
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workload.check(i, output), output
    except Exception:
        return elapsed, "check raised:\n" + traceback.format_exc(limit=4), output


def _nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def _throughput(ok, cycle):
    """Ops per second over one pass of `cycle` distinct ops, each taken at the
    upper quartile of its times; ok holds (op number, seconds) of the
    successful ops."""
    times = {}
    for i, elapsed in ok:
        times.setdefault(i % cycle, []).append(elapsed)
    if not times:
        return 0.0
    return len(times) / sum(_nearest_rank(t, 75) for t in times.values())


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _environment(seed):
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "seed": seed, "src_lines": src_lines}


def _untraced(workload, args, setup):
    deadline = time.perf_counter() + args.seconds
    ok, failures, i = [], [], 0
    while i == 0 or time.perf_counter() < deadline:
        elapsed, err, _ = _attempt(workload, i)
        if err:
            failures.append((i, err))
        else:
            ok.append((i, elapsed))
        i += 1
    who = (resource.RUSAGE_CHILDREN if isinstance(workload, workloads.CliSession)
           else resource.RUSAGE_SELF)
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    op_times = [elapsed for _, elapsed in ok]
    n = len(op_times)
    tail = workload.tail_pct
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ms": (1000.0 * statistics.median(op_times) if n else 0.0, "ms"),
        "op_tail_ms": (1000.0 * _nearest_rank(op_times, tail) if n else 0.0, "ms"),
        "ops_per_s": (_throughput(ok, len(workload)), "1/s"),
        "max_rss_mb": (rss_mb, "MB"),
    }
    above = n - math.ceil(tail / 100.0 * n) if n else 0
    q_setup, q_ok = _quartiles(setup), _quartiles([1000.0 * t for t in op_times] or [0.0])
    notes = {
        "setup_s": "median of %d set-ups (q1 %.4f, q3 %.4f)" % (len(setup), *q_setup),
        "op_p50_ms": "median of %d ops (q1 %.4f, q3 %.4f)" % (n, *q_ok),
        "op_tail_ms": "p%g of %d ops, %d above it" % (tail, n, above),
        "ops_per_s": "%d ops, per-op upper quartiles over a pass of %d" % (n, len(workload)),
        "max_rss_mb": "peak of the %s" % ("child processes" if who == resource.RUSAGE_CHILDREN
                                          else "benchmark process"),
    }
    return metrics, notes, i, failures


def _traced(workload, args):
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + args.seconds
    metrics = tracing.import_times(ROOT, IMPORT_RUNS)
    ratios, failures, attempted, i = [], [], 0, 0
    while i == 0 or time.perf_counter() < deadline:
        pair = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.active(i):
                    elapsed, err, output = _attempt(workload, i)
                if output is not None:
                    tracer.counts["cli.stdout_bytes"] += workload.stdout_bytes(output)
            else:
                elapsed, err, _ = _attempt(workload, i)
            attempted += 1
            if err:
                failures.append((i, err))
            else:
                pair[traced] = elapsed
        if len(pair) == 2:
            ratios.append(pair[True] / pair[False])
        i += 1
    metrics.update(tracer.layer_metrics(i))
    noiseless = getattr(workload, "noiseless_fits", 0)
    metrics["cfr.delay_recovered_ratio"] = (
        workload.delays_recovered / noiseless if noiseless else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios) if ratios else 0.0, "ratio")
    tracer.write(os.path.join(SCRATCH, "spans-%s-seed%d.jsonl" % (args.workload, args.seed)))
    notes = {name: "per traced op, %d traced ops" % i for name in metrics}
    for name in tracing.IMPORT_METRICS:
        notes[name] = "median cumulative of %d -X importtime runs" % IMPORT_RUNS
    notes["cfr.delay_recovered_ratio"] = "of %d noiseless fits, 0 when there are none" % noiseless
    notes["trace.overhead_ratio"] = "median of %d traced/untraced pairs" % len(ratios)
    return metrics, notes, attempted, failures


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "lockcycle", "__init__.py")):
        print("error: no lockcycle package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=SCRATCH)
    try:
        if args.setup_only:
            _make(args.workload, args.seed, workdir, traced=False)
            print("ready", flush=True)
            return 0
        if args.trace:
            workload = _make(args.workload, args.seed, workdir, traced=True)
            metrics, notes, attempted, failures = _traced(workload, args)
        else:
            setup = [_time_setup(args) for _ in range(SETUP_RUNS)]
            workload = _make(args.workload, args.seed, workdir, traced=False)
            metrics, notes, attempted, failures = _untraced(workload, args, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for i, err in failures[:5]:
        print("op %d failed: %s" % (i, err.rstrip()), file=sys.stderr)
    print("lockcycle benchmark: workload %s, seed %d, %g s, trace %s"
          % (args.workload, args.seed, args.seconds, "on" if args.trace else "off"))
    print("environment: %s" % json.dumps(_environment(args.seed)))
    for name, (value, unit) in metrics.items():
        print("  %-28s %14.6g %-9s %s" % (name, value, unit, notes[name]))
    print("  %-28s %14.6g %-9s %d failed of %d attempted"
          % ("fail_ratio", len(failures) / attempted, "-", len(failures), attempted))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
