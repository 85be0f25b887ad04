"""Run the benchmark in alternating parent/change pairs and record them.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<n>.json
                                 --workload fit_batch --seed 7 --pairs 10
                                 [--trace 0|1]

The change side is the checkout that holds this file, as it stands on disk.
The parent side is REV, exported with `git archive` into a temporary
directory that is removed afterwards; the repository's own .git is only
read.  Each pair runs perfbench/run.py with the same arguments from both
checkouts, the parent first in even pairs and the change first in odd ones,
each for the run length BENCHMARK.json declares.

The output file holds each side's git revision, a digest of its src/ tree
and its src_lines, then one entry per set of pairs (workload, seed, seconds,
trace) with every run's environment line and last JSON line, and a summary
per metric: each side's median and quartiles, the pairs the change won (ties
count for neither), whether the medians differ, in the metric's better
direction from BENCHMARK.json, by more than the parent's interquartile
spread, and whether both hold strongly enough to claim a gain: at least
nine pairs in ten won and the medians apart by more than that spread.  The file is rewritten after every pair.  A file that already holds
runs of the same two source trees keeps them and gains the new set, so one
file carries several workloads and seeds.

Stopped by SIGTERM or Ctrl-C, the tool sends the running benchmark SIGINT,
on which perfbench/run.py removes its workdir, kills it only if it has not
ended within STOP_WAIT seconds, and removes the exported parent tree;
SIGTERM makes it exit 143.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STOP_WAIT = 30.0


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(rev, dest):
    """Write the tree of git revision rev into the directory dest."""
    archive = _git("archive", "--format=tar", rev)
    # the "data" filter, where this Python has it, refuses links and paths
    # that leave dest
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **safe)


def src_digest(root):
    """sha256 over the paths and bytes of every .py file under root/src."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, files in os.walk(src):
        dirnames.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def parse_run(stdout):
    """The environment line and the final JSON line of one perfbench/run.py run."""
    lines = stdout.strip().splitlines()
    env = [line for line in lines if line.startswith("environment: ")]
    if not env:
        raise ValueError("run printed no environment line")
    return {"environment": json.loads(env[-1][len("environment: "):]),
            "result": json.loads(lines[-1])}


def _heed_sigint():
    # Python turns SIGINT into KeyboardInterrupt only if it did not start
    # with SIGINT ignored, as a job that a script puts in the background does
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def run_once(root, args, seconds):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    # the run has a session of its own, so a Ctrl-C at the terminal reaches
    # only this tool, which passes one SIGINT on
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True, preexec_fn=_heed_sigint) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(STOP_WAIT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode, stderr))
    return parse_run(stdout)


def _spread(values):
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs, better):
    """Per-metric summary of (parent result, change result) pairs.

    better maps a metric name to "higher" or "lower"; metrics without a
    direction are left out.
    """
    summary = {}
    names = [n for n in pairs[0][0]["metrics"] if n in better]
    for name in names:
        sign = 1.0 if better[name] == "higher" else -1.0
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        old, new = _spread(parent), _spread(change)
        gain = sign * (new["median"] - old["median"])
        won = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
        beats_iqr = gain > old["q3"] - old["q1"]
        summary[name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "better": better[name],
            "parent": old,
            "change": new,
            "change_over_parent": new["median"] / old["median"] if old["median"] else None,
            "pairs_won": won,
            "pairs": len(pairs),
            "beats_parent_iqr": beats_iqr,
            "claim_met": 10 * won >= 9 * len(pairs) and beats_iqr,
        }
    summary["failed"] = {"parent": sum(p["failed"] for p, _ in pairs),
                         "change": sum(c["failed"] for _, c in pairs)}
    return summary


def declared(root):
    """Each metric's better direction and the run length, from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench.get("per_layer", [])}
    return better, bench["run_seconds"]


def _side(root, revision, dirty):
    return {"revision": revision, "dirty": dirty, "src_sha256": src_digest(root)}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--out", required=True, help="BENCH_<n>.json file to write or extend")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _stop(signum, frame):
    # run_once stops the running benchmark on any exception, and main's
    # finally removes the export
    raise SystemExit(128 + signum)


def main(argv=None):
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _stop)
    parent_rev = _git("rev-parse", args.parent).decode().strip()
    head = _git("rev-parse", "HEAD").decode().strip()
    dirty = bool(_git("status", "--porcelain", "--", "src", "perfbench").strip())
    better, seconds = declared(ROOT)
    parent_root = tempfile.mkdtemp(prefix="bench-parent-")
    try:
        export(parent_rev, parent_root)
        sides = {"parent": (parent_root, _side(parent_root, parent_rev, False)),
                 "change": (ROOT, _side(ROOT, head, dirty))}
        record = {"parent": sides["parent"][1], "change": sides["change"][1], "sets": []}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                old = json.load(fh)
            for name in ("parent", "change"):
                if old[name]["src_sha256"] != record[name]["src_sha256"]:
                    print("error: %s holds runs of another %s source tree" % (args.out, name),
                          file=sys.stderr)
                    return 2
            record["sets"] = old["sets"]
        entry = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
                 "trace": args.trace, "runs": []}
        record["sets"].append(entry)
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for name in order:
                print("pair %d/%d: %s" % (i + 1, args.pairs, name), file=sys.stderr, flush=True)
                pair[name] = run_once(sides[name][0], args, seconds)
            entry["runs"].append(pair)
            entry["summary"] = summarize([(r["parent"]["result"], r["change"]["result"])
                                          for r in entry["runs"]], better)
            record["parent"]["src_lines"] = pair["parent"]["environment"]["src_lines"]
            record["change"]["src_lines"] = pair["change"]["environment"]["src_lines"]
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
    finally:
        shutil.rmtree(parent_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
