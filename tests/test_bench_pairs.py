"""The pair-benchmark tool's summary and run parsing, on canned result lines,
and its clean-up when it is stopped."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(ops_per_s, p50_ms, failed=0):
    return {"correct": not failed, "attempted": 100, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                        "op_p50_ms": {"value": p50_ms, "unit": "ms"},
                        "unlisted": {"value": 1.0, "unit": "-"}}}


BETTER = {"ops_per_s": "higher", "op_p50_ms": "lower"}


def test_summary_counts_wins_and_compares_with_the_parent_spread(tool):
    parent = [100.0, 110.0, 120.0, 130.0, 140.0]
    change = [150.0, 160.0, 120.0, 170.0, 90.0]  # one tie, one loss
    pairs = [(result(p, 5.0), result(c, 5.0 - i)) for i, (p, c) in enumerate(zip(parent, change))]
    summary = tool.summarize(pairs, BETTER)
    ops = summary["ops_per_s"]
    assert ops["parent"] == {"median": 120.0, "q1": 105.0, "q3": 135.0}
    assert ops["change"]["median"] == 150.0
    assert ops["pairs_won"] == 3 and ops["pairs"] == 5
    # gain 30 does not exceed the parent's interquartile spread of 30
    assert ops["beats_parent_iqr"] is False
    assert ops["change_over_parent"] == pytest.approx(1.25)
    # lower is better: every change run but the tied first one wins, and
    # the parent's runs have no spread at all
    p50 = summary["op_p50_ms"]
    assert p50["pairs_won"] == 4
    assert p50["parent"] == {"median": 5.0, "q1": 5.0, "q3": 5.0}
    assert p50["beats_parent_iqr"] is True
    assert "unlisted" not in summary
    assert summary["failed"] == {"parent": 0, "change": 0}


def test_summary_of_a_worse_change_claims_nothing(tool):
    pairs = [(result(100.0 + i, 5.0, failed=1), result(80.0 + i, 6.0)) for i in range(4)]
    summary = tool.summarize(pairs, BETTER)
    for name in BETTER:
        assert summary[name]["pairs_won"] == 0
        assert summary[name]["beats_parent_iqr"] is False
        assert summary[name]["claim_met"] is False
    assert summary["failed"] == {"parent": 4, "change": 0}


def test_a_claim_needs_nine_pairs_in_ten_and_the_parent_spread(tool):
    parent = [100.0, 102.0, 104.0, 106.0, 108.0, 110.0, 112.0, 114.0, 116.0, 118.0]

    def claim(change):
        pairs = [(result(p, 5.0), result(c, 5.0)) for p, c in zip(parent, change)]
        return tool.summarize(pairs, BETTER)["ops_per_s"]

    # nine wins, and the median gain of 18 exceeds the parent's spread of 11
    ops = claim([p + 20.0 for p in parent[:9]] + [parent[9] - 1.0])
    assert (ops["pairs_won"], ops["beats_parent_iqr"], ops["claim_met"]) == (9, True, True)
    # eight wins are too few, however far apart the medians are
    ops = claim([p + 20.0 for p in parent[:8]] + [p - 1.0 for p in parent[8:]])
    assert (ops["pairs_won"], ops["beats_parent_iqr"], ops["claim_met"]) == (8, True, False)
    # every pair won, but by less than the parent's spread
    ops = claim([p + 1.0 for p in parent])
    assert (ops["pairs_won"], ops["beats_parent_iqr"], ops["claim_met"]) == (10, False, False)
    # equal values are ties, which count as no win
    assert claim(parent)["claim_met"] is False


def test_single_pair_has_its_value_as_every_quartile(tool):
    summary = tool.summarize([(result(100.0, 5.0), result(120.0, 4.0))], BETTER)
    assert summary["ops_per_s"]["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}
    assert summary["ops_per_s"]["beats_parent_iqr"] is True


def test_parse_run_takes_the_environment_and_last_lines(tool):
    env = {"python": "3.11.7", "seed": 7, "src_lines": 1900}
    stdout = "\n".join([
        "lockcycle benchmark: workload fit_batch, seed 7, 50 s, trace off",
        "environment: " + json.dumps(env),
        "  ops_per_s                     120 1/s       ...",
        json.dumps(result(120.0, 5.0)),
    ]) + "\n"
    run = tool.parse_run(stdout)
    assert run["environment"] == env
    assert run["result"] == result(120.0, 5.0)
    with pytest.raises(ValueError, match="no environment line"):
        tool.parse_run(json.dumps(result(1.0, 1.0)))


def test_declared_directions_cover_every_benchmark_metric(tool):
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    better, seconds = tool.declared(root)
    assert seconds > 0
    assert better["ops_per_s"] == "higher" and better["setup_s"] == "lower"
    assert better["cfr.fit_ms"] == "lower"
    assert set(better.values()) == {"higher", "lower"}


def processes_naming(text):
    """{pid: command line} of the live processes whose command line holds text."""
    found = {}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as fh:
                cmdline = fh.read()
        except OSError:  # ended meanwhile
            continue
        if text.encode() in cmdline:
            found[int(pid)] = cmdline
    return found


def wait_for(condition, seconds=60.0):
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists processes through /proc")
def test_sigterm_kills_the_run_and_removes_the_export(tmp_path):
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True).returncode:
        pytest.skip("not a git checkout")
    cmd = [sys.executable, TOOL, "--parent", "HEAD", "--out", str(tmp_path / "bench.json"),
           "--workload", "fit_batch", "--seed", "7", "--pairs", "1"]
    tool = subprocess.Popen(cmd, env=dict(os.environ, TMPDIR=str(tmp_path)),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        exports = lambda: [p for p in tmp_path.iterdir() if p.name.startswith("bench-parent-")]
        assert wait_for(exports)
        export = str(exports()[0])
        # the first pair runs the parent side first, from the export; the
        # run starts fresh interpreters of its own to time its set-up
        runs = lambda: [pid for pid, cmdline in processes_naming(export).items()
                        if b"--setup-only" not in cmdline]
        assert wait_for(runs)
        (run,) = runs()
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        if tool.poll() is None:
            tool.kill()
            tool.wait()
    assert not os.path.exists(export)
    assert not (tmp_path / "bench.json").exists()
    # the tool waited for the run, so it has ended, not merely been signalled
    assert not os.path.exists("/proc/%d" % run)
    # a set-up interpreter ends once it finds the run's pipe closed
    assert wait_for(lambda: not processes_naming(str(tmp_path)), 10.0)
