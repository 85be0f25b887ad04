"""The pair-benchmark tool's summary and run parsing, on canned result lines."""

import importlib.util
import json
import os

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
    assert summary["failed"] == {"parent": 4, "change": 0}


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
