"""Tests of the benchmark itself.

    python -m pytest perfbench/tests -q        (from the repository root)
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_reports_every_metric_with_no_failures(workload, trace, group):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[group]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_missing_library_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_scratch", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "fit_batch", 0)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


SCHEDULE_OK = json.dumps({"average_rt": 1.0})
COSTS = {"alpha": 0.04, "beta": 0.05, "period": 54.0}


@pytest.mark.parametrize("command, params, code, stdout, stderr, first", [
    ("schedule", {}, 0, '{"average_rt": NaN}', "", None),
    ("schedule", {}, 0, '{"average_rt": Infinity}', "", None),
    ("schedule", {}, 0, SCHEDULE_OK, "warning: something\n", None),
    ("schedule", {}, 2, SCHEDULE_OK, "", None),
    ("schedule", {}, 0, json.dumps({"average_rt": 1.0 + 1e-9}), "", None),
    ("schedule", {}, 0, SCHEDULE_OK, "", json.dumps({"average_rt": 1})),
    ("simulate", {}, 0, json.dumps({"active": [100.0, 250.0, 100.001]}), "", None),
    ("compare-costs", COSTS, 0, json.dumps({"ratio_oc_over_co": 3.0}), "", None),
    ("fit-cfr", {}, 0, json.dumps({"delay_k": 2, "cfr": 0.0085}), "", None),
    ("validate", {}, 0, json.dumps({"checks": [{"name": "oc_cases", "ok": False}]}), "", None),
    ("validate", {}, 0, json.dumps({"cheks": []}), "", None),
])
def test_checker_rejects_wrong_output(command, params, code, stdout, stderr, first):
    assert checks.check_command(command, params, code, stdout, stderr, first)


def test_checker_accepts_right_output():
    ratio = math.exp(0.04 * (0.05 * 54.0 / 0.09))
    assert checks.check_command("compare-costs", COSTS, 0,
                                json.dumps({"ratio_oc_over_co": ratio}), "") is None
    assert checks.check_command("schedule", {}, 0, SCHEDULE_OK, "", SCHEDULE_OK) is None


class _NaNSession(workloads.CliSession):
    def op(self, i):
        return 0, '{"order": "open-close", "average_rt": NaN}\n', ""


def test_wrong_output_is_counted_as_a_failed_op():
    session = _NaNSession(ROOT, seed=1, workdir=None)
    metrics, _, attempted, failures = run._untraced(
        session, argparse.Namespace(seconds=0), setup=[1.0])
    assert attempted == 1
    assert len(failures) == 1 and "strict JSON" in failures[0][1]
    assert metrics["ops_per_s"][0] == 0.0


def test_throughput_takes_each_op_at_its_upper_quartile():
    # op 0 runs in 1, 1, 1 and 3 s, op 1 always in 2 s: a pass takes 1 + 2 s
    ok = list(enumerate([1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 3.0, 2.0]))
    assert run._throughput(ok, 2) == pytest.approx(2 / 3.0)
