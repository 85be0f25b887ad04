"""Output checks.  Each returns None for a correct output or a one-line reason.

Every reference value here is computed independently of the library: the
closed forms are recomputed from the arguments the benchmark passed, and the
series the ingest workload reads back are compared with what the synthetic
generator wrote.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _reject_constant(name):
    raise ValueError("non-finite JSON constant %s" % name)


def strict_json(text):
    """Parse JSON, refusing NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _close(got, want, rel):
    return abs(got - want) <= rel * abs(want)


def check_command(command, params, exit_code, stdout, stderr, first_stdout=None):
    """Check one `lockcycle <command> --format json` run.

    params holds the alpha, beta and period the benchmark passed to the
    strategy commands.  first_stdout is the stdout of the first identical
    command in the session, if there was one.
    """
    if exit_code != 0:
        return "%s exited %r: %s" % (command, exit_code, stderr.strip()[-200:])
    if stderr:
        return "%s wrote to stderr: %s" % (command, stderr.strip()[-200:])
    try:
        payload = strict_json(stdout)
    except ValueError as exc:
        return "%s stdout is not strict JSON: %s" % (command, exc)
    if first_stdout is not None and stdout != first_stdout:
        return "%s stdout differs from an identical earlier run" % command
    try:
        return _COMMAND_CHECKS[command](payload, params)
    except (KeyError, IndexError, TypeError) as exc:
        return "%s payload is malformed: %r" % (command, exc)


def _schedule(p, params):
    if not abs(p["average_rt"] - 1.0) <= 1e-12:
        return "schedule average_rt %r is not 1" % p["average_rt"]
    return None


def _simulate(p, params):
    start, end = p["active"][0], p["active"][-1]
    if not _close(end, start, 1e-9):
        return "simulate ends at %r, starts at %r" % (end, start)
    return None


def _compare_costs(p, params):
    alpha, beta, period = params["alpha"], params["beta"], params["period"]
    want = math.exp(alpha * (beta * period / (alpha + beta)))
    if not _close(p["ratio_oc_over_co"], want, 1e-9):
        return "compare-costs ratio %r, exp(alpha*t_open) is %r" % (p["ratio_oc_over_co"], want)
    return None


def _fit_cfr(p, params):
    if p["delay_k"] != 3 or not 0.0080 <= p["cfr"] <= 0.0090:
        return "fit-cfr on Israel gave delay %r, cfr %r" % (p["delay_k"], p["cfr"])
    return None


_INGEST_KINDS = {"confirmed_cumulative", "deaths_cumulative", "recovered_cumulative",
                 "new_cases", "daily_deaths", "active_cases"}


def _ingest(p, params):
    kinds = {row["kind"] for row in p}
    if kinds != _INGEST_KINDS:
        return "ingest emitted kinds %s" % sorted(kinds)
    return None


def _validate(p, params):
    failed = [c["name"] for c in p["checks"] if c["ok"] is not True]
    if failed:
        return "validate failed checks %s" % failed
    return None


_COMMAND_CHECKS = {
    "schedule": _schedule,
    "simulate": _simulate,
    "compare-costs": _compare_costs,
    "fit-cfr": _fit_cfr,
    "ingest": _ingest,
    "validate": _validate,
}


def check_fit(model, job, predicted=None):
    """Check one fit_batch result.

    Every fit must be finite with a case fatality in [0, 1].  A noiseless job
    must recover its generating delay exactly, and the prediction from the
    fitted kernel must reproduce the generating deaths.
    """
    values = (model.decay_a, model.scale_b, model.cfr, model.sse)
    if not all(math.isfinite(v) for v in values):
        return "fit %d is not finite: %r" % (job.index, values)
    if not 0.0 <= model.cfr <= 1.0:
        return "fit %d cfr %r outside [0, 1]" % (job.index, model.cfr)
    if job.true_k is None:
        return None
    if model.delay_k != job.true_k:
        return "fit %d chose delay %d, generating delay is %d" % (job.index, model.delay_k, job.true_k)
    err = np.max(np.abs(predicted - job.true_deaths)) / np.max(job.true_deaths)
    if not err <= 1e-6:
        return "fit %d prediction is off the generating deaths by %.3g" % (job.index, err)
    return None


def check_ingest(exit_codes, stderr, json_text, read_back, expected):
    """Check one ingest_bulk op: both exports succeeded quietly, the JSON file
    is strict, and each format reads back exactly the series written."""
    if exit_codes != (0, 0):
        return "ingest exited %r: %s" % (exit_codes, stderr.strip()[-200:])
    if stderr:
        return "ingest wrote to stderr: %s" % stderr.strip()[-200:]
    try:
        strict_json(json_text)
    except ValueError as exc:
        return "ingest JSON file is not strict JSON: %s" % exc
    for fmt, back in read_back.items():
        if set(back) != set(expected):
            return "%s read-back kinds %s" % (fmt, sorted(back))
        for kind, (start, values) in expected.items():
            got = back[kind]
            if got.start_date != start or not np.array_equal(got.values, values):
                return "%s read-back of %s differs from the written series" % (fmt, kind)
    return None
