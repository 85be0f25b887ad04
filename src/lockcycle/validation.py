"""Two-cycle validation against a case-data snapshot.

Israel ran two back-to-back 54-day cycles in late 2020, open-first then
close-first.  validate() reads each cycle's case total off the cumulative
confirmed curve at the cycle boundaries, turns the totals into death
estimates with one case fatality rate (fitted to the snapshot, or given),
checks them, the active-case anchors and the model's peak-over-baseline
ratio against the documented figures, and returns it all as one document.
It first runs verify_checksums(), which confirms that a snapshot directory
still matches its MANIFEST.json.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import os

from . import cfr as cfr_fit
from . import series as ser
from .core import _require_finite

__all__ = ["OC_START", "CYCLE_SPLIT", "PERIOD_END", "ANCHORS", "TOLERANCES",
           "verify_checksums", "check_cfr", "validate"]

# The two cycles as boundary dates: open-first [OC_START, CYCLE_SPLIT),
# close-first [CYCLE_SPLIT, PERIOD_END).
OC_START = dt.date(2020, 8, 30)
CYCLE_SPLIT = dt.date(2020, 10, 23)
PERIOD_END = dt.date(2020, 12, 16)

# (date, active cases) the snapshot must reproduce exactly
ANCHORS = (
    (dt.date(2020, 8, 30), 20876.0),
    (dt.date(2020, 10, 3), 71114.0),
    (dt.date(2020, 11, 16), 8697.0),
    (dt.date(2020, 12, 16), 20791.0),
)

# (name, center, tolerance, kind); rel = fraction of center, abs = plain band
TOLERANCES = (
    ("oc_cases", 190000.0, 0.03, "rel"),
    ("co_cases", 52000.0, 0.03, "rel"),
    ("oc_deaths_est", 1600.0, 0.05, "rel"),
    ("co_deaths_est", 440.0, 0.05, "rel"),
    ("death_ratio", 3.7, 0.2, "abs"),
    ("predicted_ratio_from_model", 3.6, 0.2, "abs"),
)


def verify_checksums(data_dir):
    """Compare every file listed in MANIFEST.json against its sha256.

    The manifest must list each of the JHU_FILENAMES with a sha256 string.
    Returns a list of problem strings; empty means the snapshot is intact.
    """
    import hashlib  # here, so commands that verify no snapshot never load it

    manifest_path = os.path.join(data_dir, "MANIFEST.json")
    if not os.path.exists(manifest_path):
        return ["missing MANIFEST.json in %s" % data_dir]
    try:
        with open(manifest_path, encoding="utf-8-sig") as fh:
            manifest = json.load(fh)
    except (ValueError, OSError) as exc:
        return ["unreadable MANIFEST.json: %s" % exc]
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not isinstance(files, dict):
        return ["MANIFEST.json has no \"files\" object"]
    problems = ["MANIFEST.json does not list %s" % name
                for name in sorted(ser.JHU_FILENAMES.values()) if name not in files]
    for name in sorted(files):
        entry = files[name]
        expected = entry.get("sha256") if isinstance(entry, dict) else None
        if not isinstance(expected, str):
            problems.append("MANIFEST.json has no sha256 string for %s" % name)
            continue
        path = os.path.join(data_dir, name)
        if not os.path.exists(path):
            problems.append("missing data file %s" % name)
            continue
        with open(path, "rb") as fh:
            got = hashlib.sha256(fh.read()).hexdigest()
        if got != expected:
            problems.append("checksum mismatch for %s: manifest has %s, file hashes to %s"
                            % (name, expected, got))
    return problems


def check_cfr(cfr, name="cfr") -> None:
    """Raise ValueError, calling the value name, unless cfr is a fraction in [0, 1]."""
    if not (math.isfinite(cfr) and 0.0 <= cfr <= 1.0):
        raise ValueError("%s must be a finite fraction in [0, 1], got %r" % (name, cfr))


def validate(data_dir, cfr=None):
    """Run the two-cycle validation on the Israel rows of a snapshot.

    cfr, when given, replaces the case fatality rate cfr.fit finds on its
    defaults over series.FIT_FROM..FIT_TO; it must pass check_cfr.  Then
    verify_checksums must find no problem, or ValueError is raised with one
    "snapshot rejected:" line per problem.  Both run before any file is read.

    Returns the validate --format json document, a dict whose windows are
    half-open [start, end) ISO date pairs and whose cfr_source is "fitted",
    or "flag" when cfr was given.  Its last key, checks, holds dicts with
    name, value, low, high and ok: first the exact active-case ANCHORS, then
    the TOLERANCES bands on the document's fields.
    """
    cfr_source = "fitted" if cfr is None else "flag"
    if cfr is not None:
        check_cfr(cfr)
    problems = verify_checksums(data_dir)
    if problems:
        raise ValueError("\n".join("snapshot rejected: %s" % p for p in problems))
    confirmed, deaths, recovered = ser.load_country(data_dir, "Israel")
    active = ser.active_cases(confirmed, deaths, recovered)
    oc_cases = confirmed.value_on(CYCLE_SPLIT) - confirmed.value_on(OC_START)
    co_cases = confirmed.value_on(PERIOD_END) - confirmed.value_on(CYCLE_SPLIT)
    if cfr is None:
        new_cases = ser.window(ser.difference(confirmed), ser.FIT_FROM, ser.FIT_TO)
        daily_deaths = ser.window(ser.difference(deaths), ser.FIT_FROM, ser.FIT_TO)
        cfr = cfr_fit.fit(new_cases, daily_deaths).cfr
    cfr = float(cfr)  # a plain float, so arithmetic and json stay numpy-free
    two_cycles = ser.window(active, OC_START, PERIOD_END)
    doc = {
        "oc_window": [OC_START.isoformat(), CYCLE_SPLIT.isoformat()],
        "co_window": [CYCLE_SPLIT.isoformat(), PERIOD_END.isoformat()],
        "oc_cases": oc_cases,
        "co_cases": co_cases,
        "cfr_used": cfr,
        "cfr_source": cfr_source,
        "oc_deaths_est": oc_cases * cfr,
        "co_deaths_est": co_cases * cfr,
        "death_ratio": oc_cases / co_cases,
        "predicted_ratio_from_model": max(two_cycles.values) / two_cycles.value_on(OC_START),
    }
    # a case total read off finite counts can still leave the float range
    _require_finite(**{k: v for k, v in doc.items() if isinstance(v, float)})

    doc["checks"] = checks = []
    for day, expected in ANCHORS:
        got = active.value_on(day)
        checks.append({"name": "active_%s" % day.isoformat(), "value": got,
                       "low": expected, "high": expected, "ok": got == expected})
    for name, center, tol, kind in TOLERANCES:
        width = center * tol if kind == "rel" else tol
        got = doc[name]
        checks.append({"name": name, "value": got, "low": center - width,
                       "high": center + width, "ok": center - width <= got <= center + width})
    return doc
