"""Seeded synthetic snapshot in the JHU CSSE global wide-format layout.

Every row gets daily new cases shaped as a few epidemic waves that begin
after a run of zero days, and daily deaths made from those cases by the
geometric delay kernel the library fits: d(t) = b*s(t) with
s(t) = a*s(t-1) + n(t-k) from zero state.  Each row draws its own generating
(k, a, b).

Noiseless rows are written as exact floats, so a fit on them must recover the
generating delay.  Noisy rows draw Poisson counts and are written as integers,
like the published files, and their recovered column carries one downward
revision so the ingest anomaly report has something to list.

The seed sets the country count, the province split, the day count and every
row's kernel; the caller fixes the row count and the day range, which set
the file size.
"""

from __future__ import annotations

import csv
import datetime as dt
import os
from dataclasses import dataclass

import numpy as np

START = dt.date(2020, 1, 22)

FILENAMES = {
    "confirmed_cumulative": "time_series_covid19_confirmed_global.csv",
    "deaths_cumulative": "time_series_covid19_deaths_global.csv",
    "recovered_cumulative": "time_series_covid19_recovered_global.csv",
}

# Quoted names with commas, as in the published files.
COMMA_COUNTRY = "Korea, South"
COMMA_PROVINCE = "Bonaire, Sint Eustatius and Saba"

# The first wave is short and early, so a window of 120 days holds all of it
# and the kernel decay is identifiable even in the shortest fit.
ZERO_DAYS = (8, 16)
FIRST_WAVE_CENTER = (30, 45)
FIRST_WAVE_WIDTH = (6.0, 12.0)
WAVE_HEIGHT = (2000.0, 8000.0)


@dataclass(frozen=True)
class Row:
    """One snapshot row with its generating kernel and cumulative columns."""

    province: str
    country: str
    k: int
    a: float
    b: float
    noiseless: bool
    daily_deaths: np.ndarray
    cumulative: dict


@dataclass(frozen=True)
class Snapshot:
    start: dt.date
    days: int
    rows: tuple

    def countries(self):
        seen = []
        for row in self.rows:
            if row.country not in seen:
                seen.append(row.country)
        return seen

    def country_total(self, country: str, kind: str) -> np.ndarray:
        """Sum of a country's rows in file order, as a reader of the file sums them."""
        total = np.zeros(self.days)
        for row in self.rows:
            if row.country == country:
                total += row.cumulative[kind]
        return total

    def write(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        header = ["Province/State", "Country/Region", "Lat", "Long"]
        header += ["%d/%d/%02d" % (d.month, d.day, d.year % 100)
                   for d in (self.start + dt.timedelta(days=i) for i in range(self.days))]
        for kind, name in FILENAMES.items():
            with open(os.path.join(directory, name), "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(header)
                for i, row in enumerate(self.rows):
                    values = row.cumulative[kind]
                    cells = (map(repr, values.tolist()) if row.noiseless
                             else map(str, values.astype(np.int64).tolist()))
                    w.writerow([row.province, row.country,
                                "%.4f" % (-40.0 + (i * 7.31) % 80.0),
                                "%.4f" % (-170.0 + (i * 13.7) % 340.0), *cells])


def kernel_deaths(cases: np.ndarray, k: int, a: float, b: float) -> np.ndarray:
    """b*s(t) with s(t) = a*s(t-1) + n(t-k), zero state before day 0."""
    delayed = np.zeros_like(cases)
    delayed[k:] = cases[:len(cases) - k]
    s = np.empty_like(cases)
    acc = 0.0
    for t, x in enumerate(delayed.tolist()):
        acc = a * acc + x
        s[t] = acc
    return b * s


def _waves(rng, days: int) -> np.ndarray:
    t = np.arange(days, dtype=float)
    zero = int(rng.integers(*ZERO_DAYS))
    centers = [zero + rng.uniform(*FIRST_WAVE_CENTER)]
    widths = [rng.uniform(*FIRST_WAVE_WIDTH)]
    for _ in range(int(rng.integers(1, 4))):
        centers.append(rng.uniform(centers[0] + 60.0, days - 20.0))
        widths.append(rng.uniform(10.0, 60.0))
    cases = np.zeros(days)
    for c, w in zip(centers, widths):
        cases += rng.uniform(*WAVE_HEIGHT) * np.exp(-0.5 * ((t - c) / w) ** 2)
    cases[:zero] = 0.0
    return cases


def _row(rng, province: str, country: str, days: int, noiseless: bool) -> Row:
    k = int(rng.integers(0, 15))
    a = float(rng.uniform(0.3, 0.9))
    b = float(rng.uniform(0.01, 0.03)) * (1.0 - a)
    cases = _waves(rng, days)
    if not noiseless:
        cases = rng.poisson(cases).astype(float)
    deaths = kernel_deaths(cases, k, a, b)
    recovered = np.zeros(days)
    recovered[14:] = 0.97 * cases[:-14]
    if not noiseless:
        deaths = rng.poisson(deaths).astype(float)
        recovered = np.round(recovered)
    cumulative = {
        "confirmed_cumulative": np.cumsum(cases),
        "deaths_cumulative": np.cumsum(deaths),
        "recovered_cumulative": np.cumsum(recovered),
    }
    if not noiseless:
        rec = cumulative["recovered_cumulative"]
        day = int(rng.integers(days // 2, days - 1))
        rec[day:] -= min(50.0, rec[day])
    return Row(province, country, k, a, b, noiseless, deaths, cumulative)


def generate(seed: int, n_rows: int, days_range: tuple, noiseless_every: int) -> Snapshot:
    """A snapshot of n_rows rows; every noiseless_every-th row is noiseless.

    Countries hold one row (no province) or two to six named provinces; the
    first country is "Korea, South" and one province name contains a comma.
    """
    rng = np.random.default_rng(seed)
    days = int(rng.integers(days_range[0], days_range[1] + 1))
    rows = []
    n_country = 0
    comma_province = False
    while len(rows) < n_rows:
        country = COMMA_COUNTRY if n_country == 0 else "Country %03d" % n_country
        n_country += 1
        split = 1 if rng.random() < 0.6 else int(rng.integers(2, 7))
        split = min(split, n_rows - len(rows))
        for p in range(split):
            if split == 1:
                province = ""
            elif not comma_province:
                province, comma_province = COMMA_PROVINCE, True
            else:
                province = "Province %d" % (p + 1)
            noiseless = len(rows) % noiseless_every == 0
            rows.append(_row(rng, province, country, days, noiseless))
    return Snapshot(START, days, tuple(rows))
