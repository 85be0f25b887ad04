"""Dated daily series: JHU CSSE ingestion, differencing, windows, long format.

Cumulative inputs are kept exactly as published.  Reporting artifacts such as
negative daily increments or downward revisions of a cumulative series are
surfaced through ingest_report, never repaired.  Values are tuples of floats
and every operation here is plain Python, so ingestion needs no numpy; the
fit's smoothing lives in cfr.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import itertools
import json
import math
import operator
import os
import re

from .core import _floats, _Record

__all__ = [
    "KINDS",
    "CUMULATIVE_KINDS",
    "DailySeries",
    "parse_jhu_timeseries",
    "default_data_dir",
    "FIT_FROM", "FIT_TO",
    "load_country",
    "ingest_report",
    "difference",
    "overlap",
    "active_cases",
    "window",
    "series_to_rows",
    "long_records",
    "read_long_csv",
    "read_long_json",
]

KINDS = (
    "confirmed_cumulative",
    "deaths_cumulative",
    "recovered_cumulative",
    "new_cases",
    "daily_deaths",
    "active_cases",
)

CUMULATIVE_KINDS = KINDS[:3]

# Daily counterparts produced by difference().
_DAILY_KIND_FOR = {
    "confirmed_cumulative": "new_cases",
    "deaths_cumulative": "daily_deaths",
}

_JHU_HEADER = ["Province/State", "Country/Region", "Lat", "Long"]

JHU_FILENAMES = {
    "confirmed_cumulative": "time_series_covid19_confirmed_global.csv",
    "deaths_cumulative": "time_series_covid19_deaths_global.csv",
    "recovered_cumulative": "time_series_covid19_recovered_global.csv",
}


class DailySeries(_Record):
    """A contiguous daily-sampled series starting at start_date.

    kind is one of KINDS.  values, any one-dimensional sequence of finite
    numbers, is stored as a tuple of floats in plain Python; pass an array's
    tolist().
    """

    start_date: dt.date
    values: tuple
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown series kind %r; expected one of %s" % (self.kind, ", ".join(KINDS)))
        values = _floats(self.values)
        if not all(map(math.isfinite, values)):
            bad = next(i for i, v in enumerate(values) if not math.isfinite(v))
            raise ValueError("%s has the non-finite value %r on %s"
                             % (self.kind, values[bad], self.start_date + dt.timedelta(days=bad)))
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.values)

    @property
    def end_date(self) -> dt.date:
        if len(self.values) == 0:
            raise ValueError("empty series has no end date")
        return self.start_date + dt.timedelta(days=len(self.values) - 1)

    def dates(self):
        return [self.start_date + dt.timedelta(days=i) for i in range(len(self.values))]

    def value_on(self, day: dt.date) -> float:
        i = (day - self.start_date).days
        if not 0 <= i < len(self.values):
            raise ValueError("date %s outside series range %s..%s" % (day, self.start_date, self.end_date))
        return self.values[i]


# m/d/yy or m/d/yyyy in ASCII digits, with blanks around it only: int()
# alone would also take signs, inner blanks and non-ASCII digits.  A
# four-digit year is taken as written, so it starts at 1000
_MDY = re.compile(r"\s*([0-9]{1,2})/([0-9]{1,2})/([0-9]{2}|[1-9][0-9]{3})\s*")


def _parse_mdy(token: str, column: int) -> dt.date:
    match = _MDY.fullmatch(token)
    if match:
        y = int(match[3])
        try:
            return dt.date(y + 2000 if y < 100 else y, int(match[1]), int(match[2]))
        except ValueError:  # no such day
            pass
    raise ValueError("bad date column %d: %r (expected m/d/yy)" % (column, token))


@functools.lru_cache(maxsize=1)  # CSSE's global files share one header
def _parse_header_dates(header) -> tuple:
    """The dates of a header's date columns (column 5 on), which must be
    consecutive days; every bad column is reported before the first gap.
    header is its line's text, or its cells as a tuple when csv read it."""
    tokens = (header.split(",") if isinstance(header, str) else header)[4:]
    dates = [_parse_mdy(token, column) for column, token in enumerate(tokens, start=5)]
    for prev, day in zip(dates, dates[1:]):
        if (day - prev).days != 1:
            raise ValueError("date columns must be consecutive days; gap between %s and %s"
                             % (prev, day))
    return tuple(dates)


def _parse_counts(cells, lineno: int, dates) -> list:
    """One row's counts as floats, a blank cell counting 0; a cell that is
    not a number, or not a finite one, is an error naming the line."""
    try:
        values = [float(x) if x.strip() else 0.0 for x in cells]
    except ValueError as exc:
        raise ValueError("line %d: %s" % (lineno, exc)) from None
    if not all(map(math.isfinite, values)):
        bad = next(i for i, v in enumerate(values) if not math.isfinite(v))
        raise ValueError("line %d has the non-finite value %r on %s"
                         % (lineno, cells[bad].strip(), dates[bad]))
    return values


def _records(lines):
    """Each record of a csv file as (its first line's number, cells, text).

    A record on one line that is not blank and has no quote or NUL and is
    shorter than csv's field limit comes as None and its text without the
    line ending, whose cells csv would give as exactly text.split(","), so a
    caller splits only what it needs.  Any other record is read by csv from
    its first line and the lines after it, quoting, a field spanning lines,
    the field limit and csv's errors included, and comes as its cells and
    None.  Numbers count physical lines, as an editor shows them.
    """
    limit = csv.field_size_limit()
    lineno = 0
    for line in lines:
        lineno += 1
        # a line that starts with a line break is blank: csv reads no cells
        if (line[0] not in "\r\n" and '"' not in line and "\0" not in line
                and len(line) < limit):
            yield lineno, None, line.rstrip("\r\n")
            continue
        reader = csv.reader(itertools.chain((line,), lines))
        try:
            cells = next(reader)
        except csv.Error as exc:
            raise ValueError("line %d: %s" % (lineno - 1 + reader.line_num, exc)) from None
        yield lineno, cells, None
        lineno += reader.line_num - 1


def _cells(cells, text, maxsplit=-1) -> list:
    return cells if text is None else text.split(",", maxsplit)


def _sum_rows(records, country, kind, province):
    # parse_jhu_timeseries' series from the records of a file, or the sorted
    # countries in it when no row matches, raising at the first fault
    first = next(records, None)
    if first is None:
        raise ValueError("empty file")
    _, cells, text = first
    header = _cells(cells, text)
    if header[:4] != _JHU_HEADER:
        raise ValueError("unexpected header %r; not a CSSE wide-format file" % header[:4])
    if len(header) == 4:
        raise ValueError("no date columns")
    dates = _parse_header_dates(text if cells is None else tuple(cells))

    width = len(header)
    total = [0.0] * len(dates)
    matched = 0
    seen = set()
    for lineno, cells, text in records:
        n = len(cells) if text is None else text.count(",") + 1
        if n != width:
            raise ValueError("line %d has %d fields, expected %d" % (lineno, n, width))
        state, name = _cells(cells, text, 2)[:2]
        seen.add(name)
        if name != country or (province is not None and state != province):
            continue
        values = _parse_counts(_cells(cells, text)[4:], lineno, dates)
        total = list(map(operator.add, total, values))
        matched += 1
    return DailySeries(dates[0], total, kind) if matched else sorted(seen)


def parse_jhu_timeseries(path, country: str, kind: str = "confirmed_cumulative",
                         province: str | None = None) -> DailySeries:
    """Read one country's cumulative series from a JHU CSSE wide-format file.

    Rows whose Country/Region equals country are summed over provinces unless
    a single province is requested.  The date header must be a contiguous
    daily run in m/d/yy form.

    The file is read one line at a time.  A line that is not blank, has no
    quote or NUL and is shorter than csv's field limit is split with str
    methods, and only a row of the requested country is split in full.
    Every other line, and a record spanning lines, goes through csv.  The
    header's dates are decoded once per distinct header, so CSSE's three
    files, which share one, decode it once.  A fault names the file and the
    physical line that an editor shows; a csv or UTF-8 fault anywhere in the
    file comes before any other, as when the whole file was read first.

    Args:
        path: csv file in the CSSE global time-series layout.
        country: exact Country/Region value, e.g. "Israel" or "Korea, South".
        kind: cumulative kind to stamp on the result.
        province: optional exact Province/State value to select one row.

    Returns:
        DailySeries of the summed cumulative counts.
    """
    if kind not in CUMULATIVE_KINDS:
        raise ValueError("kind must be cumulative, got %r" % kind)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = _records(fh)
        try:
            try:
                found = _sum_rows(records, country, kind, province)
            except ValueError:
                for _ in records:  # a later csv or UTF-8 fault wins
                    pass
                raise
        except ValueError as exc:  # UnicodeDecodeError included
            raise ValueError("%s: %s" % (path, exc)) from None
    if isinstance(found, DailySeries):
        return found
    raise ValueError("country %r%s not found in %s; available countries: %s"
                     % (country, "" if province is None else " (province %r)" % province,
                        path, ", ".join(found)))


def default_data_dir() -> str:
    """The snapshot bundled with the package."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


# window the case fatality rate is fitted on
FIT_FROM = dt.date(2020, 6, 1)
FIT_TO = dt.date(2020, 12, 29)


def load_country(data_dir, country: str, kinds=CUMULATIVE_KINDS) -> list:
    """One country's cumulative series, one per kind, from a snapshot directory
    holding the CSSE files under their JHU_FILENAMES."""
    return [parse_jhu_timeseries(os.path.join(data_dir, JHU_FILENAMES[kind]), country, kind)
            for kind in kinds]


def _diff(values) -> tuple:
    # values[i + 1] - values[i], as numpy's diff takes it
    return tuple(map(operator.sub, values[1:], values[:-1]))


def ingest_report(series: DailySeries) -> tuple:
    """List source anomalies without changing the data.

    Returns (date, value) pairs: each date with a negative increment and the
    increment (cumulative kinds), or each negative value (daily kinds).  An
    increment that leaves the float range raises ValueError naming the
    series and the day.
    """
    if series.kind in CUMULATIVE_KINDS:  # the increments, each on its later day
        series = DailySeries(series.start_date + dt.timedelta(days=1), _diff(series.values),
                             series.kind)
    return tuple((day, v) for day, v in zip(series.dates(), series.values) if v < 0)


def difference(series: DailySeries) -> DailySeries:
    """Daily increments of a cumulative series; the result starts one day later.

    Negative increments (downward source revisions) are preserved.
    """
    if series.kind not in _DAILY_KIND_FOR:
        raise ValueError("no daily kind defined for %r" % series.kind)
    if len(series) < 2:
        raise ValueError("need at least two points to difference")
    return DailySeries(series.start_date + dt.timedelta(days=1),
                       _diff(series.values), _DAILY_KIND_FOR[series.kind])


def overlap(*spans):
    """(start date, [values of each span]) on the dates common to all spans.

    A span is a (start date, values) pair of daily values, values being any
    sliceable sequence; each result is a slice of its span's values.
    """
    start = max(first for first, _ in spans)
    days = min((first - start).days + len(values) for first, values in spans)
    if days < 1:
        raise ValueError("series have no common date range: their dates do not overlap")
    return start, [values[(start - first).days:][:days] for first, values in spans]


def active_cases(confirmed: DailySeries, deaths: DailySeries,
                 recovered: DailySeries) -> DailySeries:
    """confirmed - deaths - recovered on the date range common to all three."""
    for s, k in ((confirmed, "confirmed_cumulative"), (deaths, "deaths_cumulative"),
                 (recovered, "recovered_cumulative")):
        if s.kind != k:
            raise ValueError("expected a %s series, got %s" % (k, s.kind))
        if len(s) == 0:
            raise ValueError("empty %s series" % k)
    start, (c, d, r) = overlap(*((s.start_date, s.values) for s in (confirmed, deaths, recovered)))
    return DailySeries(start, tuple(map(operator.sub, map(operator.sub, c, d), r)),
                       "active_cases")


def window(series: DailySeries, start: dt.date, end: dt.date) -> DailySeries:
    """Inclusive date window.  Edges outside the data are cut to its range."""
    if start > end:
        raise ValueError("window start %s is after end %s" % (start, end))
    if len(series) == 0:
        raise ValueError("cannot window an empty series")
    if end < series.start_date or start > series.end_date:
        raise ValueError("window %s..%s does not intersect series range %s..%s"
                         % (start, end, series.start_date, series.end_date))
    lo = max(start, series.start_date)
    hi = min(end, series.end_date)
    i = (lo - series.start_date).days
    j = (hi - series.start_date).days
    return DailySeries(lo, series.values[i:j + 1], series.kind)


# ---------------------------------------------------------------------------
# long-format emission and read-back
#
# Rows are (date, kind, value) ordered by date, then by the order in which the
# series were given.  The CLI writes values with repr, so floats round-trip.

def series_to_rows(series_list):
    kind_rank = {}
    for s in series_list:
        if s.kind in kind_rank:
            raise ValueError("duplicate kind %r in emission" % s.kind)
        kind_rank[s.kind] = len(kind_rank)
    rows = []
    for s in series_list:
        rows.extend((day, s.kind, v) for day, v in zip(s.dates(), s.values))
    rows.sort(key=lambda r: (r[0], kind_rank[r[1]]))
    return rows


def long_records(series_list):
    """The long format as a list of {date, kind, value} records."""
    return [{"date": day.isoformat(), "kind": kind, "value": v}
            for day, kind, v in series_to_rows(series_list)]


def _series_from_rows(rows, path):
    by_kind = {}
    for day, kind, value in rows:
        if not math.isfinite(value):
            raise ValueError("%s: %s has the non-finite value %r on %s" % (path, kind, value, day))
        by_kind.setdefault(kind, []).append((day, value))
    out = {}
    for kind, pairs in by_kind.items():
        pairs.sort(key=lambda p: p[0])
        days = [p[0] for p in pairs]
        for prev, cur in zip(days, days[1:]):
            if (cur - prev).days != 1:
                raise ValueError("%s rows are not a contiguous daily run (gap between %s and %s)"
                                 % (kind, prev, cur))
        out[kind] = DailySeries(days[0], [p[1] for p in pairs], kind)
    return out


def _read_text(path):
    # a decoding fault names the file; the codec gives the byte offset
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None


def _series_from_records(path, records, where):
    # records of a file from outside the program, as (date, kind, value)
    # triples; any fault names the file and the record that where(i) gives
    rows = []
    try:
        for record in records:
            if len(record) != 3:
                raise ValueError("%d fields, expected 3" % len(record))
            date, kind, value = record
            if kind not in KINDS:
                raise ValueError("unknown series kind %r" % (kind,))
            rows.append((dt.date.fromisoformat(date), kind, float(value)))
    except (TypeError, ValueError, csv.Error) as exc:
        raise ValueError("%s: %s: %s" % (path, where(len(rows)), exc)) from None
    return _series_from_rows(rows, path)


def read_long_csv(path):
    """Read back a long-format csv as {kind: DailySeries}."""
    header, _, body = _read_text(path).partition("\n")
    if header.rstrip("\r") != "date,kind,value":
        raise ValueError("%s: expected header date,kind,value" % path)
    reader = csv.reader(io.StringIO(body, newline=""))
    return _series_from_records(path, reader, lambda i: "line %d" % (reader.line_num + 1))


def read_long_json(path):
    """Read back a long-format json array as {kind: DailySeries}."""
    text = _read_text(path)
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None
    if not isinstance(payload, list):
        raise ValueError("%s: expected a JSON array of {date, kind, value} records" % path)
    records = []
    for i, item in enumerate(payload):
        try:
            records.append((item["date"], item["kind"], item["value"]))
        except (TypeError, KeyError):
            raise ValueError("%s: record %d is not a {date, kind, value} object"
                             % (path, i)) from None
    return _series_from_records(path, records, lambda i: "record %d" % i)
