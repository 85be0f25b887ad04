"""Ingestion, reshaping, and long-format round trips for dated daily series."""

import argparse
import csv
import datetime as dt
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lockcycle.series import (
    DailySeries,
    _parse_header_dates,
    active_cases,
    difference,
    ingest_report,
    parse_jhu_timeseries,
    read_long_csv,
    read_long_json,
    long_records,
    series_to_rows,
    window,
)
from lockcycle.cli import _render

D = dt.date

WIDE_HEADER = "Province/State,Country/Region,Lat,Long"


def confirmed_path(data_dir):
    return os.path.join(data_dir, "time_series_covid19_confirmed_global.csv")


def wide_file(tmp_path, text):
    p = tmp_path / "wide.csv"
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestDailySeries:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown series kind"):
            DailySeries(D(2020, 1, 1), [1.0], "weekly_cases")

    @pytest.mark.parametrize("values", [[[1.0, 2.0]], "123", b"123", 5.0, np.ones((2, 1)),
                                        np.float64(5.0)],
                             ids=["nested", "str", "bytes", "scalar", "2d-array", "0d-array"])
    def test_rejects_values_that_are_not_one_dimensional(self, values):
        with pytest.raises(ValueError, match="^values must be one-dimensional$"):
            DailySeries(D(2020, 1, 1), values, "new_cases")

    @pytest.mark.parametrize("values", [[1, 2.5], (1.0, 2.5), np.array([1.0, 2.5]),
                                        np.array([1, 2]), range(3)],
                             ids=["list", "tuple", "array", "int-array", "range"])
    def test_values_are_a_tuple_of_floats(self, values):
        s = DailySeries(D(2020, 1, 1), values, "new_cases")
        assert type(s.values) is tuple
        assert s.values == tuple(float(v) for v in values)
        assert all(type(v) is float for v in s.values)
        assert type(s.value_on(D(2020, 1, 2))) is float

    def test_date_arithmetic(self):
        s = DailySeries(D(2020, 3, 1), [5.0, 6.0, 7.0], "new_cases")
        assert len(s) == 3
        assert s.end_date == D(2020, 3, 3)
        assert s.dates() == [D(2020, 3, 1), D(2020, 3, 2), D(2020, 3, 3)]
        assert s.value_on(D(2020, 3, 2)) == 6.0
        assert s.value_on(D(2020, 3, 3)) == 7.0

    def test_lookup_outside_range(self):
        s = DailySeries(D(2020, 3, 1), [5.0], "new_cases")
        with pytest.raises(ValueError, match="date 2020-03-02 outside series range "
                                             "2020-03-01..2020-03-01"):
            s.value_on(D(2020, 3, 2))
        with pytest.raises(ValueError, match="outside series range"):
            s.value_on(D(2020, 2, 29))

    def test_empty_series_has_no_end_date(self):
        s = DailySeries(D(2020, 3, 1), [], "new_cases")
        with pytest.raises(ValueError, match="no end date"):
            s.end_date

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite_values(self, value):
        with pytest.raises(ValueError) as exc:
            DailySeries(D(2020, 3, 1), [1.0, 2.0, value, 3.0], "new_cases")
        assert str(exc.value) == "new_cases has the non-finite value %r on 2020-03-03" % value


class TestWideFormatParsing:
    def test_reads_israel_from_snapshot(self, data_dir):
        s = parse_jhu_timeseries(confirmed_path(data_dir), "Israel")
        assert s.kind == "confirmed_cumulative"
        assert len(s) == 345
        assert s.start_date == D(2020, 1, 22)
        assert s.end_date == D(2020, 12, 31)
        assert s.values[-1] == 401826.0

    def test_snapshot_totals_across_files(self, data_dir):
        deaths = parse_jhu_timeseries(
            os.path.join(data_dir, "time_series_covid19_deaths_global.csv"),
            "Israel", kind="deaths_cumulative")
        recovered = parse_jhu_timeseries(
            os.path.join(data_dir, "time_series_covid19_recovered_global.csv"),
            "Israel", kind="recovered_cumulative")
        assert deaths.values[-1] == 2910.0
        assert recovered.values[-1] == 366802.0

    def test_sums_provinces_of_one_country(self, data_dir):
        total = parse_jhu_timeseries(confirmed_path(data_dir), "Australia")
        nsw = parse_jhu_timeseries(confirmed_path(data_dir), "Australia",
                                   province="New South Wales")
        vic = parse_jhu_timeseries(confirmed_path(data_dir), "Australia",
                                   province="Victoria")
        assert nsw.values[-1] == 4598.0
        assert vic.values[-1] == 20299.0
        # tuples: + would concatenate them
        assert np.array_equal(total.values, np.asarray(nsw.values) + np.asarray(vic.values))

    def test_country_name_containing_comma(self, data_dir):
        s = parse_jhu_timeseries(confirmed_path(data_dir), "Korea, South")
        assert s.values[-1] == 48891.0

    def test_unknown_country_lists_what_is_available(self, data_dir):
        with pytest.raises(ValueError, match="available countries:.*Israel"):
            parse_jhu_timeseries(confirmed_path(data_dir), "Atlantis")

    def test_unknown_province_is_an_error(self, data_dir):
        with pytest.raises(ValueError, match="province 'Tasmania'"):
            parse_jhu_timeseries(confirmed_path(data_dir), "Australia",
                                 province="Tasmania")

    def test_rejects_daily_kind(self, data_dir):
        with pytest.raises(ValueError, match="must be cumulative"):
            parse_jhu_timeseries(confirmed_path(data_dir), "Israel", kind="new_cases")

    def test_rejects_foreign_header(self, tmp_path):
        p = wide_file(tmp_path, "a,b,c,d,1/22/20\n,X,0,0,1\n")
        with pytest.raises(ValueError, match="wide-format"):
            parse_jhu_timeseries(p, "X")

    def test_ragged_row_reported_with_line_number(self, tmp_path):
        p = wide_file(tmp_path, WIDE_HEADER + ",1/22/20,1/23/20\n"
                                              ",X,0,0,1,2\n"
                                              ",Y,0,0,5\n")
        with pytest.raises(ValueError, match="line 3 has 5 fields, expected 6"):
            parse_jhu_timeseries(p, "X")

    @pytest.mark.parametrize("row, message", [
        (",Y,0,0,5", "line 4 has 5 fields, expected 6"),
        (",X,0,0,3,many", "line 4: could not convert"),
        (",X,0,0,3,nan", "line 4 has the non-finite value 'nan' on 2020-01-23"),
    ])
    def test_row_errors_name_the_physical_line(self, tmp_path, row, message):
        # the record on lines 2 and 3 is one csv row
        p = wide_file(tmp_path, WIDE_HEADER + ",1/22/20,1/23/20\n"
                                              '"Two\nLines",X,0,0,1,2\n' + row + "\n")
        with pytest.raises(ValueError, match=message):
            parse_jhu_timeseries(p, "X")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_rejects_non_finite_cell(self, tmp_path, cell):
        p = wide_file(tmp_path, WIDE_HEADER + ",1/22/20,1/23/20\n"
                                              ",X,0,0,1,2\n"
                                              ",X,0,0,3,%s\n" % cell)
        with pytest.raises(ValueError) as exc:
            parse_jhu_timeseries(p, "X")
        assert str(exc.value) == ("%s: line 3 has the non-finite value %r on 2020-01-23"
                                  % (p, cell))

    def test_rejects_non_numeric_cell(self, tmp_path):
        p = wide_file(tmp_path, WIDE_HEADER + ",1/22/20\n,X,0,0,many\n")
        with pytest.raises(ValueError, match="line 2: could not convert"):
            parse_jhu_timeseries(p, "X")

    def test_rejects_gap_in_date_columns(self, tmp_path):
        p = wide_file(tmp_path, WIDE_HEADER + ",1/22/20,1/24/20\n,X,0,0,1,2\n")
        with pytest.raises(ValueError, match="consecutive days"):
            parse_jhu_timeseries(p, "X")

    def test_rejects_unparseable_date_column(self, tmp_path):
        p = wide_file(tmp_path, WIDE_HEADER + ",foo\n,X,0,0,1\n")
        with pytest.raises(ValueError, match="m/d/yy"):
            parse_jhu_timeseries(p, "X")

    def test_impossible_date_column_names_file_and_column(self, tmp_path):
        p = wide_file(tmp_path, WIDE_HEADER + ",13/22/20\n,X,0,0,1\n")
        with pytest.raises(ValueError) as exc:
            parse_jhu_timeseries(p, "X")
        assert str(exc.value) == "%s: bad date column 5: '13/22/20' (expected m/d/yy)" % p

    @pytest.mark.parametrize("token", ["1/22/-5", " 1/ 22/ +20", "1/22/020", "1/22/0020",
                                       "1/22/\uff12\uff10"])
    def test_date_column_parts_must_be_plain_digits(self, tmp_path, token):
        p = wide_file(tmp_path, WIDE_HEADER + ",%s\n,X,0,0,1\n" % token)
        with pytest.raises(ValueError) as exc:
            parse_jhu_timeseries(p, "X")
        assert str(exc.value) == "%s: bad date column 5: %r (expected m/d/yy)" % (p, token)

    def test_accepts_four_digit_year(self, tmp_path):
        p = wide_file(tmp_path, WIDE_HEADER + ",1/22/2020\n,X,0,0,1\n")
        assert parse_jhu_timeseries(p, "X").start_date == D(2020, 1, 22)

    def test_accepts_non_canonical_dates_after_the_first(self, tmp_path):
        p = wide_file(tmp_path, WIDE_HEADER + ",1/22/20,01/23/2020, 1/24/20 ,1/25/2020,1/26/20\n"
                                              ",X,0,0,1,2,3,4,5\n")
        s = parse_jhu_timeseries(p, "X")
        assert (s.start_date, s.end_date) == (D(2020, 1, 22), D(2020, 1, 26))

    @pytest.mark.parametrize("header", [
        "1/22/20,1/23/20,1/32/20",    # a bad later column, by its number
        "1/22/20,1/24/20,foo",        # a bad column is reported before a gap
        "1/22/20,1/24/20,1/25/20",    # a gap
        "1/22/20,1/23/20,1/23/20",    # a repeated day
        "12/30/20,12/31/20,1/1/21",   # a new year
        "12/31/99,1/1/00",            # two-digit years stop at 2099
        "12/31/1999,1/1/00",
        "2/28/2100,3/1/2100",
        "1/22/20,1/23/20,1/24/2020,1/25/20,01/26/20,1/28/20",
    ])
    def test_header_dates_as_when_every_column_is_parsed(self, header):
        ours, oracle = header_outcomes(WIDE_HEADER + "," + header, header.split(","))
        assert ours == oracle

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_header_dates_as_the_oracle_decodes_them(self, data):
        # runs of days in several spellings, some cells replaced by near misses
        start = data.draw(st.dates(D(1999, 12, 25), D(2100, 1, 5)))
        forms = st.sampled_from(["%d/%d/%02d", "%02d/%02d/%02d", "%d/%d/%04d", " %d/%d/%02d\t"])
        odd = st.sampled_from(["1/22/-5", " 1/ 22/ +20", "1/22/020", "1/22/0020", "1/22/0999",
                               "1/22/1000", "1/22/\uff12\uff10", "0/1/20", "2/30/20", "1/1",
                               "1/1/1/20", "/1/20", "123/1/20", "1/22/20x", "\xa01/22/20",
                               "1/22/20 1", ""])
        tokens = []
        for i in range(data.draw(st.integers(1, 5))):
            day = start + dt.timedelta(days=i)
            if data.draw(st.integers(0, 5)) == 0:
                tokens.append(data.draw(odd))
            else:
                form = data.draw(forms)
                year = day.year if "%04d" in form else day.year % 100
                tokens.append(form % (day.month, day.day, year))
        # the cells csv gives for a header with quotes
        ours, oracle = header_outcomes(tuple(WIDE_HEADER.split(",") + tokens), tokens)
        assert ours == oracle

    def test_rejects_file_without_date_columns(self, tmp_path):
        p = wide_file(tmp_path, WIDE_HEADER + "\n,X,0,0\n")
        with pytest.raises(ValueError, match="no date columns"):
            parse_jhu_timeseries(p, "X")

    def test_rejects_empty_file(self, tmp_path):
        p = wide_file(tmp_path, "")
        with pytest.raises(ValueError, match="empty file"):
            parse_jhu_timeseries(p, "X")

    def test_accepts_leading_byte_order_mark(self, tmp_path):
        p = wide_file(tmp_path, "﻿" + WIDE_HEADER + ",1/22/20\n,X,0,0,7\n")
        s = parse_jhu_timeseries(p, "X")
        assert s.values[0] == 7.0
        assert s.start_date == D(2020, 1, 22)

    def test_blank_cells_count_as_zero(self, tmp_path):
        p = wide_file(tmp_path, WIDE_HEADER + ",1/22/20,1/23/20\n,X,0,0,,5\n")
        s = parse_jhu_timeseries(p, "X")
        assert list(s.values) == [0.0, 5.0]

    def test_sum_past_the_float_range_names_the_file(self, tmp_path):
        p = wide_file(tmp_path, WIDE_HEADER + ",1/22/20,1/23/20\nA,X,0,0,1,1e308\nB,X,0,0,2,1e308\n")
        with pytest.raises(ValueError) as exc:
            parse_jhu_timeseries(p, "X")
        assert str(exc.value) == ("%s: confirmed_cumulative has the non-finite value inf on "
                                  "2020-01-23" % p)


def header_outcomes(header, tokens):
    """What the header decoder gives for header and the oracle for its date
    cells, tokens: the dates as a list, or the message, the decoder's with
    the file name that the scan puts before it."""
    try:
        ours = list(_parse_header_dates(header))
    except ValueError as exc:
        ours = "f.csv: %s" % exc
    try:
        oracle = oracles.every_column(tokens, "f.csv")
    except ValueError as exc:
        oracle = str(exc)
    return ours, oracle


def outcome(parse, *args):
    """What parse gives: a series as its fields, or an error's message."""
    try:
        s = parse(*args)
    except ValueError as exc:
        return str(exc)
    return s.start_date, s.values, s.kind


class TestWideFormatScan:
    def test_shifted_header_gets_its_own_dates(self, tmp_path):
        first = wide_file(tmp_path, WIDE_HEADER + ",1/22/20,1/23/20\n,X,0,0,1,2\n")
        shifted = tmp_path / "shifted.csv"
        shifted.write_text(WIDE_HEADER + ",1/23/20,1/24/20\n,X,0,0,1,2\n", encoding="utf-8")
        assert parse_jhu_timeseries(first, "X").start_date == D(2020, 1, 22)
        assert parse_jhu_timeseries(shifted, "X").start_date == D(2020, 1, 23)
        assert parse_jhu_timeseries(first, "X").start_date == D(2020, 1, 22)

    def test_failed_header_is_not_remembered(self, tmp_path):
        good = wide_file(tmp_path, WIDE_HEADER + ",1/22/20\n,X,0,0,1\n")
        assert parse_jhu_timeseries(good, "X").values == (1.0,)
        remembered = _parse_header_dates.cache_info()
        for i, name in enumerate(("gap1.csv", "gap2.csv"), 1):
            gap = tmp_path / name
            gap.write_text(WIDE_HEADER + ",1/22/20,1/24/20\n,X,0,0,1,2\n", encoding="utf-8")
            with pytest.raises(ValueError) as exc:
                parse_jhu_timeseries(gap, "X")
            assert str(exc.value).startswith("%s: date columns must be consecutive" % gap)
            # each failure is decoded afresh and never replaces the good header
            info = _parse_header_dates.cache_info()
            assert (info.misses, info.currsize) == (remembered.misses + i, 1)
        assert parse_jhu_timeseries(good, "X").values == (1.0,)
        assert _parse_header_dates.cache_info().hits == info.hits + 1

    def test_error_in_a_file_sharing_the_header_names_that_file(self, tmp_path):
        header = WIDE_HEADER + ",1/22/20,1/23/20\n"
        good = wide_file(tmp_path, header + ",X,0,0,1,2\n")
        ragged = tmp_path / "ragged.csv"
        ragged.write_text(header + ",X,0,0,1,2\n,Y,0,0,5\n", encoding="utf-8")
        parse_jhu_timeseries(good, "X")
        with pytest.raises(ValueError) as exc:
            parse_jhu_timeseries(ragged, "X")
        assert str(exc.value) == "%s: line 3 has 5 fields, expected 6" % ragged

    @pytest.mark.parametrize("first", [",Y,0,0,5", ",X,0,0,3,many"])
    @pytest.mark.parametrize("header", [",1/22/20,1/23/20", ",1/22/20,1/24/20", ",1/22/20,9/9"])
    def test_csv_fault_after_another_fault_is_the_one_reported(self, tmp_path, header, first):
        # as when the whole file was read before any check
        p = wide_file(tmp_path, WIDE_HEADER + header + "\n" + first + "\n"
                                ',X,0,0,"%s",1\n' % ("7" * (csv.field_size_limit() + 1)))
        assert outcome(parse_jhu_timeseries, p, "X") == (
            "%s: line 3: field larger than field limit (%d)" % (p, csv.field_size_limit()))

    def test_parse_holds_one_line_at_a_time(self, tmp_path):
        # a real-size CSSE file: 290 rows over 1,143 days, about 2.7 MB; read
        # whole and split, it peaked at 21 MB traced
        days = [D(2020, 1, 22) + dt.timedelta(days=i) for i in range(1143)]
        counts = ",".join(str(1_000_000 + 7 * i) for i in range(len(days)))
        lines = [WIDE_HEADER + "".join(",%d/%d/%02d" % (d.month, d.day, d.year - 2000)
                                       for d in days)]
        lines += [',"Country %03d, The",12.5,-40.25,%s' % (i, counts) for i in range(290)]
        path = wide_file(tmp_path, "\n".join(lines) + "\n")
        assert os.path.getsize(path) > 2_500_000
        tracemalloc.start()
        try:
            s = parse_jhu_timeseries(path, "Country 145, The")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(s), s.values[-1]) == (1143, 1_000_000 + 7 * 1142)
        assert peak < 1_000_000

    @pytest.mark.parametrize("prefix, ending", [
        (b"", b"\n"), (b"\xef\xbb\xbf", b"\n"), (b"", b"\r\n"), (b"\xef\xbb\xbf", b"\r"),
    ])
    @pytest.mark.parametrize("bad_row", [0, 1, 30])
    def test_utf8_fault_reports_the_byte_position_of_a_whole_file_read(
            self, tmp_path, prefix, ending, bad_row):
        # rows of 300 bytes, so the fault lies in the first 8 kB chunk or past
        # it, and before or after a ragged row, which it outranks
        lines = [WIDE_HEADER.encode() + b",1/22/20"]
        lines += [b",X,0,0," + b"1" * 292 for _ in range(40)]
        lines[1 + bad_row] = lines[1 + bad_row].replace(b"X", b"\xff")
        lines[6] += b",5"
        p = tmp_path / "bad.csv"
        p.write_bytes(prefix + ending.join(lines) + ending)
        message = outcome(parse_jhu_timeseries, p, "X")
        assert message.startswith("%s: 'utf-8' codec can't decode byte 0xff in position" % p)
        assert message == outcome(oracles.parse_jhu_rows, p, "X")

    def test_csv_fault_before_a_utf8_fault_past_a_lone_carriage_return(self, tmp_path):
        # the UTF-8 fault lies chunks past the csv fault, on the same run of
        # bytes between line feeds
        p = tmp_path / "cr.csv"
        p.write_bytes(WIDE_HEADER.encode() + b",1/22/20\n,X,0,0,"
                      + b"7" * (csv.field_size_limit() + 1) + b"\r,Y,0,0,"
                      + b"1" * 20000 + b"\xff\n")
        message = "%s: line 2: field larger than field limit" % p
        assert outcome(oracles.parse_jhu_rows, p, "X").startswith(message)
        assert outcome(parse_jhu_timeseries, p, "X").startswith(message)


# cells that csv splits other than at every comma, or that the parse rejects
ODD_CELLS = ['"A, B"', '"say ""hi"""', '"two\nlines"', '"cr\rcell"', '"open', '"', 'ab"',
             '"A"x', '""', "x\0", "", " 3 ", "many", "nan", "1e400",
             "7" * (csv.field_size_limit() + 1)]
NAMES = ["X", "Y", '"X"', '"Korea, South"', '"Y ""Z"""']
PROVINCES = ["", "P", '"P"', '"P, Q"']
# numbers that float() reads but the parse rejects as not finite
NONFINITE_CELLS = ["nan", "inf", "-Infinity", "1e400"]


def csv_cell(draw, value):
    # value as a cell, bare where csv allows it and the draw says so
    if "," in value or '"' in value or draw(st.booleans()):
        return '"%s"' % value.replace('"', '""')
    return value


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_scan_gives_what_csv_gives_reading_every_row(tmp_path_factory, data):
    draw = data.draw
    header = WIDE_HEADER + draw(st.sampled_from([",1/22/20,1/23/20,1/24/20"] * 4
                                                + [',1/22/20,"1/23/20",1/24/20', ""]))
    country = draw(st.sampled_from(["X", "Y", "Korea, South", 'Y "Z"', "A, B", "W"]))
    province = draw(st.sampled_from([None, "P", "P, Q", ""]))
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["clean"] * 8 + ["ragged", "odd", "blank", "long"]
                                    + ["nonfinite"] * 2))
        if kind == "blank":
            lines.append("")
            continue
        cells = [draw(st.sampled_from(PROVINCES)), draw(st.sampled_from(NAMES)), "0", "0"]
        width = draw(st.sampled_from([1, 2, 4, 5])) if kind == "ragged" else 3
        cells += [str(draw(st.integers(0, 9))) for _ in range(width)]
        if kind == "odd":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(ODD_CELLS))
        if kind == "nonfinite":  # a row of the requested country, so it is summed
            cells[1] = csv_cell(draw, country)
            if province is not None:
                cells[0] = csv_cell(draw, province)
            cells[draw(st.integers(4, len(cells) - 1))] = draw(st.sampled_from(NONFINITE_CELLS))
        if kind == "long":  # a line past csv's field limit, though no cell is
            cells[2] = cells[3] = "0" * (csv.field_size_limit() // 2 + 1)
        lines.append(",".join(cells))
    endings = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        endings[-1] = ""
    text = draw(st.sampled_from(["", "﻿"])) + "".join(map(str.__add__, lines, endings))
    path = tmp_path_factory.getbasetemp() / "scan.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    args = (path, country, "deaths_cumulative", province)
    assert outcome(parse_jhu_timeseries, *args) == outcome(oracles.parse_jhu_rows, *args)


class TestDifference:
    def test_confirmed_becomes_new_cases(self):
        s = DailySeries(D(2020, 5, 1), [10.0, 13.0, 13.0, 20.0], "confirmed_cumulative")
        d = difference(s)
        assert d.kind == "new_cases"
        assert d.start_date == D(2020, 5, 2)
        assert list(d.values) == [3.0, 0.0, 7.0]

    def test_deaths_become_daily_deaths(self):
        s = DailySeries(D(2020, 5, 1), [1.0, 4.0], "deaths_cumulative")
        assert difference(s).kind == "daily_deaths"

    def test_negative_revisions_survive(self):
        s = DailySeries(D(2020, 5, 1), [10.0, 8.0], "confirmed_cumulative")
        assert list(difference(s).values) == [-2.0]

    def test_recovered_has_no_daily_kind(self):
        s = DailySeries(D(2020, 5, 1), [1.0, 2.0], "recovered_cumulative")
        with pytest.raises(ValueError, match="no daily kind"):
            difference(s)

    def test_needs_two_points(self):
        s = DailySeries(D(2020, 5, 1), [1.0], "confirmed_cumulative")
        with pytest.raises(ValueError, match="two points"):
            difference(s)


class TestActiveCases:
    def test_subtracts_on_common_range(self):
        confirmed = DailySeries(D(2020, 5, 1), [100.0, 120.0, 150.0, 160.0],
                                "confirmed_cumulative")
        deaths = DailySeries(D(2020, 5, 2), [2.0, 3.0, 4.0], "deaths_cumulative")
        recovered = DailySeries(D(2020, 5, 2), [10.0, 30.0, 60.0, 90.0],
                                "recovered_cumulative")
        a = active_cases(confirmed, deaths, recovered)
        assert a.kind == "active_cases"
        assert a.start_date == D(2020, 5, 2)
        assert a.end_date == D(2020, 5, 4)
        assert list(a.values) == [120.0 - 2.0 - 10.0, 150.0 - 3.0 - 30.0,
                                  160.0 - 4.0 - 60.0]

    def test_checks_input_kinds(self):
        ok = DailySeries(D(2020, 5, 1), [1.0], "confirmed_cumulative")
        bad = DailySeries(D(2020, 5, 1), [1.0], "new_cases")
        with pytest.raises(ValueError, match="deaths_cumulative"):
            active_cases(ok, bad, ok)
        deaths = DailySeries(D(2020, 5, 1), [0.0], "deaths_cumulative")
        empty = DailySeries(D(2020, 5, 1), [], "recovered_cumulative")
        with pytest.raises(ValueError, match="^empty recovered_cumulative series$"):
            active_cases(ok, deaths, empty)

    def test_rejects_disjoint_ranges(self):
        confirmed = DailySeries(D(2020, 5, 1), [1.0], "confirmed_cumulative")
        deaths = DailySeries(D(2020, 6, 1), [0.0], "deaths_cumulative")
        recovered = DailySeries(D(2020, 5, 1), [0.0], "recovered_cumulative")
        with pytest.raises(ValueError, match="no common date range"):
            active_cases(confirmed, deaths, recovered)


class TestWindow:
    def setup_method(self):
        self.s = DailySeries(D(2020, 7, 1), np.arange(10.0), "new_cases")

    def test_window_is_inclusive(self):
        w = window(self.s, D(2020, 7, 3), D(2020, 7, 5))
        assert w.start_date == D(2020, 7, 3)
        assert list(w.values) == [2.0, 3.0, 4.0]

    def test_edges_past_data_are_clipped_and_flagged(self):
        w = window(self.s, D(2020, 6, 20), D(2020, 7, 2))
        assert w.start_date == D(2020, 7, 1)
        assert list(w.values) == [0.0, 1.0]

    def test_disjoint_window_is_an_error(self):
        with pytest.raises(ValueError, match="does not intersect"):
            window(self.s, D(2021, 1, 1), D(2021, 2, 1))
        with pytest.raises(ValueError, match="^cannot window an empty series$"):
            window(DailySeries(D(2020, 7, 1), [], "new_cases"), D(2020, 7, 1), D(2020, 7, 2))

    def test_reversed_window_is_an_error(self):
        with pytest.raises(ValueError, match="after end"):
            window(self.s, D(2020, 7, 5), D(2020, 7, 3))


class TestIngestReport:
    def test_flags_cumulative_drops(self):
        s = DailySeries(D(2020, 5, 1), [5.0, 7.0, 6.0, 9.0], "confirmed_cumulative")
        assert ingest_report(s) == ((D(2020, 5, 3), -1.0),)

    def test_flags_negative_daily_values(self):
        s = DailySeries(D(2020, 5, 1), [3.0, -1.0, 2.0], "new_cases")
        assert ingest_report(s) == ((D(2020, 5, 2), -1.0),)

    def test_clean_series_reports_nothing(self):
        s = DailySeries(D(2020, 5, 1), [3.0, 3.0, 4.0], "confirmed_cumulative")
        assert ingest_report(s) == ()


class TestLongFormat:
    def make_pair(self):
        cases = DailySeries(D(2020, 5, 1), [3.5, 4.25, 5.0], "new_cases")
        deaths = DailySeries(D(2020, 5, 2), [0.125, 1.0 / 3.0], "daily_deaths")
        return cases, deaths

    def test_rows_sort_by_date_then_input_order(self):
        cases, deaths = self.make_pair()
        rows = series_to_rows([cases, deaths])
        assert rows == [
            (D(2020, 5, 1), "new_cases", 3.5),
            (D(2020, 5, 2), "new_cases", 4.25),
            (D(2020, 5, 2), "daily_deaths", 0.125),
            (D(2020, 5, 3), "new_cases", 5.0),
            (D(2020, 5, 3), "daily_deaths", 1.0 / 3.0),
        ]

    def test_duplicate_kind_is_rejected(self):
        cases, _ = self.make_pair()
        with pytest.raises(ValueError, match="duplicate kind"):
            series_to_rows([cases, cases])

    def test_csv_round_trip_is_lossless(self, tmp_path):
        cases, deaths = self.make_pair()
        path = str(tmp_path / "long.csv")
        records = long_records([cases, deaths])
        _render(argparse.Namespace(format="csv", out=path), "", records,
                ("date", "kind", "value"), [tuple(r.values()) for r in records])
        back = read_long_csv(path)
        assert set(back) == {"new_cases", "daily_deaths"}
        for original in (cases, deaths):
            got = back[original.kind]
            assert got.start_date == original.start_date
            # repr emission makes the float round trip exact
            assert np.array_equal(got.values, original.values)

    def test_json_round_trip_is_lossless(self, tmp_path, capsys):
        cases, deaths = self.make_pair()
        path = str(tmp_path / "long.json")
        _render(argparse.Namespace(format=None, out=path), "", long_records([cases, deaths]))
        back = read_long_json(path)
        for original in (cases, deaths):
            got = back[original.kind]
            assert got.start_date == original.start_date
            assert np.array_equal(got.values, original.values)

    def test_read_back_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("day,type,count\n2020-05-01,new_cases,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected header"):
            read_long_csv(str(path))

    def test_csv_read_back_rejects_non_finite_values(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("date,kind,value\n"
                        "2020-05-01,new_cases,1.0\n"
                        "2020-05-02,new_cases,nan\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_long_csv(str(path))
        assert str(exc.value) == "%s: new_cases has the non-finite value nan on 2020-05-02" % path

    def test_json_read_back_rejects_non_finite_values(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('[{"date": "2020-05-01", "kind": "new_cases", "value": NaN}]',
                        encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_long_json(str(path))
        assert str(exc.value) == "%s: new_cases has the non-finite value nan on 2020-05-01" % path

    def test_read_back_rejects_date_gaps(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("date,kind,value\n"
                        "2020-05-01,new_cases,1.0\n"
                        "2020-05-03,new_cases,2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="contiguous daily run"):
            read_long_csv(str(path))

    @pytest.mark.parametrize("body, problem", [
        ("2020-05-01,new_cases\n", "line 2: 2 fields, expected 3"),
        ("2020-05-01,new_cases,1.0,2.0\n", "line 2: 4 fields, expected 3"),
        ("2020-05-01,new_cases,1.0\n2020-05-32,new_cases,2.0\n", "line 3: "),
        ("2020-05-01,new_cases,many\n", "line 2: could not convert"),
        ("2020-05-01,cases,1.0\n", "line 2: unknown series kind 'cases'"),
        ("2020-05-01,new_cases,1.0\n2020-05-02,new_cases,%s\n" % ("9" * 200_000),
         "line 3: field larger than field limit"),
        ("2020-05-01,new_cases,1.0\n2020-05-02,new_\xffcases,2.0\n",
         "'utf-8' codec can't decode byte 0xff in position 56"),
    ], ids=["short-row", "long-row", "bad-date", "bad-value", "unknown-kind", "huge-field",
            "not-utf-8"])
    def test_csv_read_back_names_file_and_line_of_a_malformed_row(self, tmp_path, body, problem):
        path = tmp_path / "bad.csv"
        path.write_bytes(("date,kind,value\n" + body).encode("latin-1"))
        with pytest.raises(ValueError) as exc:
            read_long_csv(str(path))
        assert str(exc.value).startswith("%s: %s" % (path, problem))

    @pytest.mark.parametrize("doc, problem", [
        ('{"date": "2020-05-01", "kind": "new_cases", "value": 1}', "expected a JSON array"),
        ('[{"date": "2020-05-01", "kind": "new_cases"}]',
         "record 0 is not a {date, kind, value} object"),
        ('[{"date": "2020-05-01", "kind": "new_cases", "value": 1}, 7]',
         "record 1 is not a {date, kind, value} object"),
        ('[{"date": 20200501, "kind": "new_cases", "value": 1}]', "record 0: "),
        ('[{"date": "2020-05-01", "kind": "new_cases", "value": null}]', "record 0: "),
        ('[{"date": "2020-05-01", "kind": ["new_cases"], "value": 1}]',
         "record 0: unknown series kind"),
        ('[{"date": "2020-05-01", ', "Expecting"),
        ('[{"date": "2020-05-01", "kind": "new_\xffcases", "value": 1}]',
         "'utf-8' codec can't decode byte 0xff in position 37"),
    ], ids=["not-an-array", "no-value", "not-an-object", "date-not-a-string", "value-null",
            "kind-not-a-string", "truncated", "not-utf-8"])
    def test_json_read_back_names_file_and_record_of_a_malformed_document(self, tmp_path,
                                                                           doc, problem):
        path = tmp_path / "bad.json"
        path.write_bytes(doc.encode("latin-1"))
        with pytest.raises(ValueError) as exc:
            read_long_json(str(path))
        assert str(exc.value).startswith("%s: %s" % (path, problem))
