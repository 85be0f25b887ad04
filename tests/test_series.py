"""Ingestion, reshaping, and long-format round trips for dated daily series."""

import argparse
import datetime as dt
import os

import numpy as np
import pytest

from lockcycle.series import (
    DailySeries,
    _parse_header_dates,
    _parse_mdy,
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
        tokens = header.split(",")

        def outcome(parse):
            try:
                return parse(tokens, "f.csv")
            except ValueError as exc:
                return str(exc)

        def every_column(tokens, path):
            dates = [_parse_mdy(tok, path, i + 5) for i, tok in enumerate(tokens)]
            for prev, cur in zip(dates, dates[1:]):
                if (cur - prev).days != 1:
                    raise ValueError("%s: date columns must be consecutive days; gap between "
                                     "%s and %s" % (path, prev, cur))
            return dates

        assert outcome(_parse_header_dates) == outcome(every_column)

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
        _render(argparse.Namespace(format="csv", out=path), [], records,
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
        _render(argparse.Namespace(format=None, out=path), [], long_records([cases, deaths]))
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
