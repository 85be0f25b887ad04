"""Command line behavior: payloads, output routing, config handling, exit codes."""

import argparse
import csv
import datetime as dt
import hashlib
import io
import json
import shutil

import numpy as np
import pytest

import lockcycle.series as ser
from lockcycle.series import read_long_csv, read_long_json
from lockcycle.validation import validate
from lockcycle.cli import _render, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def edited_snapshot(data_dir, tmp_path, country, edit, files=("confirmed",)):
    """A copy of the bundled snapshot in which each row of country in the
    named files has its counts, from 1/22/20 on, replaced by edit(counts)."""
    work = tmp_path / "data"
    shutil.copytree(data_dir, work)
    for name in files:
        path = work / ("time_series_covid19_%s_global.csv" % name)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            if row[1] == country:
                row[4:] = edit(row[4:])
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return work


def day(iso):
    # the index of a day among a snapshot row's counts
    return (dt.date.fromisoformat(iso) - dt.date(2020, 1, 22)).days


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    return rc, json.loads(out)


class TestSchedule:
    def test_json_payload(self, capsys):
        rc, doc = run_json(capsys, "schedule")
        assert rc == 0
        assert doc["t_open"] == pytest.approx(31.009345794392527, rel=1e-12)
        assert doc["t_close"] == pytest.approx(22.990654205607473, rel=1e-12)
        assert doc["t_open"] + doc["t_close"] == doc["period"] == 54.0
        assert doc["average_rt"] == pytest.approx(1.0, abs=1e-12)
        assert [p["duration"] for p in doc["phases"]] == [doc["t_open"], doc["t_close"]]

    def test_reproduction_number_flags(self, capsys):
        rc, doc = run_json(capsys, "schedule", "--gamma", "0.1",
                           "--r-open", "1.5", "--r-close", "0.5")
        assert rc == 0
        assert doc["alpha"] == pytest.approx(0.05, rel=1e-12)
        assert doc["beta"] == pytest.approx(0.05, rel=1e-12)
        assert doc["t_open"] == doc["t_close"] == 27.0

    def test_human_summary_is_default(self, capsys):
        rc, out, err = run(capsys, "schedule")
        assert rc == 0
        assert "balanced two-phase schedule" in out
        assert "31" in out
        # three significant figures, not raw repr
        assert "31.009345794392527" not in out

    def test_csv_output(self, capsys):
        rc, out, err = run(capsys, "schedule", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "field,value"
        assert "t_open,31.009345794392527" in lines


class TestSimulate:
    def test_open_close_trajectory(self, capsys):
        rc, doc = run_json(capsys, "simulate")
        assert rc == 0
        assert len(doc["times"]) == 55
        assert doc["active"][0] == 21000.0
        assert doc["active"][31] == pytest.approx(74852.7191146934, rel=1e-12)
        assert doc["active"][-1] == pytest.approx(21000.0, rel=1e-12)
        edges = doc["phase_boundaries"]
        assert len(edges) == 3
        assert edges[1]["active"] == pytest.approx(74881.40649354774, rel=1e-12)

    def test_swapped_order_dips_first(self, capsys):
        rc, doc = run_json(capsys, "simulate", "--order", "co")
        assert rc == 0
        assert min(doc["active"]) < 21000.0 < max(doc["active"])
        assert doc["phase_boundaries"][1]["active"] == pytest.approx(
            5889.312456196982, rel=1e-12)

    def test_chained_orders_double_the_period(self, capsys):
        rc, doc = run_json(capsys, "simulate", "--order", "oc-then-co")
        assert rc == 0
        assert doc["period"] == 108.0
        assert len(doc["phase_boundaries"]) == 5
        assert doc["active"][-1] == pytest.approx(21000.0, rel=1e-10)

    def test_fractional_step_snaps_to_period_end(self, capsys):
        rc, doc = run_json(capsys, "simulate", "--step", "0.7")
        assert rc == 0
        assert doc["times"][-1] == 54.0

    def test_csv_rows(self, capsys):
        rc, out, err = run(capsys, "simulate", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "time,active"
        assert lines[1] == "0.0,21000.0"
        assert len(lines) == 56


class TestCompareCosts:
    def test_json_payload(self, capsys):
        rc, doc = run_json(capsys, "compare-costs")
        assert rc == 0
        assert doc["cost_oc"] == pytest.approx(2288527.9607147914, rel=1e-12)
        assert doc["cost_co"] == pytest.approx(641802.677399652, rel=1e-12)
        assert doc["cost_const"] == 1134000.0
        assert doc["ratio_oc_over_co"] == pytest.approx(3.565781261597511, rel=1e-12)
        assert doc["peak_factor"] == pytest.approx(74881.40649354774 / 21000.0, rel=1e-12)

    def test_human_summary_units(self, capsys):
        rc, out, err = run(capsys, "compare-costs")
        assert rc == 0
        assert "person-days" in out
        assert "OC / CO ratio" in out

    def test_unprinted_new_case_total_does_not_overflow(self, capsys):
        # gamma * cost_oc is past the float range, but no printed figure is
        rc, doc = run_json(capsys, "compare-costs", "--i0", "1e300", "--gamma", "1e13")
        assert rc == 0
        assert doc["cost_oc"] == pytest.approx(1.0897752193879958e302, rel=1e-12)
        assert doc["peak_factor"] == pytest.approx(3.565781261597511, rel=1e-12)


class TestFitCfr:
    def test_fit_on_bundled_snapshot(self, capsys):
        rc, doc = run_json(capsys, "fit-cfr")
        assert rc == 0
        assert doc["country"] == "Israel"
        assert doc["delay_k"] == 3
        assert doc["decay_a"] == pytest.approx(0.9393724244736548, rel=1e-9)
        assert doc["scale_b"] == pytest.approx(0.0005003997811273047, rel=1e-9)
        assert doc["cfr"] == pytest.approx(0.008253666361653861, rel=1e-9)
        assert doc["cv_a_percent"] == pytest.approx(0.2436, abs=2e-4)
        assert doc["cv_b_percent"] == pytest.approx(3.5298, abs=2e-3)

    def test_human_summary(self, capsys):
        rc, out, err = run(capsys, "fit-cfr")
        assert rc == 0
        assert "delay k      3 days" in out
        assert "cv(a)" in out


SNAPSHOT_DATES = "the snapshot's dates (every ingested series covers 2020-01-23..2020-12-31)"


class TestIngest:
    def test_out_files_read_back_as_the_derived_series(self, capsys, data_dir, tmp_path):
        confirmed, deaths, recovered = ser.load_country(data_dir, "Israel")
        derived = [confirmed, deaths, recovered, ser.difference(confirmed),
                   ser.difference(deaths), ser.active_cases(confirmed, deaths, recovered)]
        for suffix, read in ((".csv", read_long_csv), (".json", read_long_json)):
            out_path = str(tmp_path / ("israel" + suffix))
            rc, out, err = run(capsys, "ingest", "--out", out_path)
            assert (rc, err) == (0, "")
            assert "ingested Israel" in out
            back = read(out_path)
            assert set(back) == set(ser.KINDS)
            for s in derived:
                assert back[s.kind].start_date == s.start_date
                assert np.array_equal(back[s.kind].values, s.values)

    def test_window_flags_cut_every_series(self, capsys):
        rc, out, err = run(capsys, "ingest", "--from", "2020-08-30",
                           "--to", "2020-12-16", "--format", "json")
        assert rc == 0
        rows = json.loads(out)
        dates = {r["date"] for r in rows}
        assert min(dates) == "2020-08-30"
        assert max(dates) == "2020-12-16"

    @pytest.mark.parametrize("command, flags, where", [
        # the daily series start a day after the cumulative ones, on 2020-01-23
        ("ingest", "--from 2030-01-01", "after %s" % SNAPSHOT_DATES),
        ("ingest", "--to 2019-01-01", "before %s" % SNAPSHOT_DATES),
        ("ingest", "--to 2020-01-22", "before %s" % SNAPSHOT_DATES),
        # the other edge is fit-cfr's default, and the message says so
        ("fit-cfr", "--from 2030-01-01", "after the default --to 2020-12-29"),
        ("fit-cfr", "--to 2019-01-01", "before the default --from 2020-06-01"),
        ("fit-cfr", "--from 2020-12-30", "after the default --to 2020-12-29"),
        ("fit-cfr", "--to 2020-05-01", "before the default --from 2020-06-01"),
        # both edges given, in the wrong order
        ("ingest", "--from 2020-10-01 --to 2020-09-01", "after --to 2020-09-01"),
        ("fit-cfr", "--from 2020-10-01 --to 2020-09-01", "after --to 2020-09-01"),
    ])
    def test_window_outside_the_snapshot_names_its_flag(self, capsys, command, flags, where):
        argv = flags.split()
        rc, out, err = run(capsys, command, *argv)
        assert (rc, out) == (2, "")
        assert err == "error: %s %s is %s\n" % (*argv[:2], where)

    def test_source_anomalies_are_noted(self, capsys):
        rc, out, err = run(capsys, "ingest")
        assert rc == 0
        assert "note: confirmed_cumulative has 1 negative" in out
        assert "2020-05-04" in out
        assert "note: recovered_cumulative has 1 negative" in out

    def corrupt_israel_row(self, data_dir, tmp_path, edit):
        # a copy of the snapshot whose confirmed file has the Israel row's
        # bytes passed through edit; returns the directory, file and line
        work = tmp_path / "data"
        shutil.copytree(data_dir, work)
        target = work / "time_series_covid19_confirmed_global.csv"
        lines = target.read_bytes().splitlines(keepends=True)
        lineno = next(i for i, line in enumerate(lines, 1) if b",Israel," in line)
        lines[lineno - 1] = edit(lines[lineno - 1])
        target.write_bytes(b"".join(lines))
        return work, target, lineno

    def test_cell_past_the_csv_field_limit_exits_two(self, capsys, data_dir, tmp_path):
        # csv refuses a field over 131,072 characters
        work, target, lineno = self.corrupt_israel_row(
            data_dir, tmp_path, lambda line: line.replace(b",", b"," + b"1" * 131073 + b",", 1))
        rc, out, err = run(capsys, "ingest", "--data-dir", str(work))
        assert (rc, out) == (2, "")
        assert err.startswith("error: %s: line %d: field larger than field limit"
                              % (target, lineno))
        assert "Traceback" not in err

    def test_non_utf8_byte_exits_two(self, capsys, data_dir, tmp_path):
        work, target, _ = self.corrupt_israel_row(
            data_dir, tmp_path, lambda line: line.replace(b"Israel", b"Isra\xffl"))
        rc, out, err = run(capsys, "ingest", "--data-dir", str(work))
        assert (rc, out) == (2, "")
        assert err.startswith("error: %s: 'utf-8' codec can't decode byte 0xff" % target)
        assert "Traceback" not in err


class TestValidate:
    def test_fitted_cfr_passes_all_checks(self, capsys):
        rc, doc = run_json(capsys, "validate")
        assert rc == 0
        assert doc["cfr_source"] == "fitted"
        assert all(c["ok"] for c in doc["checks"])
        assert doc["oc_cases"] == 188351.0
        assert doc["co_cases"] == 51637.0
        assert doc["predicted_ratio_from_model"] == pytest.approx(
            3.40649549722169, rel=1e-12)

    def test_cfr_flag_bypasses_the_fit(self, capsys):
        rc, doc = run_json(capsys, "validate", "--cfr", "0.0085")
        assert rc == 0
        assert doc["cfr_source"] == "flag"
        assert doc["oc_deaths_est"] == 188351.0 * 0.0085

    def test_out_of_band_estimate_exits_three(self, capsys):
        rc, out, err = run(capsys, "validate", "--cfr", "0.02")
        assert rc == 3
        assert "FAIL" in out
        assert err == ""

    def test_corrupted_snapshot_is_rejected(self, capsys, data_dir, tmp_path):
        work = tmp_path / "data"
        shutil.copytree(data_dir, work)
        target = work / "time_series_covid19_confirmed_global.csv"
        target.write_bytes(target.read_bytes() + b"tampered\n")
        rc, out, err = run(capsys, "validate", "--data-dir", str(work))
        assert rc == 2
        assert "snapshot rejected" in err
        assert "checksum mismatch" in err

    def test_missing_manifest_is_rejected(self, capsys, tmp_path):
        rc, out, err = run(capsys, "validate", "--data-dir", str(tmp_path))
        assert rc == 2
        assert "missing MANIFEST.json" in err

    @pytest.mark.parametrize("manifest, problem", [
        ("[]", 'MANIFEST.json has no "files" object'),
        ('{"files": []}', 'MANIFEST.json has no "files" object'),
        ('{"files": {}}', "MANIFEST.json does not list time_series_covid19_"),
        ('{"files": {"time_series_covid19_confirmed_global.csv": {}}}',
         "MANIFEST.json has no sha256 string for time_series_covid19_confirmed_global.csv"),
        (json.dumps({"files": {name: {"sha256": 5} for name in ser.JHU_FILENAMES.values()}}),
         "MANIFEST.json has no sha256 string for time_series_covid19_deaths_global.csv"),
        ("{", "unreadable MANIFEST.json: Expecting property name enclosed in double quotes"),
    ], ids=["array", "files-array", "files-empty", "no-sha256", "sha256-not-a-string",
            "not-json"])
    def test_malformed_manifest_is_rejected(self, capsys, data_dir, tmp_path, manifest, problem):
        work = tmp_path / "data"
        shutil.copytree(data_dir, work)
        (work / "MANIFEST.json").write_text(manifest, encoding="utf-8")
        rc, out, err = run(capsys, "validate", "--data-dir", str(work))
        assert (rc, out) == (2, "")
        assert err.startswith("error: snapshot rejected: ")
        assert "snapshot rejected: %s" % problem in err

    def test_case_total_past_the_float_range_exits_two(self, capsys, data_dir, tmp_path):
        def edit(counts):
            counts[day("2020-08-30")], counts[day("2020-10-23")] = "-1.7e308", "1.7e308"
            return counts

        work = edited_snapshot(data_dir, tmp_path, "Israel", edit)
        manifest = json.loads((work / "MANIFEST.json").read_text(encoding="utf-8"))
        for name, entry in manifest["files"].items():
            entry["sha256"] = hashlib.sha256((work / name).read_bytes()).hexdigest()
        (work / "MANIFEST.json").write_text(json.dumps(manifest), encoding="utf-8")
        for fmt in ([], ["--format", "json"], ["--format", "csv"]):
            rc, out, err = run(capsys, "validate", "--data-dir", str(work), "--cfr", "0.0085", *fmt)
            assert (rc, out, err) == (2, "", "error: oc_cases must be a finite number, got inf\n")

    def test_manifest_after_a_byte_order_mark_is_read(self, capsys, data_dir, tmp_path):
        work = tmp_path / "data"
        shutil.copytree(data_dir, work)
        manifest = work / "MANIFEST.json"
        manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
        argv = ("validate", "--cfr", "0.0085", "--format", "json")
        rc, out, err = run(capsys, *argv, "--data-dir", str(work))
        assert (rc, err) == (0, "")
        assert (rc, out, err) == run(capsys, *argv)

    @pytest.mark.parametrize("cfr", [None, 0.0085])
    def test_validate_returns_the_json_document(self, capsys, data_dir, cfr):
        doc = validate(data_dir, cfr)
        argv = ["validate", "--format", "json"] + ([] if cfr is None else ["--cfr", str(cfr)])
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        assert json.dumps(doc, indent=2, allow_nan=False) + "\n" == out
        # the estimates and their ratio are the exact products and quotient
        assert doc["oc_deaths_est"] == doc["oc_cases"] * doc["cfr_used"]
        assert doc["co_deaths_est"] == doc["co_cases"] * doc["cfr_used"]
        assert doc["death_ratio"] == doc["oc_cases"] / doc["co_cases"]


class TestPinnedOutput:
    """Complete human summaries and key-value CSV field lists on defaults."""

    SUMMARIES = {
        "schedule": """\
balanced two-phase schedule
  period      54 days
  open        31 days at R_t 1.57 (growth 0.041 /day)
  close       23 days at R_t 0.226 (decay 0.0553 /day)
  gamma       0.0714 /day
  average R_t over the cycle: 1
""",
        "simulate": """\
active-case trajectory, oc order, 54 days
  samples     55 (step 1 days)
  start       2.1e+04
  peak        7.49e+04 at day 31
  end         2.1e+04
  phase edge  day 31       active 7.49e+04
  phase edge  day 54       active 2.1e+04
""",
        "compare-costs": """\
cycle-order cost comparison (alpha 0.041, beta 0.0553 /day, I0 2.1e+04, 54 days)
  open-close cost   2.29e+06 person-days
  close-open cost   6.42e+05 person-days
  constant cost     1.13e+06 person-days
  OC / CO ratio     3.57
  peak factor       3.57 (peak 7.49e+04 from 2.1e+04)
""",
        "fit-cfr": """\
fatality kernel fit for Israel, 2020-06-01..2020-12-29
  smoothing    7-day trailing mean
  delay range  0..15 days
  delay k      3 days
  decay a      0.939
  scale b      0.0005
  CFR          0.00825
  sse          1.29e+03
  cv(a)        0.244%
  cv(b)        3.53%
""",
        "ingest": """\
ingested Israel from {data_dir}
  confirmed_cumulative   345 days, 2020-01-22..2020-12-31
  deaths_cumulative      345 days, 2020-01-22..2020-12-31
  recovered_cumulative   345 days, 2020-01-22..2020-12-31
  new_cases              344 days, 2020-01-23..2020-12-31
  daily_deaths           344 days, 2020-01-23..2020-12-31
  active_cases           345 days, 2020-01-22..2020-12-31
  note: confirmed_cumulative has 1 negative daily change(s): 2020-05-04 (-25)
  note: recovered_cumulative has 1 negative daily change(s): 2020-07-10 (-120)
  note: new_cases has 1 negative value(s): 2020-05-04 (-25)
""",
        "validate": """\
two-cycle validation on {data_dir}
  open-first window   2020-08-30..2020-10-23  1.88e+05 cases
  close-first window  2020-10-23..2020-12-16  5.16e+04 cases
  CFR used            0.00825 (fitted)
  estimated deaths    1.55e+03 vs 426
  death ratio         3.65
  predicted ratio     3.41 (peak over baseline active)
  ok   active_2020-08-30            2.09e+04 in [2.09e+04, 2.09e+04]
  ok   active_2020-10-03            7.11e+04 in [7.11e+04, 7.11e+04]
  ok   active_2020-11-16            8.7e+03 in [8.7e+03, 8.7e+03]
  ok   active_2020-12-16            2.08e+04 in [2.08e+04, 2.08e+04]
  ok   oc_cases                     1.88e+05 in [1.84e+05, 1.96e+05]
  ok   co_cases                     5.16e+04 in [5.04e+04, 5.36e+04]
  ok   oc_deaths_est                1.55e+03 in [1.52e+03, 1.68e+03]
  ok   co_deaths_est                426 in [418, 462]
  ok   death_ratio                  3.65 in [3.5, 3.9]
  ok   predicted_ratio_from_model   3.41 in [3.4, 3.8]
""",
    }

    FIELDS = {
        "schedule": "order gamma r_open r_close alpha beta i0 period t_open t_close "
                    "average_rt",
        "compare-costs": "alpha beta gamma i0 period cost_oc cost_co cost_const "
                         "ratio_oc_over_co i_max peak_factor",
        "fit-cfr": "country date_from date_to k_min k_max smooth_window delay_k "
                   "decay_a scale_b cfr sse cv_a_percent cv_b_percent",
        "validate": "oc_window co_window oc_cases co_cases cfr_used cfr_source "
                    "oc_deaths_est co_deaths_est death_ratio predicted_ratio_from_model "
                    + " ".join("check:" + name for name in (
                        "active_2020-08-30", "active_2020-10-03", "active_2020-11-16",
                        "active_2020-12-16", "oc_cases", "co_cases", "oc_deaths_est",
                        "co_deaths_est", "death_ratio", "predicted_ratio_from_model")),
    }

    @pytest.mark.parametrize("command", sorted(SUMMARIES))
    def test_human_summary(self, capsys, data_dir, command):
        rc, out, err = run(capsys, command)
        assert (rc, err) == (0, "")
        assert out == self.SUMMARIES[command].format(data_dir=data_dir)

    @pytest.mark.parametrize("command", sorted(FIELDS))
    def test_key_value_csv_fields(self, capsys, command):
        rc, out, err = run(capsys, command, "--format", "csv")
        assert (rc, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["field", "value"]
        assert [row[0] for row in rows[1:]] == self.FIELDS[command].split()
        assert all(len(row) == 2 for row in rows)


class TestOutputRouting:
    def test_out_file_plus_human_summary(self, capsys, tmp_path):
        out_path = str(tmp_path / "sched.json")
        rc, out, err = run(capsys, "schedule", "--out", out_path)
        assert rc == 0
        assert "balanced two-phase schedule" in out
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["period"] == 54.0

    def test_extension_picks_csv(self, capsys, tmp_path):
        out_path = str(tmp_path / "sched.csv")
        rc, out, err = run(capsys, "schedule", "--out", out_path)
        assert rc == 0
        with open(out_path, encoding="utf-8") as fh:
            assert fh.readline() == "field,value\n"

    def test_explicit_format_beats_extension(self, capsys, tmp_path):
        out_path = str(tmp_path / "sched.json")
        rc, out, err = run(capsys, "schedule", "--format", "csv", "--out", out_path)
        assert rc == 0
        with open(out_path, encoding="utf-8") as fh:
            assert fh.readline() == "field,value\n"

    def test_structured_stdout_suppresses_human_text(self, capsys):
        rc, out, err = run(capsys, "schedule", "--format", "json")
        assert rc == 0
        json.loads(out)
        assert "balanced" not in out

    def test_repeated_runs_are_byte_identical(self, capsys):
        for argv in (("schedule",), ("simulate", "--step", "0.5"),
                     ("compare-costs",), ("validate", "--cfr", "0.0085")):
            _, first, _ = run(capsys, *argv, "--format", "json")
            _, second, _ = run(capsys, *argv, "--format", "json")
            assert first == second


class TestConfigFiles:
    def write(self, tmp_path, text):
        p = tmp_path / "run.cfg"
        p.write_text(text, encoding="utf-8")
        return str(p)

    def test_config_supplies_values(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "# working point\nalpha = 0.05\nperiod = 60\n")
        rc, doc = run_json(capsys, "--config", cfg, "schedule")
        assert rc == 0
        assert doc["alpha"] == 0.05
        assert doc["period"] == 60.0

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "period = 60\n")
        rc, doc = run_json(capsys, "--config", cfg, "schedule", "--period", "54")
        assert rc == 0
        assert doc["period"] == 54.0

    def test_hyphenated_keys_and_date_aliases(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "r-open = 1.5\nr-close = 0.5\ngamma = 0.1\n")
        rc, doc = run_json(capsys, "--config", cfg, "schedule")
        assert rc == 0
        assert doc["r_open"] == 1.5

        cfg2 = self.write(tmp_path, "from = 2020-06-01\nto = 2020-12-29\n")
        rc, doc = run_json(capsys, "--config", cfg2, "fit-cfr")
        assert rc == 0
        assert doc["date_from"] == "2020-06-01"
        assert doc["date_to"] == "2020-12-29"

    def test_unknown_key_is_an_error(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "alhpa = 0.05\n")
        rc, out, err = run(capsys, "--config", cfg, "schedule")
        assert rc == 2
        assert "unknown config key" in err

    def test_missing_config_file_is_an_error(self, capsys, tmp_path):
        rc, out, err = run(capsys, "--config", str(tmp_path / "absent.cfg"), "schedule")
        assert rc == 2
        assert "error:" in err

    def test_config_bytes_decode_as_csse_files_do(self, capsys, tmp_path):
        # a byte-order mark is skipped, and a byte that is not UTF-8 names the file
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfperiod=54\n")
        rc, doc = run_json(capsys, "--config", str(cfg), "schedule")
        assert (rc, doc["period"]) == (0, 54.0)
        cfg.write_bytes(b"period=\xff54\n")
        rc, out, err = run(capsys, "--config", str(cfg), "schedule")
        assert (rc, out) == (2, "")
        assert err.startswith("error: %s: 'utf-8' codec can't decode byte 0xff" % cfg)

    def test_line_without_equals_is_an_error(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "alpha\n")
        rc, out, err = run(capsys, "--config", cfg, "schedule")
        assert rc == 2
        assert "expected key=value" in err

    @pytest.mark.parametrize("command, text, field, expected", [
        ("schedule", "alpha = 0.05\n", "alpha", 0.05),                     # float
        ("fit-cfr", "k-max = 10\n", "k_max", 10),                          # int
        ("fit-cfr", "country = Korea, South\n", "country", "Korea, South"),  # str
        ("simulate", "order = co\n", "order", "co"),                       # choice
        ("fit-cfr", "from = 2020-07-01\n", "date_from", "2020-07-01"),     # date alias
    ])
    def test_each_value_kind_reaches_the_handler(self, capsys, tmp_path, command, text,
                                                 field, expected):
        rc, doc = run_json(capsys, "--config", self.write(tmp_path, text), command)
        assert rc == 0
        assert doc[field] == expected
        assert type(doc[field]) is type(expected)

    def test_format_choice_from_config(self, capsys, tmp_path):
        rc, out, err = run(capsys, "--config", self.write(tmp_path, "format = csv\n"), "schedule")
        assert (rc, err) == (0, "")
        assert out.startswith("field,value\n")

    def test_flags_override_config_of_every_kind(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "order = co\nstep = 2\nformat = csv\n")
        rc, doc = run_json(capsys, "--config", cfg, "simulate", "--order", "oc", "--step", "1")
        assert rc == 0
        assert (doc["order"], doc["step"]) == ("oc", 1.0)
        cfg = self.write(tmp_path, "k-max = 5\ncountry = Atlantis\nto = 2020-12-01\n")
        rc, doc = run_json(capsys, "--config", cfg, "fit-cfr", "--k-max", "15",
                           "--country", "Israel", "--to", "2020-12-29")
        assert rc == 0
        assert (doc["k_max"], doc["country"], doc["date_to"]) == (15, "Israel", "2020-12-29")

    @pytest.mark.parametrize("command, text, lineno, key, message", [
        ("schedule", "period = 60\nalpha = abc\n", 2, "alpha", "invalid float value: 'abc'"),
        ("fit-cfr", "k_max = 1.5\n", 1, "k_max", "invalid int value: '1.5'"),
        ("simulate", "format = xml\n", 1, "format", "invalid choice: 'xml'"),
        # checked although schedule has no --order
        ("schedule", "order = xyz\n", 1, "order", "invalid choice: 'xyz'"),
    ])
    def test_bad_value_names_file_line_and_key(self, capsys, tmp_path, command, text, lineno,
                                               key, message):
        cfg = self.write(tmp_path, text)
        rc, out, err = run(capsys, "--config", cfg, command)
        assert (rc, out) == (2, "")
        assert err.startswith("error: %s:%d: %s: %s" % (cfg, lineno, key, message))


class TestBadArguments:
    def test_bad_date_exits_two(self, capsys):
        rc, out, err = run(capsys, "fit-cfr", "--from", "2020-13-01")
        assert rc == 2
        assert "expected an ISO date" in err

    def test_mixed_parameter_styles_exit_two(self, capsys):
        rc, out, err = run(capsys, "schedule", "--alpha", "0.04", "--r-open", "1.5")
        assert rc == 2
        assert "not both" in err

    def test_lone_reproduction_number_exits_two(self, capsys):
        rc, out, err = run(capsys, "schedule", "--r-open", "1.5")
        assert rc == 2
        assert "go together" in err

    def test_short_fit_window_is_named_exits_two(self, capsys):
        # 23 aligned points: too few for any delay, not just the top of k_range
        rc, out, err = run(capsys, "fit-cfr", "--from", "2020-12-01")
        assert rc == 2
        assert out == ""
        assert err == ("error: only 23 points are aligned after a smooth_window of 7 days: "
                       "even the smallest delay, 0, leaves fewer than the 60 fitted points "
                       "a fit needs\n")

    def test_unknown_country_exits_two(self, capsys):
        rc, out, err = run(capsys, "fit-cfr", "--country", "Atlantis")
        assert rc == 2
        assert "available countries" in err

    @pytest.mark.parametrize("argv, field", [
        (("schedule", "--i0", "inf"), "i0"),
        (("compare-costs", "--period", "inf"), "period"),
        (("simulate", "--i0", "inf", "--period", "2"), "i0"),
        (("validate", "--cfr", "-1"), "--cfr"),
        (("validate", "--cfr", "2"), "--cfr"),
        (("validate", "--cfr", "inf"), "--cfr"),
        (("validate", "--cfr", "nan"), "--cfr"),
        (("simulate", "--step", "inf"), "sample_step"),
        (("simulate", "--step", "nan"), "sample_step"),
    ])
    def test_non_finite_or_out_of_range_input_exits_two(self, capsys, argv, field):
        rc, out, err = run(capsys, *argv, "--format", "json")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: %s must be a finite" % field)

    @pytest.mark.parametrize("command", ["fit-cfr", "ingest"])
    def test_non_finite_data_cell_exits_two(self, capsys, data_dir, tmp_path, command):
        work = tmp_path / "data"
        shutil.copytree(data_dir, work)
        target = work / "time_series_covid19_confirmed_global.csv"
        lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
        lineno = next(i for i, line in enumerate(lines, 1) if ",Israel," in line)
        cells = lines[lineno - 1].split(",")
        cells[4 + 300] = "nan"  # 300 days after 1/22/20
        lines[lineno - 1] = ",".join(cells)
        target.write_text("".join(lines), encoding="utf-8")
        rc, out, err = run(capsys, command, "--data-dir", str(work), "--format", "json")
        assert rc == 2
        assert out == ""
        assert str(target) in err
        assert "line %d has the non-finite value 'nan' on 2020-11-17" % lineno in err

    SERIES_PAST_THE_FLOAT_RANGE = {  # case: (file, country, cells, problem)
        # both cells are finite; their difference is not
        "difference": ("confirmed", "Korea, South",
                       {"2020-10-01": "1.7e308", "2020-10-02": "-1.7e308"},
                       "new_cases has the non-finite value -inf on 2020-10-02"),
        # each province's cell is finite; their sum is not
        "sum": ("confirmed", "Australia", {"2020-12-31": "1e308"},
                "{file}: confirmed_cumulative has the non-finite value inf on 2020-12-31"),
        # ingest reports the recovered series' daily changes, which fit-cfr never reads
        "recovered": ("recovered", "Korea, South",
                      {"2020-10-01": "1.7e308", "2020-10-02": "-1.7e308"},
                      "recovered_cumulative has the non-finite value -inf on 2020-10-02"),
    }

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"], ["--format", "csv"]])
    @pytest.mark.parametrize("case, command", [
        ("difference", "fit-cfr"), ("difference", "ingest"),
        ("sum", "fit-cfr"), ("sum", "ingest"),
        ("recovered", "ingest"),
    ])
    def test_series_past_the_float_range_exits_two(self, capsys, data_dir, tmp_path, case,
                                                    command, fmt):
        name, country, cells, problem = self.SERIES_PAST_THE_FLOAT_RANGE[case]

        def edit(counts):
            for iso, cell in cells.items():
                counts[day(iso)] = cell
            return counts

        work = edited_snapshot(data_dir, tmp_path, country, edit, (name,))
        rc, out, err = run(capsys, command, "--data-dir", str(work), "--country", country, *fmt)
        assert (rc, out) == (2, "")
        file = work / ("time_series_covid19_%s_global.csv" % name)
        assert err == "error: %s\n" % problem.format(file=file)

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"], ["--format", "csv"]])
    def test_fit_past_the_float_range_exits_two(self, capsys, data_dir, tmp_path, fmt):
        # every count is finite, but their squares are not; pytest turns a
        # numpy warning into an error, so none is raised either
        work = edited_snapshot(data_dir, tmp_path, "Israel",
                               lambda counts: [repr(float(c) * 1e180) for c in counts],
                               ("confirmed", "deaths", "recovered"))
        rc, out, err = run(capsys, "fit-cfr", "--data-dir", str(work), *fmt)
        assert (rc, out) == (2, "")
        assert err.startswith("error: scale_b must be a finite number, got ")
        assert err.count("\n") == 1
        # the counts themselves are in range, so ingest reports them
        rc, records = run_json(capsys, "ingest", "--data-dir", str(work))
        assert rc == 0
        confirmed, deaths, recovered, _, _, active = records[-6:]  # the last day's
        assert confirmed == {"date": "2020-12-31", "kind": "confirmed_cumulative",
                             "value": 401826.0 * 1e180}
        assert active["value"] == confirmed["value"] - deaths["value"] - recovered["value"]

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"], ["--format", "csv"]])
    @pytest.mark.parametrize("argv, field", [
        (("compare-costs", "--period", "1e6"), "period=1000000.0"),
        (("simulate", "--period", "1e5"), "period=100000.0"),
        (("simulate", "--i0", "1e307", "--period", "200"), "i0=1e+307"),
        (("compare-costs", "--i0", "1e306", "--period", "200"), "i0=1e+306"),
        # alpha + beta overflows, so the balanced split would give t_open = 0
        (("schedule", "--alpha", "1e308", "--beta", "1e308", "--gamma", "1e308"), "alpha=1e+308"),
        # the derived pair overflows; the message names the inputs given
        (("schedule", "--r-open", "1e308", "--r-close", "0.5", "--gamma", "10"), "r_open=1e+308"),
        (("schedule", "--alpha", "1e308", "--beta", "1e-11", "--gamma", "1e-10"), "alpha=1e+308"),
        # results below the smallest normal float: a cost, a phase length, a count
        (("compare-costs", "--i0", "5e-324"), "i0=5e-324"),
        (("compare-costs", "--period", "1e-320"), "period=1e-320"),
        (("compare-costs", "--i0", "1e20", "--period", "1e-320"), "period=1e-320"),
        (("schedule", "--period", "1e-320"), "period=1e-320"),
        (("simulate", "--i0", "1e-320"), "i0=1e-320"),
    ])
    def test_closed_form_leaving_the_float_range_exits_two(self, capsys, argv, field, fmt):
        rc, out, err = run(capsys, *argv, *fmt)
        assert (rc, out) == (2, "")
        assert err.startswith("error: the ")
        assert "leaves the float range at " in err
        assert field in err
        assert err.count("\n") == 1

    def test_step_past_the_sample_cap_exits_two(self, capsys):
        # 1e-9 days over a 54-day cycle is 5.4e10 samples, refused before allocating
        rc, out, err = run(capsys, "simulate", "--step", "1e-9", "--format", "json")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: sample_step=1e-09 would take 5.4e+10 samples")

    def test_json_writer_rejects_nan_before_writing(self, capsys, tmp_path):
        payload = {"ok": 1.0, "bad": float("nan")}
        options = argparse.Namespace(format="json", out=None)
        with pytest.raises(ValueError):
            _render(options, "summary", payload)
        assert capsys.readouterr().out == ""
        out_path = tmp_path / "doc.json"
        options.out = str(out_path)
        with pytest.raises(ValueError):
            _render(options, "summary", payload)
        assert not out_path.exists()
        assert capsys.readouterr().out == ""

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
