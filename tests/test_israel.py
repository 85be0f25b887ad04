"""End-to-end checks against the bundled Israel data snapshot.

These pin the analysis numbers the package reproduces from the shipped
files: lockdown-window case totals, the peak-to-trough geometry of the
active-case curve over the two cycles, and the fatality-kernel fit.
"""

import datetime as dt
import os
import shutil

import numpy as np
import pytest

import lockcycle.series as ser
from lockcycle.cfr import _moving_average, fit as fit_cfr
from lockcycle.series import FIT_FROM, FIT_TO, parse_jhu_timeseries
from lockcycle.validation import (
    CYCLE_SPLIT,
    OC_START,
    PERIOD_END,
    validate,
    verify_checksums,
)

import oracles

D = dt.date

FILES = {
    "confirmed": "time_series_covid19_confirmed_global.csv",
    "deaths": "time_series_covid19_deaths_global.csv",
    "recovered": "time_series_covid19_recovered_global.csv",
}

KIND_FOR = {
    "confirmed": "confirmed_cumulative",
    "deaths": "deaths_cumulative",
    "recovered": "recovered_cumulative",
}


@pytest.fixture(scope="module")
def israel(data_dir):
    out = {}
    for name, fname in FILES.items():
        out[name] = parse_jhu_timeseries(os.path.join(data_dir, fname),
                                         "Israel", kind=KIND_FOR[name])
    out["active"] = ser.active_cases(out["confirmed"], out["deaths"],
                                     out["recovered"])
    return out


@pytest.fixture(scope="module")
def fit_inputs(israel):
    new_cases = ser.window(ser.difference(israel["confirmed"]), FIT_FROM, FIT_TO)
    daily_deaths = ser.window(ser.difference(israel["deaths"]), FIT_FROM, FIT_TO)
    return new_cases, daily_deaths


@pytest.fixture(scope="module")
def israel_fit(fit_inputs):
    return fit_cfr(*fit_inputs)


def test_snapshot_checksums_are_clean(data_dir):
    assert verify_checksums(data_dir) == []


@pytest.mark.parametrize("cfr", [float("nan"), float("inf"), -1.0, 2.0])
def test_validate_rejects_a_cfr_outside_the_unit_interval(tmp_path, cfr):
    # checked before any file is read: tmp_path holds no snapshot
    with pytest.raises(ValueError, match=r"^cfr must be a finite fraction in \[0, 1\]"):
        validate(str(tmp_path), cfr)


def test_validate_verifies_the_snapshot_before_reading_it(data_dir, tmp_path):
    work = tmp_path / "data"
    shutil.copytree(data_dir, work)
    target = work / FILES["deaths"]
    target.write_bytes(target.read_bytes() + b"tampered\n")
    (work / FILES["recovered"]).unlink()
    with pytest.raises(ValueError) as exc:
        validate(str(work), 0.0085)
    lines = str(exc.value).splitlines()
    assert [line.split(":")[:2] for line in lines] == [
        ["snapshot rejected", " checksum mismatch for %s" % FILES["deaths"]],
        ["snapshot rejected", " missing data file %s" % FILES["recovered"]],
    ]
    assert validate(data_dir, 0.0085)[0].oc_cases == 188351.0


def test_active_case_anchor_points(israel):
    active = israel["active"]
    assert active.value_on(D(2020, 8, 30)) == 20876.0
    assert active.value_on(D(2020, 10, 3)) == 71114.0
    assert active.value_on(D(2020, 11, 16)) == 8697.0
    assert active.value_on(D(2020, 12, 16)) == 20791.0


def test_autumn_peak_lands_on_october_third(israel):
    two_cycles = ser.window(israel["active"], OC_START, PERIOD_END)
    peak_idx = int(np.argmax(two_cycles.values))
    assert two_cycles.dates()[peak_idx] == D(2020, 10, 3)
    assert two_cycles.values[peak_idx] == 71114.0


def test_window_case_totals(israel):
    confirmed = israel["confirmed"]
    oc = confirmed.value_on(CYCLE_SPLIT) - confirmed.value_on(OC_START)
    co = confirmed.value_on(PERIOD_END) - confirmed.value_on(CYCLE_SPLIT)
    assert oc == 188351.0
    assert co == 51637.0
    # the open-first window carries well over three times the closed-first load
    assert oc / co == pytest.approx(3.6476, abs=1e-3)


def test_peak_to_start_ratio_of_active_curve(israel):
    two_cycles = ser.window(israel["active"], OC_START, PERIOD_END)
    ratio = float(np.max(two_cycles.values)) / two_cycles.value_on(OC_START)
    assert ratio == pytest.approx(3.40649549722169, rel=1e-12)


def test_fatality_kernel_fit(israel_fit):
    fit = israel_fit
    assert fit.delay_k == 3
    assert fit.decay_a == pytest.approx(0.9393724244736548, rel=1e-9)
    assert fit.scale_b == pytest.approx(0.0005003997811273047, rel=1e-9)
    assert fit.cfr == pytest.approx(0.008253666361653861, rel=1e-9)
    assert fit.sse == pytest.approx(1285.5221644869553, rel=1e-6)


def test_kernel_pins_are_the_profile_optimum(fit_inputs):
    # the decay/scale pins above come from this independent day-step
    # bisection at the fitted delay, not from the library's own output
    assert fit_inputs[0].start_date == fit_inputs[1].start_date
    cases, deaths = (_moving_average(s.values, 7) for s in fit_inputs)
    assert len(cases) == len(deaths)
    a, b = oracles.profile_optimum(cases.tolist(), deaths.tolist(), 3, 0.9, 0.98)
    assert a == pytest.approx(0.9393724244736548, rel=1e-12)
    assert b == pytest.approx(0.0005003997811273047, rel=1e-12)


def test_fit_uncertainty_is_moderate(israel_fit):
    # relative dispersions in percent; the decay is tightly determined, the
    # scale much less so
    assert israel_fit.cv_a == pytest.approx(0.24364724416279573, rel=1e-6)
    assert israel_fit.cv_b == pytest.approx(3.5298419968841617, rel=1e-6)
    assert 0.17 < israel_fit.cv_a < 0.51
    assert 2.585 < israel_fit.cv_b < 7.755


def test_fitted_deaths_cover_the_requested_span(israel_fit):
    fitted = israel_fit.fitted_deaths
    assert fitted.kind == "daily_deaths"
    assert fitted.start_date == D(2020, 6, 7)
    assert len(fitted) == 206


def test_source_anomalies_are_reported_not_repaired(israel):
    confirmed_report = ser.ingest_report(israel["confirmed"])
    assert len(confirmed_report) == 1
    assert confirmed_report[0][0] == D(2020, 5, 4)

    recovered_report = ser.ingest_report(israel["recovered"])
    assert len(recovered_report) == 1
    assert recovered_report[0][0] == D(2020, 7, 10)

    deaths_report = ser.ingest_report(israel["deaths"])
    assert deaths_report == ()
