"""Command line front end.

Subcommands wire the library into reproducible pipelines: balanced schedule
tables, trajectory simulation, cycle-order cost comparison, fatality-kernel
fitting, snapshot ingestion to long-format files, and the bundled-snapshot
validation with tolerance checks.

Output convention: with no --format/--out a human summary (values shown to 3
significant figures) goes to stdout.  With --format and no --out the
structured document goes to stdout instead, full precision, nothing else.
With --out the structured document goes to the file and the human summary is
still printed.  Structured outputs contain no timestamps or environment
detail, so identical inputs give byte-identical files.

Exit codes: 0 success, 2 bad input (arguments, config, data files, checksum
mismatch), 3 validation ran but a tolerance check failed.
"""

import argparse
import csv
import dataclasses
import datetime as dt
import hashlib
import json
import math
import os
import sys

from . import cfr as cfr_fit
from . import core, costs
from . import series as ser

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TOLERANCE = 3

# Default strategy parameters: the Israeli second-wave working point used
# throughout the docs (growth 0.041/day open, decay 0.0553/day closed,
# 21,000 active cases, 54-day cycle).
DEFAULT_ALPHA = 0.0410
DEFAULT_BETA = 0.0553
DEFAULT_I0 = 21000.0
DEFAULT_PERIOD = 54.0

# Validation geometry: two back-to-back 54-day cycles, open-first then
# close-first, with case totals read off the cumulative confirmed curve at
# the cycle boundaries.
OC_START = dt.date(2020, 8, 30)
CYCLE_SPLIT = dt.date(2020, 10, 23)
PERIOD_END = dt.date(2020, 12, 16)

ANCHORS = (
    (dt.date(2020, 8, 30), 20876.0),
    (dt.date(2020, 10, 3), 71114.0),
    (dt.date(2020, 11, 16), 8697.0),
    (dt.date(2020, 12, 16), 20791.0),
)

FIT_FROM = dt.date(2020, 6, 1)
FIT_TO = dt.date(2020, 12, 29)

# (name, center, tolerance, kind); rel = fraction of center, abs = plain band
TOLERANCES = (
    ("oc_cases", 190000.0, 0.03, "rel"),
    ("co_cases", 52000.0, 0.03, "rel"),
    ("oc_deaths_est", 1600.0, 0.05, "rel"),
    ("co_deaths_est", 440.0, 0.05, "rel"),
    ("death_ratio", 3.7, 0.2, "abs"),
    ("predicted_ratio_from_model", 3.6, 0.2, "abs"),
)


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    """Outcome of the two-cycle validation on a snapshot.

    Windows are half-open [start, end) boundary pairs; case totals are the
    cumulative confirmed differences across those boundaries.  The death
    estimates and the ratio are exact arithmetic on the other fields, which
    the constructor enforces.
    """

    oc_window: tuple
    co_window: tuple
    oc_cases: float
    co_cases: float
    cfr_used: float
    oc_deaths_est: float
    co_deaths_est: float
    death_ratio: float
    predicted_ratio_from_model: float

    def __post_init__(self):
        if self.oc_deaths_est != self.oc_cases * self.cfr_used:
            raise ValueError("oc_deaths_est must equal oc_cases * cfr_used")
        if self.co_deaths_est != self.co_cases * self.cfr_used:
            raise ValueError("co_deaths_est must equal co_cases * cfr_used")
        if self.death_ratio != self.oc_cases / self.co_cases:
            raise ValueError("death_ratio must equal oc_cases / co_cases")


def default_data_dir() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _s3(x) -> str:
    # 3 significant figures for human tables; structured output stays exact
    return "%.3g" % x


def _parse_iso(text, flag):
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise ValueError("%s: expected an ISO date (YYYY-MM-DD), got %r" % (flag, text))


# --- config files ----------------------------------------------------------

_FLOAT_KEYS = ("alpha", "beta", "gamma", "r_open", "r_close", "i0", "period",
               "step", "cfr")
_INT_KEYS = ("k_min", "k_max", "smooth_window")
_STR_KEYS = ("order", "country", "format", "out", "data_dir",
             "date_from", "date_to")
_KEY_ALIASES = {"from": "date_from", "to": "date_to"}


def load_config(path):
    """Read a key=value file mirroring the long flags.

    Hyphens and underscores are interchangeable in keys, 'from'/'to' are
    accepted for the date range, blank lines and #-comments are ignored,
    and unknown keys are rejected so typos do not silently vanish.
    """
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key=value, got %r" % (path, lineno, line))
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            key = _KEY_ALIASES.get(key, key)
            value = value.strip()
            if key in _FLOAT_KEYS:
                out[key] = float(value)
            elif key in _INT_KEYS:
                out[key] = int(value)
            elif key in _STR_KEYS:
                out[key] = value
            else:
                raise ValueError("%s:%d: unknown config key %r" % (path, lineno, key))
    return out


# --- shared plumbing --------------------------------------------------------

def _resolve_params(opt) -> core.StrategyParams:
    """Build strategy parameters from flags, config and defaults.

    Either the growth-rate pair or the reproduction-number pair may be given;
    unspecified growth rates fall back to the documented defaults.
    """
    has_repro = opt("r_open") is not None or opt("r_close") is not None
    has_rates = opt("alpha") is not None or opt("beta") is not None
    if has_repro and has_rates:
        raise ValueError("pass either --alpha/--beta or --r-open/--r-close, not both")
    gamma = opt("gamma", core.DEFAULT_GAMMA)
    i0 = opt("i0", DEFAULT_I0)
    period = opt("period", DEFAULT_PERIOD)
    if has_repro:
        r_open, r_close = opt("r_open"), opt("r_close")
        if r_open is None or r_close is None:
            raise ValueError("--r-open and --r-close go together")
        return core.StrategyParams.from_reproduction_numbers(gamma, r_open, r_close, i0, period)
    return core.StrategyParams.from_growth_rates(
        opt("alpha", DEFAULT_ALPHA), opt("beta", DEFAULT_BETA), i0, period, gamma=gamma)


def _json_writer(payload):
    def write(fh):
        # serialise first, so a non-finite value fails before any byte is written
        fh.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return write


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _kv_csv_writer(pairs):
    def write(fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["field", "value"])
        for key, value in pairs:
            w.writerow([key, _cell(value)])
    return write


def _emit(opt, human_lines, writers) -> None:
    fmt = opt("format")
    out = opt("out")
    if out and fmt is None:
        fmt = "csv" if out.endswith(".csv") else "json"
    if fmt is not None:
        if fmt not in writers:
            raise ValueError("this command has no %s output" % fmt)
        if out:
            with open(out, "w", newline="", encoding="utf-8") as fh:
                writers[fmt](fh)
        else:
            writers[fmt](sys.stdout)
            return
    for line in human_lines:
        print(line)


def _load_country(data_dir, country, kinds=None):
    out = []
    for kind in kinds or ser.CUMULATIVE_KINDS:
        path = os.path.join(data_dir, ser.JHU_FILENAMES[kind])
        out.append(ser.parse_jhu_timeseries(path, country, kind))
    return out


def verify_checksums(data_dir):
    """Compare every file listed in MANIFEST.json against its sha256.

    Returns a list of problem strings; empty means the snapshot is intact.
    """
    manifest_path = os.path.join(data_dir, "MANIFEST.json")
    if not os.path.exists(manifest_path):
        return ["missing MANIFEST.json in %s" % data_dir]
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (json.JSONDecodeError, OSError) as exc:
        return ["unreadable MANIFEST.json: %s" % exc]
    problems = []
    for name in sorted(manifest.get("files", {})):
        expected = manifest["files"][name]["sha256"]
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


# --- subcommands ------------------------------------------------------------

def cmd_schedule(opt) -> int:
    params = _resolve_params(opt)
    t_open, t_close = core.phase_lengths(params)
    sched = core.PhaseSchedule.open_close(params)
    payload = {
        "order": "open-close",
        "gamma": params.gamma,
        "r_open": params.r_open,
        "r_close": params.r_close,
        "alpha": params.alpha,
        "beta": params.beta,
        "i0": params.i0,
        "period": params.period,
        "t_open": t_open,
        "t_close": t_close,
        "average_rt": core.average_rt(sched),
        "phases": [{"rt": p.rt, "duration": p.duration} for p in sched.phases],
    }
    human = [
        "balanced two-phase schedule",
        "  period      %s days" % _s3(params.period),
        "  open        %s days at R_t %s (growth %s /day)"
        % (_s3(t_open), _s3(params.r_open), _s3(params.alpha)),
        "  close       %s days at R_t %s (decay %s /day)"
        % (_s3(t_close), _s3(params.r_close), _s3(params.beta)),
        "  gamma       %s /day" % _s3(params.gamma),
        "  average R_t over the cycle: %s" % _s3(payload["average_rt"]),
    ]
    flat = [(k, v) for k, v in payload.items() if k != "phases"]
    _emit(opt, human, {"json": _json_writer(payload), "csv": _kv_csv_writer(flat)})
    return EXIT_OK


def cmd_simulate(opt) -> int:
    params = _resolve_params(opt)
    order = opt("order", "oc")
    step = opt("step", 1.0)
    oc = core.PhaseSchedule.open_close(params)
    if order == "oc":
        sched = oc
    elif order == "co":
        sched = core.swap_cycle(oc)
    elif order == "oc-then-co":
        sched = core.PhaseSchedule(oc.phases + core.swap_cycle(oc).phases)
    else:
        raise ValueError("--order must be oc, co or oc-then-co")
    traj = core.solve_trajectory(params.i0, sched, params.gamma, sample_step=step)
    peak = int(traj.active.argmax())
    payload = {
        "order": order,
        "gamma": params.gamma,
        "alpha": params.alpha,
        "beta": params.beta,
        "i0": params.i0,
        "period": sched.period,
        "step": step,
        "phase_boundaries": [{"time": t, "active": v} for t, v in traj.phase_boundaries],
        "times": [float(t) for t in traj.times],
        "active": [float(v) for v in traj.active],
    }

    def csv_writer(fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["time", "active"])
        for t, v in zip(traj.times, traj.active):
            w.writerow([repr(float(t)), repr(float(v))])

    human = [
        "active-case trajectory, %s order, %s days" % (order, _s3(sched.period)),
        "  samples     %d (step %s days)" % (len(traj.times), _s3(step)),
        "  start       %s" % _s3(params.i0),
        "  peak        %s at day %s" % (_s3(traj.active[peak]), _s3(traj.times[peak])),
        "  end         %s" % _s3(traj.active[-1]),
    ]
    human += ["  phase edge  day %-8s active %s" % (_s3(t), _s3(v))
              for t, v in traj.phase_boundaries[1:]]
    _emit(opt, human, {"json": _json_writer(payload), "csv": csv_writer})
    return EXIT_OK


def cmd_compare_costs(opt) -> int:
    params = _resolve_params(opt)
    oc = costs.cost_oc(params.alpha, params.beta, params.i0, params.period, gamma=params.gamma)
    co = costs.cost_co(params.alpha, params.beta, params.i0, params.period, gamma=params.gamma)
    const = costs.cost_const(params.i0, params.period, gamma=params.gamma)
    ratio = costs.cost_ratio(oc, co)
    payload = {
        "alpha": params.alpha,
        "beta": params.beta,
        "gamma": params.gamma,
        "i0": params.i0,
        "period": params.period,
        "cost_oc": oc.auc_active,
        "cost_co": co.auc_active,
        "cost_const": const.auc_active,
        "ratio_oc_over_co": ratio,
        "i_max": oc.i_max,
        "peak_factor": oc.i_max / params.i0,
    }
    human = [
        "cycle-order cost comparison (alpha %s, beta %s /day, I0 %s, %s days)"
        % (_s3(params.alpha), _s3(params.beta), _s3(params.i0), _s3(params.period)),
        "  open-close cost   %s person-days" % _s3(oc.auc_active),
        "  close-open cost   %s person-days" % _s3(co.auc_active),
        "  constant cost     %s person-days" % _s3(const.auc_active),
        "  OC / CO ratio     %s" % _s3(ratio),
        "  peak factor       %s (peak %s from %s)"
        % (_s3(payload["peak_factor"]), _s3(oc.i_max), _s3(params.i0)),
    ]
    _emit(opt, human, {"json": _json_writer(payload),
                       "csv": _kv_csv_writer(list(payload.items()))})
    return EXIT_OK


def cmd_fit_cfr(opt) -> int:
    data_dir = opt("data_dir", default_data_dir())
    country = opt("country", "Israel")
    date_from = _parse_iso(opt("date_from", FIT_FROM.isoformat()), "--from")
    date_to = _parse_iso(opt("date_to", FIT_TO.isoformat()), "--to")
    k_min = opt("k_min", 0)
    k_max = opt("k_max", 15)
    smooth = opt("smooth_window", 7)
    confirmed, deaths = _load_country(data_dir, country, ser.CUMULATIVE_KINDS[:2])
    new_cases = ser.window(ser.difference(confirmed), date_from, date_to)
    daily_deaths = ser.window(ser.difference(deaths), date_from, date_to)
    model = cfr_fit.fit(new_cases, daily_deaths, k_range=(k_min, k_max),
                        smooth_window=smooth)
    payload = {
        "country": country,
        "date_from": date_from.isoformat(),
        "date_to": date_to.isoformat(),
        "k_min": k_min,
        "k_max": k_max,
        "smooth_window": smooth,
        "delay_k": model.delay_k,
        "decay_a": model.decay_a,
        "scale_b": model.scale_b,
        "cfr": model.cfr,
        "sse": model.sse,
        "cv_a_percent": model.cv_a,
        "cv_b_percent": model.cv_b,
    }
    human = [
        "fatality kernel fit for %s, %s..%s" % (country, date_from, date_to),
        "  smoothing    %d-day trailing mean" % smooth,
        "  delay range  %d..%d days" % (k_min, k_max),
        "  delay k      %d days" % model.delay_k,
        "  decay a      %s" % _s3(model.decay_a),
        "  scale b      %s" % _s3(model.scale_b),
        "  CFR          %s" % _s3(model.cfr),
        "  sse          %s" % _s3(model.sse),
    ]
    if model.cv_a is not None:
        human.append("  cv(a)        %s%%" % _s3(model.cv_a))
    if model.cv_b is not None:
        human.append("  cv(b)        %s%%" % _s3(model.cv_b))
    _emit(opt, human, {"json": _json_writer(payload),
                       "csv": _kv_csv_writer(list(payload.items()))})
    return EXIT_OK


def cmd_ingest(opt) -> int:
    data_dir = opt("data_dir", default_data_dir())
    country = opt("country", "Israel")
    confirmed, deaths, recovered = _load_country(data_dir, country)
    derived = [
        confirmed,
        deaths,
        recovered,
        ser.difference(confirmed),
        ser.difference(deaths),
        ser.active_cases(confirmed, deaths, recovered),
    ]
    date_from = opt("date_from")
    date_to = opt("date_to")
    if date_from is not None or date_to is not None:
        lo = _parse_iso(date_from, "--from") if date_from is not None else None
        hi = _parse_iso(date_to, "--to") if date_to is not None else None
        derived = [ser.window(s, lo or s.start_date, hi or s.end_date) for s in derived]

    human = ["ingested %s from %s" % (country, data_dir)]
    for s in derived:
        human.append("  %-22s %d days, %s..%s"
                     % (s.kind, len(s), s.start_date, s.end_date))
    for s in derived:
        report = ser.ingest_report(s)
        if report.count:
            spots = ", ".join("%s (%s)" % (day.isoformat(), _s3(value))
                              for day, value in report.violations)
            human.append("  note: %s has %d negative %s: %s"
                         % (s.kind, report.count,
                            "daily change(s)" if s.kind in ser.CUMULATIVE_KINDS
                            else "value(s)", spots))

    writers = {"csv": lambda fh: ser.write_long_csv(derived, fh),
               "json": lambda fh: ser.write_long_json(derived, fh)}
    _emit(opt, human, writers)
    return EXIT_OK


def cmd_validate(opt) -> int:
    data_dir = opt("data_dir", default_data_dir())
    cfr_flag = opt("cfr")
    if cfr_flag is not None and not (math.isfinite(cfr_flag) and 0.0 <= cfr_flag <= 1.0):
        raise ValueError("--cfr must be a finite fraction in [0, 1], got %r" % cfr_flag)
    problems = verify_checksums(data_dir)
    if problems:
        for p in problems:
            print("snapshot rejected: %s" % p, file=sys.stderr)
        return EXIT_INPUT

    confirmed, deaths, recovered = _load_country(data_dir, "Israel")
    active = ser.active_cases(confirmed, deaths, recovered)

    oc_cases = confirmed.value_on(CYCLE_SPLIT) - confirmed.value_on(OC_START)
    co_cases = confirmed.value_on(PERIOD_END) - confirmed.value_on(CYCLE_SPLIT)

    if cfr_flag is not None:
        cfr_used, cfr_source = float(cfr_flag), "flag"
    else:
        new_cases = ser.window(ser.difference(confirmed), FIT_FROM, FIT_TO)
        daily_deaths = ser.window(ser.difference(deaths), FIT_FROM, FIT_TO)
        model = cfr_fit.fit(new_cases, daily_deaths, k_range=(0, 15), smooth_window=7)
        # plain float so downstream arithmetic and json stay numpy-free
        cfr_used, cfr_source = float(model.cfr), "fitted"

    two_cycles = ser.window(active, OC_START, PERIOD_END)
    predicted = float(two_cycles.values.max()) / two_cycles.value_on(OC_START)

    report = ValidationReport(
        oc_window=(OC_START, CYCLE_SPLIT),
        co_window=(CYCLE_SPLIT, PERIOD_END),
        oc_cases=oc_cases,
        co_cases=co_cases,
        cfr_used=cfr_used,
        oc_deaths_est=oc_cases * cfr_used,
        co_deaths_est=co_cases * cfr_used,
        death_ratio=oc_cases / co_cases,
        predicted_ratio_from_model=predicted,
    )

    checks = []
    for day, expected in ANCHORS:
        got = active.value_on(day)
        checks.append({"name": "active_%s" % day.isoformat(), "value": got,
                       "low": expected, "high": expected, "ok": got == expected})
    values = dataclasses.asdict(report)
    for name, center, tol, kind in TOLERANCES:
        width = center * tol if kind == "rel" else tol
        got = values[name]
        checks.append({"name": name, "value": got, "low": center - width,
                       "high": center + width, "ok": center - width <= got <= center + width})
    all_ok = all(c["ok"] for c in checks)

    payload = {
        "oc_window": [d.isoformat() for d in report.oc_window],
        "co_window": [d.isoformat() for d in report.co_window],
        "oc_cases": report.oc_cases,
        "co_cases": report.co_cases,
        "cfr_used": report.cfr_used,
        "cfr_source": cfr_source,
        "oc_deaths_est": report.oc_deaths_est,
        "co_deaths_est": report.co_deaths_est,
        "death_ratio": report.death_ratio,
        "predicted_ratio_from_model": report.predicted_ratio_from_model,
        "checks": checks,
    }
    human = [
        "two-cycle validation on %s" % data_dir,
        "  open-first window   %s..%s  %s cases"
        % (report.oc_window[0], report.oc_window[1], _s3(report.oc_cases)),
        "  close-first window  %s..%s  %s cases"
        % (report.co_window[0], report.co_window[1], _s3(report.co_cases)),
        "  CFR used            %s (%s)" % (_s3(report.cfr_used), cfr_source),
        "  estimated deaths    %s vs %s" % (_s3(report.oc_deaths_est), _s3(report.co_deaths_est)),
        "  death ratio         %s" % _s3(report.death_ratio),
        "  predicted ratio     %s (peak over baseline active)" % _s3(report.predicted_ratio_from_model),
    ]
    for c in checks:
        human.append("  %-4s %-28s %s in [%s, %s]"
                     % ("ok" if c["ok"] else "FAIL", c["name"], _s3(c["value"]),
                        _s3(c["low"]), _s3(c["high"])))

    flat = [(k, v) for k, v in payload.items() if k != "checks"]
    flat = [(k, "%s..%s" % tuple(v) if isinstance(v, list) else v) for k, v in flat]
    flat += [("check:%s" % c["name"], "PASS" if c["ok"] else "FAIL") for c in checks]
    _emit(opt, human, {"json": _json_writer(payload), "csv": _kv_csv_writer(flat)})
    return EXIT_OK if all_ok else EXIT_TOLERANCE


# --- parser and entry point --------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lockcycle",
        description="Periodic open/close strategy analysis: schedules, "
                    "trajectories, costs, fatality fitting and snapshot validation.")
    parser.add_argument("--config", help="key=value file mirroring the long flags; "
                                         "explicit flags override it")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_strategy(sp):
        sp.add_argument("--alpha", type=float, help="open-phase net growth rate (1/day)")
        sp.add_argument("--beta", type=float, help="close-phase net decay rate (1/day)")
        sp.add_argument("--gamma", type=float, help="removal rate (1/day), default 1/14")
        sp.add_argument("--r-open", dest="r_open", type=float,
                        help="open-phase reproduction number (alternative to --alpha)")
        sp.add_argument("--r-close", dest="r_close", type=float,
                        help="close-phase reproduction number (alternative to --beta)")
        sp.add_argument("--i0", type=float, help="initial active cases, default 21000")
        sp.add_argument("--period", type=float, help="cycle length in days, default 54")

    def add_output(sp):
        sp.add_argument("--format", choices=("csv", "json"),
                        help="emit structured output; to stdout unless --out is given")
        sp.add_argument("--out", help="structured output path (format inferred "
                                      "from the extension when --format is absent)")

    def add_data(sp, country=True):
        sp.add_argument("--data-dir", dest="data_dir",
                        help="snapshot directory, default: bundled data")
        if country:
            sp.add_argument("--country", help="Country/Region name, default Israel")
        sp.add_argument("--from", dest="date_from", help="window start, YYYY-MM-DD")
        sp.add_argument("--to", dest="date_to", help="window end, YYYY-MM-DD")

    sp = sub.add_parser("schedule", help="balanced phase lengths for a parameter set")
    add_strategy(sp); add_output(sp)
    sp.set_defaults(handler=cmd_schedule)

    sp = sub.add_parser("simulate", help="daily active-case trajectory for a cycle")
    add_strategy(sp); add_output(sp)
    sp.add_argument("--order", choices=("oc", "co", "oc-then-co"),
                    help="phase order, default oc")
    sp.add_argument("--step", type=float, help="sampling step in days, default 1")
    sp.set_defaults(handler=cmd_simulate)

    sp = sub.add_parser("compare-costs", help="person-day costs of the two orders")
    add_strategy(sp); add_output(sp)
    sp.set_defaults(handler=cmd_compare_costs)

    sp = sub.add_parser("fit-cfr", help="fit the geometric fatality kernel to a country")
    add_data(sp); add_output(sp)
    sp.add_argument("--k-min", dest="k_min", type=int, help="smallest delay searched, default 0")
    sp.add_argument("--k-max", dest="k_max", type=int, help="largest delay searched, default 15")
    sp.add_argument("--smooth-window", dest="smooth_window", type=int,
                    help="trailing-mean width in days (1 disables), default 7")
    sp.set_defaults(handler=cmd_fit_cfr)

    sp = sub.add_parser("ingest", help="derive and export long-format series from a snapshot")
    add_data(sp); add_output(sp)
    sp.set_defaults(handler=cmd_ingest)

    sp = sub.add_parser("validate", help="check the snapshot against the published figures")
    sp.add_argument("--data-dir", dest="data_dir",
                    help="snapshot directory, default: bundled data")
    sp.add_argument("--cfr", type=float,
                    help="use this case fatality rate instead of fitting one")
    add_output(sp)
    sp.set_defaults(handler=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT

    def opt(name, default=None):
        value = getattr(args, name, None)
        if value is not None:
            return value
        if name in config:
            return config[name]
        return default

    try:
        return args.handler(opt)
    except (ValueError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
