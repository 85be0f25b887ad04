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
import datetime as dt
import json
import sys

from . import cfr as cfr_fit
from . import core, costs, validation
from . import series as ser

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TOLERANCE = 3

# Growth rates (1/day) of the Israeli second-wave working point used
# throughout the docs.  --alpha/--beta themselves default to None, so that
# _resolve_params can tell which parameter pair was given.
DEFAULT_ALPHA = 0.0410
DEFAULT_BETA = 0.0553


def _parse_iso(text, flag):
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise ValueError("%s: expected an ISO date (YYYY-MM-DD), got %r" % (flag, text))


# --- config files ----------------------------------------------------------

def _subcommands(parser):
    # {name: subparser}
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def load_config(path, parser):
    """Read a key=value file mirroring the long flags of parser's subcommands.

    A key is an option's dest or its long flag without the dashes ('from'
    and 'date_from' alike), hyphens and underscores are interchangeable,
    values convert with the option's type and must be among its choices,
    whichever command runs (a bad value raises ValueError naming the file,
    line and key), blank lines and #-comments are ignored, and unknown keys
    are rejected so typos do not silently vanish.
    """
    keys = {}  # key -> action
    for action in (a for sp in _subcommands(parser).values() for a in sp._actions):
        if action.nargs != 0:  # not a flag without a value, such as --help
            for name in (action.dest, *(o.lstrip("-") for o in action.option_strings)):
                keys[name.replace("-", "_")] = action
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
            if key not in keys:
                raise ValueError("%s:%d: unknown config key %r" % (path, lineno, key))
            action = keys[key]
            try:  # argparse's own conversion and choices check, as for a flag
                value = parser._get_value(action, value.strip())
                parser._check_value(action, value)
            except argparse.ArgumentError as exc:
                raise ValueError("%s:%d: %s: %s" % (path, lineno, key, exc.message))
            out[action.dest] = value
    return out


# --- shared plumbing --------------------------------------------------------

def _resolve_params(args) -> core.StrategyParams:
    """Build strategy parameters from the parsed options.

    Either the growth-rate pair or the reproduction-number pair may be given;
    unspecified growth rates fall back to the documented defaults.
    """
    has_repro = args.r_open is not None or args.r_close is not None
    has_rates = args.alpha is not None or args.beta is not None
    if has_repro and has_rates:
        raise ValueError("pass either --alpha/--beta or --r-open/--r-close, not both")
    if has_repro:
        if args.r_open is None or args.r_close is None:
            raise ValueError("--r-open and --r-close go together")
        return core.StrategyParams.from_reproduction_numbers(
            args.gamma, args.r_open, args.r_close, args.i0, args.period)
    return core.StrategyParams.from_growth_rates(
        DEFAULT_ALPHA if args.alpha is None else args.alpha,
        DEFAULT_BETA if args.beta is None else args.beta,
        args.i0, args.period, gamma=args.gamma)


def _window(args, series, default_from=None, default_to=None):
    """(from, to, series cut to the window) for args' --from/--to dates.

    An absent edge is its default, else each series' own edge (None).  A bad
    window raises ValueError naming the flag given, not the edge standing in.
    """
    lo = default_from if args.date_from is None else _parse_iso(args.date_from, "--from")
    hi = default_to if args.date_to is None else _parse_iso(args.date_to, "--to")
    if lo is not None and hi is not None and lo > hi:
        if args.date_to is None:
            raise ValueError("--from %s is after the default --to %s" % (lo, hi))
        if args.date_from is None:
            raise ValueError("--to %s is before the default --from %s" % (hi, lo))
        raise ValueError("--from %s is after --to %s" % (lo, hi))
    if lo or hi:
        first = max(s.start_date for s in series)
        last = min(s.end_date for s in series)
        span = "the snapshot's dates (every ingested series covers %s..%s)" % (first, last)
        if args.date_from is not None and lo > last:
            raise ValueError("--from %s is after %s" % (lo, span))
        if args.date_to is not None and hi < first:
            raise ValueError("--to %s is before %s" % (hi, span))
        series = [ser.window(s, lo or s.start_date, hi or s.end_date) for s in series]
    return lo, hi, series


def _data_dir(args):
    # the bundled default is resolved here, not in the parser, so that
    # building the parser runs no data layer
    return ser.default_data_dir() if args.data_dir is None else args.data_dir


def _render(args, human, payload, header=("field", "value"), rows=None) -> None:
    """Write one command's result in the format args.format and args.out ask for.

    human is the summary text and payload the JSON document; every command
    but ingest fills its summary from the payload, values to 3 significant
    figures.  The CSV document is header, then rows of cells, by default the
    payload's scalar items; csv writes None as an empty cell and a float as
    float.__repr__ gives it.
    """
    fmt, out = args.format, args.out
    if out and fmt is None:
        fmt = "csv" if out.endswith(".csv") else "json"
    if fmt == "json":
        # serialise first, so a non-finite value fails before any byte is written
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        write = lambda fh: fh.write(text)
    elif fmt == "csv":
        import csv  # here, so json and human output never load it

        if rows is None:
            rows = [(k, v) for k, v in payload.items() if not isinstance(v, (list, dict))]

        def write(fh):
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
    if out:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            write(fh)
    elif fmt is not None:
        write(sys.stdout)
        return
    print(human)


# --- subcommands ------------------------------------------------------------

def cmd_schedule(args) -> int:
    params = _resolve_params(args)
    sched = core.PhaseSchedule.open_close(params)
    t_open, t_close = (p.duration for p in sched.phases)
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
    human = ("balanced two-phase schedule\n"
             "  period      {period:.3g} days\n"
             "  open        {t_open:.3g} days at R_t {r_open:.3g} (growth {alpha:.3g} /day)\n"
             "  close       {t_close:.3g} days at R_t {r_close:.3g} (decay {beta:.3g} /day)\n"
             "  gamma       {gamma:.3g} /day\n"
             "  average R_t over the cycle: {average_rt:.3g}").format(**payload)
    _render(args, human, payload)
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = _resolve_params(args)
    oc = core.PhaseSchedule.open_close(params)
    if args.order == "oc":
        sched = oc
    elif args.order == "co":
        sched = core.swap_cycle(oc)
    else:  # oc-then-co
        sched = core.PhaseSchedule(oc.phases + core.swap_cycle(oc).phases)
    traj = core.solve_trajectory(params.i0, sched, params.gamma, sample_step=args.step)
    payload = {
        "order": args.order,
        "gamma": params.gamma,
        "alpha": params.alpha,
        "beta": params.beta,
        "i0": params.i0,
        "period": sched.period,
        "step": args.step,
        "phase_boundaries": [{"time": t, "active": v} for t, v in traj.phase_boundaries],
        "times": traj.times,
        "active": traj.active,
    }
    times, active = payload["times"], payload["active"]
    peak = active.index(max(active))  # the first of equal maxima
    human = ("active-case trajectory, {order} order, {period:.3g} days\n"
             "  samples     {samples} (step {step:.3g} days)\n"
             "  start       {i0:.3g}\n"
             "  peak        {peak:.3g} at day {peak_day:.3g}\n"
             "  end         {end:.3g}").format(samples=len(times), peak=active[peak],
                                               peak_day=times[peak], end=active[-1], **payload)
    human += "".join("\n  phase edge  day {time:<8.3g} active {active:.3g}".format(**edge)
                     for edge in payload["phase_boundaries"][1:])
    _render(args, human, payload, ("time", "active"), zip(times, active))
    return EXIT_OK


def cmd_compare_costs(args) -> int:
    params = _resolve_params(args)
    oc = costs.cost_oc(params.alpha, params.beta, params.i0, params.period)
    co = costs.cost_co(params.alpha, params.beta, params.i0, params.period)
    const = costs.cost_const(params.i0, params.period)
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
    human = ("cycle-order cost comparison "
             "(alpha {alpha:.3g}, beta {beta:.3g} /day, I0 {i0:.3g}, {period:.3g} days)\n"
             "  open-close cost   {cost_oc:.3g} person-days\n"
             "  close-open cost   {cost_co:.3g} person-days\n"
             "  constant cost     {cost_const:.3g} person-days\n"
             "  OC / CO ratio     {ratio_oc_over_co:.3g}\n"
             "  peak factor       {peak_factor:.3g} (peak {i_max:.3g} from {i0:.3g})"
             ).format(**payload)
    _render(args, human, payload)
    return EXIT_OK


def cmd_fit_cfr(args) -> int:
    confirmed, deaths = ser.load_country(_data_dir(args), args.country, ser.CUMULATIVE_KINDS[:2])
    date_from, date_to, (new_cases, daily_deaths) = _window(
        args, (ser.difference(confirmed), ser.difference(deaths)),
        ser.FIT_FROM, ser.FIT_TO)
    model = cfr_fit.fit(new_cases, daily_deaths, k_range=(args.k_min, args.k_max),
                        smooth_window=args.smooth_window)
    payload = {
        "country": args.country,
        "date_from": date_from.isoformat(),
        "date_to": date_to.isoformat(),
        "k_min": args.k_min,
        "k_max": args.k_max,
        "smooth_window": args.smooth_window,
        "delay_k": model.delay_k,
        "decay_a": model.decay_a,
        "scale_b": model.scale_b,
        "cfr": model.cfr,
        "sse": model.sse,
        "cv_a_percent": model.cv_a,
        "cv_b_percent": model.cv_b,
    }
    human = ("fatality kernel fit for {country}, {date_from}..{date_to}\n"
             "  smoothing    {smooth_window}-day trailing mean\n"
             "  delay range  {k_min}..{k_max} days\n"
             "  delay k      {delay_k} days\n"
             "  decay a      {decay_a:.3g}\n"
             "  scale b      {scale_b:.3g}\n"
             "  CFR          {cfr:.3g}\n"
             "  sse          {sse:.3g}").format(**payload)
    cvs = ("a", payload["cv_a_percent"]), ("b", payload["cv_b_percent"])
    human += "".join("\n  cv({})        {:.3g}%".format(p, cv) for p, cv in cvs if cv is not None)
    _render(args, human, payload)
    return EXIT_OK


def cmd_ingest(args) -> int:
    data_dir = _data_dir(args)
    confirmed, deaths, recovered = ser.load_country(data_dir, args.country)
    derived = [
        confirmed,
        deaths,
        recovered,
        ser.difference(confirmed),
        ser.difference(deaths),
        ser.active_cases(confirmed, deaths, recovered),
    ]
    derived = _window(args, derived)[2]

    human = ["ingested %s from %s" % (args.country, data_dir)]
    for s in derived:
        human.append("  %-22s %d days, %s..%s"
                     % (s.kind, len(s), s.start_date, s.end_date))
    for s in derived:
        report = ser.ingest_report(s)
        if report:
            spots = ", ".join("{} ({:.3g})".format(day, value) for day, value in report)
            human.append("  note: %s has %d negative %s: %s"
                         % (s.kind, len(report),
                            "daily change(s)" if s.kind in ser.CUMULATIVE_KINDS
                            else "value(s)", spots))
    records = ser.long_records(derived)
    rows = ((r["date"], r["kind"], r["value"]) for r in records)
    _render(args, "\n".join(human), records, ("date", "kind", "value"), rows)
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.cfr is not None:
        validation.check_cfr(args.cfr, "--cfr")  # so the message names the flag
    data_dir = _data_dir(args)
    payload = validation.validate(data_dir, args.cfr)
    human = ("two-cycle validation on {data_dir}\n"
             "  open-first window   {oc_window[0]}..{oc_window[1]}  {oc_cases:.3g} cases\n"
             "  close-first window  {co_window[0]}..{co_window[1]}  {co_cases:.3g} cases\n"
             "  CFR used            {cfr_used:.3g} ({cfr_source})\n"
             "  estimated deaths    {oc_deaths_est:.3g} vs {co_deaths_est:.3g}\n"
             "  death ratio         {death_ratio:.3g}\n"
             "  predicted ratio     {predicted_ratio_from_model:.3g} (peak over baseline active)"
             ).format(data_dir=data_dir, **payload)
    human += "".join("\n  {:<4} {name:<28} {value:.3g} in [{low:.3g}, {high:.3g}]"
                     .format("ok" if c["ok"] else "FAIL", **c) for c in payload["checks"])
    rows = [(k, "%s..%s" % tuple(v) if isinstance(v, list) else v)
            for k, v in payload.items() if k != "checks"]
    rows += [("check:%s" % c["name"], "PASS" if c["ok"] else "FAIL") for c in payload["checks"]]
    _render(args, human, payload, rows=rows)
    return EXIT_OK if all(c["ok"] for c in payload["checks"]) else EXIT_TOLERANCE


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
        sp.add_argument("--gamma", type=float, default=core.DEFAULT_GAMMA,
                        help="removal rate (1/day), default 1/14")
        sp.add_argument("--r-open", dest="r_open", type=float,
                        help="open-phase reproduction number (alternative to --alpha)")
        sp.add_argument("--r-close", dest="r_close", type=float,
                        help="close-phase reproduction number (alternative to --beta)")
        sp.add_argument("--i0", type=float, default=21000.0,
                        help="initial active cases, default 21000")
        sp.add_argument("--period", type=float, default=54.0,
                        help="cycle length in days, default 54")

    def add_output(sp):
        sp.add_argument("--format", choices=("csv", "json"),
                        help="emit structured output; to stdout unless --out is given")
        sp.add_argument("--out", help="structured output path (format inferred "
                                      "from the extension when --format is absent)")

    def add_data_dir(sp):
        sp.add_argument("--data-dir", dest="data_dir",
                        help="snapshot directory, default: bundled data")

    def add_data(sp):
        add_data_dir(sp)
        sp.add_argument("--country", default="Israel", help="Country/Region name, default Israel")
        sp.add_argument("--from", dest="date_from", help="window start, YYYY-MM-DD")
        sp.add_argument("--to", dest="date_to", help="window end, YYYY-MM-DD")

    sp = sub.add_parser("schedule", help="balanced phase lengths for a parameter set")
    add_strategy(sp); add_output(sp)
    sp.set_defaults(handler=cmd_schedule)

    sp = sub.add_parser("simulate", help="daily active-case trajectory for a cycle")
    add_strategy(sp); add_output(sp)
    sp.add_argument("--order", choices=("oc", "co", "oc-then-co"), default="oc",
                    help="phase order, default oc")
    sp.add_argument("--step", type=float, default=1.0, help="sampling step in days, default 1")
    sp.set_defaults(handler=cmd_simulate)

    sp = sub.add_parser("compare-costs", help="person-day costs of the two orders")
    add_strategy(sp); add_output(sp)
    sp.set_defaults(handler=cmd_compare_costs)

    sp = sub.add_parser("fit-cfr", help="fit the geometric fatality kernel to a country")
    add_data(sp); add_output(sp)
    sp.add_argument("--k-min", dest="k_min", type=int, default=0,
                    help="smallest delay searched, default 0")
    sp.add_argument("--k-max", dest="k_max", type=int, default=15,
                    help="largest delay searched, default 15")
    sp.add_argument("--smooth-window", dest="smooth_window", type=int, default=7,
                    help="trailing-mean width in days (1 disables), default 7")
    sp.set_defaults(handler=cmd_fit_cfr)

    sp = sub.add_parser("ingest", help="derive and export long-format series from a snapshot")
    add_data(sp); add_output(sp)
    sp.set_defaults(handler=cmd_ingest)

    sp = sub.add_parser("validate", help="check the snapshot against the published figures")
    add_data_dir(sp)
    sp.add_argument("--cfr", type=float,
                    help="use this case fatality rate instead of fitting one")
    add_output(sp)
    sp.set_defaults(handler=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become the subcommand's defaults, so flags still win
            _subcommands(parser)[args.command].set_defaults(**load_config(args.config, parser))
            args = parser.parse_args(argv)
        return args.handler(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
