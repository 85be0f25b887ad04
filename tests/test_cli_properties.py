"""Property test of the command line over drawn flags and config files.

Whatever the options and wherever they come from, a run ends with exit 0, 2
or 3 (argparse's own usage errors count as 2), never with a traceback; a
failed run prints nothing to stdout, JSON documents parse strictly, and a
run that completes prints no inf or nan in any format.  Drawn values keep
every simulated trajectory under about 10,000 samples; MAX_SAMPLES has its
own tests.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockcycle.cli import main

NON_FINITE = re.compile(r"(?<![\w.])[-+]?(inf|infinity|nan)(?!\w)", re.IGNORECASE)

# values that are out of range, non-finite or not numbers at all
ODD_NUMBERS = st.sampled_from(["0", "-1", "inf", "-inf", "nan", "5e-324", "abc", ""])


def usually(common, rare):
    # common about three times in four; hypothesis leans to 0, the simplest draw
    return st.integers(0, 3).flatmap(lambda i: rare if i == 3 else common)


def numbers(low, high, *edges):
    """Float flag text: in [low, high], one of the edges given, or odd."""
    common = st.floats(min_value=low, max_value=high).map(repr)
    return usually(common | st.sampled_from(edges) if edges else common, ODD_NUMBERS)


def integers(low, high):
    return usually(st.integers(low, high).map(str), st.sampled_from(["1.5", "x", ""]))


# magnitudes whose closed forms reach the edge of the float range
HUGE = ["1e300", "1e306", "1e307", "1e308"]

DATES = usually(st.sampled_from(["2020-01-22", "2020-06-01", "2020-08-30", "2020-12-16",
                                 "2020-12-31"]),
                st.sampled_from(["2021-03-01", "2020-13-01", "junk"]))

# an entry is one flag, or a tuple of flags drawn together
RATES = [("--alpha", numbers(1e-4, 2.0)), ("--beta", numbers(1e-4, 0.2)),
         (("--r-open", "--r-close"), st.tuples(numbers(1.0, 20.0), numbers(0.0, 1.0))),
         ("--gamma", numbers(1e-3, 2.0)), ("--i0", numbers(1e-300, 1e308, *HUGE))]

# "{tmp}" is the example's temporary directory
OUTPUT = [("--format", usually(st.sampled_from(["json", "csv"]), st.just("xml"))),
          ("--out", usually(st.sampled_from(["{tmp}/doc.json", "{tmp}/doc.csv", "{tmp}/doc.txt"]),
                            st.just("{tmp}/absent/doc.json")))]

DATA = [("--data-dir", st.just("{tmp}/absent")),
        ("--country", usually(st.sampled_from(["Israel", "Korea, South", "Australia"]),
                              st.just("Atlantis"))),
        ("--from", DATES), ("--to", DATES)]

OPTIONS = {
    "schedule": RATES + [("--period", numbers(1e-3, 1e308, *HUGE))] + OUTPUT,
    "compare-costs": RATES + [("--period", numbers(1e-3, 1e308, *HUGE))] + OUTPUT,
    # at most 2 x 2,000 days at 0.5-day steps; 1e300 days is refused by the cap
    "simulate": RATES + [("--period", numbers(1e-3, 2000.0, "1e300")),
                         ("--order", usually(st.sampled_from(["oc", "co", "oc-then-co"]),
                                             st.just("xyz"))),
                         ("--step", usually(st.floats(0.5, 100.0).map(repr),
                                            st.sampled_from(["0", "-1", "inf", "nan", "1e-9"])))]
                        + OUTPUT,
    "fit-cfr": DATA + [("--k-min", integers(-2, 20)), ("--k-max", integers(-2, 40)),
                       ("--smooth-window", integers(-1, 30))] + OUTPUT,
    "ingest": DATA + OUTPUT,
    "validate": DATA[:1] + [("--cfr", numbers(-0.5, 1.5))] + OUTPUT,
}

# config lines beyond the drawn options: other commands' keys, bad values and
# malformed lines
EXTRA_LINES = usually(st.sampled_from(["order = co", "k-max = 20", "cfr = 0.5", "country = Israel",
                                       "smooth_window = 3", "# comment", ""]),
                      st.sampled_from(["order = xyz", "k_max = 1.5", "alhpa = 0.05", "alpha"]))


@st.composite
def invocations(draw, command):
    """([(flag, value, in_config)], extra config lines) for one command."""
    chosen = []
    for flags, values in OPTIONS[command]:
        value = draw(usually(st.none(), values))
        if value is not None:
            pairs = zip(flags, value) if isinstance(flags, tuple) else [(flags, value)]
            chosen += [(flag, text, draw(st.booleans())) for flag, text in pairs]
    return chosen, draw(st.lists(EXTRA_LINES, max_size=2))


def no_constants(name):
    raise ValueError("non-finite JSON constant %s" % name)


def strict_json(text):
    return json.loads(text, parse_constant=no_constants)


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
    return rc, stdout.getvalue(), stderr.getvalue()


def check_run(command, chosen, extra):
    with tempfile.TemporaryDirectory() as tmp:
        argv, lines = [command], list(extra)
        for flag, value, in_config in chosen:
            value = value.format(tmp=tmp)
            if in_config:
                lines.append("%s = %s" % (flag.lstrip("-"), value))
            else:
                argv += [flag, value]
        if lines:
            cfg = os.path.join(tmp, "run.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            argv = ["--config", cfg] + argv

        rc, out, err = run_main(argv)
        assert rc in (0, 2, 3), (argv, rc, err)
        assert "Traceback" not in err
        if rc == 2:
            assert out == "", argv
            return

        options = {flag: value.format(tmp=tmp) for flag, value, _ in chosen}
        documents = [out]
        if "--out" in options:
            with open(options["--out"], encoding="utf-8") as fh:
                documents.append(fh.read())
        fmt = options.get("--format")
        if fmt == "json" and "--out" not in options:
            strict_json(out)
        elif "--out" in options and (fmt or ("csv" if options["--out"].endswith(".csv")
                                             else "json")) == "json":
            strict_json(documents[1])
        for text in documents:
            assert not NON_FINITE.search(text), (argv, NON_FINITE.search(text))


# The closed-form commands take about a millisecond, the data commands tens
# of milliseconds, so the first get more examples in the same time.
@pytest.mark.parametrize("command", ["schedule", "simulate", "compare-costs"])
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_closed_form_runs_end_well_formed(command, data):
    check_run(command, *data.draw(invocations(command)))


@pytest.mark.parametrize("command", ["fit-cfr", "ingest", "validate"])
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(data=st.data())
def test_data_runs_end_well_formed(command, data):
    check_run(command, *data.draw(invocations(command)))


# The bundled snapshot has 344 daily values, the default fit window 212.
SPANS = st.sampled_from([[], ["--from", "2020-01-23", "--to", "2020-12-31"]])


# half of the draws in the range a fit can support, the rest across the series
DELAY = st.integers(0, 150) | st.integers(0, 370)
# two delays, in order three times in four
DELAYS = usually(st.lists(DELAY, min_size=2, max_size=2).map(sorted),
                 st.lists(DELAY, min_size=2, max_size=2))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(delays=DELAYS, window=st.integers(1, 21) | st.integers(0, 370), span=SPANS)
def test_fit_delay_range_and_smoothing_across_the_series(delays, window, span):
    """A fit either reports finite CVs or exits 2 naming the option at fault."""
    k_min, k_max = delays
    rc, out, err = run_main(["fit-cfr", "--k-min", str(k_min), "--k-max", str(k_max),
                             "--smooth-window", str(window), "--format", "json", *span])
    assert rc in (0, 2), err
    if rc == 2:
        assert out == ""
        assert "k_range" in err or "smooth_window" in err, err
        return
    doc = strict_json(out)
    for key in ("cv_a_percent", "cv_b_percent"):
        assert doc[key] is None or math.isfinite(doc[key]), (key, doc[key])


# a number as a summary shows it: '%.3g' of a value, or a whole count
SHOWN = re.compile(r"(?<![\w.-])-?\d[\d.]*(?:e[-+]\d+)?")


def simulate_shows(doc):
    times, active = doc["times"], doc["active"]
    peak = active.index(max(active))
    shown = [doc["period"], len(times), doc["step"], doc["i0"], active[peak], times[peak],
             active[-1]]
    for edge in doc["phase_boundaries"][1:]:
        shown += [edge["time"], edge["active"]]
    return shown


# the JSON values each summary shows, in the order it shows them
SUMMARY_VALUES = {
    "schedule": lambda doc: [doc[k] for k in ("period", "t_open", "r_open", "alpha", "t_close",
                                              "r_close", "beta", "gamma", "average_rt")],
    "compare-costs": lambda doc: [doc[k] for k in ("alpha", "beta", "i0", "period", "cost_oc",
                                                   "cost_co", "cost_const", "ratio_oc_over_co",
                                                   "peak_factor", "i_max", "i0")],
    "simulate": simulate_shows,
}


@st.composite
def strategy_flags(draw, command):
    gamma = draw(st.floats(0.02, 1.0))
    flags = {"--alpha": draw(st.floats(1e-3, 1.0)),
             "--beta": gamma * draw(st.floats(0.01, 1.0)),
             "--gamma": gamma,
             "--i0": draw(st.floats(1.0, 1e9)),
             "--period": draw(st.floats(1.0, 200.0))}
    if command == "simulate":
        flags["--step"] = draw(st.floats(0.5, 10.0))
        flags["--order"] = draw(st.sampled_from(["oc", "co", "oc-then-co"]))
    return [text for flag, value in flags.items() for text in (flag, str(value))]


@pytest.mark.parametrize("command", sorted(SUMMARY_VALUES))
@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(data=st.data())
def test_summary_shows_the_json_values(command, data):
    """Every number in the summary is the JSON document's own value to 3
    significant figures, so the two come from one source."""
    argv = [command, *data.draw(strategy_flags(command))]
    rc, human, err = run_main(argv)
    assert rc == 0, (argv, err)
    rc, out, err = run_main(argv + ["--format", "json"])
    assert rc == 0, (argv, err)
    expected = [str(v) if isinstance(v, int) else "%.3g" % v
                for v in SUMMARY_VALUES[command](strict_json(out))]
    assert SHOWN.findall(human) == expected, argv
