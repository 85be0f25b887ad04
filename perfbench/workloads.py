"""The three workloads.  Each is one client in a closed loop.

A workload's constructor is its set-up.  op(i) runs op number i and returns
its raw output; check(i, output) returns None or the reason the output is
wrong.  Ops cycle through a list fixed by the seed; len(workload) is the
length of that list.

cli_session   One op is one `lockcycle <command> --format json` in a fresh
              interpreter: the unit a user feels.  Nearly all of it is the
              import layer, so an import or dependency change shows here and
              a faster fit does not.
fit_batch     One op is one cfr.fit call in a long-lived process on series
              parsed at set-up.  The cfr layer does nearly all the work, so a
              fit change shows here.
ingest_bulk   One op is the `ingest` command run in-process for one country
              of a large snapshot, exporting JSON and CSV and reading both
              back.  Parsing and long-format I/O in the series layer dominate
              and cfr is idle: the working-set contrast to the bundled 10 KB
              files that cli_session reads.

BENCHMARK.json lists cli_session and fit_batch only.  On a shared 2-vCPU
Xeon VM, ingest_bulk's op_p50_ms moved by an IQR/median of 0.34 over ten 30 s
runs, beyond the largest regression bound a listed workload may carry, and
two listed workloads leave room for 50 s runs.  Run it by hand for work on the
series layer.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import checks
import synth

# Same entry point as the console script.  `python -m lockcycle.cli` is not
# used: it prints a runpy RuntimeWarning because the package imports .cli.
ENTRY = "import sys; from lockcycle.cli import main; sys.exit(main())"

STRATEGY_COMMANDS = ("schedule", "simulate", "compare-costs")
DATA_COMMANDS = ("fit-cfr", "ingest", "validate")


def _run_in_process(main, argv):
    """Run a cli main in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class CliSession:
    """Cycles through all six subcommands.

    The seed draws two strategy parameter sets (alpha, beta, period and a
    simulate --step down to 0.01 days); the session alternates between them,
    so every command repeats and its stdout can be compared byte for byte.
    The data commands run on the bundled snapshot.  With in_process the same
    commands go through cli.main in this process, for the traced run.
    """

    # A 50 s run holds 26 to 38 fresh-process ops at the parent's speed.
    tail_pct = 60

    def __init__(self, root, seed, workdir, in_process=False):
        import lockcycle  # noqa: F401  (set-up covers the import, as a command pays it)

        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.in_process = in_process
        rng = np.random.default_rng(seed)
        self.commands = []
        for _ in range(2):
            params = {"alpha": float(rng.uniform(0.02, 0.06)),
                      "beta": float(rng.uniform(0.03, 0.07)),
                      "period": float(rng.uniform(30.0, 90.0))}
            step = float(10.0 ** rng.uniform(-2.0, 0.0))
            strategy = ["--alpha", repr(params["alpha"]), "--beta", repr(params["beta"]),
                        "--period", repr(params["period"])]
            for command in STRATEGY_COMMANDS + DATA_COMMANDS:
                argv = [command]
                if command in STRATEGY_COMMANDS:
                    argv += strategy
                if command == "simulate":
                    argv += ["--step", repr(step)]
                self.commands.append((command, argv + ["--format", "json"], params))
        self.first_stdout = {}

    def __len__(self):
        return len(self.commands)

    def op(self, i):
        _, argv, _ = self.commands[i % len(self.commands)]
        if self.in_process:
            from lockcycle import cli
            return _run_in_process(cli.main, argv)
        proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=self.root,
                              env=self.env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, i, output):
        command, argv, params = self.commands[i % len(self.commands)]
        code, stdout, stderr = output
        key = tuple(argv)
        err = checks.check_command(command, params, code, stdout, stderr,
                                   self.first_stdout.get(key))
        self.first_stdout.setdefault(key, stdout)
        return err

    @staticmethod
    def stdout_bytes(output):
        return len(output[1].encode())


@dataclass(frozen=True)
class FitJob:
    index: int
    cases: object
    deaths: object
    k_range: tuple
    smooth_window: int
    true_k: int | None
    true_deaths: np.ndarray | None


class FitBatch:
    """Fits on a seeded synthetic snapshot, one row per job.

    The jobs are the eight combinations of k_range (0, 15) or (0, 30),
    smooth_window 1 or 7, and a noiseless or noisy row, each at four aligned
    lengths; the 32 lengths are spread evenly over 120..700 days and jittered
    by the seed.  The job mix is the same for every seed, so the op-time
    distribution is too; the seed changes the data.
    """

    # A 50 s run holds 850 to 1,200 ops at the parent's speed.
    tail_pct = 98
    n_jobs = 32
    days = (740, 780)

    def __init__(self, root, seed, workdir):
        from lockcycle import cfr, series

        self.cfr = cfr
        snap = synth.generate(seed, self.n_jobs, self.days, noiseless_every=2)
        snap.write(workdir)
        paths = {kind: os.path.join(workdir, name) for kind, name in synth.FILENAMES.items()}
        rng = np.random.default_rng([seed, 1])
        self.jobs = []
        for j, row in enumerate(snap.rows):
            province = row.province or None
            confirmed = series.parse_jhu_timeseries(paths["confirmed_cumulative"], row.country,
                                                    "confirmed_cumulative", province)
            deaths = series.parse_jhu_timeseries(paths["deaths_cumulative"], row.country,
                                                 "deaths_cumulative", province)
            # row j is noiseless for even j; bits 1 and 2 of j pick the settings
            k_range = (0, 30) if j & 2 else (0, 15)
            smooth = 7 if j & 4 else 1
            aligned = int(round(120 + j * 580 / (self.n_jobs - 1))) + int(rng.integers(-3, 4))
            new_cases, daily_deaths = series.difference(confirmed), series.difference(deaths)
            end = new_cases.start_date + dt.timedelta(days=aligned + smooth - 2)
            new_cases = series.window(new_cases, new_cases.start_date, end)
            daily_deaths = series.window(daily_deaths, daily_deaths.start_date, end)
            truth = row.daily_deaths[1:1 + len(new_cases)] if row.noiseless else None
            self.jobs.append(FitJob(j, new_cases, daily_deaths, k_range, smooth,
                                    row.k if row.noiseless else None, truth))
        self.noiseless_fits = 0
        self.delays_recovered = 0
        self.op(0)  # warm-up; a wrong output shows when the loop checks op 0

    def __len__(self):
        return len(self.jobs)

    def op(self, i):
        job = self.jobs[i % len(self.jobs)]
        return self.cfr.fit(job.cases, job.deaths, k_range=job.k_range,
                            smooth_window=job.smooth_window)

    def check(self, i, model):
        job = self.jobs[i % len(self.jobs)]
        predicted = None
        if job.true_k is not None:
            self.noiseless_fits += 1
            self.delays_recovered += model.delay_k == job.true_k
            predicted = self.cfr.predict_deaths(model, job.cases).values
        return checks.check_fit(model, job, predicted)

    @staticmethod
    def stdout_bytes(output):
        return 0


class IngestBulk:
    """`ingest` for one country at a time of a snapshot of 200 rows over about
    1,000 days, roughly 1.4 MB per file.  Every op exports JSON and CSV with
    --out and reads both back; the seed sets the country order."""

    # A 50 s run holds 150 to 270 ops at the parent's speed.
    tail_pct = 93
    n_rows = 200
    days = (990, 1010)

    def __init__(self, root, seed, workdir):
        from lockcycle import cli, series

        self.cli, self.series = cli, series
        self.snapshot_dir = os.path.join(workdir, "snapshot")
        snap = synth.generate(seed, self.n_rows, self.days, noiseless_every=10)
        snap.write(self.snapshot_dir)
        countries = snap.countries()
        order = np.random.default_rng([seed, 2]).permutation(len(countries))
        self.countries = [countries[j] for j in order]
        self.expected = {c: self._expected(snap, c) for c in countries}
        self.json_path = os.path.join(workdir, "ingest.json")
        self.csv_path = os.path.join(workdir, "ingest.csv")
        self.op(0)  # warm-up; a wrong output shows when the loop checks op 0

    @staticmethod
    def _expected(snap, country):
        c, d, r = (snap.country_total(country, kind) for kind in synth.FILENAMES)
        start, next_day = snap.start, snap.start + dt.timedelta(days=1)
        return {
            "confirmed_cumulative": (start, c),
            "deaths_cumulative": (start, d),
            "recovered_cumulative": (start, r),
            "new_cases": (next_day, np.diff(c)),
            "daily_deaths": (next_day, np.diff(d)),
            "active_cases": (start, c - d - r),
        }

    def __len__(self):
        return len(self.countries)

    def op(self, i):
        country = self.countries[i % len(self.countries)]
        base = ["ingest", "--data-dir", self.snapshot_dir, "--country", country, "--out"]
        code_json, out_json, err_json = _run_in_process(self.cli.main, base + [self.json_path])
        code_csv, out_csv, err_csv = _run_in_process(self.cli.main, base + [self.csv_path])
        back = {"json": self.series.read_long_json(self.json_path),
                "csv": self.series.read_long_csv(self.csv_path)}
        return (code_json, code_csv), out_json + out_csv, err_json + err_csv, back

    def check(self, i, output):
        codes, _, stderr, back = output
        with open(self.json_path, encoding="utf-8") as fh:
            json_text = fh.read()
        country = self.countries[i % len(self.countries)]
        return checks.check_ingest(codes, stderr, json_text, back, self.expected[country])

    @staticmethod
    def stdout_bytes(output):
        return len(output[1].encode())


WORKLOADS = {"cli_session": CliSession, "fit_batch": FitBatch, "ingest_bulk": IngestBulk}
