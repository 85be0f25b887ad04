"""Release gate: every shipped guarantee checked at its stated tolerance.

Each test prints exactly one PASS/FAIL line to the real terminal (bypassing
output capture), so a full run ends with ten one-line verdicts.  Tolerances
and runtime budgets are asserted exactly as documented; nothing is loosened
to make a machine or a snapshot look better.
"""

import contextlib
import datetime as dt
import io
import json
import math
import sys
import time

import numpy as np

import lockcycle.cfr as cfr_fit
import lockcycle.core as core
import lockcycle.costs as costs
import lockcycle.series as ser
import oracles
from lockcycle.cli import main as cli_main
from lockcycle.validation import FIT_FROM, FIT_TO, default_data_dir
from lockcycle.series import JHU_FILENAMES


class _criterion:
    """Collects named failures and prints one verdict line on exit."""

    def __init__(self, num, label):
        self.num = num
        self.label = label
        self.problems = []

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and not issubclass(exc_type, Exception):
            return False
        if exc is not None:
            self.problems.append("unexpected %s: %s" % (exc_type.__name__, exc))
        status = "PASS" if not self.problems else "FAIL"
        detail = "" if not self.problems else " [%s]" % "; ".join(self.problems[:3])
        print("%s criterion %02d: %s%s" % (status, self.num, self.label, detail),
              file=sys.__stdout__)
        if self.problems:
            raise AssertionError("criterion %02d: %s"
                                 % (self.num, "; ".join(self.problems)))
        return True


def best_time(fn, repeats=5):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(list(argv))
    return rc, buf.getvalue()


def working_point():
    return core.StrategyParams.from_growth_rates(0.0410, 0.0553, 21000.0, 54.0)


# shared by criteria 3 and 4 so both orderings see the same draws
RATE_SETS = oracles.random_rate_sets(np.random.default_rng(20200731), 1000)


def test_criterion_01_phase_lengths():
    with _criterion(1, "balanced phase lengths 31/23 at the documented "
                       "working point, under 1 ms") as c:
        params = working_point()
        t_open, t_close = core.phase_lengths(params)
        c.check(abs(t_open - 31.0) <= 0.1,
                "open length %.6f not within 31.0 +/- 0.1" % t_open)
        c.check(abs(t_close - 23.0) <= 0.1,
                "close length %.6f not within 23.0 +/- 0.1" % t_close)
        elapsed = best_time(lambda: core.phase_lengths(params))
        c.check(elapsed < 1e-3, "runtime %.2g s not under 1 ms" % elapsed)


def test_criterion_02_two_cycle_trajectory():
    with _criterion(2, "open-first then closed-first trajectory peaks near "
                       "75,000 at day 31 and returns to 21,000, under 10 ms") as c:
        params = working_point()
        oc = core.PhaseSchedule.open_close(params)
        sched = core.PhaseSchedule(oc.phases + core.swap_cycle(oc).phases)

        def solve():
            return core.solve_trajectory(params.i0, sched, params.gamma,
                                         sample_step=1.0)

        traj = solve()
        peak_value = max(v for _, v in traj.phase_boundaries)
        c.check(abs(peak_value - 75000.0) <= 500.0,
                "peak %.1f not within 75000 +/- 500" % peak_value)
        times, active = np.asarray(traj.times), np.asarray(traj.active)
        peak_day = float(times[int(np.argmax(active))])
        c.check(peak_day == 31.0, "daily-sample peak at day %s, not 31" % peak_day)
        for day in (54.0, 108.0):
            idx = int(np.argmin(np.abs(times - day)))
            value = float(active[idx])
            c.check(abs(value - 21000.0) <= 1.0,
                    "day %g active %.3f not within 21000 +/- 1" % (day, value))
        elapsed = best_time(solve)
        c.check(elapsed < 10e-3, "runtime %.2g s not under 10 ms" % elapsed)


def test_criterion_03_cost_ratio_identity():
    with _criterion(3, "cost ratio equals the peak growth factor to 1e-12 on "
                       "1000 random sets, under 1 s") as c:
        t0 = time.perf_counter()
        worst = 0.0
        for alpha, beta, i0, period in RATE_SETS:
            ratio = costs.cost_ratio(costs.cost_oc(alpha, beta, i0, period),
                                     costs.cost_co(alpha, beta, i0, period))
            target = math.exp(alpha * beta * period / (alpha + beta))
            worst = max(worst, abs(ratio - target) / target)
        elapsed = time.perf_counter() - t0
        c.check(worst <= 1e-12, "worst relative identity error %.3g" % worst)

        params = working_point()
        baseline = costs.cost_ratio(
            costs.cost_oc(params.alpha, params.beta, params.i0, params.period),
            costs.cost_co(params.alpha, params.beta, params.i0, params.period))
        c.check(abs(baseline - 3.571) <= 0.01,
                "working-point ratio %.6f not within 3.571 +/- 0.01" % baseline)
        c.check(elapsed < 1.0, "runtime %.2g s not under 1 s" % elapsed)


def test_criterion_04_cost_ordering():
    with _criterion(4, "strict cost ordering closed-first < constant < "
                       "open-first on 1000 random sets") as c:
        violations = 0
        for alpha, beta, i0, period in RATE_SETS:
            co = costs.cost_co(alpha, beta, i0, period).auc_active
            oc = costs.cost_oc(alpha, beta, i0, period).auc_active
            if not co < i0 * period < oc:
                violations += 1
        c.check(violations == 0, "%d of 1000 sets break the ordering" % violations)


def test_criterion_05_balance_identities():
    with _criterion(5, "new-case balance identities hold to 1e-9 relative on "
                       "randomized inputs") as c:
        rng = np.random.default_rng(1105)

        # injected impulse mass is recovered from the response curve
        for _ in range(4):
            gamma = float(rng.uniform(0.05, 0.3))
            days = int(math.ceil(45.0 / gamma))
            daily = np.zeros(days)
            daily[int(rng.integers(0, 10))] = 100.0
            times, values, _, _ = oracles.balance_response(0.0, daily, gamma,
                                                           substeps=4096)
            got = costs.new_cases_over_window((times, values), gamma)
            c.check(abs(got - 100.0) <= 1e-9 * 100.0,
                    "impulse mass %.12f at gamma %.3f" % (got, gamma))

        # terminal correction recovers rough random input totals
        for _ in range(8):
            gamma = float(rng.uniform(0.05, 0.3))
            days = int(rng.integers(60, 150))
            daily = rng.lognormal(3.0, 0.8, size=days)
            i0 = float(rng.uniform(0.0, 500.0))
            times, values, _, _ = oracles.balance_response(i0, daily, gamma,
                                                           substeps=4096)
            got = costs.new_cases_over_window((times, values), gamma)
            total = float(np.sum(daily))
            c.check(abs(got - total) <= 1e-9 * total,
                    "total %.6f recovered as %.6f" % (total, got))

        # on a balanced cycle the terminal correction vanishes and the total
        # collapses to gamma times the area
        for _ in range(8):
            alpha = 10.0 ** rng.uniform(-2.0, -0.7)
            beta = 10.0 ** rng.uniform(-2.0, -0.7)
            gamma = beta * float(rng.uniform(1.5, 4.0))
            i0 = 10.0 ** rng.uniform(1.0, 4.0)
            period = float(rng.uniform(20.0, 120.0))
            params = core.StrategyParams.from_growth_rates(alpha, beta, i0,
                                                           period, gamma=gamma)
            traj = core.solve_trajectory(i0, core.PhaseSchedule.open_close(params),
                                         gamma)
            full = costs.new_cases_over_window(traj, gamma)
            periodic = costs.new_cases_over_window(traj, gamma, periodic=True)
            c.check(abs(full - periodic) <= 1e-9 * periodic,
                    "balanced-cycle totals %.6g vs %.6g" % (full, periodic))


def test_criterion_06_fixed_step_integration_oracle():
    with _criterion(6, "closed-form trajectories match 4th-order fixed-step "
                       "integration (h=0.01) to 1e-6 on 100 random schedules") as c:
        rng = np.random.default_rng(66)
        worst = 0.0
        for _ in range(100):
            gamma = float(rng.uniform(0.02, 0.3))
            n_phases = int(rng.integers(1, 6))
            phases = [(float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.5, 40.0)))
                      for _ in range(n_phases)]
            i0 = 10.0 ** rng.uniform(0.0, 5.0)

            sched = core.PhaseSchedule(tuple(core.Phase(rt, d) for rt, d in phases))
            total = sum(d for _, d in phases)
            traj = core.solve_trajectory(i0, sched, gamma, sample_step=total / 7.0)

            # map every grid time to (phase, offset) and integrate to the same
            # spots, chaining the reference's own edges
            starts = [0.0]
            for _, d in phases:
                starts.append(starts[-1] + d)
            offsets = [[] for _ in phases]
            for t in traj.times:
                i = min(max(np.searchsorted(starts, t, side="right") - 1, 0),
                        len(phases) - 1)
                offsets[i].append(float(t) - starts[i])
            edges, samples = oracles.rk4_phase_values(i0, phases, gamma, offsets)

            for (t, v), ref in zip(traj.phase_boundaries, edges):
                worst = max(worst, abs(v - ref) / abs(ref))
            flat_refs = [ref for phase_samples in samples for ref in phase_samples]
            for v, ref in zip(traj.active, flat_refs):
                worst = max(worst, abs(v - ref) / abs(ref))
        c.check(worst <= 1e-6, "worst relative deviation %.3g" % worst)


def test_criterion_07_snapshot_fatality_fit():
    with _criterion(7, "bundled-snapshot fatality fit lands on the documented "
                       "kernel, under 5 s") as c:
        data_dir = default_data_dir()
        import os
        confirmed = ser.parse_jhu_timeseries(
            os.path.join(data_dir, JHU_FILENAMES["confirmed_cumulative"]),
            "Israel", "confirmed_cumulative")
        deaths = ser.parse_jhu_timeseries(
            os.path.join(data_dir, JHU_FILENAMES["deaths_cumulative"]),
            "Israel", "deaths_cumulative")
        new_cases = ser.window(ser.difference(confirmed), FIT_FROM, FIT_TO)
        daily_deaths = ser.window(ser.difference(deaths), FIT_FROM, FIT_TO)

        t0 = time.perf_counter()
        model = cfr_fit.fit(new_cases, daily_deaths, k_range=(0, 15),
                            smooth_window=7)
        elapsed = time.perf_counter() - t0

        c.check(model.delay_k == 3, "delay %d days, expected exactly 3" % model.delay_k)
        c.check(abs(model.cfr - 0.0085) <= 0.0010,
                "fatality rate %.6f not within 0.0085 +/- 0.0010" % model.cfr)
        c.check(abs(model.decay_a - 0.943) <= 0.01,
                "decay %.6f not within 0.943 +/- 0.01" % model.decay_a)
        c.check(abs(model.scale_b - 0.000485) <= 0.00005,
                "scale %.8f not within 0.000485 +/- 0.00005" % model.scale_b)
        c.check(elapsed < 5.0, "runtime %.2g s not under 5 s" % elapsed)


def test_criterion_08_noiseless_recovery():
    with _criterion(8, "noiseless kernel recovery to 1e-6 with fatality rate "
                       "to 1e-10") as c:
        t = np.arange(150, dtype=float)
        cases = (500.0 * np.exp(-0.5 * ((t - 50.0) / 12.0) ** 2)
                 + 900.0 * np.exp(-0.5 * ((t - 100.0) / 16.0) ** 2))
        deaths = oracles.convolve_direct(cases, 4, 0.91, 0.004)
        start = dt.date(2020, 4, 1)
        cases_s = ser.DailySeries(start, cases, "new_cases")
        deaths_s = ser.DailySeries(start, deaths, "daily_deaths")

        model = cfr_fit.fit(cases_s, deaths_s, k_range=(0, 10), smooth_window=1)
        c.check(model.delay_k == 4, "delay %d, expected 4" % model.delay_k)
        c.check(abs(model.decay_a - 0.91) <= 1e-6,
                "decay off by %.3g" % abs(model.decay_a - 0.91))
        c.check(abs(model.scale_b - 0.004) <= 1e-6 * 0.004,
                "scale off by %.3g relative" % (abs(model.scale_b - 0.004) / 0.004))
        c.check(abs(model.cfr - 0.004 / (1.0 - 0.91)) <= 1e-10,
                "fatality rate off by %.3g" % abs(model.cfr - 0.004 / 0.09))


def test_criterion_09_snapshot_validation():
    with _criterion(9, "bundled-snapshot two-cycle validation inside every "
                       "band, under 2 s") as c:
        t0 = time.perf_counter()
        rc, out = run_cli("validate", "--format", "json")
        elapsed = time.perf_counter() - t0
        c.check(rc == 0, "exit code %d" % rc)
        doc = json.loads(out)

        anchor_checks = [chk for chk in doc["checks"]
                         if chk["name"].startswith("active_")]
        c.check(len(anchor_checks) == 4 and all(chk["ok"] for chk in anchor_checks),
                "anchor dates not matched exactly: %s"
                % [chk["name"] for chk in anchor_checks if not chk["ok"]])

        bands = (("oc_cases", 190000.0, 190000.0 * 0.03),
                 ("co_cases", 52000.0, 52000.0 * 0.03),
                 ("oc_deaths_est", 1600.0, 1600.0 * 0.05),
                 ("co_deaths_est", 440.0, 440.0 * 0.05),
                 ("death_ratio", 3.7, 0.2),
                 ("predicted_ratio_from_model", 3.6, 0.2))
        for name, center, width in bands:
            value = doc[name]
            c.check(abs(value - center) <= width,
                    "%s = %.6g not within %g +/- %g" % (name, value, center, width))
        c.check(elapsed < 2.0, "runtime %.2g s not under 2 s" % elapsed)


def test_criterion_10_deterministic_output():
    with _criterion(10, "every command emits byte-identical structured output "
                        "across repeated runs") as c:
        commands = (["schedule"], ["simulate"], ["compare-costs"],
                    ["fit-cfr"], ["ingest"], ["validate"])
        for argv in commands:
            for fmt in ("json", "csv"):
                rc1, out1 = run_cli(*argv, "--format", fmt)
                rc2, out2 = run_cli(*argv, "--format", fmt)
                c.check(rc1 == rc2, "%s %s exit codes differ" % (argv[0], fmt))
                c.check(out1.encode("utf-8") == out2.encode("utf-8"),
                        "%s %s output differs between runs" % (argv[0], fmt))
                c.check(len(out1) > 0, "%s %s produced no output" % (argv[0], fmt))
