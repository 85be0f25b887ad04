"""Independent reference computations backing the expected values in tests.

Each oracle reaches a result by a different route than the library does
(fixed-step integration, exact day-step recursion, a direct double loop,
dense quadrature), so agreement between the two is evidence rather than the
same formula evaluated twice.
"""

import csv
import datetime as dt
import math

import numpy as np


def rk4_segment(start_value, rate, duration, h=0.01):
    """Integrate dI/dt = rate*I over duration with classic fixed-step RK4."""
    if duration == 0.0:
        return float(start_value)
    steps = max(1, int(math.ceil(duration / h - 1e-12)))
    hh = duration / steps
    v = float(start_value)
    for _ in range(steps):
        k1 = rate * v
        k2 = rate * (v + 0.5 * hh * k1)
        k3 = rate * (v + 0.5 * hh * k2)
        k4 = rate * (v + hh * k3)
        v += hh / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


def rk4_phase_values(i0, phases, gamma, offsets, h=0.01):
    """Trajectory values at phase edges and at offsets into each phase.

    phases is a sequence of (rt, duration) pairs, offsets a matching sequence
    of offset lists.  Edge values are chained through RK4 themselves, so no
    closed-form result leaks into the reference.
    """
    edges = [float(i0)]
    samples = []
    for (rt, duration), offs in zip(phases, offsets):
        rate = gamma * (rt - 1.0)
        samples.append([rk4_segment(edges[-1], rate, off, h) for off in offs])
        edges.append(rk4_segment(edges[-1], rate, duration, h))
    return edges, samples


def balance_response(i0, daily_new, gamma, substeps=2048):
    """Exact solution of dI/dt = -gamma*I + n(t) with n constant on each day.

    Returns (times, values, auc, final): a grid with substeps points per day,
    the exact curve on it, the exact integral of the curve over the span (per
    day closed form, fsum-accumulated), and the exact terminal value.
    """
    decay = math.exp(-gamma)
    pull = (1.0 - decay) / gamma
    s = np.arange(substeps) / substeps
    es = np.exp(-gamma * s)
    times, values, day_auc = [], [], []
    v = float(i0)
    for day, n in enumerate(daily_new):
        c = n / gamma
        times.append(day + s)
        values.append((v - c) * es + c)
        day_auc.append((v - c) * pull + c)
        v = v * decay + n * pull
    times.append(np.array([float(len(daily_new))]))
    values.append(np.array([v]))
    return np.concatenate(times), np.concatenate(values), math.fsum(day_auc), v


def convolve_direct(cases, k, a, b):
    """Direct double-loop kernel sum d(t) = sum_{i=k..t} b*a^(i-k)*n(t-i)."""
    out = []
    for t in range(len(cases)):
        acc = 0.0
        for i in range(k, t + 1):
            acc += b * a ** (i - k) * cases[t - i]
        out.append(acc)
    return np.array(out)


def kernel_weights(k, a, b, horizon):
    """First horizon kernel weights w(0..horizon-1): b*a^(i-k) from i = k on."""
    w = np.zeros(horizon)
    i = np.arange(k, horizon)
    w[i] = b * a ** (i - k)
    return w


def _profile_terms(cases, deaths, k, a):
    # day-step state s(t) = a*s(t-1) + n(t-k) and its a-derivative
    # ds(t) = a*ds(t-1) + s(t-1); returns the best scale b and r . ds/da
    s = ds = 0.0
    states, slopes = [], []
    for t in range(len(cases)):
        ds = a * ds + s
        s = a * s + (cases[t - k] if t >= k else 0.0)
        states.append(s)
        slopes.append(ds)
    b = math.fsum(d * s for d, s in zip(deaths, states)) / math.fsum(s * s for s in states)
    resid = [d - b * s for d, s in zip(deaths, states)]
    return b, math.fsum(r * ds for r, ds in zip(resid, slopes))


def profile_slope(cases, deaths, k, a):
    """a-derivative -2*b*(r . ds/da) of the profile sum (d - b*s)^2 at a."""
    b, r_ds = _profile_terms(cases, deaths, k, a)
    return -2.0 * b * r_ds


def profile_sse(cases, deaths, k, a):
    """Profile sum (d - b*s)^2 at a, on the direct double-loop state, with the
    closed-form best scale b clamped at 0."""
    deaths = np.asarray(deaths, dtype=float)
    s = convolve_direct(cases, k, a, 1.0)
    b = max(0.0, math.fsum(deaths * s) / math.fsum(s * s))
    return math.fsum((deaths - b * s) ** 2)


def profile_optimum(cases, deaths, k, lo, hi):
    """Least-squares kernel (a, b) for a fixed delay k by bisection in [lo, hi].

    With b the closed-form best scale, the profile sum (d - b*s)^2 has slope
    -2*b*(r . ds/da); bisection follows its sign until the bracket stops
    shrinking.  The slope must fall on the low end and rise on the high end.
    """
    def rising(a):
        b, r_ds = _profile_terms(cases, deaths, k, a)
        if b <= 0.0:
            raise ValueError("best scale is not positive at a=%r" % a)
        return r_ds < 0.0

    if rising(lo) or not rising(hi):
        raise ValueError("[%r, %r] does not bracket a profile minimum" % (lo, hi))
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if rising(mid):
            hi = mid
        else:
            lo = mid
    return mid, _profile_terms(cases, deaths, k, mid)[0]


def quad_exponential_arcs(i0, arcs, h=1e-4):
    """Dense trapezoid over chained exponential arcs [(rate, duration), ...]."""
    total = 0.0
    v = float(i0)
    for rate, duration in arcs:
        grid = np.append(np.arange(0.0, duration, h), duration)
        total += float(np.trapezoid(v * np.exp(rate * grid), grid))
        v *= math.exp(rate * duration)
    return total


def random_rate_sets(rng, count):
    """Randomized valid (alpha, beta, i0, period) tuples spanning decades."""
    alpha = 10.0 ** rng.uniform(-2.5, -0.3, count)
    beta = 10.0 ** rng.uniform(-2.5, -0.3, count)
    i0 = 10.0 ** rng.uniform(0.0, 5.0, count)
    period = 10.0 ** rng.uniform(0.3, 2.5, count)
    return list(zip(alpha, beta, i0, period))


def parse_mdy(token, path, column):
    """A CSSE date header cell by splitting at its slashes: month and day of
    one or two ASCII digits and a year of two (2000-2099) or four (1000 on),
    with blanks around the whole cell only."""
    parts = token.strip().split("/")
    if (len(parts) == 3 and all(p.isascii() and p.isdigit() for p in parts)
            and len(parts[0]) <= 2 and len(parts[1]) <= 2
            and (len(parts[2]) == 2 or len(parts[2]) == 4 and parts[2][0] != "0")):
        month, day, year = map(int, parts)
        try:
            return dt.date(year + 2000 if len(parts[2]) == 2 else year, month, day)
        except ValueError:
            pass
    raise ValueError("%s: bad date column %d: %r (expected m/d/yy)" % (path, column, token))


def every_column(tokens, path):
    """Header dates by decoding every column first, then checking that the
    days are consecutive."""
    dates = [parse_mdy(tok, path, i + 5) for i, tok in enumerate(tokens)]
    for prev, cur in zip(dates, dates[1:]):
        if (cur - prev).days != 1:
            raise ValueError("%s: date columns must be consecutive days; gap between "
                             "%s and %s" % (path, prev, cur))
    return dates


def parse_counts(cells, path, lineno, dates):
    """One row's counts, a cell at a time: every cell is converted (a blank
    one to 0) before any is checked for being finite."""
    values = []
    for cell in cells:
        try:
            values.append(float(cell) if cell.strip() else 0.0)
        except ValueError as exc:
            raise ValueError("%s: line %d: %s" % (path, lineno, exc)) from None
    for cell, value, day in zip(cells, values, dates):
        if math.isnan(value) or math.isinf(value):
            raise ValueError("%s: line %d has the non-finite value %r on %s"
                             % (path, lineno, cell.strip(), day))
    return values


def parse_jhu_rows(path, country, kind="confirmed_cumulative", province=None):
    """series.parse_jhu_timeseries by reading every row of the file with
    csv.reader before any check, each row's errors naming the physical line
    its record starts on."""
    from lockcycle.series import DailySeries

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = []
        try:
            while True:
                start = reader.line_num + 1
                row = next(reader, None)
                if row is None:
                    break
                rows.append((start, row))
        except csv.Error as exc:
            raise ValueError("%s: line %d: %s" % (path, reader.line_num, exc)) from None
        except UnicodeDecodeError as exc:
            raise ValueError("%s: %s" % (path, exc)) from None
    if not rows:
        raise ValueError("%s: empty file" % path)
    header = rows[0][1]
    if header[:4] != ["Province/State", "Country/Region", "Lat", "Long"]:
        raise ValueError("%s: unexpected header %r; not a CSSE wide-format file"
                         % (path, header[:4]))
    if len(header) == 4:
        raise ValueError("%s: no date columns" % path)
    dates = every_column(header[4:], str(path))
    total = [0.0] * len(dates)
    matched = 0
    seen = set()
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise ValueError("%s: line %d has %d fields, expected %d"
                             % (path, lineno, len(row), len(header)))
        seen.add(row[1])
        if row[1] == country and (province is None or row[0] == province):
            total = [t + v for t, v in zip(total, parse_counts(row[4:], path, lineno, dates))]
            matched += 1
    if matched == 0:
        raise ValueError("country %r%s not found in %s; available countries: %s"
                         % (country, "" if province is None else " (province %r)" % province,
                            path, ", ".join(sorted(seen))))
    return DailySeries(dates[0], total, kind)
