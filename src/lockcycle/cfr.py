"""Case-fatality estimation from daily cases and deaths.

Daily deaths are modelled as a delayed geometric convolution of daily new
cases: the kernel puts weight b*a**(i-k) on cases i days back for i >= k and
nothing before the delay k.  The kernel mass b/(1-a) is the case-fatality
rate.  Because the kernel is a single geometric tail, the convolution reduces
to the exact one-pole state recursion s(t) = a*s(t-1) + n(t-k), d(t) = b*s(t),
which prediction, fitting and the parameter CVs all run through one batched
numpy filter.

Fitting minimises the sum of squared residuals between smoothed observed
deaths and the smoothed-case prediction by variable projection: for a fixed
decay a the scale b is the closed-form least-squares solution, leaving the
one-dimensional profile SSE(a) = |d|^2 - (d.s)^2/(s.s) for each delay.  The
recursion starts from zero state, so the state for delay k is the zero-delay
state shifted by k days and one filter pass per decay serves every delay.  A
50-point grid scan on (0, 1) finds each delay's best grid decay, and a second
pass, over the grid decays next to a best one only, gives the profile's slope
there.  Its sign at the best decay picks the half grid cell holding the
minimum, and safeguarded Newton steps on the profile's slope refine all
delays in lock step from that half's secant root, or from the search edge
when the half ends on one.  A delay stops at its first Newton step shorter
than _SHORT_STEP, which in the quadratic regime leaves an error of the
order of its square.  The integer delay k with the smallest residual
wins.  Each evaluation builds its block power matrices once, as read-only
Toeplitz views of one ramp of powers, and runs every filter pass it needs on
them; the grid's tables are built once per process.  The bundled Israel fit
takes four evaluations.

The input series hold plain floats.  fit turns each into an array once,
smooths it with a trailing moving average and aligns the two on their
common dates, all on arrays.
"""

from __future__ import annotations

import datetime as dt
import math

import numpy as np

from .core import _Record
from .series import DailySeries, overlap

__all__ = [
    "CfrModel",
    "predict_deaths",
    "fit",
]


class CfrModel(_Record):
    """Fitted (or assumed) delay-kernel parameters.

    delay_k is the dead time in days, decay_a the geometric decay in [0, 1),
    scale_b the kernel scale.  cv_a/cv_b are percent coefficients of
    variation from the linearised covariance at the optimum, when available.
    """

    delay_k: int
    decay_a: float
    scale_b: float
    sse: float | None = None
    cv_a: float | None = None
    cv_b: float | None = None
    fitted_deaths: DailySeries | None = None

    def __post_init__(self):
        if self.delay_k < 0 or int(self.delay_k) != self.delay_k:
            raise ValueError("delay_k must be a non-negative integer")
        if not 0.0 <= self.decay_a < 1.0:
            raise ValueError("decay_a must lie in [0, 1) for the kernel mass to converge")
        if self.scale_b < 0:
            raise ValueError("scale_b must be non-negative")

    @property
    def cfr(self) -> float:
        """Kernel mass b/(1-a): the fraction of cases that end in death."""
        return self.scale_b / (1.0 - self.decay_a)


def _delayed(values: np.ndarray, k: int) -> np.ndarray:
    # shift right by k days along the last axis, zero-filled
    if k == 0:
        return values
    out = np.zeros_like(values)
    out[..., k:] = values[..., :-k]
    return out


_BLOCK = 32


def _lower_powers(powers: np.ndarray) -> np.ndarray:
    """[..., j, i] = a**(i-j) for i >= j and 0 above, one read-only matrix per
    decay, from powers[..., i] = a**i."""
    lead, size = powers.shape[:-1], powers.shape[-1]
    ramp = np.zeros(lead + (2 * size - 1,))
    ramp[..., size - 1:] = powers
    # entry (j, i) reads ramp[size-1+i-j] of [0]*(size-1) + a**(0..size-1);
    # an empty ramp has no byte to start at
    toeplitz = np.ndarray(lead + (size, size), float, ramp,
                          (size - 1) * ramp.itemsize if ramp.size else 0,
                          ramp.strides[:-1] + (-ramp.itemsize, ramp.itemsize))
    toeplitz.flags.writeable = False
    return toeplitz


def _blocks(t: int) -> int:
    return max(1, -(-t // _BLOCK))


def _pole(a, t: int):
    """(inner, outer, carry) power tables of decays a for _one_pole over t
    days; passes that share decays and a length share one set."""
    a = np.asarray(a, dtype=float)
    powers = a[..., None] ** np.arange(_BLOCK + 1)
    return (_lower_powers(powers[..., :_BLOCK]),
            _lower_powers(powers[..., _BLOCK:] ** np.arange(_blocks(t))), powers[..., 1:])


def _one_pole(x, pole) -> np.ndarray:
    """s(t) = a*s(t-1) + x(t) along the last axis of x, from zero state.

    pole is _pole(a, t) for the t days of x.  a is a decay or an array of
    decays broadcasting against the leading axes of x; the result has their
    broadcast shape plus the time axis.  Within a block of _BLOCK days the
    recursion is one matrix product with the lower-triangular powers of a.
    The states at the block ends follow the same recursion over blocks with
    decay a**_BLOCK, and each decays into the next block as a**(i+1).
    """
    x = np.asarray(x, dtype=float)
    t = x.shape[-1]
    inner, outer, carry = pole
    blocks = outer.shape[-1]
    padded = np.zeros(x.shape[:-1] + (blocks * _BLOCK,))
    padded[..., :t] = x
    y = padded.reshape(x.shape[:-1] + (blocks, _BLOCK)) @ inner
    ends = (y[..., None, :, -1] @ outer)[..., 0, :]
    y[..., 1:, :] += ends[..., :-1, None] * carry[..., None, :]
    # contiguous, so later matrix products on it stay on the BLAS path
    return np.ascontiguousarray(y.reshape(y.shape[:-2] + (blocks * _BLOCK,))[..., :t])


def predict_deaths(model: CfrModel, new_cases: DailySeries) -> DailySeries:
    """Daily deaths implied by a new-case series under the kernel.

    The recursion starts from zero state, so nothing before the first datum
    contributes.  A series shorter than the delay yields an empty prediction.
    """
    if len(new_cases) < model.delay_k:
        return DailySeries(new_cases.start_date, (), "daily_deaths")
    values = np.asarray(new_cases.values, dtype=float)
    # s_k(t) = s_0(t-k): the recursion is linear, time-invariant and starts
    # from zero, so every delay shares the zero-delay state
    s = _delayed(_one_pole(values, _pole(model.decay_a, len(values))), model.delay_k)
    return DailySeries(new_cases.start_date, (model.scale_b * s).tolist(), "daily_deaths")


_GRID = (np.arange(50) + 0.5) / 50
# _pole(_GRID, t) for the longest t so far, built once per process
_GRID_POLE = list(_pole(_GRID, 1))
_TOP = 1.0 - 1e-12  # a = 1 would give the kernel infinite mass
_STEP_TOL = 1e-14
_SHORT_STEP = 1e-7
_MAX_STEPS = 100


def _rowdot(x, y):
    return np.einsum("ij,ij->i", x, y)


def _best_scale(states, ahead):
    # least-squares b >= 0 for each row (0 where d.s <= 0 or s is all zero),
    # and s.s
    p = _rowdot(ahead, states)
    q = _rowdot(states, states)
    b = np.divide(p, q, out=np.zeros_like(p), where=(p > 0.0) & (q > 0.0))
    return b, q


def _profile_slopes(cases, ahead, mask, a):
    """First and second a-derivatives of each row's profile SSE at a.

    With b(a) the best scale and r = d - b*s the residual, the profile's
    slope is -2*b*(r . ds/da) and its curvature follows from d2s/da2.  Both
    derivative states are the same filter again: ds/da(t) = a*ds/da(t-1) +
    s(t-1) and d2s/da2(t) = a*d2s/da2(t-1) + 2*ds/da(t-1).
    """
    pole = _pole(a, len(cases))
    s = _one_pole(cases, pole) * mask
    s1 = _one_pole(_delayed(s, 1), pole) * mask
    s2 = 2.0 * _one_pole(_delayed(s1, 1), pole) * mask
    b, q = _best_scale(s, ahead)
    r = ahead - b[:, None] * s
    rs1 = _rowdot(r, s1)
    db = np.divide(rs1 - b * _rowdot(s, s1), q, out=np.zeros_like(q), where=b > 0.0)
    slope = -2.0 * b * rs1
    curvature = 2.0 * b * (b * _rowdot(s1, s1) - _rowdot(r, s2)) - 2.0 * q * db * db
    return slope, curvature


def _grid_pole(t: int):
    """_pole(_GRID, t) from the process's one set of grid tables; a series
    longer than any before grows the outer table, and a shorter one reads
    its leading blocks.  Threads need no lock: each slices the table it
    checked or built, and a race only rebuilds one."""
    inner, outer, carry = _GRID_POLE
    blocks = _blocks(t)
    if outer.shape[-1] < blocks:
        # carry's last column is a**_BLOCK
        outer = _GRID_POLE[1] = _lower_powers(carry[:, -1:] ** np.arange(blocks))
    return inner, outer[:, :blocks, :blocks], carry


def _grid_profiles(cases, ahead, ks):
    """Best grid index of every delay in ks, and the profile slopes (rows:
    _GRID, columns: ks) at the grid decays next to some delay's best one.

    One filter pass gives the grid states s, whose explained square
    (d.s)^2/(s.s) picks each delay's best grid decay.  A second pass on the
    same powers gives the a-derivative ds at the grid decays next to a best
    one only, the entries _fit_decays reads; with b = (d.s)/(s.s) the slope
    is -2b(d.ds - b s.ds), 0 where b is not positive and NaN where unread.
    """
    end = len(cases) - 1 - ks  # the last state day with a death k days on
    pole = _grid_pole(len(cases))
    states = _one_pole(cases, pole)
    p = states @ ahead.T
    q = np.cumsum(states * states, axis=1)[:, end]
    fits = (p > 0.0) & (q > 0.0)
    best = np.argmax(np.divide(p * p, q, out=np.zeros_like(p), where=fits), axis=0)
    near = np.zeros(len(_GRID), dtype=bool)
    near[np.clip(best[:, None] + np.arange(-1, 2), 0, len(_GRID) - 1)] = True
    s, p, q = states[near], p[near], q[near]
    ds = _one_pole(_delayed(s, 1), tuple(table[near] for table in pole))
    b = np.divide(p, q, out=np.zeros_like(p), where=fits[near])
    slopes = np.full(fits.shape, np.nan)
    slopes[near] = -2.0 * b * (ds @ ahead.T - b * np.cumsum(s * ds, axis=1)[:, end])
    return best, slopes


def _fit_decays(cases: np.ndarray, deaths: np.ndarray, ks: np.ndarray):
    """Best (a, b, sse) arrays and the masked states s_0 at a, one entry per delay in ks.

    Every delay works on the zero-delay state s_0: row j of `ahead` holds the
    deaths k_j days after each state day and `mask` the state days that have
    one.  A 50-point grid scan over (0, 1) finds each delay's best grid
    decay, and the sign of the grid table's slope there picks the half cell
    beside it that holds the profile minimum.  A minimum whose outer grid end
    already slopes outward sits on that end; otherwise Newton starts at the
    half's secant root.  The search edges 0 and _TOP are not grid decays, so
    a half ending on one starts Newton on the edge itself: that evaluation,
    in the residual form -2b(r.ds), is the edge test (at an exact fit with
    a = 0 the table's form cancels to a slope of the wrong sign), and an
    outward slope there collapses the bracket onto the edge.  All delays
    take Newton steps on the profile slope together, each falling back to
    bisection whenever its step would leave its bracket or its profile is
    not convex there.  A row stops once it takes a Newton step shorter than
    _SHORT_STEP: the profile is quadratic that close to its minimum, so the
    step leaves an error of the order of its square, under 1e-12, and a
    further evaluation would only confirm it.  A row also stops on any step,
    Newton or bisection, below _STEP_TOL.
    """
    t = len(cases)
    days = np.arange(t)
    mask = (days < t - ks[:, None]).astype(float)
    ahead = np.where(mask > 0.0, deaths[np.minimum(days + ks[:, None], t - 1)], 0.0)

    j, slopes = _grid_profiles(cases, ahead, ks)
    cols = np.arange(len(ks))
    mid, slope_mid = _GRID[j], slopes[j, cols]
    up = slope_mid < 0.0  # the minimum lies above the best grid decay
    outer = np.where(up, j + 1, j - 1)
    edge = (outer < 0) | (outer == len(_GRID))
    end = np.concatenate([[0.0], _GRID, [_TOP]])[outer + 1]
    slope_end = slopes[np.clip(outer, 0, len(_GRID) - 1), cols]
    outward = ~edge & np.where(up, slope_end <= 0.0, slope_end >= 0.0)
    lo, hi = np.minimum(mid, end), np.maximum(mid, end)
    with np.errstate(divide="ignore", invalid="ignore"):
        secant = mid - slope_mid * (end - mid) / (slope_end - slope_mid)
    a = np.where(slope_mid == 0.0, mid, np.where(edge | outward, end, secant))
    rows = np.flatnonzero((slope_mid != 0.0) & ~outward)
    for _ in range(_MAX_STEPS):
        if rows.size == 0:
            break
        x = a[rows]
        slope, curvature = _profile_slopes(cases, ahead[rows], mask[rows], x)
        lo[rows] = lo_x = np.where(slope < 0.0, x, lo[rows])
        hi[rows] = hi_x = np.where(slope > 0.0, x, hi[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.clip(x - slope / curvature, lo_x, hi_x)
        # a converged step may round onto the bracket end it has just moved
        converged = np.abs(newton - x) <= _STEP_TOL
        usable = (curvature > 0.0) & (((newton > lo_x) & (newton < hi_x)) | converged)
        a[rows] = np.where(usable, newton, 0.5 * (lo_x + hi_x))
        step = np.abs(a[rows] - x)
        # a short Newton step is taken in the quadratic regime, where it
        # lands within about its square of the minimum
        rows = rows[(step > _STEP_TOL) & ~(usable & (step < _SHORT_STEP))]

    states = _one_pole(cases, _pole(a, t)) * mask
    b, _ = _best_scale(states, ahead)
    resid = ahead - b[:, None] * states
    # deaths before the delay face a zero prediction
    head = np.concatenate([[0.0], np.cumsum(deaths * deaths)])[ks]
    return a, b, head + _rowdot(resid, resid), states


def _moving_average(values, window_days: int) -> np.ndarray:
    """Trailing window_days-day mean of a series' values as an array, from
    the window_days-th value on; a width of 1 gives the values unchanged."""
    # fromiter reads a tuple of floats faster than asarray
    values = np.fromiter(values, float, len(values))
    if window_days == 1:
        return values
    return np.convolve(values, np.ones(window_days), "valid") / window_days


def fit(new_cases: DailySeries, deaths: DailySeries, k_range=(0, 15),
        smooth_window: int = 7) -> CfrModel:
    """Fit the delay kernel to observed daily cases and deaths.

    Both series are smoothed with a trailing moving average (smooth_window=1
    disables smoothing), aligned on their common dates, and the residual is
    minimised over (a, b) for every integer delay in k_range; the delay with
    the smallest residual wins, ties going to the smallest delay.  Every
    searched delay must leave at least 60 aligned points to fit.

    Args:
        new_cases: daily new cases.
        deaths: daily deaths, overlapping the cases in date range.
        k_range: inclusive (low, high) delay interval to search.
        smooth_window: trailing moving-average length in days.

    Returns:
        CfrModel with fitted parameters, residual, percent CVs and the
        fitted death series on the aligned smoothed grid.
    """
    k_lo, k_hi = int(k_range[0]), int(k_range[1])
    if k_lo < 0 or k_hi < k_lo:
        raise ValueError("k_range must satisfy 0 <= low <= high")
    if new_cases.kind != "new_cases":
        raise ValueError("expected a new_cases series, got %s" % new_cases.kind)
    if deaths.kind != "daily_deaths":
        raise ValueError("expected a daily_deaths series, got %s" % deaths.kind)
    shortest = min(len(new_cases), len(deaths))
    if not 1 <= smooth_window <= shortest:
        raise ValueError("smooth_window must be at least 1 and at most the %d days of the "
                         "shorter series, got %d" % (shortest, smooth_window))

    # the trailing mean of a day covers it and the smooth_window - 1 days
    # before, so each smoothed series starts that many days after its input
    lag = dt.timedelta(days=smooth_window - 1)
    start, (n, d) = overlap(*((s.start_date + lag, _moving_average(s.values, smooth_window))
                              for s in (new_cases, deaths)))
    if not np.any(n != 0.0):
        raise ValueError("case series is identically zero")
    if len(n) - k_lo < 60:
        raise ValueError("only %d points are aligned after a smooth_window of %d days: even "
                         "the smallest delay, %d, leaves fewer than the 60 fitted points a "
                         "fit needs" % (len(n), smooth_window, k_lo))
    if len(n) - k_hi < 60:
        raise ValueError("k_range upper end %d reaches past the %d points aligned after a "
                         "smooth_window of %d days: every delay must leave at least 60 "
                         "fitted points" % (k_hi, len(n), smooth_window))

    if not np.any(d != 0.0):
        # no deaths at all: b = 0 fits every delay equally well
        return CfrModel(k_lo, 0.0, 0.0, sse=0.0, cv_a=None, cv_b=None,
                        fitted_deaths=DailySeries(start, (0.0,) * len(d), "daily_deaths"))

    ks = np.arange(k_lo, k_hi + 1)
    a_by_k, b_by_k, sse_by_k, states = _fit_decays(n, d, ks)
    best = 0
    for j in range(1, len(ks)):
        if sse_by_k[j] < sse_by_k[best] * (1.0 - 1e-12):
            best = j
    k, a, b, sse = int(ks[best]), float(a_by_k[best]), float(b_by_k[best]), float(sse_by_k[best])
    # the search's final state for delay k; only its a-derivative takes a pass
    s = _delayed(states[best], k)
    cv_a, cv_b = _cvs(s, _one_pole(_delayed(s, 1), _pole(a, len(n))), sse, a, b)
    fitted = DailySeries(start, (b * s).tolist(), "daily_deaths")
    return CfrModel(k, a, b, sse=sse, cv_a=cv_a, cv_b=cv_b, fitted_deaths=fitted)


def _cvs(s, ds_da, sse: float, a: float, b: float):
    t = len(s)
    if t - 2 <= 0:
        return None, None
    col_a = b * ds_da
    col_b = s
    g11 = float(np.dot(col_a, col_a))
    g12 = float(np.dot(col_a, col_b))
    g22 = float(np.dot(col_b, col_b))
    det = g11 * g22 - g12 * g12
    scale = max(g11 * g22, 1e-300)
    if det <= 1e-14 * scale:
        return None, None
    sigma2 = sse / (t - 2)
    var_a = sigma2 * g22 / det
    var_b = sigma2 * g11 / det
    cv_a = None if a == 0.0 else 100.0 * math.sqrt(max(var_a, 0.0)) / abs(a)
    cv_b = None if b == 0.0 else 100.0 * math.sqrt(max(var_b, 0.0)) / abs(b)
    return cv_a, cv_b
