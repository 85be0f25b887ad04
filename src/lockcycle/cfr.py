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
grid of 52 decays, the search edges 0 and _TOP and 50 points between them,
is scored in one filter pass, and each delay's best grid decay and its grid
neighbours bracket the minimum.  Safeguarded Newton steps on the profile's
slope refine all delays in lock step, each from its best decay if that is an
edge, else from the vertex of the parabola through the grid's explained
squares (d.s)^2/(s.s) at the three.  The vertex is rounded to 1e-9, so that
the grid's matrix product, which rounds differently for one delay than for
many, leaves each delay's fit the same however many delays are searched.  A
delay stops at its first Newton step shorter than _SHORT_STEP, which in the
quadratic regime leaves an error of the order of its square.  The integer
delay k with the smallest residual wins, and fit builds its state and
a-derivative alone, the filter delaying its input by k days and by one.
Each evaluation, the grid's included, builds its block power matrices once,
as read-only Toeplitz views of one ramp of powers, and runs every filter
pass it needs on them.  The bundled Israel fit takes four evaluations.

The input series hold plain floats.  fit turns each into an array once,
smooths it with a trailing moving average and aligns the two on their
common dates, all on arrays.
"""

from __future__ import annotations

import datetime as dt
import math

import numpy as np

from .core import _Record, _require_finite
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
        # each test is written so that NaN fails it
        if not (self.delay_k >= 0 and self.delay_k % 1 == 0):
            raise ValueError("delay_k must be a non-negative integer")
        if not 0.0 <= self.decay_a < 1.0:
            raise ValueError("decay_a must lie in [0, 1) for the kernel mass to converge")
        figures = {"scale_b": self.scale_b, "sse": self.sse, "cv_a": self.cv_a, "cv_b": self.cv_b}
        _require_finite(**{name: v for name, v in figures.items() if v is not None})
        if self.scale_b < 0:
            raise ValueError("scale_b must be non-negative")

    @property
    def cfr(self) -> float:
        """Kernel mass b/(1-a): the fraction of cases that end in death."""
        return self.scale_b / (1.0 - self.decay_a)


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


def _one_pole(x, pole, delay: int = 0) -> np.ndarray:
    """s(t) = a*s(t-1) + x(t-delay) along the last axis of x, from zero state.

    pole is _pole(a, t) for the t days of x, and delay is at most t; x is
    zero before its first day, so the first delay days of s are zero.  a is
    a decay or an array of decays broadcasting against the leading axes of
    x; the result has their broadcast shape plus the time axis.  Within a
    block of _BLOCK days the recursion is one matrix product with the
    lower-triangular powers of a.  The states at the block ends follow the
    same recursion over blocks with decay a**_BLOCK, and each decays into
    the next block as a**(i+1).
    """
    x = np.asarray(x, dtype=float)
    t = x.shape[-1]
    inner, outer, carry = pole
    blocks = outer.shape[-1]
    padded = np.zeros(x.shape[:-1] + (blocks * _BLOCK,))
    padded[..., delay:t] = x[..., :t - delay]
    y = padded.reshape(x.shape[:-1] + (blocks, _BLOCK)) @ inner
    ends = (y[..., None, :, -1] @ outer)[..., 0, :]
    y[..., 1:, :] += ends[..., :-1, None] * carry[..., None, :]
    # contiguous, so later matrix products on it stay on the BLAS path
    return np.ascontiguousarray(y.reshape(y.shape[:-2] + (blocks * _BLOCK,))[..., :t])


@np.errstate(all="ignore")  # an overflow shows as a value DailySeries rejects
def predict_deaths(model: CfrModel, new_cases: DailySeries) -> DailySeries:
    """Daily deaths implied by a new-case series under the kernel.

    The recursion starts from zero state, so nothing before the first datum
    contributes.  A series shorter than the delay yields an empty prediction.
    """
    if len(new_cases) < model.delay_k:
        return DailySeries(new_cases.start_date, (), "daily_deaths")
    values = np.asarray(new_cases.values, dtype=float)
    s = _one_pole(values, _pole(model.decay_a, len(values)), model.delay_k)
    return DailySeries(new_cases.start_date, (model.scale_b * s).tolist(), "daily_deaths")


_TOP = 1.0 - 1e-12  # a = 1 would give the kernel infinite mass
# 50 decays on (0, 1) between the two search edges
_GRID = np.concatenate([[0.0], (np.arange(50) + 0.5) / 50, [_TOP]])
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
    s1 = _one_pole(s, pole, 1) * mask
    # d2s/da2 / 2; r is zero past the mask, so s2 needs none
    s2 = _one_pole(s1, pole, 1)
    b, q = _best_scale(s, ahead)
    r = ahead - b[:, None] * s
    rs1 = _rowdot(r, s1)
    db = np.divide(rs1 - b * _rowdot(s, s1), q, out=np.zeros_like(q), where=b > 0.0)
    slope = -2.0 * b * rs1
    curvature = 2.0 * b * (b * _rowdot(s1, s1) - 2.0 * _rowdot(r, s2)) - 2.0 * q * db * db
    return slope, curvature


def _grid_profiles(cases, ahead, mask):
    """Explained squares (d.s)^2/(s.s) from one filter pass (rows: _GRID,
    columns: the rows of ahead and mask), 0 where no scale b > 0 fits.  The
    states are the cases themselves at a = 0 and their running sum at _TOP.
    _fit_decays rounds the Newton start it takes from these to 1e-9, as the
    matrix products round differently for one delay than for many."""
    states = _one_pole(cases, _pole(_GRID, len(cases)))
    p = states @ ahead.T
    q = (states * states) @ mask.T
    return np.divide(p * p, q, out=np.zeros_like(p), where=(p > 0.0) & (q > 0.0))


def _fit_decays(cases: np.ndarray, deaths: np.ndarray, ks: np.ndarray):
    """The profile of the search: best (a, b, sse) arrays, one entry per delay in ks.

    Every delay works on the zero-delay state s_0: row j of `ahead` holds the
    deaths k_j days after each state day and `mask` the state days that have
    one.  The grid holds both search edges, so one rule serves every delay:
    the best grid decay, the largest explained square e, and its grid
    neighbours, clipped at the ends, bracket the profile minimum.  A best
    edge starts Newton on the edge itself.  An interior best starts it at
    the vertex of the parabola through e at the three, with the grid's own
    spacing on each side, rounded to 1e-9: the grid's matrix product rounds
    differently for one delay than for many, and the rounding keeps each
    delay's fit the same whichever other delays are searched.  A delay that
    no grid decay fits keeps a = _GRID[0] = 0.  All delays take Newton steps
    on the profile slope together, each falling back to bisection whenever
    its step would leave its bracket or its profile is not convex there; an
    outward slope on a search edge collapses the bracket onto it.  A row
    stops once it takes a Newton step shorter than _SHORT_STEP: the profile
    is quadratic that close to its minimum, so the step leaves an error of
    the order of its square, under 1e-12, and a further evaluation would
    only confirm it.  A row also stops on any step, Newton or bisection,
    below _STEP_TOL.  A last pass at each final decay gives b and the SSE
    there, as the loop's last evaluation lies one step behind it.
    """
    t = len(cases)
    days = np.arange(t)
    mask = (days < t - ks[:, None]).astype(float)
    ahead = np.where(mask > 0.0, deaths[np.minimum(days + ks[:, None], t - 1)], 0.0)

    e = _grid_profiles(cases, ahead, mask)
    j = np.argmax(e, axis=0)
    j_lo, j_hi = np.maximum(j - 1, 0), np.minimum(j + 1, len(_GRID) - 1)
    lo, mid, hi = _GRID[j_lo], _GRID[j], _GRID[j_hi]
    cols = np.arange(len(ks))
    e_mid = e[j, cols]
    # the parabola's vertex; off the grid's ends its denominator is positive,
    # as argmax takes the first of equal maxima
    d_lo, d_hi = e_mid - e[j_lo, cols], e_mid - e[j_hi, cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = 0.5 * ((hi - mid) ** 2 * d_lo - (mid - lo) ** 2 * d_hi) / (
            (hi - mid) * d_lo + (mid - lo) * d_hi)
    a = np.where((j == 0) | (j == len(_GRID) - 1), mid, np.round(mid + shift, 9))
    rows = np.flatnonzero(e_mid > 0.0)
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
    return a, b, head + _rowdot(resid, resid)


def _moving_average(values, window_days: int) -> np.ndarray:
    """Trailing window_days-day mean of a series' values as an array, from
    the window_days-th value on; a width of 1 gives the values unchanged."""
    # fromiter reads a tuple of floats faster than asarray
    values = np.fromiter(values, float, len(values))
    return np.convolve(values, np.ones(window_days), "valid") / window_days


@np.errstate(all="ignore")  # an overflow shows as a figure CfrModel rejects
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

    ks = np.arange(k_lo, k_hi + 1)
    a_by_k, b_by_k, sse_by_k = _fit_decays(n, d, ks)
    best = 0
    for j in range(1, len(ks)):
        if sse_by_k[j] < sse_by_k[best] * (1.0 - 1e-12):
            best = j
    k, a, b, sse = int(ks[best]), float(a_by_k[best]), float(b_by_k[best]), float(sse_by_k[best])
    pole = _pole(a, len(n))
    s = _one_pole(n, pole, k)
    cv_a, cv_b = _cvs(s, _one_pole(s, pole, 1), sse, a, b)
    figures = dict(delay_k=k, decay_a=a, scale_b=b, sse=sse, cv_a=cv_a, cv_b=cv_b)
    CfrModel(**figures)  # names a figure that overflowed before the series built from it
    return CfrModel(**figures, fitted_deaths=DailySeries(start, (b * s).tolist(), "daily_deaths"))


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
