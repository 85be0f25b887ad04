"""Outbreak-size cost accounting for periodic control strategies.

The cost of a strategy over one period is the area under its active-case
curve (person-days).  For a balanced cycle this area has closed forms in the
net rates alpha (open-phase growth) and beta (close-phase decay), and the
open-first to close-first cost ratio collapses to the peak-to-start ratio
exp(alpha*t_open).  For balanced cycles the total of new cases over the
period is gamma times the same area, which new_cases_over_window gives.
"""

from __future__ import annotations

import math

from .core import Trajectory, _floats, _Record, _require_in_range, _require_positive, _t_open

__all__ = [
    "CostReport",
    "cost_oc",
    "cost_co",
    "cost_const",
    "cost_ratio",
    "auc_numeric",
    "new_cases_over_window",
]


class CostReport(_Record):
    """Per-strategy cost summary over one period.

    auc_active is in person-days and i_max is the curve's peak, so an
    open-first report's peak-to-start ratio i_max/i0 is its cost ratio to
    close-first.  The generating parameters are kept so ratio checks can
    reject mismatched comparisons.  A report whose figures leave the float
    range is rejected with a ValueError naming the parameters that produced
    it.
    """

    strategy_tag: str
    auc_active: float
    i_max: float
    alpha: float | None
    beta: float | None
    i0: float
    period: float

    def __post_init__(self):
        inputs = {"alpha": self.alpha, "beta": self.beta, "i0": self.i0, "period": self.period}
        _require_in_range("the %s cost" % self.strategy_tag, (self.auc_active, self.i_max),
                          **{k: v for k, v in inputs.items() if v is not None})


def cost_oc(alpha: float, beta: float, i0: float, period: float) -> CostReport:
    """Cost of the open-first cycle: grow to the peak, then decay back to i0."""
    _require_positive(alpha=alpha, beta=beta, i0=i0, period=period)
    x = alpha * _t_open(alpha, beta, period)
    try:
        growth, peak = math.expm1(x), math.exp(x)
    except OverflowError:  # past the float range, which CostReport rejects
        growth = peak = math.inf
    return CostReport(
        strategy_tag="OC",
        auc_active=(1.0 / beta + 1.0 / alpha) * growth * i0,
        i_max=i0 * peak,
        alpha=alpha, beta=beta, i0=i0, period=period,
    )


def cost_co(alpha: float, beta: float, i0: float, period: float) -> CostReport:
    """Cost of the close-first cycle: decay to the trough, then grow back to i0.

    The curve never exceeds its starting value, so i_max = i0 at t = 0.
    """
    _require_positive(alpha=alpha, beta=beta, i0=i0, period=period)
    x = alpha * _t_open(alpha, beta, period)
    return CostReport(
        strategy_tag="CO",
        auc_active=(1.0 / beta + 1.0 / alpha) * (-math.expm1(-x)) * i0,
        i_max=i0,
        alpha=alpha, beta=beta, i0=i0, period=period,
    )


def cost_const(i0: float, period: float) -> CostReport:
    """Cost of holding the active count flat at i0 for the whole period."""
    _require_positive(i0=i0, period=period)
    return CostReport(
        strategy_tag="CONST",
        auc_active=i0 * period,
        i_max=i0,
        alpha=None, beta=None, i0=i0, period=period,
    )


def cost_ratio(oc: CostReport, co: CostReport) -> float:
    """Open-first over close-first cost ratio for a shared parameter set.

    Recomputes the closed form exp(alpha*t_open) = i_max/i0 independently and
    refuses to return a ratio that disagrees with it.
    """
    if oc.strategy_tag != "OC" or co.strategy_tag != "CO":
        raise ValueError("cost_ratio expects an OC report and a CO report, in that order")
    if (oc.alpha, oc.beta, oc.i0, oc.period) != (co.alpha, co.beta, co.i0, co.period):
        raise ValueError("reports were computed from different parameters; "
                         "OC has (alpha=%r, beta=%r, i0=%r, period=%r), CO has "
                         "(alpha=%r, beta=%r, i0=%r, period=%r)"
                         % (oc.alpha, oc.beta, oc.i0, oc.period,
                            co.alpha, co.beta, co.i0, co.period))
    ratio = oc.auc_active / co.auc_active
    reference = math.exp(oc.alpha * _t_open(oc.alpha, oc.beta, oc.period))
    if not math.isclose(ratio, reference, rel_tol=1e-9):
        raise ArithmeticError("cost ratio %.17g disagrees with exp(alpha*t_open) = %.17g"
                              % (ratio, reference))
    return ratio


def auc_numeric(traj) -> float:
    """Area under an active-case curve.

    Solved trajectories integrate each exponential arc between consecutive
    phase edges exactly: (I_end - I_start)/rate, or I*duration where the rate
    is zero.  Empirical samples, given as matching one-dimensional (times,
    values) sequences of at least two numbers, take the trapezoid rule.
    """
    if isinstance(traj, Trajectory):
        edges = traj.phase_boundaries
        return math.fsum(v0 * (t1 - t0) if rate == 0.0 else (v1 - v0) / rate
                         for (t0, v0), (t1, v1), rate in zip(edges, edges[1:], traj.rates))
    mismatch = "times and values must be matching one-dimensional arrays"
    times, values = (_floats(a, mismatch) for a in traj)
    if len(times) != len(values):
        raise ValueError(mismatch)
    if len(times) < 2:
        raise ValueError("need at least two samples")
    return math.fsum((t1 - t0) * (v0 + v1) / 2.0
                     for t0, t1, v0, v1 in zip(times, times[1:], values, values[1:]))


def _endpoints(traj):
    # (first value, last value, horizon length in days)
    if isinstance(traj, Trajectory):
        t_end, i_end = traj.phase_boundaries[-1]
        return traj.phase_boundaries[0][1], i_end, t_end
    times, values = traj
    return float(values[0]), float(values[-1]), float(times[-1] - times[0])


def new_cases_over_window(traj, gamma: float, periodic: bool = False) -> float:
    """Total new cases implied by an active-case curve over its window.

    With the balance equation dI/dt = -gamma*I + n(t), the new-case total
    over a window equals gamma times the area under the zero-initial-condition
    response a(t) = I(t) - I(0)*exp(-gamma*t), plus the terminal mass a(T).
    When the window is one balanced period (I(T) = I(0)) this collapses to
    gamma * AUC, which the periodic flag requests directly.
    """
    _require_positive(gamma=gamma)
    auc = auc_numeric(traj)
    if periodic:
        return gamma * auc
    i_start, i_end, horizon = _endpoints(traj)
    decay = math.exp(-gamma * horizon)
    a_end = i_end - i_start * decay
    auc_a = auc - i_start * (-math.expm1(-gamma * horizon)) / gamma
    return gamma * auc_a + a_end
