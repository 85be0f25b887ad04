"""Piecewise-exponential active-case dynamics under periodic open/close control.

A single infected stock I(t) evolves as dI/dt = gamma*(R_t - 1)*I with a
piecewise-constant reproduction number R_t, so every control phase is a pure
exponential arc and phase-boundary values have closed forms.  A cycle that
alternates an open phase (R_t = r_open > 1) with a close phase
(R_t = r_close < 1) returns I(t) to its starting value exactly when R_t
averages to one over the cycle; phase_lengths computes the unique split of a
given period that achieves this balance.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left

__all__ = [
    "DEFAULT_GAMMA",
    "StrategyParams",
    "Phase",
    "PhaseSchedule",
    "Trajectory",
    "phase_lengths",
    "average_rt",
    "MAX_SAMPLES",
    "solve_trajectory",
    "swap_cycle",
]

#: Fallback removal rate (1/day) when a strategy is stated in net-rate form
#: without an explicit gamma; corresponds to a 14-day infectious period.
DEFAULT_GAMMA = 1.0 / 14.0

#: Largest number of samples solve_trajectory takes; a sample_step that would
#: need more is rejected before any sample is taken.
MAX_SAMPLES = 1_000_000


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError("%s must be a finite number, got %r" % (name, value))


def _require_positive(**values) -> None:
    _require_finite(**values)
    for name, value in values.items():
        if not value > 0:
            raise ValueError("%s must be positive" % name)


def _floats(values, error="values must be one-dimensional") -> tuple:
    # a one-dimensional sequence of numbers as a tuple of floats; anything
    # else raises ValueError(error).  A string is a sequence of
    # one-character strings that float() reads
    if isinstance(values, (str, bytes)) or getattr(values, "ndim", 1) != 1:
        raise ValueError(error)
    try:
        return tuple(map(float, values))
    except TypeError:  # a scalar, or an item that is itself a sequence
        raise ValueError(error) from None


def _require_in_range(what: str, results, low=0.0, **inputs) -> None:
    # The closed forms map positive finite inputs to results above low, so any
    # other result, or a positive one below the smallest normal float, means
    # an exponential or a product left the float range.
    if not all(low < v < math.inf and not 0 < v < sys.float_info.min for v in results):
        raise ValueError("%s leaves the float range at %s"
                         % (what, ", ".join("%s=%r" % item for item in inputs.items())))


class _Record:
    """Base of the library's frozen records.

    A subclass declares its fields as annotations, in constructor order; a
    field given a value in the class body defaults to it.  A generated __init__
    stores the fields in order and calls __post_init__, which may replace one
    with object.__setattr__.  Assignment raises AttributeError; records
    compare, hash and repr by their fields, as Name(field=value, ...).
    """

    def __init_subclass__(cls):
        fields = cls.__annotations__
        params = ", ".join(f + "=defaults[%r]" % f if f in vars(cls) else f for f in fields)
        stores = ", ".join("%s=%s" % (f, f) for f in fields)
        namespace = {"defaults": vars(cls)}
        exec("def __init__(self, %s):\n self.__dict__.update(%s)\n self.__post_init__()"
             % (params, stores), namespace)
        cls.__init__ = init = namespace["__init__"]
        init.__qualname__, init.__module__ = cls.__qualname__ + ".__init__", cls.__module__

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % item for item in vars(self).items()))


class StrategyParams(_Record):
    """Parameters of a two-phase periodic control strategy.

    Two equivalent parameterisations are supported: reproduction numbers
    (gamma, r_open, r_close) or net exponential rates
    (alpha = gamma*(r_open - 1) for growth, beta = gamma*(1 - r_close) for
    decay).  Build instances through the classmethods; each keeps the pair
    it was given exact and derives the other, so downstream closed forms
    see the caller's numbers unchanged.  The range checks name both forms of
    a failing phase, so they name a field whichever pair the caller gave.
    """

    gamma: float
    r_open: float
    r_close: float
    i0: float
    period: float
    alpha: float
    beta: float

    def __post_init__(self):
        _require_positive(gamma=self.gamma, i0=self.i0, period=self.period)
        _require_finite(r_open=self.r_open, r_close=self.r_close, alpha=self.alpha, beta=self.beta)
        if not (self.alpha > 0 and self.r_open > 1):
            raise ValueError("alpha must be positive and r_open above 1 for a growth phase; "
                             "got alpha=%g, r_open=%g" % (self.alpha, self.r_open))
        if not (self.beta > 0 and self.r_close < 1):
            raise ValueError("beta must be positive and r_close below 1 for a decay phase; "
                             "got beta=%g, r_close=%g" % (self.beta, self.r_close))
        if self.r_close < 0:
            raise ValueError("beta=%g exceeds gamma=%g which would imply a negative close-phase "
                             "reproduction number; pass a larger gamma" % (self.beta, self.gamma))

    @classmethod
    def from_reproduction_numbers(cls, gamma: float, r_open: float, r_close: float,
                                  i0: float, period: float) -> "StrategyParams":
        _require_finite(gamma=gamma, r_open=r_open, r_close=r_close, i0=i0, period=period)
        alpha, beta = gamma * (r_open - 1.0), gamma * (1.0 - r_close)
        _require_in_range("the derived rate pair", (alpha, beta), -math.inf,
                          gamma=gamma, r_open=r_open, r_close=r_close)
        return cls(gamma=gamma, r_open=r_open, r_close=r_close, i0=i0, period=period,
                   alpha=alpha, beta=beta)

    @classmethod
    def from_growth_rates(cls, alpha: float, beta: float, i0: float, period: float,
                          gamma: float = DEFAULT_GAMMA) -> "StrategyParams":
        """Build from net growth/decay rates (1/day).

        Requires beta <= gamma: a decay rate faster than removal would need a
        negative reproduction number during the close phase.
        """
        _require_finite(alpha=alpha, beta=beta, i0=i0, period=period)
        _require_positive(gamma=gamma)  # the divisor of the derived pair
        r_open, r_close = 1.0 + alpha / gamma, 1.0 - beta / gamma
        _require_in_range("the derived reproduction-number pair", (r_open, r_close), -math.inf,
                          alpha=alpha, beta=beta, gamma=gamma)
        return cls(gamma=gamma, r_open=r_open, r_close=r_close, i0=i0, period=period,
                   alpha=alpha, beta=beta)


class Phase(_Record):
    """One control phase: a reproduction number held for a duration (days)."""

    rt: float
    duration: float

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("phase duration must be positive")
        if self.rt < 0:
            raise ValueError("reproduction number must be non-negative")


class PhaseSchedule(_Record):
    """An ordered sequence of phases making up one control cycle.

    Any number of phases with any non-negative reproduction numbers is
    accepted; the phases' rt values give the cycle order (open_close puts
    the rt > 1 phase first).
    """

    phases: tuple

    def __post_init__(self):
        phases = tuple(p if isinstance(p, Phase) else Phase(*p) for p in self.phases)
        object.__setattr__(self, "phases", phases)
        if not phases:
            raise ValueError("schedule needs at least one phase")

    @property
    def period(self) -> float:
        return math.fsum(p.duration for p in self.phases)

    @classmethod
    def open_close(cls, params: StrategyParams) -> "PhaseSchedule":
        t_open, t_close = phase_lengths(params)
        return cls((Phase(params.r_open, t_open), Phase(params.r_close, t_close)))


class Trajectory(_Record):
    """Sampled active-case curve plus its exact phase edges.

    times/active are the sampled grid, as tuples of floats.  phase_boundaries
    holds the exact (time, value) pairs at the start and at every phase edge,
    chained from the start value by sequential closed-form products, and
    rates the net rate gamma*(rt - 1) of each phase between them, so
    downstream integrals and invariant checks do not depend on the sampling
    step.
    """

    times: tuple
    active: tuple
    phase_boundaries: tuple
    rates: tuple


def _t_open(alpha: float, beta: float, period: float) -> float:
    # the open phase of the balanced split of period; costs takes its
    # exponent alpha*t_open from this same expression.  alpha + beta
    # overflows for rates near the float maximum, leaving t_open 0
    t_open = beta * period / (alpha + beta)
    _require_in_range("the balanced split", (t_open, period - t_open),
                      alpha=alpha, beta=beta, period=period)
    return t_open


def phase_lengths(params: StrategyParams):
    """Split params.period into (t_open, t_close) so the cycle is balanced.

    The balance condition is r_open*t_open + r_close*t_close = period, i.e.
    the time-averaged reproduction number over the cycle equals one.  In net
    rates this is t_open = beta*period/(alpha + beta), which also makes the
    growth and decay exponents cancel exactly: alpha*t_open = beta*t_close.
    """
    t_open = _t_open(params.alpha, params.beta, params.period)
    return t_open, params.period - t_open


def average_rt(schedule: PhaseSchedule) -> float:
    """Duration-weighted mean reproduction number of a schedule."""
    return math.fsum(p.rt * p.duration for p in schedule.phases) / schedule.period


def solve_trajectory(i0: float, schedule: PhaseSchedule, gamma: float,
                     sample_step: float = 1.0) -> Trajectory:
    """Solve the active-case curve for one cycle of a schedule.

    Within phase j the curve is I(t) = I_j * exp(gamma*(rt_j - 1)*(t - t_j)),
    with phase-start values chained exactly from i0.  Samples are taken every
    sample_step days starting at 0, and the cycle end is always included.
    A sample_step that would take more than MAX_SAMPLES samples is rejected,
    and so is a curve that leaves the float range (overflows to inf or
    falls below the smallest normal float), naming i0, gamma and the
    schedule's period.
    """
    _require_positive(i0=i0, gamma=gamma, sample_step=sample_step)
    rates = tuple(gamma * (ph.rt - 1.0) for ph in schedule.phases)
    edges = [(0.0, float(i0))]
    for ph, rate in zip(schedule.phases, rates):
        t, val = edges[-1]
        try:
            val *= math.exp(rate * ph.duration)
        except OverflowError:  # past the float range, which is rejected below
            val = math.inf
        edges.append((t + ph.duration, val))
    total = edges[-1][0]

    n_steps = total / sample_step + 1e-9
    if not n_steps < MAX_SAMPLES - 1:  # n_steps + 1 samples, plus the cycle end
        raise ValueError("sample_step=%g would take %.3g samples over %g days, more than "
                         "MAX_SAMPLES=%d" % (sample_step, n_steps + 1, total, MAX_SAMPLES))
    n_steps = int(n_steps)
    # each arc is monotone, so the edge values bound every sample on it
    _require_in_range("the active-case curve", [v for _, v in edges],
                      i0=i0, gamma=gamma, period=total)
    times = [i * sample_step for i in range(n_steps + 1)]
    if n_steps and total - times[-1] <= 1e-9 * sample_step:
        times[-1] = total  # snap fp drift so the last sample sits on the cycle end
    else:  # the t=0 sample stays even on a cycle shorter than the snap tolerance
        times.append(total)

    # the samples are sorted, so each phase owns one run of them; a sample on
    # a phase start belongs to the phase it starts
    cuts = [0, *(bisect_left(times, t) for t, _ in edges[1:-1]), len(times)]
    active = []
    for (start, value), rate, lo, hi in zip(edges, rates, cuts, cuts[1:]):
        active += [value * math.exp(rate * (t - start)) for t in times[lo:hi]]

    return Trajectory(tuple(times), tuple(active), tuple(edges), rates)


def swap_cycle(schedule: PhaseSchedule) -> PhaseSchedule:
    """Reverse the phase order of a two-phase cycle."""
    if len(schedule.phases) != 2:
        raise ValueError("swap_cycle is defined for two-phase cycles only")
    return PhaseSchedule(schedule.phases[::-1])
