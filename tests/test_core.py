import math

import numpy as np
import pytest

from lockcycle import (
    DEFAULT_GAMMA,
    MAX_SAMPLES,
    Phase,
    PhaseSchedule,
    StrategyParams,
    average_rt,
    phase_lengths,
    solve_trajectory,
    swap_cycle,
)

import oracles


# --- parameters --------------------------------------------------------------

def test_growth_rate_construction(baseline):
    assert baseline.alpha == 0.0410
    assert baseline.beta == 0.0553
    assert baseline.gamma == DEFAULT_GAMMA
    assert baseline.r_open == pytest.approx(1.0 + 0.0410 * 14.0, rel=1e-12)
    assert baseline.r_close == pytest.approx(1.0 - 0.0553 * 14.0, rel=1e-12)


def test_reproduction_number_construction():
    p = StrategyParams.from_reproduction_numbers(0.1, 2.0, 0.5, 1000.0, 30.0)
    assert p.alpha == pytest.approx(0.1, rel=1e-12)
    assert p.beta == pytest.approx(0.05, rel=1e-12)
    # the given pair is stored untouched
    assert p.r_open == 2.0 and p.r_close == 0.5


def test_parameterizations_agree():
    p = StrategyParams.from_growth_rates(0.08, 0.04, 500.0, 20.0, gamma=0.1)
    q = StrategyParams.from_reproduction_numbers(0.1, p.r_open, p.r_close, 500.0, 20.0)
    assert q.alpha == pytest.approx(p.alpha, rel=1e-12)
    assert q.beta == pytest.approx(p.beta, rel=1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(gamma=0.0, r_open=2.0, r_close=0.5),
    dict(gamma=-0.1, r_open=2.0, r_close=0.5),
    dict(gamma=0.1, r_open=1.0, r_close=0.5),    # open phase must grow
    dict(gamma=0.1, r_open=0.9, r_close=0.5),
    dict(gamma=0.1, r_open=2.0, r_close=1.0),    # close phase must shrink
    dict(gamma=0.1, r_open=2.0, r_close=-0.1),
])
def test_invalid_reproduction_numbers(kwargs):
    with pytest.raises(ValueError):
        StrategyParams.from_reproduction_numbers(i0=100.0, period=10.0, **kwargs)


def test_invalid_sizes():
    with pytest.raises(ValueError):
        StrategyParams.from_growth_rates(0.1, 0.05, 0.0, 10.0)
    with pytest.raises(ValueError):
        StrategyParams.from_growth_rates(0.1, 0.05, 100.0, 0.0)
    with pytest.raises(ValueError):
        StrategyParams.from_growth_rates(0.0, 0.05, 100.0, 10.0)
    with pytest.raises(ValueError):
        StrategyParams.from_growth_rates(0.1, -0.05, 100.0, 10.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_parameters_are_rejected(bad):
    rates = dict(alpha=0.1, beta=0.05, i0=100.0, period=10.0, gamma=0.1)
    repro = dict(gamma=0.1, r_open=2.0, r_close=0.5, i0=100.0, period=10.0)
    for build, kwargs in ((StrategyParams.from_growth_rates, rates),
                          (StrategyParams.from_reproduction_numbers, repro)):
        for name in kwargs:
            with pytest.raises(ValueError, match="%s must be a finite number" % name):
                build(**dict(kwargs, **{name: bad}))
    # a finite input whose derived pair overflows is reported on the inputs given
    with pytest.raises(ValueError, match=r"^the derived rate pair leaves the float range "
                                         r"at gamma=1e\+300, r_open=1e\+300, r_close=0.5$"):
        StrategyParams.from_reproduction_numbers(1e300, 1e300, 0.5, 100.0, 10.0)
    with pytest.raises(ValueError, match=r"^the derived reproduction-number pair leaves the "
                                         r"float range at alpha=1e\+308, beta=1e-11, gamma=1e-10$"):
        StrategyParams.from_growth_rates(1e308, 1e-11, 100.0, 10.0, gamma=1e-10)


def test_decay_faster_than_removal_is_rejected():
    # beta > gamma would need a negative close-phase reproduction number
    with pytest.raises(ValueError, match="gamma"):
        StrategyParams.from_growth_rates(0.1, 0.2, 100.0, 10.0, gamma=0.15)
    p = StrategyParams.from_growth_rates(0.1, 0.15, 100.0, 10.0, gamma=0.15)
    assert p.r_close == 0.0


@pytest.mark.parametrize("build, kwargs, field", [
    (StrategyParams.from_growth_rates, dict(alpha=0.0, beta=0.05), "alpha"),
    (StrategyParams.from_growth_rates, dict(alpha=0.1, beta=-0.05), "beta"),
    (StrategyParams.from_growth_rates, dict(alpha=0.1, beta=0.05, gamma=0.0), "gamma"),
    (StrategyParams.from_reproduction_numbers, dict(gamma=0.1, r_open=1.0, r_close=0.5),
     "r_open"),
    (StrategyParams.from_reproduction_numbers, dict(gamma=0.1, r_open=2.0, r_close=1.0),
     "r_close"),
    (StrategyParams.from_reproduction_numbers, dict(gamma=0.1, r_open=2.0, r_close=-0.1),
     "gamma"),
])
def test_range_errors_name_a_field_the_caller_passed(build, kwargs, field):
    with pytest.raises(ValueError, match=field):
        build(i0=100.0, period=10.0, **kwargs)


def test_params_are_frozen(baseline):
    with pytest.raises(AttributeError):
        baseline.alpha = 1.0


# --- phase lengths -----------------------------------------------------------

def test_phase_lengths_baseline(baseline):
    t_open, t_close = phase_lengths(baseline)
    assert t_open == pytest.approx(31.009345794392527, rel=1e-12)
    assert t_close == pytest.approx(22.990654205607473, rel=1e-12)
    assert t_open + t_close == baseline.period


def test_phase_lengths_symmetric():
    p = StrategyParams.from_growth_rates(0.0553, 0.0553, 21000.0, 54.0)
    t_open, t_close = phase_lengths(p)
    assert t_open == pytest.approx(27.0, rel=1e-12)
    assert t_close == pytest.approx(27.0, rel=1e-12)


def test_phase_lengths_balance_randomized():
    rng = np.random.default_rng(11)
    for alpha, beta, i0, period in oracles.random_rate_sets(rng, 200):
        p = StrategyParams.from_growth_rates(alpha, beta, i0, period, gamma=1.0)
        t_open, t_close = phase_lengths(p)
        assert 0.0 < t_open < period
        # growth and decay exponents cancel
        assert alpha * t_open == pytest.approx(beta * t_close, rel=1e-9)
        # time-averaged reproduction number is one
        avg = (p.r_open * t_open + p.r_close * t_close) / period
        assert avg == pytest.approx(1.0, abs=1e-9)


def test_phase_lengths_near_degenerate_open():
    # r_open barely above one: the open phase swallows almost the whole cycle
    p = StrategyParams.from_reproduction_numbers(DEFAULT_GAMMA, 1.0001, 0.5, 100.0, 30.0)
    t_open, t_close = phase_lengths(p)
    assert t_open > 29.9
    sched = PhaseSchedule.open_close(p)
    assert average_rt(sched) == pytest.approx(1.0, abs=1e-12)


def test_phase_lengths_full_shutdown_close():
    # r_close = 0 halts transmission outright; doubling transmission while
    # open then means an even split, since 2*15 + 0*15 averages to one
    p = StrategyParams.from_reproduction_numbers(0.1, 2.0, 0.0, 1000.0, 30.0)
    t_open, t_close = phase_lengths(p)
    assert t_open == pytest.approx(15.0, rel=1e-12)
    assert t_close == pytest.approx(15.0, rel=1e-12)
    assert p.r_open * t_open + p.r_close * t_close == pytest.approx(30.0, rel=1e-12)


# --- schedules ----------------------------------------------------------------

def test_schedule_constructors(baseline):
    oc = PhaseSchedule.open_close(baseline)
    assert [p.rt for p in oc.phases] == [baseline.r_open, baseline.r_close]
    assert oc.period == pytest.approx(54.0, rel=1e-12)


def test_schedule_normalizes_tuples():
    s = PhaseSchedule(((2.0, 3.0), (0.5, 4.0)))
    assert all(isinstance(p, Phase) for p in s.phases)
    assert s.period == 7.0


def test_tagged_schedule_structure_is_checked():
    with pytest.raises(ValueError):
        PhaseSchedule(())


def test_phase_validation():
    with pytest.raises(ValueError):
        Phase(2.0, 0.0)
    with pytest.raises(ValueError):
        Phase(-0.5, 1.0)
    Phase(0.0, 1.0)  # full shutdown is allowed


def test_average_rt_weighted():
    s = PhaseSchedule(((3.0, 1.0), (0.0, 2.0)))
    assert average_rt(s) == pytest.approx(1.0, rel=1e-12)


def test_swap_cycle(baseline):
    oc = PhaseSchedule.open_close(baseline)
    co = swap_cycle(oc)
    assert co.phases == oc.phases[::-1]
    assert swap_cycle(co).phases == oc.phases
    with pytest.raises(ValueError):
        swap_cycle(PhaseSchedule(((2.0, 1.0), (0.5, 1.0), (0.5, 1.0))))


# --- trajectories --------------------------------------------------------------

def test_trajectory_baseline_peak_and_return(baseline):
    traj = solve_trajectory(baseline.i0, PhaseSchedule.open_close(baseline), baseline.gamma)
    t_peak, peak = traj.phase_boundaries[1]
    assert t_peak == pytest.approx(31.009345794392527, rel=1e-12)
    assert peak == pytest.approx(74881.40649354774, rel=1e-12)
    t_end, end = traj.phase_boundaries[2]
    assert t_end == 54.0
    assert end == pytest.approx(21000.0, rel=1e-12)


def test_trajectory_sampled_day31(baseline):
    traj = solve_trajectory(baseline.i0, PhaseSchedule.open_close(baseline), baseline.gamma)
    assert traj.times[31] == 31.0
    assert traj.active[31] == pytest.approx(74852.7191146934, rel=1e-12)


def test_trajectory_close_open_trough(baseline):
    co = swap_cycle(PhaseSchedule.open_close(baseline))
    traj = solve_trajectory(baseline.i0, co, baseline.gamma)
    t_trough, trough = traj.phase_boundaries[1]
    assert t_trough == pytest.approx(22.990654205607473, rel=1e-12)
    assert trough == pytest.approx(5889.312456196982, rel=1e-12)
    assert traj.phase_boundaries[2][1] == pytest.approx(21000.0, rel=1e-12)


def test_trajectory_sampling_grid(baseline):
    sched = PhaseSchedule.open_close(baseline)
    traj = solve_trajectory(baseline.i0, sched, baseline.gamma, sample_step=1.0)
    assert len(traj.times) == 55
    assert traj.times[0] == 0.0 and traj.times[-1] == 54.0
    ragged = solve_trajectory(baseline.i0, sched, baseline.gamma, sample_step=0.7)
    assert ragged.times[-1] == 54.0
    assert np.all(np.diff(ragged.times) > 0)


@pytest.mark.parametrize("period, sample_step, times", [
    (1e-10, 1.0, [0.0, 1e-10]),
    (1e-12, 1.0, [0.0, 1e-12]),
    (9e-10, 5e-10, [0.0, 5e-10, 9e-10]),
], ids=["1e-10", "1e-12", "step-below-1e-9"])
def test_cycle_shorter_than_the_snap_tolerance_keeps_its_start(baseline, period, sample_step,
                                                               times):
    params = StrategyParams.from_growth_rates(baseline.alpha, baseline.beta, baseline.i0,
                                              period, gamma=baseline.gamma)
    traj = solve_trajectory(params.i0, PhaseSchedule.open_close(params), params.gamma,
                            sample_step=sample_step)
    assert np.asarray(traj.times).tolist() == times
    assert traj.active[0] == params.i0


def test_trajectory_edges_chain_exactly(baseline):
    traj = solve_trajectory(baseline.i0, PhaseSchedule.open_close(baseline), baseline.gamma)
    t_open, t_close = phase_lengths(baseline)
    assert traj.rates == (baseline.gamma * (baseline.r_open - 1.0),
                          baseline.gamma * (baseline.r_close - 1.0))
    peak = baseline.i0 * math.exp(traj.rates[0] * t_open)
    assert traj.phase_boundaries == ((0.0, baseline.i0), (t_open, peak),
                                     (t_open + t_close, peak * math.exp(traj.rates[1] * t_close)))


def test_flat_when_rt_is_one():
    s = PhaseSchedule(((1.0, 10.0),))
    traj = solve_trajectory(500.0, s, 0.2)
    assert np.all(np.asarray(traj.active) == 500.0)


def test_trajectory_rejects_bad_inputs(baseline):
    sched = PhaseSchedule.open_close(baseline)
    with pytest.raises(ValueError):
        solve_trajectory(0.0, sched, baseline.gamma)
    with pytest.raises(ValueError):
        solve_trajectory(100.0, sched, 0.0)
    with pytest.raises(ValueError):
        solve_trajectory(100.0, sched, baseline.gamma, sample_step=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="sample_step must be a finite number"):
            solve_trajectory(100.0, sched, baseline.gamma, sample_step=bad)


def test_sample_count_is_capped_before_allocating(baseline):
    # only steps the cap rejects are tried: an uncapped run would allocate
    # tens of gigabytes
    assert MAX_SAMPLES == 1_000_000
    sched = PhaseSchedule.open_close(baseline)
    with pytest.raises(ValueError, match="sample_step=1e-09 would take 5.4e\\+10 samples"):
        solve_trajectory(baseline.i0, sched, baseline.gamma, sample_step=1e-9)
    with pytest.raises(ValueError, match="MAX_SAMPLES"):
        solve_trajectory(baseline.i0, sched, baseline.gamma, sample_step=5e-324)
    with pytest.raises(ValueError, match="MAX_SAMPLES"):
        solve_trajectory(1.0, PhaseSchedule(((1.0, math.inf),)), 0.1)


def test_trajectory_leaving_the_float_range_is_rejected(baseline):
    sched = PhaseSchedule.open_close(baseline)  # the peak is 3.57 times i0
    with pytest.raises(ValueError, match="the active-case curve leaves the float range "
                                         "at i0=1e\\+308, gamma=0.0714"):
        solve_trajectory(1e308, sched, baseline.gamma)
    # math.exp itself overflows: 0.1/day of growth for 10,000 days
    with pytest.raises(ValueError, match="leaves the float range at i0=1.0, gamma=0.1, "
                                         "period=10000.0"):
        solve_trajectory(1.0, PhaseSchedule(((2.0, 1e4),)), 0.1, sample_step=1e4)
    # the close-first trough underflows to zero
    with pytest.raises(ValueError, match="leaves the float range at i0=5e-324"):
        solve_trajectory(5e-324, swap_cycle(sched), baseline.gamma)


def test_balanced_split_leaving_the_float_range_is_rejected():
    # alpha + beta overflows to inf, which would make t_open 0
    params = StrategyParams.from_growth_rates(1e308, 1e308, 100.0, 54.0, gamma=1e308)
    with pytest.raises(ValueError, match="the balanced split leaves the float range at "
                                         "alpha=1e\\+308, beta=1e\\+308, period=54.0"):
        phase_lengths(params)
    with pytest.raises(ValueError, match="the balanced split"):
        PhaseSchedule.open_close(params)


def test_phase_boundaries_are_the_sequential_closed_form_chain():
    phases = ((1.8, 7.5), (0.4, 11.0), (1.0, 3.25), (0.0, 2.0))
    gamma = 0.12
    traj = solve_trajectory(300.0, PhaseSchedule(phases), gamma)
    t, value, expected = 0.0, 300.0, [(0.0, 300.0)]
    for rt, duration in phases:
        t, value = t + duration, value * math.exp(gamma * (rt - 1.0) * duration)
        expected.append((t, value))
    assert traj.phase_boundaries == tuple(expected)
    assert traj.rates == tuple(gamma * (rt - 1.0) for rt, _ in phases)


@pytest.mark.parametrize("step", [1.0, 0.7])
def test_trajectory_samples_are_tuples_of_floats(baseline, step):
    traj = solve_trajectory(baseline.i0, PhaseSchedule.open_close(baseline), baseline.gamma,
                            sample_step=step)
    for samples in (traj.times, traj.active):
        assert type(samples) is tuple
        assert all(type(v) is float for v in samples)


def test_sample_on_a_phase_start_belongs_to_the_new_phase():
    # the third phase starts at 0.1 + 0.2, on the sample 3 * 0.1: that sample
    # is the exact edge value, while the second phase's arc rounds it otherwise
    traj = solve_trajectory(100.0, PhaseSchedule(((3.0, 0.1), (0.2, 0.2), (2.0, 0.5))), 5.0,
                            sample_step=0.1)
    (t_prev, prev), (t_edge, edge) = traj.phase_boundaries[1:3]
    assert traj.times[3] == t_edge
    assert traj.active[3] == edge
    assert prev * math.exp(traj.rates[1] * (t_edge - t_prev)) != edge


def test_trajectory_against_rk4():
    rng = np.random.default_rng(5)
    for _ in range(5):
        gamma = rng.uniform(0.05, 0.25)
        phases = [(rng.uniform(0.0, 3.5), rng.uniform(1.0, 25.0)) for _ in range(3)]
        i0 = rng.uniform(10.0, 1e4)
        sched = PhaseSchedule(tuple(phases))
        traj = solve_trajectory(i0, sched, gamma, sample_step=sched.period)
        edges, _ = oracles.rk4_phase_values(i0, phases, gamma, [[]] * 3)
        got = [v for _, v in traj.phase_boundaries]
        assert got == pytest.approx(edges, rel=1e-9)
