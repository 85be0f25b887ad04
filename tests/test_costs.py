import math

import numpy as np
import pytest

from lockcycle import (
    PhaseSchedule,
    StrategyParams,
    auc_numeric,
    cost_co,
    cost_const,
    cost_oc,
    cost_ratio,
    new_cases_over_window,
    solve_trajectory,
    swap_cycle,
)

import oracles

BASE = (0.0410, 0.0553, 21000.0, 54.0)


# --- closed forms ---------------------------------------------------------------

def test_cost_oc_baseline():
    report = cost_oc(*BASE)
    assert report.strategy_tag == "OC"
    assert report.auc_active == pytest.approx(2288527.9607147914, rel=1e-12)
    assert report.i_max == pytest.approx(74881.40649354774, rel=1e-12)
    assert report.i_max / report.i0 == pytest.approx(3.565781261597511, rel=1e-12)


def test_cost_co_baseline():
    report = cost_co(*BASE)
    assert report.strategy_tag == "CO"
    assert report.auc_active == pytest.approx(641802.677399652, rel=1e-12)
    assert report.i_max == 21000.0


def test_cost_const_is_exact():
    assert cost_const(21000.0, 54.0).auc_active == 1134000.0
    assert cost_const(1.0, 1.0).auc_active == 1.0
    assert cost_const(100.0, 0.5).auc_active == 50.0


def test_costs_match_dense_quadrature():
    alpha, beta, i0, period = BASE
    t_open = beta * period / (alpha + beta)
    t_close = period - t_open
    quad_oc = oracles.quad_exponential_arcs(i0, [(alpha, t_open), (-beta, t_close)])
    quad_co = oracles.quad_exponential_arcs(i0, [(-beta, t_close), (alpha, t_open)])
    assert cost_oc(*BASE).auc_active == pytest.approx(quad_oc, rel=1e-4)
    assert cost_co(*BASE).auc_active == pytest.approx(quad_co, rel=1e-4)
    # the dense grid is far better than the stated bound in practice
    assert cost_oc(*BASE).auc_active == pytest.approx(quad_oc, rel=1e-9)


def test_degenerate_limit_approaches_constant():
    # alpha -> 0 collapses both cycle orders onto the constant strategy
    oc = cost_oc(1e-8, 0.0553, 21000.0, 54.0)
    co = cost_co(1e-8, 0.0553, 21000.0, 54.0)
    const = cost_const(21000.0, 54.0)
    assert oc.auc_active == pytest.approx(const.auc_active, rel=1e-5)
    assert co.auc_active == pytest.approx(const.auc_active, rel=1e-5)


def test_preconditions():
    with pytest.raises(ValueError):
        cost_oc(0.0, 0.05, 100.0, 10.0)
    with pytest.raises(ValueError):
        cost_co(0.05, -0.1, 100.0, 10.0)
    with pytest.raises(ValueError):
        cost_oc(0.05, 0.05, 100.0, 0.0)
    with pytest.raises(ValueError):
        cost_const(0.0, 10.0)


@pytest.mark.parametrize("gamma, message", [
    (math.inf, "gamma must be a finite number"),
    (math.nan, "gamma must be a finite number"),
    (0.0, "gamma must be positive"),
    (-0.1, "gamma must be positive"),
])
def test_bad_gamma_is_rejected(gamma, message):
    with pytest.raises(ValueError, match=message):
        new_cases_over_window(([0.0, 1.0], [1.0, 1.0]), gamma)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_inputs_are_rejected(bad):
    for position, name in enumerate(("alpha", "beta", "i0", "period")):
        args = list(BASE)
        args[position] = bad
        for cost in (cost_oc, cost_co):
            with pytest.raises(ValueError, match="%s must be a finite number" % name):
                cost(*args)
    with pytest.raises(ValueError, match="i0 must be a finite number"):
        cost_const(bad, 10.0)
    with pytest.raises(ValueError, match="period must be a finite number"):
        cost_const(100.0, bad)


@pytest.mark.parametrize("cost, args, message", [
    # the exponent alpha*t_open is past math.exp's range
    (cost_oc, (0.041, 0.0553, 21000.0, 1e6),
     "the OC cost leaves the float range at alpha=0.041, beta=0.0553, i0=21000.0, "
     "period=1000000.0"),
    # the peak factor is finite, the area is not
    (cost_oc, (0.041, 0.0553, 1e306, 200.0), "the OC cost leaves the float range at .*i0=1e\\+306"),
    # the close-first area underflows to zero
    (cost_co, (0.041, 0.0553, 5e-324, 1e-3), "the CO cost leaves the float range at .*i0=5e-324"),
    (cost_const, (1e300, 1e10), "the CONST cost leaves the float range at i0=1e\\+300, "
                                "period=10000000000.0"),
])
def test_costs_leaving_the_float_range_are_rejected(cost, args, message):
    with pytest.raises(ValueError, match=message):
        cost(*args)


# --- ratio ----------------------------------------------------------------------

def test_cost_ratio_baseline():
    ratio = cost_ratio(cost_oc(*BASE), cost_co(*BASE))
    assert ratio == pytest.approx(3.565781261597511, rel=1e-12)
    assert abs(ratio - 3.571) <= 0.01


def test_cost_ratio_quadrupling():
    # alpha * t_open = ln 4 makes the ratio exactly four
    alpha = beta = 1.0
    period = 2.0 * math.log(4.0)
    ratio = cost_ratio(cost_oc(alpha, beta, 100.0, period),
                       cost_co(alpha, beta, 100.0, period))
    assert ratio == pytest.approx(4.0, rel=1e-12)


def test_cost_ratio_identity_randomized():
    rng = np.random.default_rng(23)
    for alpha, beta, i0, period in oracles.random_rate_sets(rng, 200):
        oc = cost_oc(alpha, beta, i0, period)
        co = cost_co(alpha, beta, i0, period)
        reference = math.exp(alpha * beta * period / (alpha + beta))
        assert abs(cost_ratio(oc, co) - reference) / reference <= 1e-12
        assert oc.i_max / i0 == pytest.approx(reference, rel=1e-12)


def test_ordering_randomized():
    rng = np.random.default_rng(29)
    for alpha, beta, i0, period in oracles.random_rate_sets(rng, 200):
        co = cost_co(alpha, beta, i0, period).auc_active
        oc = cost_oc(alpha, beta, i0, period).auc_active
        const = cost_const(i0, period).auc_active
        assert co < const < oc


def test_scale_equivariance():
    oc1, oc2 = cost_oc(*BASE), cost_oc(0.0410, 0.0553, 42000.0, 54.0)
    co1, co2 = cost_co(*BASE), cost_co(0.0410, 0.0553, 42000.0, 54.0)
    assert oc2.auc_active == 2.0 * oc1.auc_active
    assert co2.auc_active == 2.0 * co1.auc_active
    assert cost_ratio(oc2, co2) == cost_ratio(oc1, co1)


def test_cost_ratio_rejects_mismatched_reports():
    oc = cost_oc(*BASE)
    with pytest.raises(ValueError, match="different parameters"):
        cost_ratio(oc, cost_co(0.0410, 0.0553, 1000.0, 54.0))
    with pytest.raises(ValueError):
        cost_ratio(cost_co(*BASE), oc)  # wrong order


# --- numeric AUC -----------------------------------------------------------------

def test_auc_numeric_matches_closed_form(baseline):
    traj = solve_trajectory(baseline.i0, PhaseSchedule.open_close(baseline), baseline.gamma)
    assert auc_numeric(traj) == pytest.approx(cost_oc(*BASE).auc_active, rel=1e-10)
    co_traj = solve_trajectory(baseline.i0, swap_cycle(PhaseSchedule.open_close(baseline)),
                               baseline.gamma)
    assert auc_numeric(co_traj) == pytest.approx(cost_co(*BASE).auc_active, rel=1e-10)


def test_auc_numeric_constant_and_decay():
    flat = solve_trajectory(250.0, PhaseSchedule(((1.0, 8.0),)), 0.3)
    assert auc_numeric(flat) == pytest.approx(250.0 * 8.0, rel=1e-12)
    decay = solve_trajectory(100.0, PhaseSchedule(((0.0, 10.0),)), 0.1)
    assert auc_numeric(decay) == pytest.approx(632.1205588285576, rel=1e-12)


def test_auc_numeric_of_samples_is_the_trapezoid_rule():
    times = np.array([0.0, 1.0, 2.0, 3.0])
    values = np.array([1.0, 3.0, 5.0, 7.0])
    assert auc_numeric((times, values)) == pytest.approx(12.0, rel=1e-15)
    assert auc_numeric(([0.0, 2.0], [4.0, 6.0])) == 10.0
    with pytest.raises(ValueError, match="matching one-dimensional arrays"):
        auc_numeric((times, values[:3]))
    with pytest.raises(ValueError, match="matching one-dimensional arrays"):
        auc_numeric((times[None, :], values[None, :]))
    with pytest.raises(ValueError, match="matching one-dimensional arrays"):
        auc_numeric(([[0.0, 1.0]], [[1.0, 3.0]]))
    with pytest.raises(ValueError, match="at least two samples"):
        auc_numeric((times[:1], values[:1]))


# --- new-case identities -----------------------------------------------------------

def test_periodic_new_cases(baseline):
    traj = solve_trajectory(baseline.i0, PhaseSchedule.open_close(baseline), baseline.gamma)
    got = new_cases_over_window(traj, 0.1, periodic=True)
    assert got == pytest.approx(0.1 * cost_oc(*BASE).auc_active, rel=1e-10)


def test_pure_decay_has_no_new_cases():
    traj = solve_trajectory(1000.0, PhaseSchedule(((0.0, 30.0),)), 0.2)
    assert abs(new_cases_over_window(traj, 0.2)) <= 1e-9 * 1000.0


def test_impulse_mass_recovered():
    # 100 cases arriving on day 0 only; the window total must be their mass
    times, values, _, _ = oracles.balance_response(0.0, [100.0] + [0.0] * 39, 0.2)
    got = new_cases_over_window((times, values), 0.2)
    assert got == pytest.approx(100.0, rel=1e-9)


def test_balance_identity_randomized():
    rng = np.random.default_rng(31)
    for _ in range(5):
        gamma = rng.uniform(0.05, 0.3)
        days = int(rng.integers(45, 90))
        daily = rng.uniform(0.0, 50.0, days)
        i0 = rng.uniform(0.0, 400.0)
        # 4096 points per day keeps the trapezoid error of the check an order
        # of magnitude under the 1e-9 bound even at gamma = 0.3
        times, values, _, _ = oracles.balance_response(i0, daily, gamma, substeps=4096)
        got = new_cases_over_window((times, values), gamma)
        assert got == pytest.approx(math.fsum(daily), rel=1e-9)


def test_new_cases_rejects_bad_gamma(baseline):
    traj = solve_trajectory(baseline.i0, PhaseSchedule.open_close(baseline), baseline.gamma)
    with pytest.raises(ValueError):
        new_cases_over_window(traj, 0.0)
