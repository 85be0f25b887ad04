import datetime as dt
import math
import os

import numpy as np
import pytest

import lockcycle.series as ser
from lockcycle.cfr import CfrModel, fit as fit_cfr, predict_deaths
from lockcycle.cfr import (_BY_BEST, _GRID, _MAPS, _SPAN, _TOP, _U, _WINDOW, _fit_decays,
                           _grid_profiles, _lower_powers, _cvs, _moving_average,
                           _newton_start, _one_pole, _pole, _profile_slopes)
from lockcycle.series import FIT_FROM, FIT_TO, DailySeries

import oracles

START = dt.date(2020, 4, 1)


def make_cases(values):
    return DailySeries(START, np.asarray(values, dtype=float), "new_cases")


def make_deaths(values):
    return DailySeries(START, np.asarray(values, dtype=float), "daily_deaths")


def smooth_case_curve(days, rng=None):
    # two overlapping waves, strictly positive, no noise
    t = np.arange(days, dtype=float)
    curve = 400.0 * np.exp(-0.5 * ((t - 35.0) / 12.0) ** 2)
    curve += 900.0 * np.exp(-0.5 * ((t - 80.0) / 16.0) ** 2) + 25.0
    if rng is not None:
        curve *= np.exp(rng.normal(0.0, 0.05, days))
    return curve


def rows_ahead(deaths, ks):
    # row r: the deaths ks[r] days after each state day, and which days have one
    t = len(deaths)
    ahead, mask = np.zeros((len(ks), t)), np.zeros((len(ks), t))
    for r, k in enumerate(ks):
        ahead[r, :t - k] = deaths[k:]
        mask[r, :t - k] = 1.0
    return ahead, mask


def israel_series(data_dir):
    # daily cases and deaths over the fit window
    confirmed, deaths = (ser.parse_jhu_timeseries(os.path.join(data_dir, ser.JHU_FILENAMES[kind]),
                                                  "Israel", kind)
                         for kind in ("confirmed_cumulative", "deaths_cumulative"))
    return [ser.window(ser.difference(c), FIT_FROM, FIT_TO) for c in (confirmed, deaths)]


def israel_window(data_dir):
    # the fit's default inputs: the fit window, smoothed over 7 days
    windows = israel_series(data_dir)
    assert len({(s.start_date, len(s)) for s in windows}) == 1  # already aligned
    return [_moving_average(s.values, 7) for s in windows]


# --- model type ----------------------------------------------------------------

def test_cfr_from_params_value():
    assert CfrModel(0, 0.943, 0.000485).cfr == pytest.approx(0.008508771929824554, rel=1e-12)
    assert CfrModel(0, 0.0, 0.01).cfr == 0.01
    with pytest.raises(ValueError):
        CfrModel(0, 1.0, 0.01)
    with pytest.raises(ValueError):
        CfrModel(0, -0.1, 0.01)
    with pytest.raises(ValueError):
        CfrModel(0, 0.5, -0.01)


def test_model_validation():
    with pytest.raises(ValueError):
        CfrModel(-1, 0.5, 0.01)
    with pytest.raises(ValueError):
        CfrModel(2, 1.0, 0.01)
    with pytest.raises(ValueError):
        CfrModel(2, 0.5, -0.01)
    m = CfrModel(2, 0.5, 0.01)
    assert m.cfr == pytest.approx(0.02, rel=1e-12)


@pytest.mark.parametrize("args, figures, message", [
    ((math.nan, 0.5, 0.01), {}, "delay_k must be a non-negative integer"),
    ((math.inf, 0.5, 0.01), {}, "delay_k must be a non-negative integer"),
    ((2, math.nan, 0.01), {}, "decay_a must lie in [0, 1)"),
    ((2, 0.5, math.nan), {}, "scale_b must be a finite number, got nan"),
    ((2, 0.5, math.inf), {}, "scale_b must be a finite number, got inf"),
    ((2, 0.5, 0.01), {"sse": math.inf}, "sse must be a finite number, got inf"),
    ((2, 0.5, 0.01), {"cv_a": math.nan}, "cv_a must be a finite number, got nan"),
    ((2, 0.5, 0.01), {"cv_b": -math.inf}, "cv_b must be a finite number, got -inf"),
])
def test_model_rejects_nan_and_infinite_figures(args, figures, message):
    with pytest.raises(ValueError) as exc:
        CfrModel(*args, **figures)
    assert str(exc.value).startswith(message)


def test_kernel_weights_shape_and_mass():
    m = CfrModel(3, 0.9, 0.004)
    w = oracles.kernel_weights(m.delay_k, m.decay_a, m.scale_b, 200)
    assert np.all(w[:3] == 0.0)
    assert w[3] == 0.004
    partial = 0.004 * (1.0 - 0.9 ** 197) / 0.1
    assert math.fsum(w) == pytest.approx(partial, rel=1e-12)
    assert math.fsum(w) == pytest.approx(m.cfr, rel=1e-8)


# --- prediction ------------------------------------------------------------------

def test_predict_matches_direct_convolution():
    rng = np.random.default_rng(13)
    cases = rng.uniform(0.0, 300.0, 60)
    model = CfrModel(4, 0.91, 0.004)
    got = predict_deaths(model, make_cases(cases))
    expected = oracles.convolve_direct(cases, 4, 0.91, 0.004)
    assert got.kind == "daily_deaths"
    assert got.start_date == START
    np.testing.assert_allclose(got.values, expected, rtol=1e-10, atol=1e-12)


def test_predict_zero_delay_includes_today():
    got = predict_deaths(CfrModel(0, 0.5, 0.1), make_cases([10.0, 0.0, 0.0]))
    np.testing.assert_allclose(got.values, [1.0, 0.5, 0.25], rtol=1e-12)


def test_predict_short_series_is_empty():
    got = predict_deaths(CfrModel(5, 0.9, 0.01), make_cases([1.0, 2.0]))
    assert len(got) == 0
    assert got.kind == "daily_deaths"


def test_predict_past_the_float_range_names_the_day():
    # each count is finite, the kernel's running sum is not; pytest turns a
    # numpy warning into an error, so none is raised either
    cases = DailySeries(dt.date(2020, 1, 1), [1e308] * 40, "new_cases")
    with pytest.raises(ValueError, match="^daily_deaths has the non-finite value inf on 2020-01-04"):
        predict_deaths(CfrModel(0, 0.5, 0.9), cases)


# --- filter ---------------------------------------------------------------------

def one_pole(x, a):
    # one filter pass with its own power tables
    return _one_pole(x, _pole(a, np.shape(x)[-1]))


DECAYS = [0.0, 0.5, 0.943, 0.999999]


@pytest.mark.parametrize("days", [1, 20, 101])
def test_one_pole_matches_direct_convolution(days):
    # one day, less than a block, and a length that is not a whole number
    # of blocks
    rng = np.random.default_rng(days)
    cases = rng.uniform(0.0, 300.0, days)
    rows = rng.uniform(0.0, 300.0, (len(DECAYS), days))
    shared = one_pole(cases, DECAYS)
    batched = one_pole(rows, DECAYS)
    assert shared.shape == batched.shape == (len(DECAYS), days)
    for i, a in enumerate(DECAYS):
        expected = oracles.convolve_direct(cases, 0, a, 1.0)
        np.testing.assert_allclose(one_pole(cases, a), expected, rtol=1e-13)
        np.testing.assert_allclose(shared[i], expected, rtol=1e-13)
        np.testing.assert_allclose(batched[i], oracles.convolve_direct(rows[i], 0, a, 1.0),
                                   rtol=1e-13)


@pytest.mark.parametrize("delay", [0, 1, 9])
def test_delayed_one_pole_is_the_delayed_kernel(delay):
    # a scalar decay, decays on shared 1-D cases, and a batch of 2-D rows;
    # 101 days is not a whole number of blocks
    rng = np.random.default_rng(delay)
    cases = rng.uniform(0.0, 300.0, 101)
    rows = rng.uniform(0.0, 300.0, (len(DECAYS), 101))
    b = 0.004
    pole = _pole(DECAYS, 101)
    shared = b * _one_pole(cases, pole, delay)
    batched = b * _one_pole(rows, pole, delay)
    for i, a in enumerate(DECAYS):
        expected = oracles.convolve_direct(cases, delay, a, b)
        np.testing.assert_allclose(b * _one_pole(cases, _pole(a, 101), delay), expected,
                                   rtol=1e-13)
        np.testing.assert_allclose(shared[i], expected, rtol=1e-13)
        np.testing.assert_allclose(batched[i], oracles.convolve_direct(rows[i], delay, a, b),
                                   rtol=1e-13)


@pytest.mark.parametrize("decays, size", [(0.943, 32), (DECAYS, 32), (DECAYS, 1),
                                          ([[0.5, 0.0], [0.999999, 0.9]], 7)])
def test_lower_powers_are_the_masked_powers(decays, size):
    a = np.asarray(decays, dtype=float)
    powers = _lower_powers(a[..., None] ** np.arange(size))
    lag = np.arange(size) - np.arange(size)[:, None]  # i - j at [j, i]
    with np.errstate(divide="ignore"):  # 0**negative, masked out
        expected = np.where(lag >= 0, a[..., None, None] ** lag, 0.0)
    assert powers.shape == a.shape + (size, size)
    np.testing.assert_array_equal(powers, expected)
    assert not powers.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        powers[..., 0, 0] = 1.0


def test_one_pole_decay_derivative_matches_central_difference():
    rng = np.random.default_rng(5)
    cases = rng.uniform(0.0, 300.0, 101)
    h = 1e-6
    for a in DECAYS:
        ds_da = _one_pole(one_pole(cases, a), _pole(a, len(cases)), 1)
        central = (one_pole(cases, a + h) - one_pole(cases, a - h)) / (2.0 * h)
        np.testing.assert_allclose(ds_da, central, rtol=1e-6)


def test_profile_slopes_match_central_differences():
    rng = np.random.default_rng(9)
    cases = smooth_case_curve(150, rng)
    deaths = oracles.convolve_direct(cases, 0, 0.9, 0.003) * np.exp(rng.normal(0.0, 0.1, 150))
    ahead, mask = deaths[None, :], np.ones((1, 150))

    def profile(a):
        s = one_pole(cases, a)
        return float(deaths @ deaths - (deaths @ s) ** 2 / (s @ s))

    h = 1e-5
    for a in (0.3, 0.85, 0.95):
        slope, curvature = _profile_slopes(cases, ahead, mask, np.array([a]))
        assert slope[0] == pytest.approx((profile(a + h) - profile(a - h)) / (2.0 * h), rel=1e-5)
        second = (profile(a + h) - 2.0 * profile(a) + profile(a - h)) / h ** 2
        assert curvature[0] == pytest.approx(second, rel=1e-3)


@pytest.mark.parametrize("days", [20, 101])
def test_profile_slopes_take_an_empty_batch(days):
    cases = np.random.default_rng(days).uniform(0.0, 300.0, days)
    ahead, mask = rows_ahead(cases, [0, 3])
    slope, curvature = _profile_slopes(cases, ahead[:0], mask[:0], np.zeros(0))
    assert slope.shape == curvature.shape == (0,)


@pytest.mark.parametrize("days, sign", [(150, 1.0), (700, 1.0), (150, -1.0)])
def test_grid_profiles_are_the_explained_squares(days, sign):
    # every grid decay and delay against (d.s)^2/(s.s) on explicit slices;
    # negated deaths leave no b > 0 and every entry 0
    rng = np.random.default_rng(days)
    cases = smooth_case_curve(days, rng)
    noise = np.exp(rng.normal(0.0, 0.1, days))
    deaths = sign * oracles.convolve_direct(cases, 3, 0.9, 0.003) * noise
    ks = np.array([0, 1, 3, 8, 30])
    e = _grid_profiles(cases, *rows_ahead(deaths, ks))
    expected = np.zeros((len(_GRID), len(ks)))
    for i, a in enumerate(_GRID):
        s = one_pole(cases, a)
        for c, k in enumerate(ks):
            p, q = deaths[k:] @ s[:days - k], s[:days - k] @ s[:days - k]
            expected[i, c] = p * p / q if p > 0.0 else 0.0
    np.testing.assert_allclose(e, expected, rtol=1e-12, atol=0.0)
    assert (e > 0.0).all() if sign > 0 else (e == 0.0).all()


@pytest.mark.parametrize("decay, k, edge", [(0.012, 4, 0), (0.99, 2, len(_GRID) - 1)])
def test_minimum_in_an_edge_grid_cell_is_the_profile_optimum(decay, k, edge):
    # noisy data; such a minimum lies in the two grid cells at a search edge,
    # 0 or _TOP, whose explained square the start's polynomial leaves out
    rng = np.random.default_rng(0)
    cases = smooth_case_curve(150, rng)
    deaths = oracles.convolve_direct(cases, k, decay, 0.003) * np.exp(rng.normal(0.0, 0.05, 150))
    ks = np.arange(0, 9)
    best = np.argmax(_grid_profiles(cases, *rows_ahead(deaths, ks)), axis=0)
    a, b, _ = _fit_decays(cases, deaths, ks)[:3]
    beside = 1 if edge == 0 else edge - 1
    lo, hi = (0.0, _GRID[2]) if edge == 0 else (_GRID[-3], _TOP)
    # every delay whose best grid point is the edge or the decay next to it,
    # and whose minimum lies off the edge itself
    inside = np.flatnonzero(np.isin(best, (edge, beside)) & (a > 0.0) & (a < _TOP))
    assert (k in ks[inside]) and (edge == 0 or inside.size == len(ks))
    for r in inside:
        a_ref, b_ref = oracles.profile_optimum(list(cases), list(deaths), int(ks[r]), lo, hi)
        assert abs(a[r] - a_ref) <= 1e-9
        assert b[r] == pytest.approx(b_ref, rel=1e-6)


def edge_case_data(where):
    # noisy deaths whose profile minimum for delay 3 lies between a search
    # edge and the grid decay next to it: on the edge itself, or inside
    rng = np.random.default_rng(2)
    cases = smooth_case_curve(150, rng)
    if where == "zero":
        # a negative second kernel tap: the best decay would be negative
        clean = (oracles.convolve_direct(cases, 3, 0.0, 0.003)
                 - oracles.convolve_direct(cases, 4, 0.0, 0.001))
    else:
        # "top" grows: the best decay would be past 1
        decay = {"top": 1.01, "inside top": 0.996, "inside zero": 0.005}[where]
        clean = oracles.convolve_direct(cases, 3, decay, 0.003)
    sd = 0.002 if where == "inside zero" else 0.05
    return cases, clean * np.exp(rng.normal(0.0, sd, 150))


@pytest.mark.parametrize("where", ["zero", "top", "inside zero", "inside top"])
def test_edge_half_cell_minimum(where):
    cases, deaths = edge_case_data(where)
    k = 3
    ks = np.array([k])
    best = np.argmax(_grid_profiles(cases, *rows_ahead(deaths, ks)), axis=0)
    # the best grid point is the edge or the decay next to it
    edge, beside = (0, 1) if where.endswith("zero") else (len(_GRID) - 1, len(_GRID) - 2)
    assert best[0] in (edge, beside)
    (a,), (b,), (sse,) = _fit_decays(cases, deaths, ks)[:3]
    if where.startswith("inside"):
        lo, hi = sorted(_GRID[[edge, beside]])
        a_ref, b_ref = oracles.profile_optimum(list(cases), list(deaths), k, lo, hi)
        assert abs(a - a_ref) <= 1e-12
        assert b == pytest.approx(b_ref, rel=1e-9)
    else:
        # the edge's own slope points out of the search interval
        assert a == _GRID[edge]
        outward = oracles.profile_slope(list(cases), list(deaths), k, _GRID[edge])
        assert outward > 0.0 if edge == 0 else outward < 0.0
    assert sse == pytest.approx(oracles.profile_sse(cases, deaths, k, a), rel=1e-9)
    # the two grid decays next to the edge
    for neighbour in _GRID[[1, 2]] if edge == 0 else _GRID[[-2, -3]]:
        assert sse < oracles.profile_sse(cases, deaths, k, neighbour)


def noisy_case(seed):
    # cases and deaths of a seeded noisy series: a random length, kernel and
    # lognormal noise sd
    rng = np.random.default_rng(seed)
    days = int(rng.integers(120, 400))
    cases = smooth_case_curve(days, rng)
    k, decay = int(rng.integers(0, 16)), float(rng.uniform(0.0, 0.99))
    sd = rng.choice([0.1, 0.4, 1.0])
    deaths = oracles.convolve_direct(cases, k, decay, 0.003) * np.exp(rng.normal(0.0, sd, days))
    return cases, deaths


@pytest.mark.parametrize("source", ["two waves", (101, 99), (0, 18), (1, 18), (2, 18)], ids=str)
def test_each_delay_ends_at_its_global_minimum(source):
    # a profile with an inner local minimum can lie lower still on a search
    # edge: at a = 0 for (101, 99)'s delay 13, at _TOP for the two waves'
    # delays 28 to 30
    if source == "two waves":
        t = np.arange(230.0)
        cases = (2000.0 * np.exp(-0.5 * ((t - 40.0) / 10.0) ** 2)
                 + 4000.0 * np.exp(-0.5 * ((t - 210.0) / 10.0) ** 2))
        cases[cases < 0.5] = 0.0
        deaths = oracles.convolve_direct(cases, 2, 0.8, 0.004)
        ks = np.arange(0, 31)
    else:
        cases, deaths = noisy_case(source)
        ks = np.arange(0, 16)
    _, _, sse = _fit_decays(cases, deaths, ks)[:3]
    for r, k in enumerate(ks):
        for edge in (0.0, _TOP):
            assert sse[r] <= oracles.profile_sse(list(cases), deaths, int(k), edge) * (1 + 1e-9), (
                "delay %d, edge %r" % (k, edge))
    if source == "two waves":
        assert ks[np.argmin(sse)] == 2


def test_start_maps_give_the_derivatives_of_the_polynomial_through_the_window():
    # a degree-8 polynomial in u sampled at each window's nodes, against its
    # first and second derivatives in the window's z = (u - centre) / half
    q = np.polynomial.Polynomial([0.3, -1.2, 0.8, 0.5, -0.7, 0.25, -0.04, 0.003, -1e-4])
    for j in range(len(_GRID)):
        window = _WINDOW[j]
        assert 1 <= window[0] and window[-1] <= len(_GRID) - 2
        np.testing.assert_array_equal(np.diff(window), 1)
        assert j in window or j in (0, len(_GRID) - 1)
        centre, half = _BY_BEST[6:, j]
        in_z = q(np.polynomial.Polynomial([centre, half]))
        coef = (_MAPS[j] @ q(_U[window])).reshape(2, _SPAN - 1)
        for got, derivative in zip(coef, (in_z.deriv(1), in_z.deriv(2))):
            expected = np.zeros(_SPAN - 1)
            expected[:len(derivative.coef)] = derivative.coef
            # a window narrow in u makes the high-order coefficients tiny, so
            # each is held to 1e-9 of the largest
            np.testing.assert_allclose(got, expected, rtol=1e-9,
                                       atol=1e-9 * np.abs(expected).max(), err_msg="j %d" % j)


def test_newton_start_is_near_the_profile_optimum():
    # every delay of noisy_case seeds 0-39 whose best grid decay is interior,
    # against the bisection oracle in its grid bracket; a parabola in a
    # through the best grid decay and its neighbours starts a median 1.4e-3
    # away
    gaps = []
    ks = np.arange(16)
    for seed in range(40):
        cases, deaths = noisy_case(seed)
        e = _grid_profiles(cases, *rows_ahead(deaths, ks))
        a, lo, hi = _newton_start(e)
        best = np.argmax(e, axis=0)
        for r in np.flatnonzero((best > 0) & (best < len(_GRID) - 1)):
            a_ref, _ = oracles.profile_optimum(list(cases), list(deaths), int(ks[r]), lo[r], hi[r])
            gaps.append(abs(a[r] - a_ref))
    assert len(gaps) >= 400
    assert np.median(gaps) <= 1e-7
    assert np.percentile(gaps, 90) <= 1e-5


@pytest.mark.parametrize("profile", ["flat window", "zero curvature", "peak beside zero",
                                     "peak beside top"])
def test_newton_start_is_finite_inside_its_bracket(profile):
    # one column of explained squares whose best grid decay is interior
    if profile == "flat window":
        e = np.zeros(len(_GRID))
        e[1:1 + _SPAN] = 1.0  # best at j = 1, argmax taking the first
    elif profile == "zero curvature":
        e = np.zeros(len(_GRID))
        e[-1 - _SPAN:-1] = _U[-1 - _SPAN:-1]  # linear in u up to j = 50
    else:
        peak = 0.007 if profile == "peak beside zero" else 0.993
        e = np.maximum(100.0 - (_U + np.log1p(-peak)) ** 2, 0.0)
    j = int(np.argmax(e))
    assert j == (1 if profile in ("flat window", "peak beside zero") else len(_GRID) - 2)
    (a,), (lo,), (hi,) = _newton_start(e[:, None])
    assert (lo, hi) == (_GRID[j - 1], _GRID[j + 1])
    assert np.isfinite(a) and lo <= a <= hi
    if profile.startswith("peak"):
        # e is a parabola in u, which the polynomial reproduces
        assert a == pytest.approx(peak, abs=1e-9)


@pytest.fixture
def slope_calls(monkeypatch):
    # the batch size of every profile-slope evaluation _fit_decays makes
    calls = []

    def counted(cases, ahead, mask, a):
        calls.append(len(a))
        return _profile_slopes(cases, ahead, mask, a)

    monkeypatch.setattr("lockcycle.cfr._profile_slopes", counted)
    return calls


@pytest.mark.parametrize("k_max", [15, 30])
def test_israel_fit_takes_two_evaluations(k_max, data_dir, slope_calls):
    cases, deaths = israel_window(data_dir)
    a, _, _ = _fit_decays(cases, deaths, np.arange(0, k_max + 1))[:3]
    assert a[3] == pytest.approx(0.9393724244736548, rel=1e-12)
    assert len(slope_calls) <= 2


@pytest.mark.parametrize("seed", range(6))
def test_noisy_fit_ends_without_a_run_of_one_row_calls(seed, slope_calls):
    rng = np.random.default_rng(seed)
    cases = smooth_case_curve(150, rng)
    k, decay = seed, 0.5 + 0.08 * seed
    deaths = oracles.convolve_direct(cases, k, decay, 0.003) * np.exp(rng.normal(0.0, 0.1, 150))
    ks = np.arange(0, 11)
    a, _, _ = _fit_decays(cases, deaths, ks)[:3]
    ones = len(slope_calls) - len(np.trim_zeros(np.array(slope_calls) != 1, "b"))
    assert ones <= 2, slope_calls
    for r in np.flatnonzero((a > 0.0) & (a < _TOP)):
        lo, hi = max(0.0, a[r] - 0.02), min(_TOP, a[r] + 0.02)
        a_ref, _ = oracles.profile_optimum(list(cases), list(deaths), int(ks[r]), lo, hi)
        assert abs(a[r] - a_ref) <= 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_newton_stops_at_the_profile_optimum_on_flat_profiles(seed, slope_calls):
    # heavy noise on short series flattens the profiles that the early stop
    # on a short Newton step runs on
    rng = np.random.default_rng([seed, 14])
    days = int(rng.integers(120, 201))
    cases = smooth_case_curve(days, rng)
    k, decay = int(rng.integers(0, 16)), float(rng.uniform(0.3, 0.95))
    deaths = oracles.convolve_direct(cases, k, decay, 0.003) * np.exp(rng.normal(0.0, 0.4, days))
    ks = np.arange(0, 16)
    a, _, _ = _fit_decays(cases, deaths, ks)[:3]
    assert len(slope_calls) <= 2, slope_calls
    interior = np.flatnonzero((a > 0.0) & (a < _TOP))
    assert interior.size >= 8
    for r in interior:
        # a bracket this narrow still fails unless the slope changes sign
        # inside it, that is unless a[r] is within 1e-6 of a minimum
        a_ref, _ = oracles.profile_optimum(list(cases), list(deaths), int(ks[r]),
                                           a[r] - 1e-6, a[r] + 1e-6)
        assert abs(a[r] - a_ref) <= 1e-12


@pytest.mark.parametrize("source, k_max", [("israel", 15), ("israel", 30),
                                           ("israel unsmoothed", 30), (0, 15), (1, 15), (2, 15)])
def test_each_delay_fits_as_if_searched_alone(source, k_max, data_dir):
    # the grid's matrix product rounds differently for one delay than for
    # many; a delay's (a, b, sse) must not depend on the others searched
    if source == "israel":
        cases, deaths = israel_window(data_dir)
    elif source == "israel unsmoothed":
        cases, deaths = (np.asarray(s.values) for s in israel_series(data_dir))
    else:
        rng = np.random.default_rng([source, 17])
        days = int(rng.integers(120, 400))
        cases = smooth_case_curve(days, rng)
        k, decay = int(rng.integers(0, 16)), float(rng.uniform(0.3, 0.95))
        deaths = (oracles.convolve_direct(cases, k, decay, 0.003)
                  * np.exp(rng.normal(0.0, 0.4, days)))
    ks = np.arange(0, k_max + 1)
    searched = np.array(_fit_decays(cases, deaths, ks)[:3])
    for r in range(len(ks)):
        alone = np.array(_fit_decays(cases, deaths, ks[r:r + 1])[:3])[:, 0]
        np.testing.assert_array_equal(alone, searched[:, r], err_msg="delay %d" % ks[r])


# --- fitting ---------------------------------------------------------------------

def test_fit_recovers_exact_kernel():
    cases = smooth_case_curve(120)
    # a = 0 is a pure delay, whose optimum sits on the lower edge of the
    # decay search; a = 0.995 lies in the top grid cell
    for k, a, b in ((4, 0.91, 0.004), (4, 0.0, 0.004), (2, 0.995, 0.0004)):
        deaths = oracles.convolve_direct(cases, k, a, b)
        model = fit_cfr(make_cases(cases), make_deaths(deaths), k_range=(0, 10),
                        smooth_window=1)
        assert model.delay_k == k
        assert abs(model.decay_a - a) <= 1e-6
        assert abs(model.scale_b - b) <= 1e-6
        assert abs(model.cfr - b / (1.0 - a)) <= 1e-10
        assert model.sse <= 1e-12
        if a == 0.0:
            assert model.decay_a <= 1e-12
            # no percent CV for a decay that is exactly zero
            assert model.cv_a is None


def test_fit_is_smoothing_invariant_on_kernel_data():
    # averaging commutes with the kernel, so smoothing both sides leaves the
    # optimum in place up to the moving-average startup transient; a curve
    # that starts near zero keeps that transient negligible
    t = np.arange(130, dtype=float)
    cases = 700.0 * np.exp(-0.5 * ((t - 60.0) / 14.0) ** 2)
    deaths = oracles.convolve_direct(cases, 3, 0.88, 0.002)
    plain = fit_cfr(make_cases(cases), make_deaths(deaths), k_range=(0, 8), smooth_window=1)
    smoothed = fit_cfr(make_cases(cases), make_deaths(deaths), k_range=(0, 8), smooth_window=7)
    assert plain.delay_k == smoothed.delay_k == 3
    assert smoothed.decay_a == pytest.approx(plain.decay_a, abs=1e-4)
    assert smoothed.scale_b == pytest.approx(plain.scale_b, rel=1e-3)


def test_fit_reports_residual_and_prediction():
    rng = np.random.default_rng(17)
    cases = smooth_case_curve(150, rng)
    deaths = oracles.convolve_direct(cases, 5, 0.9, 0.003)
    deaths *= np.exp(rng.normal(0.0, 0.1, len(deaths)))
    model = fit_cfr(make_cases(cases), make_deaths(deaths), k_range=(0, 12), smooth_window=7)
    fitted = model.fitted_deaths
    assert fitted.kind == "daily_deaths"
    # residual bookkeeping is consistent with the returned prediction; the
    # smoothed deaths start 6 days after the raw ones
    deaths_s = _moving_average(deaths, 7)
    aligned = deaths_s[(fitted.start_date - START).days - 6:]
    sse = float(np.sum((np.asarray(fitted.values) - aligned[:len(fitted)]) ** 2))
    assert sse == pytest.approx(model.sse, rel=1e-9)


@pytest.mark.parametrize("source", ["israel", "noisy"])
def test_fitted_deaths_are_the_prediction_on_the_fitted_cases(source, data_dir):
    # fit takes its fitted deaths from the search's batched final pass; they
    # must be what the single-decay filter makes of the smoothed cases
    if source == "israel":
        cases, deaths = israel_series(data_dir)
    else:
        rng = np.random.default_rng(23)
        curve = smooth_case_curve(150, rng)
        noise = np.exp(rng.normal(0.0, 0.1, 150))
        cases = make_cases(curve)
        deaths = make_deaths(oracles.convolve_direct(curve, 4, 0.85, 0.003) * noise)
    model = fit_cfr(cases, deaths)
    fitted = model.fitted_deaths
    # the smoothed cases start 6 days after the raw ones
    skip = (fitted.start_date - cases.start_date).days - 6
    smoothed = _moving_average(cases.values, 7)[skip:skip + len(fitted)]
    predicted = predict_deaths(model, DailySeries(fitted.start_date, smoothed, "new_cases"))
    assert fitted.values == pytest.approx(predicted.values, rel=1e-12, abs=0.0)


def test_fit_input_validation():
    cases = make_cases(np.ones(100))
    deaths = make_deaths(np.ones(100))
    with pytest.raises(ValueError, match="new_cases"):
        fit_cfr(make_deaths(np.ones(100)), deaths)
    with pytest.raises(ValueError, match="daily_deaths"):
        fit_cfr(cases, make_cases(np.ones(100)))
    with pytest.raises(ValueError, match="k_range"):
        fit_cfr(cases, deaths, k_range=(5, 3))
    with pytest.raises(ValueError, match="k_range"):
        fit_cfr(cases, deaths, k_range=(-1, 3))
    with pytest.raises(ValueError, match="60"):
        fit_cfr(make_cases(np.ones(40)), make_deaths(np.ones(40)))
    with pytest.raises(ValueError, match="reaches past"):
        fit_cfr(make_cases(np.ones(70)), make_deaths(np.ones(70)), k_range=(0, 70))
    with pytest.raises(ValueError, match="zero"):
        fit_cfr(make_cases(np.zeros(80)), make_deaths(np.ones(80)))


def test_moving_average_is_trailing_and_drops_the_warmup():
    assert _moving_average((1.0, 2.0, 3.0, 4.0, 5.0), 3).tolist() == [2.0, 3.0, 4.0]


def test_moving_average_of_width_one_keeps_the_values():
    smoothed = _moving_average((1.0, 2.5, -3.0), 1)
    assert isinstance(smoothed, np.ndarray)
    assert smoothed.tolist() == [1.0, 2.5, -3.0]


def test_fit_aligns_series_of_different_date_ranges():
    # deaths run from day 10 to day 159, cases from day 0 to day 149; after a
    # 7-day trailing mean the common dates are days 16..149
    cases = smooth_case_curve(160)
    deaths = oracles.convolve_direct(cases, 3, 0.9, 0.004)
    model = fit_cfr(make_cases(cases[:150]),
                    DailySeries(START + dt.timedelta(days=10), deaths[10:], "daily_deaths"),
                    k_range=(0, 8), smooth_window=7)
    assert model.fitted_deaths.start_date == START + dt.timedelta(days=16)
    assert len(model.fitted_deaths) == 134
    smoothed = np.convolve(deaths, np.ones(7) / 7.0, "valid")[10:144]
    resid = np.asarray(model.fitted_deaths.values) - smoothed
    assert model.sse == pytest.approx(float(resid @ resid), rel=1e-9)
    assert model.delay_k == 3


@pytest.mark.parametrize("window", [0, -3, 101])
def test_fit_names_a_bad_smooth_window(window):
    cases, deaths = make_cases(np.ones(100)), make_deaths(np.ones(100))
    with pytest.raises(ValueError, match="smooth_window must be at least 1 and at most the "
                                         "100 days of the shorter series, got %d" % window):
        fit_cfr(cases, deaths, smooth_window=window)


def test_every_searched_delay_leaves_sixty_fitted_points():
    cases = make_cases(smooth_case_curve(130))
    deaths = make_deaths(oracles.convolve_direct(smooth_case_curve(130), 3, 0.9, 0.004))
    # smoothing over 7 days leaves 124 aligned points, so 64 is the largest delay
    assert fit_cfr(cases, deaths, k_range=(0, 64)).delay_k == 3
    with pytest.raises(ValueError, match="k_range upper end 65 reaches past the 124 points "
                                         "aligned after a smooth_window of 7 days: every "
                                         "delay must leave at least 60 fitted points"):
        fit_cfr(cases, deaths, k_range=(60, 65))


def test_fit_that_no_grid_decay_fits_keeps_the_zero_edge():
    # negative deaths: no scale b > 0 fits any decay, so every delay keeps
    # a = 0 with b = 0, and the smallest delay wins the tie
    cases = smooth_case_curve(120)
    deaths = -oracles.convolve_direct(cases, 3, 0.5, 0.003)
    model = fit_cfr(make_cases(cases), make_deaths(deaths), k_range=(2, 6), smooth_window=1)
    assert (model.delay_k, model.decay_a, model.scale_b) == (2, 0.0, 0.0)
    assert model.sse == pytest.approx(math.fsum(deaths * deaths), rel=1e-12)
    assert model.sse == pytest.approx(1083.638897, rel=1e-9)
    assert model.cv_a is None and model.cv_b is None


def test_fit_with_no_deaths_returns_zero_scale():
    cases = make_cases(smooth_case_curve(90))
    for window in (7, 1):
        model = fit_cfr(cases, make_deaths(np.zeros(90)), k_range=(2, 6), smooth_window=window)
        assert model.scale_b == 0.0
        assert model.decay_a == 0.0
        assert model.sse == 0.0
        assert model.delay_k == 2
        assert model.cfr == 0.0
        assert model.cv_a is None and model.cv_b is None
        assert len(model.fitted_deaths) == 90 - (window - 1)
        assert all(v == 0.0 for v in model.fitted_deaths.values)


def test_fit_requires_overlap():
    cases = make_cases(np.ones(80))
    deaths = DailySeries(START + dt.timedelta(days=300), np.ones(80), "daily_deaths")
    with pytest.raises(ValueError, match="overlap"):
        fit_cfr(cases, deaths)


# --- uncertainty ------------------------------------------------------------------

def test_cvs_scale_with_noise():
    rng = np.random.default_rng(41)
    cases = smooth_case_curve(180)
    clean = oracles.convolve_direct(cases, 3, 0.9, 0.004)
    lo, hi = [], []
    for sd, out in ((0.05, lo), (0.20, hi)):
        noisy = clean * np.exp(rng.normal(0.0, sd, len(clean)))
        m = fit_cfr(make_cases(cases), make_deaths(noisy), k_range=(3, 3), smooth_window=1)
        out.extend([m.cv_a, m.cv_b])
    assert all(v is not None and v > 0.0 for v in lo + hi)
    assert lo[0] < hi[0] and lo[1] < hi[1]


def test_cvs_near_zero_on_noiseless_data():
    cases = smooth_case_curve(120)
    deaths = oracles.convolve_direct(cases, 4, 0.91, 0.004)
    model = fit_cfr(make_cases(cases), make_deaths(deaths), k_range=(4, 4), smooth_window=1)
    assert model.cv_a < 1e-4
    assert model.cv_b < 1e-4


def test_cvs_degenerate_inputs():
    def cvs(cases, deaths, a, b):
        # at delay 0, from the state and its a-derivative, as fit builds them
        pole = _pole(a, len(cases))
        s = _one_pole(cases, pole)
        resid = deaths - b * s
        return _cvs(s, _one_pole(s, pole, 1), float(resid @ resid), a, b)

    assert cvs(np.ones(1), np.ones(1), 0.5, 0.1) == (None, None)
    # zero state gives a singular normal matrix
    assert cvs(np.zeros(50), np.zeros(50), 0.5, 0.1) == (None, None)
    cv_a, cv_b = cvs(np.ones(50), np.ones(50), 0.5, 0.0)
    assert cv_b is None
