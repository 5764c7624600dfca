import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fadepower import annealer
from fadepower.annealer import (
    DELTA,
    AnnealingSchedule,
    NoFeasibleSolution,
    _fixed_draw,
    _order_cut,
    _rate_caps,
    _sort_states,
    _sorting_network,
    _spread,
    _steady_rows,
    _tail_sum,
    _water_fill,
    metropolis_accept,
    solve_fixed,
    solve_variable,
    temperature,
)
from fadepower.channel import ChannelModel, max_rate, outage_probability, power_for_outage
from fadepower.markov import steady_state_for
from fadepower.policy import (
    ProblemSpec,
    check_power_ordering,
    evaluate_fixed,
    evaluate_variable,
    make_policy,
)
from fadepower.closed_form import n1_fixed_search, n1_variable_search

CH = ChannelModel()
RMAX100 = max_rate(100.0, CH)
PLATEAU_PBAR = 4.481420117724550

LIGHT = AnnealingSchedule(t0=50.0, t_min=0.5, outer_per_temp=100, seed=0)


def spec1(eps_out=0.1, gamma=0.2, rate=1.0, n=1, peak=100.0, r_max=RMAX100):
    return ProblemSpec(
        gamma=gamma,
        n_states=n,
        eps_out=eps_out,
        avg_rate=rate,
        r_min=0.001,
        r_max=r_max,
        peak_power=peak,
        channel=CH,
    )


def test_schedule_validation():
    with pytest.raises(ValueError, match="t0 must be positive"):
        AnnealingSchedule(t0=0.0)
    with pytest.raises(ValueError, match="below t0"):
        AnnealingSchedule(t0=1.0, t_min=2.0)
    with pytest.raises(ValueError, match="outer_per_temp"):
        AnnealingSchedule(outer_per_temp=0)
    with pytest.raises(ValueError, match="c_sa"):
        AnnealingSchedule(c_sa=-1.0)
    with pytest.raises(ValueError, match="64"):
        AnnealingSchedule(seed=2**64)


def test_temperature_values():
    assert temperature(AnnealingSchedule(t0=10.0, c_sa=1.0, t_min=0.01), 0) == 10.0
    assert temperature(AnnealingSchedule(t0=10.0, c_sa=1.0, t_min=0.01), 9) == pytest.approx(1.0)
    assert temperature(AnnealingSchedule(t0=10.0, c_sa=0.5, t_min=0.01), 2) == pytest.approx(5.0)


def test_temperature_strictly_decreasing():
    s = AnnealingSchedule(t0=25.0, c_sa=0.7, t_min=0.01)
    vals = [temperature(s, b) for b in range(50)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_temperature_errors():
    with pytest.raises(ValueError, match="step index"):
        temperature(AnnealingSchedule(t0=10.0), -1)
    with pytest.raises(ValueError, match="t0 is unresolved"):
        temperature(AnnealingSchedule(), 0)


def test_metropolis_always_accepts_improvement():
    rng = np.random.default_rng(0)
    for _ in range(100):
        assert metropolis_accept(1.0, 2.0, 1e-9, rng)
        assert metropolis_accept(5.0, 5.0, 0.5, rng)


def test_metropolis_half_probability_at_ln2_gap():
    rng = np.random.default_rng(123)
    t = 0.7
    gap = t * math.log(2.0)
    hits = sum(metropolis_accept(3.0 + gap, 3.0, t, rng) for _ in range(100_000))
    assert abs(hits / 100_000 - 0.5) < 0.01


def test_metropolis_freezes_at_low_temperature():
    rng = np.random.default_rng(7)
    assert not any(metropolis_accept(2.0, 1.0, 1e-12, rng) for _ in range(1000))


def test_fixed_plateau_quality():
    res = solve_fixed(spec1(eps_out=0.3), AnnealingSchedule(seed=0))
    assert res.best_avg_power == pytest.approx(PLATEAU_PBAR, rel=0.02)


def test_fixed_tracks_grid_oracle():
    s = spec1(eps_out=0.1)
    _, oracle = n1_fixed_search(s, 4001)
    res = solve_fixed(s, AnnealingSchedule(seed=1))
    assert res.best_avg_power <= oracle * 1.02
    assert res.best_avg_power >= oracle * (1.0 - 1e-9)


def test_grid_search_is_only_a_bound_at_small_eps_out():
    # the grid keeps the loss budget binding, which costs 7% at eps_out 0.02
    s = spec1(eps_out=0.02)
    _, grid = n1_fixed_search(s, 4001)
    res = solve_fixed(s, AnnealingSchedule(seed=1))
    rep = evaluate_fixed(res.best_policy, s)
    assert rep.feasible
    assert res.best_avg_power == pytest.approx(rep.avg_power, abs=1e-10)
    assert res.best_avg_power <= 0.95 * grid
    assert res.best_avg_power == pytest.approx(11.8771, rel=1e-3)


def test_fixed_output_is_feasible_and_consistent():
    s = spec1(eps_out=0.15)
    res = solve_fixed(s, LIGHT)
    rep = evaluate_fixed(res.best_policy, s)
    assert rep.feasible
    assert res.best_avg_power == pytest.approx(rep.avg_power, abs=1e-10)
    assert check_power_ordering(res.best_policy.powers)
    assert all(r == s.avg_rate for r in res.best_policy.rates)


def test_fixed_feasibility_window_empty():
    with pytest.raises(ValueError, match="feasibility window empty"):
        solve_fixed(spec1(eps_out=0.05, rate=3.0), LIGHT)


@pytest.mark.parametrize("floor", [0.3, 0.27])
def test_fixed_certifies_a_peak_floor_above_gamma(floor):
    # P_m = -1/ln(1 - floor) puts the outage at peak power (k = 1 W) at
    # floor, above gamma 0.26: 0.3 also lies above the root 0.2755 of
    # odds/(1 + m) = m, 0.27 between the two.  gamma_r = sum_i pi_i eps_i
    # >= floor > gamma, so no table meets C2 and nothing is drawn.
    peak = -1.0 / math.log1p(-floor)
    for n in (1, 3, 10):
        s = spec1(eps_out=0.35, gamma=0.26, n=n, peak=peak)
        with pytest.raises(NoFeasibleSolution) as exc:
            solve_fixed(s, AnnealingSchedule(seed=1))
        assert exc.value.evaluated_count == 0
        # independently: random tables that meet PEAK and C3, ordered or not, break C2
        rng = np.random.default_rng(n)
        for _ in range(300):
            eps = rng.uniform(floor, 1.0 - DELTA, size=n + 1)
            eps[-1] = rng.uniform(floor, s.eps_out)
            rep = evaluate_fixed(make_policy(eps, (s.avg_rate,) * (n + 1), CH), s)
            assert rep.violated == ("C2",), (n, eps, rep.violated)


def test_variable_output_is_feasible_and_consistent():
    s = spec1(eps_out=0.1)
    res = solve_variable(s, LIGHT)
    rep = evaluate_variable(res.best_policy, s)
    assert rep.feasible
    assert res.best_avg_power == pytest.approx(rep.avg_power, abs=1e-10)


def test_variable_no_feasible_candidates():
    squeeze = spec1(eps_out=0.9, gamma=1e-9, rate=6.5)
    with pytest.raises(NoFeasibleSolution, match="no feasible solution found") as exc:
        solve_variable(squeeze, LIGHT)
    assert exc.value.evaluated_count > 0


def test_variable_degenerate_burst_target():
    with pytest.raises(NoFeasibleSolution) as exc:
        solve_variable(spec1(eps_out=5e-7), LIGHT)
    assert exc.value.evaluated_count == 0


def test_seed_determinism_bitexact():
    s = spec1(eps_out=0.12)
    a = solve_fixed(s, LIGHT)
    b = solve_fixed(s, LIGHT)
    assert a == b
    c = solve_variable(s, LIGHT)
    d = solve_variable(s, LIGHT)
    assert c == d
    # another seed, same schedule otherwise: another stream, another best
    # fixed-rate table (the variable-rate search converges, so another
    # seed may well end at the same table)
    assert solve_fixed(s, replace(LIGHT, seed=5)).best_avg_power != a.best_avg_power


def test_different_seeds_explore_differently():
    s = spec1(eps_out=0.12)
    a = solve_fixed(s, LIGHT)
    b = solve_fixed(s, AnnealingSchedule(t0=50.0, t_min=0.5, outer_per_temp=100, seed=99))
    assert a.best_policy != b.best_policy or a.trace != b.trace


def test_best_trace_monotone_and_cooling_bounded():
    s = spec1(eps_out=0.2)
    res = solve_fixed(s, AnnealingSchedule(t0=20.0, t_min=0.05, outer_per_temp=50, seed=3))
    temps = [t for t, _, _ in res.trace]
    bests = [b for _, _, b in res.trace]
    assert all(x > y for x, y in zip(temps, temps[1:]))
    assert all(x >= y for x, y in zip(bests, bests[1:]))
    assert min(temps) >= 0.05
    assert res.accepted_count <= res.feasible_count <= res.evaluated_count


def test_trace_ends_at_the_best_power_to_rounding():
    # the trace holds the draw's power of the best table, best_avg_power its
    # re-evaluation by average_power: the same table, rounded another way
    for solver in (solve_fixed, solve_variable):
        for n in (1, 3, 10):
            res = solver(spec1(eps_out=0.1, n=n), LIGHT)
            assert res.trace[-1][2] == pytest.approx(res.best_avg_power, rel=1e-12, abs=0.0)
    res = solve_variable(spec1(eps_out=0.1), AnnealingSchedule(t_min=0.05, seed=3))
    assert res.trace[-1][2] == pytest.approx(res.best_avg_power, rel=1e-12, abs=0.0)


def test_counts_and_trace_present_for_variable():
    s = spec1(eps_out=0.3)
    res = solve_variable(s, LIGHT)
    assert res.feasible_count > 0
    assert res.trace
    bests = [b for _, _, b in res.trace]
    assert all(x >= y for x, y in zip(bests, bests[1:]))


@pytest.fixture(scope="module")
def deep_budget_results():
    """Fixed-rate solves at eps_out 0.1 for burst budgets N = 1..12."""
    return {n: (spec1(eps_out=0.1, n=n), solve_fixed(spec1(eps_out=0.1, n=n),
                                                     AnnealingSchedule(seed=1)))
            for n in range(1, 13)}


@pytest.mark.parametrize("n", [8, 10, 12])
def test_fixed_deep_burst_budget_reaches_plateau(deep_budget_results, n):
    s, res = deep_budget_results[n]
    rep = evaluate_fixed(res.best_policy, s)
    assert rep.feasible
    assert res.best_avg_power == pytest.approx(rep.avg_power, abs=1e-10)
    assert res.best_avg_power == pytest.approx(PLATEAU_PBAR, abs=1e-3)


def test_fixed_power_non_increasing_in_burst_budget(deep_budget_results):
    powers = [deep_budget_results[n][1].best_avg_power for n in range(1, 13)]
    assert all(b <= a * (1.0 + 1e-3) for a, b in zip(powers, powers[1:]))


def test_fixed_draw_is_feasible_by_construction():
    rng = np.random.default_rng(2024)
    accepted = empty_box = 0
    for trial in range(60):
        ch = ChannelModel(
            mean_fading_power=float(rng.uniform(0.5, 2.0)),
            noise_power=float(rng.uniform(0.5, 2.0)),
        )
        peak = float(rng.choice([20.0, 100.0]))
        s = ProblemSpec(
            gamma=float(rng.uniform(0.05, 0.5)),
            n_states=int(rng.integers(1, 13)),
            eps_out=float(rng.uniform(0.02, 0.6)),
            avg_rate=float(rng.uniform(0.25, 2.0)),
            r_min=0.001,
            r_max=max_rate(peak, ch),
            peak_power=peak,
            channel=ch,
        )
        # every state's outage is at least the outage at peak power
        floor = outage_probability(peak, s.avg_rate, ch)
        if s.eps_out < floor:
            with pytest.raises(ValueError, match="feasibility window empty"):
                solve_fixed(s, LIGHT)
            continue
        if floor > s.gamma:
            # gamma_r = sum_i pi_i eps_i >= min eps >= floor > gamma
            with pytest.raises(NoFeasibleSolution) as exc:
                solve_fixed(s, LIGHT)
            assert exc.value.evaluated_count == 0
            empty_box += 1
            continue
        rows, ok, pbar, table = _fixed_draw(s, trial)(200)
        feasible = np.flatnonzero(np.isfinite(pbar))
        assert rows == 200 and ok == feasible.size
        for j in feasible:
            policy = make_policy(*table(j), ch)
            rep = evaluate_fixed(policy, s)
            assert rep.feasible, (trial, rep.violated)
            assert check_power_ordering(policy.powers)
            assert pbar[j] == pytest.approx(rep.avg_power, rel=1e-9)
        accepted += feasible.size
    assert accepted > 0 and empty_box > 0


def test_draw_budget_is_capped():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="draw budget"):
        solve_fixed(spec1(), AnnealingSchedule(t_min=1e-12))
    with pytest.raises(ValueError, match="draw budget"):
        solve_variable(spec1(), AnnealingSchedule(t0=5.0, t_min=1e-12))
    with pytest.raises(ValueError, match="draw budget"):
        AnnealingSchedule(t0=1.0, t_min=0.5, c_sa=1e-300)
    assert time.perf_counter() - start < 1.0
    # the default schedule at its largest automatic t0 stays within the cap
    AnnealingSchedule(t0=1000.0)


def _rate_bounds(e, s):
    """pi, log2 c_i and the peak-rate caps rcap_i of outage row e."""
    c = np.array([power_for_outage(x, 1.0, s.channel) for x in e])
    return steady_state_for(e), np.log2(c), np.minimum(s.r_max, np.log2(1.0 + s.peak_power / c))


def _kkt_violations(e, r, s):
    """Broken KKT conditions of rates r for outage row e (empty if none)."""
    pi, lc, cap = _rate_bounds(e, s)
    bad = []
    if np.any(r < s.r_min) or np.any(r > cap + 1e-12):
        bad.append("rate outside [r_min, cap]")
    rate = float(np.dot(pi, r))
    if rate < s.avg_rate - 1e-12:
        bad.append("C1")
    at_lo = (r <= s.r_min + 1e-12) & (r < cap - 1e-12)
    at_cap = (r >= cap - 1e-12) & (r > s.r_min + 1e-12)
    free = ~at_lo & ~at_cap & (cap - s.r_min > 2e-12)
    level = r + lc
    if np.any(free):
        x = level[free].mean()
        if np.ptp(level[free]) > 1e-9:
            bad.append("free states at different levels")
    else:
        x = level[at_cap].max(initial=-np.inf)
    if np.any((s.r_min + lc)[at_lo] < x - 1e-9):
        bad.append("a state at r_min lies below the level")
    if np.any((cap + lc)[at_cap] > x + 1e-9):
        bad.append("a capped state lies above the level")
    if np.any(r > s.r_min + 1e-12) and rate > s.avg_rate + 1e-12:
        bad.append("rate floor slack with rates above r_min")
    return bad


def test_variable_rates_satisfy_kkt():
    # the rates of every table solve_variable returns are the water-filling
    # of its outages: they meet the KKT conditions of the inner problem
    rng = np.random.default_rng(4242)
    seen = dict.fromkeys(("feasible", "all r_min", "capped", "no table"), 0)
    for trial in range(60):
        ch = ChannelModel(
            mean_fading_power=float(rng.uniform(0.5, 2.0)),
            noise_power=float(rng.uniform(0.5, 2.0)),
        )
        peak = float(rng.choice([5.0, 20.0, 100.0]))
        r_min = float(rng.choice([0.001, rng.uniform(0.0, 1.5)]))
        s = ProblemSpec(
            gamma=float(rng.uniform(0.05, 0.5)),
            n_states=int(rng.integers(1, 8)),
            eps_out=float(rng.uniform(0.02, 0.6)),
            avg_rate=float(rng.uniform(0.1, 5.0)),
            r_min=r_min,
            r_max=float(rng.choice([max_rate(peak, ch), r_min + rng.uniform(0.5, 3.0)])),
            peak_power=peak,
            channel=ch,
        )
        try:
            res = solve_variable(s, AnnealingSchedule(seed=trial))
        except NoFeasibleSolution:
            seen["no table"] += 1
            continue
        e, r = np.array(res.best_policy.eps), np.array(res.best_policy.rates)
        assert _kkt_violations(e, r, s) == [], trial
        rep = evaluate_variable(res.best_policy, s)
        assert rep.feasible, (trial, rep.violated)
        assert res.best_avg_power == pytest.approx(rep.avg_power, rel=1e-12)
        cap = _rate_bounds(e, s)[2]
        seen["feasible"] += 1
        seen["all r_min"] += bool(np.all(r == s.r_min))
        seen["capped"] += bool(np.any(r >= cap - 1e-12))
    assert min(seen.values()) > 0, seen


# Best known variable-rate tables at gamma 0.2, eps_out 0.1, R 1, P_m 100 W
# (differential evolution over the outage vector, rates by water-filling).
VARIABLE_OPTIMA = {
    1: ((0.24861054211459968, 0.005557831541592333),
        (1.2497499999999981, 0.001), 3.8817103647846847),
    3: ((0.083216605852097, 0.999999, 0.999999, 0.004193433200275858),
        (0.14176946592212358, RMAX100, RMAX100, 0.001), 1.925538413842421),
}


@pytest.mark.parametrize("n", sorted(VARIABLE_OPTIMA))
def test_water_filling_reproduces_known_optima(n):
    eps, rates, power = VARIABLE_OPTIMA[n]
    e = np.array([eps])
    pi = _steady_rows(e)
    coef = CH.noise_power / (-np.log1p(-e) * CH.mean_fading_power)
    s = spec1(eps_out=0.1, n=n)
    lc, rcap, ok = _rate_caps(coef, pi, s)
    r = _water_fill(lc, rcap, pi, s)
    assert ok.tolist() == [True]
    np.testing.assert_allclose(r[0], rates, rtol=0.0, atol=1e-9)
    pbar = float(np.dot(pi[0], coef[0] * (np.exp2(r[0]) - 1.0)))
    assert pbar == pytest.approx(power, rel=1e-9)


def test_variable_solver_reaches_n1_optimum():
    s = spec1(eps_out=0.1)
    res = solve_variable(s, AnnealingSchedule())
    assert res.best_avg_power == pytest.approx(VARIABLE_OPTIMA[1][2], rel=1e-3)
    # the grid search pins eps_1 = eps_out, so it is a bound, not an optimum
    assert res.best_avg_power < n1_variable_search(s, 2001)[1]


# Best known variable-rate powers at gamma 0.2, eps_out 0.1, R 1, P_m 100 W
# for N >= 2: the family eps_1..eps_{N-1} = 1 - DELTA, eps_0 on its loss
# budget, eps_N by a 1-D search (a grid and Nelder-Mead over eps_0's share
# of its budget and eps_N put the share at 1 for every N = 2..12).
VARIABLE_FAMILY = {2: 2.764170, 3: 1.925538, 6: 0.776562, 10: 0.622873}


@pytest.fixture(scope="module")
def variable_budget_results():
    """Variable-rate solves at eps_out 0.1 for burst budgets N = 1..12."""
    return {n: solve_variable(spec1(eps_out=0.1, n=n), AnnealingSchedule(seed=1))
            for n in range(1, 13)}


def test_variable_solver_meets_the_best_known_tables(variable_budget_results):
    n1 = variable_budget_results[1].best_avg_power
    assert n1 == pytest.approx(VARIABLE_OPTIMA[1][2], rel=1e-4, abs=0.0)
    for n, power in VARIABLE_FAMILY.items():
        assert variable_budget_results[n].best_avg_power <= power * (1.0 + 1e-6), n


def test_variable_power_non_increasing_in_burst_budget(variable_budget_results):
    powers = [variable_budget_results[n].best_avg_power for n in range(1, 13)]
    assert all(b <= a for a, b in zip(powers, powers[1:])), powers
    for n, res in variable_budget_results.items():
        rep = evaluate_variable(res.best_policy, spec1(eps_out=0.1, n=n))
        assert rep.feasible, (n, rep.violated)
        assert res.best_avg_power == pytest.approx(rep.avg_power, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [1, 3])
def test_variable_certifies_a_rate_floor_above_r_max(n):
    # every rate is at most r_max, so sum pi_i r_i >= R > r_max cannot hold
    for r_max in (1.9, 2.0 * (1.0 - 1e-8)):
        with pytest.raises(NoFeasibleSolution) as exc:
            solve_variable(spec1(n=n, rate=2.0, r_max=r_max), LIGHT)
        assert exc.value.evaluated_count == 0
    # just inside the edge: every state sends close to r_max
    s = spec1(n=n, rate=2.0 * (1.0 - 1e-7), r_max=2.0)
    res = solve_variable(s, LIGHT)
    assert evaluate_variable(res.best_policy, s).feasible
    assert min(res.best_policy.rates) > 1.99


@pytest.mark.parametrize("n", [1, 3])
def test_variable_certifies_peak_out_of_reach_in_the_last_state(n):
    # state N sends at least r_min = 1 with outage at most eps_out = 0.1,
    # which takes at least c_N = power_for_outage(0.1, 1) watts
    least = power_for_outage(0.1, 1.0, CH)

    def spec(peak):
        return replace(spec1(eps_out=0.1, gamma=0.5, rate=0.5, n=n, peak=peak), r_min=1.0, r_max=3.0)

    for scale in (0.5, 1.0 - 1e-6):
        with pytest.raises(NoFeasibleSolution) as exc:
            solve_variable(spec(scale * least), LIGHT)
        assert exc.value.evaluated_count == 0
    # just inside the edge: the table puts eps_N at eps_out
    s = spec((1.0 + 1e-6) * least)
    res = solve_variable(s, LIGHT)
    assert evaluate_variable(res.best_policy, s).feasible
    assert res.best_policy.eps[-1] == pytest.approx(0.1, rel=1e-5)


def test_variable_rows_per_solve_are_capped(monkeypatch):
    # no batch starts once _MAX_ROWS rows are evaluated: with the cap below
    # the first exploration round, a solve at N = 3 evaluates the family
    # (3 + 4 grids of 257 rows), that round's 4096 rows and its 7 starts
    monkeypatch.setattr(annealer, "_MAX_ROWS", 2000)
    res = solve_variable(spec1(n=3), LIGHT)
    assert res.evaluated_count == 7 * 257 + 4096 + 7
    assert res.trace == ()
    assert evaluate_variable(res.best_policy, spec1(n=3)).feasible


def test_variable_costs_no_more_than_the_fixed_rate_table():
    # with r_min <= R <= r_max every fixed-rate table is variable-feasible,
    # so whenever solve_fixed finds one, solve_variable must do as well
    rng = np.random.default_rng(85)
    compared = 0
    for trial in range(100):
        s = random_spec(rng)
        assert s.r_min <= s.avg_rate <= s.r_max
        try:
            fixed = solve_fixed(s, AnnealingSchedule(seed=trial))
        except ValueError:  # NoFeasibleSolution or an empty window
            continue
        res = solve_variable(s, AnnealingSchedule(seed=trial))
        assert res.best_avg_power <= fixed.best_avg_power * (1.0 + 1e-9), trial
        compared += 1
    assert compared > 50


def random_spec(rng, n_max=12):
    ch = ChannelModel(
        mean_fading_power=float(rng.uniform(0.5, 2.0)),
        noise_power=float(rng.uniform(0.5, 2.0)),
    )
    peak = float(rng.choice([20.0, 100.0]))
    return ProblemSpec(
        gamma=float(rng.uniform(0.05, 0.5)),
        n_states=int(rng.integers(1, n_max + 1)),
        eps_out=float(rng.uniform(0.02, 0.6)),
        avg_rate=float(rng.uniform(0.25, 2.0)),
        r_min=0.001,
        r_max=max_rate(peak, ch),
        peak_power=peak,
        channel=ch,
    )


def fixed_streams(seed):
    """The fixed-rate draw's two streams: its tables, and its accept test."""
    return np.random.default_rng(seed), np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def fixed_box(s):
    """(k, odds, lo, hi, hi_last, p_keep) of the fixed-rate draw of spec s.

    The tail is drawn on [lo, hi)^(N-1) x [lo, hi_last), the full box
    [lo, cap)^(N-1) x [lo, min(eps_out, cap)) under the order cut, and a
    row of the budget is kept with the probability p_keep that a row of
    the full box lies in it.
    """
    ch, n = s.channel, s.n_states
    k_power = (2.0**s.avg_rate - 1.0) * ch.noise_power / ch.mean_fading_power
    odds = s.gamma / (1.0 - s.gamma)
    lo = max(DELTA, -math.expm1(-k_power / s.peak_power))
    cap = min(1.0 - DELTA, odds)
    last = min(s.eps_out, cap)
    cut = _order_cut(odds)
    hi, hi_last = min(cap, cut), min(last, cut)
    p_keep = ((hi - lo) / (cap - lo)) ** (n - 1) * ((hi_last - lo) / (last - lo))
    return k_power, odds, lo, hi, hi_last, p_keep


def kept_uniforms(streams, rows, n, p_keep):
    """The RNG rows of the kept rows among `rows` rows of the budget.

    A row is kept when its accept uniform lies below p_keep; at p_keep 1
    the accept stream is not read.  Each kept row reads t, then
    eps_1..eps_N unsorted, from the table stream.
    """
    tables, accept = streams
    kept = rows if p_keep == 1.0 else int(np.count_nonzero(accept.random(rows) < p_keep))
    return tables.random((kept, n + 1))


def reference_fixed_draw(s, streams, rows):
    """Fixed-rate powers of the kept rows by the direct cumprod/einsum formulas.

    Reads both streams as _fixed_draw does (kept_uniforms).
    """
    n = s.n_states
    k_power, odds, lo, hi, hi_last, p_keep = fixed_box(s)
    highs = np.full(n, hi)
    highs[-1] = hi_last
    u = kept_uniforms(streams, rows, n, p_keep)
    kept = u.shape[0]
    t = u[:, 0]
    tail = np.sort(lo + u[:, 1:] * (highs - lo), axis=1)[:, ::-1]
    w = np.ones((kept, n))
    w[:, 1:] = np.cumprod(tail[:, :-1], axis=1)
    w[:, -1] /= 1.0 - tail[:, -1]
    w1 = w.sum(axis=1)
    ub = np.minimum(1.0 - DELTA, odds / w1)
    lb = np.maximum(lo, tail[:, 0])
    e0 = lb + t * (ub - lb)
    tail_cost = np.einsum("ij,ij->i", w, 1.0 / -np.log1p(-tail))
    pbar = k_power * (1.0 / -np.log1p(-e0) + e0 * tail_cost) / (1.0 + e0 * w1)
    pbar[ub < lb] = np.inf
    return pbar, e0, tail


def test_draws_match_the_direct_formulas():
    rng = np.random.default_rng(77)
    compared = 0
    for trial in range(40):
        s = random_spec(rng)
        try:
            draw = _fixed_draw(s, trial)
        except NoFeasibleSolution:
            continue
        rows, ok, pbar, table = draw(300)
        ref, e0, tail = reference_fixed_draw(s, fixed_streams(trial), 300)
        finite = np.isfinite(ref)
        assert rows == 300 and ok == np.count_nonzero(finite)
        assert np.array_equal(np.isfinite(pbar), finite), trial
        np.testing.assert_allclose(pbar[finite], ref[finite], rtol=1e-12, atol=0.0)
        for j in np.flatnonzero(finite)[:5]:
            eps, _ = table(j)
            np.testing.assert_allclose(eps, (e0[j], *tail[j]), rtol=1e-12, atol=0.0)
        compared += 1
    assert compared > 20


def test_loss_rate_is_one_minus_pi0():
    # gamma_r = sum_i eps_i pi_i = 1 - pi_0 = eps_0 W_1/(1 + eps_0 W_1)
    rng = np.random.default_rng(11)
    for n in range(1, 13):
        e = rng.uniform(DELTA, 1.0 - DELTA, size=(20, n + 1))
        x = e[:, 0] * _tail_sum(e[:, 1:].T)
        for row, xr in zip(e, x):
            pi = steady_state_for(row)
            assert np.dot(row, pi) == pytest.approx(1.0 - pi[0], abs=1e-12)
            assert 1.0 - pi[0] == pytest.approx(xr / (1.0 + xr), abs=1e-12)
        np.testing.assert_allclose(_steady_rows(e)[:, 0], 1.0 / (1.0 + x), rtol=1e-12)


def test_tail_sum_is_the_weighted_sum_of_its_terms():
    rng = np.random.default_rng(12)
    for n in (1, 2, 5, 12):
        tail = rng.uniform(DELTA, 1.0 - DELTA, size=(30, n))
        f = rng.uniform(0.1, 3.0, size=(30, n))
        w = np.ones((30, n))
        w[:, 1:] = np.cumprod(tail[:, :-1], axis=1)
        w[:, -1] /= 1.0 - tail[:, -1]
        np.testing.assert_allclose(_tail_sum(tail.T), w.sum(axis=1), rtol=1e-12)
        w1, wf = _tail_sum(list(tail.T), f.T)
        np.testing.assert_allclose(w1, w.sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(wf, (w * f).sum(axis=1), rtol=1e-12)


@pytest.mark.parametrize("n", [1, 3, 10])
def test_results_do_not_depend_on_the_block_size(monkeypatch, n):
    s = spec1(eps_out=0.1, n=n)
    schedule = AnnealingSchedule(t_min=2.0, outer_per_temp=300, seed=n)
    a = solve_fixed(s, schedule)
    monkeypatch.setattr(annealer, "_BLOCK_ELEMENTS", 1000)
    b = solve_fixed(s, schedule)
    assert len(b.trace) > len(a.trace)
    assert (a.best_policy, a.best_avg_power) == (b.best_policy, b.best_avg_power)
    assert (a.evaluated_count, a.feasible_count, a.accepted_count) == (
        b.evaluated_count, b.feasible_count, b.accepted_count)


def test_memory_of_one_draw_is_bounded():
    # the draw reuses block-sized arrays, which must not grow with the step width
    def peak(outer_per_temp):
        schedule = AnnealingSchedule(t0=None, t_min=1.0, c_sa=1e3, outer_per_temp=outer_per_temp)
        tracemalloc.start()
        try:
            solve_fixed(spec1(eps_out=0.1, n=3), schedule)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(524288) <= 1.5 * peak(65536)


# solve_variable at gamma 0.2, eps_out 0.1, R 1, P_m 100 W, schedule
# AnnealingSchedule(t_min=0.05, seed=seed): (power, eps, rates, accepted,
# feasible, evaluated).  Pinned exactly so that a change of the search, or
# of its use of the RNG stream (the feasible and evaluated counts), is
# seen.  The family holds the best table at N = 1 and 3, so both seeds end
# there; N = 3 puts eps_1, eps_2 at 1 - DELTA and sends r_max there.
VARIABLE_GOLDEN = {
    (1, 3): (3.8817103647846247, (0.2486105411219986, 0.005557835512005656),
             (1.2497499999999997, 0.001), 5, 5238, 6780),
    (1, 11): (3.8817103647846247, (0.2486105411219986, 0.005557835512005656),
              (1.2497499999999997, 0.001), 5, 5211, 6764),
    (3, 3): (1.9255384138424134,
             (0.08321660588104696, 0.999999, 0.999999, 0.00419343216389656),
             (0.14176946553667102, RMAX100, RMAX100, 0.001), 5, 7875, 9454),
    (3, 11): (1.9255384138424134,
              (0.08321660588104696, 0.999999, 0.999999, 0.00419343216389656),
              (0.14176946553667102, RMAX100, RMAX100, 0.001), 5, 7930, 9518),
}


# The trace of each VARIABLE_GOLDEN solve, one (largest step, iteration
# minimum, best) sample per polish iteration: its length, first and last
# sample.  The steps fall from 4 to the last one above 1e-4, 4^-6.
VARIABLE_TRACE = {
    (1, 3): (15, (4.0, 3.881710364784616, 3.881710364784616),
             (0.000244140625, 3.8817103648012177, 3.881710364784616)),
    (1, 11): (15, (4.0, 3.881710364784616, 3.881710364784616),
              (0.000244140625, 3.881710364788236, 3.881710364784616)),
    (3, 3): (20, (4.0, 1.92553841384241, 1.92553841384241),
             (0.000244140625, 1.9255384138436515, 1.92553841384241)),
    (3, 11): (20, (4.0, 1.92553841384241, 1.92553841384241),
              (0.000244140625, 1.9255384138431058, 1.92553841384241)),
}


@pytest.mark.parametrize("n, seed", sorted(VARIABLE_GOLDEN))
def test_variable_results_are_pinned(n, seed):
    res = solve_variable(spec1(eps_out=0.1, n=n), AnnealingSchedule(t_min=0.05, seed=seed))
    got = (res.best_avg_power, tuple(map(float, res.best_policy.eps)),
           tuple(map(float, res.best_policy.rates)),
           res.accepted_count, res.feasible_count, res.evaluated_count)
    assert got == VARIABLE_GOLDEN[n, seed]
    assert (len(res.trace), res.trace[0], res.trace[-1]) == VARIABLE_TRACE[n, seed]


# solve_fixed at gamma 0.2, eps_out 0.1, R 1, P_m 100 W, schedule
# AnnealingSchedule(t_min=0.05, seed=seed): (power, eps, accepted, feasible,
# evaluated, trace length).  N = 25 pins a deeper sorting network than the
# benchmark's N <= 10.  At N = 1, eps_out 0.1 lies below the order cut, so
# those draws keep every row and never read the accept stream.
FIXED_GOLDEN = {
    (1, 3): (5.041405202691562, (0.224994992930875, 0.0997629985937271), 13, 203800, 203800, 4),
    (1, 11): (5.0428588666729315, (0.22496170101165908, 0.09970772968827388), 10, 203600, 203600, 4),
    (3, 3): (4.500429920414073,
             (0.20138821331910545, 0.20104108865222836, 0.17984065986500805, 0.09960727161568624),
             18, 117224, 180600, 4),
    (3, 11): (4.5006853106527025,
              (0.20099694778976712, 0.2003331206617749, 0.19557334801321677, 0.09734612045373939),
              14, 117463, 180200, 4),
    (10, 3): (4.4816008028344925,
              (0.20010525176414012, 0.1999185265085516, 0.1992433820891359, 0.19559507473596274,
               0.19465372925380764, 0.15917790350560992, 0.12237523122212951, 0.10449408789788937,
               0.06435133697738045, 0.04133287635940381, 0.016446573835816762),
              8, 22900, 179200, 3),
    (10, 11): (4.481979309799904,
               (0.2001143794466437, 0.20003659118717307, 0.19783114725611883, 0.1968685505819748,
                0.1929525609731233, 0.15057735002582315, 0.14008738053994502, 0.0977955534499684,
                0.08229496583822847, 0.04360092079128587, 0.03295152232548489),
               14, 22963, 179200, 3),
    (25, 3): (4.48168118582172,
              (0.20006217132929477, 0.20005647250851463, 0.19955741838378055, 0.19494524106302968,
               0.18764999614862332, 0.18762299291127188, 0.16536696982082946, 0.1574127472651299,
               0.1374231440365877, 0.13565682418005579, 0.13252066938679644, 0.12327178465530957,
               0.12176120106954008, 0.11786770591842437, 0.11753920187444951, 0.0954288248561418,
               0.09494939845830314, 0.08299972767182955, 0.08122373131780808, 0.0780247008840274,
               0.07664779152645966, 0.059141450590660324, 0.05088328685399582, 0.021334164444155174,
               0.020700311408973323, 0.017806557185251752),
              10, 689, 179200, 3),
    (25, 11): (4.481566518941047,
               (0.20006862867352862, 0.200026768043318, 0.19913378080260782, 0.19648360768611609,
                0.19139933770287518, 0.19057037912683483, 0.1896344091765352, 0.1832036329093837,
                0.18280681242099062, 0.16775482843530004, 0.15749058904834057, 0.15696982203327256,
                0.14586621730030272, 0.11985928820698684, 0.10975017216700023, 0.10532901578225166,
                0.08439196189311955, 0.05384264419108846, 0.05198175780596836, 0.045635749004744784,
                0.03787998191129341, 0.032770091535507154, 0.02485396901138825, 0.02334522026484203,
                0.010936845827129178, 0.010467369627665167),
               8, 684, 179200, 3),
}


@pytest.mark.parametrize("n, seed", sorted(FIXED_GOLDEN))
def test_fixed_results_are_pinned(n, seed):
    res = solve_fixed(spec1(eps_out=0.1, n=n), AnnealingSchedule(t_min=0.05, seed=seed))
    got = (res.best_avg_power, tuple(map(float, res.best_policy.eps)),
           res.accepted_count, res.feasible_count, res.evaluated_count, len(res.trace))
    assert got == FIXED_GOLDEN[n, seed]


def test_sorting_network_sorts_every_binary_input():
    # 0-1 principle: a compare-exchange network that sorts every 0/1 input sorts every input
    for n in range(1, 17):
        bits = ((np.arange(2**n) >> np.arange(n)[:, None]) & 1).astype(float)
        got = np.array(_sort_states(bits.copy(), _sorting_network(n), np.empty(2**n)))
        assert np.array_equal(got, np.sort(bits, axis=0)[::-1]), n


def test_sorting_network_gives_the_np_sort_values():
    rng = np.random.default_rng(31)
    lo, cap = 0.0123, 0.25
    for n in range(1, 41):
        keys = rng.uniform(lo, cap, size=(n, 600))
        # ties, and values equal to the ends of the draw box
        keys[:, :400] = rng.choice([lo, cap, 0.1, 0.2], size=(n, 400))
        keys[:, 400:500] = np.round(keys[:, 400:500], 2)
        want = np.sort(keys, axis=0)[::-1]
        got = np.array(_sort_states(keys.copy(), _sorting_network(n), np.empty(600)))
        assert np.array_equal(got, want), n


def row_major_fixed_draw(s, streams, rows):
    """Fixed-rate powers and tables of the kept rows by the row-major kernel.

    Reads both streams as _fixed_draw does (kept_uniforms); np.sort on
    each row and the Horner sums over strided columns, in the same
    arithmetic order as _fixed_draw, so the results must be equal.
    """
    n = s.n_states
    k_power, odds, lo, hi, hi_last, p_keep = fixed_box(s)
    u = kept_uniforms(streams, rows, n, p_keep)
    t = u[:, 0].copy()
    _spread(u, lo, hi, hi_last)
    tail = np.sort(u[:, 1:], axis=1)
    inv_y = -1.0 / np.log1p(-tail)
    tail, inv_y = tail[:, ::-1], inv_y[:, ::-1]
    w1 = 1.0 / (1.0 - tail[:, -1])
    wf = w1 * inv_y[:, -1]
    for j in range(n - 2, -1, -1):
        w1 = w1 * tail[:, j] + 1.0
        wf = wf * tail[:, j] + inv_y[:, j]
    ub = np.minimum(odds / w1, 1.0 - DELTA)
    lb = np.maximum(tail[:, 0], lo)
    e0 = (ub - lb) * t + lb
    pbar = (wf * e0 - 1.0 / np.log1p(-e0)) * k_power / (w1 * e0 + 1.0)
    pbar[ub < lb] = np.inf
    return pbar, np.column_stack([e0, tail])


def test_fixed_draw_equals_the_row_major_kernel():
    rng = np.random.default_rng(78)
    compared = cut = 0
    for trial in range(40):
        s = random_spec(rng, n_max=30)
        if trial % 5 == 0:
            # eps_out below the order cut: at N = 1 every row is kept
            s = replace(s, n_states=1, eps_out=s.gamma)
        try:
            draw = _fixed_draw(s, trial)
        except NoFeasibleSolution:
            continue
        streams = fixed_streams(trial)
        compared += 1
        cut += fixed_box(s)[-1] < 1.0
        # the draw reuses its buffers: they grow, then a smaller block reuses them
        for rows in (1, 257, 100):
            _, ok, pbar, table = draw(rows)
            ref, eps = row_major_fixed_draw(s, streams, rows)
            assert np.array_equal(pbar, ref), trial
            assert ok == np.count_nonzero(np.isfinite(ref))
            # table(j) is defined for the feasible rows, which _search asks for
            assert all(np.array_equal(table(j)[0], eps[j]) for j in np.flatnonzero(np.isfinite(ref)))
    # both sides of the accept test: rows cut, and p_keep 1
    assert 0 < cut < compared


def gather_water_fill(coef, pi, spec):
    """The water-filling with take_along_axis gathers, as _water_fill computed it before."""
    lc = np.log2(coef)
    rcap = np.minimum(spec.r_max, np.log2(1.0 + spec.peak_power / coef))
    ok = (rcap.min(axis=1) >= spec.r_min) & (np.einsum("ij,ij->i", rcap, pi) >= spec.avg_rate)
    kinks = np.concatenate([spec.r_min + lc, rcap + lc], axis=1)
    order = np.argsort(kinks, axis=1)
    kinks = np.take_along_axis(kinks, order, axis=1)
    steps = np.take_along_axis(np.concatenate([pi, -pi], axis=1), order, axis=1)
    gaps = np.diff(kinks, axis=1)
    rise = np.cumsum(steps[:, :-1], axis=1) * gaps
    f = np.empty_like(kinks)
    f[:, 0] = spec.r_min
    f[:, 1:] = spec.r_min + np.cumsum(rise, axis=1)
    k = np.clip(np.count_nonzero(f < spec.avg_rate, axis=1) - 1, 0, gaps.shape[1] - 1)[:, None]
    f_k = np.take_along_axis(f, k, axis=1)
    rise_k = np.take_along_axis(rise, k, axis=1)
    t = np.divide(spec.avg_rate - f_k, rise_k, out=np.ones_like(f_k), where=rise_k > 0.0)
    x = np.take_along_axis(kinks, k, axis=1) + np.clip(t, 0.0, 1.0) * np.take_along_axis(gaps, k, axis=1)
    return np.clip(x - lc, spec.r_min, rcap), ok


def test_water_fill_equals_the_gather_version():
    rng = np.random.default_rng(79)
    for trial in range(40):
        s = random_spec(rng)
        if trial % 4 == 0:
            # r_max = r_min: each state's two kinks tie
            s = replace(s, r_max=s.r_min)
        e = rng.uniform(DELTA, 1.0 - DELTA, size=(300, s.n_states + 1))
        # equal outages in two states: their kinks tie across states
        e[::3, -1] = e[::3, 0]
        pi = _steady_rows(e)
        coef = s.channel.noise_power / (-np.log1p(-e) * s.channel.mean_fading_power)
        lc, rcap, ok = _rate_caps(coef, pi, s)
        rates = _water_fill(lc, rcap, pi, s)
        ref_rates, ref_ok = gather_water_fill(coef, pi, s)
        assert np.array_equal(ok, ref_ok), trial
        assert np.array_equal(rates, ref_rates), trial


def row_major_order_bounds(tail, lo, odds):
    """ub and lb of sorted row-major tails, W_1 by the row-major Horner pass."""
    w1 = 1.0 / (1.0 - tail[:, -1])
    for j in range(tail.shape[1] - 2, -1, -1):
        w1 = w1 * tail[:, j] + 1.0
    return np.minimum(odds / w1, 1.0 - DELTA), np.maximum(tail[:, 0], lo)


def wrongly_cut(cut, keys, lo, odds):
    """Rows of state-major keys whose largest outage lies above cut although their ub >= lb."""
    ub, lb = row_major_order_bounds(np.sort(keys.T, axis=1)[:, ::-1], lo, odds)
    return int(np.count_nonzero((keys.max(axis=0) > cut) & (ub >= lb)))


def square_cut(odds):
    # the root of odds/(1 + m + m*m) = m: W_1 >= 1 + m + m*m is not a bound,
    # W_1 is 1 + m(1 + eps_2 + ...)
    return float(max(r.real for r in np.roots([1.0, 1.0, 1.0, -odds]) if abs(r.imag) < 1e-12))


def order_edge_rows(rng, n):
    """State-major tails and their (lo, odds) at the edge of the order cut.

    eps_1 = m steps by single ulps across the root of odds/(1 + m) = m.
    The other outages are 0 (then W_1 = 1 + m exactly), the smallest
    float, lo, m itself (ties), random values below m, or eps_N at
    min(eps_out, cap); at N = 1 a row is m alone.  gamma runs up to 0.5
    (odds 1), and lo from 0 to just past the root.
    """
    for gamma in (0.05, 0.2, 0.35, 0.45, 0.5 - 1e-9, 0.5):
        odds = gamma / (1.0 - gamma)
        cap = min(1.0 - DELTA, odds)
        root = (math.sqrt(1.0 + 4.0 * odds) - 1.0) / 2.0
        m = root + np.arange(-16, 17) * np.spacing(root)
        for lo in (0.0, DELTA, float(m[10]), float(m[-1])):
            m_lo = np.maximum(m, lo)
            if n == 1:
                yield m_lo[None], lo, odds
                continue
            spread = rng.uniform(size=(n - 1, m.size)) * m_lo
            last_at_eps_out = spread.copy()
            last_at_eps_out[-1] = min(float(rng.uniform(DELTA, 1.0)), cap)
            for rest in (0.0, 5e-324, lo, m_lo, spread, last_at_eps_out):
                keys = np.empty((n, m.size))
                keys[0] = m_lo
                keys[1:] = np.minimum(rest, m_lo)
                yield keys, lo, odds


def random_order_rows(rng, n, rows=400):
    """Unsorted state-major tails drawn in the fixed-rate box of a random spec."""
    s = replace(random_spec(rng), n_states=n)
    k_power = (2.0**s.avg_rate - 1.0) * s.channel.noise_power / s.channel.mean_fading_power
    odds = s.gamma / (1.0 - s.gamma)
    lo = max(DELTA, -math.expm1(-k_power / s.peak_power))
    cap = min(1.0 - DELTA, odds)
    keys = rng.random((rows, n))
    _spread(keys, lo, cap, min(s.eps_out, cap))
    return np.ascontiguousarray(keys.T), lo, odds


def test_order_cut_drops_only_rows_that_break_the_power_order():
    rng = np.random.default_rng(80)
    checked = cut_off = 0
    for n in range(1, 31):
        cases = list(order_edge_rows(rng, n)) + [random_order_rows(rng, n) for _ in range(4)]
        for keys, lo, odds in cases:
            cut = _order_cut(odds)
            assert wrongly_cut(cut, keys, lo, odds) == 0, (n, lo, odds)
            checked += keys.shape[1]
            cut_off += int(np.count_nonzero(keys.max(axis=0) > cut))
    assert 0 < cut_off < checked
    # the test catches cuts below the root of odds/(1 + m) = m: the root of
    # odds/(1 + m + m*m) = m on random rows, one ulp less on the rows at the edge
    random_rows = [random_order_rows(rng, n) for n in range(2, 31) for _ in range(4)]
    assert sum(wrongly_cut(square_cut(odds), keys, lo, odds) for keys, lo, odds in random_rows) > 0
    edge_rows = list(order_edge_rows(rng, 3))
    assert sum(wrongly_cut(math.nextafter(_order_cut(odds), 0.0), keys, lo, odds)
               for keys, lo, odds in edge_rows) > 0


def full_box_feasible(s, rng, rows, block=65536):
    """Feasible rows among `rows` fixed-rate draws from the full box, row-major.

    The tails are drawn on [lo, cap)^(N-1) x [lo, min(eps_out, cap)) with
    no order cut, sorted by np.sort, and a row is feasible when ub >= lb.
    """
    n = s.n_states
    k_power = (2.0**s.avg_rate - 1.0) * s.channel.noise_power / s.channel.mean_fading_power
    odds = s.gamma / (1.0 - s.gamma)
    lo = max(DELTA, -math.expm1(-k_power / s.peak_power))
    highs = np.full(n, min(1.0 - DELTA, odds))
    highs[-1] = min(s.eps_out, highs[-1])
    feasible = 0
    for start in range(0, rows, block):
        keys = lo + rng.random((min(block, rows - start), n)) * (highs - lo)
        ub, lb = row_major_order_bounds(np.sort(keys, axis=1)[:, ::-1], lo, odds)
        feasible += int(np.count_nonzero(ub >= lb))
    return feasible


@pytest.mark.parametrize("n, eps_out", [(1, 0.3), (3, 0.1), (6, 0.1), (10, 0.1)])
def test_order_cut_keeps_the_feasible_share_of_the_full_box(n, eps_out):
    # the cut draws only rows that can be feasible, each row of the budget
    # being kept with the probability that a full-box row lies under the
    # cut: the feasible share of the budget is that of the full box
    s = spec1(eps_out=eps_out, n=n)
    rows = 2**20
    draw = _fixed_draw(s, 5)
    got = sum(draw(65536)[1] for _ in range(rows // 65536))
    want = full_box_feasible(s, np.random.default_rng(6), rows)
    share = (got + want) / (2.0 * rows)
    sigma = math.sqrt(share * (1.0 - share) * 2.0 / rows)
    assert 0.1 < share < 0.9
    assert abs(got - want) / rows < 5.0 * sigma, (got, want)


def test_order_cut_is_the_largest_outage_the_float_order_test_keeps():
    # fl(odds/fl(1 + m)) >= m holds at the cut and fails one ulp above it
    for gamma in np.linspace(1e-6, 1.0 - 1e-6, 2001):
        odds = float(gamma / (1.0 - gamma))
        cut = _order_cut(odds)
        up = math.nextafter(cut, math.inf)
        assert odds / (1.0 + cut) >= cut and odds / (1.0 + up) < up, gamma
        assert cut * (1.0 + cut) == pytest.approx(odds, rel=1e-15)


@pytest.mark.parametrize("a", [0.25, 8.0])
def test_scaling_noise_and_peak_power_scales_the_power(a):
    # N0 -> a N0 and P_m -> a P_m with r_max fixed scale every power by a
    # and move no outage.  a is a power of two, so the fixed-rate arithmetic
    # scales exactly; the water-filling shifts log2 c_i by log2 a, which
    # rounds, so variable-rate rates and powers agree to rounding only.  t0
    # is explicit because the automatic one scales the budget with the power.
    schedule = AnnealingSchedule(t0=5.0, t_min=0.5, outer_per_temp=300, seed=4)
    for n in (1, 3, 10):
        base = spec1(eps_out=0.1, n=n)
        scaled = replace(base, peak_power=a * base.peak_power,
                         channel=replace(CH, noise_power=a * CH.noise_power))
        for solver in (solve_fixed, solve_variable):
            x, y = solver(base, schedule), solver(scaled, schedule)
            case = (n, solver.__name__)
            assert y.best_policy.eps == x.best_policy.eps, case
            assert (y.accepted_count, y.feasible_count, y.evaluated_count) == (
                x.accepted_count, x.feasible_count, x.evaluated_count), case
            if solver is solve_fixed:
                assert y.best_policy.rates == x.best_policy.rates, case
                assert y.best_avg_power == a * x.best_avg_power, case
            else:
                np.testing.assert_allclose(y.best_policy.rates, x.best_policy.rates, rtol=1e-12)
                assert y.best_avg_power == pytest.approx(a * x.best_avg_power, rel=1e-12, abs=0.0)
