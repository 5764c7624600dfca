import json
import math
import pickle
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fadepower import annealer
from fadepower.annealer import (
    DELTA,
    AnnealingSchedule,
    NoFeasibleSolution,
    _FixedSearch,
    _rate_caps,
    _tail_sum,
    _water_fill,
    solve_fixed,
    solve_variable,
)
from fadepower.channel import ChannelModel, max_rate, outage_probability, power_for_outage
from fadepower.markov import product_form, steady_state_for
from fadepower.policy import (
    ProblemSpec,
    average_power,
    check_power_ordering,
    evaluate_fixed,
    evaluate_variable,
    make_policy,
)
from fadepower.closed_form import n1_fixed_solution, n1_variable_search

CH = ChannelModel()
RMAX100 = max_rate(100.0, CH)
PLATEAU_PBAR = 4.481420117724550

LIGHT = AnnealingSchedule(seed=0)

# the benchmark's best-known tables (differential evolution and a zoomed grid)
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def p_ref(key: str) -> float:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["cases"][key]["p_ref"]


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
    # the seed is the schedule's only field
    for seed in (2**64, -1):
        with pytest.raises(ValueError, match="64"):
            AnnealingSchedule(seed=seed)
    with pytest.raises(TypeError):
        AnnealingSchedule(t_min=0.5)


def test_fixed_plateau_quality():
    res = solve_fixed(spec1(eps_out=0.3), AnnealingSchedule(seed=0))
    assert res.best_avg_power == pytest.approx(PLATEAU_PBAR, rel=0.02)


def test_fixed_tracks_grid_oracle():
    oracle = p_ref("fixed.n1.eps0.10")
    res = solve_fixed(spec1(eps_out=0.1), AnnealingSchedule(seed=1))
    assert res.best_avg_power <= oracle * (1.0 + 1e-12)
    assert res.best_avg_power >= oracle * (1.0 - 1e-9)


def test_binding_loss_budget_is_only_a_bound_at_small_eps_out():
    # the paper's boundary form keeps the loss budget binding, which costs
    # 7% at eps_out 0.02
    s = spec1(eps_out=0.02)
    _, boundary = n1_fixed_solution(s)
    res = solve_fixed(s, AnnealingSchedule(seed=1))
    rep = evaluate_fixed(res.best_policy, s)
    assert rep.feasible
    assert res.best_avg_power == pytest.approx(rep.avg_power, abs=1e-10)
    assert res.best_avg_power <= 0.95 * boundary
    assert res.best_avg_power == pytest.approx(p_ref("fixed.n1.eps0.02"), rel=1e-12)


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


def test_no_feasible_solution_survives_pickling():
    # a sweep worker's exception crosses a process boundary as a pickle
    exc = NoFeasibleSolution(5)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is NoFeasibleSolution
    assert back.evaluated_count == 5
    assert str(back) == str(exc) == "no feasible solution found after 5 candidate evaluations"


def test_seed_determinism_bitexact():
    s = spec1(eps_out=0.12)
    a = solve_fixed(s, LIGHT)
    b = solve_fixed(s, LIGHT)
    assert a == b
    c = solve_variable(s, LIGHT)
    d = solve_variable(s, LIGHT)
    assert c == d
    # another seed draws other exploration rows: at N = 3 other feasible
    # counts and another polish trace (at N = 1 the family finds the
    # corner optimum, and every seed ends there the same way)
    s3 = spec1(eps_out=0.12, n=3)
    a, other = solve_fixed(s3, LIGHT), solve_fixed(s3, AnnealingSchedule(seed=5))
    assert (other.feasible_count, other.trace) != (a.feasible_count, a.trace)


def test_different_seeds_explore_differently():
    s = spec1(eps_out=0.12, n=3)
    a = solve_fixed(s, LIGHT)
    b = solve_fixed(s, AnnealingSchedule(seed=99))
    assert a.best_policy != b.best_policy or a.trace != b.trace


def test_best_trace_monotone_and_cooling_bounded():
    s = spec1(eps_out=0.2)
    res = solve_fixed(s, AnnealingSchedule(seed=3))
    steps = [h for h, _, _ in res.trace]
    bests = [b for _, _, b in res.trace]
    assert res.trace
    assert all(x >= y for x, y in zip(bests, bests[1:]))
    # the polish step starts at 4 and is divided by 4 down to 4^-6 > 1e-4
    assert set(steps) <= {4.0 / 4**k for k in range(8)}
    assert res.accepted_count <= res.feasible_count <= res.evaluated_count


def test_trace_ends_at_the_best_power_to_rounding():
    # the trace holds the draw's power of the best table, best_avg_power its
    # re-evaluation by average_power: the same table, rounded another way
    for solver in (solve_fixed, solve_variable):
        for n in (1, 3, 10):
            res = solver(spec1(eps_out=0.1, n=n), LIGHT)
            assert res.trace[-1][2] == pytest.approx(res.best_avg_power, rel=1e-12, abs=0.0)
    res = solve_variable(spec1(eps_out=0.1), AnnealingSchedule(seed=3))
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
    """Fixed-rate solves at eps_out 0.1 for burst budgets N = 1..30."""
    return {n: (spec1(eps_out=0.1, n=n), solve_fixed(spec1(eps_out=0.1, n=n),
                                                     AnnealingSchedule(seed=1)))
            for n in range(1, 31)}


@pytest.mark.parametrize("n", [8, 10, 12])
def test_fixed_deep_burst_budget_reaches_plateau(deep_budget_results, n):
    s, res = deep_budget_results[n]
    rep = evaluate_fixed(res.best_policy, s)
    assert rep.feasible
    assert res.best_avg_power == pytest.approx(rep.avg_power, abs=1e-10)
    assert res.best_avg_power == pytest.approx(PLATEAU_PBAR, abs=1e-3)


def test_fixed_power_non_increasing_in_burst_budget(deep_budget_results):
    # every solve here is certified optimal by the Lagrangian pass, so a
    # deeper budget lowers the power or ties it to rounding
    powers = [deep_budget_results[n][1].best_avg_power for n in range(1, 31)]
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(powers, powers[1:])), powers


def test_fixed_reaches_the_n1_corner_optimum():
    # eps_1 = eps_out and eps_0 on its loss budget: 0.8/(-ln(31/40)) + 0.2/(-ln(9/10))
    res = solve_fixed(spec1(eps_out=0.1), AnnealingSchedule(seed=1))
    assert res.best_avg_power == pytest.approx(5.036825427107048, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("n", [3, 6, 10])
def test_fixed_solves_a_peak_floor_just_below_gamma(n):
    # the outage at peak power is 0.255, just below gamma 0.26: the optimum
    # puts eps = gamma in every state, -1/ln(0.74) W
    s = spec1(eps_out=0.35, gamma=0.26, n=n, peak=-1.0 / math.log1p(-0.255))
    res = solve_fixed(s, AnnealingSchedule(seed=1))
    assert evaluate_fixed(res.best_policy, s).feasible
    assert res.best_avg_power == pytest.approx(3.3210996, rel=1e-7, abs=0.0)


def test_fixed_reaches_the_plateau_at_a_deep_burst_budget():
    s = spec1(eps_out=0.1, n=100)
    res = solve_fixed(s, AnnealingSchedule(seed=1))
    assert evaluate_fixed(res.best_policy, s).feasible
    assert res.best_avg_power == pytest.approx(PLATEAU_PBAR, rel=1e-8, abs=0.0)


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
        # every row the search evaluates with a finite power is a feasible
        # table, and that power (in units of N0/Omega) is its average power
        search = _FixedSearch(s)
        e, rates, power = search.tables(np.random.default_rng(trial).random((200, s.n_states + 1)))
        feasible = np.flatnonzero(power < np.inf)
        for j in feasible:
            rep = evaluate_fixed(make_policy(e[j], rates[j], ch), s)
            assert rep.feasible, (trial, rep.violated)
            assert power[j] * search.unit == pytest.approx(rep.avg_power, rel=1e-9)
        accepted += feasible.size
    assert accepted > 0 and empty_box > 0


@pytest.mark.parametrize("n", [1, 2, 3, 10, 30, 100])
def test_fixed_price_is_the_average_power_of_its_table(n):
    # the fixed search prices a row as cycle cost over cycle length, with no
    # stationary vector; that is the average power over the product-form pi
    # of the row's table, and inf exactly where eps_0 has no room
    rng = np.random.default_rng(100 + n)
    feasible = infeasible = 0
    for trial in range(4):
        ch = ChannelModel(
            mean_fading_power=float(rng.uniform(0.5, 2.0)),
            noise_power=float(rng.uniform(0.5, 2.0)),
        )
        s = ProblemSpec(
            gamma=0.7 if trial == 0 else float(rng.uniform(0.2, 0.7)), n_states=n,
            eps_out=float(rng.uniform(0.05, 0.6)), avg_rate=float(rng.choice([0.5, 1.0, 2.0])),
            r_min=0.001, r_max=max_rate(100.0, ch), peak_power=100.0, channel=ch,
        )
        search = _FixedSearch(s)
        u = rng.random((60, n + 1))
        # coordinates at 0 put a state at lo, and at 1 at the guard band
        # 1 - DELTA (eps_out at state N, eps_0 at its upper bound)
        u[rng.random(u.shape) < 0.2] = 0.0
        u[rng.random(u.shape) < 0.2] = 1.0
        u[:2, 1:-1] = 1.0
        u[2:4, 2:-1] = 1.0
        u[4:6, 1:] = 0.0
        u[4:6, 0] = 1.0
        # eps_0 = eps_1 = 1 - DELTA: at gamma 0.7 ub = lb, a feasible row
        u[6:8] = 0.0
        u[6:8, :2] = 1.0
        e, rates, price = search.tables(u)
        assert np.array_equal(rates, np.full(u.shape, s.avg_rate))
        # eps_0 has room exactly where its bounds min(odds/L_1, 1 - DELTA)
        # and max(lo, eps_1) do not cross, L_1 = 1 + eps_1(1 + ... +
        # eps_{N-1}/(1 - eps_N)) summed here from the returned table
        odds = s.gamma / (1.0 - s.gamma)
        room = np.empty(len(u), dtype=bool)
        for j, row in enumerate(e.tolist()):
            length = 1.0 / (1.0 - row[-1])
            for x in row[-2:0:-1]:
                length = 1.0 + x * length
            room[j] = min(odds / length, 1.0 - DELTA) >= max(search.lo, row[1])
        assert np.array_equal(np.isinf(price), ~room), trial
        if trial == 0:
            assert room[6] and price[6] < np.inf
        for j in np.flatnonzero(room):
            pol = make_policy(e[j], rates[j], ch)
            want = average_power(pol.powers, steady_state_for(pol.eps))
            assert price[j] * search.unit == pytest.approx(want, rel=1e-13, abs=0.0), (trial, j)
        feasible += int(room.sum())
        infeasible += int((~room).sum())
    assert feasible > 0 and infeasible > 0


def test_draw_budget_is_capped(monkeypatch):
    # the fixed-rate solver shares the row cap: no batch starts once
    # _MAX_ROWS rows are evaluated, so with the cap below the first
    # exploration round a solve at N = 3 evaluates that round and its 7
    # starts (the Lagrangian pass's table and 6 exploration rows; the pass
    # certifies its table, so the family does not run)
    monkeypatch.setattr(annealer, "_MAX_ROWS", 2000)
    res = solve_fixed(spec1(n=3), LIGHT)
    assert res.evaluated_count == 4096 + 7
    assert res.trace == ()
    assert evaluate_fixed(res.best_policy, spec1(n=3)).feasible


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
    pi = product_form(e)
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
    # the closed form pins eps_1 = eps_out, so it is a bound, not an optimum
    assert res.best_avg_power < n1_variable_search(s)[1]


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
        np.testing.assert_allclose(product_form(e)[:, 0], 1.0 / (1.0 + x), rtol=1e-12)


def test_tail_sum_is_the_weighted_sum_of_its_terms():
    rng = np.random.default_rng(12)
    for n in (1, 2, 5, 12):
        tail = rng.uniform(DELTA, 1.0 - DELTA, size=(30, n))
        w = np.ones((30, n))
        w[:, 1:] = np.cumprod(tail[:, :-1], axis=1)
        w[:, -1] /= 1.0 - tail[:, -1]
        np.testing.assert_allclose(_tail_sum(tail.T), w.sum(axis=1), rtol=1e-12)
        # with a cost per state, the same pass carries the weighted cost sum
        cost = rng.uniform(0.1, 10.0, size=(30, n))
        length, total = _tail_sum(tail.T, cost.T)
        np.testing.assert_array_equal(length, _tail_sum(tail.T))
        np.testing.assert_allclose(total, (w * cost).sum(axis=1), rtol=1e-12)


@pytest.mark.parametrize("n", [1, 3, 10])
def test_results_do_not_depend_on_the_block_size(monkeypatch, n):
    # every batch is built and evaluated in blocks of about _BLOCK_ELEMENTS
    # outages; smaller blocks change no result, count or trace sample
    s = spec1(eps_out=0.1, n=n)
    for solver in (solve_fixed, solve_variable):
        a = solver(s, LIGHT)
        monkeypatch.setattr(annealer, "_BLOCK_ELEMENTS", 1000)
        b = solver(s, LIGHT)
        monkeypatch.undo()
        assert a == b, solver.__name__


def reference_sigmoid(z):
    """annealer._sigmoid as one expression, through np.clip."""
    floor = annealer._LOGIT_FLOOR
    return np.clip((1.0 / (1.0 + np.exp(-z)) - floor) / (1.0 - 2.0 * floor), 0.0, 1.0)


def reference_polish(search, u, trace):
    """annealer._polish as it was first written.

    Every move row is built in full, with all of its coordinates put
    through the logistic; _Search.powers selects each batch's cheapest row
    (and with it the running best), and the accepted rows are built again.
    """
    lim, offsets = annealer._LOGIT_MAX, annealer._OFFSETS
    v = u * (1.0 - 2.0 * annealer._LOGIT_FLOOR) + annealer._LOGIT_FLOOR
    z = np.clip(np.log(v) - np.log1p(-v), -lim, lim)
    power = search.powers(len(z), lambda a, b: reference_sigmoid(z[a:b]))[0]
    moves = z.shape[1] * offsets.size
    step = np.full(len(z), annealer._STEP)
    while (live := np.flatnonzero(step >= annealer._MIN_STEP)).size \
            and search.evaluated < annealer._MAX_ROWS:

        def move(r, live=live):
            s, m = np.divmod(r, moves)
            d, o = np.divmod(m, offsets.size)
            cand = z[live[s]]
            cand[np.arange(r.size), d] += step[live[s]] * offsets[o]
            return np.clip(cand, -lim, lim, out=cand)

        p = search.powers(live.size * moves,
                          lambda a, b: reference_sigmoid(move(np.arange(a, b))))[0]
        p = p.reshape(live.size, moves)
        j = np.argmin(p, axis=1)
        low = p[np.arange(live.size), j]
        better = low < power[live] * (1.0 - annealer._TOL)
        z[live[better]] = move(np.flatnonzero(better) * moves + j[better])
        power[live[better]] = low[better]
        trace.append((float(step[live].max()), float(low.min()) * search.unit,
                      search.best * search.unit))
        step[live[~better]] /= 4.0
        step[(step < annealer._STEP) & (power > power.min() * (1.0 + annealer._DROP))] = 0.0
    return power


def polish_cases():
    """(spec, row cap or None, solvers the cap stops inside a polish).

    36 random specs, two deep ones and three capped ones.
    """
    both = (solve_fixed, solve_variable)
    rng = np.random.default_rng(15)
    cases = [(random_spec(rng), None, ()) for _ in range(36)]
    # at N >= 60 the moves of 5 or more starts span several blocks
    cases += [(spec1(eps_out=0.1, n=60), None, ()),
              (replace(random_spec(rng), n_states=64), None, ())]
    # caps between the first polish iterations of these specs.  At N = 10
    # and gamma 0.2 the Lagrangian pass certifies its table, and the
    # fixed-rate search ends (7618 rows) before the cap, where the
    # variable-rate one is polishing; at gamma 0.65 the pass leaves a gap
    # and the fixed-rate search runs the family as the variable-rate one does
    cases += [(spec1(eps_out=0.1, n=3), 7000, both),
              (spec1(eps_out=0.1, n=10), 9000, (solve_variable,)),
              (spec1(eps_out=0.1, gamma=0.65, n=10), 9000, both)]
    return cases


@pytest.mark.parametrize("index", range(41))
def test_polish_equals_the_reference_polish(monkeypatch, index):
    # the polish builds each batch of moves from its starts' rows, puts only
    # the moved coordinate through the logistic and selects from the batch
    # itself; every result, count and trace sample is the reference's
    spec, cap, stopped = polish_cases()[index]
    if cap is not None:
        monkeypatch.setattr(annealer, "_MAX_ROWS", cap)
    for solver in (solve_fixed, solve_variable):
        try:
            got = solver(spec, AnnealingSchedule(seed=index))
        except ValueError as exc:  # NoFeasibleSolution or an empty window
            got = repr(exc)
        with monkeypatch.context() as m:
            m.setattr(annealer, "_polish", reference_polish)
            try:
                want = solver(spec, AnnealingSchedule(seed=index))
            except ValueError as exc:
                want = repr(exc)
        assert got == want, solver.__name__
        if solver in stopped:
            # the cap stopped the search inside a polish
            assert got.evaluated_count >= cap and got.trace, solver.__name__


def test_memory_of_one_draw_is_bounded(monkeypatch):
    # batches are built and evaluated in blocks, so the memory of a solve
    # does not grow with N.  Stacked, the family at N = 200 would take
    # 257 * 200 rows of 201 outages (79 MiB), and one polish batch 8 * 201
    # moves of 201 outages per start; a block is 1 MiB.  The row cap stops
    # each solve after the first round's first polish iteration; the
    # fixed-rate search runs no family here (the Lagrangian pass certifies
    # its table), so its first round starts at row 0.
    n = 200
    caps = {solve_fixed: 4096 + 8, solve_variable: (n + 4) * 257 + 4096 + 8}
    for solver in (solve_fixed, solve_variable):
        monkeypatch.setattr(annealer, "_MAX_ROWS", caps[solver])
        tracemalloc.start()
        try:
            res = solver(spec1(eps_out=0.1, n=n), LIGHT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.trace) == 1
        assert peak <= 32 * 2**20, (solver.__name__, peak)


# solve_variable at gamma 0.2, eps_out 0.1, R 1, P_m 100 W, schedule
# AnnealingSchedule(seed=seed): (power, eps, rates, accepted,
# feasible, evaluated).  Pinned exactly so that a change of the search, or
# of its use of the RNG stream (the feasible and evaluated counts), is
# seen.  The family holds the best table at N = 1 and 3, so both seeds end
# there; N = 3 puts eps_1, eps_2 at 1 - DELTA and sends r_max there.  The
# power is average_power over the product-form pi of markov.product_form,
# which differs from the dense solve of markov.steady_state in the last
# bit at N = 3.
VARIABLE_GOLDEN = {
    (1, 3): (3.8817103647846247, (0.2486105411219986, 0.005557835512005656),
             (1.2497499999999997, 0.001), 5, 5238, 6780),
    (1, 11): (3.8817103647846247, (0.2486105411219986, 0.005557835512005656),
              (1.2497499999999997, 0.001), 5, 5211, 6764),
    (3, 3): (1.9255384138424136,
             (0.08321660588104696, 0.999999, 0.999999, 0.00419343216389656),
             (0.14176946553667102, RMAX100, RMAX100, 0.001), 5, 7875, 9454),
    (3, 11): (1.9255384138424136,
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
    res = solve_variable(spec1(eps_out=0.1, n=n), AnnealingSchedule(seed=seed))
    got = (res.best_avg_power, tuple(map(float, res.best_policy.eps)),
           tuple(map(float, res.best_policy.rates)),
           res.accepted_count, res.feasible_count, res.evaluated_count)
    assert got == VARIABLE_GOLDEN[n, seed]
    assert (len(res.trace), res.trace[0], res.trace[-1]) == VARIABLE_TRACE[n, seed]


# solve_fixed at gamma 0.2, eps_out 0.1, R 1, P_m 100 W, schedule
# AnnealingSchedule(seed=seed): (power, eps, accepted, feasible, evaluated,
# trace length), pinned exactly as VARIABLE_GOLDEN is.  At every N here the
# Lagrangian pass closes its gap (below 1e-13), so the search runs no
# family, polishes the pass's table beside one round of exploration rows,
# and returns the pass's table; the seed moves only the counts and the
# trace.  Every table is in the power order.  At N = 1 the table is the
# corner optimum (eps_1 = eps_out, eps_0 on its loss budget); N = 25 is
# deeper than the benchmark's N <= 10, and its outages rise from eps_out
# at state N to the plateau's gamma.  As in VARIABLE_GOLDEN, the power is
# summed over the product-form pi.
_N3_TABLE = (0.20130763424256315, 0.1995223214289495, 0.1910675787248478, 0.1)
_N10_TABLE = (0.20000004672475497, 0.20000002471070252, 0.1999999146405327, 0.19999936429141915,
              0.1999966125863631, 0.19998285505942953, 0.19991409230238266, 0.199570898953008,
              0.197870299487555, 0.1897345363278071, 0.1)
_N25_TABLE = (0.2, 0.2, 0.2, 0.19999999999999996, 0.19999999999999987, 0.19999999999999943,
              0.19999999999999718, 0.19999999999998594, 0.19999999999992957, 0.1999999999996478,
              0.1999999999982389, 0.1999999999911944, 0.19999999995597204, 0.19999999977986016,
              0.19999999889930087, 0.19999999449650438, 0.19999997248252438, 0.19999986241268847,
              0.19999931206510035, 0.19999656036695282, 0.1999828028709647, 0.1999140402505895,
              0.19957084749281156, 0.1978702504964437, 0.18973449669404846, 0.1)
FIXED_GOLDEN = {
    (1, 3): (5.036825427107048, (0.22499999999999998, 0.1), 2, 5191, 5191, 10),
    (1, 11): (5.036825427107048, (0.22499999999999998, 0.1), 2, 5191, 5191, 10),
    (3, 3): (4.4989797836933505, _N3_TABLE, 3, 4672, 8455, 27),
    (3, 11): (4.4989797836933505, _N3_TABLE, 3, 4828, 8519, 28),
    (10, 3): (4.4814203377528985, _N10_TABLE, 2, 12194, 17123, 79),
    (10, 11): (4.4814203377528985, _N10_TABLE, 2, 3440, 7882, 35),
    (25, 3): (4.48142011772455, _N25_TABLE, 1, 1113, 5969, 9),
    (25, 11): (4.48142011772455, _N25_TABLE, 1, 1113, 5969, 9),
}


@pytest.mark.parametrize("n, seed", sorted(FIXED_GOLDEN))
def test_fixed_results_are_pinned(n, seed):
    res = solve_fixed(spec1(eps_out=0.1, n=n), AnnealingSchedule(seed=seed))
    got = (res.best_avg_power, tuple(map(float, res.best_policy.eps)),
           res.accepted_count, res.feasible_count, res.evaluated_count, len(res.trace))
    assert got == FIXED_GOLDEN[n, seed]
    assert check_power_ordering(res.best_policy.powers)
    assert 0.0 <= res.best_avg_power - res.lower_bound <= 1e-13 * res.best_avg_power


def test_lambert_w0_matches_scipy():
    # W_0 on [-1/e, 0), with points within 1e-12 of the branch point.  There
    # W_0 is ill-conditioned: its relative condition number is 1/(1 + W_0),
    # about 4e5 at -1/e + 1e-12, so the rounding of any double routine is
    # scaled by it (scipy's own value there is 3e-11 from the exact one);
    # the tolerance is 1e-14 relative times that factor, 1e-14 away from -1/e
    from scipy.special import lambertw

    x = np.concatenate([
        np.linspace(-1.0 / math.e, 0.0, 4001)[1:-1],
        -1.0 / math.e + np.geomspace(1e-15, 1e-12, 40),
        -np.geomspace(1e-300, 0.3, 400),
    ])
    for xi in x:
        want = lambertw(xi).real
        got = annealer._lambert_w0(float(xi))
        cond = max(1.0, 1.0 / (1.0 + want))
        assert abs(got - want) <= 1e-14 * cond * abs(want), (xi, got, want)


def random_fixed_spec(rng):
    """A fixed-rate spec drawn as the random sets of the roadmap draw them, channel aside."""
    ch = ChannelModel(mean_fading_power=float(rng.uniform(0.5, 2.0)),
                      noise_power=float(rng.uniform(0.5, 2.0)))
    peak = float(np.exp(rng.uniform(math.log(2.0), math.log(316.0))))
    return ProblemSpec(
        gamma=float(rng.uniform(0.02, 0.7)), n_states=int(rng.integers(1, 13)),
        eps_out=float(rng.uniform(0.01, 0.7)), avg_rate=float(rng.choice([0.5, 1.0, 2.0])),
        r_min=0.001, r_max=max_rate(peak, ch), peak_power=peak, channel=ch,
    )


def test_lagrangian_pass_agrees_with_the_certificates():
    # the pass finds no table exactly where solve_fixed's certificates
    # refuse the spec before searching; every table it finds passes
    # evaluate_fixed, and the solve ends at or below it, above the dual
    rng = np.random.default_rng(2027)
    refused = solved = 0
    for trial in range(120):
        s = random_fixed_spec(rng)
        search = _FixedSearch(s)
        table, power, dual = annealer._lagrangian_pass(
            2.0**s.avg_rate - 1.0, search.floor, search.top, s.n_states, s.gamma)
        try:
            res = solve_fixed(s, LIGHT)
        except ValueError as exc:
            assert getattr(exc, "evaluated_count", 0) == 0, trial
            assert table is None, trial
            refused += 1
            continue
        assert table is not None, trial
        pol = make_policy(table, (s.avg_rate,) * len(table), s.channel)
        rep = evaluate_fixed(pol, s)
        assert rep.feasible, (trial, rep.violated)
        assert rep.avg_power == pytest.approx(power * search.unit, rel=1e-12, abs=0.0), trial
        assert res.best_avg_power <= rep.avg_power, trial
        assert dual * search.unit <= rep.avg_power * (1.0 + 1e-12), trial
        assert res.lower_bound <= res.best_avg_power, trial
        solved += 1
    assert refused > 0 and solved > 0


@pytest.mark.parametrize("passes", [1, 2, 3])
def test_lagrangian_dual_is_a_bound_when_dinkelbach_stops_early(monkeypatch, passes):
    # the dual stays below the optimum when the Dinkelbach steps are cut
    # short: it is built from each step's value V_0, not from the ratio of
    # the last table, which lies above lambda(mu) until the steps converge
    rng = np.random.default_rng(31)
    checked = 0
    for trial in range(40):
        s = random_fixed_spec(rng)
        search = _FixedSearch(s)
        args = (2.0**s.avg_rate - 1.0, search.floor, search.top, s.n_states, s.gamma)
        table, power, dual = annealer._lagrangian_pass(*args)
        if table is None or power - dual > 1e-13 * power:
            continue  # only a closed gap pins the optimum
        with monkeypatch.context() as m:
            m.setattr(annealer, "_DINKELBACH_PASSES", passes)
            cut = annealer._lagrangian_pass(*args)[2]
        assert cut <= power * (1.0 + 1e-14), (trial, cut, power)
        checked += 1
    assert checked >= 10


def test_fixed_meets_every_reference_with_a_certified_gap():
    # every fixed-rate case of the benchmark's reference table: the solve
    # lies at or below p_ref (differential evolution and a zoomed grid) and
    # within 1e-12 of its own lower bound, the Lagrangian dual
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    sp = data["spec"]
    ch = ChannelModel(mean_fading_power=sp["mean_fading_power"], noise_power=sp["noise_power"])
    cases = {k: c for k, c in data["cases"].items() if c["problem"] == "fixed"}
    assert len(cases) == 23
    for key, case in cases.items():
        s = ProblemSpec(gamma=sp["gamma"], n_states=case["n"], eps_out=case["eps_out"],
                        avg_rate=sp["rate"], r_min=sp["r_min"], r_max=sp["r_max"],
                        peak_power=sp["peak_power_w"], channel=ch)
        res = solve_fixed(s, LIGHT)
        assert res.best_avg_power <= case["p_ref"] * (1.0 + 1e-12), key
        assert 0.0 <= res.best_avg_power - res.lower_bound <= 1e-12 * res.best_avg_power, key
    assert solve_variable(spec1(), LIGHT).lower_bound is None


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
        pi = product_form(e)
        coef = s.channel.noise_power / (-np.log1p(-e) * s.channel.mean_fading_power)
        lc, rcap, ok = _rate_caps(coef, pi, s)
        rates = _water_fill(lc, rcap, pi, s)
        ref_rates, ref_ok = gather_water_fill(coef, pi, s)
        assert np.array_equal(ok, ref_ok), trial
        assert np.array_equal(rates, ref_rates), trial


@pytest.mark.parametrize("a", [0.25, 8.0])
def test_scaling_noise_and_peak_power_scales_the_power(a):
    # N0 -> a N0 and P_m -> a P_m with r_max fixed scale every power by a
    # and move no outage.  a is a power of two, so the fixed-rate arithmetic
    # scales exactly; the water-filling shifts log2 c_i by log2 a, which
    # rounds, so variable-rate rates and powers agree to rounding only.
    schedule = AnnealingSchedule(seed=4)
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
