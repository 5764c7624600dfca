import math
import time

import numpy as np
import pytest

from fadepower.annealer import (
    AnnealingSchedule,
    NoFeasibleSolution,
    _fixed_draw,
    _steady_rows,
    _variable_draw,
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
    assert solve_fixed(s, AnnealingSchedule(t0=50.0, t_min=0.5, seed=5)) != a or True


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
        if floor > s.gamma / (1.0 - s.gamma):
            # gamma_r >= min eps >= floor > gamma/(1 - gamma) > gamma
            with pytest.raises(NoFeasibleSolution) as exc:
                solve_fixed(s, LIGHT)
            assert exc.value.evaluated_count == 0
            empty_box += 1
            continue
        rows, ok, pbar, table = _fixed_draw(s, np.random.default_rng(trial))(200)
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
    rng = np.random.default_rng(4242)
    seen = dict.fromkeys(("feasible", "all r_min", "capped", "peak below r_min", "C1 out of reach"), 0)
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
        rows, ok, pbar, table = _variable_draw(s, np.random.default_rng(trial))(400)
        assert rows == 400 and ok == np.count_nonzero(np.isfinite(pbar))
        for j in range(pbar.size):
            e, r = table(j)
            pi, _, cap = _rate_bounds(e, s)
            if cap.min() < s.r_min or np.dot(pi, cap) < s.avg_rate:
                assert pbar[j] == np.inf, trial
                seen["peak below r_min"] += cap.min() < s.r_min
                seen["C1 out of reach"] += np.dot(pi, cap) < s.avg_rate
                continue
            assert _kkt_violations(e, r, s) == [], trial
            rep = evaluate_variable(make_policy(e, r, ch), s)
            assert rep.feasible, (trial, rep.violated)
            assert pbar[j] == pytest.approx(rep.avg_power, rel=1e-9)
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
    r, ok = _water_fill(coef, pi, spec1(eps_out=0.1, n=n))
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
