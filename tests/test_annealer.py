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
    _order_may_hold,
    _sort_states,
    _sorting_network,
    _spread,
    _steady_rows,
    _tail_sum,
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


def reference_fixed_draw(s, rng, rows):
    """Fixed-rate powers by the direct cumprod/einsum formulas.

    Reads the RNG stream as _fixed_draw does: per row the eps_0 fraction
    t, then eps_1..eps_N unsorted (the last one under min(eps_out, cap)).
    """
    ch, n = s.channel, s.n_states
    k_power = (2.0**s.avg_rate - 1.0) * ch.noise_power / ch.mean_fading_power
    odds = s.gamma / (1.0 - s.gamma)
    lo = max(DELTA, -math.expm1(-k_power / s.peak_power))
    highs = np.full(n, min(1.0 - DELTA, odds))
    highs[-1] = min(s.eps_out, highs[-1])
    u = rng.random((rows, n + 1))
    t = u[:, 0]
    tail = np.sort(lo + u[:, 1:] * (highs - lo), axis=1)[:, ::-1]
    w = np.ones((rows, n))
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


def reference_variable_draw(s, rng, rows):
    """Variable-rate powers with C2 tested as sum_i eps_i pi_i <= gamma on every row.

    Fresh arrays throughout, and the take_along_axis water-filling, so the
    buffered draw is compared with code it does not share.
    """
    ch = s.channel
    highs = np.full(s.n_states + 1, 1.0 - DELTA)
    highs[-1] = min(s.eps_out, highs[-1])
    e = DELTA + rng.random((rows, s.n_states + 1)) * (highs - DELTA)
    pi = _steady_rows(e)
    surv = np.nonzero(np.einsum("ij,ij->i", e, pi) <= s.gamma)[0]
    e, pi = e[surv], pi[surv]
    coef = ch.noise_power / (-np.log1p(-e) * ch.mean_fading_power)
    rates, ok = gather_water_fill(coef, pi, s)
    pbar = np.einsum("ij,ij->i", coef * (np.exp2(rates) - 1.0), pi)
    pbar[~ok] = np.inf
    return pbar, e


def test_draws_match_the_direct_formulas():
    rng = np.random.default_rng(77)
    compared = 0
    for trial in range(40):
        s = random_spec(rng)
        rows, ok, pbar, table = _variable_draw(s, np.random.default_rng(trial))(300)
        ref, e = reference_variable_draw(s, np.random.default_rng(trial), 300)
        assert rows == 300 and ok == np.count_nonzero(np.isfinite(ref))
        # the same rows survive C2 and get bit-identical powers
        assert np.array_equal(pbar, ref), trial
        assert all(np.array_equal(table(j)[0], e[j]) for j in range(e.shape[0]))
        try:
            draw = _fixed_draw(s, np.random.default_rng(trial))
        except NoFeasibleSolution:
            continue
        rows, ok, pbar, table = draw(300)
        ref, e0, tail = reference_fixed_draw(s, np.random.default_rng(trial), 300)
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

    def solve_both():
        return [solver(s, schedule) for solver in (solve_fixed, solve_variable)]

    default = solve_both()
    monkeypatch.setattr(annealer, "_BLOCK_ELEMENTS", 1000)
    small = solve_both()
    for a, b in zip(default, small):
        assert len(b.trace) > len(a.trace)
        assert (a.best_policy, a.best_avg_power) == (b.best_policy, b.best_avg_power)
        assert (a.evaluated_count, a.feasible_count, a.accepted_count) == (
            b.evaluated_count, b.feasible_count, b.accepted_count)


def test_memory_of_one_draw_is_bounded():
    # both draws reuse block-sized arrays, which must not grow with the step width
    def peak(solver, outer_per_temp):
        schedule = AnnealingSchedule(t0=None, t_min=1.0, c_sa=1e3, outer_per_temp=outer_per_temp)
        tracemalloc.start()
        try:
            solver(spec1(eps_out=0.1, n=3), schedule)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for solver in (solve_fixed, solve_variable):
        assert peak(solver, 524288) <= 1.5 * peak(solver, 65536), solver.__name__


# solve_variable at gamma 0.2, eps_out 0.1, R 1, P_m 100 W, schedule
# AnnealingSchedule(t_min=0.05, seed=seed): (power, eps, rates, accepted,
# feasible, evaluated).  Pinned exactly so that a change of the outage
# draw's use of the RNG stream is seen.
VARIABLE_GOLDEN = {
    (1, 3): (3.8826815811027706, (0.24842597273240816, 0.006114840267714261),
             (1.2497044495830134, 0.001), 8, 35530, 156000),
    (1, 11): (3.887292630495107, (0.24844073584229315, 0.004952143764357382),
              (1.2494274959250553, 0.001), 15, 35696, 157600),
    (3, 3): (3.5490039449978545,
             (0.0903451869839658, 0.9999208231901847, 0.6805816701912104, 0.03654056790624167),
             (0.29208251738509583, 6.658211482751795, 3.8833449306614733, 0.001), 13, 23916, 168200),
    (3, 11): (3.412432059377008,
              (0.08148341484492, 0.9947419539299354, 0.996925970155276, 0.03224263267936975),
              (0.23031332626923628, 6.178552711825849, 6.3190447322738805, 0.001), 19, 24174, 169600),
}


@pytest.mark.parametrize("n, seed", sorted(VARIABLE_GOLDEN))
def test_variable_results_are_pinned(n, seed):
    res = solve_variable(spec1(eps_out=0.1, n=n), AnnealingSchedule(t_min=0.05, seed=seed))
    got = (res.best_avg_power, tuple(map(float, res.best_policy.eps)),
           tuple(map(float, res.best_policy.rates)),
           res.accepted_count, res.feasible_count, res.evaluated_count)
    assert got == VARIABLE_GOLDEN[n, seed]


# solve_fixed at gamma 0.2, eps_out 0.1, R 1, P_m 100 W, schedule
# AnnealingSchedule(t_min=0.05, seed=seed): (power, eps, accepted, feasible,
# evaluated, trace length).  N = 25 pins a deeper sorting network than the
# benchmark's N <= 10.
FIXED_GOLDEN = {
    (1, 3): (5.041405202691562, (0.224994992930875, 0.0997629985937271), 13, 203800, 203800, 4),
    (1, 11): (5.0428588666729315, (0.22496170101165908, 0.09970772968827388), 10, 203600, 203600, 4),
    (3, 3): (4.500607572123446,
             (0.20117468802080626, 0.20106991726680615, 0.18544353841121697, 0.09876516030579027),
             10, 117533, 180800, 6),
    (3, 11): (4.501256475116426,
              (0.20181400315292294, 0.19699393435458415, 0.18954243405086632, 0.09812829645651347),
              11, 117179, 180400, 6),
    (10, 3): (4.481894613762144,
              (0.20032063753695972, 0.1996380227093858, 0.19815875701566138, 0.18351987789007854,
               0.18133612970707866, 0.1515967410720981, 0.11645382578529034, 0.067052888566898,
               0.049750568932076134, 0.027610857686324757, 0.02120384681890205),
              9, 22922, 179200, 16),
    (10, 11): (4.481740359056607,
               (0.2002147126940078, 0.20013669801942457, 0.19616771659543752, 0.19371417008077066,
                0.18276577578277822, 0.17101060748461314, 0.09797470919289562, 0.06323510341762503,
                0.04894904445563963, 0.04506736781945208, 0.03957120080520804),
               7, 22772, 179200, 16),
    (25, 3): (4.481549689162586,
              (0.2001030121798578, 0.20010199756202046, 0.19904862391572134, 0.19283138545634734,
               0.18762075027496886, 0.1711265687525634, 0.16910954613891446, 0.1636060635067941,
               0.14973653894003758, 0.13342501336751567, 0.13146717249663203, 0.12938302737795385,
               0.12865133141704477, 0.1089241551374954, 0.10040114460972575, 0.09988638386692728,
               0.09417297691521231, 0.08820138298370173, 0.07860516515808727, 0.07340205668776911,
               0.05645774727384168, 0.05637219452592521, 0.03897763314243888, 0.03472915726688526,
               0.01910141352632116, 0.011727093199731363),
              8, 677, 179800, 36),
    (25, 11): (4.481793687714672,
               (0.20013117540749456, 0.19992289807573974, 0.19788114729845155, 0.19652028071673278,
                0.19194684006435878, 0.18295150124859674, 0.1755321996849056, 0.1716254521240112,
                0.16736971713688617, 0.1610756968359158, 0.15314632511604864, 0.11684873324737094,
                0.11031519071790807, 0.10795034331595403, 0.1044193332755106, 0.10357150995374838,
                0.0868049752416879, 0.08624433960227966, 0.08521616280761204, 0.08510098662763547,
                0.08287850259679366, 0.06056695567109709, 0.042197982326914976, 0.03295908392205884,
                0.02455428583566801, 0.01252519889216079),
               6, 669, 179200, 36),
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


def row_major_fixed_draw(s, rng, rows):
    """Fixed-rate powers and tables by the row-major kernel.

    np.sort on each row and the Horner sums over strided columns, in the
    same arithmetic order as _fixed_draw, so the results must be equal.
    """
    ch, n = s.channel, s.n_states
    k_power = (2.0**s.avg_rate - 1.0) * ch.noise_power / ch.mean_fading_power
    odds = s.gamma / (1.0 - s.gamma)
    lo = max(DELTA, -math.expm1(-k_power / s.peak_power))
    cap = min(1.0 - DELTA, odds)
    u = rng.random((rows, n + 1))
    t = u[:, 0].copy()
    _spread(u, lo, cap, min(s.eps_out, cap))
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
    for trial in range(40):
        s = random_spec(rng, n_max=30)
        try:
            draw = _fixed_draw(s, np.random.default_rng(trial))
        except NoFeasibleSolution:
            continue
        ref_rng = np.random.default_rng(trial)
        # the draw reuses its buffers: they grow, then a smaller block reuses them
        for rows in (1, 257, 100):
            _, ok, pbar, table = draw(rows)
            ref, eps = row_major_fixed_draw(s, ref_rng, rows)
            assert np.array_equal(pbar, ref), trial
            assert ok == np.count_nonzero(np.isfinite(ref))
            # table(j) is defined for the feasible rows, which _search asks for
            assert all(np.array_equal(table(j)[0], eps[j]) for j in np.flatnonzero(np.isfinite(ref)))


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
        rates, ok = _water_fill(coef, pi, s)
        ref_rates, ref_ok = gather_water_fill(coef, pi, s)
        assert np.array_equal(ok, ref_ok), trial
        assert np.array_equal(rates, ref_rates), trial


def row_major_order_bounds(tail, lo, odds):
    """ub and lb of sorted row-major tails, W_1 by the row-major Horner pass."""
    w1 = 1.0 / (1.0 - tail[:, -1])
    for j in range(tail.shape[1] - 2, -1, -1):
        w1 = w1 * tail[:, j] + 1.0
    return np.minimum(odds / w1, 1.0 - DELTA), np.maximum(tail[:, 0], lo)


def wrongly_dropped(may_hold, keys, lo, odds):
    """Rows of state-major keys that may_hold drops although their ub >= lb."""
    keep = may_hold(keys, lo, odds)
    ub, lb = row_major_order_bounds(np.sort(keys.T, axis=1)[:, ::-1], lo, odds)
    return int(np.count_nonzero(~keep & (ub >= lb)))


def square_bound(keys, lo, odds):
    # W_1 >= 1 + m + m*m is not a bound: W_1 is 1 + m(1 + eps_2 + ...)
    m = keys.max(axis=0)
    return odds / (1.0 + m + m * m) >= np.maximum(m, lo)


def ulp_bound(keys, lo, odds):
    # one ulp above 1 + m: W_1 equals 1 + m when the other outages vanish
    m = keys.max(axis=0)
    return odds / np.nextafter(1.0 + m, 2.0) >= np.maximum(m, lo)


def order_edge_rows(rng, n):
    """State-major tails and their (lo, odds) at the edges of the prefilter.

    eps_1 = m steps by single ulps across the root of odds/(1 + m) = m.
    The other outages are 0 (then W_1 = 1 + m exactly), the smallest
    float, lo, m itself (ties), random values below m, or eps_N at
    min(eps_out, cap); gamma runs up to 0.5 (odds 1), and lo from 0 to
    just past the root.
    """
    for gamma in (0.05, 0.2, 0.35, 0.45, 0.5 - 1e-9, 0.5):
        odds = gamma / (1.0 - gamma)
        cap = min(1.0 - DELTA, odds)
        root = (math.sqrt(1.0 + 4.0 * odds) - 1.0) / 2.0
        m = root + np.arange(-16, 17) * np.spacing(root)
        for lo in (0.0, DELTA, float(m[10]), float(m[-1])):
            m_lo = np.maximum(m, lo)
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


def test_prefilter_drops_only_rows_that_break_the_power_order():
    rng = np.random.default_rng(80)
    checked = dropped = 0
    for n in range(2, 31):
        cases = list(order_edge_rows(rng, n)) + [random_order_rows(rng, n) for _ in range(4)]
        for keys, lo, odds in cases:
            assert wrongly_dropped(_order_may_hold, keys, lo, odds) == 0, (n, lo, odds)
            checked += keys.shape[1]
            dropped += int(np.count_nonzero(~_order_may_hold(keys, lo, odds)))
    assert 0 < dropped < checked
    # the test catches bounds tighter than W_1 >= 1 + eps_1: a square term
    # on random rows, a single ulp on the rows at the edge
    random_rows = [random_order_rows(rng, n) for n in range(2, 31) for _ in range(4)]
    assert sum(wrongly_dropped(square_bound, *case) for case in random_rows) > 0
    edge_rows = list(order_edge_rows(rng, 3))
    assert sum(wrongly_dropped(ulp_bound, *case) for case in edge_rows) > 0
