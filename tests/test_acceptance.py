"""End-to-end acceptance checks with explicit wall-clock budgets.

Each test pins one headline guarantee: numeric precision of the outage
inversion, equivalence of the two steady-state routes, the two-state
closed-form reference point, annealer quality against N=1 oracles,
Monte-Carlo consistency, the burst-budget power curves, and bit-exact
solver determinism with always-feasible output.
"""

import math
import time

import numpy as np
import pytest

from fadepower.annealer import (
    AnnealingSchedule,
    NoFeasibleSolution,
    solve_fixed,
    solve_variable,
)
from fadepower.channel import ChannelModel, max_rate, outage_probability, power_for_outage
from fadepower.closed_form import (
    n1_epsilon0,
    n1_fixed_solution,
    n1_steady,
    n1_variable_search,
)
from fadepower.markov import (
    achieved_loss_rate,
    build_transition_matrix,
    steady_state,
    steady_state_for,
)
from fadepower.policy import (
    ProblemSpec,
    evaluate_fixed,
    evaluate_variable,
    make_policy,
)
from fadepower.simulator import simulate

CH = ChannelModel()
RMAX100 = max_rate(100.0, CH)

# 40-digit references: 0.8/(-ln(31/40)) + 0.2/(-ln(9/10)) and -1/ln(4/5)
FIXED_PBAR_01 = 5.036825427107048
PLATEAU_PBAR = 4.481420117724550


def spec1(eps_out, gamma=0.2, rate=1.0, n=1, peak=100.0, r_max=RMAX100,
          channel=CH, r_min=0.001):
    return ProblemSpec(
        gamma=gamma, n_states=n, eps_out=eps_out, avg_rate=rate,
        r_min=r_min, r_max=r_max, peak_power=peak, channel=channel,
    )


def test_outage_power_roundtrip_precision():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    eps = np.concatenate([
        10.0 ** rng.uniform(-9, -0.001, 5000),
        1.0 - 10.0 ** rng.uniform(-9, -0.35, 5000),
    ])
    rates = rng.uniform(1e-3, 10.0, eps.size)
    worst = 0.0
    for e, r in zip(eps, rates):
        back = outage_probability(power_for_outage(e, r, CH), r, CH)
        worst = max(worst, abs(back - e) / e)
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 1.0


def test_steady_state_linear_solve_matches_product_form():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        eps = rng.uniform(0.001, 0.999, n + 1)
        pi = steady_state_for(eps)
        assert np.max(np.abs(pi - steady_state(build_transition_matrix(eps)))) < 1e-10
        if n == 1:
            exact = n1_steady(float(eps[0]), float(eps[1]))
            assert abs(pi[0] - exact[0]) < 1e-12
            assert abs(pi[1] - exact[1]) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0


def test_two_state_closed_form_reference_point():
    assert n1_epsilon0(0.2, 0.1) == pytest.approx(0.225, abs=1e-13)
    pi = n1_steady(0.225, 0.1)
    assert pi == pytest.approx((0.8, 0.2), abs=1e-13)
    assert achieved_loss_rate([0.225, 0.1], pi) == pytest.approx(0.2, abs=1e-13)
    _, avg = n1_fixed_solution(spec1(0.1))
    # exact weighted power, and the same value at the looser precision at
    # which it is usually quoted (5.0368 ~ 5.03686)
    assert avg == pytest.approx(FIXED_PBAR_01, abs=1e-5)
    assert avg == pytest.approx(5.03686, abs=5e-5)


def test_fixed_annealer_reaches_plateau_optimum():
    start = time.perf_counter()
    for i, eps_out in enumerate((0.2, 0.25, 0.3)):
        res = solve_fixed(spec1(eps_out), AnnealingSchedule(seed=10 + i))
        assert abs(res.best_avg_power / PLATEAU_PBAR - 1.0) < 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


def test_fixed_annealer_matches_grid_oracle_in_bursty_region(n1_fixed_optimum):
    start = time.perf_counter()
    for i, eps_out in enumerate((0.05, 0.10, 0.15)):
        s = spec1(eps_out)
        oracle = n1_fixed_optimum(s)  # a polished 2-D grid
        res = solve_fixed(s, AnnealingSchedule(seed=20 + i))
        assert abs(res.best_avg_power / oracle - 1.0) < 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


def test_variable_annealer_beats_or_matches_oracles():
    start = time.perf_counter()
    s = spec1(0.1)
    res = solve_variable(s, AnnealingSchedule(seed=30))
    _, var_oracle = n1_variable_search(s, 2001)
    _, fixed_pbar = n1_fixed_solution(s)
    assert res.best_avg_power <= var_oracle
    assert res.best_avg_power <= fixed_pbar
    assert var_oracle <= fixed_pbar
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


def test_monte_carlo_agrees_with_chain_statistics():
    start = time.perf_counter()
    slots = 10**6
    pol = make_policy([0.225, 0.1], [1.0, 1.0], CH)
    rep = simulate(pol, CH, slots, 2718)
    pi = steady_state_for(pol.eps)
    gamma_r = achieved_loss_rate(pol.eps, pi)
    assert abs(rep.empirical_gamma - gamma_r) < 4 * math.sqrt(gamma_r * (1 - gamma_r) / slots)
    for occ, p in zip(rep.occupancy, pi):
        assert abs(occ - p) < 4 * math.sqrt(p * (1 - p) / slots)
    for e, c, losses in zip(pol.eps, rep.state_slots, rep.state_losses):
        assert abs(losses / c - e) < 4 * math.sqrt(e * (1 - e) / c)
    p_bar = float(np.dot(pol.powers, pi))
    p_sd = math.sqrt(float(np.dot(np.square(pol.powers), pi)) - p_bar**2)
    assert abs(rep.avg_power - p_bar) < 4 * p_sd / math.sqrt(slots)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0


def test_deeper_burst_budgets_cut_power_and_curves_merge():
    start = time.perf_counter()
    grid = [round(0.02 + 0.02 * k, 10) for k in range(20)]  # 0.02 .. 0.40
    curves = {}
    for n in (1, 2, 3):
        row = {}
        for eps_out in grid:
            res = solve_fixed(spec1(eps_out, n=n), AnnealingSchedule(seed=40 + n))
            row[eps_out] = res.best_avg_power
        curves[n] = row
    # a deeper burst budget never costs more power (up to the search's slack)
    assert curves[3][0.02] <= curves[2][0.02] * 1.05
    assert curves[2][0.02] <= curves[1][0.02] * 1.05
    # past the knee all burst depths converge to the same plateau
    at_03 = [curves[n][0.3] for n in (1, 2, 3)]
    assert max(at_03) / min(at_03) < 1.05
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0


def test_solvers_deterministic_and_always_feasible():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    solved = failed = 0
    for trial in range(100):
        ch = ChannelModel(
            mean_fading_power=float(rng.uniform(0.5, 2.0)),
            noise_power=float(rng.uniform(0.5, 2.0)),
        )
        peak = float(rng.choice([20.0, 100.0]))
        s = ProblemSpec(
            gamma=float(rng.uniform(0.05, 0.5)),
            n_states=int(rng.integers(1, 5)),
            eps_out=float(rng.uniform(0.02, 0.6)),
            avg_rate=float(rng.uniform(0.25, 2.0)),
            r_min=0.001,
            r_max=max_rate(peak, ch),
            peak_power=peak,
            channel=ch,
        )
        sched = AnnealingSchedule(seed=int(rng.integers(2**32)))
        solver = solve_fixed if trial % 2 == 0 else solve_variable
        evaluator = evaluate_fixed if trial % 2 == 0 else evaluate_variable
        try:
            first = solver(s, sched)
        except (NoFeasibleSolution, ValueError) as exc:
            with pytest.raises(type(exc), match=str(exc).split(" after ")[0]):
                solver(s, sched)
            failed += 1
            continue
        assert solver(s, sched) == first
        assert evaluator(first.best_policy, s).feasible
        solved += 1
    assert solved > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
