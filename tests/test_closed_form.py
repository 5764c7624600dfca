import math

import numpy as np
import pytest

from fadepower.annealer import AnnealingSchedule, solve_variable
from fadepower.channel import ChannelModel, max_rate
from fadepower.closed_form import (
    n1_epsilon0,
    n1_fixed_solution,
    n1_region,
    n1_variable_search,
    n1_variable_solution,
)
from fadepower.markov import steady_state_for
from fadepower.policy import ProblemSpec, evaluate_fixed, evaluate_variable

CH = ChannelModel()
RMAX100 = max_rate(100.0, CH)

FIXED_PBAR_01 = 5.036825427107048
PLATEAU_PBAR = 4.481420117724550
VAR_PBAR_01 = 4.326287636938557  # boundary solution at r1 = r_min = 0.001


def spec1(eps_out=0.1, gamma=0.2, rate=1.0, r_min=0.001, r_max=RMAX100,
          peak=100.0, n=1):
    return ProblemSpec(
        gamma=gamma,
        n_states=n,
        eps_out=eps_out,
        avg_rate=rate,
        r_min=r_min,
        r_max=r_max,
        peak_power=peak,
        channel=CH,
    )


def test_epsilon0_reference():
    assert n1_epsilon0(0.2, 0.1) == pytest.approx(0.225, abs=1e-15)


def test_epsilon0_infeasible_pair():
    with pytest.raises(ValueError, match="infeasible gamma/eps pair"):
        n1_epsilon0(0.9, 0.1)


def random_specs(seed: int, count: int) -> list[ProblemSpec]:
    """Random N=1 specs: gamma 0.02-0.6, eps_out 0.01-0.7, R in {0.5, 1, 2},
    P_m 2-316 W log-uniform, r_min in {0.001, 0.1, 0.4}, r_max the peak's
    capacity, and a channel whose N0/Omega is 1 for half of them."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(count):
        ch = CH if i % 2 else ChannelModel(mean_fading_power=float(rng.uniform(0.5, 2.0)),
                                           noise_power=float(rng.uniform(0.5, 2.0)))
        peak = float(10.0 ** rng.uniform(math.log10(2.0), 2.5))
        specs.append(ProblemSpec(
            gamma=float(rng.uniform(0.02, 0.6)), n_states=1, eps_out=float(rng.uniform(0.01, 0.7)),
            avg_rate=float(rng.choice([0.5, 1.0, 2.0])), r_min=float(rng.choice([0.001, 0.1, 0.4])),
            r_max=max_rate(peak, ch), peak_power=peak, channel=ch,
        ))
    return specs


def grid_search(spec: ProblemSpec, points: int = 2001) -> float:
    """Power of the cheapest n1_variable_solution on a uniform grid of r1 in [r_min, min(R, r_max)].

    The package's variable-rate closed form before it took its rates from
    the water fill; raises ValueError where no grid point is feasible.
    """
    eps1 = spec.eps_out
    eps0 = n1_epsilon0(spec.gamma, eps1)
    pi0, pi1 = steady_state_for([eps0, eps1])
    lo, hi = spec.r_min, min(spec.avg_rate, spec.r_max)
    if hi < lo:
        raise ValueError("all grid points infeasible")
    r1 = np.linspace(lo, hi, points)
    r0 = (spec.avg_rate - r1 * pi1) / pi0
    unit = spec.channel.noise_power / spec.channel.mean_fading_power
    p0 = unit / -np.log1p(-eps0) * (np.exp2(r0) - 1.0)
    p1 = unit / -np.log1p(-eps1) * (np.exp2(r1) - 1.0)
    ok = (r0 >= spec.r_min) & (r0 <= spec.r_max) & (p0 <= spec.peak_power) & (p1 <= spec.peak_power)
    if not np.any(ok):
        raise ValueError("all grid points infeasible")
    return float(np.min(np.where(ok, pi0 * p0 + pi1 * p1, np.inf)))


def test_steady_pair_reference():
    p0, p1 = steady_state_for([0.225, 0.1])
    assert p0 == pytest.approx(0.8, abs=1e-15)
    assert p1 == pytest.approx(0.2, abs=1e-15)
    rng = np.random.default_rng(2)
    for _ in range(100):
        e0, e1 = rng.uniform(0.01, 0.99, 2)
        a, b = steady_state_for([e0, e1])
        assert a + b == pytest.approx(1.0, abs=1e-14)


def test_region_labels():
    assert n1_region(spec1(eps_out=0.1)) == "bursty packet loss dominant"
    assert n1_region(spec1(eps_out=0.3)) == "average packet loss dominant"


def test_variable_solution_at_minimum_state1_rate():
    pol, avg = n1_variable_solution(spec1(), 0.001)
    assert pol.rates[1] == 0.001
    assert pol.rates[0] == pytest.approx(1.24975, abs=1e-12)
    assert pol.eps == (0.225, 0.1)
    assert avg == pytest.approx(VAR_PBAR_01, rel=1e-12)
    # constraints met with equality
    rep = evaluate_variable(pol, spec1())
    assert rep.feasible
    assert rep.gamma_r == pytest.approx(0.2, abs=1e-12)
    assert rep.avg_rate_achieved == pytest.approx(1.0, abs=1e-12)


def test_variable_solution_r1_range_check():
    with pytest.raises(ValueError, match="r1 must lie within"):
        n1_variable_solution(spec1(), 1e-5)


def test_variable_solution_rate_ceiling():
    with pytest.raises(ValueError, match="raise R_min"):
        n1_variable_solution(spec1(r_max=1.2), 0.001)


@pytest.mark.parametrize(
    "spec, r1, message",
    [
        (spec1(), 4.9, "peak power infeasible"),  # P_1 = 273.9 W > 100 W
        (spec1(r_min=0.5), 4.0, "R_0 below r_min"),  # R_0 = 0.25
        (spec1(), 6.0, "R_0 below r_min"),  # R_0 < 0
    ],
    ids=["peak", "r0_below_r_min", "r0_negative"],
)
def test_variable_solution_rejects_tables_that_break_peak_or_c4(spec, r1, message):
    with pytest.raises(ValueError, match=message):
        n1_variable_solution(spec, r1)


def test_variable_search_matches_boundary_here():
    pol, avg = n1_variable_search(spec1())
    assert avg == pytest.approx(VAR_PBAR_01, rel=1e-9)
    assert pol.rates[1] == pytest.approx(0.001, abs=1e-12)
    assert evaluate_variable(pol, spec1()).feasible


def test_variable_search_never_beats_sampled_points():
    rng = np.random.default_rng(6)
    compared = 0
    for s in [spec1(eps_out=0.15, rate=0.8)] + random_specs(7, 60):
        try:
            _, best = n1_variable_search(s)
        except ValueError:
            best = math.inf
        for r1 in rng.uniform(s.r_min, min(s.avg_rate, s.r_max), 20):
            try:
                pol, avg = n1_variable_solution(s, float(r1))
            except ValueError:
                continue
            # a sample the closed form accepts is a feasible table, so the
            # search found one too, and none cheaper
            assert evaluate_variable(pol, s).feasible
            assert best <= avg * (1.0 + 1e-9)
            compared += 1
    assert compared > 300


def test_variable_search_is_the_limit_of_the_r1_grid():
    feasible = 0
    for s in random_specs(2026, 300):
        try:
            grid = grid_search(s)
        except ValueError:
            with pytest.raises(ValueError):
                n1_variable_search(s)
            continue
        pol, exact = n1_variable_search(s)
        assert grid * (1.0 - 1e-3) <= exact <= grid * (1.0 + 1e-12)
        assert evaluate_variable(pol, s).feasible
        assert pol.rates[1] <= s.avg_rate
        feasible += 1
    assert 100 <= feasible < 300


def test_variable_solver_is_at_or_below_the_closed_form():
    # the closed form fixes eps_1 = eps_out and a binding loss budget; the
    # search is free in both, so it never ends above the form's table
    checked = 0
    for s in random_specs(44, 60):
        try:
            _, form = n1_variable_search(s)
        except ValueError:
            continue
        res = solve_variable(s, AnnealingSchedule(seed=1))
        assert res.best_avg_power <= form * (1.0 + 1e-9)
        assert evaluate_variable(res.best_policy, s).feasible
        checked += 1
    assert checked >= 30


def test_fixed_solution_bursty_region():
    pol, avg = n1_fixed_solution(spec1(eps_out=0.1))
    assert avg == pytest.approx(FIXED_PBAR_01, rel=1e-12)
    assert pol.eps == (0.225, 0.1)
    assert evaluate_fixed(pol, spec1(eps_out=0.1)).feasible


def test_fixed_solution_plateau_region():
    pol, avg = n1_fixed_solution(spec1(eps_out=0.3))
    assert avg == pytest.approx(PLATEAU_PBAR, rel=1e-12)
    assert pol.eps == (0.2, 0.2)
    assert pol.powers[0] == pytest.approx(pol.powers[1], rel=1e-14)


def test_fixed_solution_continuous_at_region_boundary():
    pol, avg = n1_fixed_solution(spec1(eps_out=0.2))
    assert avg == pytest.approx(PLATEAU_PBAR, rel=1e-12)


def test_fixed_solution_peak_infeasible():
    with pytest.raises(ValueError, match="peak power infeasible"):
        n1_fixed_solution(spec1(eps_out=0.01, peak=20.0))


def test_fixed_solution_is_the_optimum_where_the_loss_budget_binds(n1_fixed_optimum):
    for eps_out in (0.05, 0.1, 0.2, 0.3):
        s = spec1(eps_out=eps_out)
        _, exact = n1_fixed_solution(s)
        optimum = n1_fixed_optimum(s)
        assert exact == pytest.approx(optimum, rel=1e-4)
        assert exact >= optimum * (1.0 - 1e-9)


def test_all_closed_forms_reject_larger_chains():
    s = spec1(n=2)
    for fn in (
        n1_region,
        n1_fixed_solution,
        n1_variable_search,
        lambda q: n1_variable_solution(q, 0.001),
    ):
        with pytest.raises(ValueError, match="closed form defined only for N=1"):
            fn(s)
