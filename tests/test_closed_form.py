import numpy as np
import pytest

from fadepower.channel import ChannelModel, max_rate
from fadepower.closed_form import (
    n1_epsilon0,
    n1_fixed_solution,
    n1_region,
    n1_steady,
    n1_variable_search,
    n1_variable_solution,
)
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


def test_steady_pair_reference():
    p0, p1 = n1_steady(0.225, 0.1)
    assert p0 == pytest.approx(0.8, abs=1e-15)
    assert p1 == pytest.approx(0.2, abs=1e-15)
    rng = np.random.default_rng(2)
    for _ in range(100):
        e0, e1 = rng.uniform(0.01, 0.99, 2)
        a, b = n1_steady(e0, e1)
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


def test_variable_search_matches_boundary_here():
    pol, avg = n1_variable_search(spec1(), grid_points=4001)
    assert avg == pytest.approx(VAR_PBAR_01, rel=1e-9)
    assert pol.rates[1] == pytest.approx(0.001, abs=1e-12)


def test_variable_search_never_beats_sampled_points():
    s = spec1(eps_out=0.15, rate=0.8)
    _, best = n1_variable_search(s, grid_points=4001)
    rng = np.random.default_rng(6)
    for r1 in rng.uniform(s.r_min, 0.8, 50):
        try:
            _, avg = n1_variable_solution(s, float(r1))
        except ValueError:
            continue
        assert best <= avg * (1.0 + 1e-9)


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
        lambda q: n1_variable_search(q, 101),
        lambda q: n1_variable_solution(q, 0.001),
    ):
        with pytest.raises(ValueError, match="closed form defined only for N=1"):
            fn(s)
