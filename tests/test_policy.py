import math

import numpy as np
import pytest

from fadepower.channel import ChannelModel, max_rate, outage_probability, power_for_outage
from fadepower.markov import steady_state_for
from fadepower.policy import (
    Policy,
    ProblemSpec,
    average_power,
    check_power_ordering,
    evaluate_fixed,
    evaluate_variable,
    make_policy,
)

CH = ChannelModel()

FIXED_PBAR_01 = 5.036825427107048  # 0.8/(-ln .775) + 0.2/(-ln .9)
PLATEAU_PBAR = 4.481420117724550  # -1/ln(0.8)


def spec1(eps_out=0.1, avg_rate=1.0, gamma=0.2, peak=100.0, r_max=6.0, n=1):
    return ProblemSpec(
        gamma=gamma,
        n_states=n,
        eps_out=eps_out,
        avg_rate=avg_rate,
        r_min=0.001,
        r_max=r_max,
        peak_power=peak,
        channel=CH,
    )


def test_spec_validation_messages():
    with pytest.raises(ValueError, match="gamma"):
        spec1(gamma=1.0)
    with pytest.raises(ValueError, match="N must be >= 1"):
        spec1(n=0)
    with pytest.raises(ValueError, match="eps_out"):
        spec1(eps_out=0.0)
    with pytest.raises(ValueError, match="avg_rate"):
        spec1(avg_rate=0.0)
    for r_min, r_max in ((2.0, 1.0), (-0.1, 1.0), (math.nan, 1.0), (0.001, math.nan),
                         (math.inf, math.inf), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="r_min"):
            ProblemSpec(
                gamma=0.2, n_states=1, eps_out=0.1, avg_rate=1.0,
                r_min=r_min, r_max=r_max, peak_power=100.0, channel=CH,
            )
    for rate in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="avg_rate"):
            spec1(avg_rate=rate)
    for n in (2.0, math.inf, math.nan, "2"):
        with pytest.raises(ValueError, match="N must be an integer"):
            spec1(n=n)
    with pytest.raises(ValueError, match="peak_power"):
        spec1(peak=0.0)


def test_make_policy_consistency():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        eps = rng.uniform(0.01, 0.99, n + 1)
        rates = rng.uniform(0.05, 4.0, n + 1)
        pol = make_policy(eps, rates, CH)
        for e, r, p in zip(pol.eps, pol.rates, pol.powers):
            assert p == pytest.approx(power_for_outage(e, r, CH), rel=1e-10)
            assert outage_probability(p, r, CH) == pytest.approx(e, rel=1e-10)


def test_policy_shape_validation():
    with pytest.raises(ValueError, match="equal length"):
        Policy(eps=(0.1, 0.2), rates=(1.0,), powers=(1.0, 2.0))
    with pytest.raises(ValueError, match="N must be >= 1"):
        Policy(eps=(0.1,), rates=(1.0,), powers=(1.0,))


def test_average_power_reference():
    # the worked two-state numbers, dotted with their steady state
    assert average_power((3.92327, 9.49122), (0.8, 0.2)) == pytest.approx(
        5.03686, abs=5e-6
    )


def test_average_power_trivia():
    assert average_power((7.5, 7.5, 7.5), (0.2, 0.3, 0.5)) == pytest.approx(7.5)
    assert average_power((1.0, 0.0), (0.0, 1.0)) == 0.0
    with pytest.raises(ValueError, match="lengths must match"):
        average_power((1.0, 2.0), (1.0,))


def test_evaluate_variable_feasible_reference():
    pol = make_policy([0.225, 0.1], [1.0, 1.0], CH)
    rep = evaluate_variable(pol, spec1())
    assert rep.feasible
    assert rep.violated == ()
    assert rep.gamma_r == pytest.approx(0.2, abs=1e-14)
    assert rep.avg_power == pytest.approx(FIXED_PBAR_01, rel=1e-12)
    assert rep.avg_rate_achieved == pytest.approx(1.0, abs=1e-14)
    assert rep.eps_n == pytest.approx(0.1)


def test_evaluate_variable_burst_violation():
    pol = make_policy([0.225, 0.1], [1.0, 1.0], CH)
    rep = evaluate_variable(pol, spec1(eps_out=0.05))
    assert not rep.feasible
    assert rep.violated == ("C3",)


def test_evaluate_variable_rate_violation():
    pol = make_policy([0.225, 0.1], [1.0, 1.0], CH)
    rep = evaluate_variable(pol, spec1(avg_rate=1.5))
    assert not rep.feasible
    assert rep.violated == ("C1",)


def test_evaluate_variable_counts_transmitted_rate():
    # C1 is a floor on the average *transmitted* rate sum(pi_i r_i).  This
    # best known N=3 table sends the peak-power rate in states 1-2, whose
    # packets are almost surely lost, so its delivered rate
    # sum(pi_i r_i (1 - eps_i)) falls short of R; it is still feasible.
    r_max = max_rate(100.0, CH)
    eps = (0.083216605852097, 0.999999, 0.999999, 0.004193433200275858)
    rates = (0.14176946592212358, r_max, r_max, 0.001)
    spec = spec1(n=3, r_max=r_max)
    rep = evaluate_variable(make_policy(eps, rates, CH), spec)
    assert rep.feasible
    assert rep.avg_rate_achieved == pytest.approx(1.0, abs=1e-9)
    pi = steady_state_for(eps)
    delivered = float(np.dot(pi, np.array(rates) * (1.0 - np.array(eps))))
    assert delivered < 0.9 * spec.avg_rate


def test_evaluate_variable_rate_bounds_and_peak():
    pol = make_policy([0.225, 0.1], [1.0, 1.0], CH)
    rep = evaluate_variable(pol, spec1(r_max=0.5))
    assert "C4" in rep.violated
    rep = evaluate_variable(pol, spec1(peak=5.0))
    assert rep.violated == ("PEAK",)


def test_evaluate_fixed_feasible_reference():
    pol = make_policy([0.225, 0.1], [1.0, 1.0], CH)
    rep = evaluate_fixed(pol, spec1())
    assert rep.feasible
    assert rep.avg_power == pytest.approx(FIXED_PBAR_01, rel=1e-12)


def test_evaluate_fixed_plateau():
    pol = make_policy([0.2, 0.2], [1.0, 1.0], CH)
    rep = evaluate_fixed(pol, spec1(eps_out=0.3))
    assert rep.feasible
    assert rep.gamma_r == pytest.approx(0.2, abs=1e-15)
    assert rep.avg_power == pytest.approx(PLATEAU_PBAR, rel=1e-12)
    assert max(pol.powers) == pytest.approx(min(pol.powers), rel=1e-14)


def test_evaluate_fixed_peak_violation():
    pol = make_policy([0.225, 1e-9], [1.0, 1.0], CH)
    rep = evaluate_fixed(pol, spec1())
    assert not rep.feasible
    assert rep.violated == ("PEAK",)


def test_evaluate_fixed_rejects_mixed_rates():
    pol = make_policy([0.225, 0.1], [1.0, 1.2], CH)
    with pytest.raises(ValueError, match="fixed-rate policy malformed"):
        evaluate_fixed(pol, spec1())


def test_evaluate_dimension_mismatch():
    pol = make_policy([0.3, 0.2, 0.1], [1.0, 1.0, 1.0], CH)
    with pytest.raises(ValueError):
        evaluate_variable(pol, spec1(n=1))


def test_eps_n_perturbation_flips_burst_constraint():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        eps = rng.uniform(0.02, 0.5, n + 1)
        s = spec1(eps_out=float(eps[-1]) + 0.05, avg_rate=0.01, r_max=6.0, n=n)
        pol = make_policy(eps, [1.0] * (n + 1), CH)
        rep = evaluate_variable(pol, s)
        assert "C3" not in rep.violated
        bumped = list(eps)
        bumped[-1] = s.eps_out + 0.01
        rep2 = evaluate_variable(make_policy(bumped, [1.0] * (n + 1), CH), s)
        assert "C3" in rep2.violated


def test_report_power_matches_direct_average():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        eps = rng.uniform(0.02, 0.9, n + 1)
        rates = rng.uniform(0.1, 3.0, n + 1)
        pol = make_policy(eps, rates, CH)
        rep = evaluate_variable(pol, spec1(n=n))
        direct = average_power(pol.powers, steady_state_for(pol.eps))
        assert rep.avg_power == pytest.approx(direct, rel=1e-12)


def test_power_ordering():
    assert check_power_ordering((3.9, 9.5))
    assert not check_power_ordering((9.5, 3.9))
    assert check_power_ordering((5.0, 5.0, 5.0))
    assert check_power_ordering((5.0, 5.0 - 1e-10, 5.1))
