"""Analytical N=1 policies for both problems.

With a single tolerated loss (N=1) the two-state chain admits closed
forms: the state-0 outage that makes the average-loss constraint bind
given a terminal outage, and the resulting rates and powers, weighted by
markov.product_form.  The fixed-rate boundary form and the variable-rate
form keep the average-loss constraint binding and state 1 at eps_out,
which is optimal only where the loss budget is worth spending: they are
upper bounds on the N=1 optimum, not oracles.  With the outages fixed,
the variable-rate form's cheapest rates are the search's water fill
(annealer._water_fill), exact with no grid over R_1.  None of this
generalizes to N > 1.  The fixed-rate optimum at every N, N=1 included,
comes from the Lagrangian pass behind annealer.solve_fixed, whose lower
bound certifies it wherever no duality gap is left (at gamma 0.2,
eps_out 0.02 it reaches 11.877 W, where the boundary form gives
12.746 W); the variable-rate problem has only the search.

All functions reject specs with n_states != 1.
"""

from __future__ import annotations

import numpy as np

from .annealer import _rate_caps, _water_fill
from .markov import product_form
from .policy import Policy, ProblemSpec, average_power, make_policy


def _require_n1(spec: ProblemSpec) -> None:
    if spec.n_states != 1:
        raise ValueError("closed form defined only for N=1")


def n1_epsilon0(gamma: float, eps1: float) -> float:
    """State-0 outage making the average loss hit gamma exactly.

    Solves sum_i eps_i*pi_i = gamma for eps0 given the terminal outage
    eps1: eps0 = (1 - eps1)*gamma/(1 - gamma).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if not 0.0 < eps1 < 1.0:
        raise ValueError("eps1 must lie in (0, 1)")
    eps0 = (1.0 - eps1) * gamma / (1.0 - gamma)
    if eps0 >= 1.0:
        raise ValueError("infeasible gamma/eps pair")
    return eps0


def _binding_outages(spec: ProblemSpec) -> np.ndarray:
    """(eps0, eps1) with eps1 = eps_out and the average-loss constraint binding."""
    _require_n1(spec)
    return np.array([n1_epsilon0(spec.gamma, spec.eps_out), spec.eps_out])


def n1_region(spec: ProblemSpec) -> str:
    """Which constraint shapes the N=1 optimum at this spec."""
    _require_n1(spec)
    if spec.eps_out <= spec.gamma:
        return "bursty packet loss dominant"
    return "average packet loss dominant"


def n1_variable_solution(spec: ProblemSpec, r1: float) -> tuple[Policy, float]:
    """Variable-rate policy with both loss constraints binding, given R_1.

    Sets eps1 = eps_out, derives eps0 from the average-loss equality,
    transmits r1 in state 1 and the rate that meets the average-rate
    constraint with equality in state 0:

        R_0 = (R - r1*pi1) / pi0

    Raises ValueError unless R_0 lies within [r_min, r_max] (above it, r1
    is too small to carry its share of the average rate; below it, too
    large) and both powers within the peak.
    """
    eps = _binding_outages(spec)
    if not spec.r_min <= r1 <= spec.r_max:
        raise ValueError("r1 must lie within [r_min, r_max]")
    pi = product_form(eps)
    r0 = (spec.avg_rate - r1 * pi[1]) / pi[0]
    if r0 > spec.r_max * (1.0 + 1e-12):
        raise ValueError("raise R_min")
    if r0 < spec.r_min * (1.0 - 1e-12):
        raise ValueError("R_0 below r_min: lower r1")
    policy = make_policy(eps, (r0, r1), spec.channel)
    if max(policy.powers) > spec.peak_power * (1.0 + 1e-12):
        raise ValueError("peak power infeasible")
    return policy, average_power(policy.powers, pi)


def n1_variable_search(spec: ProblemSpec) -> tuple[Policy, float]:
    """The cheapest n1_variable_solution over r1, exactly.

    With the outages fixed, the rates are one row of the search's water
    fill with state 1's cap lowered to R, so r1 ranges over [r_min,
    min(R, r_max)] and R_0 >= R >= r1, as in n1_variable_solution; C1 binds
    and C4 and PEAK hold by construction.  Raises ValueError where
    _rate_caps finds that no rates within the caps meet C1.
    """
    eps = _binding_outages(spec)[None]
    pi = product_form(eps)
    ch = spec.channel
    coef = ch.noise_power / (-np.log1p(-eps) * ch.mean_fading_power)
    lc, rcap, ok = _rate_caps(coef, pi, spec, (spec.r_max, min(spec.r_max, spec.avg_rate)))
    if not ok[0]:
        raise ValueError("no rates within r_min, r_max and the peak meet R")
    policy = make_policy(eps[0], _water_fill(lc, rcap, pi, spec)[0], ch)
    return policy, average_power(policy.powers, pi[0])


def n1_fixed_solution(spec: ProblemSpec) -> tuple[Policy, float]:
    """Boundary closed form of the fixed-rate problem.

    Two regions: when eps_out <= gamma the burst constraint binds
    (eps1 = eps_out, eps0 from the average-loss equality); otherwise the
    average-loss constraint alone is active and the optimum transmits
    with the constant outage gamma in every state.
    """
    _require_n1(spec)
    if spec.eps_out <= spec.gamma:
        eps = _binding_outages(spec)
    else:
        eps = np.full(2, spec.gamma)
    r = spec.avg_rate
    policy = make_policy(eps, (r, r), spec.channel)
    if max(policy.powers) > spec.peak_power * (1.0 + 1e-12):
        raise ValueError("peak power infeasible")
    return policy, average_power(policy.powers, product_form(eps))
