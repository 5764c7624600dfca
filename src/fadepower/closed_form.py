"""Analytical N=1 policies for both problems.

With a single tolerated loss (N=1) the two-state chain admits closed
forms: the stationary pair (pi0, pi1), the state-0 outage that makes the
average-loss constraint bind given a terminal outage, and the resulting
rates and powers.  The fixed-rate boundary form and the variable-rate R_1
grid keep the average-loss constraint binding and state 1 at eps_out,
which is optimal only where the loss budget is worth spending: they are
upper bounds on the N=1 optimum, not oracles.  None of this generalizes
to N > 1.  The fixed-rate optimum at every N, N=1 included, comes from
the Lagrangian pass behind annealer.solve_fixed, whose lower bound
certifies it wherever no duality gap is left (at gamma 0.2, eps_out 0.02
it reaches 11.877 W, where the boundary form gives 12.746 W); the
variable-rate problem has only the search.

All functions reject specs with n_states != 1.
"""

from __future__ import annotations

import numpy as np

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


def n1_steady(eps0: float, eps1: float) -> tuple[float, float]:
    """Stationary pair of the two-state chain, in closed form."""
    if not (0.0 < eps0 < 1.0 and 0.0 < eps1 < 1.0):
        raise ValueError("outage probabilities must lie strictly in (0, 1)")
    denom = 1.0 + eps0 - eps1
    return (1.0 - eps1) / denom, eps0 / denom


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

    Feasible only when R_0 stays within r_max; a violation means r1 is
    too small to carry its share of the average rate.
    """
    _require_n1(spec)
    if not spec.r_min <= r1 <= spec.r_max:
        raise ValueError("r1 must lie within [r_min, r_max]")
    eps1 = spec.eps_out
    eps0 = n1_epsilon0(spec.gamma, eps1)
    pi0, pi1 = n1_steady(eps0, eps1)
    r0 = (spec.avg_rate - r1 * pi1) / pi0
    if r0 > spec.r_max * (1.0 + 1e-12):
        raise ValueError("raise R_min")
    policy = make_policy((eps0, eps1), (r0, r1), spec.channel)
    avg = average_power(policy.powers, (pi0, pi1))
    return policy, avg


def n1_variable_search(spec: ProblemSpec, grid_points: int = 2001) -> tuple[Policy, float]:
    """Minimize the variable-rate closed form over a uniform R_1 grid.

    Scans r1 in [r_min, avg_rate] (capped at r_max), discarding grid
    points whose induced R_0 leaves [r_min, r_max] or whose powers exceed
    the peak, and returns the cheapest surviving policy.
    """
    _require_n1(spec)
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    eps1 = spec.eps_out
    eps0 = n1_epsilon0(spec.gamma, eps1)
    pi0, pi1 = n1_steady(eps0, eps1)
    lo = spec.r_min
    hi = min(spec.avg_rate, spec.r_max)
    if hi < lo:
        raise ValueError("all grid points infeasible")

    r1 = np.linspace(lo, hi, grid_points)
    r0 = (spec.avg_rate - r1 * pi1) / pi0
    c0 = spec.channel.noise_power / (-np.log1p(-eps0) * spec.channel.mean_fading_power)
    c1 = spec.channel.noise_power / (-np.log1p(-eps1) * spec.channel.mean_fading_power)
    p0 = np.exp2(r0) - 1.0
    p0 *= c0
    p1 = np.exp2(r1) - 1.0
    p1 *= c1
    ok = (
        (r0 >= spec.r_min)
        & (r0 <= spec.r_max)
        & (p0 <= spec.peak_power)
        & (p1 <= spec.peak_power)
    )
    if not np.any(ok):
        raise ValueError("all grid points infeasible")
    avg = pi0 * p0 + pi1 * p1
    avg[~ok] = np.inf
    best = int(np.argmin(avg))
    policy = make_policy((eps0, eps1), (float(r0[best]), float(r1[best])), spec.channel)
    return policy, average_power(policy.powers, (pi0, pi1))


def n1_fixed_solution(spec: ProblemSpec) -> tuple[Policy, float]:
    """Boundary closed form of the fixed-rate problem.

    Two regions: when eps_out <= gamma the burst constraint binds
    (eps1 = eps_out, eps0 from the average-loss equality); otherwise the
    average-loss constraint alone is active and the optimum transmits
    with the constant outage gamma in every state.
    """
    _require_n1(spec)
    if spec.eps_out <= spec.gamma:
        eps1 = spec.eps_out
        eps0 = n1_epsilon0(spec.gamma, eps1)
    else:
        eps0 = eps1 = spec.gamma
    r = spec.avg_rate
    policy = make_policy((eps0, eps1), (r, r), spec.channel)
    if max(policy.powers) > spec.peak_power * (1.0 + 1e-12):
        raise ValueError("peak power infeasible")
    pi = n1_steady(eps0, eps1)
    return policy, average_power(policy.powers, pi)

