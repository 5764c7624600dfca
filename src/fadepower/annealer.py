"""Budgeted random-search solvers for the two policy problems.

Both solvers draw candidate tables in blocks and return the cheapest
feasible one.  The number of draws follows a fast-annealing cooling
schedule T_b = T0/(c_sa*b + 1): one step per temperature from T0 down to
t_min, `outer_per_temp` candidate tables per step.

There is no Metropolis walk.  Candidates are drawn independently of the
chain's current point, and a candidate no worse than the best seen always
passes the Metropolis test, so the best table an annealing walk over
these proposals reports is exactly the minimum over the feasible draws.
One search loop therefore reduces each block of draws with a vectorised
argmin; the schedule only sets the budget.  `temperature` and
`metropolis_accept` remain the public definitions of that schedule and of
the acceptance test.

Fixed rate: every table drawn meets C2, C3 and PEAK by construction.  At
rate R the power realising outage e is k/(-ln(1 - e)), k = (2^R - 1)N0/Omega,
and losses are ordered worst state last (eps non-increasing, powers
non-decreasing), which does not exclude the optimum.

* eps_1..eps_N are drawn uniformly on [lo, cap], one of them on
  [lo, min(eps_out, cap)], and sorted into non-increasing order, so
  eps_N <= eps_out.  lo = max(DELTA, 1 - exp(-k/P_m))
  is the peak cap expressed as an outage floor; cap = min(1 - DELTA,
  gamma/(1 - gamma)) is the largest value eps_0 can take, so with the
  order it bounds every state.
* The product form gives gamma_r = 1 - pi_0 = eps_0 W_1/(1 + eps_0 W_1),
  with W_1 = 1 + eps_1 + eps_1 eps_2 + ... + eps_1...eps_{N-1}/(1 - eps_N).
  C2 is therefore eps_0 <= gamma/((1 - gamma) W_1).
* eps_0 = lb + t*(ub - lb) with t ~ U(0, 1), ub = min(1 - DELTA,
  gamma/((1 - gamma) W_1)) and lb = max(lo, eps_1).  A draw with ub < lb
  violates only the power order and is the one rejection left.
* eps_0 is drawn, not pinned to ub: a binding loss budget is not optimal
  at small eps_out (pinned, N=1 at eps_out 0.02 costs 12.746 W against an
  optimum of 11.877 W).
* An empty box, min(eps_out, cap) < lo, certifies infeasibility:
  eps_N >= lo > eps_out breaks C3, or gamma_r >= min eps >= lo >
  gamma/(1 - gamma) >= gamma breaks C2, or no outage fits the guard band.
  solve_fixed reports the first case as an empty feasibility window
  (ValueError) and the others as NoFeasibleSolution(0), before drawing.

Variable rate: outage vectors are drawn uniformly per state on
(DELTA, u_i), u_N = min(eps_out, 1 - DELTA) and u_i = 1 - DELTA for i < N;
each one that meets C2 is paired with `rate_inner` rate vectors drawn
uniformly on [r_min, r_max] per state, and the pairs that meet C1 and
PEAK are feasible.

Everything is a pure function of (spec, schedule): identical inputs give
identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import EPSILON_GUARD as DELTA
from .channel import power_for_outage
from .markov import steady_state_for
from .policy import Policy, ProblemSpec, average_power, make_policy

# Candidate rows processed per vectorized batch (several temperature
# steps at a time).  It bounds the memory of one block; results for a
# given seed depend on it too, through the order of the draws.
_BLOCK_ROWS = 65536

# Fallback initial temperature when no probe candidate is feasible.
_T0_FALLBACK = 100.0


@dataclass(frozen=True)
class AnnealingSchedule:
    """Cooling schedule, and with it the draw budget, of one solver run.

    The run takes floor((t0/t_min - 1)/c_sa) + 1 temperature steps of
    outer_per_temp candidate tables each.

    t0:             initial temperature; None picks 10x the smallest
                    feasible average power found in a probe of
                    10*outer_per_temp draws (100 when the probe finds
                    nothing), clamped to [10*t_min, 1000]
    c_sa:           cooling constant of T_b = t0/(c_sa*b + 1)
    t_min:          stopping temperature
    outer_per_temp: candidate outage vectors drawn per temperature step
    rate_inner:     rate vectors drawn per outage vector that meets the
                    loss budget (variable-rate solver only)
    seed:           RNG seed; equal seeds reproduce the run bit-exactly
    """

    t0: float | None = None
    c_sa: float = 1.0
    t_min: float = 0.01
    outer_per_temp: int = 200
    rate_inner: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.t0 is not None and not self.t0 > 0.0:
            raise ValueError("t0 must be positive")
        if not self.c_sa > 0.0:
            raise ValueError("c_sa must be positive")
        if not self.t_min > 0.0:
            raise ValueError("t_min must be positive")
        if self.t0 is not None and not self.t_min < self.t0:
            raise ValueError("t_min must be below t0")
        if self.outer_per_temp < 1:
            raise ValueError("outer_per_temp must be >= 1")
        if self.rate_inner < 1:
            raise ValueError("rate_inner must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver run: the minimum over its feasible draws.

    evaluated_count counts every candidate draw (outage vectors plus, for
    the variable-rate solver, rate vectors); feasible_count the fully
    feasible candidates among them; accepted_count the draws that lowered
    the running best, in draw order.  trace holds one (temperature,
    block minimum, best) sample per block of temperature steps: the last
    temperature of the block, the cheapest feasible draw of the block
    (inf when it has none) and the best so far, which is non-increasing.
    """

    best_avg_power: float
    best_policy: Policy
    accepted_count: int
    feasible_count: int
    evaluated_count: int
    trace: tuple[tuple[float, float, float], ...]


class NoFeasibleSolution(ValueError):
    """Raised when an entire run produces no feasible candidate."""

    def __init__(self, evaluated_count: int):
        super().__init__(
            f"no feasible solution found after {evaluated_count} candidate evaluations"
        )
        self.evaluated_count = evaluated_count


def temperature(schedule: AnnealingSchedule, b: int) -> float:
    """Fast-annealing temperature at integer step b >= 0."""
    if b < 0:
        raise ValueError("step index must be >= 0")
    if schedule.t0 is None:
        raise ValueError("t0 is unresolved; pass an explicit t0 or use solve_*")
    return schedule.t0 / (schedule.c_sa * b + 1.0)


def metropolis_accept(
    candidate_power: float, current_power: float, temperature: float, rng
) -> bool:
    """One Metropolis decision: accept iff s < exp(-(cand - cur)/T)."""
    if not temperature > 0.0:
        raise ValueError("temperature must be positive")
    s = float(rng.random())
    delta = candidate_power - current_power
    if delta <= 0.0:
        return True
    return s < math.exp(-delta / temperature)


def _steady_rows(e):
    """Stationary distributions of many outage vectors at once.

    Uses the product form of the success-runs chain: pi_j is proportional
    to eps_0*...*eps_{j-1}, with the terminal weight divided by
    (1 - eps_N) to absorb the self-loop.
    """
    rows, n1 = e.shape
    w = np.ones((rows, n1))
    w[:, 1:] = np.cumprod(e[:, :-1], axis=1)
    w[:, -1] /= 1.0 - e[:, -1]
    return w / w.sum(axis=1, keepdims=True)


def _fixed_draw(spec: ProblemSpec, rng):
    """Block draw of the fixed-rate problem; see the module docstring.

    Raises NoFeasibleSolution(0) when the draw box is empty.
    """
    ch = spec.channel
    n = spec.n_states
    rates = (spec.avg_rate,) * (n + 1)
    k_power = (2.0**spec.avg_rate - 1.0) * ch.noise_power / ch.mean_fading_power
    odds = spec.gamma / (1.0 - spec.gamma)
    lo = max(DELTA, -math.expm1(-k_power / spec.peak_power))
    highs = np.full(n, min(1.0 - DELTA, odds))
    highs[-1] = min(spec.eps_out, highs[-1])
    if highs[-1] < lo:
        raise NoFeasibleSolution(0)
    widths = highs - lo

    def draw(rows: int):
        tail = np.sort(lo + rng.random((rows, n)) * widths, axis=1)[:, ::-1]
        t = rng.random(rows)
        # w[:, j-1] = eps_1*...*eps_{j-1}, the terminal one over (1 - eps_N),
        # so pi = (1, eps_0*w) / (1 + eps_0*W_1) with W_1 = sum(w).
        w = np.ones((rows, n))
        w[:, 1:] = np.cumprod(tail[:, :-1], axis=1)
        w[:, -1] /= 1.0 - tail[:, -1]
        w1 = w.sum(axis=1)
        ub = np.minimum(1.0 - DELTA, odds / w1)
        lb = np.maximum(lo, tail[:, 0])
        e0 = lb + t * (ub - lb)
        tail_cost = np.einsum("ij,ij->i", w, 1.0 / -np.log1p(-tail))
        pbar = k_power * (1.0 / -np.log1p(-e0) + e0 * tail_cost) / (1.0 + e0 * w1)
        ok = ub >= lb
        pbar[~ok] = np.inf
        return rows, int(np.count_nonzero(ok)), pbar, lambda j: ((e0[j], *tail[j]), rates)

    return draw


def _variable_draw(spec: ProblemSpec, rate_inner: int, rng):
    """Block draw of the variable-rate problem; see the module docstring.

    Raises NoFeasibleSolution(0) when no outage fits under eps_out.
    """
    ch = spec.channel
    n1 = spec.n_states + 1
    highs = np.full(n1, 1.0 - DELTA)
    highs[-1] = min(spec.eps_out, highs[-1])
    if highs[-1] <= DELTA:
        raise NoFeasibleSolution(0)
    widths = highs - DELTA

    def draw(rows: int):
        e = DELTA + rng.random((rows, n1)) * widths
        pi = _steady_rows(e)
        surv = np.nonzero(np.einsum("ij,ij->i", e, pi) <= spec.gamma)[0]
        rates = rng.uniform(spec.r_min, spec.r_max, size=(surv.size * rate_inner, n1))
        coef = ch.noise_power / (-np.log1p(-e[surv]) * ch.mean_fading_power)
        powers = (np.exp2(rates) - 1.0) * np.repeat(coef, rate_inner, axis=0)
        pi = np.repeat(pi[surv], rate_inner, axis=0)
        ok = (powers.max(axis=1) <= spec.peak_power) & (
            np.einsum("ij,ij->i", rates, pi) >= spec.avg_rate
        )
        pbar = np.einsum("ij,ij->i", powers, pi)
        pbar[~ok] = np.inf
        return (
            rows + rates.shape[0],
            int(np.count_nonzero(ok)),
            pbar,
            lambda j: (e[surv[j // rate_inner]].copy(), rates[j].copy()),
        )

    return draw


def _search(schedule: AnnealingSchedule, draw):
    """Minimum over every feasible draw of the schedule's budget.

    draw(rows) returns (candidates evaluated, how many are feasible,
    their average powers with inf for infeasible ones, and a function
    giving the (eps, rates) table of a candidate by index).  Returns
    (best table, improvements, feasible, evaluated, trace).
    """
    best = math.inf
    best_table = None
    improved = feasible = evaluated = 0
    trace: list[tuple[float, float, float]] = []
    for temps in _temperature_blocks(schedule):
        drawn, ok, pbar, table = draw(temps.size * schedule.outer_per_temp)
        evaluated += drawn
        feasible += ok
        block_min = math.inf
        below = pbar[pbar < best]
        if below.size:
            # each strict prefix minimum of `below` lowers the running best
            improved += 1 + int(np.count_nonzero(below[1:] < np.minimum.accumulate(below[:-1])))
            j = int(np.argmin(pbar))
            block_min = best = float(pbar[j])
            best_table = table(j)
        elif pbar.size:
            block_min = float(pbar.min())
        trace.append((float(temps[-1]), block_min, best))
        del table  # frees this block's draws before the next block is drawn
    if best_table is None:
        raise NoFeasibleSolution(evaluated)
    return best_table, improved, feasible, evaluated, tuple(trace)


def _solve(spec: ProblemSpec, schedule: AnnealingSchedule, draw) -> SolveResult:
    """Run the search and evaluate its best table."""
    (eps, rates), improved, feasible, evaluated, trace = _search(
        _resolve_t0(schedule, draw), draw
    )
    policy = make_policy(eps, rates, spec.channel)
    return SolveResult(
        best_avg_power=average_power(policy.powers, steady_state_for(policy.eps)),
        best_policy=policy,
        accepted_count=improved,
        feasible_count=feasible,
        evaluated_count=evaluated,
        trace=trace,
    )


def solve_fixed(spec: ProblemSpec, schedule: AnnealingSchedule) -> SolveResult:
    """Search the fixed-rate problem: constant rate, free outage vector.

    Every table drawn meets the loss, burst and peak constraints (see the
    module docstring).  Raises ValueError when the terminal-power window
    P_out <= P_N <= P_m is empty (P_out the power whose outage at rate R
    equals eps_out), and NoFeasibleSolution(0) when the draw box is.
    """
    p_out = power_for_outage(spec.eps_out, spec.avg_rate, spec.channel)
    if p_out > spec.peak_power * (1.0 + 1e-12):
        raise ValueError("feasibility window empty")
    draw = _fixed_draw(spec, np.random.default_rng(schedule.seed))
    return _solve(spec, schedule, draw)


def solve_variable(spec: ProblemSpec, schedule: AnnealingSchedule) -> SolveResult:
    """Search the joint rate/outage problem.

    Two-step candidate generation: outage vectors are filtered on the
    average-loss constraint (the stationary distribution depends on the
    outage vector alone), then each survivor is paired with rate_inner
    uniform rate vectors filtered on the average-rate constraint and the
    per-state power cap.
    """
    rng = np.random.default_rng(schedule.seed)
    return _solve(spec, schedule, _variable_draw(spec, schedule.rate_inner, rng))


def _temperature_blocks(schedule: AnnealingSchedule):
    """Yield the cooling sequence in batches of temperature steps."""
    t0 = schedule.t0
    n_steps = int(math.floor((t0 / schedule.t_min - 1.0) / schedule.c_sa)) + 1
    block = max(1, _BLOCK_ROWS // schedule.outer_per_temp)
    for start in range(0, n_steps, block):
        stop = min(start + block, n_steps)
        b = np.arange(start, stop, dtype=float)
        yield t0 / (schedule.c_sa * b + 1.0)


def _resolve_t0(schedule: AnnealingSchedule, draw) -> AnnealingSchedule:
    """Fill in an automatic t0 from a short probe of the search space."""
    if schedule.t0 is not None:
        return schedule
    _, ok, pbar, _ = draw(10 * schedule.outer_per_temp)
    t0 = 10.0 * float(pbar.min()) if ok else _T0_FALLBACK
    t0 = min(max(t0, 10.0 * schedule.t_min), 1000.0)
    return replace(schedule, t0=t0)
