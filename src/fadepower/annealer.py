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
* The tail is laid out state-major: eps_1..eps_N of a block become N
  contiguous rows of candidates (the transpose of the RNG block), so every
  per-state step reads contiguous memory.  A compare-exchange network
  (Batcher's odd-even merge sort, built once per solve) sorts the rows:
  each exchange is one np.minimum and one np.maximum over two rows, which
  gives exactly the values np.sort gives.  The network grows as
  N log^2 N exchanges of two numpy calls each: on a 2-core x86 host a
  whole draw is faster than the row-major draw with np.sort per row that
  it replaced up to N = 50, costs the same at N = 60 and 1.3x as much at
  N = 100.
* W_1 and the tail's power sum_j w_j/(-ln(1 - eps_j)) (w_j the terms of
  W_1) come from one fused backward Horner pass over the state rows,
  W_1 = 1 + eps_1(1 + eps_2(... + eps_{N-1}/(1 - eps_N))), with no
  matrix of products.
* The block-sized arrays of a draw are views of buffers that the next
  draw of the solve reuses, so a block costs no fresh pages of memory.
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
(DELTA, u_i), u_N = min(eps_out, 1 - DELTA) and u_i = 1 - DELTA for i < N.
C2 is tested first, as eps_0 W_1 <= gamma/(1 - gamma) with the same
Horner W_1, and only the rows that pass get pi and their rates, by
water-filling.  With eps fixed, pi and c_i = N0/(-ln(1 - eps_i) Omega)
are fixed, and what is left,
min sum pi_i c_i (2^r_i - 1) s.t. sum pi_i r_i >= R and
r_min <= r_i <= rcap_i = min(r_max, log2(1 + P_m/c_i)), is convex.  Its
KKT solution is r_i = clip(x - log2 c_i, r_min, rcap_i) for one water
level x (Cover & Thomas, Elements of Information Theory, 9.4), which
generalises closed_form.n1_variable_solution.

* A row is infeasible when r_min > rcap_i for some state (PEAK) or when
  sum pi_i rcap_i < R (C1).
* f(x) = sum pi_i clip(x - log2 c_i, r_min, rcap_i) is piecewise linear
  and non-decreasing, with kinks at the 2(N+1) points r_min + log2 c_i and
  rcap_i + log2 c_i.  Its values at the sorted kinks follow from the
  slope on each segment (a cumulative sum of +pi_i at a lower kink and
  -pi_i at an upper one); x is found exactly on the segment where f
  crosses R, with no tolerance loop.  One argsort along the rows sorts
  the kinks of a block, and flat-index takes gather from it.
* When sum pi_i r_min >= R already, x is the lowest kink and every rate
  is r_min.

Both solvers therefore search over the outage vector alone.

Blocks: the search draws about 2^17 outage entries at a time (rows x
states, at most 65536 rows), so the temporaries of a deep-N block stay in
cache and N = 1 keeps its 65536-row blocks.  A temperature step wider than
a block, and the t0 probe, are drawn in several blocks, which bounds the
memory of a run for every outer_per_temp.  Each candidate reads one
contiguous slice of the RNG stream, so the draws, and every result but
`trace`, do not depend on how the budget is cut into blocks.

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

# Size of one vectorised draw: about _BLOCK_ELEMENTS outage entries
# (rows x states, 1 MiB of float64, which keeps a block's temporaries in
# cache), at most _BLOCK_ROWS rows.  Every draw reads one contiguous slice
# of the RNG stream per row, so results do not depend on these sizes; they
# bound the memory of a draw and set how many samples `trace` holds.
_BLOCK_ELEMENTS = 2**17
_BLOCK_ROWS = 65536

# Fallback initial temperature when no probe candidate is feasible, and
# the ceiling of an automatic t0.
_T0_FALLBACK = 100.0
_T0_MAX = 1000.0

# Largest draw budget (temperature steps x outer_per_temp) a schedule may
# ask for: that of the default schedule at its largest t0 (1e5 steps x 200
# draws).  It bounds the run time of every valid schedule.
MAX_DRAWS = 20_000_000


@dataclass(frozen=True)
class AnnealingSchedule:
    """Cooling schedule, and with it the draw budget, of one solver run.

    The run takes floor((t0/t_min - 1)/c_sa) + 1 temperature steps of
    outer_per_temp candidate tables each.  A schedule whose budget could
    exceed MAX_DRAWS draws (with t0 = None, at the largest automatic t0)
    is rejected with ValueError.

    t0:             initial temperature; None picks 10x the smallest
                    feasible average power found in a probe of
                    10*outer_per_temp draws (100 when the probe finds
                    nothing), clamped to [10*t_min, 1000]
    c_sa:           cooling constant of T_b = t0/(c_sa*b + 1)
    t_min:          stopping temperature
    outer_per_temp: candidate outage vectors drawn per temperature step
    seed:           RNG seed; equal seeds reproduce the run bit-exactly
    """

    t0: float | None = None
    c_sa: float = 1.0
    t_min: float = 0.01
    outer_per_temp: int = 200
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
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        t0 = _T0_MAX if self.t0 is None else self.t0
        draws = _step_count(self, t0) * self.outer_per_temp
        if draws > MAX_DRAWS:
            raise ValueError(
                f"draw budget of {draws:.3g} exceeds {MAX_DRAWS:.3g}; "
                "raise t_min or c_sa, or lower t0 or outer_per_temp"
            )


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver run: the minimum over its feasible draws.

    evaluated_count counts every candidate outage vector drawn;
    feasible_count those whose table is feasible (for the variable-rate
    solver, those with a feasible rate allocation); accepted_count the
    draws that lowered the running best, in draw order.  trace holds one
    (temperature, block minimum, best) sample per block of temperature
    steps: the last temperature of the block, the cheapest feasible draw of
    the block (inf when it has none) and the best so far, which is
    non-increasing.  Blocks hold about 2^17 outage entries, so a deeper N
    gives more, smaller blocks and a longer trace; trace is the only
    field that depends on the block size.
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


def _tail_sum(tail, f=None, out=None):
    """W_1 of a state-major tail, and with f also sum_j w_j f_j, in one pass.

    tail[j] holds eps_{j+1} of every row, and f[j] the f_{j+1}: an (N, rows)
    array, the transpose of a row-major block, or a list of N rows.
    w_j = eps_1*...*eps_{j-1}, the terminal one over (1 - eps_N), are the
    stationary weights behind state 0: pi = (1, eps_0*w)/(1 + eps_0*W_1)
    with W_1 = sum_j w_j.  One backward Horner pass reads each state row
    once and updates both sums, W_1 = 1 + eps_1(1 + ... + eps_{N-1}/(1 - eps_N))
    and f_1 + eps_1(f_2 + ... + eps_{N-1} f_N/(1 - eps_N)).  Returns W_1,
    or (W_1, sum_j w_j f_j) when f is given; out, a pair of rows, receives
    them instead of new arrays.
    """
    w1 = np.empty_like(tail[-1]) if out is None else out[0]
    wf = None if f is None else np.empty_like(w1) if out is None else out[1]
    np.subtract(1.0, tail[-1], out=w1)
    np.divide(1.0, w1, out=w1)
    if wf is not None:
        np.multiply(w1, f[-1], out=wf)
    for j in range(len(tail) - 2, -1, -1):
        w1 *= tail[j]
        w1 += 1.0
        if wf is not None:
            wf *= tail[j]
            wf += f[j]
    return w1 if wf is None else (w1, wf)


def _spread(u, lo: float, hi: float, hi_last: float):
    """Map uniforms u in place from [0, 1) to [lo, hi), the last column to [lo, hi_last)."""
    last = u[:, -1] * (hi_last - lo)
    u *= hi - lo
    u[:, -1] = last
    u += lo


def _sorting_network(n: int):
    """Compare-exchange pairs (i, j), i < j, of Batcher's odd-even merge sort of n keys.

    The power-of-two network with every pair that touches a key past n
    dropped: padding keys of +inf would stay where they are.
    """
    pairs = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(j, min(j + k, n - k)):
                    if i // (2 * p) == (i + k) // (2 * p):
                        pairs.append((i, i + k))
            k //= 2
        p *= 2
    return pairs


def _sort_states(rows, pairs, spare):
    """Sort state rows into non-increasing order by a compare-exchange network.

    rows holds one 1-D array per state and spare one more of the same
    length.  Each compare-exchange of `pairs` is one np.minimum and one
    np.maximum over two contiguous rows, which gives exactly the values
    np.sort gives.  Arrays are moved by reference, not copied, so the
    returned list, largest state first, holds the arrays of rows and
    spare in a new order.
    """
    rows = list(rows)
    for i, j in pairs:
        a, b = rows[i], rows[j]
        rows[i] = np.minimum(a, b, out=spare)
        np.maximum(a, b, out=b)
        spare = a
    return rows[::-1]


def _fixed_draw(spec: ProblemSpec, rng):
    """Block draw of the fixed-rate problem; see the module docstring.

    The powers and the table function a draw returns hold until the next
    draw.  Raises NoFeasibleSolution(0) when the draw box is empty.
    """
    ch = spec.channel
    n = spec.n_states
    rates = (spec.avg_rate,) * (n + 1)
    k_power = (2.0**spec.avg_rate - 1.0) * ch.noise_power / ch.mean_fading_power
    odds = spec.gamma / (1.0 - spec.gamma)
    lo = max(DELTA, -math.expm1(-k_power / spec.peak_power))
    cap = min(1.0 - DELTA, odds)
    if min(spec.eps_out, cap) < lo:
        raise NoFeasibleSolution(0)

    pairs = _sorting_network(n)
    # The block-sized arrays of a draw are views of these buffers, which the
    # next draw reuses: fresh ones would cost a page fault per 4 KiB.  None
    # is larger than the RNG block.  A larger one, once freed, raises
    # glibc's threshold for returning freed memory, which added 3.7 MiB to
    # the peak RSS of a two-worker sweep.
    buffers = None

    def draw(rows: int):
        nonlocal buffers
        if buffers is None or len(buffers[-1]) < rows:
            # the RNG block, N keys and a spare row, five single rows and a mask
            buffers = [np.empty(rows * (n + 1)), np.empty((n + 1, rows))]
            buffers += [np.empty(rows) for _ in range(5)] + [np.empty(rows, bool)]
        # one row of the RNG stream per candidate: t, then eps_1..eps_N unsorted
        u = rng.random(out=buffers[0][: rows * (n + 1)].reshape(rows, n + 1))
        keys_spare, w1, pbar, e0, lb, t, bad = (b[..., :rows] for b in buffers[1:])
        keys, spare = keys_spare[:n], keys_spare[n]
        np.copyto(t, u[:, 0])
        # the tail state-major: tail[j] holds eps_{j+1} of every row, and
        # eps is non-increasing in j
        np.copyto(keys, u[:, 1:].T)
        _spread(keys.T, lo, cap, min(spec.eps_out, cap))
        tail = _sort_states(keys, pairs, spare)
        # the RNG block is spent; its first N rows of candidates take 1/y
        inv_y = buffers[0][: n * rows].reshape(n, rows)
        for e, y in zip(tail, inv_y):
            np.negative(e, out=y)
            np.log1p(y, out=y)
            np.divide(-1.0, y, out=y)  # 1/(-ln(1 - eps_j))
        # W_1 and the tail power sum_j w_j/(-ln(1 - eps_j))
        _tail_sum(tail, inv_y, out=(w1, pbar))
        # e0 starts as ub and becomes eps_0 = lb + t*(ub - lb)
        np.divide(odds, w1, out=e0)
        np.minimum(e0, 1.0 - DELTA, out=e0)
        np.maximum(tail[0], lo, out=lb)
        np.less(e0, lb, out=bad)
        e0 -= lb
        e0 *= t
        e0 += lb
        # pbar = k*(1/(-ln(1 - eps_0)) + eps_0*pbar)/(1 + eps_0*W_1), with
        # y0 = ln(1 - eps_0) in the row t is done with
        y0 = t
        np.negative(e0, out=y0)
        np.log1p(y0, out=y0)
        pbar *= e0
        pbar -= np.reciprocal(y0, out=y0)
        w1 *= e0
        w1 += 1.0
        pbar *= k_power
        pbar /= w1
        pbar[bad] = np.inf
        feasible = rows - int(np.count_nonzero(bad))
        return rows, feasible, pbar, lambda j: ((e0[j], *(e[j] for e in tail)), rates)

    return draw


def _variable_draw(spec: ProblemSpec, rng):
    """Block draw of the variable-rate problem; see the module docstring.

    Raises NoFeasibleSolution(0) when no outage fits under eps_out.
    """
    ch = spec.channel
    n1 = spec.n_states + 1
    odds = spec.gamma / (1.0 - spec.gamma)
    top = min(spec.eps_out, 1.0 - DELTA)
    if top <= DELTA:
        raise NoFeasibleSolution(0)

    def draw(rows: int):
        e = rng.random((rows, n1))
        _spread(e, DELTA, 1.0 - DELTA, top)
        # C2 before pi: gamma_r = eps_0 W_1/(1 + eps_0 W_1) <= gamma
        surv = np.flatnonzero(e[:, 0] * _tail_sum(e[:, 1:].T) <= odds)
        e = e[surv]
        pi = _steady_rows(e)
        coef = ch.noise_power / (-np.log1p(-e) * ch.mean_fading_power)
        rates, ok = _water_fill(coef, pi, spec)
        pbar = np.einsum("ij,ij->i", coef * (np.exp2(rates) - 1.0), pi)
        pbar[~ok] = np.inf
        return rows, int(np.count_nonzero(ok)), pbar, lambda j: (e[j].copy(), rates[j].copy())

    return draw


def _water_fill(coef, pi, spec: ProblemSpec):
    """Cheapest rates per row meeting C1, C4 and PEAK; see the module docstring.

    The 2(N+1) kinks of each row (lower kinks in the first half, upper in
    the second) are written into one array, sorted along the rows by one
    argsort, and every gather after it is a flat-index take (row offset
    plus position) over the whole block.  Returns the rates and a mask of
    the rows that have a feasible allocation (the rates of the other rows
    are meaningless).
    """
    rows, n1 = coef.shape
    m = 2 * n1
    lc = np.log2(coef)
    rcap = np.minimum(spec.r_max, np.log2(1.0 + spec.peak_power / coef))
    ok = np.all(rcap >= spec.r_min, axis=1) & (
        np.einsum("ij,ij->i", rcap, pi) >= spec.avg_rate
    )
    kinks = np.empty((rows, m))
    np.add(spec.r_min, lc, out=kinks[:, :n1])
    np.add(rcap, lc, out=kinks[:, n1:])
    steps = np.empty((rows, m))
    steps[:, :n1] = pi
    np.negative(pi, out=steps[:, n1:])
    order = np.argsort(kinks, axis=1)
    order += np.arange(0, rows * m, m)[:, None]
    kinks = kinks.take(order)
    steps = steps.take(order)
    gaps = np.diff(kinks, axis=1)
    rise = np.cumsum(steps[:, :-1], axis=1)
    rise *= gaps
    # f at each sorted kink; at the first one every rate is r_min
    f = np.empty_like(kinks)
    f[:, 0] = 0.0
    np.cumsum(rise, axis=1, out=f[:, 1:])
    f += spec.r_min
    # the segment [kink_k, kink_k+1] on which f crosses R.  k = 0 with
    # f_0 >= R puts x at the first kink (every rate r_min); round-off that
    # leaves f below R at the last kink stops x there (every rate capped).
    k = np.clip(np.count_nonzero(f < spec.avg_rate, axis=1) - 1, 0, m - 2)
    at_f = k + np.arange(0, rows * m, m)
    at_rise = k + np.arange(0, rows * (m - 1), m - 1)
    f_k = f.take(at_f)
    rise_k = rise.take(at_rise)
    t = np.divide(spec.avg_rate - f_k, rise_k, out=np.ones_like(f_k), where=rise_k > 0.0)
    np.clip(t, 0.0, 1.0, out=t)
    t *= gaps.take(at_rise)
    t += kinks.take(at_f)  # the water level x
    return np.clip(t[:, None] - lc, spec.r_min, rcap), ok


def _chunks(draw, rows: int, block: int):
    """draw(rows), made as successive draws of at most `block` rows."""
    for start in range(0, rows, block):
        yield draw(min(block, rows - start))


def _search(schedule: AnnealingSchedule, draw, block: int):
    """Minimum over every feasible draw of the schedule's budget.

    draw(rows) returns (candidates evaluated, how many are feasible,
    their average powers with inf for infeasible ones, and a function
    giving the (eps, rates) table of a candidate by index); it is called
    with at most `block` rows.  The fixed-rate draw reuses its arrays in
    the next call, so each block is reduced, and its best table copied out
    by table(j), before the next one is drawn.  Returns (best table,
    improvements, feasible, evaluated, trace).
    """
    best = math.inf
    best_table = None
    improved = feasible = evaluated = 0
    trace: list[tuple[float, float, float]] = []
    for temps in _temperature_blocks(schedule, block):
        block_min = math.inf
        for drawn, ok, pbar, table in _chunks(draw, temps.size * schedule.outer_per_temp, block):
            evaluated += drawn
            feasible += ok
            below = pbar[pbar < best]
            if below.size:
                # each strict prefix minimum of `below` lowers the running best
                improved += 1 + int(np.count_nonzero(below[1:] < np.minimum.accumulate(below[:-1])))
                j = int(np.argmin(pbar))
                block_min = best = float(pbar[j])
                best_table = table(j)
            elif pbar.size:
                block_min = min(block_min, float(pbar.min()))
            del table  # frees a variable-rate draw's arrays before the next draw
        trace.append((float(temps[-1]), block_min, best))
    if best_table is None:
        raise NoFeasibleSolution(evaluated)
    return best_table, improved, feasible, evaluated, tuple(trace)


def _solve(spec: ProblemSpec, schedule: AnnealingSchedule, draw) -> SolveResult:
    """Run the search and evaluate its best table."""
    block = max(1, min(_BLOCK_ROWS, _BLOCK_ELEMENTS // (spec.n_states + 1)))
    (eps, rates), improved, feasible, evaluated, trace = _search(
        _resolve_t0(schedule, draw, block), draw, block
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
    """Search the joint rate/outage problem over the outage vector alone.

    Outage vectors are drawn under the burst budget and filtered on the
    average-loss constraint (the stationary distribution depends on the
    outage vector alone); each survivor gets its cheapest rates exactly,
    by water-filling under the average-rate floor, the rate bounds and
    the per-state power cap (see the module docstring).
    """
    rng = np.random.default_rng(schedule.seed)
    return _solve(spec, schedule, _variable_draw(spec, rng))


def _step_count(schedule: AnnealingSchedule, t0: float):
    """Temperature steps from t0 down to t_min (inf past float range)."""
    steps = (t0 / schedule.t_min - 1.0) / schedule.c_sa
    return math.floor(steps) + 1 if math.isfinite(steps) else math.inf


def _temperature_blocks(schedule: AnnealingSchedule, block: int):
    """Yield the cooling sequence in batches of about `block` draws.

    A batch holds at least one temperature step, so it exceeds `block`
    draws when outer_per_temp does.
    """
    t0 = schedule.t0
    n_steps = _step_count(schedule, t0)
    steps = max(1, block // schedule.outer_per_temp)
    for start in range(0, n_steps, steps):
        stop = min(start + steps, n_steps)
        b = np.arange(start, stop, dtype=float)
        yield t0 / (schedule.c_sa * b + 1.0)


def _resolve_t0(schedule: AnnealingSchedule, draw, block: int) -> AnnealingSchedule:
    """Fill in an automatic t0 from a short probe of the search space."""
    if schedule.t0 is not None:
        return schedule
    low = math.inf
    for _, ok, pbar, _ in _chunks(draw, 10 * schedule.outer_per_temp, block):
        if ok:
            low = min(low, float(pbar.min()))
    t0 = 10.0 * low if low < math.inf else _T0_FALLBACK
    t0 = min(max(t0, 10.0 * schedule.t_min), _T0_MAX)
    return replace(schedule, t0=t0)
