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
* eps_0 = lb + t*(ub - lb) with t ~ U(0, 1), ub = min(1 - DELTA,
  gamma/((1 - gamma) W_1)) and lb = max(lo, eps_1).  A draw with ub < lb
  violates only the power order and is the one rejection left.
* Prefilter, N >= 2: most such rows are dropped before the sort, the N
  log1p rows and the Horner pass.  m = eps_1, the largest outage of a row,
  is one reduction over the unsorted state rows, and W_1 >= 1 + m, so a
  row with odds/(1 + m) < max(m, lo), odds = gamma/(1 - gamma), has
  ub < lb.  This holds in floating point: w >= 1 in Horner's last step
  fl(fl(w*eps_1) + 1), so fl(W_1) >= fl(1 + eps_1), and a correctly
  rounded division is monotone in its divisor.  The survivors are
  gathered into the spent RNG block.  At gamma 0.2, eps_out 0.1 the
  filter passes 82%, 67%, 37% and 17% of the rows at N = 2, 3, 6 and 10,
  of which 81%, 65%, 33% and 13% are feasible.  A draw still returns one
  power per drawn row, inf for a dropped row, and its table function
  serves the feasible rows.  N = 1 has no sort to skip and no prefilter.
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

Buffers: the block-sized arrays of both draws are views of arrays that
the solve keeps (a _Buffers) and the next draw overwrites, so a block
costs no fresh pages of memory.  What still allocates is the argsort of
the water-filling, the survivors' row indices and, in the fixed-rate
draw, _spread's copy of the last column.  Fresh arrays cost a minor page fault per 4 KiB, and glibc
trimmed the heap after each block, so every block faulted the same pages
in again: 12 to 15 thousand faults per variable-rate solve at N = 1 and
3.  The variable-rate draw works through a block in slices of
_SLICE_ROWS rows: each slice is drawn, tested on C2 and water-filled on
its own, and only the outages, rates and powers of the rows that meet
C2 are kept for the whole block.  The arrays of the water-filling then
hold one slice's survivors and stay in cache, and the arithmetic of each
row is unchanged.

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

# Rows of one slice of a variable-rate block.  The slices of a block are
# drawn, tested on C2 and water-filled one after another, so the arrays of
# the water-filling hold the survivors of one slice (a sixth to a quarter
# of its rows at gamma 0.2) and stay in cache.
_SLICE_ROWS = 16384

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


class _Buffers:
    """Named arrays that the draws of one solve write into, block after block.

    A fresh block-sized array costs a minor page fault per 4 KiB, and
    glibc trims the heap once a block's arrays are freed, so the next block
    would fault the same pages in again.  buf(name, shape) returns the
    first prod(shape) entries of the array called name, as a view of that
    shape; the array is replaced by a larger one only when a view outgrows
    it, so it ends as large as the largest view asked of it.  A view holds
    until its name is asked for again.  Each name is its own allocation:
    one array larger than the RNG block, once freed, raises glibc's
    threshold for returning memory and with it the peak RSS of later work
    in the process.
    """

    def __init__(self):
        self._arrays = {}

    def __call__(self, name: str, shape, dtype=float):
        size = math.prod(shape) if isinstance(shape, tuple) else shape
        a = self._arrays.get(name)
        if a is None or a.size < size:
            # whole 4096-entry units: a survivor count that creeps up by a
            # few rows does not replace the array every block
            a = self._arrays[name] = np.empty(-(-size // 4096) * 4096, dtype)
        return a[:size].reshape(shape)

    def starts(self, rows: int, width: int):
        """Flat index of the first entry of each row of a (rows, width) array."""
        a = self._arrays.get(("starts", width))
        if a is None or a.size < rows:
            a = self._arrays["starts", width] = np.arange(0, rows * width, width)
        return a[:rows]


def _steady_rows(e, buf=None):
    """Stationary distributions of many outage vectors at once.

    Uses the product form of the success-runs chain: pi_j is proportional
    to eps_0*...*eps_{j-1}, with the terminal weight divided by
    (1 - eps_N) to absorb the self-loop.  With buf (a _Buffers) the rows
    are written into its arrays instead of new ones.
    """
    buf = _Buffers() if buf is None else buf
    rows, n1 = e.shape
    w = buf("pi", (rows, n1))
    w[:, 0] = 1.0
    np.cumprod(e[:, :-1], axis=1, out=w[:, 1:])
    w[:, -1] /= np.subtract(1.0, e[:, -1], out=buf("pi_row", rows))
    return np.divide(w, w.sum(axis=1, keepdims=True, out=buf("pi_row", (rows, 1))), out=w)


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


def _spread(u, lo: float, hi: float, hi_last: float, last=None):
    """Map uniforms u in place from [0, 1) to [lo, hi), the last column to [lo, hi_last).

    last, a row as long as u, holds the last column while the rest is scaled.
    """
    last = np.multiply(u[:, -1], hi_last - lo, out=last)
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


def _order_may_hold(keys, lo: float, odds: float, buf=None):
    """Mask of the rows whose power order can hold, from unsorted state-major keys.

    keys[j] holds one outage of every row, N >= 2 rows.  With m the largest
    outage of a row, W_1 >= 1 + m, so ub <= odds/(1 + m) while lb =
    max(m, lo): a row with odds/(1 + m) < max(m, lo) has ub < lb and is
    dropped.  The bound holds in floating point (see the module
    docstring).  With buf, the mask is its array "keep", and its rows "lb"
    and "e0" are spent as scratch.
    """
    buf = _Buffers() if buf is None else buf
    m = np.max(keys, axis=0, out=buf("lb", keys.shape[1]))
    bound = np.add(m, 1.0, out=buf("e0", m.size))
    np.divide(odds, bound, out=bound)
    np.maximum(m, lo, out=m)
    return np.greater_equal(bound, m, out=buf("keep", m.size, bool))


def _fixed_draw(spec: ProblemSpec, rng):
    """Block draw of the fixed-rate problem; see the module docstring.

    The powers and the table function a draw returns hold until the next
    draw; table(j) serves the rows with a finite power.  Raises
    NoFeasibleSolution(0) when the draw box is empty.
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
    # The block-sized arrays of a draw are views of these arrays, which the
    # next draw reuses: the RNG block ("rng", which takes the survivors of
    # the prefilter once spent), the state-major candidates ("cand", N + 1
    # rows, which take 1/y and the sort's spare row once spent), the rows
    # w1, pbar, e0, lb and bad of the rows that reach the sort, and, when
    # the prefilter runs, its mask ("keep") and the powers of every drawn
    # row ("drawn").
    buf = _Buffers()

    def draw(rows: int):
        # one row of the RNG stream per candidate: t, then eps_1..eps_N unsorted
        u = rng.random(out=buf("rng", (rows, n + 1)))
        # state-major: cand[0] holds t of every row and cand[j] eps_j
        cand = buf("cand", (n + 1, rows))
        np.copyto(cand, u.T)
        _spread(cand[1:].T, lo, cap, min(spec.eps_out, cap))
        if n > 1:
            # drop the rows whose power order must fail, then gather the
            # rest into the spent RNG block
            kept = np.flatnonzero(_order_may_hold(cand[1:], lo, odds, buf))
            s = kept.size
            cand = np.take(cand, kept, axis=1, out=buf("rng", (n + 1, s)), mode="clip")
            spent = buf("cand", (n + 1, s))
        else:
            kept, s, spent = None, rows, buf("rng", (n + 1, rows))
        # the tail state-major: tail[j] holds eps_{j+1} of every row, and
        # eps is non-increasing in j; 1/y takes N rows of the spent block
        t, inv_y = cand[0], spent[:n]
        tail = _sort_states(cand[1:], pairs, spent[n])
        for e, y in zip(tail, inv_y):
            np.negative(e, out=y)
            np.log1p(y, out=y)
            np.divide(-1.0, y, out=y)  # 1/(-ln(1 - eps_j))
        w1, pbar, e0, lb = (buf(name, s) for name in ("w1", "pbar", "e0", "lb"))
        bad = buf("bad", s, bool)
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
        feasible = s - int(np.count_nonzero(bad))
        if kept is None:
            return rows, feasible, pbar, lambda j: ((e0[j], *(e[j] for e in tail)), rates)
        # one power per drawn row, inf for the rows the prefilter dropped
        powers = buf("drawn", rows)
        powers.fill(np.inf)
        powers[kept] = pbar

        def table(j):
            i = int(np.searchsorted(kept, j))
            return (e0[i], *(e[i] for e in tail)), rates

        return rows, feasible, powers, table

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

    buf = _Buffers()

    def draw(rows: int):
        # the outages, rates and powers of the rows that meet C2, in draw order
        e, rates, pbar = buf("e", (rows, n1)), buf("rates", (rows, n1)), buf("pbar", rows)
        done = feasible = 0
        for start in range(0, rows, _SLICE_ROWS):
            u = rng.random(out=buf("rng", (min(_SLICE_ROWS, rows - start), n1)))
            _spread(u, DELTA, 1.0 - DELTA, top, last=buf("w1", len(u)))
            # C2 before pi: gamma_r = eps_0 W_1/(1 + eps_0 W_1) <= gamma
            x = _tail_sum(u[:, 1:].T, out=(buf("w1", len(u)),))
            x *= u[:, 0]
            surv = np.flatnonzero(np.less_equal(x, odds, out=buf("c2", len(u), bool)))
            at = slice(done, done + surv.size)
            es = np.take(u, surv, axis=0, out=e[at], mode="clip")
            pi = _steady_rows(es, buf)
            coef = np.negative(es, out=buf("coef", es.shape))
            np.log1p(coef, out=coef)
            np.negative(coef, out=coef)
            coef *= ch.mean_fading_power
            np.divide(ch.noise_power, coef, out=coef)
            r, ok = _water_fill(coef, pi, spec, buf)
            np.copyto(rates[at], r)
            power = np.exp2(r, out=buf("power", es.shape))
            power -= 1.0
            power *= coef
            ps = np.einsum("ij,ij->i", power, pi, out=pbar[at])
            ps[np.logical_not(ok, out=buf("infeasible", ok.size, bool))] = np.inf
            feasible += int(np.count_nonzero(ok))
            done += surv.size
        e, rates = e[:done], rates[:done]
        return rows, feasible, pbar[:done], lambda j: (e[j].copy(), rates[j].copy())

    return draw


def _water_fill(coef, pi, spec: ProblemSpec, buf=None):
    """Cheapest rates per row meeting C1, C4 and PEAK; see the module docstring.

    The 2(N+1) kinks of each row (lower kinks in the first half, upper in
    the second) are written into one array, sorted along the rows by one
    argsort, and every gather after it is a flat-index take (row offset
    plus position) over all rows.  Returns the rates and a mask of
    the rows that have a feasible allocation (the rates of the other rows
    are meaningless).  With buf (a _Buffers) every array but the
    argsort's is one of its arrays, the rates and the mask included.
    """
    buf = _Buffers() if buf is None else buf
    rows, n1 = coef.shape
    m = 2 * n1
    lc = np.log2(coef, out=buf("lc", (rows, n1)))
    rcap = np.divide(spec.peak_power, coef, out=buf("rcap", (rows, n1)))
    rcap += 1.0
    np.log2(rcap, out=rcap)
    np.minimum(spec.r_max, rcap, out=rcap)
    ok = np.greater_equal(rcap, spec.r_min, out=buf("state_ok", (rows, n1), bool))
    ok = ok.all(axis=1, out=buf("ok", rows, bool))
    cap_rate = np.einsum("ij,ij->i", rcap, pi, out=buf("cap_rate", rows))
    ok &= np.greater_equal(cap_rate, spec.avg_rate, out=buf("c1", rows, bool))
    kinks = buf("kinks", (rows, m))
    np.add(spec.r_min, lc, out=kinks[:, :n1])
    np.add(rcap, lc, out=kinks[:, n1:])
    steps = buf("steps", (rows, m))
    steps[:, :n1] = pi
    np.negative(pi, out=steps[:, n1:])
    starts = buf.starts(rows, m)
    order = np.argsort(kinks, axis=1)
    order += starts[:, None]
    sorted_kinks = kinks.take(order, out=buf("sorted_kinks", (rows, m)), mode="clip")
    f = steps.take(order, out=buf("sorted_steps", (rows, m)), mode="clip")
    del order
    # the unsorted kinks and steps are spent.  gaps and rise, m - 1 wide,
    # take the first m - 1 columns of their arrays, so one flat index,
    # position plus row start, gathers from f, rise and gaps alike.
    gaps, rise = kinks[:, :-1], steps[:, :-1]
    np.subtract(sorted_kinks[:, 1:], sorted_kinks[:, :-1], out=gaps)
    np.cumsum(f[:, :-1], axis=1, out=rise)
    rise *= gaps
    # f (over the spent sorted steps) at each sorted kink; at the first one
    # every rate is r_min
    f[:, 0] = 0.0
    np.cumsum(rise, axis=1, out=f[:, 1:])
    f += spec.r_min
    # the segment [kink_k, kink_k+1] on which f crosses R.  k = 0 with
    # f_0 >= R puts x at the first kink (every rate r_min); round-off that
    # leaves f below R at the last kink stops x there (every rate capped).
    below = np.less(f, spec.avg_rate, out=buf("below", (rows, m), bool))
    at = below.sum(axis=1, out=buf("at", rows, np.intp))
    at -= 1
    np.clip(at, 0, m - 2, out=at)
    at += starts
    f_k = f.take(at, out=buf("f_k", rows), mode="clip")
    rise_k = steps.take(at, out=buf("rise_k", rows), mode="clip")  # rise at k
    np.subtract(spec.avg_rate, f_k, out=f_k)
    t = buf("t", rows)
    t.fill(1.0)
    np.divide(f_k, rise_k, out=t, where=np.greater(rise_k, 0.0, out=buf("c1", rows, bool)))
    np.clip(t, 0.0, 1.0, out=t)
    t *= kinks.take(at, out=rise_k, mode="clip")  # the gap of segment k
    t += sorted_kinks.take(at, out=rise_k, mode="clip")  # the water level x
    rates = np.subtract(t[:, None], lc, out=lc)
    return np.clip(rates, spec.r_min, rcap, out=rates), ok


def _chunks(draw, rows: int, block: int):
    """draw(rows), made as successive draws of at most `block` rows."""
    for start in range(0, rows, block):
        yield draw(min(block, rows - start))


def _search(schedule: AnnealingSchedule, draw, block: int):
    """Minimum over every feasible draw of the schedule's budget.

    draw(rows) returns (candidates evaluated, how many are feasible,
    their average powers with inf for infeasible ones, and a function
    giving the (eps, rates) table of a feasible candidate by index); it is
    called with at most `block` rows.  Both draws write every block into
    arrays that their next call overwrites, so each block is reduced, and
    its best table copied out by table(j), before the next one is drawn.
    Returns (best table, improvements, feasible, evaluated, trace).
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
