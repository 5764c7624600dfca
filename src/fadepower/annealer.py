"""Solvers for the two policy problems.

The fixed-rate solver draws candidate tables in blocks and returns the
cheapest feasible one.  The number of draws follows a fast-annealing
cooling schedule T_b = T0/(c_sa*b + 1): one step per temperature from T0
down to t_min, `outer_per_temp` candidate tables per step.

There is no Metropolis walk.  Candidates are drawn independently of the
chain's current point, and a candidate no worse than the best seen always
passes the Metropolis test, so the best table an annealing walk over
these proposals reports is exactly the minimum over the feasible draws.
The search loop therefore reduces each block of draws with a vectorised
argmin; the schedule only sets the budget.  `temperature` and
`metropolis_accept` remain the public definitions of that schedule and of
the acceptance test.  The variable-rate solver searches a structured
family of tables, uniform exploration rows and a coordinate polish
instead (below).

Fixed rate: every table drawn meets C2, C3 and PEAK by construction.  At
rate R the power realising outage e is k/(-ln(1 - e)), k = (2^R - 1)N0/Omega,
and losses are ordered worst state last (eps non-increasing, powers
non-decreasing), which does not exclude the optimum.

* The box: lo = max(DELTA, 1 - exp(-k/P_m)) is the peak cap expressed as
  an outage floor; cap = min(1 - DELTA, gamma/(1 - gamma)) is the largest
  value eps_0 can take, so with the order it bounds every state; and
  last = min(eps_out, cap).  eps_1..eps_N are uniform on
  [lo, cap)^(N-1) x [lo, last), cut by the order (below), and sorted into
  non-increasing order, so eps_N <= eps_out.
* The product form gives gamma_r = 1 - pi_0 = eps_0 W_1/(1 + eps_0 W_1),
  with W_1 = 1 + eps_1 + eps_1 eps_2 + ... + eps_1...eps_{N-1}/(1 - eps_N).
  C2 is therefore eps_0 <= gamma/((1 - gamma) W_1).
* The tail is laid out state-major: eps_1..eps_N of a block become N
  contiguous rows of candidates (the transpose of the RNG block), so every
  per-state step reads contiguous memory.  A compare-exchange network
  (Batcher's odd-even merge sort, built once per solve) sorts the rows:
  each exchange is one np.minimum and one np.maximum over two rows, which
  gives exactly the values np.sort gives.  The network grows as
  N log^2 N exchanges of two numpy calls each.
* W_1 and the tail's power sum_j w_j/(-ln(1 - eps_j)) (w_j the terms of
  W_1) come from one fused backward Horner pass over the state rows,
  W_1 = 1 + eps_1(1 + eps_2(... + eps_{N-1}/(1 - eps_N))), with no
  matrix of products.
* eps_0 = lb + t*(ub - lb) with t ~ U(0, 1), ub = min(1 - DELTA,
  gamma/((1 - gamma) W_1)) and lb = max(lo, eps_1).  A draw with ub < lb
  violates only the power order and is the one rejection left.
* The order cut.  W_1 >= 1 + m for the largest outage m = eps_1 (at
  N = 1, W_1 = 1/(1 - m)), so ub <= odds/(1 + m), odds = gamma/(1 - gamma),
  while lb >= m: a row whose m lies above the root r = (sqrt(1 + 4 odds) -
  1)/2 of odds/(1 + m) = m has ub < lb.  The rows at or below r form a
  box, so the draw never generates the others.  Each row of the budget
  takes one uniform from an accept stream spawned from the seed and is
  kept when it lies below p = ((min(cap, r) - lo)/(cap - lo))^(N-1) *
  (min(last, r) - lo)/(last - lo), the chance that a row of the full box
  lies in the cut one.  Only a kept row reads its t and tail from the
  table stream, uniform on [lo, min(cap, r))^(N-1) x [lo, min(last, r)):
  the kept rows have the law of the full box given the cut, so the best
  table and the feasible and improvement counts have the law of a draw
  of the full box, in which every row past the cut is infeasible.  Both
  streams are read in row order, so no result depends on the block size
  (one binomial count of kept rows per block would make it depend).
  When the cut does not bind (p = 1: N = 1 with eps_out <= r) the accept
  stream is never read and every row is kept.
* The cut holds in floating point.  It is r rounded to the largest float
  m with fl(odds/fl(1 + m)) >= m (_order_cut), and that test fails for
  every larger float.  w >= 1 in Horner's last step fl(fl(w*eps_1) + 1),
  so fl(W_1) >= fl(1 + eps_1) (at N = 1, 1/(1 - m) exceeds 1 + m by
  m^2/(1 - m) >= DELTA^2, far above rounding), and a correctly rounded
  division is monotone in its divisor: every row past the cut has
  ub < lb as computed.
* eps_0 is drawn, not pinned to ub: a binding loss budget is not optimal
  at small eps_out (pinned, N=1 at eps_out 0.02 costs 12.746 W against an
  optimum of 11.877 W).
* Infeasibility is certified before drawing when min(eps_out, cap,
  gamma) < lo: eps_N >= lo > eps_out breaks C3; the loss rate
  gamma_r = sum_i pi_i eps_i is at least the smallest outage, so lo >
  gamma breaks C2 for every table, ordered or not (this covers lo > r,
  where p would be 0, since r > gamma); and lo > 1 - DELTA leaves
  no outage in the guard band.  solve_fixed reports the first case as an
  empty feasibility window (ValueError) and the others as
  NoFeasibleSolution(0).

Blocks: a block of the budget generates about 2^17 outage entries (rows
generated x states, at most 65536 rows of the budget; the draw generates
p of its rows), so the temporaries of a deep-N block stay in cache and
N = 1 keeps its 65536-row blocks.  A temperature step wider than a block,
and the t0 probe, are drawn in several blocks, which bounds the memory of
a run for every outer_per_temp.  Each generated row reads one contiguous
slice of the RNG stream, and the accept test one uniform per row of the
budget, both in row order, so the draws, and every result but `trace`,
do not depend on how the budget is cut into blocks.

Buffers: the block-sized arrays of the draw are views of arrays that the
solve keeps (a _Buffers) and the next draw overwrites, so a block costs no
fresh pages of memory; only _spread's copy of the last column allocates.

Variable rate: the search runs over the outage vector alone.  With eps
fixed, pi and c_i = N0/(-ln(1 - eps_i) Omega) are fixed, and what is left,
min sum pi_i c_i (2^r_i - 1) s.t. sum pi_i r_i >= R and r_min <= r_i <=
rcap_i = min(r_max, log2(1 + P_m/c_i)), is convex (infeasible when some
rcap_i < r_min, PEAK, or sum pi_i rcap_i < R, C1).  Its KKT solution is
r_i = clip(x - log2 c_i, r_min, rcap_i) for one water level x (Cover &
Thomas, Elements of Information Theory, 9.4), which generalises
closed_form.n1_variable_solution.

* f(x) = sum pi_i clip(x - log2 c_i, r_min, rcap_i) is piecewise linear
  and non-decreasing, with kinks at the 2(N+1) points r_min + log2 c_i and
  rcap_i + log2 c_i.  Its values at the sorted kinks follow from the
  slope on each segment (a cumulative sum of +pi_i at a lower kink and
  -pi_i at an upper one); x is found exactly on the segment where f
  crosses R (at the lowest kink when sum pi_i r_min >= R), with no
  tolerance loop.  One argsort along the rows sorts the kinks of a batch,
  and flat-index takes gather from it.
* Coordinates.  A row u in [0, 1]^(N+1) is a table: eps_j = lo +
  u_j (hi_j - lo) for j >= 1 and eps_0 = lo + u_0 (ub - lo), with
  hi_N = min(eps_out, 1 - DELTA), hi_j = 1 - DELTA below N, ub =
  min(1 - DELTA, odds/W_1) (W_1 as in the fixed-rate draw) and lo =
  max(DELTA, 1 - exp(-(2^r_min - 1) N0/(Omega P_m))), the outage below
  which no state meets PEAK.  C2 and C3 hold by construction; a row with
  ub < lo reads infeasible.  The search works in units of N0/Omega, so
  scaling N0 and P_m by one power of two scales every power and moves
  nothing else.
* The family: eps_1..eps_{k-1} = 1 - DELTA ("sacrificial bursts", where
  c_i is smallest: C1 counts the transmitted rate), eps_k..eps_N one tail
  outage and eps_0 on its loss budget (u_0 = 1).  The tail outage runs
  over a log grid of 257 points on (lo, hi_N] at every depth k = 1..N,
  then 4 times over 257 points between the neighbours of the best point,
  at its depth.  States that repeat eps_N act as its self-loop, so the
  family of N holds that of every smaller N.
* Exploration: rows uniform in the polish's coordinates z, from
  np.random.default_rng(seed): 4096 in the first round and twice as many
  in each later one, at most 4 rounds.
* Polish: a coordinate pattern search in z, u_j = s(z_j) with s the
  logistic function rescaled to map [-12, 12] onto [0, 1], and z clipped
  there.  Its starts are the family's best table (first round only) and
  the round's 6 cheapest exploration rows.  Each iteration evaluates every
  single-coordinate move z_d + h*o, o in linspace(-1, 1, 8), of every
  live start as one batch.  A start takes its best move when that lowers
  its power by more than 1e-9 relative and divides its step h by 4
  otherwise, from h = 4 until h < 1e-4; a start that fails a move while
  1% above the cheapest start stops.
* Rounds: a round after the first runs only while nothing feasible has
  been found or the round before lowered the best (its exploration
  starts ended below every table known before them, the polished family
  in the first round).  No batch starts after 2^22 rows, which bounds the
  run time of a solve for every input.
* Certificates: NoFeasibleSolution(0) is raised before searching when
  eps_out <= DELTA, or when no table evaluate_variable accepts (at its
  1e-9 slack) exists: when R > r_max, and when c_N (2^r_min - 1) > P_m
  with c_N at eps_N = min(eps_out, 1 - DELTA), the least power state N
  can use.

Of the schedule, the variable-rate solver reads only `seed`.

Everything is a pure function of (spec, schedule): identical inputs give
identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import EPSILON_GUARD as DELTA
from .channel import ChannelModel, power_for_outage
from .markov import steady_state_for
from .policy import _SLACK, Policy, ProblemSpec, average_power, make_policy

# Size of one vectorised draw: about _BLOCK_ELEMENTS outage entries
# (rows generated x states, 1 MiB of float64, which keeps a block's
# temporaries in cache), at most _BLOCK_ROWS rows of the budget.  Every
# draw reads its streams in row order, so results do not depend on these
# sizes; they bound the memory of a draw and set how many samples `trace`
# holds.
_BLOCK_ELEMENTS = 2**17
_BLOCK_ROWS = 65536

# The variable-rate search (see the module docstring): rows of each family
# grid and its zooms; exploration rows of the first round (each later one
# doubles them), rounds, and starts polished per round; the polish's offsets, first and last
# step, logit range, sufficient decrease and drop margin; the row cap.
_FAMILY_ROWS, _FAMILY_ZOOMS = 257, 4
_EXPLORE_ROWS, _EXPLORE_ROUNDS, _EXPLORE_STARTS = 4096, 4, 6
_OFFSETS = np.linspace(-1.0, 1.0, 8)
_STEP, _MIN_STEP = 4.0, 1e-4
_LOGIT_MAX = 12.0
_LOGIT_FLOOR = 1.0 / (1.0 + math.exp(_LOGIT_MAX))
_TOL, _DROP = 1e-9, 0.01
_MAX_ROWS = 2**22

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
    seed:           RNG seed; equal seeds reproduce the run bit-exactly,
                    and the only field solve_variable reads
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
    """Outcome of one solver run: the cheapest feasible table it evaluated.

    evaluated_count counts the rows evaluated (for the fixed-rate solver,
    of the draw budget, with those the order cut drops ungenerated);
    feasible_count the rows with a feasible table; accepted_count the rows
    (fixed rate) or batches (variable rate) that lowered the running best.
    trace holds (temperature, block minimum, best) per block of fixed-rate
    temperature steps, the only field that depends on the block size, and
    (largest step, iteration minimum, best) per variable-rate polish
    iteration; a minimum is inf when its rows are all infeasible, and best
    is non-increasing.  The trace holds each power as the search computed
    it, best_avg_power the re-evaluation of the best table by
    average_power: they agree to about 1e-15 relative, not bit for bit.
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

    buf(name, shape) returns the first prod(shape) entries of the array
    called name, as a view of that shape that holds until the name is asked
    for again; the array is replaced only when a view outgrows it.  A fresh
    block-sized array would cost a minor page fault per 4 KiB every block,
    since glibc trims the heap once a block's arrays are freed.  Each name
    is its own allocation: one array larger than the RNG block, once freed,
    raises glibc's threshold for returning memory and with it the peak RSS
    of later work in the process.
    """

    def __init__(self):
        self._arrays = {}

    def __call__(self, name: str, shape, dtype=float):
        size = math.prod(shape) if isinstance(shape, tuple) else shape
        a = self._arrays.get(name)
        if a is None or a.size < size:
            # whole 4096-entry units: a row count that creeps up by a
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


def _order_cut(odds: float) -> float:
    """The largest float m with fl(odds/fl(1 + m)) >= m: the root r of odds/(1 + m) = m, rounded up.

    A fixed-rate row whose largest outage m exceeds it has ub < lb (see
    the module docstring), so no draw needs a row past it.
    """
    r = (math.sqrt(1.0 + 4.0 * odds) - 1.0) / 2.0
    while odds / (1.0 + r) < r:
        r = math.nextafter(r, 0.0)
    while odds / (1.0 + (up := math.nextafter(r, math.inf))) >= up:
        r = up
    return r


def _fixed_draw(spec: ProblemSpec, seed: int):
    """Block draw of the fixed-rate problem from one seed; see the module docstring.

    draw(rows) evaluates `rows` rows of the budget and returns the exact
    power of each row it keeps, in draw order, inf for the infeasible
    ones.  The powers and the table function a draw returns hold
    until the next draw; table(j) serves the kept rows with a finite
    power.  The tables come from np.random.default_rng(seed) and the
    accept test from a stream spawned from the same seed; draw.entries is
    the mean number of outage entries generated per row of the budget,
    (N + 1)p.  Raises NoFeasibleSolution(0) when no table can be feasible.
    """
    ch = spec.channel
    n = spec.n_states
    rates = (spec.avg_rate,) * (n + 1)
    k_power = (2.0**spec.avg_rate - 1.0) * ch.noise_power / ch.mean_fading_power
    odds = spec.gamma / (1.0 - spec.gamma)
    lo = max(DELTA, -math.expm1(-k_power / spec.peak_power))
    cap = min(1.0 - DELTA, odds)
    last = min(spec.eps_out, cap)
    if min(last, spec.gamma) < lo:
        raise NoFeasibleSolution(0)
    cut = _order_cut(odds)

    def under_cut(top):
        # the share of [lo, top) that lies at or below the cut
        return 1.0 if top <= cut else (cut - lo) / (top - lo)

    # P(a row of the box [lo, cap)^(N-1) x [lo, last) lies under the cut)
    p_keep = under_cut(cap) ** (n - 1) * under_cut(last)
    rng = np.random.default_rng(seed)
    accept = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    pairs = _sorting_network(n)
    # The block-sized arrays of a draw are views of these arrays, which the
    # next draw reuses: the accept uniforms and their mask, the RNG block
    # of the kept rows ("rng", which takes 1/y and the sort's spare row
    # once spent), their state-major candidates ("cand"), and the rows w1,
    # pbar, e0, lb and bad.
    buf = _Buffers()

    def draw(rows: int):
        s = rows
        if p_keep < 1.0:
            # one accept uniform per row of the budget
            a = accept.random(out=buf("accept", rows))
            s = int(np.count_nonzero(np.less(a, p_keep, out=buf("kept", rows, bool))))
        # one row of the RNG stream per kept row: t, then eps_1..eps_N unsorted
        u = rng.random(out=buf("rng", (s, n + 1)))
        # state-major: cand[0] holds t of every row and cand[j] eps_j
        cand = buf("cand", (n + 1, s))
        np.copyto(cand, u.T)
        _spread(cand[1:].T, lo, min(cap, cut), min(last, cut))
        # the tail state-major: tail[j] holds eps_{j+1} of every row, and
        # eps is non-increasing in j; 1/y takes N rows of the spent RNG block
        spent = buf("rng", (n + 1, s))
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
        return rows, feasible, pbar, lambda j: ((e0[j], *(e[j] for e in tail)), rates)

    draw.entries = (n + 1) * p_keep
    return draw


def _rate_caps(coef, pi, spec: ProblemSpec, buf=None):
    """log2 c_i, the rate caps rcap_i and each row's feasibility (PEAK and C1).

    rcap_i = min(r_max, log2(1 + P_m/c_i)); a row is feasible when every
    rcap_i >= r_min and sum pi_i rcap_i >= R.  With buf (a _Buffers) the
    three arrays are its arrays.
    """
    buf = _Buffers() if buf is None else buf
    rows, n1 = coef.shape
    lc = np.log2(coef, out=buf("lc", (rows, n1)))
    rcap = np.divide(spec.peak_power, coef, out=buf("rcap", (rows, n1)))
    rcap += 1.0
    np.log2(rcap, out=rcap)
    np.minimum(spec.r_max, rcap, out=rcap)
    ok = np.greater_equal(rcap, spec.r_min, out=buf("state_ok", (rows, n1), bool))
    ok = ok.all(axis=1, out=buf("ok", rows, bool))
    cap_rate = np.einsum("ij,ij->i", rcap, pi, out=buf("cap_rate", rows))
    ok &= np.greater_equal(cap_rate, spec.avg_rate, out=buf("c1", rows, bool))
    return lc, rcap, ok


def _water_fill(lc, rcap, pi, spec: ProblemSpec, buf=None):
    """Cheapest rates per row meeting C1, C4 and PEAK; see the module docstring.

    lc holds log2 c_i and rcap the rate caps of each row, as _rate_caps
    returns them; the rates of a row _rate_caps marks infeasible are
    meaningless.  The 2(N+1) kinks of each row (lower kinks in the first
    half, upper in the second) are written into one array, sorted along the
    rows by one argsort, and every gather after it is a flat-index take
    (row offset plus position) over all rows.  The rates are written over
    lc.  With buf (a _Buffers) every array but the argsort's is one of its
    arrays.
    """
    buf = _Buffers() if buf is None else buf
    rows, n1 = lc.shape
    m = 2 * n1
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
    np.divide(f_k, rise_k, out=t, where=np.greater(rise_k, 0.0, out=buf("rising", rows, bool)))
    np.clip(t, 0.0, 1.0, out=t)
    t *= kinks.take(at, out=rise_k, mode="clip")  # the gap of segment k
    t += sorted_kinks.take(at, out=rise_k, mode="clip")  # the water level x
    rates = np.subtract(t[:, None], lc, out=lc)
    return np.clip(rates, spec.r_min, rcap, out=rates)


def _chunks(rows: int, block: int):
    """Sizes of the successive draws, of at most `block` rows, that make up `rows`."""
    for start in range(0, rows, block):
        yield min(block, rows - start)


def _search(schedule: AnnealingSchedule, draw, block: int):
    """Minimum over every feasible draw of the schedule's budget.

    draw(rows) returns (candidates evaluated, how many are feasible, their
    average powers, inf for the infeasible ones, and a function giving the
    (eps, rates) table of a feasible candidate by index); it is called
    with at most `block` rows.  The draw writes every block into arrays
    that its next call overwrites, so each block is reduced, and its best
    table copied out by table(j), before the next one is drawn.  The draws
    that lowered the running best are the strict drops of one running
    minimum, written into an array the search keeps.  Returns (best
    table, improvements, feasible, evaluated, trace).
    """
    buf = _Buffers()
    best = math.inf
    best_table = None
    improved = feasible = evaluated = 0
    trace: list[tuple[float, float, float]] = []
    for temps in _temperature_blocks(schedule, block):
        block_min = math.inf
        for rows in _chunks(temps.size * schedule.outer_per_temp, block):
            drawn, ok, pbar, table = draw(rows)
            evaluated += drawn
            feasible += ok
            if not pbar.size:
                continue
            j = int(np.argmin(pbar))
            low = float(pbar[j])
            if low < best:
                # the draws that lower the best lie between the first row
                # below it and the first row at the block minimum, j
                i = int(np.less(pbar[:j + 1], best, out=buf("below", j + 1, bool)).argmax())
                run = np.minimum.accumulate(pbar[i:j + 1], out=buf("run", j + 1 - i))
                drops = np.less(run[1:], run[:-1], out=buf("drops", j - i, bool))
                improved += 1 + int(np.count_nonzero(drops))
                best = low
                best_table = table(j)
            block_min = min(block_min, low)
        trace.append((float(temps[-1]), block_min, best))
    if best_table is None:
        raise NoFeasibleSolution(evaluated)
    return best_table, improved, feasible, evaluated, tuple(trace)


def _result(policy: Policy, improved: int, feasible: int, evaluated: int, trace) -> SolveResult:
    """The SolveResult of a best table, with its power evaluated by average_power."""
    return SolveResult(
        best_avg_power=average_power(policy.powers, steady_state_for(policy.eps)),
        best_policy=policy,
        accepted_count=improved,
        feasible_count=feasible,
        evaluated_count=evaluated,
        trace=tuple(trace),
    )


def solve_fixed(spec: ProblemSpec, schedule: AnnealingSchedule) -> SolveResult:
    """Search the fixed-rate problem: constant rate, free outage vector.

    Every table drawn meets the loss, burst and peak constraints, and the
    rows of the budget whose outages would break the power order are
    dropped without being generated (see the module docstring).  Raises
    ValueError when the terminal-power window P_out <= P_N <= P_m is empty
    (P_out the power whose outage at rate R equals eps_out), and
    NoFeasibleSolution(0), before drawing, when the outage at peak power
    lies above gamma (every loss rate is then above gamma) or leaves no
    outage in the guard band.

    Blocks hold about _BLOCK_ELEMENTS of the draw.entries outage entries
    per row of the budget; the floor of 1 entry keeps a p that underflows
    to 0 (N past about 1500) from dividing by zero.
    """
    p_out = power_for_outage(spec.eps_out, spec.avg_rate, spec.channel)
    if p_out > spec.peak_power * (1.0 + 1e-12):
        raise ValueError("feasibility window empty")
    draw = _fixed_draw(spec, schedule.seed)
    block = max(1, min(_BLOCK_ROWS, int(_BLOCK_ELEMENTS // max(draw.entries, 1.0))))
    (eps, rates), *counts = _search(_resolve_t0(schedule, draw, block), draw, block)
    return _result(make_policy(eps, rates, spec.channel), *counts)


class _VariableSearch:
    """Powers of variable-rate rows u, and the cheapest row over every batch.

    A row u in [0, 1]^(N+1) is a table (see the module docstring).  The
    search works in units of N0/Omega: `spec` is the problem with P_m in
    those units and N0 = Omega = 1, and `unit` converts its powers to W.
    """

    def __init__(self, spec: ProblemSpec):
        self.unit = spec.channel.noise_power / spec.channel.mean_fading_power
        self.spec = replace(spec, peak_power=spec.peak_power / self.unit, channel=ChannelModel())
        self.odds = spec.gamma / (1.0 - spec.gamma)
        # the outage at which P_m sends r_min: no state can go below it
        floor = -math.expm1((1.0 - 2.0**spec.r_min) / self.spec.peak_power)
        self.top = min(spec.eps_out, 1.0 - DELTA)
        self.lo = min(max(DELTA, floor), self.top)
        self.span = np.full(spec.n_states + 1, 1.0 - DELTA - self.lo)
        self.span[-1] = self.top - self.lo
        self.best, self.best_row = math.inf, None
        self.improved = self.feasible = self.evaluated = 0
        self.buf = _Buffers()

    def tables(self, u):
        """Outages, rates and powers (inf where infeasible) of rows u."""
        e = u * self.span
        e += self.lo
        ub = np.minimum(self.odds / _tail_sum(e[:, 1:].T), 1.0 - DELTA)
        e[:, 0] = u[:, 0] * (ub - self.lo) + self.lo
        pi = _steady_rows(e, self.buf)
        coef = -1.0 / np.log1p(-e)
        lc, rcap, ok = _rate_caps(coef, pi, self.spec, self.buf)
        ok &= ub >= self.lo
        rates = _water_fill(lc, rcap, pi, self.spec, self.buf)
        power = np.einsum("ij,ij->i", coef * (np.exp2(rates) - 1.0), pi)
        power[~ok] = np.inf
        return e, rates, power

    def family(self, k: int, tail):
        """Rows with eps_1..eps_{k-1} = 1 - DELTA, eps_k..eps_N = tail and u_0 = 1."""
        u = np.ones((tail.size, self.span.size))
        np.divide(tail[:, None] - self.lo, self.span[k:], out=u[:, k:], where=self.span[k:] > 0.0)
        return u

    def powers(self, u):
        """Powers of rows u, in blocks of about _BLOCK_ELEMENTS outages; counts them."""
        step = max(1, _BLOCK_ELEMENTS // u.shape[1])
        p = np.concatenate([self.tables(u[i:i + step])[2] for i in range(0, len(u), step)])
        self.evaluated += p.size
        self.feasible += int(np.count_nonzero(p < np.inf))
        j = int(np.argmin(p))
        if p[j] < self.best:
            self.best, self.best_row = float(p[j]), u[j].copy()
            self.improved += 1
        return p


def _sigmoid(z):
    """The logistic function rescaled to map [-_LOGIT_MAX, _LOGIT_MAX] onto [0, 1]."""
    return np.clip((1.0 / (1.0 + np.exp(-z)) - _LOGIT_FLOOR) / (1.0 - 2.0 * _LOGIT_FLOOR), 0.0, 1.0)


def _polish(search: _VariableSearch, u, trace: list) -> np.ndarray:
    """Coordinate pattern search in logit coordinates from start rows u.

    See the module docstring.  Appends (largest step, iteration minimum,
    best), in W, to trace per iteration and returns the power each start ends at.
    """
    v = u * (1.0 - 2.0 * _LOGIT_FLOOR) + _LOGIT_FLOOR
    z = np.clip(np.log(v) - np.log1p(-v), -_LOGIT_MAX, _LOGIT_MAX)
    power = search.powers(_sigmoid(z))
    starts, n1 = z.shape
    moves = n1 * _OFFSETS.size
    step = np.full(starts, _STEP)
    state = np.arange(n1)
    while (live := np.flatnonzero(step >= _MIN_STEP)).size and search.evaluated < _MAX_ROWS:
        cand = np.repeat(z[live], moves, axis=0).reshape(live.size, n1, _OFFSETS.size, n1)
        # move d of start s by step[s]*o in coordinate d only
        cand[:, state, :, state] += step[live, None] * _OFFSETS
        np.clip(cand, -_LOGIT_MAX, _LOGIT_MAX, out=cand)
        cand = cand.reshape(live.size, moves, n1)
        p = search.powers(_sigmoid(cand.reshape(-1, n1))).reshape(live.size, moves)
        j = np.argmin(p, axis=1)
        low = p[np.arange(live.size), j]
        better = low < power[live] * (1.0 - _TOL)
        z[live[better]] = cand[better, j[better]]
        power[live[better]] = low[better]
        trace.append((float(step[live].max()), float(low.min()) * search.unit,
                      search.best * search.unit))
        step[live[~better]] /= 4.0
        # a start that has failed a move and still lies well above the best
        # start is in a worse basin: it stops
        step[(step < _STEP) & (power > power.min() * (1.0 + _DROP))] = 0.0
    return power


def _certified_infeasible(spec: ProblemSpec) -> bool:
    """True when no table evaluate_variable accepts, at its slack, meets C1 or PEAK in state N."""
    slack = lambda x: _SLACK * max(1.0, abs(x))  # noqa: E731
    e_n = min(spec.eps_out + slack(spec.eps_out), 1.0 - DELTA)
    least = power_for_outage(e_n, max(0.0, spec.r_min - slack(spec.r_min)), spec.channel)
    return (spec.avg_rate - slack(spec.avg_rate) > spec.r_max + slack(spec.r_max)
            or least > spec.peak_power + slack(spec.peak_power))


def solve_variable(spec: ProblemSpec, schedule: AnnealingSchedule) -> SolveResult:
    """Search the joint rate/outage problem over the outage vector alone.

    Every table searched meets the loss and burst constraints by
    construction and gets its cheapest rates by water-filling; the search
    is a structured family, then rounds of exploration rows polished by a
    coordinate pattern search (see the module docstring).  It reads only
    the schedule's seed.  Raises NoFeasibleSolution(0) when a certificate
    shows that no table can be feasible, and NoFeasibleSolution(evaluated)
    when the search finds none.
    """
    if spec.eps_out <= DELTA or _certified_infeasible(spec):
        raise NoFeasibleSolution(0)
    search = _VariableSearch(spec)
    n1 = spec.n_states + 1
    # the family on a log grid of its tail outage, zoomed about its best point
    grid = np.geomspace(search.lo, search.top, _FAMILY_ROWS + 1)[1:]
    depths = range(1, n1)
    for _ in range(_FAMILY_ZOOMS + 1):
        p = search.powers(np.vstack([search.family(k, grid) for k in depths]))
        k, i = np.unravel_index(np.argmin(p), (len(depths), grid.size))
        depths = [depths[k]]
        grid = np.geomspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], _FAMILY_ROWS)
    carry = [] if search.best_row is None else [search.best_row]
    rng = np.random.default_rng(schedule.seed)
    before = math.inf
    trace: list[tuple[float, float, float]] = []
    for rows in _EXPLORE_ROWS * 2 ** np.arange(_EXPLORE_ROUNDS):
        if search.evaluated >= _MAX_ROWS:
            break
        u = _sigmoid(rng.uniform(-_LOGIT_MAX, _LOGIT_MAX, (rows, n1)))
        p = search.powers(u)
        pick = np.argsort(p)[:_EXPLORE_STARTS]
        starts = np.vstack([*carry, u[pick[p[pick] < np.inf]]])
        end = _polish(search, starts, trace) if len(starts) else np.empty(0)
        old = end[:len(carry)].min(initial=before)
        if search.best_row is not None and not end[len(carry):].min(initial=math.inf) < old:
            break
        carry, before = [], search.best
    if search.best_row is None:
        raise NoFeasibleSolution(search.evaluated)
    e, rates, _ = search.tables(search.best_row[None])
    return _result(make_policy(e[0], rates[0], spec.channel), search.improved, search.feasible,
                   search.evaluated, trace)


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
    for rows in _chunks(10 * schedule.outer_per_temp, block):
        _, ok, pbar, _ = draw(rows)
        if ok:
            low = min(low, float(pbar.min()))
    t0 = 10.0 * low if low < math.inf else _T0_FALLBACK
    t0 = min(max(t0, 10.0 * schedule.t_min), _T0_MAX)
    return replace(schedule, t0=t0)
