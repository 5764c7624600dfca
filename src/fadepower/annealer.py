"""Solvers for the two policy problems.

The fixed-rate problem is the variable-rate problem with every rate
pinned at R, and both solvers run one search over the outage vector.
They differ only in the map from a searched row to a table and its
power, in the peak floor of that map, in the certificates checked
before searching, and in the first start: the fixed-rate search starts
from the table of an exact Lagrangian pass, which also bounds its power
from below.

* Coordinates.  A row u in [0, 1]^(N+1) is a table: eps_j = lo +
  u_j (hi_j - lo) for j >= 1 and eps_0 = lb + u_0 (ub - lb), with
  hi_N = min(eps_out, 1 - DELTA), hi_j = 1 - DELTA below N and ub =
  min(1 - DELTA, odds/W_1), odds = gamma/(1 - gamma).  The product form
  gives gamma_r = 1 - pi_0 = eps_0 W_1/(1 + eps_0 W_1), with W_1 = 1 +
  eps_1 + eps_1 eps_2 + ... + eps_1...eps_{N-1}/(1 - eps_N), so C2 is
  eps_0 <= odds/W_1; lb = lo for the variable-rate problem.  lo =
  max(DELTA, 1 - exp(-(2^r - 1) N0/(Omega P_m))) is the outage below
  which no state meets PEAK at rate r (R for the fixed-rate problem,
  r_min for the variable-rate one).  C2, C3 and that floor hold by
  construction; a row with ub < lb reads infeasible.  The search works in
  units of N0/Omega, so scaling N0 and P_m by one power of two scales
  every power and moves nothing else.
* Fixed rate: every state sends R, so the floor is PEAK itself and the
  power of a row is (2^R - 1) sum_i pi_i c_i, c_i = -1/ln(1 - eps_i).
  By renewal-reward (Ross, Applied Probability Models with Optimization
  Applications, 1970) that is (2^R - 1) C_0/L_0, the mean cost over the
  mean length of a cycle from state 0 back to it: L_N = 1/(1 - eps_N),
  C_N = c_N L_N, L_j = 1 + eps_j L_{j+1} and C_j = c_j + eps_j C_{j+1},
  so one backward pass over the states prices a block of rows, and L_1 =
  W_1 gives ub on the way, with no pi formed.  lb = max(lo, eps_1), so
  eps_0 >= eps_1, and the exploration rows have states 1..N-1 sorted
  into non-increasing order: two parts of the power order
  (eps non-increasing).  Without them, where gamma is about 0.6 or more,
  the polish can stall at a table with one state at the guard band
  1 - DELTA, up to 5% above the best table known.  On 2900 random solves
  (N 1-12, gamma 0.02-0.7, most of them at 0.5 or more) the search with
  neither, or with the sort alone, ended above the power of a random
  search of ordered tables (up to 2 * 10^6 rows) 7 times, and with both
  never.
* Variable rate: with eps fixed, pi and c_i = N0/(-ln(1 - eps_i) Omega)
  are fixed, and what is left, min sum pi_i c_i (2^r_i - 1) s.t.
  sum pi_i r_i >= R and r_min <= r_i <= rcap_i = min(r_max, log2(1 +
  P_m/c_i)), is convex (infeasible when some rcap_i < r_min, PEAK, or
  sum pi_i rcap_i < R, C1).  Its KKT solution is r_i = clip(x - log2 c_i,
  r_min, rcap_i) for one water level x (Cover & Thomas, Elements of
  Information Theory, 9.4), which generalises
  closed_form.n1_variable_solution.  f(x) = sum pi_i clip(x - log2 c_i,
  r_min, rcap_i) is piecewise linear and non-decreasing, with kinks at
  the 2(N+1) points r_min + log2 c_i and rcap_i + log2 c_i.  Its values
  at the sorted kinks follow from the slope on each segment (a
  cumulative sum of +pi_i at a lower kink and -pi_i at an upper one); x
  is found exactly on the segment where f crosses R (at the lowest kink
  when sum pi_i r_min >= R), with no tolerance loop.  One argsort along
  the rows sorts the kinks of a batch, and flat-index takes gather from
  it.
* Fixed-rate start: a Lagrangian renewal-reward pass (Altman,
  Constrained Markov Decision Processes, 1999; Dinkelbach, Management
  Science 13, 1967), in scalar floats.  With u = -ln(1 - eps) and k =
  2^R - 1 (units of N0/Omega), state i costs k/u a slot, and a cycle from
  state 0 has Lambda_0 = L_0 - 1 losses, Lambda_N = eps_N/(1 - eps_N) and
  Lambda_i = eps_i(1 + Lambda_{i+1}); C2 is Lambda_0 <= odds.  For a
  multiplier mu >= 0 on C2 and a ratio lam, one backward pass takes the
  table minimising C_0 + mu Lambda_0 - lam L_0 state by state, from u in
  [u_lo, -ln DELTA] (u_lo the peak floor; eps_N up to min(eps_out, 1 -
  DELTA)).  State N minimises (k/u + mu eps - lam)/(1 - eps) at its box
  ends and the roots of (lam - mu) u^2 - k u + k = 0 in the box, its
  value V_N; state i < N minimises k/u - c e^-u, c = mu + V_{i+1}, at its
  box ends and, when c > 0 and k/c <= 4 e^-2, at u = -2 W_0(-sqrt(k/c)/2)
  (its only interior minimum; W_0 by Halley steps), and V_i = k/u + mu eps
  - lam + eps V_{i+1}.  Dinkelbach steps lam <- (C_0 + mu Lambda_0)/L_0,
  warm-started from the previous mu, until lam moves by at most 4e-16
  relative give lambda(mu), the least ratio.  Every table has C_0 + mu
  Lambda_0 - lam L_0 >= V_0 and L_0 >= 1, so lam + min(V_0, 0), from the
  last step, bounds lambda(mu) from below however many steps ran.  mu = 0
  comes first; when its table breaks C2, mu doubles from 1 until the
  table meets it, then Illinois regula falsi on Lambda_0(mu) - odds
  narrows the bracket until the gap below is at most 1e-13 or the
  bracket 1e-15 relative.  The pass returns the cheapest table with
  Lambda_0 <= odds and the dual D = max (that bound - mu gamma) over
  every mu tried; no table meeting C2 costs less than D, so (P - D)/P,
  P the table's power, certifies it.  The pass
  takes 0.1-1 ms at N <= 10 and certifies gamma 0.2 to about 1e-16; a gap
  is left only where the best deterministic table lies above the dual,
  mostly at gamma 0.6 or more.
* The family: eps_1..eps_{k-1} = 1 - DELTA ("sacrificial bursts", where
  a state costs least power, and the variable-rate C1 counts the
  transmitted rate), eps_k..eps_N one tail outage and eps_0 on its loss
  budget (u_0 = 1).  The tail outage runs over a log grid of 257 points
  on (lo, hi_N] at every depth k = 1..N, then 4 times over 257 points
  between the neighbours of the best point, at its depth.  States that
  repeat eps_N act as its self-loop, so the family of N holds that of
  every smaller N.  The fixed-rate search runs it only where the pass
  leaves a gap above 1e-9.  Where the pass certifies, the family adds
  nothing (at gamma 0.2, eps_out 0.1 its best lies 12% above the optimum
  at N = 3, 6 and 10); in the gap regime a search without it ended up to
  1.9e-9 higher on 3 of 25 random specs (gamma 0.64-0.67).
* Exploration: rows uniform in the polish's coordinates z, from
  np.random.default_rng(seed): 4096 in the first round and twice as many
  in each later one, at most 4 rounds.
* Polish: a coordinate pattern search in z, u_j = s(z_j) with s the
  logistic function rescaled to map [-12, 12] onto [0, 1], and z clipped
  there.  Its starts are, in the first round only, the pass's table
  (fixed rate; clipped into the row's bounds, eps_0 >= eps_1 among them)
  and the family's best table, and in every round the round's 6 cheapest
  exploration rows.  Each iteration evaluates every
  single-coordinate move z_d + h*o, o in linspace(-1, 1, 8), of every
  live start as one batch.  A start takes its best move when that lowers
  its power by more than 1e-9 relative and divides its step h by 4
  otherwise, from h = 4 until h < 1e-4; a start that fails a move while
  1% above the cheapest start stops.  Each start keeps its row u = s(z),
  so a move's row is its start's row with only the moved coordinate put
  through s, which is the row s(z) gives, bit for bit, since s acts on
  each coordinate alone.  The batch's cheapest move (the first on a tie)
  is offered as the running best, and a start's best move is written
  into its z and u from the batch.
* Rounds: a round after the first runs only while nothing feasible has
  been found or the round before lowered the best by more than 1e-9
  relative (its exploration starts ended that far below every table
  known before them, the polished first-round starts in the first
  round), so exploration starts that tie a certified start to its last
  bits end the search.  The first round runs even where the pass
  certifies its table.  No batch starts after 2^22 rows, which bounds
  the run time of a solve for every input.
* Result: the search's best table.  For the fixed rate, the pass's table
  instead where the pass closed its gap to 1e-13 (a search table below it
  lies below only by rounding, in states whose weight in the power is
  below the rounding) or where average_power puts it lower, so no result
  lies above the pass; and SolveResult.lower_bound = min(D, best_avg_power)
  in W.
* Blocks: each batch (257 N family rows, an exploration round, 8 (N + 1)
  moves per live start) is built and evaluated in blocks of about 2^17
  outages, in row order, at every N, so a solve holds one block of rows
  at a time and grows with the batch and N only by one power per row
  (and, in the polish, one logit and one logistic value per move).  The
  power of a row depends on that row alone, and the cheapest rows of a
  batch are taken first by power and then by row, so no result depends
  on the block size.
* Certificates, checked before searching.  Fixed rate: ValueError when
  the power whose outage at R is eps_out exceeds P_m (the terminal-power
  window is empty), and NoFeasibleSolution(0) when min(eps_out, 1 -
  DELTA, gamma) < lo: eps_N >= lo > eps_out breaks C3, and the loss rate
  gamma_r = sum_i pi_i eps_i is at least the smallest outage, so lo >
  gamma breaks C2 for every table.  Variable rate: NoFeasibleSolution(0)
  when eps_out <= DELTA, or when no table evaluate_variable accepts (at
  its 1e-9 slack) exists: when R > r_max, and when c_N (2^r_min - 1) >
  P_m with c_N at eps_N = min(eps_out, 1 - DELTA), the least power state
  N can use.

Everything is a pure function of (spec, seed): identical inputs give
identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import EPSILON_GUARD as DELTA
from .channel import ChannelModel, power_for_outage
from .markov import product_form, steady_state_for
from .policy import _SLACK, Policy, ProblemSpec, average_power, make_policy

# The search (see the module docstring): rows of each family grid and its
# zooms; exploration rows of the first round (each later one doubles
# them), rounds, and starts polished per round; the polish's offsets,
# first and last step, logit range, sufficient decrease and drop margin;
# the row cap; and the outages (rows x states) of one evaluated block.
_FAMILY_ROWS, _FAMILY_ZOOMS = 257, 4
_EXPLORE_ROWS, _EXPLORE_ROUNDS, _EXPLORE_STARTS = 4096, 4, 6
_OFFSETS = np.linspace(-1.0, 1.0, 8)
_STEP, _MIN_STEP = 4.0, 1e-4
_LOGIT_MAX = 12.0
_LOGIT_FLOOR = 1.0 / (1.0 + math.exp(_LOGIT_MAX))
_TOL, _DROP = 1e-9, 0.01
_MAX_ROWS = 2**22
_BLOCK_ELEMENTS = 2**17
# The Lagrangian pass: Dinkelbach's stop and pass cap, the multiplier
# search's stops (gap, bracket, steps, doublings), and the gap above which
# the fixed-rate search also runs the family.
_DINKELBACH_TOL, _DINKELBACH_PASSES = 4e-16, 100
_GAP_STOP, _BRACKET_STOP, _MU_STEPS, _MU_DOUBLINGS = 1e-13, 1e-15, 200, 200
_CERTIFIED = 1e-9


@dataclass(frozen=True)
class AnnealingSchedule:
    """The seed of one solver run.

    seed: RNG seed of the exploration rows; equal seeds reproduce the run
          bit-exactly.  It must fit in 64 unsigned bits.
    """

    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver run: the cheapest feasible table it evaluated.

    evaluated_count counts the rows evaluated, feasible_count the rows
    with a feasible table, and accepted_count the batches that lowered the
    running best.  trace holds (largest step, iteration minimum, best)
    per polish iteration; a minimum is inf when its rows are all
    infeasible, and best is non-increasing.  The trace holds each power as
    the search computed it, best_avg_power the re-evaluation of the best
    table by average_power: they agree to about 1e-15 relative, not bit
    for bit.

    lower_bound is, for the fixed-rate problem, the Lagrangian dual D in W
    (see the module docstring): no feasible table's power lies below it.
    It is capped at best_avg_power, which D exceeds only by rounding, so
    (best_avg_power - lower_bound)/best_avg_power is the gap left to
    certify; where the pass closed that gap to 1e-13, best_policy is the
    pass's table.  It is None for the variable-rate problem.
    """

    best_avg_power: float
    best_policy: Policy
    accepted_count: int
    feasible_count: int
    evaluated_count: int
    trace: tuple[tuple[float, float, float], ...]
    lower_bound: float | None = None


class NoFeasibleSolution(ValueError):
    """Raised when a solve returns no table.

    Either the search evaluated evaluated_count rows and none was
    feasible, or a certificate checked before searching showed that no
    table can be feasible; then evaluated_count is 0.
    """

    def __init__(self, evaluated_count: int):
        super().__init__(
            f"no feasible solution found after {evaluated_count} candidate evaluations"
        )
        self.evaluated_count = evaluated_count

    def __reduce__(self):
        # rebuild from the count: the default would pass the message as the count
        return type(self), (self.evaluated_count,)


class _Buffers:
    """Named arrays that the water fill of one solve writes into, block after block.

    buf(name, shape) returns the first prod(shape) entries of the array
    called name, as a view of that shape that holds until the name is asked
    for again; the array is replaced only when a view outgrows it.  A fresh
    block-sized array can cost a minor page fault per 4 KiB every block,
    since glibc trims the heap once a block's arrays are freed.  Each name
    is its own allocation: one array larger than a block, once freed,
    raises glibc's threshold for returning memory and with it the peak RSS
    of later work in the process.

    Only _water_fill uses one.  It makes about ten block-sized arrays per
    block, four of them twice a block wide; without the buffers, variable-
    rate solves ran 8-26% longer at N = 30 and 50-75% longer at N = 100,
    with 4-7 and over 200 times the minor faults (gamma 0.2, eps_out 0.1,
    2-core host).  The variable rate's stationary law and rate caps, and
    the fixed rate's outages and costs, make a few block-sized arrays each,
    and the search ran no slower without buffers for them.
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


def _tail_sum(tail, cost=None):
    """W_1 of a state-major tail by one backward Horner pass, and C_1 with a cost.

    tail[j] holds eps_{j+1} of every row: an (N, rows) array, the
    transpose of a row-major block.  w_j = eps_1*...*eps_{j-1}, the
    terminal one over (1 - eps_N), are the stationary weights behind
    state 0: pi = (1, eps_0*w)/(1 + eps_0*W_1) with W_1 = sum_j w_j =
    1 + eps_1(1 + ... + eps_{N-1}/(1 - eps_N)).  W_1 is also L_1, the
    mean number of slots from state 1 back to state 0, by L_N = 1/(1 -
    eps_N) and L_j = 1 + eps_j L_{j+1}.  With cost[j] = c_{j+1}, a cost
    per slot in state j+1 laid out as tail, the same pass carries C_1 =
    sum_j w_j c_j, the mean cost of those slots, by C_N = c_N L_N and
    C_j = c_j + eps_j C_{j+1}, and returns (L_1, C_1).
    """
    w1 = np.subtract(1.0, tail[-1])
    np.divide(1.0, w1, out=w1)
    c1 = None if cost is None else cost[-1] * w1
    for j in range(len(tail) - 2, -1, -1):
        w1 *= tail[j]
        w1 += 1.0
        if c1 is not None:
            c1 *= tail[j]
            c1 += cost[j]
    return w1 if c1 is None else (w1, c1)


def _lambert_w0(x: float) -> float:
    """The principal branch W_0(x) for -1/e <= x < 0, by Halley steps.

    The first guess is the branch-point series -1 + p - p^2/3 + 11 p^3/72,
    p = sqrt(2(e x + 1)), below x = -0.32 and x(1 - x + 3x^2/2) above it
    (Corless et al., "On the Lambert W function", Adv. Comput. Math. 5,
    1996); Halley's method then converges cubically, in at most 3 steps.
    Near -1/e W_0 is ill-conditioned, with relative condition number 1/(1
    + W_0), so there the result carries that factor times the rounding.
    """
    if x < -0.32:
        p = math.sqrt(max(2.0 * (math.e * x + 1.0), 0.0))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0))
    else:
        w = x * (1.0 - x + 1.5 * x * x)
    for _ in range(8):
        if w == -1.0:  # the branch point, where Halley's step divides by zero
            break
        ew = math.exp(w)
        f = w * ew - x
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1e-8 * abs(w):  # the next step would move w below rounding
            break
    return w


def _lagrangian_pass(k: float, lo: float, top: float, n: int, gamma: float):
    """The fixed-rate Lagrangian renewal-reward pass; see the module docstring.

    k = 2^R - 1, outages in [lo, 1 - DELTA] and eps_N in [lo, top], powers
    in units of N0/Omega.  Returns (table, power, dual): the cheapest greedy
    table with Lambda_0 <= gamma/(1 - gamma) as a list of outages, or None
    when no multiplier tried gives one (and always when lo > top), its
    power, and the dual D = max lambda(mu) - mu gamma over the multipliers
    tried.
    """
    if lo > top:
        return None, math.inf, math.inf
    odds = gamma / (1.0 - gamma)
    hi = 1.0 - DELTA
    u_lo, u_hi, u_top = (-math.log1p(-e) for e in (lo, hi, top))
    w_max = 4.0 * math.exp(-2.0)  # k/c at the branch point -sqrt(k/c)/2 = -1/e

    def greedy(mu: float, lam: float):
        """The table minimising C_0 + mu Lambda_0 - lam L_0: its L_0, C_0, Lambda_0 and value V_0."""
        # state N: (k/u + mu eps - lam)/(1 - eps) at the box ends and at the
        # roots of (lam - mu) u^2 - k u + k = 0 inside the box
        a = lam - mu
        cands = [(lo, u_lo), (top, u_top)]
        if a == 0.0:
            roots = (1.0,)
        elif (disc := k * k - 4.0 * a * k) >= 0.0:
            q = 0.5 * (k + math.sqrt(disc))
            roots = (q / a, k / q)
        else:
            roots = ()
        cands += [(-math.expm1(-u), u) for u in roots if u_lo < u < u_top]
        v = math.inf
        for e, u in cands:
            x = (k / u + mu * e - lam) / (1.0 - e)
            if x < v:
                v, eps, cost = x, e, k / u
        table = [eps]
        length = 1.0 / (1.0 - eps)
        total, losses = cost * length, eps * length
        for _ in range(n):
            # states N-1..0: k/u - lam + eps c, c = mu + V_{i+1}, at the box
            # ends and the minimum -2 W_0(-sqrt(k/c)/2) of k/u - c e^-u
            c = mu + v
            cands = [(lo, u_lo), (hi, u_hi)]
            if c > 0.0 and k <= w_max * c:
                u = -2.0 * _lambert_w0(-0.5 * math.sqrt(k / c))
                if u_lo < u < u_hi:
                    cands.append((-math.expm1(-u), u))
            v = math.inf
            for e, u in cands:
                x = k / u - lam + e * c
                if x < v:
                    v, eps, cost = x, e, k / u
            table.append(eps)
            length = 1.0 + eps * length
            total = cost + eps * total
            losses = eps * (1.0 + losses)
        table.reverse()
        return table, length, total, losses, v

    def ratio(mu: float, lam: float):
        """lambda(mu) by Dinkelbach steps from lam, a lower bound on it, and the greedy table.

        Every table has C_0 + mu Lambda_0 - lam L_0 >= V_0 and L_0 >= 1,
        so its ratio is at least lam + min(V_0, 0): a bound on lambda(mu)
        that holds however many steps ran, where the ratio of the last
        table lies above lambda(mu) until the steps converge.
        """
        for _ in range(_DINKELBACH_PASSES):
            table, length, total, losses, value = greedy(mu, lam)
            new = (total + mu * losses) / length
            bound = lam + min(value, 0.0)
            if abs(new - lam) <= _DINKELBACH_TOL * abs(new):
                break
            lam = new
        return new, bound, table, total / length, losses - odds

    best, best_power, dual, lam = None, math.inf, -math.inf, 0.0

    def visit(mu: float) -> float:
        """Solve at multiplier mu and keep the bound and the best table; returns Lambda_0 - odds."""
        nonlocal best, best_power, dual, lam
        lam, bound, table, power, excess = ratio(mu, lam)
        dual = max(dual, bound - mu * gamma)
        if excess <= 0.0 and power < best_power:
            best, best_power = table, power
        return excess

    ha = visit(0.0)
    if ha > 0.0:
        # double mu from 1 until the greedy table meets C2, then Illinois
        # regula falsi on Lambda_0(mu) - odds over the bracket [a, b]
        a, b = 0.0, 1.0
        for _ in range(_MU_DOUBLINGS):
            if (hb := visit(b)) <= 0.0:
                break
            a, ha, b = b, hb, 2.0 * b
        else:
            return best, best_power, dual
        side = 0
        for _ in range(_MU_STEPS):
            if best_power - dual <= _GAP_STOP * best_power or b - a <= _BRACKET_STOP * b:
                break
            m = b - hb * (b - a) / (hb - ha)
            if not a < m < b:
                m = 0.5 * (a + b)
            if (hm := visit(m)) > 0.0:
                a, ha = m, hm
                if side > 0:
                    hb *= 0.5
                side = 1
            else:
                b, hb = m, hm
                if side < 0:
                    ha *= 0.5
                side = -1
    return best, best_power, dual


def _rate_caps(coef, pi, spec: ProblemSpec):
    """log2 c_i, the rate caps rcap_i and each row's feasibility (PEAK and C1).

    rcap_i = min(r_max, log2(1 + P_m/c_i)); a row is feasible when every
    rcap_i >= r_min and sum pi_i rcap_i >= R.
    """
    lc = np.log2(coef)
    rcap = spec.peak_power / coef
    rcap += 1.0
    np.log2(rcap, out=rcap)
    np.minimum(spec.r_max, rcap, out=rcap)
    ok = (rcap >= spec.r_min).all(axis=1)
    ok &= np.einsum("ij,ij->i", rcap, pi) >= spec.avg_rate
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
    # at deep N the rise of a segment can be so small (pi_j ~ eps^j) that
    # the ratio overflows; the clip below takes its inf to 1
    with np.errstate(over="ignore"):
        np.divide(f_k, rise_k, out=t, where=np.greater(rise_k, 0.0, out=buf("rising", rows, bool)))
    np.clip(t, 0.0, 1.0, out=t)
    t *= kinks.take(at, out=rise_k, mode="clip")  # the gap of segment k
    t += sorted_kinks.take(at, out=rise_k, mode="clip")  # the water level x
    rates = np.subtract(t[:, None], lc, out=lc)
    return np.clip(rates, spec.r_min, rcap, out=rates)


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


class _Search:
    """Powers of rows u, and the cheapest row over every batch.

    A row u in [0, 1]^(N+1) is a table (see the module docstring); a
    subclass gives its outages, rates and power in `tables`, and the
    search reads only the powers, from `prices`.  The search works in
    units of N0/Omega: `spec` is the problem with P_m in those units and
    N0 = Omega = 1, and `unit` converts its powers to W.  `floor` is the
    outage below which no state meets PEAK at `rate`.
    """

    def __init__(self, spec: ProblemSpec, rate: float):
        self.channel = spec.channel
        self.unit = spec.channel.noise_power / spec.channel.mean_fading_power
        self.spec = replace(spec, peak_power=spec.peak_power / self.unit, channel=ChannelModel())
        self.odds = spec.gamma / (1.0 - spec.gamma)
        self.floor = max(DELTA, -math.expm1((1.0 - 2.0**rate) / self.spec.peak_power))
        self.top = min(spec.eps_out, 1.0 - DELTA)
        self.lo = min(self.floor, self.top)
        self.span = np.full(spec.n_states + 1, 1.0 - DELTA - self.lo)
        self.span[-1] = self.top - self.lo
        self.best, self.best_row = math.inf, None
        self.improved = self.feasible = self.evaluated = 0

    def outages(self, u):
        """Outages of rows u, and which rows leave eps_0 room between its bounds."""
        e = u * self.span
        e += self.lo
        ub = np.minimum(self.odds / _tail_sum(e[:, 1:].T), 1.0 - DELTA)
        lb = self.least_eps0(e)
        e[:, 0] = u[:, 0] * (ub - lb) + lb
        return e, ub >= lb

    def prices(self, u):
        """Powers of rows u, inf where infeasible."""
        return self.tables(u)[2]

    def least_eps0(self, e):
        """The smallest eps_0 of rows e, given their other outages."""
        return self.lo

    def explore(self, u):
        """Exploration rows u as the search evaluates them."""
        return u

    def family(self, depths, grid):
        """Builder of the family rows at every depth k of depths and tail outage t of grid.

        Row i*grid.size + j has k = depths[i] and t = grid[j]:
        eps_1..eps_{k-1} = 1 - DELTA, eps_k..eps_N = t and u_0 = 1.
        """
        depths = np.asarray(depths)
        states = np.arange(self.span.size)

        def make(a: int, b: int):
            r = np.arange(a, b)
            k, j = np.divmod(r, grid.size)
            tail = (states >= depths[k, None]) & (self.span > 0.0)
            u = np.ones((r.size, self.span.size))
            return np.divide(grid[j, None] - self.lo, self.span, out=u, where=tail)

        return make

    def powers(self, rows: int, make, keep: int = 1):
        """Powers of the rows make(a, b) builds (rows a..b-1 of `rows`); counts them.

        Rows are built and evaluated in blocks of about _BLOCK_ELEMENTS
        outages, in row order.  Returns the powers, inf where infeasible,
        and the indices and rows of the `keep` cheapest, by power, then by
        row; the cheapest is offered as the running best.  keep=0 selects
        nothing and returns None for both: the polish selects from the
        powers itself.
        """
        step = max(1, _BLOCK_ELEMENTS // self.span.size)
        p = np.empty(rows)
        picks, kept = [np.empty(0, np.intp)], [np.empty((0, self.span.size))]
        for a in range(0, rows, step):
            u = make(a, min(a + step, rows))
            block = p[a:a + len(u)]
            block[:] = self.prices(u)
            if keep:
                # the `keep` cheapest rows are among each block's own `keep` cheapest
                pick = np.argsort(block, kind="stable")[:keep]
                picks.append(pick + a)
                kept.append(u[pick])
        self.evaluated += rows
        self.feasible += int(np.count_nonzero(p < np.inf))
        if not keep:
            return p, None, None
        top = np.concatenate(picks)
        order = np.lexsort((top, p[top]))[:keep]
        top, top_rows = top[order], np.concatenate(kept)[order]
        if top.size:
            self.offer(p[top[0]], top_rows[0])
        return p, top, top_rows

    def offer(self, power: float, row) -> None:
        """Take row, of the given power, as the running best when it is cheaper."""
        if power < self.best:
            self.best, self.best_row = float(power), row
            self.improved += 1

    def starts(self) -> list:
        """Rows for the first round to polish beside its exploration rows: the family's best.

        The family runs on a log grid of its tail outage at every depth,
        then zoomed about its best point at that point's depth.
        """
        grid = np.geomspace(self.lo, self.top, _FAMILY_ROWS + 1)[1:]
        depths = range(1, self.span.size)
        for _ in range(_FAMILY_ZOOMS + 1):
            _, top, _ = self.powers(len(depths) * grid.size, self.family(depths, grid))
            k, i = divmod(int(top[0]), grid.size)
            depths = [depths[k]]
            grid = np.geomspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], _FAMILY_ROWS)
        return [] if self.best_row is None else [self.best_row]

    def finish(self, result: SolveResult) -> SolveResult:
        """The result to return for the search's best table."""
        return result


class _FixedSearch(_Search):
    """The fixed-rate problem: every state sends R, and eps_0 >= eps_1."""

    def __init__(self, spec: ProblemSpec):
        super().__init__(spec, spec.avg_rate)
        self.rates = np.empty((0, self.span.size))

    def tables(self, u):
        """Outages, rates and powers (inf where infeasible) of rows u."""
        e = self.outages(u)[0]
        if len(self.rates) < len(e):  # rows of R, sliced for every later block
            self.rates = np.full(e.shape, self.spec.avg_rate)
            self.rates.flags.writeable = False
        return e, self.rates[:len(e)], self.prices(u)

    def prices(self, u):
        """Powers of rows u, inf where infeasible, as cycle cost over cycle length.

        One backward pass over the state-major outages: L_1 and C_1 from
        _tail_sum with c_j = -1/ln(1 - eps_j), then eps_0 from its bounds
        and the power (2^R - 1) C_0/L_0 = (2^R - 1)(c_0 + eps_0 C_1)/(1 +
        eps_0 L_1).  The outages are those of `outages`, bit for bit.
        """
        e = np.multiply(u.T, self.span[:, None], out=np.empty(u.shape[::-1]))
        e += self.lo
        tail, cost = e[1:], np.negative(e[1:])
        np.log1p(cost, out=cost)
        np.divide(-1.0, cost, out=cost)
        length, power = _tail_sum(tail, cost)
        room = np.divide(self.odds, length)
        np.minimum(room, 1.0 - DELTA, out=room)
        lb = np.maximum(tail[0], self.lo)
        room -= lb  # ub - lb, negative exactly where ub < lb
        e0 = np.multiply(u[:, 0], room, out=e[0])
        e0 += lb
        power *= e0
        length *= e0
        length += 1.0
        np.log1p(np.negative(e0, out=e0), out=e0)
        power -= 1.0 / e0  # + c_0
        power /= length
        power *= 2.0**self.spec.avg_rate - 1.0
        power[room < 0.0] = np.inf
        return power

    def starts(self) -> list:
        """The Lagrangian pass's table, and the family's best where the pass's gap exceeds 1e-9."""
        self.exact, power, self.dual = _lagrangian_pass(
            2.0**self.spec.avg_rate - 1.0, self.floor, self.top, self.spec.n_states, self.spec.gamma)
        # the pass's own stop: no table lies below its table by more than 1e-13
        self.closed = self.exact is not None and power - self.dual <= _GAP_STOP * power
        rows = [] if self.exact is None else [self.row(self.exact)]
        if self.exact is None or power - self.dual > _CERTIFIED * power:
            rows += super().starts()
        return rows

    def row(self, eps) -> np.ndarray:
        """The row u of table eps, clipped into the search's bounds (eps_0 >= eps_1 among them)."""
        e = np.asarray(eps, dtype=float)
        u = np.divide(e - self.lo, self.span, out=np.zeros(e.size), where=self.span > 0.0)
        np.clip(u, 0.0, 1.0, out=u)
        tail = u[1:, None] * self.span[1:, None] + self.lo  # state-major, as `outages` forms it
        ub = min(self.odds / float(_tail_sum(tail)[0]), 1.0 - DELTA)
        lb = max(float(tail[0, 0]), self.lo)
        u[0] = min(max((e[0] - lb) / (ub - lb), 0.0), 1.0) if ub > lb else 0.0
        return u

    def finish(self, result: SolveResult) -> SolveResult:
        """The pass's table where it closed its gap, else the cheaper of it and the search's.

        A search table below a closed pass's table lies below it only by
        rounding, in states of weight below the rounding of the power, so
        the pass's table stands; lower_bound is the dual.
        """
        if self.exact is not None:
            own = make_policy(self.exact, (self.spec.avg_rate,) * len(self.exact), self.channel)
            power = average_power(own.powers, steady_state_for(own.eps))
            if self.closed or power < result.best_avg_power:
                result = replace(result, best_avg_power=power, best_policy=own)
        return replace(result, lower_bound=min(self.dual * self.unit, result.best_avg_power))

    def least_eps0(self, e):
        """eps_0 >= eps_1, as the power order has it."""
        return np.maximum(e[:, 1], self.lo)

    def explore(self, u):
        """Exploration rows with states 1..N-1 in non-increasing order."""
        u[:, 1:-1] = np.sort(u[:, 1:-1], axis=1)[:, ::-1]
        return u


class _VariableSearch(_Search):
    """The variable-rate problem: rates by water-filling, floor at r_min."""

    def __init__(self, spec: ProblemSpec):
        super().__init__(spec, spec.r_min)
        self.buf = _Buffers()

    def tables(self, u):
        """Outages, rates and powers (inf where infeasible) of rows u."""
        e, room = self.outages(u)
        pi = product_form(e)
        coef = -1.0 / np.log1p(-e)
        lc, rcap, ok = _rate_caps(coef, pi, self.spec)
        ok &= room
        rates = _water_fill(lc, rcap, pi, self.spec, self.buf)
        power = np.einsum("ij,ij->i", coef * (np.exp2(rates) - 1.0), pi)
        power[~ok] = np.inf
        return e, rates, power


def _sigmoid(z):
    """The logistic function rescaled to map [-_LOGIT_MAX, _LOGIT_MAX] onto [0, 1]."""
    u = np.negative(z)
    np.exp(u, out=u)
    u += 1.0
    np.divide(1.0, u, out=u)
    u -= _LOGIT_FLOOR
    u /= 1.0 - 2.0 * _LOGIT_FLOOR
    np.maximum(u, 0.0, out=u)
    return np.minimum(u, 1.0, out=u)


def _polish(search: _Search, u, trace: list) -> np.ndarray:
    """Coordinate pattern search in logit coordinates from start rows u.

    See the module docstring.  Appends (largest step, iteration minimum,
    best), in W, to trace per iteration and returns the power each start ends at.
    """
    v = u * (1.0 - 2.0 * _LOGIT_FLOOR) + _LOGIT_FLOOR
    z = np.clip(np.log(v) - np.log1p(-v), -_LOGIT_MAX, _LOGIT_MAX)
    u = _sigmoid(z)  # kept equal to _sigmoid(z), coordinate by coordinate
    power = search.powers(len(z), lambda a, b: u[a:b])[0]
    n1 = z.shape[1]
    moves = n1 * _OFFSETS.size
    coord = np.arange(moves) // _OFFSETS.size  # the coordinate each move moves
    moved = coord[:, None] == np.arange(n1)
    step = np.full(len(z), _STEP)
    while (live := (step >= _MIN_STEP).nonzero()[0]).size and search.evaluated < _MAX_ROWS:
        # move s*moves + m of the batch is start live[s] with z_d moved by
        # step*o, (d, o) = divmod(m, len(_OFFSETS)); only that coordinate
        # goes through the logistic, the others keep their row of u
        zm = z.take(live, axis=0)[:, :, None] + step.take(live)[:, None, None] * _OFFSETS
        np.maximum(zm, -_LOGIT_MAX, out=zm)
        zm = np.minimum(zm, _LOGIT_MAX, out=zm).reshape(-1)
        um = _sigmoid(zm)

        def move(a: int, b: int, base=u.take(live, axis=0), um=um):
            s, m = np.divmod(np.arange(a, b), moves)
            return np.where(moved.take(m, axis=0), um[a:b, None], base.take(s, axis=0))

        p = search.powers(live.size * moves, move, keep=0)[0].reshape(live.size, moves)
        j = p.argmin(axis=1)
        low = p.min(axis=1)
        i = int(low.argmin())  # the batch's cheapest move, the first on a tie
        row = u[live[i]].copy()
        row[coord[j[i]]] = um[i * moves + j[i]]
        search.offer(low[i], row)
        better = low < power[live] * (1.0 - _TOL)
        if better.any():
            k = better.nonzero()[0]
            took, at, d = k * moves + j[k], live[k], coord[j[k]]
            z[at, d], u[at, d], power[at] = zm[took], um[took], low[k]
        trace.append((float(step[live].max()), float(low[i]) * search.unit,
                      search.best * search.unit))
        step[live] /= np.where(better, 1.0, 4.0)
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


def _solve(search: _Search, seed: int) -> SolveResult:
    """The search's starts, then rounds of exploration rows polished; see the module docstring."""
    n1 = search.span.size
    carry = search.starts()
    rng = np.random.default_rng(seed)

    def explore(a: int, b: int):
        return search.explore(_sigmoid(rng.uniform(-_LOGIT_MAX, _LOGIT_MAX, (b - a, n1))))

    before = math.inf
    trace: list[tuple[float, float, float]] = []
    # Where the fixed-rate pass closes its gap, the first round cannot change
    # the result (finish returns the pass's table), only the counts and the
    # trace.  It runs anyway: without its working memory, the per-call memory
    # that perfbench/run.py keeps would show as a peak-RSS regression there.
    for rows in _EXPLORE_ROWS * 2 ** np.arange(_EXPLORE_ROUNDS):
        if search.evaluated >= _MAX_ROWS:
            break
        p, pick, u = search.powers(int(rows), explore, _EXPLORE_STARTS)
        starts = np.vstack([*carry, u[p[pick] < np.inf]])
        end = _polish(search, starts, trace) if len(starts) else np.empty(0)
        old = end[:len(carry)].min(initial=before)
        if search.best_row is not None and not end[len(carry):].min(initial=math.inf) < old * (1.0 - _TOL):
            break
        carry, before = [], search.best
    if search.best_row is None:
        raise NoFeasibleSolution(search.evaluated)
    e, rates, _ = search.tables(search.best_row[None])
    return search.finish(_result(make_policy(e[0], rates[0], search.channel), search.improved,
                                 search.feasible, search.evaluated, trace))


def solve_fixed(spec: ProblemSpec, schedule: AnnealingSchedule) -> SolveResult:
    """Search the fixed-rate problem: constant rate R, free outage vector.

    Every table searched meets the loss, burst and peak constraints by
    construction; the search is the variable-rate one with every rate
    pinned at R (see the module docstring), and it reads the schedule's
    seed.  Raises ValueError when the terminal-power window P_out <= P_N
    <= P_m is empty (P_out the power whose outage at rate R equals
    eps_out), and NoFeasibleSolution(0), before searching, when the
    outage at peak power lies above gamma (every loss rate is then above
    gamma) or above min(eps_out, 1 - DELTA).
    """
    p_out = power_for_outage(spec.eps_out, spec.avg_rate, spec.channel)
    if p_out > spec.peak_power * (1.0 + 1e-12):
        raise ValueError("feasibility window empty")
    search = _FixedSearch(spec)
    if min(search.top, spec.gamma) < search.floor:
        raise NoFeasibleSolution(0)
    return _solve(search, schedule.seed)


def solve_variable(spec: ProblemSpec, schedule: AnnealingSchedule) -> SolveResult:
    """Search the joint rate/outage problem over the outage vector alone.

    Every table searched meets the loss and burst constraints by
    construction and gets its cheapest rates by water-filling; the search
    is a structured family, then rounds of exploration rows polished by a
    coordinate pattern search (see the module docstring).  It reads the
    schedule's seed.  Raises NoFeasibleSolution(0) when a certificate
    shows that no table can be feasible, and NoFeasibleSolution(evaluated)
    when the search finds none.
    """
    if spec.eps_out <= DELTA or _certified_infeasible(spec):
        raise NoFeasibleSolution(0)
    return _solve(_VariableSearch(spec), schedule.seed)
