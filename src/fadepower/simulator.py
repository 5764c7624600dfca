"""Slot-level Monte-Carlo simulation of a policy.

Each slot transmits one packet: the current loss state i selects
(P_i, R_i), an i.i.d. channel gain is drawn, and the packet is lost
exactly when the rate exceeds the instantaneous capacity.  Success
returns the chain to state 0; a loss advances it (capping at the burst
bound N).  The simulator measures everything the analytic model
predicts -- loss rate, state occupancy, burst-outage frequency, average
power, transmitted and delivered rate -- plus run-length statistics the
chain model does not expose.

A warm-up prefix of `burn_in` slots (simulated in addition to `slots`)
is excluded from all statistics so that the deterministic start in
state 0 does not bias the occupancy estimates.

The walk is vectorised without giving up one draw per slot, so
validation stays independent of the chain model it checks.  Each slot
draws the quantile u = 1 - exp(-g/Omega) of its gain g, one uniform
double on [0, 1) (the inversion method): the packet is lost exactly when
g/Omega is below theta = (2^r - 1) N0/(P Omega), that is when u is below
the state's outage probability 1 - exp(-theta).  The simulator computes
theta itself rather than through channel.outage_probability, so a fault
in channel.py shows up as a z-score instead of being reproduced.  The
walk follows loss runs, not slots.  A slot whose quantile is below state
0's outage (a "candidate") would start a run were the chain in state 0
there; the run's k-th slot after it is spent in state min(k, N), up to
its first success.  For every candidate the walk finds where that run
would close -- dense passes over the chunk for the first offsets, then
the open runs step one offset at a time, and a stretch of offsets of one
outage (the terminal state's has no end) is searched for its first
success.  A candidate that no earlier candidate's run reaches is in
state 0 whatever came before; from each such head a chain steps from a
run to the first candidate after its closing success, and the candidates
it meets start the true runs.  The chains are followed by pointer
doubling, 1, 2, 4, ... runs at a time, so the run time stays bounded for
every table.  Every statistic follows from the true runs' loss counts q:
a run of q losses spends one slot in each state j < N with j <= q and
max(0, q - N + 1) slots in state N, and loses on all but its last slot.
Quantiles are drawn chunk by chunk from one generator -- consecutive
draws give the same stream as one large draw -- with the burn-in in
chunks of its own and the open loss run carried across chunk boundaries,
so memory stays flat in `slots`.  The report is bit-identical to the
per-slot definition above for every configuration and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelModel
from .markov import achieved_loss_rate, steady_state_for
from .policy import Policy, ProblemSpec, _check_dimensions, average_power


@dataclass(frozen=True)
class SimReport:
    """Sample statistics over the counted window of one simulation.

    run_length_histogram maps the length of each maximal loss run closed
    during the counted window (a run still open at the end is counted at
    its length so far, and a run begun in the burn-in at its full
    length) to the number of such runs, in increasing order of length.
    violations counts the slots on which a loss extended a run already
    at the burst bound.  state_slots and state_losses hold the per-state
    slot and loss counts behind the ratio statistics.
    """

    empirical_gamma: float
    empirical_eps_out: float | None
    occupancy: tuple[float, ...]
    run_length_histogram: dict[int, int]
    avg_power: float
    transmitted_rate: float
    delivered_rate: float
    violations: int
    state_slots: tuple[int, ...]
    state_losses: tuple[int, ...]


# Slots drawn and walked at a time; memory does not grow with `slots`,
# and slot indices within a chunk fit in int32.
_CHUNK = 1 << 16
# Two costs that choose among equivalent ways to walk a chunk; no result
# depends on them.  A pass over the chunk costs about as much as
# gathering 1/_PASS_SHARE of its slots, and a search for the first
# success about _SEARCH_PASSES passes.  Measured at 10^6 slots on the
# test tables (tests/test_simulator.py WALK_POLICIES and a flat N=30
# table, 2-core x86 host): with _PASS_SHARE 4, n1, n10 and flat30 run
# 1.2-1.3x slower, and 64 runs as fast as 16; with _SEARCH_PASSES 1,
# flat30 and plateau run 1.35-1.4x slower, and with no cap n300 2.7x.
_PASS_SHARE = 16
_SEARCH_PASSES = 4
# The walk selects with np.flatnonzero and integer indexing: indexing by
# a boolean mask is several times slower when the mask is irregular.


def _outages(policy: Policy, ch: ChannelModel) -> list[float]:
    """Per-state outage q = 1 - exp(-theta) (0: never lost, 1: always).

    A packet at power P and rate r is lost when its gain g is below (2^r -
    1) N0/P, so when g/Omega is below theta = (2^r - 1) N0/(P Omega); the
    walk draws u = 1 - exp(-g/Omega), uniform on [0, 1), and compares it
    with q.
    """
    outages = []
    for p, r in zip(policy.powers, policy.rates):
        if r == 0.0:
            outages.append(0.0)
        elif p == 0.0:
            outages.append(1.0)
        else:
            theta = (2.0**r - 1.0) * ch.noise_power / (p * ch.mean_fading_power)
            outages.append(-math.expm1(-theta))
    return outages


def _offset_blocks(outages: list[float]) -> list[tuple[int, int | None, float]]:
    """Offsets k >= 1 of a run begun in state 0, grouped by outage.

    Offset k of a run is spent in state min(k, N).  Each (k0, k1, q)
    covers the offsets k0 <= k < k1 of one outage q; the last block,
    the terminal state's, has k1 None and no end.
    """
    n = len(outages) - 1
    blocks = []
    k0 = 1
    for k in range(2, n + 1):
        if outages[k] != outages[k0]:
            blocks.append((k0, k, outages[k0]))
            k0 = k
    blocks.append((k0, None, outages[n]))
    return blocks


def _run_ends(u: np.ndarray, mask: np.ndarray, cand: np.ndarray, blocks) -> np.ndarray:
    """First success of a loss run begun in state 0 at each slot of `cand`.

    cand holds the slots of `mask`, in order: those whose quantile is
    below state 0's outage.  The result is u.size where a run is still
    lost at the end of u.  While many runs are open, offsets are tested
    in dense passes over the chunk, at most _SEARCH_PASSES in one block;
    then the open runs step one offset at a time, and a block with more
    offsets left (the terminal state's has no end) is searched for its
    first success once stepping has cost about as much as a pass.
    Each way pays for itself on some table (10^6 slots, the tables and
    host named at _PASS_SHARE): without the dense passes flat30,
    eps_0999, n1 and plateau run 1.3-1.6x slower, without stepping n3
    1.7x slower, and without the search n10 1.4x and n300 over 100x.
    """
    size = u.size
    b, k = 0, 1
    if cand.size * _PASS_SHARE >= size:
        alive = mask.copy()
        lost = np.empty(size, dtype=bool)
        passed = np.zeros(size, dtype=np.uint8)  # offsets survived, at most 255
        while (
            k < 256
            and k - blocks[b][0] < _SEARCH_PASSES
            and np.count_nonzero(alive) * _PASS_SHARE >= size
        ):
            if k < size:
                np.less(u[k:], blocks[b][2], out=lost[: size - k])
                alive[: size - k] &= lost[: size - k]
            passed += alive
            k += 1
            if k == blocks[b][1]:
                b += 1
        ends = cand + 1
        ends += passed[cand]
        idx = np.flatnonzero(alive[cand])
    else:
        ends = np.full(cand.size, size, dtype=cand.dtype)
        idx = np.arange(cand.size)
    if not idx.size:
        return ends
    t = cand[idx] + k
    for _, k1, q in blocks[b:]:
        spent = 0
        while idx.size and (k1 is None or k < k1):
            if t[-1] >= size:  # runs that reach the end of u stay open
                cut = np.searchsorted(t, size)
                ends[idx[cut:]] = size
                idx, t = idx[:cut], t[:cut]
                continue
            spent += idx.size
            if (k1 is None or k1 - k > 1) and spent * _PASS_SHARE > size:
                hits = np.append(np.flatnonzero(u >= q), size)
                first = hits[np.searchsorted(hits, t)]
                if k1 is None:
                    ends[idx] = first
                    return ends
                won = np.flatnonzero(first < t + (k1 - k))
                ends[idx[won]] = first[won]
                keep = np.flatnonzero(first >= t + (k1 - k))
                idx, t, k = idx[keep], t[keep] + (k1 - k), k1
                break
            ends[idx] = t  # a run lost here is overwritten at a later offset
            keep = np.flatnonzero(u[t] < q)
            idx, t = idx[keep], t[keep] + 1
            k += 1
    return ends


def _close_open_run(u: np.ndarray, run_len: int, outages: list[float]) -> int:
    """First success of a run entering u with `run_len` losses (u.size if none)."""
    n = len(outages) - 1
    t = 0
    for k in range(run_len, n):
        if t == u.size or u[t] >= outages[k]:
            return t
        t += 1
    hits = np.flatnonzero(u[t:] >= outages[n])
    return t + int(hits[0]) if hits.size else u.size


def _true_runs(mask: np.ndarray, cand: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Indices into cand of the candidates that start a run: those reached in state 0.

    A candidate that no earlier candidate's run reaches is in state 0
    whatever came before, so these heads start runs.  From a run the
    chain moves to the first candidate after its closing success, until
    it meets the next head.  Jumps of 1, 2, 4, ... runs from every run
    found so far mark the rest in as many rounds as the longest chain
    has bits.
    """
    size = cand.size
    mark = np.empty(size + 1, dtype=bool)
    mark[0] = mark[size] = True  # size stands past the last candidate
    np.less(np.maximum.accumulate(ends)[:-1], cand[1:], out=mark[1:size])
    reached = np.flatnonzero(mark[:size])
    # most chains end at their head's run: it closes after the last
    # candidate before the next head.  Then the table below, which costs
    # a pass over the chunk, is not needed.
    if not np.any(cand[np.append(reached[1:], size) - 1] > ends[reached]):
        return reached
    # the first candidate after each closing success, and size past the last
    jump = np.empty(mask.size + 1, dtype=np.int32)
    jump[:-1] = mask
    np.cumsum(jump[:-1], out=jump[:-1])  # in place: no chunk-sized temporary
    jump[-1] = size
    jump = jump[np.append(ends, np.int32(mask.size))]
    while True:
        new = jump[reached]
        new = new[np.flatnonzero(~mark[new])]
        if not new.size:
            return reached
        mark[new] = True
        reached = np.flatnonzero(mark[:size])
        jump = jump[jump]


def _add_run(slots: np.ndarray, losses: np.ndarray, a: int, b: int, closed: bool) -> None:
    """Tally offsets a <= k < b of one run; all but a closing last are losses."""
    n = slots.size - 1
    for counts, end in ((slots, b), (losses, b - closed)):
        if a < n:
            counts[a : min(end, n)] += 1
        counts[n] += max(0, end - max(a, n))


def simulate(
    policy: Policy,
    channel: ChannelModel,
    slots: int,
    seed: int,
    *,
    burn_in: int = 1000,
) -> SimReport:
    """Run one seeded replication of `slots` slots after `burn_in` and tally them."""
    if slots < 1:
        raise ValueError("slots must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    for key in ("rates", "powers"):
        if not all(math.isfinite(v) and v >= 0.0 for v in getattr(policy, key)):
            raise ValueError(f"{key} must be finite and >= 0")
    n = policy.n_states
    outages = _outages(policy, channel)
    blocks = _offset_blocks(outages)

    rng = np.random.default_rng(seed)
    buf = np.empty(min(_CHUNK, max(burn_in, slots)))
    slots_in = np.zeros(n + 1, dtype=np.int64)
    losses_in = np.zeros(n + 1, dtype=np.int64)
    lengths = np.zeros(1, dtype=np.int64)  # runs begun and closed in the window, by losses
    hist: dict[int, int] = {}  # other runs closed in the window
    run_len = 0  # the loss run still open, carried across chunks
    # burn-in and counted slots never share a chunk
    for total, counted in ((burn_in, False), (slots, True)):
        for start in range(0, total, _CHUNK):
            size = min(_CHUNK, total - start)
            # each slot's gain as its quantile, the scale of _outages
            u = rng.random(out=buf[:size])
            close = -1
            if run_len:
                close = _close_open_run(u, run_len, outages)
                closed = close < size
                if counted:
                    _add_run(slots_in, losses_in, run_len, run_len + close + closed, closed)
                    if closed:
                        hist[run_len + close] = hist.get(run_len + close, 0) + 1
                run_len = 0 if closed else run_len + size
            mask = u < outages[0]  # a loss, were the slot in state 0
            mask[: close + 1] = False
            cand = np.flatnonzero(mask).astype(np.int32)
            if not cand.size:
                continue
            ends = _run_ends(u, mask, cand, blocks)
            runs = _true_runs(mask, cand, ends)
            first, ends = cand[runs], ends[runs]
            if ends[-1] == size:  # the last run is still open
                run_len = size - int(first[-1])
                if counted:
                    _add_run(slots_in, losses_in, 0, run_len, False)
                first, ends = first[:-1], ends[:-1]
            if counted and ends.size:
                counts = np.bincount(ends - first)
                if counts.size > lengths.size:
                    counts[: lengths.size] += lengths
                    lengths = counts
                else:
                    lengths[: counts.size] += counts
    if run_len > 0:
        hist[run_len] = hist.get(run_len, 0) + 1
    # a run of q losses spends offset k in state min(k, N) for k <= q and
    # loses at every offset but the last; at_least[j] counts runs with q >= j
    at_least = np.zeros(max(lengths.size, n + 2), dtype=np.int64)
    at_least[: lengths.size] = np.cumsum(lengths[::-1])[::-1]
    slots_in[:n] += at_least[:n]
    losses_in[:n] += at_least[1 : n + 1]
    slots_in[n] += at_least[n:].sum()
    losses_in[n] += at_least[n + 1 :].sum()
    slots_in[0] += slots - slots_in.sum()  # the successes of state 0
    for q in np.flatnonzero(lengths).tolist():
        hist[q] = hist.get(q, 0) + int(lengths[q])
    slots_in = slots_in.tolist()
    losses_in = losses_in.tolist()

    total_losses = sum(losses_in)
    occupancy = tuple(c / slots for c in slots_in)
    avg_power = sum(p * c for p, c in zip(policy.powers, slots_in)) / slots
    transmitted = sum(r * c for r, c in zip(policy.rates, slots_in)) / slots
    delivered = (
        sum(r * (c - l) for r, c, l in zip(policy.rates, slots_in, losses_in)) / slots
    )
    eps_out = losses_in[n] / slots_in[n] if slots_in[n] > 0 else None

    return SimReport(
        empirical_gamma=total_losses / slots,
        empirical_eps_out=eps_out,
        occupancy=occupancy,
        run_length_histogram=dict(sorted(hist.items())),
        avg_power=avg_power,
        transmitted_rate=transmitted,
        delivered_rate=delivered,
        violations=losses_in[n],
        state_slots=tuple(slots_in),
        state_losses=tuple(losses_in),
    )


@dataclass(frozen=True)
class ValidationRecord:
    """Side-by-side analytic vs empirical statistics with z-scores.

    Each z-score is (empirical - analytic) / standard error, with the
    standard error taken from the chain model.  Consecutive slots are
    correlated, so z_gamma, z_occupancy and z_avg_power use the chain's
    asymptotic variance of the slot average, taken over its regenerative
    cycles from state 0 in closed form over pi, not the variance of
    independent samples.  z_state_outage is conditional on the visits to
    each state, where every loss is an independent draw, so it uses the
    binomial variance; z_eps_out is its terminal entry, the burst-outage
    score.  Entries are None where the
    sample provides no data (e.g. a state never visited).  max_abs_z is
    the largest magnitude among the defined scores.
    """

    report: SimReport
    analytic_gamma: float
    analytic_pi: tuple[float, ...]
    analytic_avg_power: float
    analytic_eps_out: float
    z_gamma: float
    z_occupancy: tuple[float, ...]
    z_avg_power: float
    z_eps_out: float | None
    z_state_outage: tuple[float | None, ...]
    max_abs_z: float = field(init=False)

    def __post_init__(self) -> None:
        zs = [self.z_gamma, self.z_avg_power, *self.z_occupancy]
        zs.extend(z for z in self.z_state_outage if z is not None)
        object.__setattr__(self, "max_abs_z", max(abs(z) for z in zs))


def _z(diff: float, se: float) -> float:
    if diff == 0.0:
        return 0.0
    if se == 0.0:
        return math.copysign(math.inf, diff)
    return diff / se


def validate(
    policy: Policy,
    spec: ProblemSpec,
    slots: int,
    seed: int,
    *,
    burn_in: int = 1000,
) -> ValidationRecord:
    """Simulate `policy` and score the sample against the chain model."""
    _check_dimensions(policy, spec)
    report = simulate(policy, spec.channel, slots, seed, burn_in=burn_in)
    pi = steady_state_for(policy.eps)
    gamma_r = achieved_loss_rate(policy.eps, pi)
    p_bar = average_power(policy.powers, pi)
    eps_n = policy.eps[-1]

    # Slot averages of the state functions behind the loss rate (a slot is
    # lost exactly when the next state is not 0), the average power and
    # each occupancy, with the chain's asymptotic variance by regenerative
    # cycles over pi: E[(F - mu L)^2]/E[L] over the cycles from state 0
    # (Asmussen, Applied Probability and Queues, 2003).  With h = f - pi.f
    # and S_i = h_0 + ... + h_{i-1}, a cycle's sum of h up to state i, it is
    # pi.(h * (h + 2 S)) + 2 pi_N eps_N/(1 - eps_N) h_N^2, the last term
    # from the terminal self-loop.
    k = pi.size
    h = np.column_stack([np.arange(k) != 0, policy.powers, np.eye(k)])
    h = h - pi @ h
    var = pi @ (h * (h + 2.0 * (np.cumsum(h, axis=0) - h)))
    var += 2.0 * pi[-1] * eps_n / (1.0 - eps_n) * h[-1] ** 2
    se = np.sqrt(np.maximum(var, 0.0) / slots).tolist()
    z_gamma = _z(report.empirical_gamma - gamma_r, se[0])
    z_power = _z(report.avg_power - p_bar, se[1])
    z_occ = tuple(
        _z(occ - p, s) for occ, p, s in zip(report.occupancy, pi.tolist(), se[2:])
    )
    z_states = []
    for e, c, l in zip(policy.eps, report.state_slots, report.state_losses):
        if c == 0:
            z_states.append(None)
            continue
        z_states.append(_z(l / c - e, math.sqrt(e * (1.0 - e) / c)))

    return ValidationRecord(
        report=report,
        analytic_gamma=gamma_r,
        analytic_pi=tuple(float(p) for p in pi),
        analytic_avg_power=p_bar,
        analytic_eps_out=eps_n,
        z_gamma=z_gamma,
        z_occupancy=z_occ,
        z_avg_power=z_power,
        z_eps_out=z_states[-1],
        z_state_outage=tuple(z_states),
    )
