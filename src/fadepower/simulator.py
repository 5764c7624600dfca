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

The walk is vectorised without giving up one drawn gain per slot, so
validation stays independent of the chain model it checks.  A slot
whose gain clears every state's threshold succeeds whatever its state,
so the next slot is in state 0: these "sure successes" cut the timeline
into segments that each start in a known state.  All segments advance
in lockstep, one numpy step per slot offset from their start; the last
few long ones (a state with outage near 1, or with zero power) are
finished by a plain loop, which bounds the run time.  Losses, per-state
counts and loss runs then follow from the state array.  Gains are drawn
chunk by chunk from one generator -- consecutive draws give the same
stream as one large draw -- with the burn-in in chunks of its own and
the state and open loss run carried across chunk boundaries, so memory
stays flat in `slots`.  The report is bit-identical to the per-slot
definition above for every configuration and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelModel
from .markov import achieved_loss_rate, build_transition_matrix, steady_state_for
from .policy import Policy, ProblemSpec, _check_dimensions, average_power


@dataclass(frozen=True)
class SimConfig:
    policy: Policy
    channel: ChannelModel
    slots: int
    seed: int
    burn_in: int = 1000

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")


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


# Slots drawn and walked at a time; memory does not grow with `slots`.
_CHUNK = 1 << 16
# Segments still open when no more than this many remain are finished
# slot by slot in Python: one numpy step would cost more than it saves.
_SCALAR_FINISH = 64


def _thresholds(policy: Policy, ch: ChannelModel) -> np.ndarray:
    """Per-state gain below which a packet is lost (0: never, inf: always)."""
    thresholds = []
    for p, r in zip(policy.powers, policy.rates):
        if r == 0.0:
            thresholds.append(0.0)
        elif p == 0.0:
            thresholds.append(math.inf)
        else:
            thresholds.append((2.0**r - 1.0) * ch.noise_power / (p * ch.mean_fading_power))
    return np.array(thresholds)


def _walk(gains: np.ndarray, thr: np.ndarray, nxt: np.ndarray, state: int) -> np.ndarray:
    """Loss state of every slot of `gains`, the first slot entered in `state`.

    nxt[i] is the state after a loss in state i.  Segments run from the
    slot after a sure success (or the first slot) through the next sure
    success (or the last slot).
    """
    size = gains.size
    states = np.empty(size, dtype=nxt.dtype)
    cuts = np.flatnonzero(gains >= thr.max()) + 1  # after each sure success
    pos = np.concatenate(([0], cuts))
    end = np.append(cuts, size)
    cur = np.zeros(pos.size, dtype=nxt.dtype)
    cur[0] = state
    if pos[-1] == size:  # the last slot is a sure success: no segment after it
        pos, end, cur = pos[:-1], end[:-1], cur[:-1]
    while pos.size > _SCALAR_FINISH:
        states[pos] = cur
        cur = nxt[cur] * (gains[pos] < thr[cur])
        pos += 1
        live = pos < end
        pos, end, cur = pos[live], end[live], cur[live]
    thr_l, nxt_l = thr.tolist(), nxt.tolist()
    for p, e, s in zip(pos.tolist(), end.tolist(), cur.tolist()):
        seg = []
        for g in gains[p:e].tolist():
            seg.append(s)
            s = nxt_l[s] if g < thr_l[s] else 0
        states[p:e] = seg
    return states


def simulate(cfg: SimConfig) -> SimReport:
    """Run one seeded replication and tally the counted window."""
    policy = cfg.policy
    n = policy.n_states
    ch = cfg.channel
    thr = _thresholds(policy, ch)
    nxt = np.minimum(np.arange(1, n + 2), n).astype(np.min_scalar_type(n))

    rng = np.random.default_rng(cfg.seed)
    slots_in = np.zeros(n + 1, dtype=np.int64)
    losses_in = np.zeros(n + 1, dtype=np.int64)
    hist: dict[int, int] = {}
    run_len = 0  # the loss run still open, carried across chunks
    # burn-in and counted slots never share a chunk
    for total, counted in ((cfg.burn_in, False), (cfg.slots, True)):
        for start in range(0, total, _CHUNK):
            size = min(_CHUNK, total - start)
            gains = rng.exponential(ch.mean_fading_power, size=size)
            states = _walk(gains, thr, nxt, min(run_len, n))
            # a slot is lost exactly when the next one is not in state 0
            # (N >= 1, so a loss never leads back to state 0)
            lost = np.empty(size, dtype=bool)
            np.not_equal(states[1:], 0, out=lost[:-1])
            lost[-1] = gains[-1] < thr[states[-1]]
            successes = np.flatnonzero(~lost)
            if counted:
                slots_in += np.bincount(states, minlength=n + 1)
                losses_in += np.bincount(states[lost], minlength=n + 1)
                if successes.size:
                    runs = np.diff(successes, prepend=-1) - 1
                    runs[0] += run_len
                    keys, counts = np.unique(runs[runs > 0], return_counts=True)
                    for k, c in zip(keys.tolist(), counts.tolist()):
                        hist[k] = hist.get(k, 0) + c
            run_len = size - 1 - int(successes[-1]) if successes.size else run_len + size
    if run_len > 0:
        hist[run_len] = hist.get(run_len, 0) + 1
    slots_in = slots_in.tolist()
    losses_in = losses_in.tolist()

    slots = cfg.slots
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
    asymptotic variance of the slot average (fundamental-matrix form),
    not the variance of independent samples.  z_state_outage is
    conditional on the visits to each state, where every loss is an
    independent draw, so it uses the binomial variance; z_eps_out is its
    terminal entry, the burst-outage score.  Entries are None where the
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
    report = simulate(
        SimConfig(
            policy=policy,
            channel=spec.channel,
            slots=slots,
            seed=seed,
            burn_in=burn_in,
        )
    )
    pi = steady_state_for(policy.eps)
    gamma_r = achieved_loss_rate(policy.eps, pi)
    p_bar = average_power(policy.powers, pi)
    eps_n = policy.eps[-1]

    # Slot averages of the state functions behind the loss rate (a slot is
    # lost exactly when the next state is not 0), the average power and
    # each occupancy, with the chain's asymptotic variance
    # pi.(f~ * (2 Z f~ - f~)): f~ = f - pi.f, Z = (I - A + 1 pi^T)^-1.
    k = pi.size
    f = np.column_stack([np.arange(k) != 0, policy.powers, np.eye(k)])
    f = f - pi @ f
    z_f = np.linalg.solve(np.eye(k) - build_transition_matrix(policy.eps) + pi, f)
    se = np.sqrt(np.maximum(pi @ (f * (2.0 * z_f - f)), 0.0) / slots).tolist()
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
