"""Transmission policies and constraint evaluation.

A policy assigns to every loss state i an outage target eps[i], a rate
rates[i], and the transmit power powers[i] that realizes that outage at
that rate.  Evaluation reports the stationary average power together
with every constraint of the two optimization problems:

* variable rate -- C1 average transmitted rate >= R, C2 average loss
  <= gamma, C3 terminal outage <= eps_out, C4 per-state rate bounds,
  plus PEAK per-state power cap;
* fixed rate -- all rates pinned to R, with the same loss/burst/peak
  checks (labels keep the same meaning in both reports).

Constraint comparisons allow an absolute-relative slack of 1e-9 so that
policies constructed to sit exactly on a constraint boundary are not
rejected for round-off.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelModel, power_for_outage
from .markov import achieved_loss_rate, steady_state_for

# Slack scale for inequality checks; see module docstring.
_SLACK = 1e-9


def _leq(x: float, bound: float) -> bool:
    return x <= bound + _SLACK * max(1.0, abs(bound))


def _geq(x: float, bound: float) -> bool:
    return x >= bound - _SLACK * max(1.0, abs(bound))


@dataclass(frozen=True)
class ProblemSpec:
    """All loss/rate/power targets of one link-policy problem.

    gamma       average packet-loss target in (0, 1)
    n_states    burst bound N >= 1, an integer (maximum tolerated
                consecutive losses)
    eps_out     burst-outage target in (0, 1): admissible probability of
                losing yet another packet once N are already lost
    avg_rate    required average transmitted rate R > 0, finite (bits/s/Hz)
    r_min       minimum per-state rate, finite, 0 <= r_min <= r_max (bits/s/Hz)
    r_max       maximum per-state rate (bits/s/Hz)
    peak_power  per-state transmit power cap P_m > 0, finite (watts)
    channel     fading/noise model the powers refer to
    """

    gamma: float
    n_states: int
    eps_out: float
    avg_rate: float
    r_min: float
    r_max: float
    peak_power: float
    channel: ChannelModel

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not isinstance(self.n_states, numbers.Integral):
            raise ValueError("N must be an integer")
        if self.n_states < 1:
            raise ValueError("N must be >= 1")
        if not 0.0 < self.eps_out < 1.0:
            raise ValueError("eps_out must lie in (0, 1)")
        if not 0.0 < self.avg_rate < math.inf:  # NaN fails both comparisons
            raise ValueError("avg_rate must be positive and finite")
        if not (0.0 <= self.r_min <= self.r_max and math.isfinite(self.r_min)):
            raise ValueError("need 0 <= r_min <= r_max, r_min finite")
        if not 0.0 < self.peak_power < math.inf:  # NaN fails both comparisons
            raise ValueError("peak_power must be positive and finite")


@dataclass(frozen=True)
class Policy:
    """Per-state outage targets, rates, and the powers realizing them."""

    eps: tuple[float, ...]
    rates: tuple[float, ...]
    powers: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.eps) == len(self.rates) == len(self.powers)):
            raise ValueError("eps, rates, powers must have equal length")
        if len(self.eps) < 2:
            raise ValueError("N must be >= 1")

    @property
    def n_states(self) -> int:
        return len(self.eps) - 1


def make_policy(eps, rates, ch: ChannelModel) -> Policy:
    """Build a Policy, deriving each power from its (eps, rate) pair."""
    eps = tuple(float(e) for e in eps)
    rates = tuple(float(r) for r in rates)
    powers = tuple(power_for_outage(e, r, ch) for e, r in zip(eps, rates))
    return Policy(eps=eps, rates=rates, powers=powers)


@dataclass(frozen=True)
class EvalReport:
    """Objective value and constraint outcome of one policy.

    `violated` lists the failed constraint labels (C1 average rate,
    C2 average loss, C3 burst outage, C4 rate bounds, PEAK power cap);
    `feasible` is true exactly when it is empty.
    """

    avg_power: float
    avg_rate_achieved: float
    gamma_r: float
    eps_n: float
    feasible: bool
    violated: tuple[str, ...]


def average_power(powers, pi) -> float:
    """Stationary mean transmit power, the optimization objective."""
    p = np.asarray(powers, dtype=float)
    w = np.asarray(pi, dtype=float)
    if p.shape != w.shape:
        raise ValueError("powers and pi lengths must match")
    return float(np.dot(p, w))


def _check_dimensions(policy: Policy, spec: ProblemSpec) -> None:
    if policy.n_states != spec.n_states:
        raise ValueError(
            f"policy has N={policy.n_states} but spec has N={spec.n_states}"
        )


def _evaluate(policy: Policy, spec: ProblemSpec) -> EvalReport:
    """pi, gamma_r, the average rate and power of a policy, and its C2, C3 and PEAK checks."""
    _check_dimensions(policy, spec)
    pi = steady_state_for(policy.eps)
    gamma_r = achieved_loss_rate(policy.eps, pi)
    eps_n = policy.eps[-1]
    checks = (
        ("C2", _leq(gamma_r, spec.gamma)),
        ("C3", _leq(eps_n, spec.eps_out)),
        ("PEAK", all(_leq(p, spec.peak_power) for p in policy.powers)),
    )
    violated = tuple(label for label, ok in checks if not ok)
    return EvalReport(
        avg_power=average_power(policy.powers, pi),
        avg_rate_achieved=float(np.dot(policy.rates, pi)),
        gamma_r=gamma_r,
        eps_n=eps_n,
        feasible=not violated,
        violated=violated,
    )


def evaluate_variable(policy: Policy, spec: ProblemSpec) -> EvalReport:
    """Evaluate a policy against the variable-rate problem constraints."""
    report = _evaluate(policy, spec)
    checks = (
        ("C1", _geq(report.avg_rate_achieved, spec.avg_rate)),
        ("C4", all(_geq(r, spec.r_min) and _leq(r, spec.r_max) for r in policy.rates)),
    )
    # the labels sort in report order: C1, C2, C3, C4, PEAK
    violated = tuple(sorted(report.violated + tuple(label for label, ok in checks if not ok)))
    return replace(report, feasible=not violated, violated=violated)


def evaluate_fixed(policy: Policy, spec: ProblemSpec) -> EvalReport:
    """Evaluate a constant-rate policy against the fixed-rate problem.

    All rates must equal spec.avg_rate.  The terminal power window
    P_out <= P_N <= P_m is covered by the burst check (its lower edge,
    since power is decreasing in outage at fixed rate) and by the peak
    check over every state (its upper edge; with losses ordered worst
    state last, checking P_N alone would suffice, but the full scan is
    cheap and also covers unordered inputs).
    """
    r = spec.avg_rate
    if any(abs(ri - r) > 1e-12 * max(1.0, abs(r)) for ri in policy.rates):
        raise ValueError("fixed-rate policy malformed")
    return _evaluate(policy, spec)


def check_power_ordering(powers) -> bool:
    """True iff powers are non-decreasing state to state (1e-9 slack)."""
    p = list(powers)
    return all(p[i] <= p[i + 1] + 1e-9 for i in range(len(p) - 1))
