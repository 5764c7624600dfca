"""Rayleigh block-fading channel model.

The transmitter knows only the fading distribution, never the realization,
so every (power, rate) choice carries an outage probability.  The channel
power gain g = |h|^2 of a Rayleigh channel is exponentially distributed
with mean ``mean_fading_power``, which gives closed forms both for the
outage probability of a (power, rate) pair and for its inverse, the power
required to hit a target outage at a given rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Guard keeping outage probabilities away from the logarithmic
# singularities of the power inversion at 0 and 1; generators and grid
# searches stay within (EPSILON_GUARD, 1 - EPSILON_GUARD).
EPSILON_GUARD = 1e-6


@dataclass(frozen=True)
class ChannelModel:
    """Fading distribution plus receiver noise floor.

    Attributes
    ----------
    mean_fading_power:
        Mean channel power gain E[|h|^2] (dimensionless).
    noise_power:
        Noise power N0 in linear watts.
    """

    mean_fading_power: float = 1.0
    noise_power: float = 1.0

    def __post_init__(self) -> None:
        if not self.mean_fading_power > 0.0:
            raise ValueError("mean_fading_power must be positive")
        if not self.noise_power > 0.0:
            raise ValueError("noise_power must be positive")


def outage_probability(power: float, rate: float, ch: ChannelModel) -> float:
    """Probability that `rate` exceeds the instantaneous capacity at `power`.

    An outage occurs when log2(1 + power*g/N0) < rate.  For exponential g
    this is 1 - exp(-(2^rate - 1)*N0 / (power*Omega)).  A zero rate is never
    in outage; a positive rate at zero power always is.
    """
    if power < 0.0:
        raise ValueError("power must be >= 0")
    if rate < 0.0:
        raise ValueError("rate must be >= 0")
    if rate == 0.0:
        return 0.0
    if power == 0.0:
        return 1.0
    threshold = (2.0**rate - 1.0) * ch.noise_power / (power * ch.mean_fading_power)
    return -math.expm1(-threshold)


def power_for_outage(epsilon: float, rate: float, ch: ChannelModel) -> float:
    """Transmit power that makes the outage of `rate` equal `epsilon`.

    Exact inverse of :func:`outage_probability` at fixed rate:
    (2^rate - 1)*N0 / (-ln(1 - epsilon) * Omega).
    """
    if rate < 0.0:
        raise ValueError("rate must be >= 0")
    if epsilon >= 1.0:
        raise ValueError("degenerate outage target")
    if epsilon <= 0.0:
        if rate > 0.0:
            raise ValueError("infinite power required")
        return 0.0
    if rate == 0.0:
        return 0.0
    return (2.0**rate - 1.0) * ch.noise_power / (-math.log1p(-epsilon) * ch.mean_fading_power)


def max_rate(peak_power: float, ch: ChannelModel) -> float:
    """Capacity-based rate cap log2(1 + peak_power*Omega/N0).

    The mean fading power Omega stands in for the random channel gain: the
    transmitter has no realization to plug in.
    """
    if not peak_power > 0.0:
        raise ValueError("peak_power must be positive")
    return math.log2(1.0 + peak_power * ch.mean_fading_power / ch.noise_power)
