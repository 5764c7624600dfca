import math

import numpy as np
import pytest

from fadepower.channel import (
    ChannelModel,
    max_rate,
    outage_probability,
    power_for_outage,
)

CH = ChannelModel()

# references evaluated at 40-digit precision
ONE_MINUS_INV_E = 0.6321205588285577  # 1 - e^-1
P_FOR_225 = 3.923226388626334  # -1/ln(0.775)
LOG2_101 = 6.658211482751795


def test_outage_unit_power_unit_rate():
    assert outage_probability(1.0, 1.0, CH) == pytest.approx(ONE_MINUS_INV_E, rel=1e-15)


def test_outage_zero_rate_never_fails():
    assert outage_probability(5.0, 0.0, CH) == 0.0
    assert outage_probability(0.0, 0.0, CH) == 0.0


def test_outage_zero_power_always_fails():
    assert outage_probability(0.0, 1.0, CH) == 1.0


def test_power_for_outage_reference_value():
    assert power_for_outage(0.225, 1.0, CH) == pytest.approx(P_FOR_225, rel=1e-13)


def test_power_for_outage_zero_rate():
    assert power_for_outage(0.5, 0.0, CH) == 0.0


def test_power_for_outage_inverts_unit_case():
    assert power_for_outage(ONE_MINUS_INV_E, 1.0, CH) == pytest.approx(1.0, rel=1e-12)


def test_roundtrip_wide_eps_and_rate():
    rng = np.random.default_rng(7)
    # epsilon spanning 1e-9 .. 1-1e-9, rates in (0, 10]
    eps = 10.0 ** rng.uniform(-9, -0.0000001, 5000)
    eps = np.concatenate([eps, 1.0 - 10.0 ** rng.uniform(-9, -0.35, 5000)])
    rates = rng.uniform(1e-6, 10.0, eps.size)
    for e, r in zip(eps, rates):
        p = power_for_outage(e, r, CH)
        back = outage_probability(p, r, CH)
        assert abs(back - e) <= 1e-12 * e


def test_outage_monotone_in_power_and_rate():
    powers = np.linspace(0.5, 50.0, 40)
    vals = [outage_probability(p, 1.0, CH) for p in powers]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # stay below the regime where the probability saturates to 1.0 in doubles
    rates = np.linspace(0.1, 6.0, 40)
    vals = [outage_probability(5.0, r, CH) for r in rates]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_power_monotone_in_eps_and_rate():
    eps = np.linspace(0.01, 0.99, 40)
    vals = [power_for_outage(e, 1.0, CH) for e in eps]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    rates = np.linspace(0.1, 8.0, 40)
    vals = [power_for_outage(0.2, r, CH) for r in rates]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_degenerate_targets_raise():
    with pytest.raises(ValueError, match="infinite power required"):
        power_for_outage(0.0, 1.0, CH)
    with pytest.raises(ValueError, match="degenerate outage target"):
        power_for_outage(1.0, 1.0, CH)
    with pytest.raises(ValueError):
        outage_probability(-1.0, 1.0, CH)
    with pytest.raises(ValueError):
        outage_probability(1.0, -1.0, CH)


def test_max_rate_values():
    assert max_rate(1.0, CH) == pytest.approx(1.0, rel=1e-15)
    assert max_rate(3.0, CH) == pytest.approx(2.0, rel=1e-15)
    assert max_rate(100.0, CH) == pytest.approx(LOG2_101, rel=1e-14)


def test_general_noise_and_fading_scaling():
    # power scales as N0/Omega at fixed (eps, rate)
    base = power_for_outage(0.2, 1.5, CH)
    scaled = power_for_outage(0.2, 1.5, ChannelModel(mean_fading_power=2.0, noise_power=3.0))
    assert scaled == pytest.approx(base * 3.0 / 2.0, rel=1e-13)
    ch2 = ChannelModel(mean_fading_power=0.7, noise_power=2.2)
    p = power_for_outage(0.31, 2.4, ch2)
    assert outage_probability(p, 2.4, ch2) == pytest.approx(0.31, rel=1e-12)


def test_channel_model_validation():
    with pytest.raises(ValueError, match="mean_fading_power"):
        ChannelModel(mean_fading_power=0.0)
    with pytest.raises(ValueError, match="noise_power"):
        ChannelModel(noise_power=-1.0)
    # an infinite or NaN field names itself
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="mean_fading_power must be positive and finite"):
            ChannelModel(mean_fading_power=bad)
        with pytest.raises(ValueError, match="noise_power must be positive and finite"):
            ChannelModel(noise_power=bad)
