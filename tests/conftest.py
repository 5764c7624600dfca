"""An oracle for the fixed-rate N=1 problem that uses none of the package's solvers."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from fadepower.channel import EPSILON_GUARD as DELTA


def _n1_fixed_optimum(spec) -> float:
    """Least average power of a fixed-rate N=1 table that meets spec.

    The table (eps_0, eps_1) sends R in both states, state i at power
    k c_i, k = (2^R - 1) N0/Omega and c_i = -1/ln(1 - eps_i), so PEAK is
    eps_i >= lo = 1 - exp(-k/P_m).  Its average power is k ((1 - eps_1)
    c_0 + eps_0 c_1)/(1 + eps_0 - eps_1), and its loss rate eps_0/(1 +
    eps_0 - eps_1) <= gamma is eps_0 <= odds (1 - eps_1), odds =
    gamma/(1 - gamma).  Coordinates (t_1, t_0) in [0, 1]^2 put eps_1 in
    [lo, hi], hi = min(eps_out, 1 - DELTA, 1 - lo/odds) (above it no eps_0
    >= lo meets the loss budget), and eps_0 in [lo, min(odds (1 - eps_1),
    1 - DELTA)]; the best point of a 401 x 401 grid is polished by
    L-BFGS-B.
    """
    ch = spec.channel
    k = (2.0**spec.avg_rate - 1.0) * ch.noise_power / ch.mean_fading_power
    lo = max(DELTA, -math.expm1(-k / spec.peak_power))
    odds = spec.gamma / (1.0 - spec.gamma)
    hi = min(spec.eps_out, 1.0 - DELTA, 1.0 - lo / odds)
    if hi < lo:
        raise ValueError("no fixed-rate N=1 table meets spec")

    def power(t1, t0):
        e1 = lo + t1 * (hi - lo)
        e0 = lo + t0 * (np.minimum(odds * (1.0 - e1), 1.0 - DELTA) - lo)
        c0, c1 = -1.0 / np.log1p(-e0), -1.0 / np.log1p(-e1)
        return k * ((1.0 - e1) * c0 + e0 * c1) / (1.0 + e0 - e1)

    t1, t0 = np.meshgrid(np.linspace(0.0, 1.0, 401), np.linspace(0.0, 1.0, 401))
    grid = power(t1, t0)
    best = np.unravel_index(np.argmin(grid), grid.shape)
    start = (t1[best], t0[best])
    polished = minimize(lambda t: power(*t), start, method="L-BFGS-B", bounds=[(0.0, 1.0)] * 2)
    return float(min(grid[best], polished.fun))


@pytest.fixture
def n1_fixed_optimum():
    """The function _n1_fixed_optimum(spec) -> W."""
    return _n1_fixed_optimum
