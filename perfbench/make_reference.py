"""Build perfbench/reference.json, the best-known tables the benchmark scores against.

Usage, from the repository root (needs scipy; takes a few minutes on 2 cores):

    python3 perfbench/make_reference.py

The benchmark itself never imports scipy: it only loads the JSON this
script writes.  Every case is the preset problem (gamma=0.2, R=1 b/s/Hz,
P_m=100 W, r_min=0.001, r_max=log2(101), unit noise and fading power):

* fixed rate, N=1, every sweep point eps_out = 0.02..0.40: exhaustive 2-D
  grid over (eps0, eps1), zoomed in three times around the best cell.  The
  one-dimensional ``n1_fixed_search`` is not used: it keeps the loss
  budget binding, which is not optimal at small eps_out.
* fixed rate, N=3/6/10, and variable rate, N=1/3, at eps_out=0.1:
  differential evolution (several seeds, L-BFGS-B polish) over
  (t, eps_1..eps_N) with eps_0 = lb + t*(ub - lb), where ub is the largest
  eps_0 the loss budget allows.  The variable-rate objective allocates the
  rates exactly for each outage vector (water-filling, one bisection).

Each stored policy is re-checked with ``evaluate_fixed``/``evaluate_variable``
and its ``p_ref`` is the evaluator's average power.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy
from scipy.optimize import differential_evolution

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fadepower import (  # noqa: E402
    ChannelModel,
    ProblemSpec,
    evaluate_fixed,
    evaluate_variable,
    make_policy,
    max_rate,
)

DELTA = 1e-6
GAMMA = 0.2
RATE = 1.0
PEAK = 100.0
R_MIN = 0.001
CHANNEL = ChannelModel()
R_MAX = max_rate(PEAK, CHANNEL)
SWEEP_EPS = [round(0.02 * i, 12) for i in range(1, 21)]
DE_SEEDS = (1, 2, 3)

# Values measured by a by-construction prototype (ROADMAP), kept beside the
# references as targets.
ROADMAP_TARGETS = {
    "fixed.n3": 4.4998,
    "fixed.n6": 4.4840,
    "fixed.n10": 4.4850,
    "variable.n1": 3.8817,
    "variable.n3": 2.7626,
}


def spec(n: int, eps_out: float) -> ProblemSpec:
    return ProblemSpec(
        gamma=GAMMA, n_states=n, eps_out=eps_out, avg_rate=RATE, r_min=R_MIN,
        r_max=R_MAX, peak_power=PEAK, channel=CHANNEL,
    )


def steady_rows(e: np.ndarray) -> np.ndarray:
    """Product-form stationary distributions, one per row of e."""
    w = np.ones_like(e)
    w[:, 1:] = np.cumprod(e[:, :-1], axis=1)
    w[:, -1] /= 1.0 - e[:, -1]
    return w / w.sum(axis=1, keepdims=True)


def eps_from_params(x: np.ndarray, lb: float) -> tuple[np.ndarray, np.ndarray]:
    """Map rows (t, eps_1..eps_N) to outage rows; also return a validity mask."""
    tail = x[:, 1:]
    w1 = np.ones(len(x))
    prod = np.ones(len(x))
    n = tail.shape[1]
    for i in range(n):
        if i < n - 1:
            prod = prod * tail[:, i]
            w1 += prod
        else:
            w1 += prod * tail[:, i] / (1.0 - tail[:, i])
    # w1 = 1 + e1 + e1 e2 + ... + e1..e_{N-1}/(1 - e_N)
    ub = np.minimum(1.0 - DELTA, GAMMA / ((1.0 - GAMMA) * w1))
    e0 = lb + x[:, 0] * (ub - lb)
    return np.column_stack([e0, tail]), ub >= lb


def fixed_power(x: np.ndarray, lb: float) -> np.ndarray:
    e, ok = eps_from_params(x, lb)
    p = (2.0**RATE - 1.0) / (-np.log1p(-e))
    pbar = np.einsum("ij,ij->i", p, steady_rows(e))
    return np.where(ok, pbar, 1e6)


def waterfill(e: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact rate allocation for each outage row: rates and average power.

    min sum pi_i c_i (2^r_i - 1) s.t. sum pi_i r_i >= R, r_min <= r_i <= rcap_i
    has the KKT solution r_i = clip(x - log2 c_i); x is found by bisection
    and the upper end of the bracket is kept, so the rate floor holds.
    Rows whose caps cannot carry R get an infinite power.
    """
    c = 1.0 / (-np.log1p(-e))
    rcap = np.minimum(R_MAX, np.log2(1.0 + PEAK / c))
    lc = np.log2(c)
    lo = np.full(len(e), R_MIN + lc.min(axis=1).min() - 100.0)
    hi = np.full(len(e), (rcap - lc).max() + 100.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = np.clip(mid[:, None] - lc, R_MIN, rcap)
        short = np.einsum("ij,ij->i", r, pi) < RATE
        lo = np.where(short, mid, lo)
        hi = np.where(short, hi, mid)
    r = np.clip(hi[:, None] - lc, R_MIN, rcap)
    pbar = np.einsum("ij,ij->i", c * (np.exp2(r) - 1.0), pi)
    feasible = np.einsum("ij,ij->i", rcap, pi) >= RATE
    return r, np.where(feasible, pbar, np.inf)


def variable_power(x: np.ndarray) -> np.ndarray:
    e, ok = eps_from_params(x, DELTA)
    _, pbar = waterfill(e, steady_rows(e))
    return np.where(ok & np.isfinite(pbar), pbar, 1e6)


def de_search(objective, n: int, eps_out: float, lb: float):
    bounds = [(0.0, 1.0)] + [(lb, 1.0 - DELTA)] * (n - 1) + [(lb, min(eps_out, 1.0 - DELTA))]
    best = None
    for seed in DE_SEEDS:
        res = differential_evolution(
            lambda xt: objective(np.atleast_2d(xt.T)),
            bounds, seed=seed, popsize=30, maxiter=3000, tol=1e-12,
            mutation=(0.5, 1.0), recombination=0.9, polish=True,
            vectorized=True, updating="deferred",
        )
        if best is None or res.fun < best.fun:
            best = res
    return best


def n1_fixed_grid(eps_out: float, lb: float, points: int = 1001, zooms: int = 3):
    """Exhaustive (eps0, eps1) grid, then finer grids around the best cell."""
    lo0, hi0 = lb, 1.0 - DELTA
    lo1, hi1 = lb, min(eps_out, 1.0 - DELTA)
    best = None
    for _ in range(zooms + 1):
        e0 = np.linspace(lo0, hi0, points)[:, None]
        e1 = np.linspace(lo1, hi1, points)[None, :]
        pi1 = e0 / (1.0 + e0 - e1)
        loss = e0 * (1.0 - pi1) + e1 * pi1
        pbar = ((1.0 - pi1) / (-np.log1p(-e0)) + pi1 / (-np.log1p(-e1))) * (2.0**RATE - 1.0)
        pbar = np.where(loss <= GAMMA, pbar, np.inf)
        i, j = np.unravel_index(np.argmin(pbar), pbar.shape)
        best = (float(e0[i, 0]), float(e1[0, j]))
        s0 = (hi0 - lo0) / (points - 1)
        s1 = (hi1 - lo1) / (points - 1)
        lo0, hi0 = max(lb, best[0] - 4 * s0), min(1.0 - DELTA, best[0] + 4 * s0)
        lo1, hi1 = max(lb, best[1] - 4 * s1), min(eps_out, 1.0 - DELTA, best[1] + 4 * s1)
    return best


def entry(problem: str, n: int, eps_out: float, eps, rates, method: str) -> dict:
    sp = spec(n, eps_out)
    policy = make_policy(eps, rates, CHANNEL)
    report = (evaluate_fixed if problem == "fixed" else evaluate_variable)(policy, sp)
    if not report.feasible:
        raise RuntimeError(f"{problem} N={n} eps_out={eps_out}: violates {report.violated}")
    return {
        "problem": problem,
        "n": n,
        "eps_out": eps_out,
        "p_ref": report.avg_power,
        "eps": list(policy.eps),
        "rates": list(policy.rates),
        "method": method,
    }


def main() -> int:
    peak_lb = 1.0 - math.exp(-(2.0**RATE - 1.0) / PEAK)
    cases: dict[str, dict] = {}
    de_note = (
        f"differential evolution over (t, eps_1..eps_N), seeds {list(DE_SEEDS)}, "
        "popsize 30, L-BFGS-B polish"
    )
    grid_note = "2-D (eps0, eps1) grid, 1001x1001, three zooms of +-4 cells"
    for eps_out in SWEEP_EPS:
        grid = entry("fixed", 1, eps_out, n1_fixed_grid(eps_out, peak_lb), (RATE, RATE), grid_note)
        # The grid can settle on a near-flat ridge of the loss boundary;
        # the N>1 search is run as well and the lower of the two is kept.
        res = de_search(lambda x: fixed_power(x, peak_lb), 1, eps_out, peak_lb)
        e, _ = eps_from_params(res.x[None, :], peak_lb)
        de = entry("fixed", 1, eps_out, e[0], (RATE, RATE), de_note)
        best = min(grid, de, key=lambda c: c["p_ref"])
        best["method"] = (
            f"lower of: {grid_note} ({grid['p_ref']:.9f} W); {de_note} ({de['p_ref']:.9f} W)"
        )
        key = f"fixed.n1.eps{eps_out:.2f}"
        cases[key] = best
        print(f"{key}: grid {grid['p_ref']:.9f} W, de {de['p_ref']:.9f} W")

    for n in (3, 6, 10):
        res = de_search(lambda x: fixed_power(x, peak_lb), n, 0.1, peak_lb)
        e, _ = eps_from_params(res.x[None, :], peak_lb)
        key = f"fixed.n{n}"
        cases[key] = entry("fixed", n, 0.1, e[0], (RATE,) * (n + 1), de_note)
        print(f"{key}: {cases[key]['p_ref']:.6f} W")
    for n in (1, 3):
        res = de_search(variable_power, n, 0.1, DELTA)
        e, _ = eps_from_params(res.x[None, :], DELTA)
        r, _ = waterfill(e, steady_rows(e))
        key = f"variable.n{n}"
        cases[key] = entry(
            "variable", n, 0.1, e[0], r[0], de_note + "; exact water-filling rates"
        )
        print(f"{key}: {cases[key]['p_ref']:.6f} W")

    for key, target in ROADMAP_TARGETS.items():
        cases[key]["roadmap_target"] = target
    # Fixed rate: power is convex and decreasing in eps, so by Jensen every
    # feasible table costs at least the constant-outage power at eps = gamma.
    jensen = (2.0**RATE - 1.0) / -math.log1p(-GAMMA)
    for case in cases.values():
        if case["problem"] == "fixed":
            case["lower_bound"] = jensen
    cases["variable.n3"]["note"] = (
        "states 1-2 send r_max at outage ~1: C1 counts transmitted, not delivered, rate"
    )
    out = {
        "spec": {
            "gamma": GAMMA, "rate": RATE, "peak_power_w": PEAK, "r_min": R_MIN,
            "r_max": R_MAX, "noise_power": 1.0, "mean_fading_power": 1.0,
        },
        "generated_with": {"numpy": np.__version__, "scipy": scipy.__version__},
        "cases": cases,
    }
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
