"""Success-runs Markov chain over consecutive-loss states 0..N.

State i counts the current streak of consecutive packet losses.  Any
success returns the chain to state 0; a loss in state i < N advances to
state i+1, and a loss in the terminal state N self-loops.  With per-state
outage probabilities eps[i] strictly inside (0, 1) the chain is
irreducible and aperiodic, so the stationary distribution exists and is
unique.  product_form gives it in closed form and is the route of every
stationary distribution the package forms (the fixed-rate search forms
none: it prices its rows by renewal-cycle sums, and validate takes its
standard errors from the regenerative cycles over pi).  No package path
forms the transition matrix: build_transition_matrix and steady_state,
which solves pi = pi A densely for any row-stochastic matrix, are the
references the tests and the benchmark hold the closed forms to.
"""

from __future__ import annotations

import numpy as np

# Residual bound on ||pi A - pi||_inf accepted from the stationary solve.
_RESIDUAL_TOL = 1e-10


def _as_outage_vector(eps) -> np.ndarray:
    arr = np.asarray(eps, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("N must be >= 1")
    if not np.all((arr > 0.0) & (arr < 1.0)):  # NaN fails both comparisons
        raise ValueError("outage probabilities must lie strictly in (0, 1)")
    return arr


def build_transition_matrix(eps) -> np.ndarray:
    """Row-stochastic transition matrix of the success-runs chain.

    Row i < N puts mass 1-eps[i] in column 0 and eps[i] in column i+1;
    row N puts 1-eps[N] in column 0 and eps[N] on the diagonal.
    """
    e = _as_outage_vector(eps)
    n1 = e.size
    a = np.zeros((n1, n1))
    a[:, 0] = 1.0 - e
    for i in range(n1 - 1):
        a[i, i + 1] = e[i]
    a[n1 - 1, n1 - 1] = e[n1 - 1]
    return a


def steady_state(a) -> np.ndarray:
    """Stationary distribution pi of a row-stochastic matrix.

    Solves (A^T - I) pi = 0 with one equation replaced by the
    normalization sum(pi) = 1, via a dense factorization, and checks the
    residual of pi = pi A afterwards.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
        raise ValueError("transition matrix must be square with >= 2 states")
    if np.any(a < 0.0) or np.max(np.abs(a.sum(axis=1) - 1.0)) > 1e-12:
        raise ValueError("transition matrix must be row-stochastic")
    n = a.shape[0]
    m = a.T - np.eye(n)
    m[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("stationary solve failed") from exc
    residual = np.max(np.abs(pi @ a - pi))
    if residual > _RESIDUAL_TOL or np.any(pi < -_RESIDUAL_TOL):
        raise ValueError("stationary solve failed")
    pi = np.clip(pi, 0.0, None)
    return pi


def product_form(e) -> np.ndarray:
    """Stationary distributions of the outage vectors along the last axis of e.

    pi_j is proportional to eps_0*...*eps_{j-1}, with the terminal weight
    divided by (1 - eps_N) to absorb the self-loop.  A 1-D e is one
    policy and a 2-D e a block of rows, each row's pi bit for bit the one
    it gets alone.  e is not checked (steady_state_for checks it).
    """
    w = np.empty_like(e)
    w[..., 0] = 1.0
    np.cumprod(e[..., :-1], axis=-1, out=w[..., 1:])
    w[..., -1] /= 1.0 - e[..., -1]
    w /= np.add.reduce(w, axis=-1, keepdims=True)
    return w


def steady_state_for(eps) -> np.ndarray:
    """Stationary distribution of one outage vector, by the product form."""
    return product_form(_as_outage_vector(eps))


def achieved_loss_rate(eps, pi) -> float:
    """Long-run packet loss fraction gamma_r = sum_i eps[i]*pi[i]."""
    e = np.asarray(eps, dtype=float)
    p = np.asarray(pi, dtype=float)
    if e.shape != p.shape:
        raise ValueError("eps and pi lengths must match")
    return float(np.dot(e, p))
