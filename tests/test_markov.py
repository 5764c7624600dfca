import numpy as np
import pytest

from fadepower.markov import (
    achieved_loss_rate,
    build_transition_matrix,
    product_form,
    steady_state,
    steady_state_for,
)


def test_matrix_two_states():
    a = build_transition_matrix([0.225, 0.1])
    assert np.allclose(a, [[0.775, 0.225], [0.9, 0.1]], atol=1e-15)


def test_matrix_three_states_pattern():
    a = build_transition_matrix([0.5, 0.5, 0.5])
    expect = [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.5, 0.0, 0.5]]
    assert np.allclose(a, expect, atol=1e-15)


def test_matrix_nearly_lossless():
    a = build_transition_matrix([1e-12, 1e-12, 1e-12])
    assert np.all(a[:, 0] > 1.0 - 1e-11)


def test_matrix_rejects_short_and_degenerate():
    with pytest.raises(ValueError, match="N must be >= 1"):
        build_transition_matrix([0.5])
    with pytest.raises(ValueError, match="strictly in"):
        build_transition_matrix([0.5, 0.0])
    with pytest.raises(ValueError, match="strictly in"):
        build_transition_matrix([1.0, 0.5])


@pytest.mark.parametrize("eps", [[np.nan, 0.1], [0.2, np.nan, 0.1]])
def test_nan_outages_are_rejected(eps):
    # NaN is neither <= 0 nor >= 1, so only a test for lying inside (0, 1)
    # rejects it
    with pytest.raises(ValueError, match="strictly in"):
        steady_state_for(eps)
    with pytest.raises(ValueError, match="strictly in"):
        build_transition_matrix(eps)


def test_steady_two_state_exact():
    pi = steady_state_for([0.225, 0.1])
    assert pi[0] == pytest.approx(0.8, abs=1e-14)
    assert pi[1] == pytest.approx(0.2, abs=1e-14)


def test_steady_three_state_exact():
    pi = steady_state_for([0.5, 0.5, 0.5])
    assert np.allclose(pi, [0.5, 0.25, 0.25], atol=1e-13)


def test_steady_lossless_limit():
    pi = steady_state_for([1e-9, 1e-9])
    assert pi[0] == pytest.approx(1.0, abs=1e-8)


def test_steady_matches_product_form():
    # the dense solve of pi = pi A is the independent reference of the
    # product form that steady_state_for runs
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 11))
        eps = rng.uniform(0.001, 0.999, n + 1)
        dense = steady_state(build_transition_matrix(eps))
        assert np.max(np.abs(steady_state_for(eps) - dense)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 5, 30])
def test_product_form_of_a_block_equals_its_rows(n):
    # one call over a block of rows gives each row's pi bit for bit
    e = np.random.default_rng(n).uniform(1e-6, 1.0 - 1e-6, size=(50, n + 1))
    block = product_form(e)
    assert block.shape == e.shape
    assert np.array_equal(block, np.array([steady_state_for(row) for row in e]))


def test_steady_two_state_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(200):
        e0, e1 = rng.uniform(0.001, 0.999, 2)
        pi = steady_state_for([e0, e1])
        denom = 1.0 + e0 - e1
        assert abs(pi[0] - (1.0 - e1) / denom) < 1e-12
        assert abs(pi[1] - e0 / denom) < 1e-12


def test_steady_validates_input_matrix():
    with pytest.raises(ValueError, match="row-stochastic"):
        steady_state(np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="square"):
        steady_state(np.ones((2, 3)) / 3.0)


def test_loss_rate_reference():
    assert achieved_loss_rate([0.225, 0.1], [0.8, 0.2]) == pytest.approx(0.2, abs=1e-15)


def test_loss_rate_constant_outage():
    assert achieved_loss_rate([0.5, 0.5, 0.5], [0.5, 0.25, 0.25]) == pytest.approx(
        0.5, abs=1e-15
    )
    rng = np.random.default_rng(5)
    pi = rng.dirichlet(np.ones(4))
    assert achieved_loss_rate([0.3] * 4, pi) == pytest.approx(0.3, rel=1e-12)


def test_loss_rate_between_extremes():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        eps = rng.uniform(0.01, 0.99, n + 1)
        if eps.max() - eps.min() < 1e-6:
            continue
        g = achieved_loss_rate(eps, steady_state_for(eps))
        assert eps.min() < g < eps.max()


def test_loss_rate_length_mismatch():
    with pytest.raises(ValueError, match="lengths must match"):
        achieved_loss_rate([0.5, 0.5], [1.0])
