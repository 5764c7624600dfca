import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fadepower import simulator
from fadepower.channel import ChannelModel, max_rate, outage_probability
from fadepower.markov import achieved_loss_rate, build_transition_matrix, steady_state_for
from fadepower.policy import Policy, ProblemSpec, make_policy
from fadepower.simulator import SimReport, simulate, validate

CH = ChannelModel()


def sim(policy, slots, seed=0, burn_in=1000, channel=CH):
    return simulate(policy, channel, slots, seed, burn_in=burn_in)


def ref_policy():
    return make_policy([0.225, 0.1], [1.0, 1.0], CH)


def test_zero_rate_policy_never_loses():
    pol = Policy(eps=(0.0, 0.0), rates=(0.0, 0.0), powers=(0.0, 0.0))
    rep = sim(pol, 5000)
    assert rep.empirical_gamma == 0.0
    assert rep.occupancy == (1.0, 0.0)
    assert rep.violations == 0
    assert rep.empirical_eps_out is None
    assert rep.run_length_histogram == {}


def test_sample_statistics_match_chain():
    pol = ref_policy()
    slots = 400_000
    rep = sim(pol, slots, seed=42)
    pi = steady_state_for(pol.eps)
    gamma_r = achieved_loss_rate(pol.eps, pi)
    assert abs(rep.empirical_gamma - gamma_r) < 3 * math.sqrt(gamma_r * (1 - gamma_r) / slots)
    for occ, p in zip(rep.occupancy, pi):
        assert abs(occ - p) < 3 * math.sqrt(p * (1 - p) / slots)
    p_bar = float(np.dot(pol.powers, pi))
    p_var = float(np.dot(np.square(pol.powers), pi)) - p_bar**2
    assert abs(rep.avg_power - p_bar) < 3 * math.sqrt(p_var / slots)


def test_per_state_outage_frequency():
    pol = ref_policy()
    rep = sim(pol, 400_000, seed=9)
    for e, c, l in zip(pol.eps, rep.state_slots, rep.state_losses):
        assert c > 0
        se = math.sqrt(e * (1 - e) / c)
        assert abs(l / c - e) < 3 * se


def test_rate_identities_exact():
    pol = make_policy([0.3, 0.15, 0.05], [1.5, 0.7, 0.2], CH)
    rep = sim(pol, 50_000, seed=4)
    trans = sum(r * c for r, c in zip(pol.rates, rep.state_slots)) / 50_000
    deliv = sum(
        r * (c - l) for r, c, l in zip(pol.rates, rep.state_slots, rep.state_losses)
    ) / 50_000
    assert rep.transmitted_rate == trans
    assert rep.delivered_rate == deliv
    assert rep.delivered_rate <= rep.transmitted_rate
    assert sum(rep.occupancy) == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= rep.empirical_gamma <= 1.0


def test_conditional_burst_estimate():
    pol = ref_policy()
    rep = sim(pol, 300_000, seed=13)
    n = pol.n_states
    assert rep.empirical_eps_out == rep.state_losses[n] / rep.state_slots[n]
    assert rep.violations == rep.state_losses[n]
    se = math.sqrt(pol.eps[n] * (1 - pol.eps[n]) / rep.state_slots[n])
    assert abs(rep.empirical_eps_out - pol.eps[n]) < 4 * se


def test_run_histogram_accounts_every_loss_without_burnin():
    pol = make_policy([0.4, 0.3, 0.2], [1.0, 1.0, 1.0], CH)
    rep = sim(pol, 30_000, seed=2, burn_in=0)
    total_from_runs = sum(k * v for k, v in rep.run_length_histogram.items())
    assert total_from_runs == sum(rep.state_losses)
    assert all(k >= 1 for k in rep.run_length_histogram)
    # violations equal the slots by which runs exceeded the burst bound
    over = sum(
        (k - pol.n_states) * v
        for k, v in rep.run_length_histogram.items()
        if k > pol.n_states
    )
    assert rep.violations == over


def test_same_seed_same_report():
    pol = ref_policy()
    assert sim(pol, 20_000, seed=5) == sim(pol, 20_000, seed=5)
    assert sim(pol, 20_000, seed=5) != sim(pol, 20_000, seed=6)


def test_single_slot_report_well_formed():
    rep = sim(ref_policy(), 1, seed=0)
    assert sum(rep.occupancy) == pytest.approx(1.0)
    assert rep.empirical_gamma in (0.0, 1.0)
    assert rep.state_slots[0] + rep.state_slots[1] == 1


def test_config_validation():
    pol = ref_policy()
    with pytest.raises(ValueError, match="slots"):
        simulate(pol, CH, 0, 0)
    with pytest.raises(ValueError, match="burn_in"):
        simulate(pol, CH, 10, 0, burn_in=-1)
    # the burst bound is the policy's own N; validate rejects a spec of another N
    with pytest.raises(ValueError, match="policy has N=1 but spec has N=3"):
        validate(pol, spec_for(make_policy(LOWLOSS, [1.0] * 4, CH)), 10, 0)


@pytest.mark.parametrize(
    "key, value",
    [
        ("powers", math.nan),
        ("powers", -1.0),
        ("powers", math.inf),
        ("rates", math.nan),
        ("rates", -1.0),
        ("rates", math.inf),
    ],
)
def test_rejects_negative_or_nonfinite_power_or_rate(key, value):
    # unchecked, a NaN or negative value would simulate a lossless link
    pol = replace(
        Policy(eps=(0.1, 0.1), rates=(1.0, 1.0), powers=(1.0, 1.0)), **{key: (value, 1.0)}
    )
    with pytest.raises(ValueError, match=f"{key} must be finite and >= 0"):
        simulate(pol, CH, 10_000, 0)
    with pytest.raises(ValueError, match=f"{key} must be finite and >= 0"):
        validate(pol, spec_for(pol), 10_000, 0)


def spec_for(pol, eps_out=0.1):
    return ProblemSpec(
        gamma=0.2,
        n_states=pol.n_states,
        eps_out=eps_out,
        avg_rate=1.0,
        r_min=0.001,
        r_max=max_rate(100.0, CH),
        peak_power=100.0,
        channel=CH,
    )


def test_validate_consistent_policy_scores_low():
    pol = ref_policy()
    rec = validate(pol, spec_for(pol), 300_000, 21)
    assert rec.max_abs_z < 4.0
    assert rec.analytic_gamma == pytest.approx(0.2, abs=1e-12)
    assert rec.analytic_pi[0] == pytest.approx(0.8, abs=1e-12)
    assert rec.z_eps_out is not None


@pytest.mark.parametrize("omega", [0.5, 2.0])
def test_validate_holds_at_any_mean_fading_power(omega):
    # a table made for a channel of mean gain Omega loses as often as it
    # claims: the outage the walk compares with takes Omega into account
    ch = ChannelModel(mean_fading_power=omega)
    pol = make_policy([0.2, 0.1], [1.0, 1.0], ch)
    rec = validate(pol, replace(spec_for(pol), channel=ch), 200_000, 5)
    assert rec.max_abs_z <= 4.0
    for e, c, l in zip(pol.eps, rec.report.state_slots, rec.report.state_losses):
        assert abs(l / c - e) <= 5 * math.sqrt(e * (1 - e) / c)


@pytest.mark.parametrize(
    "eps",
    [
        (0.225, 0.1),
        (0.05, 0.1, 0.1, 0.05),
        (0.3, 0.5, 0.6, 0.7, 0.75, 0.8, 0.8, 0.85, 0.85, 0.9, 0.9),
    ],
)
def test_validate_eps_out_score_is_terminal_state_score(eps):
    pol = make_policy(eps, [1.0] * len(eps), CH)
    rec = validate(pol, spec_for(pol, eps_out=0.95), 50_000, 3)
    assert rec.z_eps_out is not None
    assert rec.z_eps_out == rec.z_state_outage[-1]


def test_validate_flags_corrupted_model():
    honest = ref_policy()
    # declared outage probabilities disagree with the actual (power, rate) pairs
    lying = Policy(eps=(0.45, 0.3), rates=honest.rates, powers=honest.powers)
    rec = validate(lying, spec_for(lying, eps_out=0.35), 300_000, 21)
    assert rec.max_abs_z > 4.0


def test_given_powers_lose_at_the_channel_outage():
    # powers given, not derived: the walk's loss event must be the one
    # channel.outage_probability names for (P_i, r_i), whatever eps says
    ch = ChannelModel(mean_fading_power=2.0)
    pol = Policy(
        eps=(0.2, 0.1, 0.05, 0.01), rates=(1.5, 0.7, 1.2, 0.3), powers=(3.0, 1.0, 2.0, 0.5)
    )
    rep = simulate(pol, ch, 200_000, 11)
    for e, p, r, c, l in zip(pol.eps, pol.powers, pol.rates, rep.state_slots, rep.state_losses):
        q = outage_probability(p, r, ch)
        assert abs(q - e) > 0.04  # the labels disagree with the table
        assert c > 1000
        assert abs(l / c - q) <= 5 * math.sqrt(q * (1 - q) / c), (p, r, l / c, q)


def test_validate_degenerate_single_slot():
    pol = ref_policy()
    rec = validate(pol, spec_for(pol), 1, 0)
    assert rec.report.state_slots[0] + rec.report.state_slots[1] == 1
    assert math.isfinite(rec.z_gamma) or rec.z_gamma == 0.0


def test_occupancy_converges_across_seeds():
    pol = make_policy([0.35, 0.2, 0.12], [1.2, 0.8, 0.3], CH)
    pi = steady_state_for(pol.eps)
    slots = 100_000
    bad = 0
    for seed in range(5):
        rep = sim(pol, slots, seed=seed)
        for occ, p in zip(rep.occupancy, pi):
            if abs(occ - p) >= 5 * math.sqrt(p * (1 - p) / slots):
                bad += 1
    assert bad == 0


def reference_simulate(policy, ch, slots, seed, *, burn_in):
    """The per-slot definition of simulate(): one Python step per slot."""
    n = policy.n_states
    outages = []
    for p, r in zip(policy.powers, policy.rates):
        if r == 0.0:
            outages.append(0.0)
        elif p == 0.0:
            outages.append(1.0)
        else:
            theta = (2.0**r - 1.0) * ch.noise_power / (p * ch.mean_fading_power)
            outages.append(-math.expm1(-theta))

    rng = np.random.default_rng(seed)
    total = burn_in + slots
    # each slot's gain g as its quantile 1 - exp(-g/Omega), uniform on [0, 1)
    u = rng.random(size=total).tolist()

    state = 0
    run_len = 0
    for t in range(burn_in):
        if u[t] < outages[state]:
            run_len += 1
            state = state + 1 if state < n else n
        else:
            run_len = 0
            state = 0

    slots_in = [0] * (n + 1)
    losses_in = [0] * (n + 1)
    hist = {}
    violations = 0
    for t in range(burn_in, total):
        slots_in[state] += 1
        if u[t] < outages[state]:
            losses_in[state] += 1
            if state == n:
                violations += 1
            run_len += 1
            state = state + 1 if state < n else n
        else:
            if run_len > 0:
                hist[run_len] = hist.get(run_len, 0) + 1
            run_len = 0
            state = 0
    if run_len > 0:
        hist[run_len] = hist.get(run_len, 0) + 1

    return SimReport(
        empirical_gamma=sum(losses_in) / slots,
        empirical_eps_out=losses_in[n] / slots_in[n] if slots_in[n] > 0 else None,
        occupancy=tuple(c / slots for c in slots_in),
        run_length_histogram=hist,
        avg_power=sum(p * c for p, c in zip(policy.powers, slots_in)) / slots,
        transmitted_rate=sum(r * c for r, c in zip(policy.rates, slots_in)) / slots,
        delivered_rate=(
            sum(r * (c - l) for r, c, l in zip(policy.rates, slots_in, losses_in)) / slots
        ),
        violations=violations,
        state_slots=tuple(slots_in),
        state_losses=tuple(losses_in),
    )


def fixed_rate(eps):
    return make_policy(eps, [1.0] * len(eps), CH)


LOWLOSS = (0.05, 0.1, 0.1, 0.05)
BURSTY = (0.3, 0.5, 0.6, 0.7, 0.75, 0.8, 0.8, 0.85, 0.85, 0.9, 0.9)
_P = fixed_rate((0.2, 0.5, 0.3)).powers
WALK_POLICIES = {
    "n1": ref_policy(),
    "n3": fixed_rate(LOWLOSS),
    "n10": fixed_rate(BURSTY),
    # outage 0 in state 0: no loss there, so runs start only in state 1
    "zero_rate": Policy(eps=(0.0, 0.4, 0.2), rates=(0.0, 1.0, 1.0), powers=(0.0, *_P[1:])),
    # outage 1 in state 1: no slot is a sure success
    "zero_power": Policy(eps=(0.2, 1.0, 0.3), rates=(1.0,) * 3, powers=(_P[0], 0.0, _P[2])),
    # terminal state never succeeds: one run that crosses every chunk
    "stuck": Policy(eps=(0.05, 1.0), rates=(1.0, 1.0), powers=(fixed_rate((0.05, 0.5)).powers[0], 0.0)),
    "eps_0999": fixed_rate((0.5, 0.999, 0.3)),
    # more states than one byte can number
    "n300": fixed_rate((0.999,) * 301),
    # offsets of one outage between others, searched as one block
    "plateau": fixed_rate((0.3, 0.6, 0.6, 0.6, 0.9, 0.9, 0.2)),
}


@pytest.mark.parametrize("burn_in", [0, 1, 1000])
@pytest.mark.parametrize("name", sorted(WALK_POLICIES))
def test_walk_matches_per_slot_definition(monkeypatch, name, burn_in):
    pol = WALK_POLICIES[name]
    monkeypatch.setattr(simulator, "_CHUNK", 64)
    for slots in (1, 7, 1000):
        for seed in (0, 1):
            expected = reference_simulate(pol, CH, slots, seed, burn_in=burn_in)
            assert simulate(pol, CH, slots, seed, burn_in=burn_in) == expected, (slots, seed)


@pytest.mark.parametrize("name", ["n3", "n10", "zero_power", "eps_0999"])
def test_walk_matches_per_slot_definition_across_full_chunks(name):
    pol = WALK_POLICIES[name]
    slots = 2 * simulator._CHUNK + 12_345
    assert simulate(pol, CH, slots, 7) == reference_simulate(pol, CH, slots, 7, burn_in=1000)


def random_table(index):
    """A seeded random table: N 1-12, outages log-uniform in [1e-3, 0.999].

    Every other table repeats outages over stretches of states, every
    fourth sends nothing in one state (zero rate: never lost) and every
    fifth sends with no power in one (zero power: always lost).
    """
    rng = np.random.default_rng(1000 + index)
    n = int(rng.integers(1, 13))
    eps = np.exp(rng.uniform(math.log(1e-3), math.log(0.999), n + 1))
    if index % 2 == 0:
        for _ in range(2):
            lo = int(rng.integers(0, n + 1))
            eps[lo : int(rng.integers(lo, n + 2))] = eps[lo]
    pol = make_policy(eps, rng.uniform(0.2, 2.0, n + 1), CH)
    eps, rates, powers = list(pol.eps), list(pol.rates), list(pol.powers)
    if index % 4 == 0:
        j = int(rng.integers(0, n + 1))
        eps[j], rates[j], powers[j] = 0.0, 0.0, 0.0
    if index % 5 == 0:
        j = int(rng.integers(0, n + 1))
        eps[j], powers[j] = 1.0, 0.0
    return Policy(eps=tuple(eps), rates=tuple(rates), powers=tuple(powers))


@pytest.mark.parametrize("index", range(40))
def test_walk_matches_per_slot_definition_on_random_tables(monkeypatch, index):
    pol = random_table(index)
    monkeypatch.setattr(simulator, "_CHUNK", 64)
    shares = (0, simulator._PASS_SHARE, 1 << 20)
    for slots in (1, 63, 64, 65, 1000):
        for burn_in in (0, 1, 63, 1000):
            expected = reference_simulate(pol, CH, slots, index, burn_in=burn_in)
            # 0: open runs step one offset at a time; 1 << 20: dense passes,
            # then a search for the first success
            for share in shares:
                monkeypatch.setattr(simulator, "_PASS_SHARE", share)
                got = simulate(pol, CH, slots, index, burn_in=burn_in)
                assert got == expected, (slots, burn_in, share)


def test_histogram_keys_increase():
    hist = sim(fixed_rate(BURSTY), 50_000, seed=3).run_length_histogram
    assert list(hist) == sorted(hist)


def test_memory_flat_in_slots():
    pol = fixed_rate(LOWLOSS)

    def peak(slots):
        tracemalloc.start()
        try:
            sim(pol, slots, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4_000_000) <= 1.5 * peak(1_000_000)


def test_validate_bursty_table_scores_low_across_seeds():
    pol = fixed_rate(BURSTY)
    spec = spec_for(pol)
    worst = [validate(pol, spec, 200_000, seed).max_abs_z for seed in range(20)]
    assert max(worst) <= 4.0, worst


def fundamental_matrix_z(pol, rec, slots):
    """z_gamma, z_avg_power and z_occupancy with the fundamental-matrix variance.

    The asymptotic variance of the slot average of a state function f is
    pi.(f~ * (2 Z f~ - f~)), f~ = f - pi.f and Z = (I - A + 1 pi^T)^-1,
    solved densely from the transition matrix A.
    """
    pi = np.asarray(rec.analytic_pi)
    k = pi.size
    f = np.column_stack([np.arange(k) != 0, pol.powers, np.eye(k)])
    f = f - pi @ f
    z_f = np.linalg.solve(np.eye(k) - build_transition_matrix(pol.eps) + pi, f)
    se = np.sqrt(np.maximum(pi @ (f * (2.0 * z_f - f)), 0.0) / slots)
    rep = rec.report
    diff = [rep.empirical_gamma - rec.analytic_gamma, rep.avg_power - rec.analytic_avg_power]
    diff += [occ - p for occ, p in zip(rep.occupancy, rec.analytic_pi)]
    return np.array(diff) / se


def test_validate_standard_errors_match_the_fundamental_matrix():
    # validate sums the variance over regenerative cycles; the dense solve
    # over the transition matrix gives the same z-scores to rounding
    rng = np.random.default_rng(2000)
    cases = [(fixed_rate(BURSTY), 200_000)]
    for _ in range(100):
        n = int(rng.integers(1, 41))
        eps = np.exp(rng.uniform(math.log(1e-3), math.log(0.999), n + 1))
        cases.append((make_policy(eps, rng.uniform(0.2, 2.0, n + 1), CH), 5000))
    for seed, (pol, slots) in enumerate(cases):
        rec = validate(pol, spec_for(pol), slots, seed)
        got = np.array([rec.z_gamma, rec.z_avg_power, *rec.z_occupancy])
        want = fundamental_matrix_z(pol, rec, slots)
        scored = got != 0.0  # validate scores an exact match 0 without its error
        assert scored.sum() >= 2, seed
        np.testing.assert_allclose(got[scored], want[scored], rtol=1e-12, atol=0.0,
                                   err_msg=str(seed))
