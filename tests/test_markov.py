import random
from itertools import accumulate

import numpy as np
import pytest

from selfevolve.markov import (
    CORRECT,
    INCORRECT,
    AbsorbingChainParams,
    DegenerateChain,
    SingularChain,
    StateDistribution,
    TransitionParams,
    absorption_probabilities,
    convergence_rate,
    evolve_distribution,
    simulate_chain,
    simulate_verdep_chain,
    stationary_distribution,
)

from oracles import (
    absorbing_transition_matrix,
    absorption_by_solve,
    as_array,
    chain_correct_frequency,
    check_overconfidence_bound,
    evolve_by_matrix_power,
    transition_matrix,
    verdep_exit_frequencies,
)


# --- stationary distribution -------------------------------------------------

def test_stationary_basic():
    pi = stationary_distribution(TransitionParams(p_ic=0.3, p_ci=0.1))
    assert pi.pi_c == pytest.approx(0.75, abs=1e-12)
    assert pi.pi_i == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("x", [0.01, 0.3, 0.99])
def test_stationary_symmetric(x):
    pi = stationary_distribution(TransitionParams(p_ic=x, p_ci=x))
    assert pi.pi_c == pytest.approx(0.5, abs=1e-12)


def test_stationary_degradation_dominant():
    pi = stationary_distribution(TransitionParams(p_ic=0.05, p_ci=0.15))
    assert pi.pi_c == pytest.approx(0.25, abs=1e-12)


def test_stationary_degenerate():
    with pytest.raises(DegenerateChain):
        stationary_distribution(TransitionParams(p_ic=0.0, p_ci=0.0))


def test_stationary_fixed_point_identity():
    # pi . P = pi over a parameter sweep
    rng = random.Random(11)
    for _ in range(200):
        params = TransitionParams(p_ic=rng.uniform(1e-6, 1), p_ci=rng.uniform(1e-6, 1))
        pi = as_array(stationary_distribution(params))
        assert np.allclose(pi @ transition_matrix(params), pi, atol=1e-12)


# --- convergence rate --------------------------------------------------------

def test_convergence_rate_values():
    assert convergence_rate(TransitionParams(1.0, 0.0)) == 0.0
    assert convergence_rate(TransitionParams(0.0, 0.0)) == 1.0
    assert convergence_rate(TransitionParams(0.05, 0.02)) == pytest.approx(0.93)


def test_convergence_rate_is_second_eigenvalue():
    rng = random.Random(5)
    for _ in range(50):
        params = TransitionParams(p_ic=rng.random(), p_ci=rng.random())
        eigs = sorted(abs(np.linalg.eigvals(transition_matrix(params))), reverse=True)
        assert convergence_rate(params) == pytest.approx(eigs[1], abs=1e-12)


# --- distribution evolution --------------------------------------------------

def test_evolve_identity_at_zero():
    initial = StateDistribution(0.2, 0.8)
    out = evolve_distribution(TransitionParams(0.4, 0.2), initial, 0)
    assert (out.pi_c, out.pi_i) == (0.2, 0.8)


def test_evolve_one_step():
    out = evolve_distribution(TransitionParams(0.3, 0.1), StateDistribution(0.0, 1.0), 1)
    assert out.pi_c == pytest.approx(0.3, abs=1e-12)
    assert out.pi_i == pytest.approx(0.7, abs=1e-12)


def test_evolve_approaches_stationary():
    params = TransitionParams(0.3, 0.1)
    pi = stationary_distribution(params)
    initial = StateDistribution(0.0, 1.0)
    rate = convergence_rate(params)
    tv0 = abs(initial.pi_c - pi.pi_c)
    for n in (1, 5, 10, 30, 80):
        out = evolve_distribution(params, initial, n)
        tv = abs(out.pi_c - pi.pi_c)
        assert tv <= rate**n * tv0 + 1e-12


def test_mixing_bound_grid():
    # TV distance shrinks at exactly |lambda2|^n for the 2-state chain
    for p_ic, p_ci in [(0.3, 0.1), (0.05, 0.02), (0.7, 0.6), (0.9, 0.05)]:
        params = TransitionParams(p_ic, p_ci)
        pi = stationary_distribution(params)
        initial = StateDistribution(0.0, 1.0)
        rate = convergence_rate(params)
        tv0 = abs(initial.pi_c - pi.pi_c)
        for n in range(1, 40):
            tv = abs(evolve_distribution(params, initial, n).pi_c - pi.pi_c)
            assert tv <= rate**n * tv0 * (1 + 1e-9) + 1e-13


# --- closed forms against the numpy references -------------------------------

@pytest.mark.parametrize("p_ic,p_ci", [
    (0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0),
    (0.3, 0.1), (0.05, 0.02), (0.7, 0.6), (0.9, 0.05), (0.0, 0.4), (0.999, 0.999),
])
@pytest.mark.parametrize("n", [0, 1, 40, 10_000])
def test_evolve_matches_matrix_power(p_ic, p_ci, n):
    params = TransitionParams(p_ic, p_ci)
    for c0 in (0.0, 0.2, 0.5, 0.9, 1.0):
        start = StateDistribution(c0, 1.0 - c0)
        got = evolve_distribution(params, start, n)
        want = evolve_by_matrix_power(params, start, n)
        assert abs(got.pi_c - want.pi_c) <= 1e-12
        assert abs(got.pi_i - want.pi_i) <= 1e-12


def test_absorption_matches_linear_solve():
    # the solve's rounding error grows like machine epsilon / det(I - Q), so
    # the tolerance scales with it; it is 1e-13 for a well-conditioned chain
    rng = random.Random(41)
    for _ in range(1000):
        acp = AbsorbingChainParams(
            alpha=rng.uniform(0.05, 1), beta=rng.uniform(0.05, 1),
            y_c0=rng.random(), y_i0=rng.random(), accept_limit=rng.randint(1, 10))
        q = absorbing_transition_matrix(acp)[:2, :2]
        tol = 1e-13 / np.linalg.det(np.eye(2) - q)
        for start in ("S1", "S2"):
            got = absorption_probabilities(acp, start)
            want = absorption_by_solve(acp, start)
            assert abs(got.p_correct_exit - want.p_correct_exit) <= tol
            assert abs(got.p_incorrect_exit - want.p_incorrect_exit) <= tol


# --- trajectory simulation ---------------------------------------------------

def test_simulate_chain_absorbing_by_construction():
    states = simulate_chain(TransitionParams(0.0, 0.0), INCORRECT, 50, seed=3)
    assert states == [INCORRECT] * 51


def test_simulate_chain_deterministic():
    params = TransitionParams(0.3, 0.1)
    a = simulate_chain(params, INCORRECT, 200, seed=42)
    b = simulate_chain(params, INCORRECT, 200, seed=42)
    assert a == b


def test_simulate_chain_length_and_start():
    states = simulate_chain(TransitionParams(0.5, 0.5), CORRECT, 0, seed=1)
    assert states == [CORRECT]


def test_monte_carlo_matches_stationary():
    # pooled frequency of Correct at step 100 vs the closed form
    params = TransitionParams(0.3, 0.1)
    freq = chain_correct_frequency(params, INCORRECT, 100, 100_000, seed=9)
    assert freq == pytest.approx(0.75, abs=0.01)


def test_monte_carlo_matches_evolved_distribution():
    # empirical frequency within 3 standard errors of initial . P^n
    params = TransitionParams(0.2, 0.3)
    n, chains = 7, 100_000
    expected = evolve_distribution(params, StateDistribution(0.0, 1.0), n).pi_c
    freq = chain_correct_frequency(params, INCORRECT, n, chains, seed=21)
    se = (expected * (1 - expected) / chains) ** 0.5
    assert abs(freq - expected) <= 3 * se


# --- absorbing chain ---------------------------------------------------------

def test_absorbing_matrix_certain_pass_from_correct():
    acp = AbsorbingChainParams(alpha=0.3, beta=1.0, y_c0=0.4, y_i0=0.6)
    m = absorbing_transition_matrix(acp)
    assert list(m[0]) == [0.0, 0.0, 1.0, 0.0]


def test_absorbing_matrix_never_accepts_from_incorrect():
    acp = AbsorbingChainParams(alpha=0.0, beta=0.7, y_c0=0.4, y_i0=0.6)
    m = absorbing_transition_matrix(acp)
    assert m[1, 0] == pytest.approx(0.6)
    assert m[1, 1] == pytest.approx(0.4)
    assert m[1, 3] == 0.0


def test_absorbing_matrix_row_stochastic_random():
    rng = random.Random(17)
    for _ in range(100):
        acp = AbsorbingChainParams(
            alpha=rng.random(), beta=rng.random(),
            y_c0=rng.random(), y_i0=rng.random(),
            accept_limit=rng.randint(1, 10))
        m = absorbing_transition_matrix(acp)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)


def test_absorbing_matrix_rejects_reject_limit():
    acp = AbsorbingChainParams(alpha=0.5, beta=0.5, y_c0=0.5, y_i0=0.5,
                               reject_limit=10)
    with pytest.raises(ValueError, match="without a reject limit"):
        absorbing_transition_matrix(acp)


def test_absorption_symmetric_worked_value():
    # hand evaluation: alpha=beta=0.5, y=0.5, accept after 5 -> 31/64 from S2
    acp = AbsorbingChainParams(alpha=0.5, beta=0.5, y_c0=0.5, y_i0=0.5)
    exact = absorption_probabilities(acp, "S2")
    assert exact.p_correct_exit == 31 / 64
    solved = absorption_by_solve(acp, "S2")
    assert solved.p_correct_exit == pytest.approx(31 / 64, abs=1e-12)


def test_absorption_certain_acceptance():
    acp = AbsorbingChainParams(alpha=0.0, beta=1.0, y_c0=0.5, y_i0=0.5)
    result = absorption_probabilities(acp, "S1")
    assert result.p_correct_exit == pytest.approx(1.0, abs=1e-12)


def test_absorption_split_sums_to_one():
    rng = random.Random(23)
    for _ in range(200):
        acp = AbsorbingChainParams(
            alpha=rng.uniform(0.05, 1), beta=rng.uniform(0.05, 1),
            y_c0=rng.random(), y_i0=rng.random())
        for start in ("S1", "S2"):
            r = absorption_by_solve(acp, start)
            assert r.p_correct_exit + r.p_incorrect_exit == pytest.approx(1.0, abs=1e-9)
            c = absorption_probabilities(acp, start)
            assert c.p_correct_exit == pytest.approx(r.p_correct_exit, abs=1e-10)


def test_absorption_singular():
    acp = AbsorbingChainParams(alpha=0.0, beta=0.0, y_c0=0.5, y_i0=0.5)
    with pytest.raises(SingularChain):
        absorption_probabilities(acp, "S2")


# --- over-confidence bound ---------------------------------------------------

def test_overconfidence_bound_holds():
    acp = AbsorbingChainParams(alpha=0.95, beta=0.6, y_c0=0.5, y_i0=0.1)
    holds, p = check_overconfidence_bound(acp)
    assert holds
    assert p <= 0.5


def test_overconfidence_condition_false():
    acp = AbsorbingChainParams(alpha=0.2, beta=0.6, y_c0=0.5, y_i0=0.9)
    holds, _ = check_overconfidence_bound(acp)
    assert not holds


def test_overconfidence_randomized():
    rng = random.Random(31)
    checked = 0
    while checked < 10_000:
        acp = AbsorbingChainParams(
            alpha=rng.uniform(0.05, 1), beta=rng.uniform(0.05, 1),
            y_c0=rng.random(), y_i0=rng.random())
        if acp.alpha**acp.accept_limit < acp.y_i0:
            continue
        holds, p = check_overconfidence_bound(acp)
        assert holds and p <= 0.5 + 1e-12
        checked += 1


# --- verification-dependent simulator ---------------------------------------

def test_verdep_certain_acceptance_from_correct():
    acp = AbsorbingChainParams(alpha=0.0, beta=1.0, y_c0=0.5, y_i0=0.5)
    exit_kind, correct, verdicts = simulate_verdep_chain(acp, seed=1, max_iterations=100,
                                                         initial_state=CORRECT)
    assert exit_kind == "Accepted"
    assert correct
    assert verdicts == [1] * acp.accept_limit


def test_verdep_certain_rejection():
    acp = AbsorbingChainParams(alpha=0.0, beta=0.0, y_c0=0.0, y_i0=0.0,
                               reject_limit=10)
    exit_kind, correct, verdicts = simulate_verdep_chain(acp, seed=1, max_iterations=100)
    assert exit_kind == "Rejected"
    assert not correct
    assert verdicts == [0] * 10


def test_verdep_deterministic():
    acp = AbsorbingChainParams(alpha=0.3, beta=0.7, y_c0=0.5, y_i0=0.2,
                               reject_limit=10)
    a = simulate_verdep_chain(acp, seed=77, max_iterations=500)
    b = simulate_verdep_chain(acp, seed=77, max_iterations=500)
    assert a == b


def streaks(verdicts, verdict):
    """Consecutive verdicts equal to verdict ending at each step; any other
    verdict resets the count."""
    return list(accumulate(verdicts, lambda n, v: n + 1 if v == verdict else 0, initial=0))[1:]


def test_verdep_streak_reset_semantics():
    # no prefix may contain a full accept/reject streak without exiting there
    acp = AbsorbingChainParams(alpha=0.5, beta=0.5, y_c0=0.3, y_i0=0.3,
                               reject_limit=4, accept_limit=3)
    for seed in range(50):
        exit_kind, _, verdicts = simulate_verdep_chain(acp, seed=seed, max_iterations=200)
        pass_streaks, fail_streaks = streaks(verdicts, 1), streaks(verdicts, 0)
        for i, (p, f) in enumerate(zip(pass_streaks, fail_streaks)):
            last = i == len(verdicts) - 1
            if p >= acp.accept_limit:
                assert last and exit_kind == "Accepted"
            if f >= acp.reject_limit:
                assert last and exit_kind == "Rejected"
        # counters reset each other
        for p, f in zip(pass_streaks, fail_streaks):
            assert p == 0 or f == 0


def test_verdep_ensemble_matches_closed_form():
    acp = AbsorbingChainParams(alpha=0.5, beta=0.5, y_c0=0.5, y_i0=0.5)
    p_correct, p_incorrect = verdep_exit_frequencies(acp, "S2", 200_000, seed=13)
    assert p_correct == pytest.approx(31 / 64, abs=0.005)
    assert p_correct + p_incorrect == 1.0


def test_verdep_step_level_matches_super_step():
    # the step-level simulator and the collapsed 4-state ensemble agree
    acp = AbsorbingChainParams(alpha=0.4, beta=0.8, y_c0=0.6, y_i0=0.25)
    n = 20_000
    accepted_correct = 0
    for i in range(n):
        exit_kind, correct, _ = simulate_verdep_chain(
            acp, seed=1000 + i, max_iterations=5000, initial_state=INCORRECT)
        assert exit_kind == "Accepted"
        accepted_correct += int(correct)
    closed = absorption_probabilities(acp, "S2").p_correct_exit
    se = (closed * (1 - closed) / n) ** 0.5
    assert abs(accepted_correct / n - closed) <= 4 * se


# --- parameter validation ----------------------------------------------------

def test_invalid_probabilities_rejected():
    with pytest.raises(ValueError):
        TransitionParams(p_ic=1.2, p_ci=0.1)
    with pytest.raises(ValueError):
        StateDistribution(0.6, 0.6)
    with pytest.raises(ValueError):
        AbsorbingChainParams(alpha=0.5, beta=0.5, y_c0=0.5, y_i0=0.5, accept_limit=0)
    with pytest.raises(ValueError):
        AbsorbingChainParams(alpha=0.5, beta=0.5, y_c0=0.5, y_i0=0.5, reject_limit=0)


@pytest.mark.parametrize("call,message", [
    (lambda: evolve_distribution(TransitionParams(0.3, 0.1), StateDistribution(1.0, 0.0), -1),
     "n must be >= 0"),
    (lambda: simulate_chain(TransitionParams(0.3, 0.1), "X", 5, 0), "initial_state must be"),
    (lambda: simulate_chain(TransitionParams(0.3, 0.1), CORRECT, -1, 0), "n_steps must be"),
    (lambda: absorption_probabilities(AbsorbingChainParams(0.3, 0.8, 0.6, 0.6), "S3"),
     "start must be"),
    (lambda: simulate_verdep_chain(AbsorbingChainParams(0.3, 0.8, 0.6, 0.6), 0, 0),
     "max_iterations must be >= 1"),
], ids=["evolve_steps", "chain_start", "chain_steps", "absorb_start", "verdep_budget"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("limits", [
    dict(accept_limit=2.5), dict(accept_limit=True), dict(reject_limit=2.5),
    dict(reject_limit="3")], ids=["accept_float", "accept_bool", "reject_float",
                                  "reject_string"])
def test_chain_limits_must_be_integers(limits):
    # a fractional accept_limit would make absorption_probabilities use beta**2.5
    with pytest.raises(ValueError, match="must be an integer"):
        AbsorbingChainParams(alpha=0.5, beta=0.5, y_c0=0.5, y_i0=0.5, **limits)
