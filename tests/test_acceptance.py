"""End-to-end acceptance gate.

Each test checks one headline guarantee of the package against an independent
oracle (closed form vs Monte Carlo, engine vs chain theory, resumed vs
uninterrupted run) and prints a single PASS/FAIL line. Tolerances are pinned
here, not tuned to the implementation.
"""

import math
import random
import shutil
import time

import numpy as np
import pytest

from selfevolve.aggregate import metric_rows
from selfevolve.answers import AnswerKey, extract_answer
from selfevolve.backend import (
    BackendConfig,
    HttpBackend,
    MockBackend,
    MockBackendProvider,
    MockSpec,
)
from selfevolve.engine import (
    ACCEPTED_EXIT,
    DSER,
    REJECTED_EXIT,
    VERDEP,
    ControllerConfig,
    Problem,
    PromptSet,
    resume_experiment,
    run_experiment,
    run_trial,
    trial_seed,
)
from selfevolve.markov import (
    AbsorbingChainParams,
    StateDistribution,
    TransitionParams,
    absorption_probabilities,
    convergence_rate,
    evolve_distribution,
    stationary_distribution,
)
from selfevolve.reports import write_run_reports
from selfevolve.store import RunStore, run_dir

from fixtures import CASE_BLOCKS
from oracles import chain_correct_frequency, verdep_exit_frequencies
from stub_server import StubChatServer, completion

PROMPTS = PromptSet()


def report(capsys, label: str, passed: bool, detail: str = "") -> None:
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"acceptance: {status} {label}{suffix}")
    assert passed, f"{label}: {detail}"


# 1. stationary law of the two-state solve/refine chain vs Monte Carlo
def test_stationary_law_monte_carlo(capsys):
    t0 = time.perf_counter()
    grid = [(p_ic, p_ci)
            for p_ic in (0.1, 0.3, 0.5, 0.7)
            for p_ci in (0.15, 0.35, 0.55, 0.75, 0.95)]
    assert len(grid) == 20
    worst = 0.0
    for i, (p_ic, p_ci) in enumerate(grid):
        params = TransitionParams(p_ic=p_ic, p_ci=p_ci)
        pi_c = stationary_distribution(params).pi_c
        freq = chain_correct_frequency(params, "I", n_steps=200,
                                       n_chains=100_000, seed=900 + i)
        worst = max(worst, abs(freq - pi_c))
    elapsed = time.perf_counter() - t0
    report(capsys, "stationary split matches simulation on a 20-point grid",
           worst <= 0.01 and elapsed < 30.0,
           f"max |freq - pi_c| = {worst:.4f}, {elapsed:.1f}s")


# 2. geometric mixing rate read off the distance-to-stationarity decay
def test_mixing_rate_decay(capsys):
    ok = True
    details = []
    for p_ic, p_ci in ((0.3, 0.1), (0.05, 0.02)):
        params = TransitionParams(p_ic=p_ic, p_ci=p_ci)
        pi = stationary_distribution(params)
        start = StateDistribution(0.0, 1.0)
        steps = list(range(1, 41))
        tv = [abs(evolve_distribution(params, start, n).pi_c - pi.pi_c)
              for n in steps]
        slope = np.polyfit(steps, np.log(tv), 1)[0]
        expected = math.log(convergence_rate(params))
        rel = abs(slope - expected) / abs(expected)
        ok = ok and rel <= 0.02
        details.append(f"({p_ic},{p_ci}): rel err {rel:.2e}")
    # forced improvement mixes in exactly one step
    one = evolve_distribution(TransitionParams(p_ic=1.0, p_ci=0.0),
                              StateDistribution(0.0, 1.0), 1)
    ok = ok and one.pi_c == 1.0
    report(capsys, "distance to stationarity decays at the second eigenvalue rate",
           ok, "; ".join(details))


# 3. absorbing-chain exit split: closed form vs 10^6-sample simulation
def test_absorption_split_vs_simulation(capsys):
    rng = random.Random(2024)
    worst = 0.0
    checked = 0
    while checked < 100:
        acp = AbsorbingChainParams(
            alpha=rng.uniform(0.6, 0.95), beta=rng.uniform(0.6, 0.95),
            y_c0=rng.uniform(0.05, 0.95), y_i0=rng.uniform(0.05, 0.95))
        start = rng.choice(["S1", "S2"])
        exact = absorption_probabilities(acp, start)
        sim_c, sim_i = verdep_exit_frequencies(acp, start, n_samples=1_000_000,
                                               seed=rng.randrange(2**31))
        worst = max(worst, abs(sim_c - exact.p_correct_exit),
                    abs(sim_i - exact.p_incorrect_exit))
        checked += 1
    symmetric = absorption_probabilities(
        AbsorbingChainParams(alpha=0.5, beta=0.5, y_c0=0.5, y_i0=0.5), "S2")
    exact_value = symmetric.p_correct_exit == 31 / 64
    report(capsys, "absorption probabilities match simulation over 100 random chains",
           worst <= 0.005 and exact_value,
           f"max deviation {worst:.5f}, symmetric case exact: {exact_value}")


# 4. over-confident verification caps the correct-exit probability at 1/2
def test_overconfident_verifier_bound(capsys):
    rng = random.Random(7)
    draws = []
    for _ in range(10_000):
        alpha = rng.uniform(0.5, 0.999)
        a = alpha**5
        draws.append(AbsorbingChainParams(
            alpha=alpha, beta=rng.uniform(0.05, 0.95),
            y_c0=rng.uniform(0.05, 0.95), y_i0=rng.uniform(0.0, a) * 0.999))
    violations = sum(
        1 for acp in draws
        if absorption_probabilities(acp, "S2").p_correct_exit > 0.5 + 1e-12)
    # Monte Carlo spot check on a subsample: 4 standard errors of headroom
    n_mc = 20_000
    mc_violations = 0
    for acp in draws[:150]:
        sim_c, _ = verdep_exit_frequencies(acp, "S2", n_samples=n_mc, seed=77)
        if sim_c > 0.5 + 4 * math.sqrt(0.25 / n_mc):
            mc_violations += 1
    report(capsys, "over-confident verification never favors the correct exit",
           violations == 0 and mc_violations == 0,
           f"{violations} closed-form / {mc_violations} simulated violations")


def make_spec(p_ic, p_ci, *, alpha=0.1, beta=0.9, initial=0.0, space=100):
    return MockSpec(ground_truth=AnswerKey("60"),
                    initial_correct_probability=initial,
                    transition=TransitionParams(p_ic=p_ic, p_ci=p_ci),
                    alpha=alpha, beta=beta, wrong_answer_space=space)


def run_mock_trials(spec, config, k, run_seed, question="compute the value"):
    trials = []
    for t in range(k):
        trials.append(run_trial(config, MockBackend(spec), question, PROMPTS,
                                seed=trial_seed(run_seed, "p0", t),
                                problem_id="p0", trial_index=t))
    return trials


# 5. fixed-horizon refinement lifts accuracy from 0 to the stationary level
def test_fixed_horizon_convergence(capsys):
    t0 = time.perf_counter()
    truth = AnswerKey("60")
    spec = make_spec(0.3, 0.1)
    config = ControllerConfig(kind=DSER, max_iterations=40)
    trials = run_mock_trials(spec, config, k=64, run_seed=20240)
    rows = metric_rows(trials, truth)
    avg_start = rows[0]["avg_at_k"]
    avg_final = rows[40]["avg_at_k"]
    cons_final = rows[40]["cons_at_k"]
    # quick convergence: most of the lift happens in the first ten iterations
    avg_mid = rows[10]["avg_at_k"]
    elapsed = time.perf_counter() - t0
    ok = (avg_start == 0.0 and abs(avg_final - 0.75) <= 0.05
          and cons_final == 1 and avg_mid >= 0.6 and elapsed < 60.0)
    report(capsys, "64-trial fixed-horizon run converges to the stationary split",
           ok, f"avg 0 -> {avg_mid:.3f} @10 -> {avg_final:.3f} @40, "
               f"cons={cons_final}, {elapsed:.1f}s")


# 6. majority vote rescues a minority-correct regime with scattered errors
def test_consistency_rescues_low_accuracy(capsys):
    truth = AnswerKey("60")
    spec = make_spec(0.2, 0.3, space=100)
    config = ControllerConfig(kind=DSER, max_iterations=15)
    successes = 0
    accuracies = []
    for exp in range(100):
        trials = run_mock_trials(spec, config, k=64, run_seed=31_000 + exp)
        final = metric_rows(trials, truth)[15]
        successes += final["cons_windowed"]
        accuracies.append(final["avg_at_k"])
    mean_acc = sum(accuracies) / len(accuracies)
    report(capsys, "windowed majority vote stays correct despite minority accuracy",
           successes >= 95 and mean_acc < 0.55,
           f"{successes}/100 votes correct at mean accuracy {mean_acc:.2f}")


# 7. verification-gated exits misfire when the verifier rubber-stamps
def test_verification_dependent_pathology(capsys):
    truth = AnswerKey("60")
    spec = make_spec(0.05, 0.05, alpha=0.9, beta=0.9)
    vd_config = ControllerConfig(kind=VERDEP, max_iterations=30)
    vd_trials = run_mock_trials(spec, vd_config, k=64, run_seed=555)
    early_exits = sum(
        1 for t in vd_trials
        if t.status in (ACCEPTED_EXIT, REJECTED_EXIT) and len(t.records) <= 30)
    false_accepts = sum(1 for t in vd_trials
                        if t.status == ACCEPTED_EXIT
                        and t.records[-1].answer != truth.canonical)
    # every trial that exits keeps its last answer, so the last row holds
    # the accuracy at the budget
    vd_avg = metric_rows(vd_trials, truth)[-1]["avg_at_k"]

    dser_config = ControllerConfig(kind=DSER, max_iterations=30)
    dser_trials = run_mock_trials(spec, dser_config, k=64, run_seed=555)
    dser_avg = metric_rows(dser_trials, truth)[30]["avg_at_k"]
    ok = early_exits >= 0.8 * 64 and dser_avg > vd_avg
    report(capsys, "rubber-stamp verification triggers premature exits that "
                   "fixed-horizon refinement avoids",
           ok, f"{early_exits}/64 early exits ({false_accepts} false accepts), "
               f"final avg {vd_avg:.3f} vs {dser_avg:.3f}")


# 8. answer extraction on the recorded solve/verify/refine transcripts
def test_transcript_answer_extraction(capsys):
    expected = [AnswerKey("62"), AnswerKey("0"), AnswerKey("60")]
    ok = all([extract_answer(text) for text in block] == expected
             for block in CASE_BLOCKS)
    report(capsys, "recorded transcripts extract 62/0/60 with markup stripped", ok)


def report_bytes(out_dir) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


# 9. killing a run anywhere and resuming reproduces the reports byte-for-byte
@pytest.mark.parametrize("config, spec", [
    (ControllerConfig(kind=DSER, max_iterations=10), make_spec(0.3, 0.1)),
    (ControllerConfig(kind=VERDEP, max_iterations=10, accept_limit=3, reject_limit=3),
     make_spec(0.3, 0.1, alpha=0.3, beta=0.8, initial=0.3)),
], ids=["dser", "verdep"])
def test_crash_resume_byte_identical(capsys, tmp_path, config, spec):
    problems = [Problem("p0", "compute the value", AnswerKey("60"))]
    store = RunStore(tmp_path / "base")
    run_id = run_experiment(problems, 4, config, MockBackendProvider(spec),
                            PROMPTS, 77, store, parallelism=2,
                            store_sync="flush")
    write_run_reports(store, run_id, tmp_path / "base_reports")
    baseline = report_bytes(tmp_path / "base_reports")
    log_bytes = run_dir(store.root, run_id).joinpath("events.log").read_bytes()

    rng = random.Random(99)
    identical = 0
    for i in range(10):
        root = tmp_path / f"cut{i}"
        shutil.copytree(store.root, root)
        log_path = run_dir(root, run_id) / "events.log"
        log_path.write_bytes(log_bytes[:rng.randrange(len(log_bytes))])
        cut_store = RunStore(root)
        resume_experiment(cut_store, run_id, MockBackendProvider(spec),
                          store_sync="flush")
        write_run_reports(cut_store, run_id, tmp_path / f"reports{i}")
        identical += int(report_bytes(tmp_path / f"reports{i}") == baseline)
    report(capsys, f"{config.kind} resume after 10 random crash points reproduces "
                   "reports exactly", identical == 10, f"{identical}/10 byte-identical")


# 10. HTTP round trip concatenates context segments in the documented order
def test_http_refinement_context_order(capsys):
    question = "compute the value of x"
    solve_text = "<think>try 62</think>\nI get \\boxed{62}"
    verify_text = "<think>check</think>\nThe sum is off. \\boxed{0}"
    refine_text = "<think>redo</think>\nCorrected: \\boxed{60}"
    with StubChatServer([completion(solve_text), completion(verify_text),
                         completion(refine_text)]) as server:
        backend = HttpBackend(BackendConfig(endpoint=server.endpoint,
                                            model="stub", timeout_s=10.0))
        config = ControllerConfig(kind=DSER, max_iterations=1)
        state = run_trial(config, backend, question, PROMPTS, seed=3)
    s = "I get \\boxed{62}"
    v = "The sum is off. \\boxed{0}"
    sent = [r["messages"][0]["content"] for r in server.requests]
    expected = [
        "\n\n".join([PROMPTS.solve_prompt, question]),
        "\n\n".join([question, s, PROMPTS.verify_prompt]),
        "\n\n".join([question, s, PROMPTS.verify_prompt, v, PROMPTS.refine_prompt]),
    ]
    ok = (sent == expected and len(state.records) == 2
          and state.records[1].answer == "60")
    report(capsys, "live-backend refinement sends [question; solution; "
                   "verify prompt; report; refine prompt] verbatim", ok)
