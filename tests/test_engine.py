import copy
import hashlib
import io
import json
import shutil
import threading
import time
import tracemalloc

import pytest

from selfevolve.answers import AnswerKey, extract_answer
from selfevolve.backend import (
    BackendUnavailable,
    MockBackend,
    MockBackendProvider,
    MockSpec,
    ReasoningRequest,
    ReasoningResponse,
    ResponseTruncated,
)
from selfevolve.aggregate import metric_rows
from selfevolve.engine import (
    ACCEPTED_EXIT,
    COMPLETED,
    DSER,
    REJECTED_EXIT,
    RUNNING,
    VERDEP,
    ControllerConfig,
    IterationRecord,
    Problem,
    PromptSet,
    TrialState,
    _kept,
    rebuild_trial_states,
    resume_experiment,
    run_experiment,
    run_inputs,
    run_trial,
    trial_seed,
)
from selfevolve.reports import write_run_reports
from selfevolve.store import CorruptLog, RunLog, RunStore, _read_events, run_dir

from fixtures import CASE_BLOCKS, PENTAGON_PROBLEM
from oracles import assert_reads_like_stdlib

PROMPTS = PromptSet()


def make_spec(**overrides) -> MockSpec:
    from selfevolve.markov import TransitionParams

    base = dict(
        ground_truth=AnswerKey("60"),
        initial_correct_probability=0.0,
        transition=TransitionParams(p_ic=0.3, p_ci=0.1),
        alpha=0.2,
        beta=0.8,
        wrong_answer_space=100,
    )
    base.update(overrides)
    return MockSpec(**base)


class ScriptedBackend:
    """Replays fixed response texts in call order. A response's prompt tokens
    are its context's segment count, so a record's tokens tell its calls apart
    (solve 2, verify 3, refine 5); each completion is one token."""

    def __init__(self, texts):
        self.texts = list(texts)
        self.requests = []

    def reasoning_call(self, request):
        self.requests.append(request)
        if not self.texts:
            raise BackendUnavailable("script exhausted")
        text = self.texts.pop(0)
        from selfevolve.backend import strip_thinking

        summary, thinking = strip_thinking(text)
        return ReasoningResponse(full_text=text, summary_text=summary, thinking=thinking,
                                 prompt_tokens=len(request.context), completion_tokens=1)


class RecordingBackend:
    """Passes calls through, keeping every request's context."""

    def __init__(self, inner):
        self.inner = inner
        self.contexts = []

    def reasoning_call(self, request):
        self.contexts.append(request.context)
        return self.inner.reasoning_call(request)


# --- the trial step: solve, verify, refine ------------------------------------

SOLVE_ONLY = ControllerConfig(kind=DSER, max_iterations=0)
ONE_STEP = ControllerConfig(kind=DSER, max_iterations=1)


def fixture_trial():
    """One DSER step over the first recorded transcript."""
    backend = ScriptedBackend(CASE_BLOCKS[0])
    return run_trial(ONE_STEP, backend, PENTAGON_PROBLEM, PROMPTS, seed=1).records


def logged_trial(tmp_path, config, backend, question="q"):
    """run_trial with a log: its records and, per record, the (phase,
    prompt_tokens, completion_tokens) of each call entry its commit holds."""
    log = RunLog(tmp_path / "events.log", sync="flush")
    records = run_trial(config, backend, question, PROMPTS, seed=1, log=log).records
    log.close()
    commits = [json.loads(line)["payload"] for line in
               (tmp_path / "events.log").read_text().splitlines()[:-1]]
    return records, [[(c["phase"], c.get("prompt_tokens"), c.get("completion_tokens"))
                      for c in commit["calls"]] for commit in commits]


def test_solve_with_certain_mock():
    backend = MockBackend(make_spec(initial_correct_probability=1.0))
    [record] = run_trial(SOLVE_ONLY, backend, "what is 59+1?", PROMPTS, seed=1).records
    assert record.index == 0
    assert record.answer == "60"
    assert record.failure is None


def test_solve_unparseable_after_reask(tmp_path):
    # the last attempt's text is kept, with no answer; each attempt's usage
    # is in its call entry
    backend = ScriptedBackend(["no box here"] * 3)
    config = ControllerConfig(kind=DSER, max_iterations=0, max_parse_retries=2)
    [record], [calls] = logged_trial(tmp_path, config, backend)
    assert record.solution_text == "no box here"
    assert record.answer is None
    assert record.failure == "unparseable"
    assert calls == [("solve", 2, 1)] * 3
    assert len(backend.requests) == 3


def test_solve_extracts_from_recorded_transcript():
    assert fixture_trial()[0].answer == "62"


def test_verify_parses_verdicts():
    for text, expected in (("report\n\\boxed{0}", 0), ("report\n\\boxed{1}", 1)):
        backend = ScriptedBackend(["s \\boxed{5}", text, "r \\boxed{6}"])
        _, record = run_trial(ONE_STEP, backend, "q", PROMPTS, seed=1).records
        assert record.verdict == expected
        assert record.verification_text == text
        assert record.failure is None


def test_verify_fixture_verdict():
    assert fixture_trial()[1].verdict == 0


def test_verify_missing_verdict_flagged():
    # re-asked, then recorded without a verdict; it counts as a fail
    backend = ScriptedBackend(["s \\boxed{5}"] + ["no verdict"] * 3 + ["r \\boxed{6}"])
    config = ControllerConfig(kind=VERDEP, max_iterations=5, reject_limit=1,
                              max_parse_retries=2)
    state = run_trial(config, backend, "q", PROMPTS, seed=1)
    _, record = state.records
    assert record.verdict is None
    assert record.verification_text == "no verdict"
    assert record.answer == "6"
    assert state.status == REJECTED_EXIT
    assert len(backend.requests) == 5


def test_refine_forced_improvement():
    from selfevolve.markov import TransitionParams

    backend = MockBackend(make_spec(transition=TransitionParams(1.0, 0.0)))
    solved, record = run_trial(ONE_STEP, backend, "q", PROMPTS, seed=1).records
    assert solved.answer != "60"
    assert record.index == 1
    assert record.answer == "60"


def test_refine_carry_forward_on_backend_error(tmp_path):
    # the script runs out at the refine call, whose entry holds no usage
    backend = ScriptedBackend(["sol \\boxed{42}", "report \\boxed{0}"])
    (solved, record), (_, calls) = logged_trial(tmp_path, ONE_STEP, backend)
    assert record.index == 1
    assert record.solution_text == solved.solution_text
    assert record.answer == "42"
    assert record.failure == "backend_error"
    assert (record.verification_text, record.verdict) == ("report \\boxed{0}", 0)
    assert calls == [("verify", 3, 1), ("refine", None, None)]


def test_refine_unparseable_carries_forward_without_its_tokens(tmp_path):
    # the record keeps the prior solution; the refine attempts' usage stays
    # in their call entries
    backend = ScriptedBackend(["sol \\boxed{42}", "report \\boxed{0}"] + ["no box"] * 3)
    config = ControllerConfig(kind=DSER, max_iterations=1, max_parse_retries=2)
    (solved, record), (_, calls) = logged_trial(tmp_path, config, backend)
    assert (record.solution_text, record.answer) == (solved.solution_text, "42")
    assert record.failure == "unparseable"
    assert calls == [("verify", 3, 1)] + [("refine", 5, 1)] * 3
    assert len(backend.requests) == 5


def test_refine_fixture_answer(tmp_path):
    (_, record), (_, calls) = logged_trial(tmp_path, ONE_STEP, ScriptedBackend(CASE_BLOCKS[0]),
                                           PENTAGON_PROBLEM)
    assert record.answer == "60"
    assert record.solution_text.endswith("\\boxed{\\textcolor{green}{60}}")
    # a refined record's commit holds its verify's and its refine's usage
    assert calls == [("verify", 3, 1), ("refine", 5, 1)]


# --- DSER trial --------------------------------------------------------------

def test_dser_degenerate_horizon():
    backend = MockBackend(make_spec(initial_correct_probability=1.0))
    config = ControllerConfig(kind=DSER, max_iterations=0)
    state = run_trial(config, backend, "q", PROMPTS, seed=1)
    assert state.status == COMPLETED
    assert len(state.records) == 1


def test_dser_horizon_exactness():
    backend = MockBackend(make_spec())
    config = ControllerConfig(kind=DSER, max_iterations=7)
    state = run_trial(config, backend, "q", PROMPTS, seed=3)
    assert state.status == COMPLETED
    assert len(state.records) == 8
    assert [r.index for r in state.records] == list(range(8))


def test_dser_markov_context_property():
    # every call context is (q, s, p_v) or (q, s, p_v, v, p_r): no history
    backend = RecordingBackend(MockBackend(make_spec()))
    config = ControllerConfig(kind=DSER, max_iterations=5)
    state = run_trial(config, backend, "the question", PROMPTS, seed=9)
    solutions = [r.solution_text for r in state.records]
    contexts = backend.contexts
    assert len(contexts) == 1 + 2 * config.max_iterations
    for ctx in contexts:
        if len(ctx) == 2:
            assert ctx == (PROMPTS.solve_prompt, "the question")
        elif len(ctx) == 3:
            assert ctx[0] == "the question"
            assert ctx[1] in solutions
            assert ctx[2] == PROMPTS.verify_prompt
        else:
            assert len(ctx) == 5
            assert ctx[0] == "the question"
            assert ctx[1] in solutions
            assert ctx[2] == PROMPTS.verify_prompt
            assert ctx[4] == PROMPTS.refine_prompt
            # no earlier solution text appears inside the context segments
            idx = solutions.index(ctx[1])
            for earlier in solutions[:idx]:
                assert earlier not in (ctx[3],)


def test_dser_deterministic_across_runs():
    config = ControllerConfig(kind=DSER, max_iterations=10)
    spec = make_spec()
    a = run_trial(config, MockBackend(spec), "q", PROMPTS, seed=5)
    b = run_trial(config, MockBackend(spec), "q", PROMPTS, seed=5)
    assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]


def test_dser_stationary_frequency():
    # final-iteration correctness over many trials approaches p_ic/(p_ic+p_ci)
    config = ControllerConfig(kind=DSER, max_iterations=40)
    spec = make_spec()  # p_ic=0.3, p_ci=0.1 -> pi_c = 0.75
    hits = 0
    k = 64
    for t in range(k):
        state = run_trial(config, MockBackend(spec), "q", PROMPTS,
                          seed=trial_seed(1234, "p0", t))
        hits += int(state.records[-1].answer == "60")
    assert hits / k == pytest.approx(0.75, abs=0.16)


# --- verification-dependent trial -------------------------------------------

def test_verdep_forced_accept():
    backend = MockBackend(make_spec(beta=1.0, initial_correct_probability=1.0))
    config = ControllerConfig(kind=VERDEP, max_iterations=50)
    state = run_trial(config, backend, "q", PROMPTS, seed=2)
    assert state.status == ACCEPTED_EXIT
    assert len(state.records) == 6  # solve + 5 passing verifications
    assert all(r.verdict == 1 for r in state.records[1:])


def test_verdep_forced_reject():
    from selfevolve.markov import TransitionParams

    backend = MockBackend(make_spec(alpha=0.0, initial_correct_probability=0.0,
                                    transition=TransitionParams(0.0, 0.0)))
    config = ControllerConfig(kind=VERDEP, max_iterations=50)
    state = run_trial(config, backend, "q", PROMPTS, seed=2)
    assert state.status == REJECTED_EXIT
    assert len(state.records) == 11  # solve + 10 failing verifications


def test_verdep_budget_completion():
    backend = MockBackend(make_spec(alpha=0.5, beta=0.5))
    config = ControllerConfig(kind=VERDEP, max_iterations=3)
    state = run_trial(config, backend, "q", PROMPTS, seed=4)
    assert state.status in (COMPLETED, ACCEPTED_EXIT, REJECTED_EXIT)
    assert len(state.records) <= 4


def test_verdep_pass_keeps_solution():
    backend = MockBackend(make_spec(beta=1.0, initial_correct_probability=1.0))
    config = ControllerConfig(kind=VERDEP, max_iterations=50)
    state = run_trial(config, backend, "q", PROMPTS, seed=6)
    texts = {r.solution_text for r in state.records}
    assert len(texts) == 1  # never refined


def test_verdep_streak_bookkeeping():
    backend = MockBackend(make_spec(alpha=0.5, beta=0.5))
    config = ControllerConfig(kind=VERDEP, max_iterations=200)
    for seed in range(20):
        state = run_trial(config, backend, "q", PROMPTS, seed=seed)
        verdicts = [1 if r.verdict == 1 else 0 for r in state.records[1:]]
        passes = fails = 0
        for i, v in enumerate(verdicts):
            if v:
                passes, fails = passes + 1, 0
            else:
                passes, fails = 0, fails + 1
            last = i == len(verdicts) - 1
            if passes >= config.accept_limit:
                assert last and state.status == ACCEPTED_EXIT
            if fails >= config.reject_limit:
                assert last and state.status == REJECTED_EXIT


@pytest.mark.parametrize("config, spec, prefix, n_records, status, calls", [
    # the accept streak completes on the last budgeted iteration
    (ControllerConfig(kind=VERDEP, max_iterations=5, accept_limit=5),
     dict(beta=1.0, initial_correct_probability=1.0), 0, 6, ACCEPTED_EXIT, 6),
    # streak limits never end a DSER trial
    (ControllerConfig(kind=DSER, max_iterations=6, accept_limit=1, reject_limit=1),
     {}, 0, 7, COMPLETED, 13),
    # a resumed trial already at its reject limit exits without a call
    (ControllerConfig(kind=VERDEP, max_iterations=10, reject_limit=2),
     {}, 3, 3, REJECTED_EXIT, 0),
], ids=["verdep_accept_on_last_iteration", "dser_ignores_limits",
        "verdep_resumed_at_reject_limit"])
def test_trial_loop_edges(config, spec, prefix, n_records, status, calls):
    backend = MockBackend(make_spec(**spec))
    state = None
    if prefix:
        records = [IterationRecord(index=i, solution_text="\\boxed{7}", answer="7",
                                   verdict=0 if i else None) for i in range(prefix)]
        state = TrialState("p0", 0, config.kind, 1, records=records)
    state = run_trial(config, backend, "q", PROMPTS, seed=1, state=state)
    assert len(state.records) == n_records
    assert state.status == status
    assert backend.call_count == calls


# --- experiment driver -------------------------------------------------------

def run_mock_experiment(tmp_path, *, k=4, horizon=5, run_seed=7, kind=DSER,
                        parallelism=4, spec=None, problems=None,
                        store_sync="always", backend=None, accept_limit=5, reject_limit=10):
    store = RunStore(tmp_path / "runs")
    spec = spec or make_spec()
    backend = backend or MockBackendProvider(spec)
    if problems is None:
        problems = [Problem("p0", "what is the answer?", AnswerKey("60"))]
    config = ControllerConfig(kind=kind, max_iterations=horizon, accept_limit=accept_limit,
                              reject_limit=reject_limit)
    run_id = run_experiment(problems, k, config, backend, PROMPTS, run_seed,
                            store, parallelism=parallelism, store_sync=store_sync)
    return store, run_id


def test_run_experiment_completes_all_trials(tmp_path):
    store, run_id = run_mock_experiment(tmp_path, k=4, horizon=3)
    manifest, states = store.load_run(run_id)
    assert len(states) == 4
    for st in states.values():
        assert st.status == COMPLETED
        assert len(st.records) == 4


def test_run_experiment_deterministic_across_parallelism(tmp_path):
    # a plain backend's trials interleave on 8 threads; the provider's run in
    # order on one
    store1, id1 = run_mock_experiment(tmp_path / "a", parallelism=1)
    plain = MockBackendProvider(make_spec()).for_problem(
        Problem("p0", "what is the answer?", AnswerKey("60")))
    store2, id2 = run_mock_experiment(tmp_path / "b", parallelism=8, backend=plain)
    _, states1 = store1.load_run(id1)
    _, states2 = store2.load_run(id2)
    for tid in states1:
        assert ([r.to_dict() for r in states1[tid].records] ==
                [r.to_dict() for r in states2[tid].records])


def test_provider_trials_run_on_calling_thread(tmp_path):
    threads = set()

    class ThreadRecorder:
        def __init__(self, inner):
            self.inner = inner

        def for_problem(self, problem):
            return ThreadRecorder(self.inner.for_problem(problem))

        def reasoning_call(self, request):
            threads.add(threading.get_ident())
            return self.inner.reasoning_call(request)

    run_mock_experiment(tmp_path, parallelism=4,
                        backend=ThreadRecorder(MockBackendProvider(make_spec())))
    assert threads == {threading.get_ident()}


def test_plain_backend_fills_parallelism_slots(tmp_path):
    class Blocking:
        """Sleeps in every call, counting the calls in flight."""

        def __init__(self):
            self.inner = MockBackend(make_spec())
            self.lock = threading.Lock()
            self.in_flight = self.peak = 0

        def reasoning_call(self, request):
            with self.lock:
                self.in_flight += 1
                self.peak = max(self.peak, self.in_flight)
            time.sleep(0.02)
            with self.lock:
                self.in_flight -= 1
            return self.inner.reasoning_call(request)

    backend = Blocking()
    run_mock_experiment(tmp_path, k=6, horizon=2, parallelism=3, backend=backend)
    assert backend.peak == 3


def test_worker_error_stops_a_threaded_run(tmp_path):
    # after a worker's error, no trial and no call starts, and the run raises
    # that error once the calls in flight finish; a resume finishes the run
    class FailsOnFifth:
        """Sleeps 5 ms in each call, and raises in the 5th."""

        def __init__(self):
            self.inner = MockBackend(make_spec())
            self.lock = threading.Lock()
            self.calls = 0
            self.at_error = None  # the calls started when the 5th raised

        def reasoning_call(self, request):
            with self.lock:
                self.calls += 1
                n = self.calls
            time.sleep(0.005)
            if n == 5:
                with self.lock:
                    self.at_error = self.calls
                raise RuntimeError("the fifth call fails")
            return self.inner.reasoning_call(request)

    store = RunStore(tmp_path / "runs")
    problems = [Problem("p0", "what is the answer?", AnswerKey("60"))]
    config = ControllerConfig(kind=DSER, max_iterations=10)
    backend = FailsOnFifth()
    with pytest.raises(RuntimeError, match="the fifth call fails"):
        run_experiment(problems, 6, config, backend, PROMPTS, 7, store, parallelism=2,
                       run_id="r", store_sync="flush")
    assert backend.calls - backend.at_error <= 2  # parallelism
    resume_experiment(store, "r", MockBackend(make_spec()))
    whole = RunStore(tmp_path / "whole")
    run_experiment(problems, 6, config, MockBackend(make_spec()), PROMPTS, 7, whole,
                   parallelism=2, run_id="r", store_sync="flush")
    assert committed_view(store.load_run("r")[1]) == committed_view(whole.load_run("r")[1])


def test_rebuild_matches_live_states(tmp_path):
    store, run_id = run_mock_experiment(tmp_path, k=3, horizon=4)
    manifest, states = store.load_run(run_id)
    spec = make_spec()
    config = ControllerConfig(kind=DSER, max_iterations=4)
    for (pid, t), st in states.items():
        fresh = run_trial(config, MockBackend(spec), "what is the answer?",
                          PROMPTS, seed=trial_seed(7, pid, t))
        assert [r.to_dict() for r in fresh.records] == [r.to_dict() for r in st.records]


def test_carry_forward_invariant():
    # failures only ever repeat the previous answer
    class FlakyBackend:
        def __init__(self, inner):
            self.inner = inner
            self.calls = 0

        def reasoning_call(self, request):
            self.calls += 1
            if self.calls % 7 == 0:
                raise BackendUnavailable("injected failure")
            return self.inner.reasoning_call(request)

    backend = FlakyBackend(MockBackend(make_spec()))
    config = ControllerConfig(kind=DSER, max_iterations=20)
    state = run_trial(config, backend, "q", PROMPTS, seed=11)
    assert len(state.records) == 21
    for prev, cur in zip(state.records, state.records[1:]):
        if cur.failure in ("backend_error", "truncated"):
            assert cur.answer == prev.answer
            assert cur.solution_text == prev.solution_text


# --- event log and resume ----------------------------------------------------

VERDEP_SPEC = dict(alpha=0.3, beta=0.8, initial_correct_probability=0.3)


def committed_view(states):
    return {tid: ([r.to_dict() for r in st.records], st.status)
            for tid, st in states.items()}


def cut_copy(store, run_id, dest, log_bytes, manifest=None):
    """A copy of the run whose log holds log_bytes."""
    shutil.copytree(run_dir(store.root, run_id), run_dir(dest, run_id))
    if manifest is not None:
        run_dir(dest, run_id).joinpath("manifest.json").write_text(json.dumps(manifest))
    run_dir(dest, run_id).joinpath("events.log").write_bytes(log_bytes)
    return RunStore(dest)


def test_one_append_per_committed_iteration(tmp_path):
    store, run_id = run_mock_experiment(tmp_path, k=2, horizon=3)
    events = store.events(run_id)
    assert [e["kind"] for e in events if e["trial"] == ("p0", 0)] == (
        ["IterationCommitted"] * 4 + ["TrialExited"])
    commit = next(e for e in events if e["kind"] == "IterationCommitted"
                  and e["payload"]["record"]["index"] == 1)
    assert set(commit["payload"]) == {"record", "calls"}
    assert [c["phase"] for c in commit["payload"]["calls"]] == ["verify", "refine"]
    assert all(c["thinking"].startswith(("checking", "working")) and
               c["completion_tokens"] > 0 for c in commit["payload"]["calls"])


def test_failed_call_kept_in_commit(tmp_path):
    class FailingSolve:
        def reasoning_call(self, request):
            raise BackendUnavailable("down")

    store = RunStore(tmp_path / "runs")
    run_id = run_experiment([Problem("p0", "q", AnswerKey("60"))], 1,
                            ControllerConfig(kind=DSER, max_iterations=0),
                            FailingSolve(), PROMPTS, 1, store, parallelism=1)
    commit = store.events(run_id)[0]
    assert commit["payload"]["record"]["failure"] == "backend_error"
    assert commit["payload"]["calls"] == [
        {"phase": "solve", "failure": "backend_error", "error": "down"}]


def test_verdep_resume_after_exit_record(tmp_path):
    # a log that ends between a trial's exit record and its TrialExited must
    # resume to the uninterrupted run, without calling past the exit
    store, run_id = run_mock_experiment(tmp_path / "base", k=8, horizon=30, kind=VERDEP,
                                        parallelism=1, store_sync="flush",
                                        spec=make_spec(**VERDEP_SPEC))
    want = committed_view(store.load_run(run_id)[1])
    lines = run_dir(store.root, run_id).joinpath("events.log").read_bytes().splitlines(
        keepends=True)
    early = [i for i, line in enumerate(lines)
             if json.loads(line)["kind"] == "TrialExited"
             and json.loads(line)["payload"]["status"] != COMPLETED]
    assert early
    for i in early:
        copy = cut_copy(store, run_id, tmp_path / f"cut{i}", b"".join(lines[:i]))
        resume_experiment(copy, run_id, MockBackendProvider(make_spec(**VERDEP_SPEC)),
                          store_sync="flush")
        assert committed_view(copy.load_run(run_id)[1]) == want


TWO_PROBLEMS = [Problem("p0", "what is 59+1?", AnswerKey("60")),
                Problem("p1", "what is 7*8+4?", AnswerKey("60"))]


@pytest.mark.parametrize("source", ["provider", "shared", "faults"])
@pytest.mark.parametrize("limits", [dict(kind=DSER, horizon=6),
                                    dict(kind=VERDEP, horizon=8, accept_limit=2,
                                         reject_limit=2)],
                         ids=[DSER, VERDEP])
def test_resume_from_every_crash_point(tmp_path, limits, source):
    # a crash can cut the log at any byte: at every line boundary and inside
    # every line, the resumed run commits what the uninterrupted one did. The
    # shared backend answers both problems (both are 60) from 2 threads; the
    # faulty one fails calls, so that records kept after a failure are cut too
    spec = make_spec(**VERDEP_SPEC)
    provider = MockBackendProvider(spec)
    backend = {"provider": provider, "shared": provider.for_problem(TWO_PROBLEMS[0]),
               "faults": SeedFaults(provider)}[source]
    store, run_id = run_mock_experiment(tmp_path / "base", k=3, parallelism=2, spec=spec,
                                        problems=TWO_PROBLEMS, store_sync="flush",
                                        backend=backend, **limits)
    want = committed_view(store.load_run(run_id)[1])
    lines = run_dir(store.root, run_id).joinpath("events.log").read_bytes().splitlines(
        keepends=True)
    cuts = [b"".join(lines[:i]) for i in range(len(lines) + 1)]
    cuts += [b"".join(lines[:i]) + line[:len(line) // 2] for i, line in enumerate(lines)]
    copy = cut_copy(store, run_id, tmp_path / "cut", b"")
    log = run_dir(copy.root, run_id) / "events.log"
    for n, cut in enumerate(cuts):
        log.write_bytes(cut)
        resume_experiment(copy, run_id, backend)
        assert committed_view(copy.load_run(run_id)[1]) == want, f"cut {n} at byte {len(cut)}"


def test_resume_uses_run_prompts(tmp_path):
    # without a config snapshot the manifest still records the run's prompts,
    # so a resumed run sends the contexts the uninterrupted one sent
    prompts = PromptSet(verify_prompt="Check it. End with \\boxed{1} or \\boxed{0}.")
    spec = make_spec()
    store = RunStore(tmp_path / "runs")
    run_id = run_experiment([Problem("p0", "what is the answer?", AnswerKey("60"))], 3,
                            ControllerConfig(kind=DSER, max_iterations=4),
                            MockBackendProvider(spec), prompts, 3, store, parallelism=1)
    want = committed_view(store.load_run(run_id)[1])
    full = run_dir(store.root, run_id).joinpath("events.log").read_bytes()
    copy = cut_copy(store, run_id, tmp_path / "cut", full[:len(full) // 2])
    resume_experiment(copy, run_id, MockBackendProvider(spec))
    assert committed_view(copy.load_run(run_id)[1]) == want


class BulkyThinking:
    """Passes every verdict, with 32 KB of thinking per call: a commit's
    calls carry about what a real reasoner's do."""

    THINKING = "x" * 32_768

    def reasoning_call(self, request):
        return ReasoningResponse(full_text="", summary_text="\\boxed{1}",
                                 thinking=self.THINKING)


class ProbeStop(Exception):
    pass


def test_reads_hold_the_parsed_log_once(tmp_path):
    # 300 commits of ~64 KB each: a load holds the parsed log, not the bytes
    # and their split copy besides, and a resume drops it before its first call
    store = RunStore(tmp_path / "runs")
    run_id = run_experiment([Problem("p0", "q", AnswerKey("60"))], 3,
                            ControllerConfig(kind=DSER, max_iterations=99),
                            BulkyThinking(), PROMPTS, 1, store, parallelism=1,
                            store_sync="flush")
    full = run_dir(store.root, run_id).joinpath("events.log").read_bytes()
    size = len(full)
    assert size > 19_000_000
    copy = cut_copy(store, run_id, tmp_path / "cut", full[:size * 9 // 10])
    del full
    first_call = []

    class Probe:
        def reasoning_call(self, request):
            first_call.append(tracemalloc.get_traced_memory()[0])
            raise ProbeStop

    tracemalloc.start()
    try:
        store.load_run(run_id)
        load_peak = tracemalloc.get_traced_memory()[1]
        with pytest.raises(ProbeStop):
            resume_experiment(copy, run_id, Probe(), parallelism=1)
    finally:
        tracemalloc.stop()
    assert load_peak < 2 * size
    assert first_call[0] < size / 2


def old_manifest_copy(tmp_path, carry_forward):
    """A run cut in half whose manifest's controller section holds the
    carry_forward_on_failure key that older runs wrote, stamped as an older
    API run was: an empty config_hash and no inputs_hash; returns
    (store, run_id, uninterrupted committed view, spec)."""
    spec = make_spec(**VERDEP_SPEC)
    store, run_id = run_mock_experiment(tmp_path / "base", k=4, horizon=12, kind=VERDEP,
                                        parallelism=1, spec=spec)
    manifest, states = store.load_run(run_id)
    manifest["config"]["controller"]["carry_forward_on_failure"] = carry_forward
    manifest["config_hash"] = ""
    del manifest["inputs_hash"]
    full = run_dir(store.root, run_id).joinpath("events.log").read_bytes()
    copy = cut_copy(store, run_id, tmp_path / "cut", full[:len(full) // 2], manifest)
    return copy, run_id, committed_view(states), spec


def test_resume_old_manifest_with_carry_forward(tmp_path):
    copy, run_id, want, spec = old_manifest_copy(tmp_path, True)
    resume_experiment(copy, run_id, MockBackendProvider(spec))
    assert committed_view(copy.load_run(run_id)[1]) == want


def test_resume_refuses_carry_forward_false(tmp_path):
    copy, run_id, _, spec = old_manifest_copy(tmp_path, False)
    log = run_dir(copy.root, run_id) / "events.log"
    before = log.read_bytes()
    with pytest.raises(ValueError, match="carry_forward_on_failure"):
        resume_experiment(copy, run_id, MockBackendProvider(spec))
    assert log.read_bytes() == before


def v1_log(events):
    """The schema-1 shape of a run's log: per call a CallSent and a
    CallReceived, a SolveStarted per trial, streak extras on VERDEP commits."""
    lines, streaks = [], {}
    for ev in events:
        if ev["kind"] == "TrialExited":
            lines.append({"seq": len(lines) + 1, "ts": 0.0, "trial": list(ev["trial"]),
                          "kind": ev["kind"], "payload": ev["payload"]})
        if ev["kind"] != "IterationCommitted":
            continue
        record = ev["payload"]["record"]
        passes, fails = streaks.get(ev["trial"], (0, 0))
        kinds = []
        if record["index"] == 0:
            kinds.append(("SolveStarted", {"seed": 1}))
            phases = ["solve"]
        else:
            passes, fails = (passes + 1, 0) if record["verdict"] == 1 else (0, fails + 1)
            phases = ["verify"] if record["verdict"] == 1 else ["verify", "refine"]
        for phase in phases:
            kinds.append(("CallSent", {"phase": phase, "seed": 2, "context": ["q"]}))
            kinds.append(("CallReceived", {"phase": phase, "full_text": "t",
                                           "summary_text": "t", "prompt_tokens": 1,
                                           "completion_tokens": 1}))
        payload = {"record": record}
        if record["index"] > 0:
            payload.update(pass_streak=passes, fail_streak=fails)
            streaks[ev["trial"]] = (passes, fails)
        kinds.append(("IterationCommitted", payload))
        for kind, body in kinds:
            lines.append({"seq": len(lines) + 1, "ts": 0.0, "trial": list(ev["trial"]),
                          "kind": kind, "payload": body})
    return [(line["kind"], (json.dumps(line) + "\n").encode()) for line in lines]


RECORD_FIELDS = ["index", "solution_text", "answer", "verification_text", "verdict", "failure"]


def v2_events(events):
    """A run's events as schema 2 wrote them: every record field,
    nulls too, a kept record's solution and answer written again, and the
    record's token totals, the usage of its last verify attempt plus that of
    the last solve or refine attempt when the record holds its solution."""
    out, priors = [], {}
    for ev in events:
        if ev["kind"] == "IterationCommitted":
            record = ev["payload"]["record"]
            last = {c["phase"]: c for c in ev["payload"]["calls"]}
            made = "refine" if record["index"] else "solve"
            counted = [last.get("verify")] + ([last.get(made)] if "solution_text" in record else [])
            tokens = {k: sum(c.get(k, 0) for c in counted if c)
                      for k in ("prompt_tokens", "completion_tokens")}
            record = {**dict.fromkeys(RECORD_FIELDS), **priors.get(ev["trial"], {}), **record,
                      **tokens}
            priors[ev["trial"]] = {k: record[k] for k in ("solution_text", "answer")}
            ev = dict(ev, payload=dict(ev["payload"], record=record))
        out.append(ev)
    return out


def log_line(ev) -> bytes:
    return (json.dumps({"seq": ev["seq"], "ts": ev["ts"],
                        "trial": ev["trial"] and list(ev["trial"]), "kind": ev["kind"],
                        "payload": ev["payload"]}, separators=(",", ":"))
            + "\n").encode()


def test_v1_and_v2_logs_resume_to_v3_run(tmp_path):
    # a run's log as schema 1 or 2 wrote it loads to the schema 4 run, and
    # schema 2 analyzes to the same report bytes; cut mid-record, each resumes
    # to the uninterrupted run, appending schema 4 lines after the older ones
    spec = make_spec(**VERDEP_SPEC)
    backend = SeedFaults(MockBackendProvider(spec))
    store, run_id = run_mock_experiment(tmp_path / "v3", k=4, horizon=30, kind=VERDEP,
                                        parallelism=1, store_sync="flush", spec=spec,
                                        backend=backend)
    manifest, states = store.load_run(run_id)
    events = v2_events(store.events(run_id))
    v2_lines = [(ev["kind"], log_line(ev)) for ev in events]
    v1_lines = v1_log(events)
    assert {kind for kind, _ in v1_lines} == {"SolveStarted", "CallSent", "CallReceived",
                                             "IterationCommitted", "TrialExited"}
    v2 = cut_copy(store, run_id, tmp_path / "v2_full", b"".join(line for _, line in v2_lines),
                  dict(manifest, schema_version=2))
    assert committed_view(v2.load_run(run_id)[1]) == committed_view(states)
    reports = [{path.name: path.read_bytes()
                for path in write_run_reports(source, run_id, tmp_path / f"reports{n}")}
               for n, source in enumerate((store, v2))]
    assert reports[0] == reports[1]
    for version, lines in ((1, v1_lines), (2, v2_lines)):
        # cut in the middle of a commit line halfway through the log
        i = next(i for i, (kind, _) in enumerate(lines)
                 if kind == "IterationCommitted" and i > len(lines) // 2)
        cut = b"".join(line for _, line in lines[:i]) + lines[i][1][:40]
        copy = cut_copy(store, run_id, tmp_path / f"v{version}", cut,
                        dict(manifest, schema_version=version))
        loaded = copy.load_run(run_id)[1]
        assert 0 < sum(len(st.records) for st in loaded.values()) < sum(
            len(st.records) for st in states.values())
        resume_experiment(copy, run_id, backend, store_sync="flush")
        assert committed_view(copy.load_run(run_id)[1]) == committed_view(states)
        totals = ["prompt_tokens" in e["payload"]["record"] for e in copy.events(run_id)
                  if e["kind"] == "IterationCommitted"]
        assert totals[0] and not totals[-1] and totals == sorted(totals, reverse=True)


class SeedFaults:
    """Fails the calls whose seed falls in fixed residue classes, with a
    backend error or a truncation, so the faults do not depend on call order."""

    def __init__(self, inner):
        self.inner = inner

    def for_problem(self, problem):
        return SeedFaults(self.inner.for_problem(problem))

    def reasoning_call(self, request):
        if request.request_seed % 11 == 0:
            raise BackendUnavailable("down")
        if request.request_seed % 13 == 0:
            raise ResponseTruncated("cut", partial_text="part")
        return self.inner.reasoning_call(request)


@pytest.mark.parametrize("kind", [DSER, VERDEP])
def test_commit_lines_leave_out_what_rebuild_restores(tmp_path, kind):
    # a line leaves out its solution exactly when the shared helper says the
    # record kept it, and never holds a null or a token total; the rebuild
    # restores the records run_trial returned
    spec = make_spec(**VERDEP_SPEC)
    store, run_id = run_mock_experiment(tmp_path, k=4, horizon=12, kind=kind, parallelism=1,
                                        spec=spec, problems=TWO_PROBLEMS, store_sync="flush",
                                        backend=SeedFaults(MockBackendProvider(spec)))
    reasons = set()
    for ev in store.events(run_id):
        if ev["kind"] == "IterationCommitted":
            record = ev["payload"]["record"]
            kept = _kept(kind, record)
            assert ("solution_text" in record, "answer" in record and kept) == (not kept, False)
            assert None not in record.values()
            assert not {"prompt_tokens", "completion_tokens"} & set(record)
            if kept:
                reasons.add("failure" if "failure" in record else "pass")
    assert reasons == ({"failure", "pass"} if kind == VERDEP else {"failure"})
    config = ControllerConfig(kind=kind, max_iterations=12)
    for (pid, t), st in store.load_run(run_id)[1].items():
        problem = next(p for p in TWO_PROBLEMS if p.problem_id == pid)
        live = run_trial(config, SeedFaults(MockBackendProvider(spec)).for_problem(problem),
                         problem.statement, PROMPTS, seed=trial_seed(7, pid, t))
        assert [r.to_dict() for r in st.records] == [r.to_dict() for r in live.records]


def test_verdep_log_bytes_per_iteration(tmp_path):
    # the benchmark's verdep_http run at seed 7, in process: its 2 problems x
    # K=16, mock numbers, budget 30, accept 5 and reject 10. 250 of its 431
    # records are kept; schema 2 wrote 583 B per committed iteration, and
    # leaving out kept solutions, token totals and nulls writes 456
    spec = make_spec(initial_correct_probability=0.3, alpha=0.3, beta=0.8,
                     wrong_answer_space=100)
    problems = [Problem(f"p{i}", f"Problem {i} of set 7: find the integer that the puzzle "
                        f"with code {code} encodes.", AnswerKey(answer))
                for i, (code, answer) in enumerate([(339_563, "2472"), (414_002, "792")])]
    store, run_id = run_mock_experiment(tmp_path, k=16, horizon=30, run_seed=7000, kind=VERDEP,
                                        parallelism=1, spec=spec, problems=problems,
                                        store_sync="flush", accept_limit=5, reject_limit=10)
    iterations = sum(len(st.records) for st in store.load_run(run_id)[1].values())
    v3 = run_dir(store.root, run_id).joinpath("events.log").stat().st_size / iterations
    v2 = sum(len(log_line(ev)) for ev in v2_events(store.events(run_id))) / iterations
    assert v3 < 500 < 560 < v2


def log_digest(path):
    """sha256 of an event log with each event's wall-clock ts removed."""
    lines = []
    for line in path.read_bytes().splitlines():
        event = json.loads(line)
        del event["ts"]
        lines.append(json.dumps(event, separators=(",", ":")))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# schema 4: the schema 2 logs, pinned since before run and resume shared one
# path, with the records' token totals, null fields and kept solutions left
# out (schema 3), then each call's attempt and the RunFinalized line
GOLDEN_LOGS = {
    DSER: "a017d1a4a2698deb167c58a5a49aef74847126dd807782ad2019ccda47433281",
    VERDEP: "bea9fd2b80f8c59f0649b969c63b529ba58409c441dbe5234e623d7c88cf2243",
}


# the schema 3 logs the golden runs wrote, which v3_lines rebuilds
GOLDEN_V3_LOGS = {
    DSER: "bd88a09bad6fd8d2d626b077d8284198ddccf8645152e305f2ec6208632d7694",
    VERDEP: "f30ab0dce974d32f1284f6becb3819864c3b05a5bd32b2aa5be7a9ac6d140420",
}


def golden_run(tmp_path, kind):
    """The run the golden logs pin: 2 problems x 3 trials on the mock, with
    faults at fixed seeds; returns (store, run_id, mock spec)."""
    spec = make_spec(**VERDEP_SPEC, wrong_answer_space=5)
    problems = [Problem("p0", "what is 59+1?", AnswerKey("60")),
                Problem("p1", "what is 7*8+4?", AnswerKey("60"))]
    config = ControllerConfig(kind=kind, max_iterations=6, accept_limit=2, reject_limit=3)
    store = RunStore(tmp_path / "runs")
    run_id = run_experiment(problems, 3, config, SeedFaults(MockBackendProvider(spec)),
                            PROMPTS, 5, store, parallelism=1, run_id="run",
                            store_sync="flush")
    return store, run_id, spec


@pytest.mark.parametrize("kind", [DSER, VERDEP])
def test_event_log_golden(tmp_path, kind):
    # every persisted byte but ts is pinned, for a fresh run and for the same
    # run resumed from half its log
    store, run_id, spec = golden_run(tmp_path, kind)
    full = run_dir(store.root, run_id).joinpath("events.log").read_bytes()
    copy = cut_copy(store, run_id, tmp_path / "cut", full[:len(full) // 2])
    resume_experiment(copy, run_id, SeedFaults(MockBackendProvider(spec)), store_sync="flush")
    fresh = log_digest(run_dir(store.root, run_id) / "events.log")
    resumed = log_digest(run_dir(copy.root, run_id) / "events.log")
    assert (fresh, resumed) == (GOLDEN_LOGS[kind], GOLDEN_LOGS[kind])
    for root in (store.root, copy.root):
        assert_reads_like_stdlib(run_dir(root, run_id) / "events.log")


def v3_lines(events) -> list[bytes]:
    """A schema-4 run's log lines as schema 3 wrote them: each call entry
    numbered by its attempt within its phase, and a RunFinalized line last."""
    lines = []
    for ev in events:
        if ev["kind"] == "IterationCommitted":
            calls, attempts = [], {}
            for c in ev["payload"]["calls"]:
                attempts[c["phase"]] = attempts.get(c["phase"], -1) + 1
                calls.append({"phase": c["phase"], "attempt": attempts[c["phase"]], **c})
            ev = dict(ev, payload=dict(ev["payload"], calls=calls))
        lines.append(log_line(ev))
    return lines + [log_line({"seq": len(events) + 1, "ts": 0.0, "trial": None,
                               "kind": "RunFinalized", "payload": {}})]


@pytest.mark.parametrize("kind", [DSER, VERDEP])
def test_v3_log_analyzes_and_resumes_as_before(tmp_path, kind):
    # the golden run's log as schema 3 wrote it gives the same reports, and a
    # resume leaves it byte for byte; cut mid-run, it resumes to the
    # uninterrupted run by appending the schema 4 lines, and its manifest
    # keeps schema_version 3
    store, run_id, spec = golden_run(tmp_path, kind)
    manifest, states = store.load_run(run_id)
    events = store.events(run_id)
    lines = v3_lines(events)
    v3_manifest = dict(manifest, schema_version=3)
    v3 = cut_copy(store, run_id, tmp_path / "v3", b"".join(lines), v3_manifest)
    log = run_dir(v3.root, run_id) / "events.log"
    assert log_digest(log) == GOLDEN_V3_LOGS[kind]
    reports = [{path.name: path.read_bytes()
                for path in write_run_reports(source, run_id, tmp_path / f"reports{n}")}
               for n, source in enumerate((store, v3))]
    assert reports[0] == reports[1]
    resume_experiment(v3, run_id, SeedFaults(MockBackendProvider(spec)), store_sync="flush")
    assert log.read_bytes() == b"".join(lines)

    i = len(events) // 2
    cut = cut_copy(store, run_id, tmp_path / "cut", b"".join(lines[:i]) + lines[i][:40],
                   v3_manifest)
    resume_experiment(cut, run_id, SeedFaults(MockBackendProvider(spec)), store_sync="flush")
    assert committed_view(cut.load_run(run_id)[1]) == committed_view(states)
    assert cut.manifest(run_id)["schema_version"] == 3
    untimed = [(ev["seq"], ev["trial"], ev["kind"], ev["payload"]) for ev in cut.events(run_id)]
    assert untimed == [(ev["seq"], ev["trial"], ev["kind"], ev["payload"])
                       for ev in v3.events(run_id)[:i] + events[i:]]


# one of each JSON type, and values a field of the log holds elsewhere; DELETE
# stands for leaving the member or item out
DELETE = object()
SWEEP_VALUES = (None, False, True, 0, 1, -1, 2**64, 0.5, "", "p0", "completed", [], [0],
                ["p0", 0], {}, DELETE)


def json_paths(value, path=()):
    """The path of every member and item below value, parents first."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from json_paths(item, path + (key,))


def read_back(inputs, log: bytes):
    """What a resume and analyze read from log, in memory: the trial states,
    their metric rows, and the trials a resume would run."""
    states = rebuild_trial_states(inputs, _read_events(io.BytesIO(log))[0])
    for pid, problem in inputs.problems.items():
        metric_rows([st for tid, st in sorted(states.items()) if tid[0] == pid],
                    problem.answer)
    return [st for st in states.values() if st.status == RUNNING]


@pytest.mark.parametrize("kind", [DSER, VERDEP])
def test_malformed_line_sweep(tmp_path, kind):
    # every JSON path of every line of a run whose calls fail at times, set
    # to each value or deleted, reads back or is a corrupt log: never another
    # error
    spec = make_spec(**VERDEP_SPEC)
    store, run_id = run_mock_experiment(tmp_path, k=2, horizon=3, kind=kind, parallelism=1,
                                        spec=spec, store_sync="flush", accept_limit=2,
                                        reject_limit=2,
                                        backend=SeedFaults(MockBackendProvider(spec)))
    inputs = run_inputs(store.manifest(run_id))
    lines = run_dir(store.root, run_id).joinpath("events.log").read_bytes().splitlines(True)
    assert any(b'"failure"' in line for line in lines)
    assert read_back(inputs, b"".join(lines)) == []
    cases = failures = 0
    for i, line in enumerate(lines):
        event = json.loads(line)
        for path in json_paths(event):
            for value in SWEEP_VALUES:
                edited = copy.deepcopy(event)
                parent = edited
                for key in path[:-1]:
                    parent = parent[key]
                if value is DELETE:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
                edited_line = json.dumps(edited, separators=(",", ":")).encode() + b"\n"
                cases += 1
                try:
                    read_back(inputs, b"".join(lines[:i]) + edited_line
                              + b"".join(lines[i + 1:]))
                except CorruptLog:
                    pass
                except Exception as e:  # noqa: BLE001 - any other error is the defect
                    failures += 1
                    print(f"line {i} {path} = {value!r}: {e!r}")
    assert cases > 1000
    assert failures == 0


# every kind some schema wrote: schema 4's two, schema 1's per-call kinds and
# the RunFinalized line, with no trial, that schemas 1-3 ended a run with
SCHEMA_KINDS = ("IterationCommitted", "TrialExited", "SolveStarted", "CallSent", "CallReceived",
                "RunFinalized")


@pytest.mark.parametrize("kind", [DSER, VERDEP])
def test_kind_no_schema_wrote_is_corrupt(tmp_path, kind):
    # a line whose kind is set to any other value, the last line's too, is a
    # corrupt log, and so is a line with no trial of any kind but RunFinalized
    spec = make_spec(**VERDEP_SPEC)
    store, run_id = run_mock_experiment(tmp_path, k=2, horizon=3, kind=kind, parallelism=1,
                                        spec=spec, store_sync="flush", accept_limit=2,
                                        reject_limit=2,
                                        backend=SeedFaults(MockBackendProvider(spec)))
    inputs = run_inputs(store.manifest(run_id))
    lines = run_dir(store.root, run_id).joinpath("events.log").read_bytes().splitlines(True)
    others = [value for value in SWEEP_VALUES if value is not DELETE]
    for i, line in enumerate(lines):
        event = json.loads(line)
        for value in others + ["RunFinalized"]:
            edited = json.dumps(dict(event, kind=value)).encode() + b"\n"
            with pytest.raises(CorruptLog, match=f"event seq {i + 1} does not build"):
                read_back(inputs, b"".join(lines[:i]) + edited + b"".join(lines[i + 1:]))
    last = {"seq": len(lines) + 1, "ts": 0.0, "trial": None, "payload": {}}
    for value in others + list(SCHEMA_KINDS[:-1]):
        with pytest.raises(CorruptLog, match="has no trial"):
            read_back(inputs, b"".join(lines) + json.dumps(dict(last, kind=value)).encode()
                      + b"\n")
    assert read_back(inputs, b"".join(lines) + json.dumps(dict(last, kind="RunFinalized"))
                     .encode() + b"\n") == []

