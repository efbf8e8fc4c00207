import hashlib
import json
import shutil

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
from selfevolve.engine import (
    ACCEPTED_EXIT,
    COMPLETED,
    DSER,
    REJECTED_EXIT,
    VERDEP,
    ControllerConfig,
    IterationRecord,
    Problem,
    PromptSet,
    TrialState,
    rebuild_trial_states,
    resume_experiment,
    run_experiment,
    run_trial,
    trial_seed,
)
from selfevolve.store import RunStore, run_dir

from fixtures import CASE_BLOCKS, PENTAGON_PROBLEM

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

        summary, malformed = strip_thinking(text)
        return ReasoningResponse(full_text=text, summary_text=summary,
                                 prompt_tokens=len(request.context), completion_tokens=1,
                                 malformed_thinking=malformed)


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


def test_solve_with_certain_mock():
    backend = MockBackend(make_spec(initial_correct_probability=1.0))
    [record] = run_trial(SOLVE_ONLY, backend, "what is 59+1?", PROMPTS, seed=1).records
    assert record.index == 0
    assert record.answer == "60"
    assert record.failure is None


def test_solve_unparseable_after_reask():
    # the last attempt's text is kept, with no answer
    backend = ScriptedBackend(["no box here"] * 3)
    config = ControllerConfig(kind=DSER, max_iterations=0, max_parse_retries=2)
    [record] = run_trial(config, backend, "q", PROMPTS, seed=1).records
    assert record.solution_text == "no box here"
    assert record.answer is None
    assert record.failure == "unparseable"
    assert (record.prompt_tokens, record.completion_tokens) == (2, 1)
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


def test_refine_carry_forward_on_backend_error():
    # the script runs out at the refine call
    backend = ScriptedBackend(["sol \\boxed{42}", "report \\boxed{0}"])
    solved, record = run_trial(ONE_STEP, backend, "q", PROMPTS, seed=1).records
    assert record.index == 1
    assert record.solution_text == solved.solution_text
    assert record.answer == "42"
    assert record.failure == "backend_error"
    assert (record.verification_text, record.verdict) == ("report \\boxed{0}", 0)
    assert (record.prompt_tokens, record.completion_tokens) == (3, 1)


def test_refine_unparseable_carries_forward_without_its_tokens():
    backend = ScriptedBackend(["sol \\boxed{42}", "report \\boxed{0}"] + ["no box"] * 3)
    config = ControllerConfig(kind=DSER, max_iterations=1, max_parse_retries=2)
    solved, record = run_trial(config, backend, "q", PROMPTS, seed=1).records
    assert (record.solution_text, record.answer) == (solved.solution_text, "42")
    assert record.failure == "unparseable"
    assert (record.prompt_tokens, record.completion_tokens) == (3, 1)
    assert len(backend.requests) == 5


def test_refine_fixture_answer():
    _, record = fixture_trial()
    assert record.answer == "60"
    assert record.solution_text.endswith("\\boxed{\\textcolor{green}{60}}")
    # a refined record counts its verify and refine tokens
    assert (record.prompt_tokens, record.completion_tokens) == (8, 2)


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
                        store_sync="always"):
    store = RunStore(tmp_path / "runs")
    spec = spec or make_spec()
    backend = MockBackendProvider(spec)
    if problems is None:
        problems = [Problem("p0", "what is the answer?", AnswerKey("60"))]
    config = ControllerConfig(kind=kind, max_iterations=horizon)
    run_id = run_experiment(problems, k, config, backend, PROMPTS, run_seed,
                            store, parallelism=parallelism,
                            config_snapshot={
                                "controller": {"kind": kind,
                                               "max_iterations": horizon},
                                "prompts": {},
                            },
                            store_sync=store_sync)
    return store, run_id


def test_run_experiment_completes_all_trials(tmp_path):
    store, run_id = run_mock_experiment(tmp_path, k=4, horizon=3)
    manifest, states = store.load_run(run_id)
    assert len(states) == 4
    for st in states.values():
        assert st.status == COMPLETED
        assert len(st.records) == 4


def test_run_experiment_deterministic_across_parallelism(tmp_path):
    store1, id1 = run_mock_experiment(tmp_path / "a", parallelism=1)
    store2, id2 = run_mock_experiment(tmp_path / "b", parallelism=8)
    _, states1 = store1.load_run(id1)
    _, states2 = store2.load_run(id2)
    for tid in states1:
        assert ([r.to_dict() for r in states1[tid].records] ==
                [r.to_dict() for r in states2[tid].records])


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
    assert [e.kind for e in events if e.trial_id == ("p0", 0)] == (
        ["IterationCommitted"] * 4 + ["TrialExited"])
    commit = next(e for e in events if e.kind == "IterationCommitted"
                  and e.payload["record"]["index"] == 1)
    assert set(commit.payload) == {"record", "calls"}
    assert [(c["phase"], c["attempt"]) for c in commit.payload["calls"]] == [
        ("verify", 0), ("refine", 0)]
    assert all(c["thinking"].startswith(("checking", "working")) and
               c["completion_tokens"] > 0 for c in commit.payload["calls"])


def test_failed_call_kept_in_commit(tmp_path):
    class FailingSolve:
        def reasoning_call(self, request):
            raise BackendUnavailable("down")

    store = RunStore(tmp_path / "runs")
    run_id = run_experiment([Problem("p0", "q", AnswerKey("60"))], 1,
                            ControllerConfig(kind=DSER, max_iterations=0),
                            FailingSolve(), PROMPTS, 1, store, parallelism=1)
    commit = store.events(run_id)[0]
    assert commit.payload["record"]["failure"] == "backend_error"
    assert commit.payload["calls"] == [
        {"phase": "solve", "attempt": 0, "failure": "backend_error", "error": "down"}]


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


def old_manifest_copy(tmp_path, carry_forward):
    """A run cut in half whose manifest's controller section holds the
    carry_forward_on_failure key that older runs wrote; returns
    (store, run_id, uninterrupted committed view, spec)."""
    spec = make_spec(**VERDEP_SPEC)
    store, run_id = run_mock_experiment(tmp_path / "base", k=4, horizon=12, kind=VERDEP,
                                        parallelism=1, spec=spec)
    manifest, states = store.load_run(run_id)
    manifest["config"]["controller"]["carry_forward_on_failure"] = carry_forward
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
        if ev.kind == "TrialExited":
            lines.append({"seq": len(lines) + 1, "ts": 0.0, "trial": list(ev.trial_id),
                          "kind": ev.kind, "payload": ev.payload})
        if ev.kind != "IterationCommitted":
            continue
        record = ev.payload["record"]
        passes, fails = streaks.get(ev.trial_id, (0, 0))
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
            streaks[ev.trial_id] = (passes, fails)
        kinds.append(("IterationCommitted", payload))
        for kind, body in kinds:
            lines.append({"seq": len(lines) + 1, "ts": 0.0, "trial": list(ev.trial_id),
                          "kind": kind, "payload": body})
    return [(line["kind"], (json.dumps(line) + "\n").encode()) for line in lines]


def test_v1_log_resumes_to_v2_run(tmp_path):
    spec = make_spec(**VERDEP_SPEC)
    store, run_id = run_mock_experiment(tmp_path / "v2", k=4, horizon=30, kind=VERDEP,
                                        parallelism=1, store_sync="flush", spec=spec)
    manifest, states = store.load_run(run_id)
    lines = v1_log(store.events(run_id))
    assert {kind for kind, _ in lines} == {"SolveStarted", "CallSent", "CallReceived",
                                          "IterationCommitted", "TrialExited"}
    # cut in the middle of a commit line halfway through the log
    i = next(i for i, (kind, _) in enumerate(lines)
             if kind == "IterationCommitted" and i > len(lines) // 2)
    cut = b"".join(line for _, line in lines[:i]) + lines[i][1][:40]
    v1 = cut_copy(store, run_id, tmp_path / "v1", cut, dict(manifest, schema_version=1))
    loaded = v1.load_run(run_id)[1]
    assert 0 < sum(len(st.records) for st in loaded.values()) < sum(
        len(st.records) for st in states.values())
    resume_experiment(v1, run_id, MockBackendProvider(spec), store_sync="flush")
    assert committed_view(v1.load_run(run_id)[1]) == committed_view(states)


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


def log_digest(path):
    """sha256 of an event log with each event's wall-clock ts removed."""
    lines = []
    for line in path.read_bytes().splitlines():
        event = json.loads(line)
        del event["ts"]
        lines.append(json.dumps(event, separators=(",", ":")))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# computed with the engine as it was before run and resume shared one path
GOLDEN_LOGS = {
    DSER: "067cb561366e5ee1f44c834f196089e1479a32f973c04f4f3b87977d1cf139f6",
    VERDEP: "d8d95f1e7892e18f6672b4adda47df1fd4f52837382b19484ab3bd1b28bb4b2a",
}


@pytest.mark.parametrize("kind", [DSER, VERDEP])
def test_event_log_golden(tmp_path, kind):
    # every persisted byte but ts is pinned, for a fresh run and for the same
    # run resumed from half its log
    spec = make_spec(**VERDEP_SPEC, wrong_answer_space=5)
    problems = [Problem("p0", "what is 59+1?", AnswerKey("60")),
                Problem("p1", "what is 7*8+4?", AnswerKey("60"))]
    config = ControllerConfig(kind=kind, max_iterations=6, accept_limit=2, reject_limit=3)
    store = RunStore(tmp_path / "runs")
    run_id = run_experiment(problems, 3, config, SeedFaults(MockBackendProvider(spec)),
                            PROMPTS, 5, store, parallelism=1, run_id="run",
                            store_sync="flush")
    full = run_dir(store.root, run_id).joinpath("events.log").read_bytes()
    copy = cut_copy(store, run_id, tmp_path / "cut", full[:len(full) // 2])
    resume_experiment(copy, run_id, SeedFaults(MockBackendProvider(spec)), store_sync="flush")
    fresh = log_digest(run_dir(store.root, run_id) / "events.log")
    resumed = log_digest(run_dir(copy.root, run_id) / "events.log")
    assert (fresh, resumed) == (GOLDEN_LOGS[kind], GOLDEN_LOGS[kind])
