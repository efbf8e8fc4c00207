"""The trial loop, shared by the fixed-horizon controller (DSER) and the
verification-dependent accept/reject one (VERDEP), the one builder of a
run's inputs from its manifest, and the driver that starts and resumes runs.

Every reasoning call context is exactly (q, s, p_v, v, p_r) or a prefix of
it; earlier solutions never re-enter the context, so the process is Markov in
the current solution. Calls within a trial are strictly sequential; trials
are independent, so the driver overlaps them on threads when their calls wait
(HTTP) and steps them in order when they do not (the mock). All randomness
flows through per-call seeds derived from (run_seed, problem, trial,
iteration, phase, attempt), which makes resumed execution reproduce the
uninterrupted run exactly.

The event log is schema 4: each committed iteration appends one
IterationCommitted {record, calls}, the sole authority for the record's
existence, so a crash mid-iteration loses only that iteration, and a trial
that stops appends TrialExited {status}. Call entries are in call order, so a
re-ask's attempt is its position within its phase; a run is finished when its
trials are. Schemas 1-3 still load and resume: a rebuild skips schema 1's
per-call kinds and the RunFinalized line, the one kind with no trial, that
ended a run; a line of any other kind is a corrupt log.
"""

from __future__ import annotations

import dataclasses
import os
import time
from contextlib import closing, nullcontext
from dataclasses import dataclass, field

from .answers import AnswerKey, extract_answer, normalize_answer
from .backend import (BackendConfig, BackendError, HttpBackend, MockBackendProvider, MockSpec,
                      ReasoningRequest, ResponseTruncated, mock_spec_from_dict)
from .markov import _check_int
from .seeds import derive_seed
from .store import CorruptLog, RunLog, RunStore, sync_mode

DEFAULT_SOLVE_PROMPT = (
    "Solve the following problem step by step. "
    "Output your final answer strictly in the format: \\boxed{}."
)

DEFAULT_VERIFY_PROMPT = (
    "Verify the given solution step by step to check correctness. "
    "Provide a short verification report, containing the key points "
    "of the solution and any errors found. Finally, put your "
    "judgement strictly in the format: \\boxed{1} if correct, "
    "or \\boxed{0} if incorrect."
)

DEFAULT_REFINE_PROMPT = (
    "Given your previous solution and verification report, reconsider "
    "the problem carefully and provide a corrected solution. "
    "Output your final answer strictly in the format: \\boxed{}."
)

DSER = "dser"
VERDEP = "verdep"

RUNNING = "running"
COMPLETED = "completed"
ACCEPTED_EXIT = "accepted_exit"
REJECTED_EXIT = "rejected_exit"

FAILURE_TRUNCATED = "truncated"
FAILURE_UNPARSEABLE = "unparseable"
FAILURE_BACKEND = "backend_error"
_FAILURES = (None, FAILURE_TRUNCATED, FAILURE_UNPARSEABLE, FAILURE_BACKEND)
_TEXT = (str, type(None))  # what a record's text fields hold


@dataclass(frozen=True)
class PromptSet:
    verify_prompt: str = DEFAULT_VERIFY_PROMPT
    refine_prompt: str = DEFAULT_REFINE_PROMPT
    solve_prompt: str = DEFAULT_SOLVE_PROMPT


@dataclass(frozen=True)
class Problem:
    problem_id: str
    statement: str
    answer: AnswerKey | None = None

    def __post_init__(self):
        if not self.statement:
            raise ValueError("statement must be non-empty")


@dataclass
class IterationRecord:
    """One committed step of a trial; index 0 is the initial solve."""

    index: int
    solution_text: str
    answer: str | None = None
    verification_text: str | None = None
    verdict: int | None = None
    failure: str | None = None

    def to_dict(self) -> dict:
        return dict(vars(self))


def _kept(kind: str, record: dict) -> bool:
    """Whether a record's step (a failed call or a VERDEP pass) carries its
    prior solution forward, so that its commit line leaves it out."""
    return record["index"] > 0 and (record.get("failure") is not None
                                    or kind == VERDEP and record.get("verdict") == 1)


@dataclass(frozen=True)
class ControllerConfig:
    kind: str = DSER
    max_iterations: int = 80
    accept_limit: int = 5
    reject_limit: int = 10
    max_parse_retries: int = 2

    def __post_init__(self):
        if self.kind not in (DSER, VERDEP):
            raise ValueError(f"unknown controller kind {self.kind!r}")
        for name, minimum in (("max_iterations", 0), ("accept_limit", 1),
                              ("reject_limit", 1), ("max_parse_retries", 0)):
            _check_int(name, getattr(self, name), minimum)


@dataclass
class TrialState:
    problem_id: str
    trial_index: int
    controller: str
    seed: int
    records: list[IterationRecord] = field(default_factory=list)
    status: str = RUNNING

    @property
    def trial_id(self) -> tuple[str, int]:
        return (self.problem_id, self.trial_index)


def _call(backend, context, base_seed, calls, phase, config, parse):
    """One phase's reasoning call, re-asked with the same context up to
    max_parse_retries times while parse(summary) returns None (a format lapse,
    not a real failure). Each attempt appends to calls what the committed
    record cannot reproduce: the thinking text and usage, or the failure.
    Returns (response, parsed value, failure); the response is None after a
    backend error or a truncation."""
    for attempt in range(config.max_parse_retries + 1):
        seed = derive_seed(base_seed, "attempt", attempt)
        call = {"phase": phase}
        calls.append(call)
        try:
            response = backend.reasoning_call(ReasoningRequest(context, seed))
        except ResponseTruncated as e:
            call.update(failure=FAILURE_TRUNCATED, partial_text=e.partial_text)
            return None, None, FAILURE_TRUNCATED
        except BackendError as e:
            call.update(failure=FAILURE_BACKEND, error=str(e))
            return None, None, FAILURE_BACKEND
        call.update(thinking=response.thinking,
                    prompt_tokens=response.prompt_tokens,
                    completion_tokens=response.completion_tokens)
        parsed = parse(response.summary_text)
        if parsed is not None:
            return response, parsed, None
    return response, None, FAILURE_UNPARSEABLE


def _verdict(summary_text: str) -> int | None:
    answer = extract_answer(summary_text)
    if answer is not None and answer.canonical in ("0", "1"):
        return int(answer.canonical)
    return None


def _status(config: ControllerConfig, records: list[IterationRecord]) -> str:
    """The status a trial's records give it: a VERDEP exit once its last
    accept_limit verdicts passed or its last reject_limit did not (an absent
    verdict fails), else completed after max_iterations steps, else running."""
    n = len(records)
    if config.kind == VERDEP and n > 1:
        passed = records[-1].verdict == 1
        limit = config.accept_limit if passed else config.reject_limit
        if n > limit and all((r.verdict == 1) == passed for r in records[n - limit:]):
            return ACCEPTED_EXIT if passed else REJECTED_EXIT
    return COMPLETED if n > config.max_iterations else RUNNING


def run_trial(config: ControllerConfig, backend, question: str, prompts: PromptSet,
              seed: int, log: RunLog | None = None, state: TrialState | None = None,
              problem_id: str = "p0", trial_index: int = 0) -> TrialState:
    """One trial: the initial solve on [p_s; q], then steps until
    max_iterations of them are done. A step verifies on [q; s; p_v] and
    refines on [q; s; p_v; v; p_r]. Each record is committed, appended to log
    with the calls made for it when a log is given, before the next call
    begins.

    DSER refines after every verdict. VERDEP keeps a passed solution unchanged
    and refines after a fail (an unparseable verdict counts as a fail); it
    also exits on accept_limit consecutive passes or reject_limit consecutive
    fails. A solve that stays unparseable keeps its text, with no answer. A
    failed verify or refine carries the prior solution forward; a commit line
    leaves out null fields and a solution it repeats (_kept).
    """
    if state is None:
        state = TrialState(problem_id, trial_index, config.kind, seed)
    verdep = config.kind == VERDEP
    # a trial resumed after its exit record exits without another call
    while (status := _status(config, state.records)) == RUNNING:
        n = len(state.records)
        calls: list[dict] = []
        verified = verdict = None
        kept = False
        if n == 0:
            response, answer, failure = _call(
                backend, (prompts.solve_prompt, question), derive_seed(seed, 0, "solve"),
                calls, "solve", config, extract_answer)
            text = response.summary_text if response else ""
            answer = answer.canonical if answer else None
        else:
            prior = state.records[-1]
            context = (question, prior.solution_text or "(no solution)", prompts.verify_prompt)
            verified, verdict, failure = _call(
                backend, context, derive_seed(seed, n, "verify"), calls, "verify", config,
                _verdict)
            if verified is not None and not (verdep and verdict == 1):
                response, answer, failure = _call(
                    backend, context + (verified.summary_text, prompts.refine_prompt),
                    derive_seed(seed, n, "refine"), calls, "refine", config, extract_answer)
            kept = _kept(config.kind, {"index": n, "failure": failure, "verdict": verdict})
            text, answer = ((prior.solution_text, prior.answer) if kept
                            else (response.summary_text, answer.canonical))
        record = IterationRecord(n, text, answer, verified.summary_text if verified else None,
                                 verdict, failure)
        state.records.append(record)
        if log is not None:
            omit = ("solution_text", "answer") if kept else ()
            line = {k: v for k, v in vars(record).items() if v is not None and k not in omit}
            log.append("IterationCommitted", {"record": line, "calls": calls},
                       trial_id=state.trial_id)
    state.status = status
    if log is not None:
        log.append("TrialExited", {"status": state.status}, trial_id=state.trial_id)
    return state


# ---------------------------------------------------------------------------
# Run inputs
# ---------------------------------------------------------------------------


class ConfigInvalid(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _checked(errors: list[str], name: str, build, /, *args, **kwargs):
    """build(*args, **kwargs), recording a value error it raises under name
    in errors; None in that case."""
    try:
        return build(*args, **kwargs)
    except KeyError as e:
        errors.append(f"{name}.{e.args[0]}: required")
    except (TypeError, ValueError) as e:
        errors.append(f"{name}: {e}")
    return None


@dataclass(frozen=True)
class RunInputs:
    """What a run description fixes: each trial's chain (controller, prompts,
    problem, seed) and how the trials are driven. backend_config is the built
    mock or backend section; None if the run has neither, so that its caller
    passes the backend."""

    controller: ControllerConfig
    prompts: PromptSet
    problems: dict[str, Problem]
    k_trials: int
    run_seed: int
    parallelism: int
    store_sync: str
    backend_config: MockSpec | BackendConfig | None


def _controller(section: dict) -> ControllerConfig:
    section = {**section}
    # manifests written before the key was removed hold it; only true, the
    # behaviour that remains, can resume
    if section.pop("carry_forward_on_failure", True) is not True:
        raise ValueError("carry_forward_on_failure: only true is supported; "
                         "a failed refine always keeps the prior solution")
    return ControllerConfig(**section)


def _problems(records: list[dict]) -> dict[str, Problem]:
    problems: dict[str, Problem] = {}
    for i, rec in enumerate(records):
        pid, statement, answer = rec["id"], rec["statement"], rec["answer"]
        if {type(pid), type(statement)} != {str} or type(answer) not in (str, type(None)):
            raise ValueError(f"record {i}: id, statement and answer must be text")
        if pid in problems:
            raise ValueError(f"duplicate problem id {pid!r}")
        try:
            problems[pid] = Problem(pid, statement,
                                    None if answer is None else normalize_answer(answer))
        except ValueError as e:
            raise ValueError(f"record {i}: {e}") from e
    return problems


def run_inputs(manifest: dict) -> RunInputs:
    """The inputs of a run description: a stored manifest, or the one a config
    file is read into before its run is written. Each section is checked by
    the code that builds it, and every error is collected into one
    ConfigInvalid. A manifest written before parallelism and store_sync were
    recorded runs at 8 and "always"."""
    config = manifest.get("config")
    missing = [key for key in ("problems", "k_trials", "run_seed") if key not in manifest]
    if not isinstance(config, dict) or "controller" not in config:
        missing.insert(0, "config.controller")
    if missing:
        raise ConfigInvalid([f"{key}: required" for key in missing])
    errors: list[str] = []
    backend_config = None
    if "mock" in config:
        backend_config = _checked(errors, "mock", mock_spec_from_dict, config["mock"])
    elif "backend" in config:
        backend_config = _checked(errors, "backend", lambda: BackendConfig(**config["backend"]))
    fields = {"parallelism": 8, "store_sync": "always", **manifest}
    inputs = RunInputs(
        controller=_checked(errors, "controller", _controller, config["controller"]),
        prompts=_checked(errors, "prompts", lambda: PromptSet(**config.get("prompts", {}))),
        problems=_checked(errors, "problems", _problems, fields["problems"]),
        k_trials=_checked(errors, "experiment", _check_int, "k_trials", fields["k_trials"], 1),
        run_seed=_checked(errors, "experiment", _check_int, "run_seed", fields["run_seed"]),
        parallelism=_checked(errors, "experiment", _check_int, "parallelism",
                             fields["parallelism"], 1),
        store_sync=_checked(errors, "experiment", sync_mode, fields["store_sync"]),
        backend_config=backend_config)
    if errors:
        raise ConfigInvalid(errors)
    return inputs


def _backend(inputs: RunInputs, backend):
    """A context that gives backend or, when it is None, a new backend built
    from the run's mock or backend section and closed on exit."""
    if backend is not None:
        return nullcontext(backend)
    if isinstance(inputs.backend_config, MockSpec):
        return nullcontext(MockBackendProvider(inputs.backend_config))
    if inputs.backend_config is None:
        raise ConfigInvalid(["the run has no 'mock' or 'backend' section to build"])
    return closing(HttpBackend(inputs.backend_config))


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------


def trial_seed(run_seed: int, problem_id: str, trial_index: int) -> int:
    return derive_seed(run_seed, problem_id, trial_index)


def rebuild_trial_states(manifest: dict | RunInputs,
                         events: list[dict]) -> dict[tuple[str, int], TrialState]:
    """Reconstruct all trial states purely from committed events, for a run
    manifest or the inputs already built from one; an event of an unknown kind
    or trial, one that follows its trial's exit, one whose payload cannot build
    or holds a mistyped field, a record that is not its trial's next, or an
    exit whose status the trial's records do not give it is a corrupt log. A
    kept record's solution comes from the previous one; older records' token
    totals are dropped."""
    inputs = run_inputs(manifest) if isinstance(manifest, dict) else manifest
    states: dict[tuple[str, int], TrialState] = {}
    for pid in inputs.problems:
        for t in range(inputs.k_trials):
            states[(pid, t)] = TrialState(
                problem_id=pid, trial_index=t, controller=inputs.controller.kind,
                seed=trial_seed(inputs.run_seed, pid, t))
    for i, ev in enumerate(events):
        seq, trial, kind = ev["seq"], ev["trial"], ev["kind"]
        try:
            if trial is None:
                if kind != "RunFinalized":
                    raise TypeError(f"a {kind!r} event has no trial")
                continue
            st = states[trial]
            if st.status != RUNNING:  # a second exit, or a record after the exit
                raise CorruptLog(f"event seq {seq} follows the exit of trial {trial}", i)
            if kind == "IterationCommitted":
                fields = ev["payload"]["record"]
                if fields["index"] != len(st.records):
                    raise CorruptLog(f"event seq {seq} commits record {fields['index']!r} "
                                     f"of trial {trial}, not {len(st.records)}", i)
                if "prompt_tokens" in fields:  # a schema 1 or 2 record's token totals
                    fields = {k: v for k, v in fields.items() if not k.endswith("_tokens")}
                if _kept(st.controller, fields):
                    prior = st.records[-1]
                    fields = {"solution_text": prior.solution_text, "answer": prior.answer,
                              **fields}
                r = IterationRecord(**fields)
                if (type(r.index) is not int or r.verdict not in (None, 0, 1)
                        or type(r.verdict) not in (int, type(None)) or r.failure not in _FAILURES
                        or type(r.solution_text) not in _TEXT or type(r.answer) not in _TEXT
                        or type(r.verification_text) not in _TEXT):
                    raise TypeError(f"a field of record {r.index!r} has the wrong type")
                st.records.append(r)
            elif kind == "TrialExited":
                st.status = _status(inputs.controller, st.records)
                if st.status == RUNNING or ev["payload"]["status"] != st.status:
                    raise TypeError(f"status {ev['payload']['status']!r} is not {st.status!r}")
            elif kind not in ("SolveStarted", "CallSent", "CallReceived"):  # schema 1's
                raise TypeError(f"kind {kind!r} is not one that a schema wrote for a trial")
        except (KeyError, TypeError) as e:
            raise CorruptLog(f"event seq {seq} does not build: {e!r}", i) from e
    return states


def start_run(store: RunStore, description: dict, backend=None,
              run_id: str | None = None) -> str:
    """Write and run a new run of description, a manifest body: config,
    problems, k_trials, run_seed and, if given, parallelism and store_sync.

    run_inputs builds it, as a resume builds a manifest, before the run
    directory is written; the manifest records the controller and prompts as
    built, and the run settings used. The run then takes a resume's path from
    an empty log. backend is a single backend shared by parallelism threads,
    or anything with a for_problem(problem) method returning one (the mock
    needs each problem's ground truth), whose trials run in order on the
    calling thread; None builds the one the config describes. Returns the
    run id; the run is resumable at every point.
    """
    inputs = run_inputs(description)
    if run_id is None:
        run_id = os.urandom(6).hex()
    # parallelism and store_sync sit outside the config and the trial inputs,
    # so the store's stamps do not cover them
    manifest = dict(
        description, run_id=run_id, created_at=time.time(),
        config=dict(description["config"], controller=dataclasses.asdict(inputs.controller),
                    prompts=dataclasses.asdict(inputs.prompts)),
        parallelism=inputs.parallelism, store_sync=inputs.store_sync)
    with _backend(inputs, backend) as backend:
        store.create_run(run_id, manifest)
        _run(store, run_id, inputs, backend, inputs.parallelism, inputs.store_sync)
    return run_id


def run_experiment(problems: list[Problem], k_trials: int, config: ControllerConfig,
                   backend, prompts: PromptSet, run_seed: int, store: RunStore,
                   parallelism: int = 8, run_id: str | None = None,
                   store_sync: str = "always") -> str:
    """start_run of problems x k_trials trials; the run's config holds only
    the controller and the prompts, so backend must be given."""
    return start_run(store, {
        "config": {"controller": vars(config), "prompts": vars(prompts)},
        "problems": [{"id": p.problem_id, "statement": p.statement,
                      "answer": p.answer.canonical if p.answer else None} for p in problems],
        "k_trials": k_trials, "run_seed": run_seed, "parallelism": parallelism,
        "store_sync": store_sync}, backend, run_id)


def resume_experiment(store: RunStore, run_id: str, backend=None,
                      parallelism: int | None = None, store_sync: str | None = None) -> None:
    """Complete the remaining trials of a half-finished run.

    backend, parallelism and store_sync default to the run's own, as its
    manifest records them; a built backend is closed when the resume ends.
    """
    inputs = run_inputs(store.manifest(run_id))
    with _backend(inputs, backend) as backend:
        _run(store, run_id, inputs, backend,
             inputs.parallelism if parallelism is None else parallelism,
             inputs.store_sync if store_sync is None else store_sync)


def _run(store: RunStore, run_id: str, inputs: RunInputs, backend,
         parallelism: int, store_sync: str) -> None:
    """Run every trial the log does not show as stopped.

    The log is read once, by the append handle, and the trial states are
    rebuilt from the events it parsed (none for a fresh run), which are then
    dropped; a finished run has no trial left to run, so it appends nothing.
    On threads, an interrupt or a worker's first error is raised once the
    calls in flight finish; no trial and no backend call starts after it.
    """
    log = store.open_log(run_id, sync=store_sync)
    try:
        states = rebuild_trial_states(inputs, log.events)
        log.events = []
        pending = [st for st in states.values() if st.status == RUNNING]
        if hasattr(backend, "for_problem"):
            # only the in-process mock needs each problem's answer, and its
            # calls never wait: under the interpreter lock, threads only slow it
            for st in pending:
                problem = inputs.problems[st.problem_id]
                run_trial(inputs.controller, backend.for_problem(problem), problem.statement,
                          inputs.prompts, st.seed, log, state=st)
            return
        from concurrent.futures import CancelledError, ThreadPoolExecutor
        stop: list[BaseException | None] = []  # an entry stops the run

        class Stoppable:  # a refusal is no BackendError, so no trial commits it
            def reasoning_call(self, request):
                if stop:
                    raise CancelledError("the run is stopping")
                return backend.reasoning_call(request)

        def worker(st: TrialState) -> None:
            try:
                if not stop:
                    run_trial(inputs.controller, Stoppable(),
                              inputs.problems[st.problem_id].statement, inputs.prompts, st.seed,
                              log, state=st)
            except BaseException as e:
                stop.append(e)

        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            try:
                list(pool.map(worker, pending))
            finally:  # after an interrupt, the trials still running stop
                stop.append(None)
        if stop[0] is not None:
            raise stop[0]
    finally:
        log.close()
