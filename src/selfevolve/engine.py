"""The trial loop, shared by the fixed-horizon controller (DSER) and the
verification-dependent accept/reject one (VERDEP), plus the parallel
experiment driver.

Every reasoning call context is exactly (q, s, p_v, v, p_r) or a prefix of
it; earlier solutions never re-enter the context, so the process is Markov in
the current solution. Calls within a trial are strictly sequential; trials
are embarrassingly parallel. All randomness flows through per-call seeds
derived from (run_seed, problem, trial, iteration, phase, attempt), which
makes resumed execution reproduce the uninterrupted run exactly.
"""

from __future__ import annotations

import dataclasses
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import inf

from .answers import AnswerKey, extract_answer, normalize_answer
from .backend import BackendError, ReasoningRequest, ResponseTruncated, thinking_text
from .seeds import derive_seed
from .store import Event, RunLog, RunStore

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

TERMINAL_STATUSES = {COMPLETED, ACCEPTED_EXIT, REJECTED_EXIT}

FAILURE_TRUNCATED = "truncated"
FAILURE_UNPARSEABLE = "unparseable"
FAILURE_BACKEND = "backend_error"


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
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def to_dict(self) -> dict:
        return dict(vars(self))


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
        for name in ("max_iterations", "accept_limit", "reject_limit", "max_parse_retries"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.accept_limit < 1 or self.reject_limit < 1:
            raise ValueError("accept/reject limits must be >= 1")
        if self.max_parse_retries < 0:
            raise ValueError("max_parse_retries must be >= 0")


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
        call = {"phase": phase, "attempt": attempt}
        calls.append(call)
        try:
            response = backend.reasoning_call(ReasoningRequest(context=context, request_seed=seed))
        except ResponseTruncated as e:
            call.update(failure=FAILURE_TRUNCATED, partial_text=e.partial_text)
            return None, None, FAILURE_TRUNCATED
        except BackendError as e:
            call.update(failure=FAILURE_BACKEND, error=str(e))
            return None, None, FAILURE_BACKEND
        call.update(thinking=thinking_text(response.full_text),
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


def _streaks(passes: int, fails: int, verdict: int | None) -> tuple[int, int]:
    """The (pass, fail) streak counters after one more verdict; an absent
    verdict counts as a fail."""
    return (passes + 1, 0) if verdict == 1 else (0, fails + 1)


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
    failed verify or refine carries the prior solution forward; the tokens of
    a failed refine are not counted.
    """
    if state is None:
        state = TrialState(problem_id, trial_index, config.kind, seed)
    verdep = config.kind == VERDEP
    accept, reject = (config.accept_limit, config.reject_limit) if verdep else (inf, inf)
    # The streaks rebuilt from the records are tested before the first call,
    # so a trial resumed after its exit record exits without another call.
    passes = fails = 0
    for r in state.records[1:]:
        passes, fails = _streaks(passes, fails, r.verdict)
    while passes < accept and fails < reject and len(state.records) <= config.max_iterations:
        n = len(state.records)
        calls: list[dict] = []
        verified = verdict = None
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
            passes, fails = _streaks(passes, fails, verdict)
            response = None
            if verified is not None and not (verdep and verdict == 1):
                response, answer, failure = _call(
                    backend, context + (verified.summary_text, prompts.refine_prompt),
                    derive_seed(seed, n, "refine"), calls, "refine", config, extract_answer)
            # a failed verify or refine, or a VERDEP pass, carries the prior
            # solution forward; a failed refine's tokens go with its response
            if response is None or failure is not None:
                response, text, answer = None, prior.solution_text, prior.answer
            else:
                text, answer = response.summary_text, answer.canonical
        record = IterationRecord(n, text, answer, verified.summary_text if verified else None,
                                 verdict, failure)
        for r in (verified, response):
            if r is not None:
                record.prompt_tokens += r.prompt_tokens
                record.completion_tokens += r.completion_tokens
        state.records.append(record)
        if log is not None:
            log.append("IterationCommitted", {"record": record.to_dict(), "calls": calls},
                       trial_id=state.trial_id)
    state.status = (ACCEPTED_EXIT if passes >= accept else
                    REJECTED_EXIT if fails >= reject else COMPLETED)
    if log is not None:
        log.append("TrialExited", {"status": state.status}, trial_id=state.trial_id)
    return state


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------


def trial_seed(run_seed: int, problem_id: str, trial_index: int) -> int:
    return derive_seed(run_seed, problem_id, trial_index)


def rebuild_trial_states(manifest: dict, events: list[Event]) -> dict[tuple[str, int], TrialState]:
    """Reconstruct all trial states purely from committed events."""
    run_seed = manifest["run_seed"]
    controller = manifest["config"]["controller"]["kind"]
    states: dict[tuple[str, int], TrialState] = {}
    for p in manifest["problems"]:
        for t in range(manifest["k_trials"]):
            tid = (p["id"], t)
            states[tid] = TrialState(
                problem_id=p["id"], trial_index=t, controller=controller,
                seed=trial_seed(run_seed, p["id"], t))
    for ev in events:
        if ev.trial_id is None or ev.trial_id not in states:
            continue
        st = states[ev.trial_id]
        if ev.kind == "IterationCommitted":
            record = IterationRecord(**ev.payload["record"])
            if record.index == len(st.records):
                st.records.append(record)
        elif ev.kind == "TrialExited":
            st.status = ev.payload["status"]
    return states


def run_experiment(problems: list[Problem], k_trials: int, config: ControllerConfig,
                   backend, prompts: PromptSet, run_seed: int, store: RunStore,
                   parallelism: int = 8, run_id: str | None = None,
                   config_snapshot: dict | None = None, config_hash: str = "",
                   store_sync: str = "always") -> str:
    """Schedule problems x k_trials independent trials with bounded parallelism.

    The manifest's config is config_snapshot (its mock or backend section,
    say) with the controller and prompts sections written from config and
    prompts; the run then takes the path a resume takes, from an empty log.
    backend is either a single backend object or anything with a
    for_problem(problem) method returning one (the mock needs the per-problem
    ground truth). Returns the run id; the manifest and event log are durable
    and resumable at every point.
    """
    if k_trials < 1:
        raise ValueError("k_trials must be >= 1")
    if run_id is None:
        run_id = uuid.uuid4().hex[:12]
    # parallelism and store_sync sit outside the config snapshot, so they do
    # not enter its hash
    store.create_run(run_id, {
        "run_id": run_id,
        "created_at": time.time(),
        "run_seed": run_seed,
        "k_trials": k_trials,
        "config": dict(config_snapshot or {}, controller=dataclasses.asdict(config),
                       prompts=dataclasses.asdict(prompts)),
        "config_hash": config_hash,
        "parallelism": parallelism,
        "store_sync": store_sync,
        "problems": [{"id": p.problem_id, "statement": p.statement,
                      "answer": p.answer.canonical if p.answer else None}
                     for p in problems],
    })
    _run(store, run_id, store.manifest(run_id), backend, parallelism, store_sync)
    return run_id


def resume_experiment(store: RunStore, run_id: str, backend,
                      parallelism: int | None = None, store_sync: str | None = None) -> None:
    """Complete the remaining trials of a half-finished run.

    parallelism and store_sync default to the run's own, as its manifest
    records them (8 and "always" for a manifest that predates them).
    """
    manifest = store.manifest(run_id)
    if parallelism is None:
        parallelism = manifest.get("parallelism", 8)
    if store_sync is None:
        store_sync = manifest.get("store_sync", "always")
    _run(store, run_id, manifest, backend, parallelism, store_sync)


def controller_from_snapshot(snapshot: dict) -> ControllerConfig:
    """The controller config of a manifest's config snapshot."""
    controller = dict(snapshot["controller"])
    # manifests written before the key was removed hold it; only true, the
    # behaviour that remains, can resume
    if controller.pop("carry_forward_on_failure", True) is not True:
        raise ValueError("carry_forward_on_failure: only true is supported; "
                         "a failed refine always keeps the prior solution")
    return ControllerConfig(**controller)


def _run(store: RunStore, run_id: str, manifest: dict, backend,
         parallelism: int, store_sync: str) -> None:
    """Run every trial the log does not show as stopped, then finalize.

    The controller, prompts and problems come from the manifest alone. The
    log is read once, by the append handle, and the trial states are rebuilt
    from the events it parsed (none for a fresh run).
    """
    config = controller_from_snapshot(manifest["config"])
    prompts = PromptSet(**manifest["config"].get("prompts", {}))
    problems = {p["id"]: Problem(p["id"], p["statement"],
                                 None if p["answer"] is None else normalize_answer(p["answer"]))
                for p in manifest["problems"]}
    log = store.open_log(run_id, sync=store_sync)
    try:
        if log.finalized:
            return
        states = rebuild_trial_states(manifest, log.events)

        def worker(st: TrialState) -> None:
            problem = problems[st.problem_id]
            trial_backend = (backend.for_problem(problem) if hasattr(backend, "for_problem")
                             else backend)
            run_trial(config, trial_backend, problem.statement, prompts, st.seed, log,
                      state=st)

        pending = [st for st in states.values() if st.status not in TERMINAL_STATUSES]
        if parallelism <= 1:
            for st in pending:
                worker(st)
        else:
            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                list(pool.map(worker, pending))
        log.append("RunFinalized", {})
    finally:
        log.close()
