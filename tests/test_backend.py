import collections
import contextlib
import random
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from selfevolve import backend as backend_module
from selfevolve.answers import AnswerKey, extract_answer
from selfevolve.backend import (
    BackendConfig,
    BackendTimeout,
    BackendUnavailable,
    HttpBackend,
    MockBackend,
    MockSpec,
    ReasoningRequest,
    ResponseTruncated,
    strip_thinking,
)
from selfevolve.engine import FAILURE_BACKEND, ControllerConfig, PromptSet, run_trial
from selfevolve.markov import TransitionParams
from stub_server import StubChatServer, completion


def make_spec(**overrides) -> MockSpec:
    base = dict(
        ground_truth=AnswerKey("60"),
        initial_correct_probability=0.5,
        transition=TransitionParams(p_ic=0.3, p_ci=0.1),
        alpha=0.2,
        beta=0.8,
        wrong_answer_space=100,
    )
    base.update(overrides)
    return MockSpec(**base)


# --- thinking-block removal --------------------------------------------------

def test_strip_thinking_basic():
    summary, thinking, malformed = strip_thinking("<think>steps</think>\nAnswer: \\boxed{60}")
    assert summary == "Answer: \\boxed{60}"
    assert thinking == "steps"
    assert not malformed


def test_strip_thinking_no_delimiters():
    text = "plain solution text"
    assert strip_thinking(text) == (text, "", False)


def test_strip_thinking_unclosed():
    summary, thinking, malformed = strip_thinking("<think>never closed")
    assert summary == ""
    assert thinking == "never closed"
    assert malformed


def test_strip_thinking_preserves_prefix():
    summary, thinking, malformed = strip_thinking("intro\n<think>x</think>\ntail")
    assert summary == "intro\ntail"
    assert thinking == "x"
    assert not malformed


# --- request validation ------------------------------------------------------

def test_request_validation():
    with pytest.raises(ValueError):
        ReasoningRequest(context=())
    with pytest.raises(ValueError):
        BackendConfig(endpoint="http://e/v1", model="m", max_response_tokens=0)
    with pytest.raises(ValueError):
        BackendConfig(endpoint="http://e/v1", model="m", temperature=-1)


# --- mock backend ------------------------------------------------------------

def mock_call(spec, kind, state, seed):
    """One MockBackend call of kind ("solve", "verify" or "refine") whose prior
    solution is correct when state is "C" and incorrect when it is "I"."""
    prior = f"Final answer: \\boxed{{{spec.ground_truth.canonical if state == 'C' else 100042}}}"
    context = {"solve": ("solve prompt", "question"),
               "verify": ("question", prior, "verify prompt"),
               "refine": ("question", prior, "verify prompt", "report", "refine prompt")}[kind]
    return MockBackend(spec).reasoning_call(ReasoningRequest(context, request_seed=seed))


def hidden_state(spec, response):
    """The hidden state of the response's solution: C when it carries the
    ground truth, I otherwise."""
    return "C" if extract_answer(response.summary_text) == spec.ground_truth else "I"


def test_mock_solve_deterministic():
    spec = make_spec()
    assert mock_call(spec, "solve", "I", seed=123) == mock_call(spec, "solve", "I", seed=123)


def test_mock_solve_never_correct_at_zero():
    spec = make_spec(initial_correct_probability=0.0)
    for seed in range(100):
        response = mock_call(spec, "solve", "I", seed=seed)
        assert hidden_state(spec, response) == "I"
        assert "\\boxed{60}" not in response.summary_text


def test_mock_forced_improvement():
    spec = make_spec(transition=TransitionParams(p_ic=1.0, p_ci=0.0))
    for seed in range(50):
        response = mock_call(spec, "refine", "I", seed=seed)
        assert hidden_state(spec, response) == "C"
        assert "\\boxed{60}" in response.summary_text


def test_mock_summary_has_no_think_block():
    response = mock_call(make_spec(), "solve", "I", seed=5)
    assert "<think>" not in response.summary_text
    assert "<think>" in response.full_text


@pytest.mark.parametrize("kind", ["solve", "verify", "refine"])
@pytest.mark.parametrize("state", ["C", "I"])
def test_mock_full_text_splits_into_summary_and_thinking(kind, state):
    # an HTTP stub sends the mock's full text, so the one scan of an HTTP
    # response must give back what the in-process mock returns
    for seed in range(50):
        r = mock_call(make_spec(), kind, state, seed=seed)
        assert r.thinking
        assert strip_thinking(r.full_text) == (r.summary_text, r.thinking, False)


@pytest.mark.parametrize("kind,segments", [("solve", 2), ("verify", 3), ("refine", 5)])
def test_mock_token_counts_are_word_counts(kind, segments):
    # the counts come through a bounded memo: over twice as many distinct
    # texts as it holds, each seen twice, and over runs of spaces, tabs and
    # newlines, they stay the whitespace word counts
    backend = MockBackend(make_spec(wrong_answer_space=10_000))
    distinct = 2 * backend_module._word_count.cache_info().maxsize
    for i in list(range(distinct)) * 2:
        context = tuple(f"  {kind} segment {j}\t\t{i}\n\nwords:{' w' * (i % 7)} \n"
                        for j in range(segments))
        r = backend.reasoning_call(ReasoningRequest(context, request_seed=i))
        assert r.prompt_tokens == sum(len(s.split()) for s in context)
        assert r.completion_tokens == len(r.full_text.split())


def test_mock_refine_transition_faithfulness():
    # pooled refine transitions reproduce (p_ic, p_ci) within 3 standard errors
    spec = make_spec(transition=TransitionParams(p_ic=0.3, p_ci=0.1))
    n = 100_000
    flips = {"I": 0, "C": 0}
    for i in range(n):
        start = "I" if i % 2 == 0 else "C"
        if hidden_state(spec, mock_call(spec, "refine", start, seed=i)) != start:
            flips[start] += 1
    half = n // 2
    for start, p in (("I", 0.3), ("C", 0.1)):
        se = (p * (1 - p) / half) ** 0.5
        assert abs(flips[start] / half - p) <= 3 * se


def test_mock_verdict_rates():
    spec = make_spec(alpha=0.2, beta=0.8)
    n = 20_000
    passes = {"I": 0, "C": 0}
    for i in range(n):
        state = "I" if i % 2 == 0 else "C"
        response = mock_call(spec, "verify", state, seed=10_000_000 + i)
        verdict = response.summary_text.rstrip()[-9:]
        if verdict.endswith("\\boxed{1}"):
            passes[state] += 1
    half = n // 2
    for state, p in (("I", 0.2), ("C", 0.8)):
        se = (p * (1 - p) / half) ** 0.5
        assert abs(passes[state] / half - p) <= 4 * se


def test_mock_wrong_answers_diverge():
    spec = make_spec(initial_correct_probability=0.0, wrong_answer_space=100)
    answers = collections.Counter()
    for seed in range(2000):
        response = mock_call(spec, "solve", "I", seed=seed)
        answers[response.summary_text.split("\\boxed{")[1].rstrip("}")] += 1
    assert len(answers) == 100
    assert "60" not in answers
    assert max(answers.values()) < 2000 * 0.05


def test_mock_backend_classification():
    spec = make_spec()
    backend = MockBackend(spec)
    solve_req = ReasoningRequest(context=("solve prompt", "question"), request_seed=1)
    response = backend.reasoning_call(solve_req)
    assert "\\boxed{" in response.summary_text

    wrong_solution = "Final answer: \\boxed{100042}"
    right_solution = "Final answer: \\boxed{60}"
    # verify verdict rates depend on the embedded answer's correctness
    pass_rate = {}
    for solution, key in ((wrong_solution, "I"), (right_solution, "C")):
        passes = 0
        for seed in range(2000):
            req = ReasoningRequest(context=("q", solution, "verify prompt"),
                                   request_seed=seed)
            out = backend.reasoning_call(req)
            passes += out.summary_text.rstrip().endswith("\\boxed{1}")
        pass_rate[key] = passes / 2000
    assert pass_rate["I"] == pytest.approx(spec.alpha, abs=0.05)
    assert pass_rate["C"] == pytest.approx(spec.beta, abs=0.05)


def test_mock_backend_requires_seed():
    backend = MockBackend(make_spec())
    with pytest.raises(ValueError):
        backend.reasoning_call(ReasoningRequest(context=("p", "q")))


# --- HTTP backend ------------------------------------------------------------

def _http_config(endpoint, **overrides):
    base = dict(endpoint=endpoint, model="stub-model", timeout_s=10.0,
                max_attempts=3, backoff_base_ms=1, backoff_max_ms=5)
    base.update(overrides)
    return BackendConfig(**base)


@pytest.fixture
def http_backend():
    """Builds an HttpBackend from _http_config's arguments; each one built is
    closed at teardown."""
    with contextlib.ExitStack() as stack:
        yield lambda endpoint, **overrides: stack.enter_context(
            contextlib.closing(HttpBackend(_http_config(endpoint, **overrides))))


def test_http_round_trip_strips_thinking(http_backend):
    canned = "<think>internal</think>\nThe answer is \\boxed{60}"
    with StubChatServer([completion(canned)]) as server:
        backend = http_backend(server.endpoint)
        response = backend.reasoning_call(
            ReasoningRequest(context=("solve", "question"), request_seed=7))
    assert response.full_text == canned
    assert response.summary_text == "The answer is \\boxed{60}"
    assert response.prompt_tokens == 10
    assert response.completion_tokens == 20
    # request body carries the rendered context as a single user message
    body = server.requests[0]
    assert body["messages"] == [{"role": "user", "content": "solve\n\nquestion"}]
    assert body["seed"] == 7


def test_http_truncation_surfaced(http_backend):
    with StubChatServer([completion("partial tex", finish_reason="length")]) as server:
        backend = http_backend(server.endpoint)
        with pytest.raises(ResponseTruncated) as err:
            backend.reasoning_call(ReasoningRequest(context=("q",), request_seed=1))
    assert err.value.partial_text == "partial tex"


def test_http_sends_configured_sampling_parameters(http_backend):
    with StubChatServer([completion("ok")]) as server:
        backend = http_backend(server.endpoint, temperature=0.0, max_response_tokens=128)
        backend.reasoning_call(ReasoningRequest(context=("q",), request_seed=1))
    body = server.requests[0]
    assert body["temperature"] == 0.0
    assert body["max_tokens"] == 128


def test_http_retries_then_succeeds(http_backend):
    with StubChatServer([500, 503, completion("ok \\boxed{1}")]) as server:
        backend = http_backend(server.endpoint)
        response = backend.reasoning_call(
            ReasoningRequest(context=("q",), request_seed=1))
    assert "\\boxed{1}" in response.summary_text
    assert len(server.requests) == 3


def test_http_retries_exhausted(http_backend):
    with StubChatServer([500, 500, 500]) as server:
        backend = http_backend(server.endpoint)
        with pytest.raises(BackendUnavailable):
            backend.reasoning_call(ReasoningRequest(context=("q",), request_seed=1))


MALFORMED_BODIES = [
    {"choices": []},
    {"choices": [{}]},
    {"choices": [{"message": {"role": "assistant", "content": None}}]},
    {},
    200,  # the stub answers a scripted int status with a non-JSON body
]


def test_http_malformed_body_exhausts_retries(http_backend):
    script = [body for body in MALFORMED_BODIES for _ in range(3)]
    with StubChatServer(script) as server:
        backend = http_backend(server.endpoint)
        for _ in MALFORMED_BODIES:
            with pytest.raises(BackendUnavailable):
                backend.reasoning_call(ReasoningRequest(context=("q",), request_seed=1))
    assert len(server.requests) == len(script)


def test_http_malformed_body_retried(http_backend):
    with StubChatServer([200, completion("ok \\boxed{1}")]) as server:
        backend = http_backend(server.endpoint)
        response = backend.reasoning_call(ReasoningRequest(context=("q",), request_seed=1))
    assert "\\boxed{1}" in response.summary_text
    assert len(server.requests) == 2


# a response slower than the 0.05 s deadline on each of the 2 attempts
SLOW = dict(completion("late \\boxed{1}"), delay_s=0.2)


def test_http_timeout_on_every_attempt(http_backend):
    with StubChatServer([SLOW, SLOW]) as server:
        backend = http_backend(server.endpoint, timeout_s=0.05, max_attempts=2)
        with pytest.raises(BackendTimeout):
            backend.reasoning_call(ReasoningRequest(context=("q",), request_seed=1))
    assert len(server.requests) == 2


def test_http_timeout_then_errors_is_unavailable(http_backend):
    # one attempt timed out and the others failed otherwise: not a timeout.
    # The deadline is long enough that a prompt 503 never misses it.
    late = dict(completion("late \\boxed{1}"), delay_s=1.0)
    with StubChatServer([late, 503, 503]) as server:
        backend = http_backend(server.endpoint, timeout_s=0.5, max_attempts=3)
        with pytest.raises(BackendUnavailable) as err:
            backend.reasoning_call(ReasoningRequest(context=("q",), request_seed=1))
    assert "HTTP 503" in str(err.value.__cause__)
    assert len(server.requests) == 3


def test_http_timeout_carries_trial_state_forward(http_backend):
    # the solve succeeds; the verify call times out twice, so the committed
    # iteration keeps the solution and is marked as a backend error
    with StubChatServer([completion("so \\boxed{7}"), SLOW, SLOW]) as server:
        backend = http_backend(server.endpoint, timeout_s=0.05, max_attempts=2)
        state = run_trial(ControllerConfig(max_iterations=1), backend, "question",
                          PromptSet(), seed=3)
    solved, timed_out = state.records
    assert solved.answer == "7" and solved.failure is None
    assert timed_out.failure == FAILURE_BACKEND
    assert timed_out.solution_text == solved.solution_text
    assert timed_out.answer == solved.answer
    assert timed_out.verdict is None
    assert len(server.requests) == 3


def test_http_no_request_mutation(http_backend):
    # the engine-visible rendered context equals byte-for-byte what was sent
    segments = ("question text", "solution \\boxed{3}", "verify prompt")
    request = ReasoningRequest(context=segments, request_seed=2)
    with StubChatServer([completion("fine \\boxed{1}")]) as server:
        backend = http_backend(server.endpoint)
        backend.reasoning_call(request)
    sent = server.requests[0]["messages"][0]["content"]
    assert sent == request.rendered() == "\n\n".join(segments)


def test_inflight_cap_respected():
    spec = make_spec()
    backend = MockBackend(spec)
    threads = [
        threading.Thread(target=lambda i=i: backend.reasoning_call(
            ReasoningRequest(context=("p", "q"), request_seed=i)))
        for i in range(32)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert backend.call_count == 32


def test_http_inflight_cap(http_backend):
    # with a cap of 2, the server never handles more than 2 requests at once
    with StubChatServer([dict(completion("x"), delay_s=0.02)] * 12) as server:
        backend = http_backend(server.endpoint, max_in_flight=2)
        threads = [
            threading.Thread(target=lambda i=i: backend.reasoning_call(
                ReasoningRequest(context=("q",), request_seed=i)))
            for i in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert len(server.requests) == 12
    assert server.max_active == 2


def test_http_resends_on_a_dropped_keepalive_connection(monkeypatch, http_backend):
    # the server closes the idle connection between two calls; the second
    # call sends again on a fresh connection within its first attempt, so no
    # backoff is slept
    sleeps = []
    monkeypatch.setattr(backend_module, "time",
                        SimpleNamespace(monotonic=time.monotonic, sleep=sleeps.append))
    script = [completion("one \\boxed{1}"), completion("two \\boxed{2}")]
    with StubChatServer(script, idle_timeout_s=0.05) as server:
        backend = http_backend(server.endpoint)
        first = backend.reasoning_call(ReasoningRequest(context=("q",), request_seed=1))
        deadline = time.monotonic() + 5.0
        while server.closed < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.closed == 1
        second = backend.reasoning_call(ReasoningRequest(context=("q",), request_seed=2))
    assert "\\boxed{1}" in first.summary_text
    assert "\\boxed{2}" in second.summary_text
    assert len(server.requests) == 2
    assert server.connections == 2
    assert sleeps == []


def test_https_endpoint_on_plain_http_server(http_backend):
    # the TLS handshake fails on every attempt: an unavailable backend. The
    # stub reads the handshake as a request line, and unless it holds a
    # newline only the idle timeout ends that read
    with StubChatServer([], idle_timeout_s=0.05) as server:
        endpoint = server.endpoint.replace("http://", "https://")
        backend = http_backend(endpoint, max_attempts=2)
        with pytest.raises(BackendUnavailable):
            backend.reasoning_call(ReasoningRequest(context=("q",), request_seed=1))
    assert server.requests == []


def test_http_close_closes_every_threads_connection(http_backend):
    # more threads than cores, switching often, each open a connection at once
    script = [dict(completion("ok"), delay_s=0.05) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with StubChatServer(script) as server:
            backend = http_backend(server.endpoint)
            threads = [threading.Thread(target=backend.reasoning_call, args=(
                ReasoningRequest(context=("q",), request_seed=i),)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert server.connections == 4
            backend.close()
            deadline = time.monotonic() + 5.0
            while server.closed < server.connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.closed == server.connections
    finally:
        sys.setswitchinterval(interval)
