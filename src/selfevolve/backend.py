"""One reasoning call: HTTP chat-completion client plus a Markov-parameterized mock.

Every call is stateless: the full context is sent as a single user message,
and only the summarized solution (thinking block removed) flows downstream.
The raw text and the thinking are kept on the response for persistence.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import random
import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from urllib.parse import urlsplit

from .answers import AnswerKey, extract_answer, normalize_answer
from .markov import TransitionParams, _check_prob

THINK_OPEN = "<think>"
THINK_CLOSE = "</think>"

CONTEXT_SEPARATOR = "\n\n"


class BackendError(Exception):
    pass


class BackendUnavailable(BackendError):
    """Retries exhausted without a usable response."""


class BackendTimeout(BackendError):
    """The request deadline elapsed on every attempt."""


class ResponseTruncated(BackendError):
    """The token budget was hit before the completion finished."""

    def __init__(self, message: str, partial_text: str = ""):
        super().__init__(message)
        self.partial_text = partial_text


@dataclass(frozen=True)
class ReasoningRequest:
    """Context segments for one call, e.g. [q; s; p_v; v; p_r] for a refine."""

    context: tuple[str, ...]
    request_seed: int | None = None

    def __post_init__(self):
        if not self.context:
            raise ValueError("context must be non-empty")

    def rendered(self) -> str:
        return CONTEXT_SEPARATOR.join(self.context)


@dataclass
class ReasoningResponse:
    full_text: str
    summary_text: str
    thinking: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_s: float = 0.0
    malformed_thinking: bool = False


def strip_thinking(full_text: str) -> tuple[str, str, bool]:
    """Split off the first well-formed thinking block; returns (summary,
    thinking, malformed), the thinking without its delimiters.

    Text without delimiters passes through unchanged, with empty thinking. An
    unclosed opening delimiter makes everything after it the thinking, leaves
    the text before it as the summary, and sets the malformed flag.
    """
    start = full_text.find(THINK_OPEN)
    if start == -1:
        return full_text, "", False
    inner = start + len(THINK_OPEN)
    end = full_text.find(THINK_CLOSE, inner)
    if end == -1:
        return full_text[:start].strip(), full_text[inner:], True
    before = full_text[:start]
    after = full_text[end + len(THINK_CLOSE):]
    return (before.strip() + "\n" + after.strip()).strip(), full_text[inner:end], False


@dataclass(frozen=True)
class BackendConfig:
    """HTTP backend settings, including the sampling parameters every request
    carries; the auth token is named by env var, never inline."""

    endpoint: str
    model: str
    auth_env: str | None = None
    timeout_s: float = 600.0
    max_attempts: int = 3
    backoff_base_ms: int = 250
    backoff_max_ms: int = 8000
    rps: float | None = None
    max_in_flight: int = 8
    max_response_tokens: int = 65536
    temperature: float = 0.6

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.rps is not None and self.rps <= 0:
            raise ValueError("rps must be > 0")
        if self.max_response_tokens < 1:
            raise ValueError("max_response_tokens must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        url = urlsplit(self.endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint must be an http(s) URL, got {self.endpoint!r}")


class HttpBackend:
    """Chat-completion client with retry/backoff, an in-flight cap, and an rps limit.

    Safe for concurrent use; the limiter state is shared and synchronized.
    Each thread keeps one keep-alive connection to the endpoint, and close()
    closes them all.
    """

    def __init__(self, config: BackendConfig):
        self.config = config
        url = urlsplit(config.endpoint)
        self._connection_class = (http.client.HTTPSConnection if url.scheme == "https"
                                  else http.client.HTTPConnection)
        # an explicit port keeps http.client from parsing an IPv6 host for one
        self._host = url.hostname
        self._port = url.port or self._connection_class.default_port
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._local = threading.local()
        self._connections: list[http.client.HTTPConnection] = []
        self._inflight = threading.Semaphore(config.max_in_flight)
        self._rate_lock = threading.Lock()
        self._next_allowed = 0.0

    def _throttle(self) -> None:
        if self.config.rps is None:
            return
        with self._rate_lock:
            now = time.monotonic()
            wait = self._next_allowed - now
            self._next_allowed = max(now, self._next_allowed) + 1.0 / self.config.rps
        if wait > 0:
            time.sleep(wait)

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.config.auth_env:
            token = os.environ.get(self.config.auth_env)
            if token:
                headers["Authorization"] = f"Bearer {token}"
        return headers

    def _post(self, payload: bytes) -> tuple[int, bytes]:
        """POST payload on this thread's connection; returns (status, body).

        A reused connection that the server has closed since its last response
        fails with a connection error; the request is then sent once more on a
        fresh connection. Any other failure closes the connection and raises.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connection_class(
                self._host, self._port, timeout=self.config.timeout_s)
            self._connections.append(conn)
        while True:
            reused = conn.sock is not None
            try:
                conn.request("POST", self._path, body=payload, headers=self._headers())
                response = conn.getresponse()
                return response.status, response.read()
            except BaseException as e:
                conn.close()
                if not (reused and isinstance(e, ConnectionError)):
                    raise

    def close(self) -> None:
        """Close every thread's connection; a later call reconnects."""
        for conn in self._connections:
            conn.close()

    def reasoning_call(self, request: ReasoningRequest) -> ReasoningResponse:
        body = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": request.rendered()}],
            "max_tokens": self.config.max_response_tokens,
            "temperature": self.config.temperature,
        }
        if request.request_seed is not None:
            body["seed"] = request.request_seed
        payload = json.dumps(body).encode("utf-8")

        last_error: Exception | None = None
        timeouts = 0
        with self._inflight:
            for attempt in range(self.config.max_attempts):
                if attempt > 0:
                    delay = min(
                        self.config.backoff_base_ms * 2 ** (attempt - 1),
                        self.config.backoff_max_ms,
                    )
                    time.sleep(delay / 1000.0)
                self._throttle()
                started = time.monotonic()
                try:
                    status, data = self._post(payload)
                except (OSError, http.client.HTTPException) as e:
                    last_error = e
                    timeouts += isinstance(e, TimeoutError)
                    continue
                if status != 200:
                    error = f"HTTP {status}: {data[:200].decode(errors='replace')}"
                    if status == 429 or status >= 500:
                        last_error = BackendError(error)
                        continue
                    raise BackendUnavailable(error)
                try:
                    completion = json.loads(data)
                    choice = completion["choices"][0]
                    full_text = choice["message"]["content"]
                    if not isinstance(full_text, str):
                        raise TypeError(f"content is {full_text!r}")
                    usage = completion.get("usage") or {}
                    prompt_tokens = int(usage.get("prompt_tokens", 0))
                    completion_tokens = int(usage.get("completion_tokens", 0))
                except (ValueError, LookupError, TypeError, AttributeError) as e:
                    # a 200 whose body is not a completion is retried like a 5xx
                    last_error = BackendError(f"malformed response body: {e!r}")
                    continue
                if choice.get("finish_reason") == "length":
                    raise ResponseTruncated(
                        "completion hit the response token budget",
                        partial_text=full_text,
                    )
                summary, thinking, malformed = strip_thinking(full_text)
                return ReasoningResponse(
                    full_text=full_text,
                    summary_text=summary,
                    thinking=thinking,
                    prompt_tokens=prompt_tokens,
                    completion_tokens=completion_tokens,
                    latency_s=time.monotonic() - started,
                    malformed_thinking=malformed,
                )
        if timeouts == self.config.max_attempts:
            raise BackendTimeout(f"all {self.config.max_attempts} attempts timed out") from last_error
        raise BackendUnavailable(
            f"retries exhausted after {self.config.max_attempts} attempts"
        ) from last_error


# ---------------------------------------------------------------------------
# Mock backend
# ---------------------------------------------------------------------------

# Wrong answers live in a fixed integer range disjoint from real answers,
# giving a controllable collision rate between diverging incorrect solutions.
WRONG_ANSWER_BASE = 100_000


@lru_cache(maxsize=256)
def _word_count(text: str) -> int:
    """Whitespace word count, the mock's token count. Memoized: the mock
    sees the same prompts, questions and summaries over and over."""
    return len(text.split())


@dataclass(frozen=True)
class MockSpec:
    """Markov parameterization of a simulated reasoner.

    alpha / beta are the verification pass rates given an Incorrect / Correct
    solution; transition governs correctness flips on refine.
    """

    ground_truth: AnswerKey
    initial_correct_probability: float
    transition: TransitionParams
    alpha: float = 0.1
    beta: float = 0.9
    wrong_answer_space: int = 100

    def __post_init__(self):
        for name in ("initial_correct_probability", "alpha", "beta"):
            _check_prob(name, getattr(self, name))
        space = self.wrong_answer_space
        if not isinstance(space, int) or isinstance(space, bool):
            raise ValueError(f"wrong_answer_space must be an integer, not {space!r}")
        if space < 1:
            raise ValueError("wrong_answer_space must be >= 1")


class MockBackend:
    """Backend double that realizes the mock spec behind reasoning_call.

    The request kind comes from the context's segment count (2 solve, 3
    verify, 5 refine) and the hidden correctness from the answer in the prior
    solution, so the mock is a pure function of (spec, request) and
    resume-safe.
    """

    def __init__(self, spec: MockSpec):
        self.spec = spec
        self._lock = threading.Lock()
        self.call_count = 0

    def reasoning_call(self, request: ReasoningRequest) -> ReasoningResponse:
        """A solve is correct with probability c0. A verify passes with
        probability beta on a correct solution and alpha on an incorrect one.
        A refine flips correctness with probability p_ci from correct and p_ic
        from incorrect. All draws come from one generator seeded by the
        request seed; an incorrect solution's answer is the next draw."""
        spec, context, seed = self.spec, request.context, request.request_seed
        n = len(context)
        if seed is None:
            raise ValueError("mock backend requires request_seed")
        if n not in (2, 3, 5):
            raise ValueError(f"cannot classify request with {n} context segments")
        with self._lock:
            self.call_count += 1
        rng = random.Random(seed)
        if n == 2:
            correct = rng.random() < spec.initial_correct_probability
        else:
            correct = extract_answer(context[1]) == spec.ground_truth
            flip = spec.transition.p_ci if correct else spec.transition.p_ic
            if n == 5 and rng.random() < flip:
                correct = not correct
        if n == 3:
            passed = rng.random() < (spec.beta if correct else spec.alpha)
            thinking = f"checking each step (trace {seed})"
            summary = ("Verification report: the solution was checked step by step.\n"
                       f"\\boxed{{{int(passed)}}}")
        else:
            answer = spec.ground_truth.canonical
            if not correct:
                wrong = str(WRONG_ANSWER_BASE + rng.randrange(spec.wrong_answer_space))
                answer = (wrong if wrong != answer
                          else str(WRONG_ANSWER_BASE + spec.wrong_answer_space))
            thinking = f"working on it (trace {seed})"
            summary = ("After reworking the key steps, the result follows.\n"
                       f"Final answer: \\boxed{{{answer}}}")
        # the delimiters join the thinking's end words; the thinking holds the
        # seed, so only the summary's count is memoized
        return ReasoningResponse(
            full_text=f"{THINK_OPEN}{thinking}{THINK_CLOSE}\n{summary}",
            summary_text=summary, thinking=thinking,
            prompt_tokens=sum(map(_word_count, context)),
            completion_tokens=len(thinking.split()) + _word_count(summary))


class MockBackendProvider:
    """Hands each problem a mock backend whose ground truth is that problem's
    answer; all other spec parameters are shared."""

    def __init__(self, spec: MockSpec):
        self.spec = spec
        self._lock = threading.Lock()
        self._backends: dict[str, MockBackend] = {}

    def for_problem(self, problem) -> MockBackend:
        truth = problem.answer if problem.answer is not None else self.spec.ground_truth
        with self._lock:
            backend = self._backends.get(problem.problem_id)
            if backend is None:
                backend = MockBackend(dataclasses.replace(self.spec, ground_truth=truth))
                self._backends[problem.problem_id] = backend
            return backend


def mock_spec_from_dict(d: dict) -> MockSpec:
    """Build a MockSpec from a config-file mock section; an absent alpha, beta
    or wrong_answer_space takes MockSpec's default."""
    return MockSpec(
        ground_truth=normalize_answer(str(d["ground_truth"])),
        initial_correct_probability=d.get("initial_correct_probability", 0.0),
        transition=TransitionParams(p_ic=d["p_ic"], p_ci=d["p_ci"]),
        **{k: d[k] for k in ("alpha", "beta", "wrong_answer_space") if k in d},
    )
