"""One reasoning call: HTTP chat-completion client plus a Markov-parameterized mock.

Every call is stateless: the full context is sent as a single user message,
and only the summarized solution (thinking block removed) flows downstream.
The raw text and the thinking are kept on the response for persistence.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from math import inf
from typing import NamedTuple
from urllib.parse import urlsplit

from .answers import AnswerKey, extract_answer, normalize_answer
from .markov import TransitionParams, _check_int, _check_prob

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


class ReasoningRequest(NamedTuple):
    """Context segments for one call, e.g. [q; s; p_v; v; p_r] for a refine,
    and the seed that makes its sampling reproducible."""

    context: tuple[str, ...]
    request_seed: int

    def rendered(self) -> str:
        return CONTEXT_SEPARATOR.join(self.context)


class ReasoningResponse(NamedTuple):
    full_text: str
    summary_text: str
    thinking: str
    prompt_tokens: int = 0
    completion_tokens: int = 0


def strip_thinking(full_text: str) -> tuple[str, str]:
    """Split off the first well-formed thinking block; returns (summary,
    thinking), the thinking without its delimiters.

    Text without delimiters passes through unchanged, with empty thinking. An
    unclosed opening delimiter makes everything after it the thinking and
    leaves the text before it as the summary.
    """
    start = full_text.find(THINK_OPEN)
    if start == -1:
        return full_text, ""
    inner = start + len(THINK_OPEN)
    end = full_text.find(THINK_CLOSE, inner)
    if end == -1:
        return full_text[:start].strip(), full_text[inner:]
    before = full_text[:start]
    after = full_text[end + len(THINK_CLOSE):]
    return (before.strip() + "\n" + after.strip()).strip(), full_text[inner:end]


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
        for name, minimum in (("max_attempts", 1), ("backoff_base_ms", 0),
                              ("backoff_max_ms", 0), ("max_in_flight", 1),
                              ("max_response_tokens", 1)):
            _check_int(name, getattr(self, name), minimum)
        for name, bound in (("timeout_s", ">"), ("rps", ">"), ("temperature", ">=")):
            value = getattr(self, name)
            if value is None and name == "rps":
                continue
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not (0 < value < inf if bound == ">" else 0 <= value < inf)):
                raise ValueError(f"{name} must be a finite number {bound} 0, not {value!r}")
        # a socket timeout or a sleep longer than the platform's limit overflows;
        # max_in_flight throttled calls can queue max_in_flight / rps seconds
        limit = threading.TIMEOUT_MAX
        for name, over in (("timeout_s", self.timeout_s > limit),
                           ("backoff_max_ms", self.backoff_max_ms > 1000 * limit),
                           ("rps", self.max_in_flight > (self.rps or inf) * limit)):
            if over:
                raise ValueError(f"{name} makes a wait longer than the platform's {limit:.0f} s")
        url = urlsplit(self.endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint must be an http(s) URL, got {self.endpoint!r}")


def _token_count(value) -> int:
    """A usage count the log can round-trip: a JSON int, not a bool, in [0, 2**63)."""
    if type(value) is not int or not 0 <= value < 2**63:
        raise ValueError(f"token count {value!r} is not an integer in [0, 2**63)")
    return value


class HttpBackend:
    """Chat-completion client with retry/backoff, an in-flight cap, and an rps limit.

    Safe for concurrent use; the limiter state is shared and synchronized.
    Each thread keeps one keep-alive connection to the endpoint, and close()
    closes them all.
    """

    def __init__(self, config: BackendConfig):
        import http.client
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
        self._connection_errors = (OSError, http.client.HTTPException)
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
            "seed": request.request_seed,
        }
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
                try:
                    status, data = self._post(payload)
                except self._connection_errors as e:
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
                    prompt_tokens = _token_count(usage.get("prompt_tokens", 0))
                    completion_tokens = _token_count(usage.get("completion_tokens", 0))
                except (ValueError, LookupError, TypeError, AttributeError) as e:
                    # a 200 whose body is not a completion is retried like a 5xx
                    last_error = BackendError(f"malformed response body: {e!r}")
                    continue
                if choice.get("finish_reason") == "length":
                    raise ResponseTruncated(
                        "completion hit the response token budget",
                        partial_text=full_text,
                    )
                summary, thinking = strip_thinking(full_text)
                return ReasoningResponse(
                    full_text=full_text,
                    summary_text=summary,
                    thinking=thinking,
                    prompt_tokens=prompt_tokens,
                    completion_tokens=completion_tokens,
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
        _check_int("wrong_answer_space", self.wrong_answer_space, 1)


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
        self._rng = random.Random()  # reseeded for each call, under the lock

    def reasoning_call(self, request: ReasoningRequest) -> ReasoningResponse:
        """A solve is correct with probability c0. A verify passes with
        probability beta on a correct solution and alpha on an incorrect one.
        A refine flips correctness with probability p_ci from correct and p_ic
        from incorrect. All draws come from one generator reseeded with the
        request seed; an incorrect solution's answer is the next draw."""
        spec, (context, seed), rng = self.spec, request, self._rng
        n = len(context)
        if n not in (2, 3, 5):
            raise ValueError(f"cannot classify request with {n} context segments")
        correct = n != 2 and extract_answer(context[1]) == spec.ground_truth
        with self._lock:
            self.call_count += 1
            super(random.Random, rng).seed(seed)  # Random(seed)'s state, without its wrapper
            if n == 2:
                correct = rng.random() < spec.initial_correct_probability
            elif n == 5 and rng.random() < (spec.transition.p_ci if correct
                                            else spec.transition.p_ic):
                correct = not correct
            if n == 3:
                passed = rng.random() < (spec.beta if correct else spec.alpha)
            elif not correct:
                wrong = str(WRONG_ANSWER_BASE + rng.randrange(spec.wrong_answer_space))
        if n == 3:
            thinking = f"checking each step (trace {seed})"
            summary = ("Verification report: the solution was checked step by step.\n"
                       f"\\boxed{{{int(passed)}}}")
        else:
            answer = spec.ground_truth.canonical
            if not correct:
                answer = (wrong if wrong != answer
                          else str(WRONG_ANSWER_BASE + spec.wrong_answer_space))
            thinking = f"working on it (trace {seed})"
            summary = ("After reworking the key steps, the result follows.\n"
                       f"Final answer: \\boxed{{{answer}}}")
        # the delimiters join the thinking's end words; the thinking holds the
        # seed, so only the summary's count is memoized
        return ReasoningResponse(f"{THINK_OPEN}{thinking}{THINK_CLOSE}\n{summary}", summary,
                                 thinking, sum(map(_word_count, context)),
                                 len(thinking.split()) + _word_count(summary))


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


_MOCK_KEYS = {"ground_truth", "initial_correct_probability", "p_ic", "p_ci",
              "alpha", "beta", "wrong_answer_space"}


def mock_spec_from_dict(d: dict) -> MockSpec:
    """Build a MockSpec from a config-file or manifest mock section; an absent
    alpha, beta or wrong_answer_space takes MockSpec's default."""
    unknown = set(d) - _MOCK_KEYS
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    return MockSpec(
        ground_truth=normalize_answer(str(d["ground_truth"])),
        initial_correct_probability=d.get("initial_correct_probability", 0.0),
        transition=TransitionParams(p_ic=d["p_ic"], p_ci=d["p_ci"]),
        **{k: d[k] for k in ("alpha", "beta", "wrong_answer_space") if k in d},
    )
