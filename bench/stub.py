"""Loopback chat-completions stub with the mock backend's semantics.

Run as its own process so that its Python work does not compete with the
program under test for the interpreter lock:

    python3 bench/stub.py SRC_DIR CONFIG_JSON

CONFIG_JSON holds {"delay_ms", "spec", "problems"}. The stub prints
"PORT <n>" once it listens on 127.0.0.1. Each POST is answered after a fixed
delay by the problem's MockBackend, called with the request's "seed", so an
HTTP run commits exactly what the same run on MockBackendProvider commits.
GET /stats returns the request count, each request's service time and the
mock's own time per call (excluding nested answer extraction).
"""

from __future__ import annotations

import json
import signal
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def serve(src: str, config: dict) -> None:
    sys.path.insert(0, src)
    from selfevolve import backend
    from selfevolve.answers import normalize_answer
    from selfevolve.backend import (CONTEXT_SEPARATOR, MockBackendProvider,
                                    ReasoningRequest)
    from selfevolve.engine import Problem

    spec = backend.mock_spec_from_dict(config["spec"])
    provider = MockBackendProvider(spec)
    by_statement = {}
    for i, p in enumerate(config["problems"]):
        problem = Problem(f"p{i}", p["statement"], normalize_answer(p["answer"]))
        by_statement[p["statement"]] = provider.for_problem(problem)
    delay_s = config["delay_ms"] / 1000.0

    # The mock's own time excludes its nested answer extraction, so the
    # extraction calls made inside backend.py are timed per thread.
    local = threading.local()
    extract = backend.extract_answer

    def timed_extract(text):
        t0 = time.perf_counter()
        try:
            return extract(text)
        finally:
            local.extract_s = getattr(local, "extract_s", 0.0) + time.perf_counter() - t0

    backend.extract_answer = timed_extract

    lock = threading.Lock()
    service_s: list[float] = []
    mock_self_us: list[float] = []

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            started = time.perf_counter()
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            parts = tuple(body["messages"][0]["content"].split(CONTEXT_SEPARATOR))
            question = parts[1] if len(parts) == 2 else parts[0]
            mock = by_statement[question]
            local.extract_s = 0.0
            t0 = time.perf_counter()
            response = mock.reasoning_call(
                ReasoningRequest(context=parts, request_seed=body["seed"]))
            own_us = (time.perf_counter() - t0 - local.extract_s) * 1e6
            time.sleep(max(0.0, delay_s - (time.perf_counter() - started)))
            self._reply({
                "choices": [{"message": {"role": "assistant",
                                         "content": response.full_text},
                             "finish_reason": "stop"}],
                "usage": {"prompt_tokens": response.prompt_tokens,
                          "completion_tokens": response.completion_tokens},
            })
            with lock:
                service_s.append(time.perf_counter() - started)
                mock_self_us.append(own_us)

        def do_GET(self):
            with lock:
                stats = {"requests": len(service_s), "service_s": list(service_s),
                         "mock_self_us": list(mock_self_us)}
            self._reply(stats)

        def _reply(self, obj: dict) -> None:
            payload = json.dumps(obj).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    class Server(ThreadingHTTPServer):
        daemon_threads = True

        def get_request(self):
            # Without TCP_NODELAY a keep-alive response waits on delayed ACK.
            sock, addr = super().get_request()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock, addr

    server = Server(("127.0.0.1", 0), Handler)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.02)
    finally:
        server.server_close()


if __name__ == "__main__":
    serve(sys.argv[1], json.loads(sys.argv[2]))
