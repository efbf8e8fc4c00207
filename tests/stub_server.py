"""Local chat-completion stub for exercising the HTTP backend offline.

Replays a scripted list of responses in request order and records every
request body it receives, with its headers and its arrival time. A response dict may carry "delay_s", the time the
stub waits before answering it. Connections are HTTP/1.1 keep-alive; with
idle_timeout_s set, the stub closes a connection that stays idle that long.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def completion(text: str, finish_reason: str = "stop",
               prompt_tokens: int = 10, completion_tokens: int = 20) -> dict:
    return {
        "choices": [{"message": {"role": "assistant", "content": text},
                     "finish_reason": finish_reason}],
        "usage": {"prompt_tokens": prompt_tokens,
                  "completion_tokens": completion_tokens},
    }


class StubChatServer:
    """Scripted responses; each entry is a response dict or an int status code.

    Counts the connections it accepted and closed, and the most requests it
    handled at once (max_active).
    """

    def __init__(self, script: list, idle_timeout_s: float | None = None):
        self.script = list(script)
        self.requests: list[dict] = []
        self.headers: list[dict[str, str]] = []
        self.arrivals: list[float] = []  # time.monotonic() at each request's arrival
        self.connections = self.closed = self.active = self.max_active = 0
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = idle_timeout_s

            def setup(self):
                super().setup()
                with outer._lock:
                    outer.connections += 1

            def finish(self):
                super().finish()
                with outer._lock:
                    outer.closed += 1

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                with outer._lock:
                    outer.requests.append(body)
                    outer.headers.append(dict(self.headers))
                    outer.arrivals.append(time.monotonic())
                    entry = outer.script.pop(0) if outer.script else completion("ok")
                    outer.active += 1
                    outer.max_active = max(outer.max_active, outer.active)
                if isinstance(entry, int):
                    status, payload = entry, b"scripted error"
                else:
                    status, payload = 200, json.dumps(entry).encode("utf-8")
                    time.sleep(entry.get("delay_s", 0))
                # counted out before replying, so that a client slot freed by
                # this reply is never seen as overlapping it
                with outer._lock:
                    outer.active -= 1
                try:
                    self._reply(status, payload)
                except ConnectionError:
                    pass  # the client gave up on a delayed response

            def _reply(self, status: int, payload: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # keep-alive handlers may still wait on a client's idle connection
        self._server.block_on_close = False
        # a short poll lets shutdown() return promptly when a test ends
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.01}, daemon=True)

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
