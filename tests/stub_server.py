"""Local chat-completion stub for exercising the HTTP backend offline.

Replays a scripted list of responses in request order and records every
request body it receives. A response dict may carry "delay_s", the time the
stub waits before answering it.
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
    """Scripted responses; each entry is a response dict or an int status code."""

    def __init__(self, script: list):
        self.script = list(script)
        self.requests: list[dict] = []
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                with outer._lock:
                    outer.requests.append(body)
                    entry = outer.script.pop(0) if outer.script else completion("ok")
                if isinstance(entry, int):
                    self.send_response(entry)
                    self.end_headers()
                    self.wfile.write(b"scripted error")
                    return
                time.sleep(entry.get("delay_s", 0))
                payload = json.dumps(entry).encode("utf-8")
                try:
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                except ConnectionError:
                    pass  # the client gave up on a delayed response

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
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
