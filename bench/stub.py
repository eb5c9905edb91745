"""Deterministic loopback chat-completion endpoint for the ``short-http`` workload.

Run as ``python3 bench/stub.py --rules rules.json``. It binds an ephemeral
port on 127.0.0.1, prints the port on its first stdout line, and serves until
terminated.

Answers depend only on the request content:

* a generation prompt gets what razor's ``MockBackend`` with the workload's
  rules generates for its text; the label name in the prompt is recorded
  against the candidate when the candidate differs from the text;
* a verification prompt gets back the label name recorded for its candidate.

Every successful answer waits ``DELAY_S`` first (the service time).
Transient failures are injected by arrival count: every ``FAIL_EVERY``-th
request is answered 503 at once, unless that exact request content has
already failed once, so a retry always succeeds. ``GET /stats`` reports the
requests received and failed per role; the benchmark compares them with the
client's own call counts, which catches a doc sent twice. ``GET /reset``
clears the counts and the injection state, so that every run sees the same
failure rate.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from workloads import mock_rewrite

SRC = Path(__file__).resolve().parent.parent / "src"

GENERATE = re.compile(
    r'so that its label is still "(?P<label>[^"\n]*)"\.\nText: (?P<text>.*)\n'
    r"Answer with the rewritten text only\.\Z",
    re.DOTALL,
)
VERIFY = re.compile(r"Answer with exactly one of: [^\n]*\.\nText: (?P<candidate>.*)\Z", re.DOTALL)
DELAY_S = 0.01
FAIL_EVERY = 50


class StubState:
    def __init__(self, rules: list[dict], delay: float, fail_every: int):
        self.rules = rules
        self.delay = delay
        self.fail_every = fail_every
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.received = {"generate": 0, "verify": 0, "unknown": 0}
            self.failed = {"generate": 0, "verify": 0, "unknown": 0}
            self.arrivals = 0
            self.failed_once: set[str] = set()
            self.label_of: dict[str, set[str]] = {}

    def answer(self, content: str) -> tuple[int, str]:
        """(HTTP status, reply text) for one request's prompt."""
        gen = GENERATE.search(content)
        ver = None if gen else VERIFY.search(content)
        role = "generate" if gen else "verify" if ver else "unknown"
        with self.lock:
            self.arrivals += 1
            self.received[role] += 1
            if role == "unknown":
                self.failed[role] += 1
                return 400, ""
            if self.arrivals % self.fail_every == 0 and content not in self.failed_once:
                self.failed_once.add(content)
                self.failed[role] += 1
                return 503, ""
        time.sleep(self.delay)
        if gen:
            text = gen.group("text")
            candidate = mock_rewrite(self.rules, text)
            if candidate != text.strip():
                with self.lock:
                    self.label_of.setdefault(candidate, set()).add(gen.group("label"))
            return 200, candidate
        with self.lock:
            labels = sorted(self.label_of.get(ver.group("candidate"), ()))
        if len(labels) == 1:
            return 200, labels[0]
        # No recorded label, or several: the reply names zero or two labels,
        # which razor rejects, so the output check sees the difference.
        return 200, "unsure: " + " ".join(labels)

    def stats(self) -> dict:
        with self.lock:
            return {"received": dict(self.received), "failed": dict(self.failed)}


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            try:
                body = json.loads(self.rfile.read(length))
                content = body["messages"][0]["content"]
            except (ValueError, KeyError, IndexError, TypeError):
                self._send(400, {"error": "bad request"})
                return
            status, text = state.answer(content)
            if status != 200:
                self._send(status, {"error": "injected failure" if status == 503 else "unknown prompt"})
                return
            self._send(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})

        def do_GET(self):
            if self.path == "/reset":
                state.reset()
            elif self.path != "/stats":
                self._send(404, {"error": "not found"})
                return
            self._send(200, state.stats())

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rules", required=True, help="mock rules JSON of the workload")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    with open(args.rules, "r", encoding="utf-8") as fh:
        rules = json.load(fh)["generation"]
    state = StubState(rules, DELAY_S, FAIL_EVERY)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
