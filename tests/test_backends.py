import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from razor.backends import HttpBackend, MockBackend
from razor.corpus import make_document
from razor.errors import BackendError, ConfigError

LABELS = {0: "supports", 1: "refutes"}
DOC = make_document("d1", "the claim text", 1, context_text="the evidence")


class _Handler(BaseHTTPRequestHandler):
    server_version = "stub"

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        self.server.requests.append(
            {"path": self.path, "auth": self.headers.get("Authorization"), "body": body}
        )
        if self.server.fail_next > 0:
            self.server.fail_next -= 1
            self.send_response(500)
            self.end_headers()
            return
        payload = {"choices": [{"message": {"role": "assistant", "content": self.server.reply}}]}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, fmt, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.requests = []
    server.reply = "stub reply"
    server.fail_next = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=2)


def backend_for(server, **kw):
    url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    kw.setdefault("retry_backoff", 0.0)
    return HttpBackend("test-model", base_url=url, api_key="sekret", **kw)


class TestHttpBackend:
    def test_request_shape_and_auth(self, stub_server):
        backend = backend_for(stub_server)
        out = backend.generate("rewrite this please", DOC, temperature=0.7, top_p=0.9, max_retries=0)
        assert out == "stub reply"
        req = stub_server.requests[-1]
        assert req["auth"] == "Bearer sekret"
        assert req["body"] == {
            "model": "test-model",
            "messages": [{"role": "user", "content": "rewrite this please"}],
            "temperature": 0.7,
            "top_p": 0.9,
        }

    def test_retry_then_success(self, stub_server):
        stub_server.fail_next = 2
        backend = backend_for(stub_server)
        out = backend.generate("prompt", DOC, 0.7, 0.9, max_retries=2)
        assert out == "stub reply"
        assert len(stub_server.requests) == 3

    def test_failure_after_retries(self, stub_server):
        stub_server.fail_next = 10
        backend = backend_for(stub_server)
        with pytest.raises(BackendError):
            backend.generate("prompt", DOC, 0.7, 0.9, max_retries=2)
        assert len(stub_server.requests) == 3

    def test_verify_uses_given_temperature(self, stub_server):
        stub_server.reply = "refutes"
        backend = backend_for(stub_server)
        out = backend.verify("is it so?", "candidate", DOC, LABELS, temperature=0.0, max_retries=0)
        assert out == "refutes"
        assert stub_server.requests[-1]["body"]["temperature"] == 0.0

    def test_env_configuration(self, stub_server, monkeypatch):
        url = f"http://127.0.0.1:{stub_server.server_address[1]}/chat"
        monkeypatch.setenv("RAZOR_API_BASE", url)
        monkeypatch.setenv("RAZOR_API_KEY", "envkey")
        backend = HttpBackend("m", retry_backoff=0.0)
        backend.generate("p", DOC, 0.5, 0.9, 0)
        assert stub_server.requests[-1]["auth"] == "Bearer envkey"
        assert stub_server.requests[-1]["path"] == "/chat"

    def test_missing_key_is_config_error(self, monkeypatch):
        monkeypatch.delenv("RAZOR_API_KEY", raising=False)
        monkeypatch.setenv("RAZOR_API_BASE", "http://127.0.0.1:1/x")
        with pytest.raises(ConfigError, match="RAZOR_API_KEY"):
            HttpBackend("m")

    def test_missing_base_is_config_error(self, monkeypatch):
        monkeypatch.delenv("RAZOR_API_BASE", raising=False)
        with pytest.raises(ConfigError, match="RAZOR_API_BASE"):
            HttpBackend("m", api_key="k")

    def test_call_log_counts(self, stub_server):
        backend = backend_for(stub_server)
        backend.generate("p", DOC, 0.7, 0.9, 0)
        backend.verify("p", "c", DOC, LABELS, 0.0, 0)
        assert backend.calls.count("generate") == 1
        assert backend.calls.count("verify") == 1
        assert backend.calls.entries == [("generate", "d1"), ("verify", "d1")]


class TestMockBackend:
    def test_rules_file_loading(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(
            json.dumps(
                {
                    "generation": [{"pattern": "\\bnot\\b\\s*", "replacement": ""}],
                    "verdict": "confirm",
                    "seed": 9,
                }
            )
        )
        backend = MockBackend.from_rules_file(path)
        doc = make_document("d", "it is not fine", 0)
        assert backend.generate("p", doc, 0.7, 0.9, 0) == "it is fine"
        assert backend.verify("p", "c", doc, LABELS, 0.0, 0) == "supports"

    def test_bad_verdict_rejected(self):
        with pytest.raises(ConfigError):
            MockBackend([], verdict="maybe")

    def test_bad_rule_rejected(self):
        with pytest.raises(ConfigError):
            MockBackend([{"pattern": "("}])

    def test_fail_after_generate_calls(self):
        backend = MockBackend([], fail_after_generate_calls=2)
        doc = make_document("d", "text here", 0)
        backend.generate("p", doc, 0.7, 0.9, 0)
        backend.generate("p", doc, 0.7, 0.9, 0)
        with pytest.raises(BackendError):
            backend.generate("p", doc, 0.7, 0.9, 0)
        assert backend.calls.count("generate") == 2

    def test_flip_verdict_names_other_label(self):
        backend = MockBackend([], verdict="flip")
        doc = make_document("d", "text here", 1)
        assert backend.verify("p", "c", doc, LABELS, 0.0, 0) == "supports"
