import gc
import json
import os
import socket
import ssl
import subprocess
import sys
import threading
import urllib.parse
import warnings
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

from razor import backends
from razor.backends import HttpBackend, MockBackend
from razor.cli import main
from razor.corpus import make_document
from razor.errors import BackendError, ConfigError
from razor.rewriter import GeneratorConfig, generate_candidates

from conftest import Recording

LABELS = {0: "supports", 1: "refutes"}
DOC = make_document("d1", "the claim text", 1, context_text="the evidence")


# URLs every attempt would fail on: each is refused when the backend is built
MALFORMED_URLS = {
    "open-ipv6-bracket": ("http://[::1/v1", "Invalid IPv6 URL"),
    "port-not-a-number": ("http://127.0.0.1:notaport/v1", "notaport"),
    "port-out-of-range": ("http://127.0.0.1:99999/v1", "out of range"),
    "no-host": ("http:///v1", "no host"),
    "port-zero": ("http://127.0.0.1:0/v1", "port 0"),
    "credentials": ("http://u:p@127.0.0.1:9/v1", "credentials"),
    "space-in-host": ("http://bad host/v1", "space or control character"),
    "space-in-path": ("http://127.0.0.1:9/v 1", "space or control character"),
    "control-character-in-path": ("http://127.0.0.1:9/v\x7f1", "space or control character"),
    "non-ascii-path": ("http://127.0.0.1:9/v\u00e91", "not ASCII"),
}
# keys that are not all visible ASCII, as a bearer token is
BAD_KEYS = {"newline": "sek\nret", "return": "sek\rret", "space": "sek ret", "non-ascii": "sekr\u00e9t"}


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
            self.send_response(self.server.fail_status)
            self.send_header("Content-Length", "0")
            for name, value in self.server.fail_headers.items():
                self.send_header(name, value)
            self.end_headers()
            return
        if self.server.refuses_n and "n" in body:
            self.send_response(400)
            self.end_headers()
            return
        # one choice, or as many as "n" asks for when the stub honours it,
        # plus any extras; choice i > 0 says "<reply> i"
        wanted = body.get("n", 1) if self.server.honours_n else 1
        contents = [self.server.reply] + [
            f"{self.server.reply} {i}" for i in range(1, wanted + self.server.extra_choices)
        ]
        payload = self.server.body or {
            "choices": [{"message": {"role": "assistant", "content": c}} for c in contents]
        }
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        cut = self.server.cut_next > 0  # promise more bytes than are sent, then close
        self.server.cut_next -= cut
        self.close_connection |= cut
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data) + 100 * cut))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, fmt, *args):
        pass


class _KeepAliveHandler(_Handler):
    protocol_version = "HTTP/1.1"  # a connection stays open until the client closes it


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.requests = []
    server.reply = "stub reply"
    server.body = None  # a 200 response body (bytes, or a value sent as JSON) of another shape
    server.honours_n = False  # answer "n" choices, not one
    server.extra_choices = 0  # choices sent beyond those asked for
    server.refuses_n = False  # answer a request carrying "n" with HTTP 400
    server.fail_next = 0
    server.fail_status = 500
    server.fail_headers = {}
    server.cut_next = 0  # 200s whose body is cut short
    # a short poll interval: shutdown() waits for serve_forever's next poll
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=2)
    assert not thread.is_alive()
    server.server_close()


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

    def test_non_retryable_client_error_fails_fast(self, stub_server):
        stub_server.fail_next = 10
        stub_server.fail_status = 401
        backend = backend_for(stub_server)
        with pytest.raises(BackendError, match="HTTP 401"):
            backend.generate("prompt", DOC, 0.7, 0.9, max_retries=2)
        assert len(stub_server.requests) == 1

    @pytest.mark.parametrize("body", [
        {"choices": None},
        ["stub reply"],
        {"choices": [{"message": {"role": "assistant", "content": None}}]},
        {"choices": []},
        b"[" * 100_000,  # nested deeper than the parser recurses
    ])
    def test_malformed_answer_is_retried_then_backend_error(self, stub_server, body):
        stub_server.body = body
        backend = backend_for(stub_server)
        with pytest.raises(BackendError, match="after 3 attempt"):
            backend.generate("prompt", DOC, 0.7, 0.9, max_retries=2)
        assert len(stub_server.requests) == 3

    @pytest.mark.parametrize("status", [408, 429])
    def test_retryable_status_is_retried(self, stub_server, status):
        stub_server.fail_next = 2
        stub_server.fail_status = status
        backend = backend_for(stub_server)
        assert backend.generate("prompt", DOC, 0.7, 0.9, max_retries=2) == "stub reply"
        assert len(stub_server.requests) == 3

    @pytest.mark.parametrize("status, retry_after, backoff, timeout, slept", [
        (429, "5", 0.25, 60.0, [5, 5]),  # longer than the backoff: the header's wait
        (429, "120", 0.25, 2.0, [2.0, 2.0]),  # capped at the client's timeout
        (429, "0", 0.25, 60.0, [0.25, 0.5]),  # shorter: the backoff
        (429, "Wed, 21 Oct 2026 07:28:00 GMT", 0.25, 60.0, [0.25, 0.5]),  # a date
        (429, "soon", 0.25, 60.0, [0.25, 0.5]),  # unparseable
        (429, "5", 0.0, 60.0, [5, 5]),  # no backoff configured
        (503, "5", 0.25, 60.0, [0.25, 0.5]),  # only a 429's header counts
    ])
    def test_retry_after_on_429(
        self, stub_server, monkeypatch, status, retry_after, backoff, timeout, slept
    ):
        stub_server.fail_next = 2
        stub_server.fail_status = status
        stub_server.fail_headers = {"Retry-After": retry_after}
        delays = []
        monkeypatch.setattr(backends, "time", SimpleNamespace(sleep=delays.append))
        backend = backend_for(stub_server, retry_backoff=backoff, timeout=timeout)
        assert backend.generate("prompt", DOC, 0.7, 0.9, max_retries=2) == "stub reply"
        assert len(stub_server.requests) == 3
        assert delays == slept

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

    @pytest.mark.parametrize("url, reason", MALFORMED_URLS.values(), ids=MALFORMED_URLS.keys())
    def test_malformed_url_is_config_error(self, url, reason):
        with pytest.raises(ConfigError, match=rf"bad backend URL .*{reason}"):
            HttpBackend("m", base_url=url, api_key="k")

    @pytest.mark.parametrize("key", BAD_KEYS.values(), ids=BAD_KEYS.keys())
    def test_key_unfit_for_a_header_is_config_error(self, key):
        with pytest.raises(ConfigError, match="API key must be visible ASCII") as caught:
            HttpBackend("m", base_url="http://127.0.0.1:1/x", api_key=key)
        assert key not in str(caught.value)  # the key is not echoed

    def test_call_log_counts(self, stub_server):
        backend = Recording(backend_for(stub_server))
        backend.generate("p", DOC, 0.7, 0.9, 0)
        backend.verify("p", "c", DOC, LABELS, 0.0, 0)
        assert backend.calls.count("generate") == 1
        assert backend.calls.count("verify") == 1
        assert backend.entries == [("generate", "d1"), ("verify", "d1")]


class TestTransportFailures:
    """What the standard-library transport does when the connection or the
    reply goes wrong."""

    def test_refused_connection_is_retried_then_backend_error(self, monkeypatch):
        posts = []
        real = backends.requests

        def post(*args, **kw):
            posts.append(args)
            return real.post(*args, **kw)

        monkeypatch.setattr(backends, "requests", SimpleNamespace(post=post))
        backend = HttpBackend(
            "m", base_url=f"http://127.0.0.1:{closed_port()}/chat", api_key="k", retry_backoff=0.0
        )
        with pytest.raises(BackendError, match="after 3 attempt"):
            backend.generate("p", DOC, 0.7, 0.9, max_retries=2)
        assert len(posts) == 3

    def test_refused_connection_makes_razor_run_exit_3(self, tmp_path, monkeypatch):
        data = small_input(tmp_path)
        monkeypatch.setenv("RAZOR_API_BASE", f"http://127.0.0.1:{closed_port()}/chat")
        monkeypatch.setenv("RAZOR_API_KEY", "k")
        monkeypatch.setattr(backends, "time", SimpleNamespace(sleep=lambda s: None))
        code = main([
            "run", "--input", str(data), "--backend", "http", "--model", "m",
            "--out", str(tmp_path / "out.jsonl"),
        ])
        assert code == 3

    def test_body_cut_short_is_retried(self, stub_server):
        stub_server.cut_next = 2
        backend = backend_for(stub_server)
        assert backend.generate("prompt", DOC, 0.7, 0.9, max_retries=2) == "stub reply"
        assert len(stub_server.requests) == 3

    def test_attempts_parse_no_url(self, stub_server, monkeypatch):
        backend = backend_for(stub_server)

        def urlsplit(*args, **kw):
            raise AssertionError("a URL was parsed after the backend was built")

        monkeypatch.setattr(backends, "urlsplit", urlsplit)
        monkeypatch.setattr(urllib.parse, "urlsplit", urlsplit)
        assert backend.generate("p", DOC, 0.7, 0.9, max_retries=0) == "stub reply"
        assert stub_server.requests[-1]["path"] == "/v1/chat/completions"

    def test_query_is_sent_with_the_path(self, stub_server):
        url = f"http://127.0.0.1:{stub_server.server_address[1]}/chat?api-version=2"
        backend = HttpBackend("m", base_url=url, api_key="k", retry_backoff=0.0)
        backend.generate("p", DOC, 0.7, 0.9, max_retries=0)
        assert stub_server.requests[-1]["path"] == "/chat?api-version=2"

    def test_workers_share_one_backend(self, stub_server):
        """Worker threads share the backend's target and headers: each
        request arrives whole, with its own prompt and the key."""
        backend = backend_for(stub_server, timeout=10.0)
        prompts = [f"prompt {i}" for i in range(24)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                out = list(pool.map(lambda p: backend.generate(p, DOC, 0.7, 0.9, 0), prompts,
                                    timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert out == ["stub reply"] * len(prompts)
        received = stub_server.requests
        assert sorted(r["body"]["messages"][0]["content"] for r in received) == sorted(prompts)
        assert {r["auth"] for r in received} == {"Bearer sekret"}
        assert {r["path"] for r in received} == {"/v1/chat/completions"}

    def test_https_backend_loads_its_ca_store_once(self, monkeypatch):
        loads = []
        real = ssl.SSLContext.load_default_certs

        def load_default_certs(context, *args, **kw):
            loads.append(context)
            return real(context, *args, **kw)

        monkeypatch.setattr(ssl.SSLContext, "load_default_certs", load_default_certs)
        backend = HttpBackend(
            "m", base_url=f"https://127.0.0.1:{closed_port()}/chat", api_key="k", retry_backoff=0.0
        )
        with pytest.raises(BackendError, match="after 3 attempt"):
            backend.generate("p", DOC, 0.7, 0.9, max_retries=2)
        assert len(loads) == 1  # at construction, shared by the three attempts

    def test_https_to_a_plain_http_server_fails(self, stub_server):
        # the TLS handshake fails against a server that speaks plain HTTP
        url = f"https://127.0.0.1:{stub_server.server_address[1]}/chat"
        backend = HttpBackend("m", base_url=url, api_key="k", retry_backoff=0.0)
        with pytest.raises(BackendError, match="after 2 attempt"):
            backend.generate("prompt", DOC, 0.7, 0.9, max_retries=1)
        assert stub_server.requests == []  # no request got through in clear

    def test_redirect_fails_at_once_naming_its_location(self, stub_server):
        stub_server.fail_next = 10
        stub_server.fail_status = 301
        stub_server.fail_headers = {"Location": "https://elsewhere.example/v2/chat"}
        backend = backend_for(stub_server)
        with pytest.raises(BackendError, match="HTTP 301.*https://elsewhere.example/v2/chat"):
            backend.generate("prompt", DOC, 0.7, 0.9, max_retries=2)
        assert len(stub_server.requests) == 1

    def test_not_an_http_url_is_config_error(self):
        with pytest.raises(ConfigError, match="RAZOR_API_BASE"):
            HttpBackend("m", base_url="ftp://127.0.0.1/chat", api_key="k")

    def test_no_path_leaves_a_socket_open(self, stub_server):
        # a server that keeps connections: only the client's close ends one
        stub_server.RequestHandlerClass = _KeepAliveHandler
        backend = backend_for(stub_server, timeout=5.0)
        https = HttpBackend(
            "m", base_url=f"https://127.0.0.1:{stub_server.server_address[1]}/chat",
            api_key="k", retry_backoff=0.0, timeout=5.0,
        )
        refused = HttpBackend(
            "m", base_url=f"http://127.0.0.1:{closed_port()}/chat", api_key="k", retry_backoff=0.0
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert backend.generate("p", DOC, 0.7, 0.9, 0) == "stub reply"
            stub_server.fail_next = 1
            assert backend.generate("p", DOC, 0.7, 0.9, 1) == "stub reply"  # a 500, retried
            stub_server.cut_next = 1
            assert backend.generate("p", DOC, 0.7, 0.9, 1) == "stub reply"
            stub_server.body = b"[" * 100_000
            for client in (backend, https, refused):
                with pytest.raises(BackendError):
                    client.generate("p", DOC, 0.7, 0.9, 0)
            stub_server.body = None
            stub_server.fail_next, stub_server.fail_status = 1, 301
            with pytest.raises(BackendError, match="HTTP 301"):
                backend.generate("p", DOC, 0.7, 0.9, 0)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize(
    "url, key",
    [(url, "k") for url, _ in MALFORMED_URLS.values()] + [("http://127.0.0.1:1/x", "sek\nret")],
    ids=[*MALFORMED_URLS, "key-newline"],
)
def test_malformed_endpoint_makes_razor_run_exit_1(tmp_path, monkeypatch, capsys, url, key):
    """One line on stderr, exit 1, and no request sent."""
    posts = []
    monkeypatch.setattr(backends, "requests", SimpleNamespace(post=lambda *a, **kw: posts.append(a)))
    monkeypatch.setenv("RAZOR_API_BASE", url)
    monkeypatch.setenv("RAZOR_API_KEY", key)
    code = main([
        "run", "--input", str(small_input(tmp_path)), "--backend", "http", "--model", "m",
        "--out", str(tmp_path / "out.jsonl"),
    ])
    err = capsys.readouterr().err
    assert code == 1 and posts == []
    assert err.startswith("razor: configuration error:") and err.count("\n") == 1


def small_input(tmp_path) -> Path:
    """A 12-document single-text input file."""
    data = tmp_path / "data.jsonl"
    data.write_text("".join(
        json.dumps({"id": f"d{i}", "text": f"some words {i} tok{i % 3}", "label": i % 2})
        + "\n" for i in range(12)
    ))
    return data


def closed_port() -> int:
    """A loopback port nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# Run in a fresh process: this one imports ``http.client`` for its stub server.
IMPORTS_SCRIPT = """
import json
import sys
import threading
from types import SimpleNamespace

import razor
import razor.backends
import razor.cli
import razor.evalkit
from razor.backends import HttpBackend, MockBackend
from razor.corpus import make_document
from razor.evalkit import BiasSpec, generate_biased_corpus
from razor.pipeline import RunConfig, run_razor

dataset, rules = generate_biased_corpus(BiasSpec("zonk", corpus_size=100, seed=7))
backend = MockBackend(rules["generation"], verdict=rules["verdict"], seed=rules["seed"])
result = run_razor(dataset, RunConfig(k=10, max_iterations=2), backend)
out = {
    "mock_run": sorted({"requests", "http.client", "ssl"} & set(sys.modules)),
    "replaced": len(result.traces[0].replaced_ids),
}


class StandIn:
    def __init__(self):
        self.posted = []

    def post(self, target, **kw):
        self.posted.append(kw["json"]["n"] if "n" in kw["json"] else None)
        body = {"choices": [{"message": {"content": "a reply"}}]}
        return SimpleNamespace(status_code=200, headers={}, content=json.dumps(body).encode())


real = razor.backends.requests
stand_in = razor.backends.requests = StandIn()
http = HttpBackend("m", base_url="http://127.0.0.1:9/chat", api_key="k")
out["http_built"] = sorted({"http.client", "ssl"} & set(sys.modules))
doc = make_document("d", "some text", 0)
http.generate("p", doc, 0.7, 0.9, 0, n=3)
http.verify("p", "c", doc, {0: "a", 1: "b"}, 0.0, 0)
out["stand_in_posts"] = stand_in.posted
razor.backends.requests = real

from http.server import BaseHTTPRequestHandler, HTTPServer


class Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        data = json.dumps({"choices": [{"message": {"content": "no label here"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.server.posts += 1

    def log_message(self, *args):
        pass


server = HTTPServer(("127.0.0.1", 0), Handler)
server.posts = 0
threading.Thread(target=server.serve_forever, daemon=True).start()
url = f"http://127.0.0.1:{server.server_address[1]}/chat"
http = HttpBackend("m", base_url=url, api_key="k", retry_backoff=0.0)
run_razor(dataset, RunConfig(k=5, max_iterations=1), http)
out["http_posts"] = server.posts
out["http_run"] = "requests" in sys.modules
print(json.dumps(out))
"""


def test_no_run_imports_requests():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORTS_SCRIPT],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["mock_run"] == []  # importing razor and a mock run load none of them
    assert out["http_built"] == []  # nor does building an http backend
    assert out["replaced"] > 0
    # a stand-in assigned to ``razor.backends.requests`` gets every post
    assert out["stand_in_posts"] == [3, None]
    assert out["http_posts"] > 0
    assert out["http_run"] is False


def generate_requests(server) -> list:
    """The "n" of each request the stub received, None where it had none."""
    return [req["body"].get("n") for req in server.requests]


class TestSeveralChoices:
    """One generate request asks for all of a document's candidates."""

    def test_endpoint_honouring_n_gets_one_request(self, stub_server):
        stub_server.honours_n = True
        backend = backend_for(stub_server)
        out = generate_candidates(DOC, backend, GeneratorConfig(), LABELS)
        assert out == ["stub reply", "stub reply 1", "stub reply 2"]
        assert generate_requests(stub_server) == [3]
        assert backend.calls.count("generate") == 1

    def test_endpoint_ignoring_n_is_asked_for_the_rest(self, stub_server):
        backend = backend_for(stub_server)
        out = generate_candidates(DOC, backend, GeneratorConfig(), LABELS)
        assert out == ["stub reply"]  # three equal answers, collapsed
        assert generate_requests(stub_server) == [3, 2, None]
        assert backend.calls.count("generate") == 3

    def test_choices_beyond_n_are_dropped(self, stub_server):
        stub_server.honours_n = True
        stub_server.extra_choices = 2
        backend = backend_for(stub_server)
        assert backend.generate("p", DOC, 0.7, 0.9, 0, n=2) == ["stub reply", "stub reply 1"]
        assert backend.generate("p", DOC, 0.7, 0.9, 0) == "stub reply"

    def test_non_text_choice_is_retried_then_backend_error(self, stub_server):
        stub_server.body = {"choices": [
            {"message": {"role": "assistant", "content": "fine"}},
            {"message": {"role": "assistant", "content": 5}},
        ]}
        backend = backend_for(stub_server)
        with pytest.raises(BackendError, match="after 3 attempt"):
            backend.generate("p", DOC, 0.7, 0.9, max_retries=2, n=2)
        assert len(stub_server.requests) == 3

    def test_refused_n_falls_back_to_one_choice_per_request(self, stub_server, caplog):
        stub_server.refuses_n = True
        backend = backend_for(stub_server)
        config = GeneratorConfig(max_retries=0)  # the resend needs no retry
        with caplog.at_level("WARNING", logger="razor"):
            assert generate_candidates(DOC, backend, config, LABELS) == ["stub reply"]
            assert generate_requests(stub_server) == [3, None, None, None]
            # from then on, no request carries "n"
            stub_server.requests.clear()
            assert generate_candidates(DOC, backend, config, LABELS) == ["stub reply"]
            assert generate_requests(stub_server) == [None, None, None]
        # the refused request was resent, not counted as a call of its own
        assert backend.calls.count("generate") == 6
        assert [rec.message for rec in caplog.records if "refused" in rec.message] == [
            "backend refused a request for several choices (HTTP 400); "
            "asking for one choice per request from now on"
        ]

    def test_client_error_to_the_resend_fails_fast(self, stub_server):
        stub_server.fail_next = 10
        stub_server.fail_status = 401
        backend = backend_for(stub_server)
        with pytest.raises(BackendError, match="HTTP 401"):
            backend.generate("p", DOC, 0.7, 0.9, max_retries=2, n=3)
        # the request with "n", then the same without it
        assert generate_requests(stub_server) == [3, None]


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

    def test_flip_without_another_label_names_the_original(self):
        backend = MockBackend([], verdict="flip")
        doc = make_document("d", "it is fine", 1)
        assert backend.verify("p", "c", doc, LABELS, 0.0, 0) == LABELS[0]
        assert backend.verify("p", "c", doc, {1: LABELS[1]}, 0.0, 0) == LABELS[1]

    def test_bad_rule_rejected(self):
        with pytest.raises(ConfigError):
            MockBackend([{"pattern": "("}])

    RULES = [
        {"pattern": r"\bpoor\b", "replacements": ["bad", "weak", "mediocre", "thin"]},
        {"pattern": r"\bresult\b", "replacements": ["outcome", "end"]},
    ]

    def test_same_request_same_answer(self):
        """An answer depends on the request alone: another instance, asked
        in another order from several threads, answers the same."""
        docs = [make_document(f"d{i}", f"a poor result number {i}", 0) for i in range(40)]
        first = MockBackend(self.RULES, seed=3)
        answers = [first.generate("p", doc, 0.7, 0.9, 0, n=4) for doc in docs]
        # the picks differ between requests and between a request's texts,
        # so this checks something
        assert len({texts[0].split()[1] for texts in answers}) > 1
        assert all(len(set(texts)) > 1 for texts in answers[:5])

        second = MockBackend(self.RULES, seed=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                again = list(pool.map(lambda d: second.generate("p", d, 0.7, 0.9, 0, n=4),
                                      reversed(docs)))
        finally:
            sys.setswitchinterval(interval)
        assert again[::-1] == answers
        assert second.calls.count("generate") == len(docs)

    def test_fewer_texts_are_the_first_texts(self):
        backend = MockBackend(self.RULES, seed=3)
        doc = make_document("d", "a poor result", 0)
        assert backend.generate("p", doc, 0.7, 0.9, 0, n=2) == backend.generate(
            "p", doc, 0.7, 0.9, 0, n=3
        )[:2]
        assert backend.generate("p", doc, 0.7, 0.9, 0) == backend.generate(
            "p", doc, 0.7, 0.9, 0, n=1
        )[0]

    def test_draws_are_pinned(self):
        backend = MockBackend(self.RULES, seed=3)
        answers = [
            backend.generate("p", make_document(f"d{i}", "a poor result", 0), 0.7, 0.9, 0, n=4)
            for i in range(3)
        ]
        assert answers == [
            ["a weak end", "a thin end", "a mediocre end", "a mediocre outcome"],
            ["a bad end", "a bad outcome", "a weak end", "a weak end"],
            ["a thin end", "a mediocre end", "a thin end", "a bad end"],
        ]

    def test_choice_free_request_rewrites_once(self, monkeypatch):
        """Without a rule offering a choice, a request for n texts is n copies
        of the text a request without n gets, from one rewrite and one
        counted request."""
        backend = MockBackend([
            {"pattern": r"\bnot\b\s*", "replacement": ""},
            {"pattern": r"\bfine\b", "replacements": ["good"]},
        ])
        doc = make_document("d", "it is not fine", 0)
        rewrites, rewrite = [], backend._rewrite
        monkeypatch.setattr(
            backend, "_rewrite", lambda text, rng: rewrites.append(rng) or rewrite(text, rng)
        )
        assert backend.generate("p", doc, 0.7, 0.9, 0, n=3) == ["it is good"] * 3
        assert rewrites == [None] and backend.calls.count("generate") == 1
        assert backend.generate("p", doc, 0.7, 0.9, 0) == "it is good"

    def test_bench_mock_rewrite_returns_text(self, monkeypatch):
        """The benchmark's stub answers from ``mock_rewrite``, which calls
        ``generate`` without ``n`` and needs a text back."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        from workloads import mock_rewrite

        rules = [{"pattern": r"\s*\bnot\b", "replacement": ""}]
        assert mock_rewrite(rules, "it is not fine") == "it is fine"

    def test_flip_verdict_names_other_label(self):
        backend = MockBackend([], verdict="flip")
        doc = make_document("d", "text here", 1)
        assert backend.verify("p", "c", doc, LABELS, 0.0, 0) == "supports"
