"""Generation backends: an HTTP chat-completion client and a rules-driven mock.

Both expose the same two calls. ``generate`` produces rewrite candidates: one
text, or with ``n`` a list of 1..n texts from one request (the n choices of
a chat completion). ``verify`` produces the raw text the label check parses.
An HTTP backend parses its URL once, when built; each attempt is one
``http.client`` POST on a connection of its own, and mock runs never import
``http.client``. The mock answers from the request alone, so its answers do
not depend on the order of requests (under ``--jobs > 1``, or across an
abort and resume). Each backend counts its requests per role, one per
request whatever its ``n``, so pipelines can account for every request.
"""

from __future__ import annotations

import logging
import os
import re
import threading
import time
from collections import Counter
from functools import partial
from json import dumps, loads
from pathlib import Path
from random import Random
from types import SimpleNamespace
from typing import Optional
from urllib.parse import urlsplit

from .corpus import LabeledDocument, is_json_int, read_json
from .errors import BackendError, ConfigError

log = logging.getLogger("razor")

API_BASE_ENV = "RAZOR_API_BASE"
API_KEY_ENV = "RAZOR_API_KEY"

MOCK_VERDICTS = ("confirm", "flip", "garbled")
RULES_FILE_KEYS = ("generation", "verdict", "seed")
RULE_KEYS = ("pattern", "replacement", "replacements")

# client errors a later attempt can get past: request timeout, rate limit
RETRYABLE_4XX = (408, 429)


def _post(target: SimpleNamespace, json: dict, headers: dict, timeout: float) -> SimpleNamespace:
    """One POST to ``target`` (see :func:`_endpoint`) on a connection of its
    own. The reply: ``status_code``, ``headers``, ``content``."""
    from http.client import HTTPConnection, HTTPSConnection

    if target.tls is None:
        conn = HTTPConnection(target.host, target.port, timeout=timeout)
    else:
        conn = HTTPSConnection(target.host, target.port, timeout=timeout, context=target.tls)
    try:
        conn.request("POST", target.path, dumps(json).encode(), headers)
        with conn.getresponse() as r:
            return SimpleNamespace(status_code=r.status, headers=r.headers, content=r.read())
    finally:
        conn.close()


# HttpBackend's transport, named ``requests`` only for bench/tracer.py's stand-in
requests = SimpleNamespace(post=_post)


class CallLog:
    """Per-role counts of backend requests, safe to share across workers."""

    def __init__(self):
        self._counts = Counter()
        self._lock = threading.Lock()

    def add(self, role: str) -> None:
        with self._lock:
            self._counts[role] += 1

    def count(self, role: str) -> int:
        with self._lock:
            return self._counts[role]


def _reject_unknown_keys(spec: dict, known: tuple[str, ...], what: str) -> None:
    """A misspelt key would silently fall back to its default."""
    for key in spec:
        if key not in known:
            raise ConfigError(f"{what}: unknown key {key!r}; use one of {known}")


def _refused(status: int) -> bool:
    """A client error that the same request would get again."""
    return 400 <= status < 500 and status not in RETRYABLE_4XX


def _delta_seconds(value: Optional[str]) -> int:
    """The seconds a ``Retry-After`` header in delta-seconds form asks for;
    0 for an HTTP date, a missing header or anything unparseable."""
    try:
        return max(0, int(value))
    except (TypeError, ValueError):
        return 0


def _endpoint(url: str) -> SimpleNamespace:
    """The target of every attempt: ``host``, ``port``, ``path`` with its query,
    and for https ``tls``, one SSL context checking certificates against the
    system's CA store. Raise ConfigError for a URL that no attempt can use."""
    try:
        parts = urlsplit(url)
        port = parts.port  # raises for a port that is not a number or out of range
    except ValueError as exc:  # also for a bracketed host left open
        raise ConfigError(f"bad backend URL {url!r}: {exc}") from None
    if parts.scheme not in ("http", "https"):
        raise ConfigError(f"no http(s) backend URL: set {API_BASE_ENV} or pass base_url")
    path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    problem = (
        "no host" if not parts.hostname
        else f"credentials in the URL; the key goes in {API_KEY_ENV}" if "@" in parts.netloc
        else "port 0" if port == 0
        # characters http.client refuses in a request line, and a path it cannot encode
        else "a space or control character, or a path that is not ASCII"
        if re.search(r"[\x00-\x20\x7f]", parts.hostname + path) or not path.isascii()
        else None
    )
    if problem:
        raise ConfigError(f"bad backend URL {url!r}: {problem}")
    tls = None
    if parts.scheme == "https":
        import ssl

        tls = ssl.create_default_context()
        tls.set_alpn_protocols(["http/1.1"])  # as http.client's own default context
    return SimpleNamespace(host=parts.hostname, port=port or (443 if tls else 80), path=path, tls=tls)


class HttpBackend:
    """Chat-completion client. POSTs {"model", "messages", "temperature",
    "top_p"} to the configured URL, with "n" added when more than one choice
    is asked for, and reads the message content of the first n choices (at
    least one; extras are dropped). The endpoint URL comes from
    RAZOR_API_BASE and the bearer token from RAZOR_API_KEY unless given
    explicitly. Transport errors, 5xx, 408, 429 and 200s of the wrong shape
    are retried; a 3xx (redirects are not followed) or any other 4xx raises
    BackendError at once. Before the k-th retry the client sleeps
    ``retry_backoff * k`` seconds, or what a 429's ``Retry-After`` asked for
    when that is longer (at most ``timeout``).

    An endpoint that refuses a request carrying "n" with such a 4xx is taken
    not to support it: the client logs one warning, resends the request
    without "n" in the same attempt, and sends "n" no more. The caller then
    gets one text per request and asks again for the rest."""

    def __init__(
        self,
        model: str,
        base_url: Optional[str] = None,
        api_key: Optional[str] = None,
        timeout: float = 60.0,
        retry_backoff: float = 1.0,
    ):
        self.target = _endpoint(base_url or os.environ.get(API_BASE_ENV, "").strip())
        api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "").strip()
        if not api_key:
            raise ConfigError(f"no API key: set {API_KEY_ENV} or pass api_key")
        if not re.fullmatch(r"[\x21-\x7e]+", api_key):  # it goes into a header line
            raise ConfigError("the API key must be visible ASCII, without spaces or line breaks")
        self.model = model
        self.headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
        self.timeout = timeout
        self.retry_backoff = retry_backoff
        self.calls = CallLog()
        self._sends_n = True  # False once the endpoint refused a request carrying "n"
        self._lock = threading.Lock()

    def _refused_n(self, status: int) -> None:
        with self._lock:
            first, self._sends_n = self._sends_n, False
        if first:
            log.warning(
                "backend refused a request for several choices (HTTP %d); "
                "asking for one choice per request from now on",
                status,
            )

    def _complete(
        self, messages: list[dict], temperature: float, top_p: float, max_retries: int, n: int = 1
    ) -> list[str]:
        import http.client

        payload = {
            "model": self.model,
            "messages": messages,
            "temperature": temperature,
            "top_p": top_p,
        }
        if n > 1 and self._sends_n:
            payload["n"] = n
        post = partial(requests.post, self.target, headers=self.headers, timeout=self.timeout)
        last_error: Exception | None = None
        retry_after = 0.0  # the wait a 429 answer asked for
        for attempt in range(max_retries + 1):
            delay = max(self.retry_backoff * attempt, retry_after)
            if delay:
                time.sleep(delay)
            retry_after = 0.0
            try:
                resp = post(json=payload)
                if "n" in payload and _refused(resp.status_code):
                    self._refused_n(resp.status_code)
                    del payload["n"]
                    resp = post(json=payload)
                if resp.status_code == 429:
                    retry_after = min(_delta_seconds(resp.headers.get("Retry-After")), self.timeout)
                if 300 <= resp.status_code < 400:  # redirects are not followed
                    raise BackendError(
                        f"backend redirected the request (HTTP {resp.status_code}) "
                        f"to {resp.headers.get('Location')!r}"
                    )
                if _refused(resp.status_code):
                    # the same request would be refused again: bad key, bad
                    # model, malformed payload
                    raise BackendError(
                        f"backend refused the request (HTTP {resp.status_code}): "
                        f"{resp.content[:200].decode(errors='replace')}"
                    )
                if resp.status_code >= 400:
                    raise http.client.HTTPException(f"HTTP {resp.status_code}")
                texts = [c["message"]["content"] for c in loads(resp.content)["choices"][:n]]
                if not texts:
                    raise ValueError("the response holds no choices")
                for content in texts:
                    if not isinstance(content, str):
                        raise TypeError(f"message content is {type(content).__name__}, not text")
                return texts
            except (
                OSError,  # refused, reset, timed out, TLS
                http.client.HTTPException,  # a reply cut short or malformed
                KeyError,
                IndexError,
                TypeError,
                ValueError,
                RecursionError,  # a body nested too deeply to parse
            ) as exc:
                last_error = exc
                log.warning("backend attempt %d/%d failed: %r", attempt + 1, max_retries + 1, exc)
        raise BackendError(f"backend failed after {max_retries + 1} attempt(s): {last_error}")

    def generate(
        self,
        prompt: str,
        doc: LabeledDocument,
        temperature: float,
        top_p: float,
        max_retries: int,
        n: Optional[int] = None,
    ) -> str | list[str]:
        """One request: its text, or with ``n`` a list of 1..n texts."""
        self.calls.add("generate")
        texts = self._complete(
            [{"role": "user", "content": prompt}], temperature, top_p, max_retries, n or 1
        )
        return texts[0] if n is None else texts

    def verify(
        self,
        prompt: str,
        candidate: str,
        doc: LabeledDocument,
        label_names: dict[int, str],
        temperature: float,
        max_retries: int,
    ) -> str:
        self.calls.add("verify")
        return self._complete(
            [{"role": "user", "content": prompt}], temperature, 1.0, max_retries
        )[0]


class MockBackend:
    """Deterministic stand-in driven by a rules file.

    Generation applies every regex rule to the document's text in order; a
    rule may list several ``replacements``, in which case one is picked per
    rule and text by an RNG seeded from (``seed``, the document's id, its
    text): the same request gets the same answer from any instance, in any
    order, on any thread. A request for n texts draws its picks text by
    text, so its first texts are those of a request for fewer. Without a
    rule that offers a choice, every text of a request is the same rewrite,
    made once. Verification follows a fixed policy: ``confirm`` echoes the
    document's label name, ``flip`` answers with a different declared name,
    ``garbled`` answers free text containing no label name.
    """

    def __init__(self, rules: list[dict], verdict: str = "confirm", seed: int = 0):
        if verdict not in MOCK_VERDICTS:
            raise ConfigError(f"unknown mock verdict policy {verdict!r}; use one of {MOCK_VERDICTS}")
        if not isinstance(rules, list):
            raise ConfigError(f"mock generation rules must be a list, got {rules!r}")
        self.rules = []
        for rule in rules:
            try:
                pattern = re.compile(rule["pattern"])
            except (KeyError, TypeError, re.error) as exc:
                raise ConfigError(f"bad mock rule {rule!r}: {exc}") from None
            _reject_unknown_keys(rule, RULE_KEYS, f"mock rule {rule!r}")
            replacements = rule.get("replacements", [rule.get("replacement", "")])
            if not isinstance(replacements, list) or not replacements:
                raise ConfigError(f"bad mock rule {rule!r}: replacements must be a non-empty list")
            if not all(isinstance(r, str) for r in replacements):
                raise ConfigError(f"bad mock rule {rule!r}: each replacement must be a string")
            for replacement in replacements:
                try:  # a template's group references are checked on any text
                    pattern.sub(replacement, "")
                except (IndexError, re.error) as exc:
                    raise ConfigError(
                        f"bad mock rule {rule!r}: replacement {replacement!r}: {exc}"
                    ) from None
            self.rules.append((pattern, replacements))
        if not is_json_int(seed):
            raise ConfigError(f"mock seed must be an integer, got {seed!r}")
        self.verdict = verdict
        self.seed = seed
        self.calls = CallLog()
        # seeding costs more than a rewrite: only rules with a choice need it
        self._draws = any(len(replacements) > 1 for _, replacements in self.rules)

    @classmethod
    def from_rules_file(cls, path: str | Path) -> "MockBackend":
        spec = read_json(path)
        _reject_unknown_keys(spec, RULES_FILE_KEYS, f"rules file {path}")
        return cls(
            rules=spec.get("generation", []),
            verdict=spec.get("verdict", "confirm"),
            seed=spec.get("seed", 0),
        )

    def generate(
        self,
        prompt: str,
        doc: LabeledDocument,
        temperature: float,
        top_p: float,
        max_retries: int,
        n: Optional[int] = None,
    ) -> str | list[str]:
        """One request: its text, or with ``n`` a list of n texts."""
        self.calls.add("generate")
        if self._draws:
            rng = Random(f"{self.seed}\0{doc.id}\0{doc.mutable_text}")
            texts = [self._rewrite(doc.mutable_text, rng) for _ in range(n or 1)]
        else:  # without a choice, every text is the same rewrite
            texts = [self._rewrite(doc.mutable_text, None)] * (n or 1)
        return texts[0] if n is None else texts

    def _rewrite(self, text: str, rng: Optional[Random]) -> str:
        for pattern, replacements in self.rules:
            replacement = replacements[0] if len(replacements) == 1 else rng.choice(replacements)
            text = pattern.sub(replacement, text)
        return " ".join(text.split())

    def verify(
        self,
        prompt: str,
        candidate: str,
        doc: LabeledDocument,
        label_names: dict[int, str],
        temperature: float,
        max_retries: int,
    ) -> str:
        self.calls.add("verify")
        original = label_names[doc.label]
        if self.verdict == "confirm":
            return original
        if self.verdict == "flip":
            for label in sorted(label_names):
                if label != doc.label:
                    return label_names[label]
            return original
        return "cannot tell from the given text"
