"""Generation backends: an HTTP chat-completion client and a rules-driven mock.

Both expose the same two calls. ``generate`` produces one rewrite candidate,
``verify`` produces the raw text the label check parses. Generation and
verification never share a session: every HTTP request is independent, and
the mock keeps no cross-call state either. Each backend keeps an append-only
call log so pipelines can account for every request (and resume tests can
prove that no document was queried twice).
"""

from __future__ import annotations

import logging
import os
import re
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Optional

import requests

from .corpus import LabeledDocument, read_json
from .errors import BackendError, ConfigError

log = logging.getLogger("razor")

API_BASE_ENV = "RAZOR_API_BASE"
API_KEY_ENV = "RAZOR_API_KEY"

MOCK_VERDICTS = ("confirm", "flip", "garbled")


@dataclass
class CallLog:
    """Append-only record of backend traffic, safe to share across workers.
    ``entries`` keeps every (role, doc id) in call order; per-role counts are
    kept as calls are appended, so counting costs the same at any length."""

    entries: list[tuple[str, str]] = field(default_factory=list)
    _counts: Counter = field(default_factory=Counter, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def append(self, role: str, doc_id: str) -> None:
        with self._lock:
            self.entries.append((role, doc_id))
            self._counts[role] += 1

    def count(self, role: Optional[str] = None) -> int:
        with self._lock:
            return len(self.entries) if role is None else self._counts[role]


class HttpBackend:
    """Chat-completion client. POSTs {"model", "messages", "temperature",
    "top_p"} to the configured URL and reads the first choice's message
    content. The endpoint URL comes from RAZOR_API_BASE and the bearer token
    from RAZOR_API_KEY unless given explicitly."""

    def __init__(
        self,
        model: str,
        base_url: Optional[str] = None,
        api_key: Optional[str] = None,
        timeout: float = 60.0,
        retry_backoff: float = 1.0,
    ):
        base_url = base_url or os.environ.get(API_BASE_ENV, "").strip()
        api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "").strip()
        if not base_url:
            raise ConfigError(f"no backend URL: set {API_BASE_ENV} or pass base_url")
        if not api_key:
            raise ConfigError(f"no API key: set {API_KEY_ENV} or pass api_key")
        self.model = model
        self.base_url = base_url
        self.api_key = api_key
        self.timeout = timeout
        self.retry_backoff = retry_backoff
        self.calls = CallLog()

    def _complete(
        self, messages: list[dict], temperature: float, top_p: float, max_retries: int
    ) -> str:
        payload = {
            "model": self.model,
            "messages": messages,
            "temperature": temperature,
            "top_p": top_p,
        }
        headers = {
            "Authorization": f"Bearer {self.api_key}",
            "Content-Type": "application/json",
        }
        last_error: Exception | None = None
        for attempt in range(max_retries + 1):
            if attempt and self.retry_backoff:
                time.sleep(self.retry_backoff * attempt)
            try:
                resp = requests.post(
                    self.base_url, json=payload, headers=headers, timeout=self.timeout
                )
                resp.raise_for_status()
                body = resp.json()
                return str(body["choices"][0]["message"]["content"])
            except (requests.RequestException, KeyError, IndexError, ValueError) as exc:
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
    ) -> str:
        self.calls.append("generate", doc.id)
        return self._complete(
            [{"role": "user", "content": prompt}], temperature, top_p, max_retries
        )

    def verify(
        self,
        prompt: str,
        candidate: str,
        doc: LabeledDocument,
        label_names: dict[int, str],
        temperature: float,
        max_retries: int,
    ) -> str:
        self.calls.append("verify", doc.id)
        return self._complete([{"role": "user", "content": prompt}], temperature, 1.0, max_retries)


class MockBackend:
    """Deterministic stand-in driven by a rules file.

    Generation applies every regex rule to the document's text in order; a
    rule may list several ``replacements``, in which case the seeded RNG
    picks one per call. Verification follows a fixed policy: ``confirm``
    echoes the document's label name, ``flip`` answers with a different
    declared name, ``garbled`` answers free text containing no label name.

    ``fail_after_generate_calls`` injects a transport failure once that many
    generate calls have been served, for abort/resume testing.
    """

    def __init__(
        self,
        rules: list[dict],
        verdict: str = "confirm",
        seed: int = 0,
        fail_after_generate_calls: Optional[int] = None,
    ):
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
            replacements = rule.get("replacements")
            if replacements is None:
                replacements = [rule.get("replacement", "")]
            if not isinstance(replacements, list) or not replacements:
                raise ConfigError(f"bad mock rule {rule!r}: replacements must be a non-empty list")
            self.rules.append((pattern, [str(r) for r in replacements]))
        self.verdict = verdict
        self.fail_after_generate_calls = fail_after_generate_calls
        self.calls = CallLog()
        self._rng = Random(seed)
        self._lock = threading.Lock()

    @classmethod
    def from_rules_file(cls, path: str | Path, **overrides) -> "MockBackend":
        spec = read_json(path)
        kwargs = dict(
            rules=spec.get("generation", []),
            verdict=spec.get("verdict", "confirm"),
            seed=int(spec.get("seed", 0)),
            fail_after_generate_calls=spec.get("fail_after_generate_calls"),
        )
        kwargs.update(overrides)
        return cls(**kwargs)

    def generate(
        self,
        prompt: str,
        doc: LabeledDocument,
        temperature: float,
        top_p: float,
        max_retries: int,
    ) -> str:
        with self._lock:
            served = self.calls.count("generate")
            if (
                self.fail_after_generate_calls is not None
                and served >= self.fail_after_generate_calls
            ):
                raise BackendError(
                    f"mock transport failure injected after {served} generate call(s)"
                )
            self.calls.append("generate", doc.id)
            text = doc.mutable_text
            for pattern, replacements in self.rules:
                replacement = (
                    replacements[0]
                    if len(replacements) == 1
                    else self._rng.choice(replacements)
                )
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
        self.calls.append("verify", doc.id)
        original = label_names[doc.label]
        if self.verdict == "confirm":
            return original
        if self.verdict == "flip":
            for label in sorted(label_names):
                if label != doc.label:
                    return label_names[label]
            return original
        return "cannot tell from the given text"
