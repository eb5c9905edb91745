"""Candidate generation, label verification, and greedy replacement selection.

The generator produces rewrite candidates for a document; an independent
verifier session must assign a candidate the document's original label
before it can replace the original. Among verified candidates, the one with
the lowest shortcut score wins, and only if it strictly improves on the
original; otherwise the original is kept.

Verification is lazy. :func:`select_replacement` scores a document's
candidates once and lists those that strictly improve on the original, best
first by (score, text); the first of them that the verifier confirms wins.
Walking that list and stopping at the first confirmed candidate picks the
same winner as verifying every candidate first, with fewer verifier calls.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .corpus import LabeledDocument, is_json_int, is_json_number, replace_text
from .errors import BackendError, ConfigError, DataError
from .surface import ClassLedger, TokenTable, score_against, surface_embedding

log = logging.getLogger("razor")


@dataclass(frozen=True)
class PromptTemplate:
    """Instruction templates with {text}, {context}, {label_name} and
    {label_names} placeholders ({candidate} for verification)."""

    instruction: str
    verify_instruction: str


DEFAULT_TEMPLATES: dict[str, PromptTemplate] = {
    "single": PromptTemplate(
        instruction=(
            "Rewrite the following text with different wording while keeping its "
            "meaning, so that its label is still \"{label_name}\".\n"
            "Text: {text}\n"
            "Answer with the rewritten text only."
        ),
        verify_instruction=(
            "Classify the following text. Answer with exactly one of: {label_names}.\n"
            "Text: {candidate}"
        ),
    ),
    "claim_evidence": PromptTemplate(
        instruction=(
            "Given the evidence below, rewrite the claim with different wording so "
            "that the evidence still \"{label_name}\" the rewritten claim.\n"
            "Evidence: {context}\n"
            "Claim: {text}\n"
            "Answer with the rewritten claim only."
        ),
        verify_instruction=(
            "Evidence: {context}\n"
            "Claim: {candidate}\n"
            "Does the evidence support or refute the claim? "
            "Answer with exactly one of: {label_names}."
        ),
    ),
    "premise_hypothesis": PromptTemplate(
        instruction=(
            "Given the premise below, rewrite the hypothesis with different wording "
            "so that its relationship to the premise is still \"{label_name}\".\n"
            "Premise: {context}\n"
            "Hypothesis: {text}\n"
            "Answer with the rewritten hypothesis only."
        ),
        verify_instruction=(
            "Premise: {context}\n"
            "Hypothesis: {candidate}\n"
            "What is the relationship of the hypothesis to the premise? "
            "Answer with exactly one of: {label_names}."
        ),
    ),
}


@dataclass(frozen=True)
class GeneratorConfig:
    top_p: float = 0.9
    temperature: float = 0.7
    verifier_temperature: float = 0.0
    candidates_per_doc: int = 3
    max_retries: int = 2
    backend: str = "mock"
    model: str = ""

    def __post_init__(self):
        for name in ("candidates_per_doc", "max_retries"):
            if not is_json_int(value := getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("top_p", "temperature", "verifier_temperature"):
            if not is_json_number(value := getattr(self, name)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        for name in ("backend", "model"):
            if not isinstance(value := getattr(self, name), str):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        if not (0.0 < self.top_p <= 1.0):
            raise ConfigError(f"top_p must be in (0, 1], got {self.top_p}")
        for name in ("temperature", "verifier_temperature"):
            if (value := getattr(self, name)) < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if self.candidates_per_doc < 1:
            raise ConfigError(f"candidates_per_doc must be >= 1, got {self.candidates_per_doc}")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclass(frozen=True)
class RewriteCandidate:
    """A scoreable rewrite: its text, the document with that text, and its unit."""

    text: str
    document: LabeledDocument
    unit: np.ndarray = field(compare=False)


def _bindings(doc: LabeledDocument, label_names: Mapping[int, str], schema: str):
    """The template of ``doc``'s schema (a document without context uses the
    single-text one) and the placeholder values every prompt shares."""
    if doc.label not in label_names:
        raise ConfigError(f"no name declared for label {doc.label}")
    template = DEFAULT_TEMPLATES[schema if doc.context_text else "single"]
    return template, {
        "context": doc.context_text or "",
        "label_name": label_names[doc.label],
        "label_names": ", ".join(label_names[k] for k in sorted(label_names)),
    }


def build_prompt(
    doc: LabeledDocument, label_names: Mapping[int, str], schema: str = "single"
) -> str:
    """Render the generation prompt for one document. The original label name
    is always included so rewrites preserve it."""
    template, bindings = _bindings(doc, label_names, schema)
    return template.instruction.format(text=doc.mutable_text, **bindings)


def build_verify_prompt(
    candidate: str, doc: LabeledDocument, label_names: Mapping[int, str], schema: str = "single"
) -> str:
    template, bindings = _bindings(doc, label_names, schema)
    return template.verify_instruction.format(candidate=candidate, **bindings)


def generate_candidates(
    doc: LabeledDocument,
    backend,
    config: GeneratorConfig,
    label_names: Mapping[int, str],
    schema: str = "single",
) -> list[str]:
    """Up to ``candidates_per_doc`` distinct non-empty rewrites of ``doc``.

    The backend is asked for all ``candidates_per_doc`` answers in one
    request, and again for the rest while it returns fewer (an endpoint that
    ignores ``n`` answers one per request). Candidates identical to the
    original text are dropped; an empty result signals keep-original.
    Transport failures surface as BackendError after the backend's retries
    are exhausted.
    """
    prompt = build_prompt(doc, label_names, schema)
    answers: list[str] = []
    while (want := config.candidates_per_doc - len(answers)) > 0:
        texts = backend.generate(
            prompt, doc, config.temperature, config.top_p, config.max_retries, n=want
        )
        if not texts:
            raise BackendError(f"backend returned no rewrite for document {doc.id}")
        answers += texts[:want]
    seen: set[str] = set()
    out: list[str] = []
    for raw in answers:
        text = raw.strip()
        if not text or text == doc.mutable_text.strip():
            continue
        if text in seen:
            continue
        seen.add(text)
        out.append(text)
    return out


@functools.cache
def _matcher(name: str) -> re.Pattern:
    """The compiled pattern of :func:`_names` for ``name``, built once per name."""
    return re.compile(rf"(?<!\w){re.escape(name)}(?!\w)", re.IGNORECASE)


def _names(text: str, name: str) -> bool:
    """Whether ``text`` names a label called ``name``: the verifier's rule, a
    case-insensitive whole-word match."""
    return _matcher(name).search(text) is not None


def parse_verifier_response(response: str, label_names: Mapping[int, str]) -> Optional[int]:
    """Label whose name occurs in the response, if exactly one does
    (:func:`_names`); None otherwise."""
    hits = [label for label, name in label_names.items() if _names(response, name)]
    return hits[0] if len(hits) == 1 else None


def check_label_names(label_names: Mapping[int, str]) -> None:
    """Raise DataError when one label's name names another's: an answer with
    the longer name names both, so :func:`parse_verifier_response` would
    reject every candidate of that label."""
    for label, name in label_names.items():
        for other, other_name in label_names.items():
            if other != label and _names(name, other_name):
                (a, a_name), (b, b_name) = sorted([(label, name), (other, other_name)])
                raise DataError(
                    f"labels {a} ({a_name!r}) and {b} ({b_name!r}) cannot be told apart "
                    f"by the verifier: an answer naming {name!r} also names {other_name!r}"
                )


def verify_label(
    candidate: str,
    doc: LabeledDocument,
    backend,
    config: GeneratorConfig,
    label_names: Mapping[int, str],
    schema: str = "single",
) -> bool:
    """True when the verifier assigns ``candidate`` the document's original
    label. Responses naming zero or several labels reject the candidate."""
    prompt = build_verify_prompt(candidate, doc, label_names, schema)
    response = backend.verify(
        prompt, candidate, doc, dict(label_names), config.verifier_temperature, config.max_retries
    )
    parsed = parse_verifier_response(response, label_names)
    if parsed is None:
        log.warning(
            "verifier response for document %s names no single label; rejecting candidate",
            doc.id,
        )
        return False
    return parsed == doc.label


def embed_candidates(
    docs: list[LabeledDocument],
    texts: list[list[str]],
    stats: TokenTable,
    lam: int,
) -> list[list[RewriteCandidate]]:
    """The scoreable candidates among each document's rewrite ``texts``
    (``texts[j]`` for ``docs[j]``), in ``texts`` order. Every text is
    tokenized once and embedded against the frozen ``stats``, all of them
    together, ``BLOCK_DOCS`` at a time. Where a row's bits do not depend on
    its block (a BLAS kernel matter; see ``surface._embed_block``),
    candidates with the same tokens tie exactly. A text that is
    empty, shorter than 2 tokens, has the original's tokens (so the
    original's embedding: no improvement) or embeds to zero makes no
    candidate."""
    trials: list[tuple[int, str, LabeledDocument]] = []
    for j, (doc, doc_texts) in enumerate(zip(docs, texts)):
        for text in doc_texts:
            try:
                trial = replace_text(doc, text)
            except DataError:
                continue
            if len(trial.tokens) >= 2 and trial.tokens != doc.tokens:
                trials.append((j, text, trial))
    units = surface_embedding([trial for _, _, trial in trials], stats, lam)
    candidates: list[list[RewriteCandidate]] = [[] for _ in docs]
    for (j, text, trial), unit in zip(trials, units):
        if unit.any():
            candidates[j].append(RewriteCandidate(text, trial, unit))
    return candidates


def select_replacement(
    doc: LabeledDocument,
    candidates: list[RewriteCandidate],
    ledger: ClassLedger,
    doc_unit: np.ndarray,
) -> list[RewriteCandidate]:
    """The candidates whose shortcut score against the ledger's current
    opposite-class sum is strictly below the original's (unit vector
    ``doc_unit``), lowest score first, ties to the smaller text. The first
    one the verifier confirms replaces the original with its document and
    unit; if none does, the original is kept. No backend call is made here."""
    opposite_sum, opposite_count = ledger.opposite(doc.label)
    bound = score_against(doc_unit, opposite_sum, opposite_count)
    scored = [(score_against(c.unit, opposite_sum, opposite_count), c.text, c) for c in candidates]
    scored.sort(key=lambda entry: entry[:2])
    return [cand for score, _, cand in scored if score < bound]
