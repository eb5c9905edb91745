"""Candidate generation, label verification, and greedy replacement selection.

The generator produces rewrite candidates for a document; an independent
verifier session must assign each candidate the document's original label
before it can be considered. Among verified candidates, the one with the
lowest shortcut score wins, and only if it strictly improves on the original;
otherwise the original is kept.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .corpus import DEFAULT_TOKENIZER, LabeledDocument, TokenizerConfig, replace_text
from .errors import ConfigError, DataError
from .surface import ClassLedger, CorpusStats, score_against, surface_embedding, unit_vector

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
        if not (0.0 < self.top_p <= 1.0):
            raise ConfigError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.temperature < 0:
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")
        if self.candidates_per_doc < 1:
            raise ConfigError(f"candidates_per_doc must be >= 1, got {self.candidates_per_doc}")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclass
class RewriteCandidate:
    text: str
    verified: bool
    score: Optional[float] = None  # set only for verified, scoreable candidates


def _render(template: str, bindings: dict[str, str]) -> str:
    try:
        rendered = template.format_map(bindings)
    except (KeyError, IndexError) as exc:
        raise ConfigError(f"unbound prompt placeholder: {exc}") from None
    if not rendered.strip():
        raise ConfigError("prompt rendered empty")
    return rendered


def build_prompt(
    doc: LabeledDocument,
    label_names: Mapping[int, str],
    template: Optional[PromptTemplate] = None,
    schema: str = "single",
) -> str:
    """Render the generation prompt for one document. The original label name
    is always included so rewrites preserve it."""
    if doc.label not in label_names:
        raise ConfigError(f"no name declared for label {doc.label}")
    template = template or DEFAULT_TEMPLATES[schema if doc.context_text else "single"]
    bindings = {
        "text": doc.mutable_text,
        "context": doc.context_text or "",
        "label_name": label_names[doc.label],
        "label_names": ", ".join(label_names[k] for k in sorted(label_names)),
    }
    return _render(template.instruction, bindings)


def build_verify_prompt(
    candidate: str,
    doc: LabeledDocument,
    label_names: Mapping[int, str],
    template: Optional[PromptTemplate] = None,
    schema: str = "single",
) -> str:
    template = template or DEFAULT_TEMPLATES[schema if doc.context_text else "single"]
    bindings = {
        "candidate": candidate,
        "context": doc.context_text or "",
        "label_name": label_names[doc.label],
        "label_names": ", ".join(label_names[k] for k in sorted(label_names)),
    }
    return _render(template.verify_instruction, bindings)


def generate_candidates(
    doc: LabeledDocument,
    backend,
    config: GeneratorConfig,
    label_names: Mapping[int, str],
    template: Optional[PromptTemplate] = None,
    schema: str = "single",
) -> list[str]:
    """Up to ``candidates_per_doc`` distinct non-empty rewrites of ``doc``.

    Candidates identical to the original text are dropped; an empty result
    signals keep-original. Transport failures surface as BackendError after
    the backend's retries are exhausted.
    """
    prompt = build_prompt(doc, label_names, template, schema)
    seen: set[str] = set()
    out: list[str] = []
    for _ in range(config.candidates_per_doc):
        raw = backend.generate(prompt, doc, config.temperature, config.top_p, config.max_retries)
        text = raw.strip()
        if not text or text == doc.mutable_text.strip():
            continue
        if text in seen:
            continue
        seen.add(text)
        out.append(text)
    return out


def parse_verifier_response(response: str, label_names: Mapping[int, str]) -> Optional[int]:
    """Label whose name occurs in the response, if exactly one does
    (case-insensitive whole-word match); None otherwise."""
    hits = []
    for label, name in label_names.items():
        if re.search(rf"(?<!\w){re.escape(name)}(?!\w)", response, re.IGNORECASE):
            hits.append(label)
    return hits[0] if len(hits) == 1 else None


def verify_label(
    candidate: str,
    doc: LabeledDocument,
    backend,
    config: GeneratorConfig,
    label_names: Mapping[int, str],
    template: Optional[PromptTemplate] = None,
    schema: str = "single",
) -> bool:
    """True when the verifier assigns ``candidate`` the document's original
    label. Responses naming zero or several labels reject the candidate."""
    prompt = build_verify_prompt(candidate, doc, label_names, template, schema)
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


@dataclass(frozen=True)
class ReplacementDecision:
    replaced: bool
    candidate: Optional[RewriteCandidate] = None
    original_score: Optional[float] = None


def select_replacement(
    doc: LabeledDocument,
    accepted: list[RewriteCandidate],
    stats: CorpusStats,
    ledger: ClassLedger,
    doc_unit: np.ndarray,
    lam: int,
    tokenizer: TokenizerConfig = DEFAULT_TOKENIZER,
) -> ReplacementDecision:
    """Pick the verified candidate with the lowest shortcut score against the
    ledger's current opposite-class sum, replacing the original (unit vector
    ``doc_unit``) only on strict improvement. Ties go to the lexicographically
    smallest text. Unscoreable candidates (too short, zero embedding) are
    skipped and keep score None.
    """
    opposite_sum, opposite_count = ledger.opposite(doc.label)
    original_score = score_against(doc_unit, opposite_sum, opposite_count)
    best: Optional[RewriteCandidate] = None
    for cand in sorted(accepted, key=lambda c: c.text):
        if not cand.verified:
            continue
        try:
            trial = replace_text(doc, cand.text, tokenizer)
        except DataError:
            continue
        if len(trial.tokens) < 2:
            continue
        # unseen_df=1: a candidate's new tokens would have df >= 1 once inserted
        unit = unit_vector(surface_embedding(trial, stats, lam, unseen_df=1))
        if unit is None:
            continue
        cand.score = score_against(unit, opposite_sum, opposite_count)
        if best is None or cand.score < best.score:
            best = cand
    if best is not None and best.score < original_score:
        return ReplacementDecision(True, best, original_score)
    return ReplacementDecision(False, None, original_score)
