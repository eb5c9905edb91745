"""Data model, tokenization, and JSONL load/save for labeled text datasets.

Three line schemas are supported:

* ``single``:             {"id", "text", "label"}
* ``claim_evidence``:     {"id", "claim", "evidence", "label"}
* ``premise_hypothesis``: {"id", "premise", "hypothesis", "label"}

For the pair schemas the first field (claim / hypothesis) is the rewritable
text and the second (evidence / premise) is fixed context that is carried
verbatim and never tokenized or scored.
"""

from __future__ import annotations

import json
import logging
import unicodedata
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Optional

from .errors import DataError, NoContrastError

log = logging.getLogger("razor")

SCHEMAS = {
    "single": ("text", None),
    "claim_evidence": ("claim", "evidence"),
    "premise_hypothesis": ("hypothesis", "premise"),
}


@dataclass(frozen=True)
class TokenizerConfig:
    """Normalization pipeline knobs. Defaults: casefold, whitespace split,
    strip leading/trailing punctuation, drop empty tokens."""

    lowercase: bool = True
    strip_punctuation: bool = True


DEFAULT_TOKENIZER = TokenizerConfig()


def _strip_punct(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def tokenize(text: str, config: TokenizerConfig = DEFAULT_TOKENIZER) -> list[str]:
    """Deterministically split ``text`` into normalized tokens.

    Positions are the 0-based indices into the returned list. Empty output
    is legal here; emptiness is rejected at document construction instead.
    """
    if config.lowercase:
        text = text.lower()
    tokens = []
    for raw in text.split():
        if config.strip_punctuation:
            raw = _strip_punct(raw)
        if raw:
            tokens.append(raw)
    return tokens


@dataclass(frozen=True)
class LabeledDocument:
    """One record: a rewritable text, optional fixed context, and a class label.

    ``tokens`` is always the tokenizer output of ``mutable_text``; use
    :func:`make_document` / :func:`replace_text` so the cache stays coherent.
    """

    id: str
    mutable_text: str
    context_text: Optional[str]
    label: int
    tokens: tuple[str, ...]


def make_document(
    doc_id: str,
    mutable_text: str,
    label: int,
    context_text: Optional[str] = None,
    config: TokenizerConfig = DEFAULT_TOKENIZER,
) -> LabeledDocument:
    tokens = tuple(tokenize(mutable_text, config))
    if not tokens:
        raise DataError(f"document {doc_id!r}: text is empty after normalization")
    return LabeledDocument(
        id=doc_id,
        mutable_text=mutable_text,
        context_text=context_text,
        label=int(label),
        tokens=tokens,
    )


def replace_text(
    doc: LabeledDocument, new_text: str, config: TokenizerConfig = DEFAULT_TOKENIZER
) -> LabeledDocument:
    """New document with the same id/label/context but rewritten text."""
    tokens = tuple(tokenize(new_text, config))
    if not tokens:
        raise DataError(f"document {doc.id!r}: replacement text is empty after normalization")
    return replace(doc, mutable_text=new_text, tokens=tokens)


@dataclass(frozen=True)
class Dataset:
    """Ordered, immutable collection of documents with a declared label set."""

    documents: tuple[LabeledDocument, ...]
    label_names: Mapping[int, str] = field(default_factory=dict)
    schema: str = "single"

    def __post_init__(self):
        if self.schema not in SCHEMAS:
            raise DataError(f"unknown schema {self.schema!r}")
        seen: set[str] = set()
        present: set[int] = set()
        for doc in self.documents:
            if doc.id in seen:
                raise DataError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)
            if doc.label not in self.label_names:
                raise DataError(f"document {doc.id!r}: label {doc.label} not in declared label set")
            present.add(doc.label)
        if len(present) < 2:
            raise NoContrastError(
                f"dataset has {len(present)} distinct label(s); at least 2 are required"
            )

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def by_id(self, doc_id: str) -> LabeledDocument:
        for doc in self.documents:
            if doc.id == doc_id:
                return doc
        raise KeyError(doc_id)

    def with_documents(self, documents: Iterable[LabeledDocument]) -> "Dataset":
        return Dataset(tuple(documents), self.label_names, self.schema)


def parse_label_names(spec: str) -> dict[int, str]:
    """Parse a ``"0=refutes,1=supports"`` style declaration."""
    names: dict[int, str] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DataError(f"bad label declaration {part!r}; expected id=name")
        key, _, name = part.partition("=")
        try:
            label = int(key)
        except ValueError:
            raise DataError(f"bad label id {key!r}; expected an integer") from None
        if not name:
            raise DataError(f"empty name for label {label}")
        names[label] = name
    return names


def read_json(path: str | Path) -> dict:
    """The JSON object a file holds. Raises DataError when the file is not
    JSON or holds anything other than an object."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise DataError(f"{path}: malformed JSON ({exc})") from None
    if not isinstance(data, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def load_dataset(
    path: str | Path,
    schema: str,
    label_names: Optional[Mapping[int, str]] = None,
    config: TokenizerConfig = DEFAULT_TOKENIZER,
) -> Dataset:
    """Load a JSONL dataset, enforcing all invariants. Line order is preserved."""
    if schema not in SCHEMAS:
        raise DataError(f"unknown schema {schema!r}")
    text_field, context_field = SCHEMAS[schema]
    declared = dict(label_names) if label_names else None

    documents: list[LabeledDocument] = []
    seen_ids: set[str] = set()
    seen_labels: set[int] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: line {lineno}: malformed JSON ({exc.msg})") from None
            if not isinstance(row, dict):
                raise DataError(f"{path}: line {lineno}: expected a JSON object")
            required = ["id", "label", text_field] + ([context_field] if context_field else [])
            for name in required:
                if name not in row or row[name] is None:
                    raise DataError(f"{path}: line {lineno}: missing field {name!r}")
            doc_id = str(row["id"])
            if doc_id in seen_ids:
                raise DataError(f"{path}: line {lineno}: duplicate id {doc_id!r}")
            try:
                label = int(row["label"])
            except (TypeError, ValueError):
                raise DataError(
                    f"{path}: line {lineno}: label {row['label']!r} is not an integer"
                ) from None
            if declared is not None and label not in declared:
                raise DataError(f"{path}: line {lineno}: label {label} not in declared label set")
            try:
                doc = make_document(
                    doc_id,
                    str(row[text_field]),
                    label,
                    context_text=str(row[context_field]) if context_field else None,
                    config=config,
                )
            except DataError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from None
            seen_ids.add(doc_id)
            seen_labels.add(label)
            documents.append(doc)

    if declared is None:
        declared = {label: str(label) for label in sorted(seen_labels)}
        log.warning(
            "%s: no label set declared; inferred %d labels from data: %s",
            path,
            len(declared),
            sorted(declared),
        )
    return Dataset(tuple(documents), declared, schema)


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset back to JSONL, mirroring its input schema exactly."""
    text_field, context_field = SCHEMAS[dataset.schema]
    with open(path, "w", encoding="utf-8") as fh:
        for doc in dataset.documents:
            row: dict = {"id": doc.id}
            if context_field and dataset.schema == "premise_hypothesis":
                row[context_field] = doc.context_text
                row[text_field] = doc.mutable_text
            else:
                row[text_field] = doc.mutable_text
                if context_field:
                    row[context_field] = doc.context_text
            row["label"] = doc.label
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
