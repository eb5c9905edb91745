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

import copy
import json
import logging
import math
import unicodedata
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from sys import intern
from typing import Callable, Collection, Iterable, Mapping, Optional

from .errors import DataError, NoContrastError

log = logging.getLogger("razor")

SCHEMAS = {
    "single": ("text", None),
    "claim_evidence": ("claim", "evidence"),
    "premise_hypothesis": ("hypothesis", "premise"),
}


def _strip_punct(token: str) -> str:
    # a letter or digit is never punctuation: most tokens need no lookup
    if token[0].isalnum() and token[-1].isalnum():
        return token
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    """Deterministically split ``text`` into normalized tokens: lowercase,
    split on whitespace, strip leading and trailing Unicode punctuation from
    each token, and drop tokens left empty.

    Positions are the 0-based indices into the returned list. Empty output
    is legal here; emptiness is rejected at document construction instead.
    Tokens are interned: every document holding a token shares one string.

    One C-level check per text: when every token is all letters and digits
    there is nothing to strip. Otherwise only the tokens that are not all
    letters and digits are stripped, one by one.
    """
    raw = text.lower().split()
    if "".join(raw).isalnum():
        return list(map(intern, raw))
    return [intern(t) for token in raw if (t := token if token.isalnum() else _strip_punct(token))]


@dataclass(frozen=True)
class LabeledDocument:
    """One record: a rewritable text, optional fixed context, and a class label.

    ``tokens`` is always ``tokenize(mutable_text)``; build documents with
    :func:`make_document` (or :func:`replace_text`, which calls it) so the
    two stay coherent.
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
) -> LabeledDocument:
    """A document razor can write back: its id, text and context encode as
    UTF-8 (a lone surrogate, such as JSON's ``"\\ud800"``, does not), its
    label fits in 64 bits and its text holds a token. Raises DataError,
    naming the document, otherwise."""
    tokens = tuple(tokenize(mutable_text))
    if not tokens:
        raise DataError(f"document {doc_id!r}: text is empty after normalization")
    label = int(label)
    if not -(2**63) <= label < 2**63:
        raise DataError(f"document {doc_id!r}: label {label} does not fit in 64 bits")
    # isascii reads a flag, not the string: only non-ASCII strings are encoded
    if not (doc_id.isascii() and mutable_text.isascii() and (context_text or "").isascii()):
        for name, text in (("id", doc_id), ("text", mutable_text), ("context", context_text)):
            try:
                (text or "").encode("utf-8")
            except UnicodeEncodeError:
                raise DataError(f"document {doc_id!r}: {name} holds a lone surrogate") from None
    return LabeledDocument(
        id=doc_id,
        mutable_text=mutable_text,
        context_text=context_text,
        label=label,
        tokens=tokens,
    )


def replace_text(doc: LabeledDocument, new_text: str) -> LabeledDocument:
    """New document with the same id/label/context but rewritten text."""
    return make_document(doc.id, new_text, doc.label, doc.context_text)


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

    def replacing(self, rows: Mapping[int, LabeledDocument]) -> "Dataset":
        """This dataset with the document at each row of ``rows`` replaced by
        the row's value. Raises DataError, naming the document, when one does
        not keep its row's id, label and context. ``__post_init__``'s checks
        read no more than that, so they still hold and are not run again."""
        documents = list(self.documents)
        for row, doc in rows.items():
            was = documents[row]
            if doc.id != was.id:
                raise DataError(f"document {doc.id!r} is not the input's {was.id!r} at row {row}")
            if (doc.label, doc.context_text) != (was.label, was.context_text):
                raise DataError(f"document {doc.id!r} does not match the input's label or context")
            documents[row] = doc
        patched = copy.copy(self)
        object.__setattr__(patched, "documents", tuple(documents))
        return patched


def parse_label_names(spec: str) -> dict[int, str]:
    """Parse a ``"0=refutes,1=supports"`` style declaration; a label id
    declared twice is a DataError."""
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
        if label in names:
            raise DataError(f"label {label} declared twice")
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
        except RecursionError:
            raise DataError(f"{path}: malformed JSON (nested too deeply)") from None
    if not isinstance(data, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def is_json_int(value) -> bool:
    """Whether a value read from JSON is an integer (``true`` is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_json_number(value) -> bool:
    """Whether a value read from JSON is a finite number (``true``, ``NaN``
    and ``Infinity`` are not)."""
    return is_json_int(value) or isinstance(value, float) and math.isfinite(value)


def json_id(value, name: str = "id") -> str:
    """A document id read from the JSON field ``name``, as a string: a string
    as it is, an integer in decimal (FEVER's ids are numbers). Raises
    DataError, naming the field, for any other value."""
    if isinstance(value, str):
        return value
    if is_json_int(value):
        return str(value)
    raise DataError(f"{name} {value!r} is not a string or an integer")


def read_json_lines(path: str | Path, lines: Iterable[bytes], parse: Callable) -> list:
    """``parse`` of each JSON object in ``lines``, the lines (as bytes) of the
    JSON Lines file at ``path``, in order. Each line is decoded as UTF-8, and
    a line blank after ``str.strip()`` is skipped. A line that is not UTF-8,
    not JSON or not an object, or that ``parse`` rejects with a DataError,
    raises a DataError naming ``path`` and the line."""
    parsed = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                row = json.loads(line)
            except UnicodeDecodeError as exc:
                raise DataError(f"not UTF-8 ({exc.reason} at byte {exc.start})") from None
            except json.JSONDecodeError as exc:
                raise DataError(f"malformed JSON ({exc.msg})") from None
            except RecursionError:
                raise DataError("malformed JSON (nested too deeply)") from None
            if not isinstance(row, dict):
                raise DataError(f"expected a JSON object, got {type(row).__name__}")
            parsed.append(parse(row))
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
    return parsed


def read_documents(
    path: str | Path,
    schema: str,
    label_names: Optional[Mapping[int, str]] = None,
) -> list[LabeledDocument]:
    """The documents of the JSONL file at ``path``, in line order, each with
    a unique id and, when ``label_names`` is given, a declared label. A bad
    line is a DataError naming the file and the line (see
    :func:`read_json_lines`). A file of any size or label mix is read: the
    checks on the whole dataset are :class:`Dataset`'s."""
    if schema not in SCHEMAS:
        raise DataError(f"unknown schema {schema!r}")
    text_field, context_field = SCHEMAS[schema]
    texts = (text_field, context_field) if context_field else (text_field,)
    seen_ids: set[str] = set()

    def parse(row: dict) -> LabeledDocument:
        for name in ("id", "label", *texts):
            if name not in row or row[name] is None:
                raise DataError(f"missing field {name!r}")
        doc_id = json_id(row["id"])
        if doc_id in seen_ids:
            raise DataError(f"duplicate id {doc_id!r}")
        label = row["label"]
        if not is_json_int(label):
            raise DataError(f"label {label!r} is not an integer")
        for name in texts:
            if not isinstance(row[name], str):
                raise DataError(f"field {name!r} is not a string ({type(row[name]).__name__})")
        if label_names is not None and label not in label_names:
            raise DataError(f"label {label} not in declared label set")
        context = row[context_field] if context_field else None
        seen_ids.add(doc_id)
        return make_document(doc_id, row[text_field], label, context)

    with open(path, "rb") as fh:
        return read_json_lines(path, fh, parse)


def load_dataset(
    path: str | Path,
    schema: str,
    label_names: Optional[Mapping[int, str]] = None,
) -> Dataset:
    """Load a JSONL dataset with :func:`read_documents`, enforcing all
    invariants. Line order is preserved. Without ``label_names`` the label
    set is inferred from the data, with a warning."""
    declared = dict(label_names) if label_names else None
    documents = read_documents(path, schema, declared)
    if declared is None:
        declared = {label: str(label) for label in sorted({d.label for d in documents})}
        log.warning(
            "%s: no label set declared; inferred %d labels from data: %s",
            path,
            len(declared),
            sorted(declared),
        )
    return Dataset(tuple(documents), declared, schema)


def _line_format(schema: str) -> Callable[[LabeledDocument], str]:
    """A document's JSONL line under ``schema``: the text
    ``json.dumps(row, ensure_ascii=False)`` gives, formatted directly with
    the string encoder json.dumps uses, and a newline."""
    text_field, context_field = SCHEMAS[schema]
    quote = json.encoder.encode_basestring
    if context_field is None:
        line = '{"id": %%s, "%s": %%s, "label": %%d}\n' % text_field
        return lambda d: line % (quote(d.id), quote(d.mutable_text), d.label)
    # a premise_hypothesis line leads with its context, the premise
    context_first = schema == "premise_hypothesis"
    names = (context_field, text_field) if context_first else (text_field, context_field)
    line = '{"id": %%s, "%s": %%s, "%s": %%s, "label": %%d}\n' % names

    def format_line(doc: LabeledDocument) -> str:
        text = quote(doc.mutable_text)
        context = "null" if doc.context_text is None else quote(doc.context_text)
        pair = (context, text) if context_first else (text, context)
        return line % (quote(doc.id), *pair, doc.label)

    return format_line


def save_dataset(dataset: Dataset, path: str | Path, ids: Optional[Collection[str]] = None) -> None:
    """Write a dataset back to JSONL (UTF-8), mirroring its input schema
    exactly.

    With ``ids``, only the documents whose id is in ``ids`` are written, in
    row order, each with the bytes of a full save's line; without, every
    document is."""
    docs = dataset.documents
    if ids is not None:
        ids = set(ids)
        docs = [doc for doc in docs if doc.id in ids]
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.writelines(map(_line_format(dataset.schema), docs))


def mismatched_line(dataset: Dataset, path: str | Path) -> Optional[int]:
    """The number of the first line of the file at ``path`` that differs
    from the line :func:`save_dataset` writes for the document at that row
    (a line past the last document differs, and so does a missing one), or
    None when the file holds exactly ``save_dataset(dataset)``'s bytes. The
    file's bytes are compared, not parsed."""
    format_line = _line_format(dataset.schema)
    with open(path, "rb") as fh:
        for lineno, (line, doc) in enumerate(zip_longest(fh, dataset.documents), start=1):
            if doc is None or line != format_line(doc).encode("utf-8"):
                return lineno
    return None
