"""Greedy debiasing loop: score, rank, rewrite the top-k, replace, repeat.

Each iteration freezes corpus statistics and embeddings, selects the k
highest-scoring documents, generates rewrite candidates for them, verifies
each document's likely winner, and commits replacements one at a time against
a live per-class unit-vector ledger: the first confirmed candidate in live
(score, text) order. Gated on strict per-document improvement, every commit
raises the cross-class alignment objective, so the objective measured on the
iteration's own embeddings never decreases.

The loop stops when an iteration makes no replacements, when the relative
objective improvement falls below epsilon, or at the iteration cap.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .corpus import (
    Dataset,
    LabeledDocument,
    is_json_int,
    is_json_number,
    mismatched_line,
    read_documents,
    read_json,
    read_json_lines,
    replace_text,  # noqa: F401  (see below)
    save_dataset,
)
from .errors import BackendError, ConfigError, DataError
from .rewriter import (
    GeneratorConfig,
    RewriteCandidate,
    check_label_names,
    embed_candidates,
    generate_candidates,
    select_replacement,
    verify_label,
)
from .surface import (
    DEFAULT_LAMBDA,
    ClassLedger,
    SurfaceSpace,
    TokenTable,
    _check_width,
    class_alignment_objective,
    compute_embeddings,
    corpus_stats,
    shortcut_scores,
    surface_embedding,  # noqa: F401
)

# replace_text and surface_embedding are not called here (the rewriter
# tokenizes and embeds candidates). They are imported because bench/tracer.py
# wraps both by their names in this module.

log = logging.getLogger("razor")

STOP_CONVERGED = "converged"
STOP_NO_REPLACEMENTS = "no-replacements"
STOP_MAX_ITERATIONS = "max-iterations"


@dataclass(frozen=True)
class RunConfig:
    """Loop parameters. ``k`` is either an absolute document count or a
    fraction of the dataset (a float strictly between 0 and 1); an integral
    value is always a count, so ``k=1.0`` selects one document. The default
    rewrites 10% of the documents per iteration."""

    k: float = 0.1
    lam: int = DEFAULT_LAMBDA
    epsilon: float = 1e-4
    max_iterations: int = 10
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    jobs: int = 1

    def __post_init__(self):
        for name in ("lam", "max_iterations", "jobs"):
            if not is_json_int(value := getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("k", "epsilon"):
            if not is_json_number(value := getattr(self, name)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if isinstance(self.k, float) and not self.k.is_integer():
            if not (0.0 < self.k < 1.0):
                raise ConfigError(
                    f"fractional k must be in (0, 1) (an integral k is a count), got {self.k}"
                )
        elif int(self.k) < 1:
            raise ConfigError(f"k must be positive, got {self.k}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        _check_width(self.lam)
        if not isinstance(self.generator, GeneratorConfig):
            raise ConfigError(f"generator must be a GeneratorConfig, got {self.generator!r}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")


def resolve_k(k: float, n_documents: int) -> int:
    """Concrete per-iteration selection size for a dataset of ``n_documents``."""
    if isinstance(k, float) and not k.is_integer():
        return max(1, int(k * n_documents))
    return int(k)


@dataclass
class IterationTrace:
    """Observability record for one iteration. ``replaced_ids`` and
    ``kept_ids`` partition ``selected_ids``."""

    iteration: int
    objective_before: float
    objective_after: float
    selected_ids: list[str]
    replaced_ids: list[str]
    kept_ids: list[str]
    llm_calls: dict[str, int]
    wall_time: float
    error: Optional[str] = None

    def to_dict(self) -> dict:
        """The trace's fields by name; the id lists are the trace's own, not
        copies."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "IterationTrace":
        """The trace a record holds. Raises TypeError when the record does not
        have exactly the trace's fields, each of its type."""
        trace = cls(**data)
        for name, check in _TRACE_FIELD_TYPES.items():
            if not check(getattr(trace, name)):
                raise TypeError(f"field {name!r} has the wrong type")
        return trace


def _is_ids(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


_TRACE_FIELD_TYPES = {
    "iteration": is_json_int,
    "objective_before": is_json_number,
    "objective_after": is_json_number,
    "selected_ids": _is_ids,
    "replaced_ids": _is_ids,
    "kept_ids": _is_ids,
    "llm_calls": lambda v: isinstance(v, dict) and all(map(is_json_int, v.values())),
    "wall_time": is_json_number,
    "error": lambda v: v is None or isinstance(v, str),
}


class RewriteJournal:
    """Per-iteration memo of the backend's answers, keyed by document id (and
    candidate text): :meth:`texts` and :meth:`verdict` answer any request the
    journal holds and ask the backend only for the others, so a resumed
    iteration runs a fresh one's code. A document is handled by one worker at
    a time, so no request is asked twice.

    A ``{"doc_id", "texts"}`` line holds a document's generated candidates,
    a ``{"doc_id", "text", "verified"}`` line one verdict. :meth:`record`
    formats each line directly, as the text ``json.dumps`` gives, and
    flushes it as it is written; only loading checks the fields' types.

    The file is opened at the first record and kept open until :meth:`close`
    (the journal is a context manager). Each record is written as one line in
    one write, so an abort leaves whole lines and at most one torn record:
    the bytes after the last newline. Loading cuts those from the file with a
    warning, so later records start on a line of their own, and reads every
    whole line with :func:`read_json_lines`; a malformed one is a DataError.
    """

    def __init__(self, path: Optional[Path] = None):
        self.path = path
        self._entries: dict[str, list[str]] = {}
        self._verdicts: dict[tuple[str, str], bool] = {}
        self._lock = threading.Lock()
        self._fh = None
        if path is not None and path.exists():
            self._load(path)

    def _load(self, path: Path) -> None:
        data = path.read_bytes()
        *lines, torn = data.split(b"\n")
        if torn:
            log.warning("%s: dropping torn final line %d (%d bytes after the last newline)",
                        path, len(lines) + 1, len(torn))
            os.truncate(path, len(data) - len(torn))
        read_json_lines(path, lines, self._apply)

    def _apply(self, row: dict) -> None:
        """Keep one loaded record. Raises DataError when it is neither format."""
        try:
            doc_id = row["doc_id"]
            if "texts" in row:
                typed = _is_ids(row["texts"])
            else:
                text, verified = row["text"], row["verified"]
                typed = isinstance(text, str) and isinstance(verified, bool)
        except KeyError as exc:
            raise DataError(f"malformed journal record (no field {exc})") from None
        if not (typed and isinstance(doc_id, str)):
            raise DataError("malformed journal record (a field has the wrong type)")
        self._keep(row)

    def _keep(self, row: dict) -> None:
        """Memo one record of either format."""
        if "texts" in row:
            self._entries[row["doc_id"]] = row["texts"]
        else:
            self._verdicts[row["doc_id"], row["text"]] = row["verified"]

    def texts(self, doc_id: str, generate: Callable[[], list[str]]) -> list[str]:
        """``doc_id``'s candidate texts: journaled, or ``generate()``'s, recorded."""
        texts = self._entries.get(doc_id)
        if texts is None:
            texts = generate()
            self.record({"doc_id": doc_id, "texts": texts})
        return texts

    def verdict(self, doc_id: str, text: str, verify: Callable[[], bool]) -> bool:
        """Candidate ``text``'s verdict for ``doc_id``: journaled, or ``verify()``'s, recorded."""
        verified = self._verdicts.get((doc_id, text))
        if verified is None:
            verified = verify()
            self.record({"doc_id": doc_id, "text": text, "verified": verified})
        return verified

    def record(self, row: dict) -> None:
        """Keep a generate record ``{"doc_id", "texts"}`` or a verify record
        ``{"doc_id", "text", "verified"}`` and, when the journal has a file,
        append it as the line ``json.dumps(row)`` gives, formatted directly
        with the string encoder json.dumps uses."""
        with self._lock:
            self._keep(row)
            if self.path is None:
                return
            quote = json.encoder.encode_basestring_ascii
            doc_id = quote(row["doc_id"])
            if "texts" in row:
                texts = ", ".join(map(quote, row["texts"]))
                line = '{"doc_id": %s, "texts": [%s]}\n' % (doc_id, texts)
            else:
                verified = "true" if row["verified"] else "false"
                line = '{"doc_id": %s, "text": %s, "verified": %s}\n' % (
                    doc_id, quote(row["text"]), verified
                )
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(line)
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "RewriteJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def rank_and_select(space: SurfaceSpace, ledger: ClassLedger, k: int) -> list[int]:
    """Rows of the k highest-scoring documents, in :func:`shortcut_scores`'
    ranked order. Selects every scoreable document (with a warning) when
    fewer than k exist."""
    ranked, _ = shortcut_scores(space, ledger)
    if len(ranked) < k:
        log.warning("only %d scoreable documents for k=%d; selecting all", len(ranked), k)
    return ranked[:k].tolist()


def _map(fn, jobs: int, *iterables) -> list:
    """``list(map(fn, *iterables))``, on ``jobs`` threads when jobs > 1."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, *iterables))
    return list(map(fn, *iterables))


def _gather_candidates(
    docs: tuple[LabeledDocument, ...],
    rows: list[int],
    space: SurfaceSpace,
    ledger: ClassLedger,
    stats: TokenTable,
    config: RunConfig,
    texts: Callable[[LabeledDocument], list[str]],
    confirms: Callable[[LabeledDocument, RewriteCandidate], bool],
) -> list[list[RewriteCandidate]]:
    """The scoreable rewrite candidates of the ``docs`` at ``rows``, from
    two passes over the documents, each parallel under ``config.jobs``:

    1. ask ``texts`` for every document's candidate texts (in ``rows`` order
       when serial), then embed all of them against the frozen ``stats`` in
       blocks;
    2. for each document, ask ``confirms`` about its likely winner: the
       first candidate :func:`select_replacement` lists against the frozen
       ``ledger``."""
    selected = [docs[i] for i in rows]
    candidates = embed_candidates(selected, _map(texts, config.jobs, selected), stats, config.lam)

    def speculate(i: int, cands: list[RewriteCandidate]) -> None:
        ranked = select_replacement(docs[i], cands, ledger, space.units[i])
        if ranked:
            confirms(docs[i], ranked[0])

    _map(speculate, config.jobs, rows, candidates)
    return candidates


def decide_replacement(
    doc: LabeledDocument,
    candidates: list[RewriteCandidate],
    ledger: ClassLedger,
    doc_unit: np.ndarray,
    confirms: Callable[[RewriteCandidate], bool],
) -> Optional[RewriteCandidate]:
    """The candidate that replaces ``doc``, or None to keep it: the first of
    :func:`select_replacement`'s list against the live ``ledger`` that
    ``confirms``. Candidates are asked in (score, text) order, each at most
    once, and the walk stops at the first confirmed one: the winner of
    verifying every candidate first."""
    ranked = select_replacement(doc, candidates, ledger, doc_unit)
    return next((cand for cand in ranked if confirms(cand)), None)


def run_iteration(
    dataset: Dataset,
    config: RunConfig,
    backend,
    iteration: int = 1,
    journal: Optional[RewriteJournal] = None,
    table: Optional[TokenTable] = None,
) -> tuple[Dataset, IterationTrace]:
    """One pass of the loop. Returns the (possibly unchanged) dataset and the
    iteration's trace; on backend failure the dataset is returned unchanged
    and the trace records the error. ``table`` is the run's token table,
    moved to ``dataset`` here (a fresh one when None)."""
    start = time.monotonic()
    journal = journal if journal is not None else RewriteJournal()
    stats = corpus_stats(dataset, table)
    space = compute_embeddings(dataset, stats, config.lam)
    ledger = ClassLedger(space)
    objective_before = class_alignment_objective(ledger)
    k = resolve_k(config.k, len(dataset))
    rows = rank_and_select(space, ledger, k)

    # Every request goes through the journal, which answers any it holds, so
    # a resumed iteration makes the same decisions as a fresh one and asks the
    # backend only what is still unanswered.
    context = (backend, config.generator, dataset.label_names, dataset.schema)

    def texts(doc: LabeledDocument) -> list[str]:
        return journal.texts(doc.id, lambda: generate_candidates(doc, *context))

    def confirms(doc: LabeledDocument, cand: RewriteCandidate) -> bool:
        return journal.verdict(doc.id, cand.text, lambda: verify_label(cand.text, doc, *context))

    roles = ("generate", "verify")
    calls_before = [backend.calls.count(role) for role in roles]
    docs = dataset.documents
    replaced: dict[int, LabeledDocument] = {}  # row -> its replacement
    error = None
    try:
        candidates = _gather_candidates(docs, rows, space, ledger, stats, config, texts, confirms)
        # Replacements are committed one at a time against the live class
        # ledger: each strict improvement raises the pair objective, so the
        # whole iteration is monotone even when both sides of a class pair
        # are rewritten. A candidate the live order reaches without a verdict
        # is verified here, serially.
        for i, cands in zip(rows, candidates):
            doc = docs[i]
            winner = decide_replacement(doc, cands, ledger, space.units[i], partial(confirms, doc))
            if winner is not None:
                ledger.swap(doc.label, space.units[i], winner.unit)
                replaced[i] = winner.document
    except BackendError as exc:
        # every document is kept: the dataset and the objective are unchanged
        log.error("iteration %d aborted: %s", iteration, exc)
        error, replaced = str(exc), {}

    trace = IterationTrace(
        iteration=iteration,
        objective_before=objective_before,
        objective_after=objective_before if error else class_alignment_objective(ledger),
        selected_ids=[docs[i].id for i in rows],
        replaced_ids=[docs[i].id for i in rows if i in replaced],
        kept_ids=[docs[i].id for i in rows if i not in replaced],
        llm_calls={
            role: backend.calls.count(role) - before for role, before in zip(roles, calls_before)
        },
        wall_time=time.monotonic() - start,
        error=error,
    )
    return dataset.with_documents(replaced.get(i, doc) for i, doc in enumerate(docs)), trace


@dataclass
class RunResult:
    dataset: Dataset
    traces: list[IterationTrace]
    stop_reason: str


def write_trace_file(
    path: str | Path, traces: list[IterationTrace], stop_reason: Optional[str]
) -> None:
    """Write the iteration traces and stop reason as the run's trace JSON, on
    one line: json's C encoder serializes it, where ``indent`` takes the
    pure-Python one. An indented file reads the same."""
    payload = {
        "stop_reason": stop_reason,
        "iterations": [t.to_dict() for t in traces],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload) + "\n")


def read_trace_file(path: str | Path) -> tuple[list[IterationTrace], Optional[str]]:
    """The iteration traces and stop reason a trace JSON holds. Raises
    DataError when the file is malformed or an iteration record does not have
    exactly the trace's fields, each of its type."""
    payload = read_json(path)
    try:
        traces = [IterationTrace.from_dict(t) for t in payload.get("iterations", [])]
    except TypeError as exc:
        raise DataError(f"{path}: bad iteration record ({exc})") from None
    stop_reason = payload.get("stop_reason")
    if not (stop_reason is None or isinstance(stop_reason, str)):
        raise DataError(f"{path}: stop_reason must be a string or null, got {stop_reason!r}")
    return traces, stop_reason


def _write_replacing(path: Path, write):
    """Write ``path`` by calling ``write`` on a temporary file beside it
    (``<name>.tmp``) and moving that over ``path``: a write that fails part-way
    leaves the previous file, or none, and never a torn one. Returns what
    ``write`` returns."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        result = write(tmp)
        os.replace(tmp, path)
        return result
    finally:
        tmp.unlink(missing_ok=True)


class Checkpoint:
    """Run state on disk: iteration-numbered dataset snapshots, per-iteration
    rewrite journals, and a trace file with the accumulated iteration traces
    and stop reason.

    Snapshot 0 is the whole input. Each later snapshot holds the lines of
    the documents its iteration replaced, the ``replaced_ids`` of its trace,
    in row order. :meth:`load_state` applies them to the input in order."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def snapshot_path(self, iteration: int) -> Path:
        return self.directory / f"iteration_{iteration:03d}.jsonl"

    def journal_path(self, iteration: int) -> Path:
        return self.directory / f"journal_{iteration:03d}.jsonl"

    @property
    def trace_path(self) -> Path:
        return self.directory / "trace.json"

    def write_snapshot(
        self, dataset: Dataset, iteration: int, replaced_ids: Optional[list[str]] = None
    ) -> None:
        """Write the documents named by ``replaced_ids``, or every document
        when it is None (snapshot 0), as the snapshot of ``iteration``."""
        path = self.snapshot_path(iteration)
        _write_replacing(path, lambda tmp: save_dataset(dataset, tmp, replaced_ids))

    def write_traces(self, traces: list[IterationTrace], stop_reason: Optional[str]) -> None:
        _write_replacing(self.trace_path, lambda tmp: write_trace_file(tmp, traces, stop_reason))

    def completed_iterations(self) -> int:
        last = -1
        for path in sorted(self.directory.glob("iteration_*.jsonl")):
            try:
                last = max(last, int(path.stem.split("_")[1]))
            except (IndexError, ValueError):
                continue
        return last

    def load_state(
        self, dataset: Dataset
    ) -> tuple[Dataset, list[IterationTrace], Optional[str], int]:
        """Resume point: (current dataset, completed traces, stop reason, last
        completed iteration). Falls back to the given input dataset when the
        directory holds no snapshots. Otherwise snapshot 0 must hold the
        input's bytes as :func:`save_dataset` writes them, and snapshots
        1..last are applied to the input in order, by id (see
        :func:`_apply_snapshot`). Raises DataError, naming the file and the
        line or document, when a snapshot is missing or does not fit the
        input: it belongs to another input, or it was cut short."""
        last = self.completed_iterations()
        traces, stop_reason = read_trace_file(self.trace_path) if self.trace_path.exists() else ([], None)
        traces = [t for t in traces if t.error is None and t.iteration <= last]
        if last < 0:
            return dataset, [], None, -1
        replaced = {t.iteration: t.replaced_ids for t in traces}
        rows = {doc.id: row for row, doc in enumerate(dataset.documents)}
        docs = list(dataset.documents)
        for iteration in range(last + 1):
            path = self.snapshot_path(iteration)
            if not path.exists():
                raise DataError(f"{path}: snapshot missing; use a fresh checkpoint directory")
            if iteration == 0:
                if (line := mismatched_line(dataset, path)) is not None:
                    raise DataError(
                        f"{path}: line {line} does not match the input as saved; "
                        "use a fresh checkpoint directory"
                    )
                continue
            written = _apply_snapshot(path, dataset, rows, docs)
            if iteration not in replaced:
                raise DataError(f"{self.trace_path}: no trace of iteration {iteration}")
            for doc_id in replaced[iteration]:
                if doc_id not in written:
                    raise DataError(
                        f"{path}: lacks document {doc_id!r}, which iteration {iteration} "
                        "replaced; the snapshot was cut short"
                    )
        return dataset.with_documents(docs), traces, stop_reason, last


def _apply_snapshot(
    path: Path, dataset: Dataset, rows: dict[str, int], docs: list[LabeledDocument]
) -> set[str]:
    """Put the documents of the snapshot at ``path`` into ``docs`` at their
    ``rows`` in ``dataset``, the input, and return their ids. Raises
    DataError, naming the file and the document, when one has no input id,
    comes before a row already written, or has another label or context
    than the input's."""
    last = -1
    written = read_documents(path, dataset.schema, dataset.label_names)
    for doc in written:
        row = rows.get(doc.id, -1)
        if row < 0:
            raise DataError(f"{path}: document {doc.id!r} is not in the input")
        if row <= last:
            raise DataError(f"{path}: document {doc.id!r} is out of the input's order")
        kept = dataset.documents[row]
        if (doc.label, doc.context_text) != (kept.label, kept.context_text):
            raise DataError(
                f"{path}: document {doc.id!r} does not match the input's label or context"
            )
        docs[row], last = doc, row
    return {doc.id for doc in written}


def run_razor(
    dataset: Dataset,
    config: RunConfig,
    backend,
    checkpoint: Optional[Checkpoint] = None,
) -> RunResult:
    """Iterate :func:`run_iteration` to convergence, checkpointing after every
    iteration. If the checkpoint directory already holds state, the run
    resumes from it, replaying any partially journaled iteration instead of
    repeating its backend calls. Raises BackendError (checkpoint intact) when
    the backend gives out mid-run. Raises DataError, before the checkpoint is
    read or any request is sent, when the verifier cannot tell two label
    names apart."""
    check_label_names(dataset.label_names)
    traces: list[IterationTrace] = []
    start_iteration = 1
    if checkpoint is not None:
        dataset, traces, stop_reason, last = checkpoint.load_state(dataset)
        if stop_reason == STOP_MAX_ITERATIONS and config.max_iterations > last:
            log.info("checkpoint stopped at its iteration cap (%d); continuing", last)
        elif stop_reason is not None:
            log.info("checkpoint already finished (%s); returning its result", stop_reason)
            return RunResult(dataset, traces, stop_reason)
        if last < 0:
            checkpoint.write_snapshot(dataset, 0)
            last = 0
        start_iteration = last + 1

    stop_reason = STOP_MAX_ITERATIONS
    # numbered from the dataset by the first iteration, then only the
    # documents each iteration replaces
    table = TokenTable()
    for iteration in range(start_iteration, config.max_iterations + 1):
        with RewriteJournal(checkpoint.journal_path(iteration) if checkpoint else None) as journal:
            dataset_next, trace = run_iteration(
                dataset, config, backend, iteration, journal, table
            )
        traces.append(trace)
        if trace.error is not None:
            if checkpoint is not None:
                checkpoint.write_traces(traces, None)
            raise BackendError(trace.error)
        dataset = dataset_next
        if checkpoint is not None:
            # the trace first: a resume drops traces newer than the last
            # snapshot and replays that iteration from its journal, while a
            # snapshot without its trace would lose the trace for good
            checkpoint.write_traces(traces, None)
            checkpoint.write_snapshot(dataset, iteration, trace.replaced_ids)
        if not trace.replaced_ids:
            stop_reason = STOP_NO_REPLACEMENTS
            break
        improvement = trace.objective_after - trace.objective_before
        if improvement / max(1.0, abs(trace.objective_before)) < config.epsilon:
            stop_reason = STOP_CONVERGED
            break

    if checkpoint is not None:
        checkpoint.write_traces(traces, stop_reason)
    return RunResult(dataset, traces, stop_reason)
