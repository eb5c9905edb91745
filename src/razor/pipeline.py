"""Greedy debiasing loop: score, rank, rewrite the top-k, replace, repeat.

Each iteration freezes corpus statistics and embeddings, selects the k
highest-scoring documents, generates and verifies rewrite candidates for
them, and commits replacements one at a time against a live per-class
unit-vector ledger. Gated on strict per-document improvement, every commit
raises the cross-class alignment objective, so the objective measured on the
iteration's own embeddings never decreases.

The loop stops when an iteration makes no replacements, when the relative
objective improvement falls below epsilon, or at the iteration cap.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from .corpus import (
    DEFAULT_TOKENIZER,
    Dataset,
    LabeledDocument,
    TokenizerConfig,
    load_dataset,
    replace_text,  # noqa: F401  (see below)
    save_dataset,
)
from .errors import BackendError, ConfigError, DataError
from .rewriter import (
    GeneratorConfig,
    PromptTemplate,
    RewriteCandidate,
    generate_candidates,
    select_replacement,
    verify_label,
)
from .surface import (
    DEFAULT_LAMBDA,
    ClassLedger,
    SurfaceSpace,
    class_alignment_objective,
    compute_embeddings,
    corpus_stats,
    shortcut_scores,
    surface_embedding,  # noqa: F401
)

# replace_text and surface_embedding are not called here (a replacement
# decision carries the winner's document and unit vector). They are imported
# because bench/tracer.py wraps both by their names in this module.

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
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
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
        if self.lam <= 0 or self.lam % 2 != 0:
            raise ConfigError(f"encoding width must be a positive even integer, got {self.lam}")
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
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "IterationTrace":
        return cls(**data)


class RewriteJournal:
    """Per-iteration record of generated candidates, keyed by document id.

    Flushed after each document completes, so an aborted run can resume
    without re-querying the backend for documents already processed. A
    malformed final line is a record torn by the abort: loading drops it with
    a warning (and cuts it from the file, so later records start on a line of
    their own). A malformed line anywhere else is a DataError.
    """

    def __init__(self, path: Optional[Path] = None):
        self.path = path
        self._entries: dict[str, list[dict]] = {}
        self._lock = threading.Lock()
        if path is not None and path.exists():
            self._load(path)

    def _load(self, path: Path) -> None:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        torn = bool(lines) and not lines[-1].endswith("\n")
        for lineno, line in enumerate(lines, start=1):
            try:
                if line.strip():
                    row = json.loads(line)
                    self._entries[row["doc_id"]] = row["candidates"]
            except (ValueError, KeyError, TypeError) as exc:
                if lineno < len(lines):
                    raise DataError(f"{path}: line {lineno}: malformed journal record ({exc})") from None
                log.warning("%s: dropping torn final line %d (%s)", path, lineno, exc)
                lines.pop()
                torn = True
        if torn:
            path.write_text("".join(line.rstrip("\n") + "\n" for line in lines), encoding="utf-8")

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._entries

    def get(self, doc_id: str) -> list[dict]:
        return self._entries[doc_id]

    def record(self, doc_id: str, candidates: list[dict]) -> None:
        with self._lock:
            self._entries[doc_id] = candidates
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"doc_id": doc_id, "candidates": candidates}) + "\n")
                    fh.flush()


def rank_and_select(space: SurfaceSpace, ledger: ClassLedger, k: int) -> list[str]:
    """Ids of the k highest-scoring documents, score-descending with ascending
    id as the tie-break. Selects every scoreable document (with a warning)
    when fewer than k exist."""
    scores = shortcut_scores(space, ledger)
    ranked = sorted(scores, key=lambda doc_id: (-scores[doc_id], doc_id))
    if len(ranked) < k:
        log.warning("only %d scoreable documents for k=%d; selecting all", len(ranked), k)
        return ranked
    return ranked[:k]


def _gather_candidates(
    dataset: Dataset,
    selected: list[str],
    backend,
    config: RunConfig,
    journal: RewriteJournal,
    template: Optional[PromptTemplate],
) -> dict[str, list[dict]]:
    """Generate and verify candidates for each selected document, replaying
    journaled documents without touching the backend."""
    docs = {doc.id: doc for doc in dataset}
    label_names = dict(dataset.label_names)

    def process(doc_id: str) -> tuple[str, list[dict]]:
        if doc_id in journal:
            return doc_id, journal.get(doc_id)
        doc = docs[doc_id]
        texts = generate_candidates(
            doc, backend, config.generator, label_names, template, dataset.schema
        )
        candidates = [
            {
                "text": text,
                "verified": verify_label(
                    text, doc, backend, config.generator, label_names, template, dataset.schema
                ),
            }
            for text in texts
        ]
        journal.record(doc_id, candidates)
        return doc_id, candidates

    results: dict[str, list[dict]] = {}
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            for doc_id, candidates in pool.map(process, selected):
                results[doc_id] = candidates
    else:
        for doc_id in selected:
            doc_id, candidates = process(doc_id)
            results[doc_id] = candidates
    return results


def run_iteration(
    dataset: Dataset,
    config: RunConfig,
    backend,
    iteration: int = 1,
    journal: Optional[RewriteJournal] = None,
    template: Optional[PromptTemplate] = None,
) -> tuple[Dataset, IterationTrace]:
    """One pass of the loop. Returns the (possibly unchanged) dataset and the
    iteration's trace; on backend failure the dataset is returned unchanged
    and the trace records the error."""
    start = time.monotonic()
    journal = journal if journal is not None else RewriteJournal()
    stats = corpus_stats(dataset, generation_stamp=iteration)
    space = compute_embeddings(dataset, stats, config.lam)
    ledger = ClassLedger(space)
    objective_before = class_alignment_objective(ledger)
    k = resolve_k(config.k, len(dataset))
    selected = rank_and_select(space, ledger, k)

    calls_before = {"generate": backend.calls.count("generate"), "verify": backend.calls.count("verify")}

    def call_delta() -> dict[str, int]:
        return {
            "generate": backend.calls.count("generate") - calls_before["generate"],
            "verify": backend.calls.count("verify") - calls_before["verify"],
        }

    try:
        candidate_map = _gather_candidates(dataset, selected, backend, config, journal, template)
    except BackendError as exc:
        log.error("iteration %d aborted: %s", iteration, exc)
        trace = IterationTrace(
            iteration=iteration,
            objective_before=objective_before,
            objective_after=objective_before,
            selected_ids=list(selected),
            replaced_ids=[],
            kept_ids=list(selected),
            llm_calls=call_delta(),
            wall_time=time.monotonic() - start,
            error=str(exc),
        )
        return dataset, trace

    # Commit replacements one at a time against the live class ledger: each
    # strict improvement raises the pair objective, so the whole iteration is
    # monotone even when both sides of a class pair are rewritten.
    row = {doc_id: i for i, doc_id in enumerate(space.ids)}
    replaced: dict[str, LabeledDocument] = {}
    replaced_ids: list[str] = []
    kept_ids: list[str] = []
    for doc_id in selected:
        i = row[doc_id]
        doc = dataset.documents[i]
        accepted = [
            RewriteCandidate(c["text"], True)
            for c in candidate_map.get(doc_id, [])
            if c["verified"]
        ]
        decision = select_replacement(
            doc, accepted, stats, ledger, space.units[i], config.lam, config.tokenizer
        )
        if not decision.replaced:
            kept_ids.append(doc_id)
            continue
        ledger.swap(doc.label, space.units[i], decision.unit)
        replaced[doc_id] = decision.document
        replaced_ids.append(doc_id)

    objective_after = class_alignment_objective(ledger)

    new_dataset = dataset.with_documents(
        replaced.get(doc.id, doc) for doc in dataset
    )
    trace = IterationTrace(
        iteration=iteration,
        objective_before=objective_before,
        objective_after=objective_after,
        selected_ids=list(selected),
        replaced_ids=replaced_ids,
        kept_ids=kept_ids,
        llm_calls=call_delta(),
        wall_time=time.monotonic() - start,
    )
    return new_dataset, trace


@dataclass
class RunResult:
    dataset: Dataset
    traces: list[IterationTrace]
    stop_reason: str


def write_trace_file(
    path: str | Path, traces: list[IterationTrace], stop_reason: Optional[str]
) -> None:
    """Write the iteration traces and stop reason as the run's trace JSON."""
    payload = {
        "stop_reason": stop_reason,
        "iterations": [t.to_dict() for t in traces],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


class Checkpoint:
    """Run state on disk: iteration-numbered dataset snapshots, per-iteration
    rewrite journals, and a trace file with the accumulated iteration traces
    and stop reason."""

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

    def write_snapshot(self, dataset: Dataset, iteration: int) -> None:
        save_dataset(dataset, self.snapshot_path(iteration))

    def write_traces(self, traces: list[IterationTrace], stop_reason: Optional[str]) -> None:
        write_trace_file(self.trace_path, traces, stop_reason)

    def completed_iterations(self) -> int:
        last = -1
        for path in sorted(self.directory.glob("iteration_*.jsonl")):
            try:
                last = max(last, int(path.stem.split("_")[1]))
            except (IndexError, ValueError):
                continue
        return last

    def load_state(
        self, dataset: Dataset, tokenizer: TokenizerConfig = DEFAULT_TOKENIZER
    ) -> tuple[Dataset, list[IterationTrace], Optional[str], int]:
        """Resume point: (current dataset, completed traces, stop reason, last
        completed iteration). Falls back to the given input dataset when the
        directory holds no snapshots. The last snapshot is re-tokenized with
        ``tokenizer``, which must be the run's. Raises DataError when its ids
        or labels, in order, differ from the input's: it belongs to another
        input, or it was cut short."""
        last = self.completed_iterations()
        traces: list[IterationTrace] = []
        stop_reason = None
        if self.trace_path.exists():
            with open(self.trace_path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            stop_reason = payload.get("stop_reason")
            traces = [
                IterationTrace.from_dict(t)
                for t in payload.get("iterations", [])
                if t.get("error") is None and t.get("iteration", 0) <= last
            ]
        if last < 0:
            return dataset, [], None, -1
        path = self.snapshot_path(last)
        current = load_dataset(path, dataset.schema, dataset.label_names, tokenizer)
        if [(d.id, d.label) for d in current] != [(d.id, d.label) for d in dataset]:
            raise DataError(
                f"{path}: snapshot does not match the input ({len(current)} vs "
                f"{len(dataset)} documents, or different ids or labels); "
                "use a fresh checkpoint directory"
            )
        return current, traces, stop_reason, last


def run_razor(
    dataset: Dataset,
    config: RunConfig,
    backend,
    checkpoint: Optional[Checkpoint] = None,
    template: Optional[PromptTemplate] = None,
) -> RunResult:
    """Iterate :func:`run_iteration` to convergence, checkpointing after every
    iteration. If the checkpoint directory already holds state, the run
    resumes from it, replaying any partially journaled iteration instead of
    repeating its backend calls. Raises BackendError (checkpoint intact) when
    the backend gives out mid-run."""
    traces: list[IterationTrace] = []
    start_iteration = 1
    if checkpoint is not None:
        dataset, traces, stop_reason, last = checkpoint.load_state(dataset, config.tokenizer)
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
    for iteration in range(start_iteration, config.max_iterations + 1):
        journal = RewriteJournal(checkpoint.journal_path(iteration) if checkpoint else None)
        dataset_next, trace = run_iteration(
            dataset, config, backend, iteration, journal, template
        )
        traces.append(trace)
        if trace.error is not None:
            if checkpoint is not None:
                checkpoint.write_traces(traces, None)
            raise BackendError(trace.error)
        dataset = dataset_next
        if checkpoint is not None:
            checkpoint.write_snapshot(dataset, iteration)
            checkpoint.write_traces(traces, None)
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
