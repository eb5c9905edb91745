"""Measurement harness: term counting, corpus-level BLEU, class-conditional
frequency gaps, a planted-bias corpus generator, and before/after reports.

The synthetic generator plants a token into one class at a high rate and into
the rest at a low rate, mimicking a spurious token-label association, and
emits matching mock-rewriter rules that delete the token so the full loop can
be exercised without a live model.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .corpus import Dataset, make_document, tokenize
from .errors import ConfigError, DataError

_SUBJECTS = [
    "engineer", "gardener", "pilot", "teacher", "violinist",
    "farmer", "surgeon", "curator", "printer", "sailor",
]
_VERBS = [
    "painted", "repaired", "described", "inspected", "organized",
    "measured", "cleaned", "labeled", "moved", "sketched",
]
_OBJECTS = [
    "fence", "bridge", "engine", "garden", "archive",
    "telescope", "orchard", "workshop", "mural", "cabinet",
]
_TAILS = [
    "yesterday", "carefully", "twice", "slowly", "today",
    "quietly", "again", "early", "overnight", "alone",
]

DEFAULT_LABEL_NAMES = {0: "negative", 1: "positive"}


@dataclass(frozen=True)
class BiasSpec:
    """Parameters of a planted spurious token: present in ``bias_rate`` of the
    biased class's documents and ``background_rate`` of the others."""

    planted_token: str
    biased_class: int = 1
    bias_rate: float = 0.9
    background_rate: float = 0.1
    corpus_size: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("bias_rate", "background_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.bias_rate <= self.background_rate:
            raise ConfigError(
                f"bias_rate ({self.bias_rate}) must exceed background_rate "
                f"({self.background_rate}) for a meaningful plant"
            )
        if self.corpus_size < 2:
            raise ConfigError(f"corpus_size must be >= 2, got {self.corpus_size}")
        if self.biased_class not in (0, 1):
            raise ConfigError(f"biased_class must be 0 or 1, got {self.biased_class}")
        if not self.planted_token.strip():
            raise ConfigError("planted_token must be non-empty")


@dataclass
class _TermScan:
    """One casefolded pass over a snapshot's rewritable texts: per folded
    term, its occurrences per class and the documents holding it per class,
    and the documents per class."""

    occurrences: dict[str, Counter]
    holding: dict[str, Counter]
    documents: Counter


def _scan_terms(dataset: Dataset, terms: Sequence[str]) -> _TermScan:
    folded_terms = {term.casefold() for term in terms}
    scan = _TermScan(
        {f: Counter() for f in folded_terms},
        {f: Counter() for f in folded_terms},
        Counter(doc.label for doc in dataset),
    )
    if not folded_terms:
        return scan
    # each distinct token is casefolded once, and only the documents holding
    # a token that folds to a term are read token by token
    distinct = set(chain.from_iterable(doc.tokens for doc in dataset))
    fold = {tok: f for tok in distinct if (f := tok.casefold()) in folded_terms}
    for doc in dataset:
        if fold.keys().isdisjoint(doc.tokens):
            continue
        held = set()
        for tok in doc.tokens:
            if tok in fold:
                scan.occurrences[fold[tok]][doc.label] += 1
                held.add(fold[tok])
        for f in held:
            scan.holding[f][doc.label] += 1
    return scan


def check_terms(terms: Sequence[str]) -> None:
    """Raise ConfigError for a term that is not exactly one token as
    :func:`tokenize` reads it (``new york``, ``u.s.``): no token matches it,
    so it would count 0 in every snapshot."""
    for term in terms:
        if tokenize(term) != [term.lower()]:
            raise ConfigError(f"term {term!r} is not a single token")


def _term_counts(scan: _TermScan, term: str, label_names) -> dict:
    per_class = {label: scan.occurrences[term.casefold()][label] for label in label_names}
    return {"per_class": per_class, "total": sum(per_class.values())}


def _gap(scan: _TermScan, term: str) -> float:
    holding = scan.holding[term.casefold()]
    rates = [holding[label] / n for label, n in sorted(scan.documents.items())]
    if len(rates) < 2:
        raise DataError("frequency gap needs at least one document in each of two classes")
    return max(rates) - min(rates)


BLEU_MAX_N = 4
# pairs counted per numpy pass: n-gram keys are ranks within one block, so the
# transient arrays grow with the block, not the corpus (at 4096 they raised the
# peak RSS of a 100k-document report by 7 MB; at 2048, by nothing)
BLEU_BLOCK_PAIRS = 2048


def _add_block_counts(
    candidates: Sequence[str], references: Sequence[str], matches: list, totals: list
) -> tuple[int, int]:
    """Add one block of pairs' clipped n-gram matches and candidate n-gram
    totals, per order, to ``matches`` and ``totals``; return the block's
    candidate and reference token counts.

    The key of the n-gram starting at a token is the dense rank, among the
    block's n-grams, of (key of its (n-1)-gram prefix, id of its last token):
    an exact integer below the block's token count T, so no two n-grams
    share a key and ``prefix * V + token`` stays below T**2."""
    texts = [text.split() for text in chain(candidates, references)]
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    flat = list(chain.from_iterable(texts))
    vocab = {token: i for i, token in enumerate(dict.fromkeys(flat))}
    tokens = np.fromiter(map(vocab.__getitem__, flat), dtype=np.int64, count=len(flat))
    key = tokens
    pair = np.repeat(np.tile(np.arange(len(candidates)), 2), lengths)
    # tokens from each position to the end of its text, itself included
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(flat))
    cand_len = int(lengths[: len(candidates)].sum())
    start = np.arange(len(flat))
    for n in range(1, BLEU_MAX_N + 1):
        if n > 1:
            keep = left[start] >= n
            start = start[keep]
            _, key = np.unique(key[keep] * len(vocab) + tokens[start + n - 1], return_inverse=True)
        # clipping is per pair: count each (pair, n-gram) on each side
        grams = pair[start] * len(flat) + key
        split = int(np.searchsorted(start, cand_len))
        cand_grams, cand_counts = np.unique(grams[:split], return_counts=True)
        ref_grams, ref_counts = np.unique(grams[split:], return_counts=True)
        _, in_cand, in_ref = np.intersect1d(
            cand_grams, ref_grams, assume_unique=True, return_indices=True
        )
        matches[n - 1] += int(np.minimum(cand_counts[in_cand], ref_counts[in_ref]).sum())
        totals[n - 1] += split
    return cand_len, len(flat) - cand_len


def corpus_bleu(candidate_corpus: Sequence[str], reference_corpus: Sequence[str]) -> float:
    """Corpus-level BLEU-4 on a 0-100 scale: geometric mean of
    corpus-aggregated clipped n-gram precisions times the brevity penalty,
    over ``str.split()`` tokens. Unsmoothed: a zero precision at any order
    gives 0, so a corpus with no text of four or more tokens scores 0.0 even
    against itself.
    """
    if len(candidate_corpus) != len(reference_corpus):
        raise DataError(
            f"corpus length mismatch: {len(candidate_corpus)} candidates vs "
            f"{len(reference_corpus)} references"
        )
    if not candidate_corpus:
        raise DataError("corpora must be non-empty")

    matches = [0] * BLEU_MAX_N
    totals = [0] * BLEU_MAX_N
    cand_len = 0
    ref_len = 0
    for lo in range(0, len(candidate_corpus), BLEU_BLOCK_PAIRS):
        hi = lo + BLEU_BLOCK_PAIRS
        block_cand, block_ref = _add_block_counts(
            candidate_corpus[lo:hi], reference_corpus[lo:hi], matches, totals
        )
        cand_len += block_cand
        ref_len += block_ref

    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for match, total in zip(matches, totals):
        if match == 0 or total == 0:
            return 0.0
        log_sum += math.log(match / total) / BLEU_MAX_N
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * math.exp(log_sum)


def generate_biased_corpus(spec: BiasSpec) -> tuple[Dataset, dict]:
    """Deterministic synthetic corpus with the planted token inserted at the
    spec's rates, plus mock-rewriter rules that delete the token.

    Documents alternate between the two classes, so the corpus is balanced
    and every template sentence has at least 4 tokens.
    """
    rng = random.Random(spec.seed)
    documents = []
    for i in range(spec.corpus_size):
        label = i % 2
        words = [
            "the", rng.choice(_SUBJECTS), rng.choice(_VERBS),
            "the", rng.choice(_OBJECTS), rng.choice(_TAILS),
        ]
        rate = spec.bias_rate if label == spec.biased_class else spec.background_rate
        if rng.random() < rate:
            words.insert(rng.randint(0, len(words)), spec.planted_token)
        documents.append(make_document(f"doc-{i:05d}", " ".join(words), label))
    dataset = Dataset(tuple(documents), dict(DEFAULT_LABEL_NAMES), "single")
    rules = {
        "generation": [
            {"pattern": rf"\s*\b{re.escape(spec.planted_token)}\b", "replacement": ""}
        ],
        "verdict": "confirm",
        "seed": spec.seed,
    }
    return dataset, rules


@dataclass
class BiasReport:
    """Before/after measurements for one debiasing run."""

    term_counts: dict[str, dict] = field(default_factory=dict)
    frequency_gaps: dict[str, dict] = field(default_factory=dict)
    corpus_bleu: Optional[float] = None
    rewritten_count: int = 0
    objective_trace: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def write_json(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["section", "key", "class", "before", "after", "delta"])
            for term, row in self.term_counts.items():
                for label in row["before"]["per_class"]:
                    writer.writerow(
                        [
                            "term_count",
                            term,
                            label,
                            row["before"]["per_class"][label],
                            row["after"]["per_class"][label],
                            row["after"]["per_class"][label] - row["before"]["per_class"][label],
                        ]
                    )
                writer.writerow(
                    [
                        "term_count",
                        term,
                        "total",
                        row["before"]["total"],
                        row["after"]["total"],
                        row["delta"],
                    ]
                )
            for term, row in self.frequency_gaps.items():
                writer.writerow(
                    ["frequency_gap", term, "", row["before"], row["after"], row["delta"]]
                )
            writer.writerow(["corpus_bleu", "", "", "", self.corpus_bleu, ""])
            writer.writerow(["rewritten_count", "", "", "", self.rewritten_count, ""])
            for i, value in enumerate(self.objective_trace):
                writer.writerow(["objective", i, "", "", value, ""])


def emit_report(
    before: Dataset,
    after: Dataset,
    traces: Sequence = (),
    terms: Sequence[str] = (),
    sample: Optional[int] = None,
    seed: int = 0,
) -> BiasReport:
    """Compare two dataset snapshots: term-count and frequency-gap deltas for
    the given terms, BLEU of rewritten texts against their originals
    (optionally on a seeded sample of the rewritten pairs), and the objective
    trajectory from the iteration traces."""
    if sample is not None and sample < 1:
        raise ConfigError(f"sample must be >= 1, got {sample}")
    check_terms(terms)
    if before.schema != after.schema:
        raise DataError(f"schema mismatch: {before.schema!r} vs {after.schema!r}")
    before_by_id = {doc.id: doc for doc in before}
    if len(before) != len(after):
        raise DataError(f"size mismatch: {len(before)} vs {len(after)} documents")
    missing = [doc.id for doc in after if doc.id not in before_by_id]
    if missing:
        raise DataError(f"after-snapshot ids not present before: {missing[:5]}")
    for doc in after:
        original = before_by_id[doc.id]
        if (doc.label, doc.context_text) != (original.label, original.context_text):
            raise DataError(f"document {doc.id!r}: label or context differs between snapshots")

    report = BiasReport()
    scan_before, scan_after = _scan_terms(before, terms), _scan_terms(after, terms)
    for term in terms:
        b = _term_counts(scan_before, term, before.label_names)
        a = _term_counts(scan_after, term, after.label_names)
        report.term_counts[term] = {
            "before": b,
            "after": a,
            "delta": a["total"] - b["total"],
        }
        gap_before = _gap(scan_before, term)
        gap_after = _gap(scan_after, term)
        report.frequency_gaps[term] = {
            "before": gap_before,
            "after": gap_after,
            "delta": gap_after - gap_before,
        }

    rewritten_pairs = [
        (doc.mutable_text, before_by_id[doc.id].mutable_text)
        for doc in after
        if doc.mutable_text != before_by_id[doc.id].mutable_text
    ]
    report.rewritten_count = len(rewritten_pairs)
    if not rewritten_pairs:
        pairs = [(doc.mutable_text, doc.mutable_text) for doc in before]
    else:
        pairs = rewritten_pairs
        if sample is not None and sample < len(pairs):
            pairs = random.Random(seed).sample(pairs, sample)
    report.corpus_bleu = corpus_bleu([p[0] for p in pairs], [p[1] for p in pairs])

    if traces:
        report.objective_trace = [traces[0].objective_before] + [
            t.objective_after for t in traces
        ]
    return report
