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

from .corpus import Dataset, make_document
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


def _term_counts(scan: _TermScan, term: str, label_names) -> dict:
    per_class = {label: scan.occurrences[term.casefold()][label] for label in label_names}
    return {"per_class": per_class, "total": sum(per_class.values())}


def _gap(scan: _TermScan, term: str) -> float:
    holding = scan.holding[term.casefold()]
    rates = [holding[label] / n for label, n in sorted(scan.documents.items())]
    if len(rates) < 2:
        raise DataError("frequency gap needs at least one document in each of two classes")
    return max(rates) - min(rates)


def count_terms(dataset: Dataset, terms: Sequence[str]) -> dict[str, dict]:
    """Whole-token, case-insensitive occurrence counts of each term, per class
    and in total, over the rewritable texts."""
    if not terms:
        raise DataError("terms must be non-empty")
    scan = _scan_terms(dataset, terms)
    return {term: _term_counts(scan, term, dataset.label_names) for term in terms}


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


BLEU_MAX_N = 4


def corpus_bleu(candidate_corpus: Sequence[str], reference_corpus: Sequence[str]) -> float:
    """Corpus-level BLEU-4 on a 0-100 scale: geometric mean of
    corpus-aggregated clipped n-gram precisions times the brevity penalty.
    Unsmoothed: a zero precision at any order gives 0.
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
    for cand_text, ref_text in zip(candidate_corpus, reference_corpus):
        cand = cand_text.split()
        ref = ref_text.split()
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, BLEU_MAX_N + 1):
            cand_ngrams = _ngram_counts(cand, n)
            ref_ngrams = _ngram_counts(ref, n)
            totals[n - 1] += sum(cand_ngrams.values())
            matches[n - 1] += sum(
                min(count, ref_ngrams.get(gram, 0)) for gram, count in cand_ngrams.items()
            )

    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for match, total in zip(matches, totals):
        if match == 0 or total == 0:
            return 0.0
        log_sum += math.log(match / total) / BLEU_MAX_N
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * math.exp(log_sum)


def frequency_gap(dataset: Dataset, token: str) -> float:
    """Largest pairwise difference between classes in the probability that a
    document contains ``token`` (whole-token, case-insensitive)."""
    return _gap(_scan_terms(dataset, [token]), token)


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
    if before.schema != after.schema:
        raise DataError(f"schema mismatch: {before.schema!r} vs {after.schema!r}")
    before_by_id = {doc.id: doc for doc in before}
    if len(before) != len(after):
        raise DataError(f"size mismatch: {len(before)} vs {len(after)} documents")
    missing = [doc.id for doc in after if doc.id not in before_by_id]
    if missing:
        raise DataError(f"after-snapshot ids not present before: {missing[:5]}")

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
