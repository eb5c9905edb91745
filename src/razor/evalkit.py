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


def count_terms(dataset: Dataset, terms: Sequence[str]) -> dict[str, dict]:
    """Whole-token, case-insensitive occurrence counts of each term, per class
    and in total, over the rewritable texts."""
    if not terms:
        raise DataError("terms must be non-empty")
    out = {t: {"per_class": {label: 0 for label in dataset.label_names}, "total": 0} for t in terms}
    for doc in dataset:
        counts = Counter(tok.casefold() for tok in doc.tokens)
        for term, row in out.items():
            n = counts.get(term.casefold(), 0)
            if n:
                row["per_class"][doc.label] += n
                row["total"] += n
    return out


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(
    candidate_corpus: Sequence[str],
    reference_corpus: Sequence[str],
    max_n: int = 4,
    smooth: bool = False,
) -> float:
    """Corpus-level BLEU on a 0-100 scale: geometric mean of corpus-aggregated
    clipped n-gram precisions times the brevity penalty.

    Without smoothing, a zero precision at any order gives 0. ``smooth``
    applies add-one smoothing to zero-match orders above unigrams, for short
    corpora.
    """
    if len(candidate_corpus) != len(reference_corpus):
        raise DataError(
            f"corpus length mismatch: {len(candidate_corpus)} candidates vs "
            f"{len(reference_corpus)} references"
        )
    if not candidate_corpus:
        raise DataError("corpora must be non-empty")
    if max_n < 1:
        raise ConfigError(f"max_n must be >= 1, got {max_n}")

    matches = [0] * max_n
    totals = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand_text, ref_text in zip(candidate_corpus, reference_corpus):
        cand = cand_text.split()
        ref = ref_text.split()
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            cand_ngrams = _ngram_counts(cand, n)
            ref_ngrams = _ngram_counts(ref, n)
            totals[n - 1] += sum(cand_ngrams.values())
            matches[n - 1] += sum(
                min(count, ref_ngrams.get(gram, 0)) for gram, count in cand_ngrams.items()
            )

    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(max_n):
        match, total = matches[n], totals[n]
        if smooth and match == 0 and n > 0:
            match, total = match + 1, total + 1
        if match == 0 or total == 0:
            return 0.0
        log_sum += math.log(match / total) / max_n
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * math.exp(log_sum)


def frequency_gap(dataset: Dataset, token: str) -> float:
    """Largest pairwise difference between classes in the probability that a
    document contains ``token`` (whole-token, case-insensitive)."""
    folded = token.casefold()
    present: dict[int, int] = {}
    totals: dict[int, int] = {}
    for doc in dataset:
        totals[doc.label] = totals.get(doc.label, 0) + 1
        if any(tok.casefold() == folded for tok in doc.tokens):
            present[doc.label] = present.get(doc.label, 0) + 1
    rates = [present.get(label, 0) / n for label, n in sorted(totals.items())]
    if len(rates) < 2:
        raise DataError("frequency gap needs at least one document in each of two classes")
    return max(rates) - min(rates)


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
    if before.schema != after.schema:
        raise DataError(f"schema mismatch: {before.schema!r} vs {after.schema!r}")
    before_by_id = {doc.id: doc for doc in before}
    if len(before) != len(after):
        raise DataError(f"size mismatch: {len(before)} vs {len(after)} documents")
    missing = [doc.id for doc in after if doc.id not in before_by_id]
    if missing:
        raise DataError(f"after-snapshot ids not present before: {missing[:5]}")

    report = BiasReport()
    counts_before = count_terms(before, terms) if terms else {}
    counts_after = count_terms(after, terms) if terms else {}
    for term in terms:
        b, a = counts_before[term], counts_after[term]
        report.term_counts[term] = {
            "before": b,
            "after": a,
            "delta": a["total"] - b["total"],
        }
        gap_before = frequency_gap(before, term)
        gap_after = frequency_gap(after, term)
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
