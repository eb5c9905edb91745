"""Surface-feature space: token significance, positional encoding, document
embeddings, and the cross-class cosine scores built on them.

A document's surface embedding is the significance-weighted sum of the
sinusoidal encodings of its token positions, divided by (token count - 1).
Documents with fewer than 2 tokens, or whose weights are all zero, are
excluded from scoring rather than patched.

A snapshot's embeddings are one :class:`SurfaceSpace` (a row per document),
and its per-class unit-vector sums one :class:`ClassLedger`. Both cosine sums
the paper defines reduce to dots with those class sums: a document's
shortcut score (:func:`score_against`) and the cross-class objective
(:func:`class_alignment_objective`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from .corpus import Dataset, LabeledDocument
from .errors import (
    ConfigError,
    DegenerateDocumentError,
    ObjectiveUndefinedError,
    StaleStatsError,
)

DEFAULT_LAMBDA = 64


@dataclass(frozen=True)
class CorpusStats:
    """Document count and per-token document frequencies for one dataset
    snapshot. ``generation_stamp`` records the pipeline iteration that
    produced the snapshot."""

    doc_count: int
    doc_frequency: Mapping[str, int]
    generation_stamp: int = 0


def corpus_stats(dataset: Dataset, generation_stamp: int = 0) -> CorpusStats:
    """Document frequencies over the rewritable texts only; context is ignored."""
    df: Counter[str] = Counter()
    for doc in dataset:
        df.update(set(doc.tokens))
    return CorpusStats(len(dataset), dict(df), generation_stamp)


def tfidf_score(token: str, doc: LabeledDocument, stats: CorpusStats) -> float:
    """Term frequency times inverse document frequency (natural log).

    Zero when the token does not occur in ``doc`` or occurs in every document.
    """
    n = doc.tokens.count(token)
    if n == 0:
        return 0.0
    df = stats.doc_frequency.get(token)
    if df is None:
        raise StaleStatsError(
            f"token {token!r} occurs in document {doc.id!r} but is missing from "
            f"corpus stats (stamp {stats.generation_stamp})"
        )
    return (n / len(doc.tokens)) * math.log(stats.doc_count / df)


def _check_width(lam: int) -> None:
    if lam <= 0 or lam % 2 != 0:
        raise ConfigError(f"encoding width must be a positive even integer, got {lam}")


def positional_encoding(pos: int, lam: int = DEFAULT_LAMBDA) -> np.ndarray:
    """Sinusoidal encoding of one position: component k is
    sin(pos / 10000^(2k/lam)) for even k and cos of the same angle for odd k.
    """
    _check_width(lam)
    if pos < 0:
        raise ConfigError(f"position must be non-negative, got {pos}")
    return _encoding_matrix(pos + 1, lam)[pos].copy()


def _encoding_matrix(n_positions: int, lam: int) -> np.ndarray:
    """Rows 0..n_positions-1 of the positional encoding, shape (n, lam)."""
    k = np.arange(lam, dtype=np.float64)
    denom = np.power(10000.0, 2.0 * k / lam)
    angles = np.arange(n_positions, dtype=np.float64)[:, None] / denom[None, :]
    out = np.where(k[None, :] % 2 == 0, np.sin(angles), np.cos(angles))
    return out


_TABLES: dict[int, np.ndarray] = {}


def _encoding_table(n_positions: int, lam: int) -> np.ndarray:
    """The encoding of at least ``n_positions`` positions, cached per width and
    regrown (doubling) when a longer document arrives. Its rows are the same
    as a fresh ``_encoding_matrix``'s, since each entry is computed alone, so
    sharing the cache across callers and threads changes no result."""
    table = _TABLES.get(lam)
    if table is None or len(table) < n_positions:
        grown = n_positions if table is None else max(n_positions, 2 * len(table))
        table = _TABLES[lam] = _encoding_matrix(grown, lam)
    return table


def _doc_weights(
    doc: LabeledDocument, stats: CorpusStats, unseen_df: Optional[int] = None
) -> np.ndarray:
    counts = Counter(doc.tokens)
    m = len(doc.tokens)
    weights = np.empty(m, dtype=np.float64)
    for j, token in enumerate(doc.tokens):
        df = stats.doc_frequency.get(token, unseen_df)
        if df is None:
            raise StaleStatsError(
                f"token {token!r} occurs in document {doc.id!r} but is missing from "
                f"corpus stats (stamp {stats.generation_stamp})"
            )
        weights[j] = (counts[token] / m) * math.log(stats.doc_count / df)
    return weights


def surface_embedding(
    doc: LabeledDocument,
    stats: CorpusStats,
    lam: int = DEFAULT_LAMBDA,
    unseen_df: Optional[int] = None,
) -> np.ndarray:
    """Embed one document: sum of weight(token_j) * encoding(j) over 0-based
    positions j, divided by (token count - 1).

    ``unseen_df`` scores text from outside the stats snapshot (rewrite
    candidates): tokens absent from the stats take that document frequency
    instead of raising. Snapshot documents should leave it None so stale
    stats are caught.
    """
    _check_width(lam)
    m = len(doc.tokens)
    if m < 2:
        raise DegenerateDocumentError(
            f"document {doc.id!r} has {m} token(s); at least 2 are required"
        )
    weights = _doc_weights(doc, stats, unseen_df)
    return (weights @ _encoding_table(m, lam)[:m]) / (m - 1)


def unit_vector(vector: np.ndarray) -> Optional[np.ndarray]:
    """``vector`` scaled to length 1, or None for the all-zero vector, whose
    direction (and therefore every cosine involving it) is undefined."""
    norm = float(np.linalg.norm(vector))
    return None if norm == 0.0 else vector / norm


class SurfaceSpace:
    """One snapshot's embeddings, row i for the i-th document.

    ``embedded[i]`` is False for a document too short to embed; its rows stay
    zero. ``units`` holds each row's unit vector and stays zero for the
    all-zero embedding, so ``scoreable`` is exactly the non-zero unit rows.
    """

    def __init__(self, ids: Iterable[str], labels: Iterable[int], lam: int):
        self.ids = list(ids)
        self.labels = np.asarray(list(labels), dtype=np.int64)
        n = len(self.ids)
        self.vectors = np.zeros((n, lam))
        self.units = np.zeros((n, lam))
        self.embedded = np.zeros(n, dtype=bool)

    def __len__(self) -> int:
        """Number of embedded documents."""
        return int(self.embedded.sum())

    def set_row(self, i: int, vector: np.ndarray) -> None:
        self.vectors[i] = vector
        self.embedded[i] = True
        unit = unit_vector(vector)
        if unit is not None:
            self.units[i] = unit

    @property
    def scoreable(self) -> np.ndarray:
        return self.units.any(axis=1)


def compute_embeddings(
    dataset: Dataset,
    stats: Optional[CorpusStats] = None,
    lam: int = DEFAULT_LAMBDA,
) -> SurfaceSpace:
    """The surface space of ``dataset``; documents too short to embed keep an
    empty row, and callers treat them as unscoreable."""
    _check_width(lam)
    if stats is None:
        stats = corpus_stats(dataset)
    space = SurfaceSpace((d.id for d in dataset), (d.label for d in dataset), lam)
    for i, doc in enumerate(dataset):
        if len(doc.tokens) >= 2:
            space.set_row(i, surface_embedding(doc, stats, lam))
    return space


class ClassLedger:
    """Per-class sums ``sums`` (shape (C, lam)) and ``counts`` of a space's
    scoreable unit vectors, one row per class present in the space, in
    ascending label order. Commits update it one row at a time."""

    def __init__(self, space: SurfaceSpace):
        self.classes = sorted(set(space.labels.tolist()))
        self._row = {label: c for c, label in enumerate(self.classes)}
        rows = np.searchsorted(self.classes, space.labels)
        self.sums = np.zeros((len(self.classes), space.units.shape[1]))
        # add.at adds in document order, as a running sum does; unscoreable
        # rows are zero and add nothing
        np.add.at(self.sums, rows, space.units)
        self.counts = np.bincount(rows[space.scoreable], minlength=len(self.classes))

    def opposite(self, label: int) -> tuple[np.ndarray, int]:
        """Sum and count of the unit vectors of every other class."""
        c = self._row[label]
        return self.sums.sum(axis=0) - self.sums[c], int(self.counts.sum() - self.counts[c])

    def swap(self, label: int, old_unit: np.ndarray, new_unit: np.ndarray) -> None:
        """Replace one document's unit vector in its class sum."""
        row = self.sums[self._row[label]]
        row -= old_unit
        row += new_unit


def score_against(unit: np.ndarray, opposite_sum: np.ndarray, opposite_count: int) -> float:
    """Shortcut score of a unit vector: 1 - its mean cosine to the opposite
    class's documents, as one dot with their summed unit vectors.

    Range [0, 2]; high values flag documents whose surface features diverge
    from the opposite class.
    """
    return 1.0 - float(unit @ opposite_sum) / opposite_count


def shortcut_scores(space: SurfaceSpace, ledger: ClassLedger) -> dict[str, float]:
    """Shortcut scores of every scoreable document, keyed by id. Zero
    embeddings are excluded on both sides (their cosines are undefined)."""
    opposite = {label: ledger.opposite(label) for label in ledger.classes}
    labels = space.labels.tolist()
    out: dict[str, float] = {}
    for i in np.flatnonzero(space.scoreable):
        opposite_sum, n = opposite[labels[i]]
        if n:
            out[space.ids[i]] = score_against(space.units[i], opposite_sum, n)
    return out


def class_alignment_objective(ledger: ClassLedger) -> float:
    """Summed pairwise cosine similarity between documents of different labels,
    computed as dots of per-class unit-vector sums over unordered class pairs.

    This is the pipeline's convergence target; rewriting aims to increase it.
    """
    for label, count in zip(ledger.classes, ledger.counts):
        if count == 0:
            raise ObjectiveUndefinedError(
                f"class {label} has no non-zero surface embeddings; objective undefined"
            )
    sums = ledger.sums
    total = 0.0
    for a in range(len(sums)):
        for b in range(a + 1, len(sums)):
            total += float(sums[a] @ sums[b])
    return total
