"""Surface-feature space: token significance, positional encoding, document
embeddings, and the cross-class cosine scores built on them.

A document's surface embedding is the significance-weighted sum of the
sinusoidal encodings of its token positions, divided by (token count - 1).
Documents with fewer than 2 tokens, or whose weights are all zero, are
excluded from scoring rather than patched.

A snapshot's embeddings are one :class:`SurfaceSpace` (a row per document,
filled a block of documents at a time), and its per-class unit-vector sums
one :class:`ClassLedger`. Both cosine sums the paper defines reduce to dots
with those class sums: a document's shortcut score (:func:`score_against`)
and the cross-class objective (:func:`class_alignment_objective`).
"""

from __future__ import annotations

import math
import mmap
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus import Dataset, LabeledDocument
from .errors import (
    ConfigError,
    DegenerateDocumentError,
    ObjectiveUndefinedError,
    StaleStatsError,
)

DEFAULT_LAMBDA = 64

# Documents embedded per block by compute_embeddings: large enough for one
# matrix product to amortize the per-block numpy calls, small enough that a
# block's temporaries stay far below the space's own arrays.
BLOCK_DOCS = 256


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
    Raises StaleStatsError when any token of ``doc`` is missing from ``stats``.
    """
    if token not in doc.tokens:
        return 0.0
    weights, _ = _block_weights([doc], stats)
    return float(weights[0, doc.tokens.index(token)])


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


def _block_weights(
    docs: Sequence[LabeledDocument], stats: CorpusStats, unseen_df: Optional[int] = None
) -> tuple[np.ndarray, np.ndarray]:
    """The tf-idf weight of every token position of ``docs``: a (B, M) matrix,
    row b holding document b's weights and zero past its length, where M is
    the longest length. Also returns the lengths.

    A token's weight is (its count in the document / the document's length)
    * log(doc_count / df). Tokens are interned once per block; the count of
    each occurrence comes from one ``np.unique`` over (document, token) keys.
    """
    # ids from a counter, not from the dict's own __len__: that self-reference
    # would keep each block's vocabulary alive until the cycle collector ran
    vocab: defaultdict[str, int] = defaultdict(count().__next__)
    token_ids = np.fromiter(
        map(vocab.__getitem__, chain.from_iterable(d.tokens for d in docs)), dtype=np.int64
    )
    dfs = [stats.doc_frequency.get(token, unseen_df) for token in vocab]
    if None in dfs:
        token = next(t for t, df in zip(vocab, dfs) if df is None)
        doc = next(d for d in docs if token in d.tokens)
        raise StaleStatsError(
            f"token {token!r} occurs in document {doc.id!r} but is missing from "
            f"corpus stats (stamp {stats.generation_stamp})"
        )
    idf = np.array([math.log(stats.doc_count / df) for df in dfs])

    lengths = np.array([len(d.tokens) for d in docs], dtype=np.int64)
    keys = np.repeat(np.arange(len(docs)) * len(vocab), lengths) + token_ids
    _, occurrence, counts = np.unique(keys, return_inverse=True, return_counts=True)
    # a boolean mask fills row by row, in the order the tokens were read
    filled = np.arange(lengths.max()) < lengths[:, None]
    weights = np.zeros(filled.shape)
    weights[filled] = (counts[occurrence] / np.repeat(lengths, lengths)) * idf[token_ids]
    return weights, lengths


def _embed_block(
    docs: Sequence[LabeledDocument],
    stats: CorpusStats,
    lam: int,
    unseen_df: Optional[int] = None,
) -> np.ndarray:
    """Embeddings of ``docs`` (each of at least 2 tokens), one row each: one
    product of the block's weights with the encoding table."""
    weights, lengths = _block_weights(docs, stats, unseen_df)
    width = weights.shape[1]
    return (weights @ _encoding_table(width, lam)[:width]) / (lengths - 1)[:, None]


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
    return _embed_block([doc], stats, lam, unseen_df)[0]


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Each row scaled to length 1; all-zero rows stay zero."""
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    return np.divide(vectors, norms, out=np.zeros_like(vectors), where=norms > 0)


def unit_vector(vector: np.ndarray) -> Optional[np.ndarray]:
    """``vector`` scaled to length 1, or None for the all-zero vector, whose
    direction (and therefore every cosine involving it) is undefined."""
    unit = _unit_rows(vector[None])[0]
    return unit if unit.any() else None


def _mapped_zeros(n: int, lam: int) -> np.ndarray:
    """A zero (n, lam) float array in an anonymous memory map of its own,
    handed back to the system when the array is freed. On the heap, a
    snapshot's space reuses the previous snapshot's freed one only when
    nothing else was placed there in between; otherwise it takes fresh memory
    while the freed space stays resident: at 10k documents, peak memory was
    5 MB higher on some inputs than on others."""
    buffer = mmap.mmap(-1, max(1, n * lam * 8))
    return np.frombuffer(buffer, dtype=np.float64, count=n * lam).reshape(n, lam)


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
        self.vectors = _mapped_zeros(n, lam)
        self.units = _mapped_zeros(n, lam)
        self.embedded = np.zeros(n, dtype=bool)

    def __len__(self) -> int:
        """Number of embedded documents."""
        return int(self.embedded.sum())

    def set_rows(self, rows, vectors: np.ndarray) -> None:
        """Store the embeddings ``vectors`` at ``rows`` (a row number with one
        vector, or a sequence of row numbers with one vector each)."""
        self.vectors[rows] = vectors
        self.embedded[rows] = True
        self.units[rows] = _unit_rows(np.atleast_2d(vectors))

    @property
    def scoreable(self) -> np.ndarray:
        return self.units.any(axis=1)


def compute_embeddings(
    dataset: Dataset,
    stats: Optional[CorpusStats] = None,
    lam: int = DEFAULT_LAMBDA,
) -> SurfaceSpace:
    """The surface space of ``dataset``, embedded ``BLOCK_DOCS`` documents at
    a time; documents too short to embed keep an empty row, and callers treat
    them as unscoreable."""
    _check_width(lam)
    if stats is None:
        stats = corpus_stats(dataset)
    docs = dataset.documents
    space = SurfaceSpace((d.id for d in docs), (d.label for d in docs), lam)
    for start in range(0, len(docs), BLOCK_DOCS):
        block = range(start, min(start + BLOCK_DOCS, len(docs)))
        rows = [i for i in block if len(docs[i].tokens) >= 2]
        if rows:
            space.set_rows(rows, _embed_block([docs[i] for i in rows], stats, lam))
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
