"""Surface-feature space: token significance, positional encoding, document
embeddings, and the cross-class cosine scores built on them.

A document's surface embedding is the significance-weighted sum of the
sinusoidal encodings of its token positions, divided by (token count - 1).
Documents with fewer than 2 tokens, or whose weights are all zero, are
excluded from scoring rather than patched.

A snapshot's embeddings are one :class:`SurfaceSpace` (a row per document,
filled a block of documents at a time from the idf table of its
:class:`CorpusStats`), and its per-class unit-vector sums one
:class:`ClassLedger`. Rewrite candidates are embedded in blocks as well
(:func:`candidate_units`). Both cosine sums the paper defines reduce to dots
with those class sums: a document's shortcut score (:func:`score_against`)
and the cross-class objective (:func:`class_alignment_objective`).
"""

from __future__ import annotations

import math
import mmap
from collections import defaultdict
from dataclasses import dataclass, field
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
    produced the snapshot.

    ``vocab`` numbers the tokens of ``doc_frequency`` in its order, and
    ``idf[vocab[token]]`` is the token's log(doc_count / df): one table per
    snapshot, read by every block embedded against it."""

    doc_count: int
    doc_frequency: Mapping[str, int]
    generation_stamp: int = 0
    vocab: dict[str, int] = field(init=False, repr=False, compare=False)
    idf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vocab", {t: i for i, t in enumerate(self.doc_frequency)})
        idf = [math.log(self.doc_count / df) for df in self.doc_frequency.values()]
        object.__setattr__(self, "idf", np.array(idf, dtype=np.float64))


def corpus_stats(dataset: Dataset, generation_stamp: int = 0) -> CorpusStats:
    """Document frequencies over the rewritable texts only; context is ignored.

    Tokens are interned once per snapshot. Each block of ``BLOCK_DOCS``
    documents adds its distinct (document, token) pairs, found with one
    ``np.unique``, to the df array with one ``np.bincount``."""
    # ids from a counter, not from the dict's own __len__ (see _block_weights)
    vocab: defaultdict[str, int] = defaultdict(count().__next__)
    df = np.zeros(0, dtype=np.int64)
    docs = dataset.documents
    for start in range(0, len(docs), BLOCK_DOCS):
        _, _, keys = _token_keys(docs[start : start + BLOCK_DOCS], vocab)
        # return_inverse: the argsort the embedding blocks use. A plain
        # np.unique sorts in place, which loads 1.5 MB more of numpy's code.
        pairs = np.unique(keys, return_inverse=True)[0]
        block_df = np.bincount(pairs % len(vocab), minlength=len(vocab))
        block_df[: len(df)] += df
        df = block_df
    return CorpusStats(len(docs), dict(zip(vocab, df.tolist())), generation_stamp)


def _token_keys(
    docs: Sequence[LabeledDocument], vocab: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each token's id in ``vocab`` in reading order, each document's length,
    and one (document, token) key per token, unique to the pair."""
    token_ids = np.fromiter(
        map(vocab.__getitem__, chain.from_iterable(d.tokens for d in docs)), dtype=np.int64
    )
    lengths = np.array([len(d.tokens) for d in docs], dtype=np.int64)
    keys = np.repeat(np.arange(len(docs)) * len(vocab), lengths) + token_ids
    return token_ids, lengths, keys


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
    * log(doc_count / df), the idf read from the stats' table. The count of
    each occurrence comes from one ``np.unique`` over (document, token) keys.
    """
    idf = stats.idf
    vocab: Mapping[str, int] = stats.vocab
    if unseen_df is not None:
        # tokens outside the snapshot take ids past its table, whose idf is
        # that of unseen_df. Ids from a counter, not from the dict's own
        # __len__: that self-reference would keep the copy alive until the
        # cycle collector ran.
        vocab = defaultdict(count(len(vocab)).__next__, vocab)
    try:
        token_ids, lengths, keys = _token_keys(docs, vocab)
    except KeyError as exc:
        token = exc.args[0]
        doc = next(d for d in docs if token in d.tokens)
        raise StaleStatsError(
            f"token {token!r} occurs in document {doc.id!r} but is missing from "
            f"corpus stats (stamp {stats.generation_stamp})"
        ) from None
    if len(vocab) > len(idf):
        unseen_idf = math.log(stats.doc_count / unseen_df)
        idf = np.concatenate([idf, np.full(len(vocab) - len(idf), unseen_idf)])

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


def candidate_units(
    docs: Sequence[LabeledDocument], stats: CorpusStats, lam: int = DEFAULT_LAMBDA
) -> np.ndarray:
    """Unit embeddings of rewrite candidates (each of at least 2 tokens), one
    row each, embedded ``BLOCK_DOCS`` at a time; a row stays zero for an
    all-zero embedding. Tokens absent from ``stats`` take df 1: a candidate's
    new tokens would have df >= 1 once inserted."""
    units = np.zeros((len(docs), lam))
    for start in range(0, len(docs), BLOCK_DOCS):
        block = docs[start : start + BLOCK_DOCS]
        units[start : start + len(block)] = _unit_rows(_embed_block(block, stats, lam, unseen_df=1))
    return units


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
        # a reduce over axis 0 adds a class's rows in document order, as a
        # running sum does (the bits of np.add.at); unscoreable rows are zero
        # and add nothing
        for c in range(len(self.classes)):
            self.sums[c] = np.add.reduce(space.units, axis=0, where=(rows == c)[:, None])
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


def score_against(
    units: np.ndarray, opposite_sum: np.ndarray, opposite_count: int
) -> np.ndarray | float:
    """Shortcut score of a unit vector (or of each row of a matrix of them):
    1 - its mean cosine to the opposite class's documents, as one dot with
    their summed unit vectors.

    Range [0, 2]; high values flag documents whose surface features diverge
    from the opposite class.

    ``np.vecdot`` takes each row's dot on its own, as ``unit @ opposite_sum``
    does for one row, so a row scores the same alone or in a matrix. (A
    matrix-vector ``@`` rounds differently, and OpenBLAS runs it on threads
    that cost more than they save at this size.)
    """
    return 1.0 - np.vecdot(units, opposite_sum) / opposite_count


def shortcut_scores(space: SurfaceSpace, ledger: ClassLedger) -> dict[str, float]:
    """Shortcut scores of every scoreable document, keyed by id in ranked
    order: score descending, ascending id as the tie-break. Zero embeddings
    are excluded on both sides (their cosines are undefined).

    Each class's scores come from one pass of :func:`score_against` over all
    unit rows (one dot per row, no (n, lam) temporary), and the ranking from
    one sort on (-score, id)."""
    scores = np.zeros(len(space.ids))
    scored = np.zeros(len(space.ids), dtype=bool)
    scoreable = space.scoreable
    for label in ledger.classes:
        opposite_sum, n = ledger.opposite(label)
        if n:
            rows = scoreable & (space.labels == label)
            scores[rows] = score_against(space.units, opposite_sum, n)[rows]
            scored |= rows
    rows = np.flatnonzero(scored)
    ids = [space.ids[i] for i in rows.tolist()]
    # the ids' ranks, for a tie-break in Python's string order
    id_rank = np.empty(len(ids), dtype=np.int64)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    order = np.lexsort((id_rank, -scores[rows])).tolist()
    ranked = scores[rows].tolist()
    return {ids[j]: ranked[j] for j in order}


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
