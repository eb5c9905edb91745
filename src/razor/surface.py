"""Surface-feature space: token significance, positional encoding, document
embeddings, and the cross-class cosine scores built on them.

A document's surface embedding is the significance-weighted sum of the
sinusoidal encodings of its token positions, divided by (token count - 1).
Documents with fewer than 2 tokens, or whose weights are all zero, are
excluded from scoring rather than patched.

A run numbers its tokens once, in one :class:`TokenTable` that follows the
snapshots by the documents each iteration replaces (:func:`corpus_stats`). A
snapshot's embeddings are one :class:`SurfaceSpace` (a row per document,
filled a block of documents at a time from the table's token ids and idf),
and its per-class unit-vector sums one :class:`ClassLedger`. Rewrite
candidates are embedded in blocks as well (:func:`candidate_units`), read
through the same table: a token it never saw takes df 1, as it would have
once inserted. Both cosine sums the paper defines reduce to dots
with those class sums: a document's shortcut score (:func:`score_against`)
and the cross-class objective (:func:`class_alignment_objective`).
"""

from __future__ import annotations

import math
import mmap
from collections import defaultdict
from itertools import chain, count
from operator import is_not
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus import Dataset, LabeledDocument
from .errors import ConfigError, DegenerateDocumentError, ObjectiveUndefinedError

DEFAULT_LAMBDA = 64

# Documents embedded per block by compute_embeddings: large enough for one
# matrix product to amortize the per-block numpy calls, small enough that a
# block's temporaries stay far below the space's own arrays.
BLOCK_DOCS = 256


class TokenTable:
    """A run's tokens as numbers, for one dataset snapshot at a time.

    ``vocab`` numbers every token the run has seen and only grows. Document i
    of ``documents`` holds the ids ``ids[offsets[i]:offsets[i + 1]]`` in
    reading order. ``df`` counts the documents holding each token, and
    ``idf`` is log(n / df) per entry, log(n / 1) where df is 0: a token no
    document holds any more scores as an unseen one.

    :meth:`update` moves the table to a later snapshot. Only the documents
    that are not the objects it numbered before are mapped from their
    strings, and df moves by their exact integer deltas, so each idf entry
    keeps the bits a fresh count gives."""

    def __init__(self):
        self.vocab: dict[str, int] = {}
        self.documents: tuple[LabeledDocument, ...] = ()
        self.ids = np.zeros(0, dtype=np.int32)
        self.offsets = np.zeros(1, dtype=np.int64)
        self.df = np.zeros(0, dtype=np.int64)
        self.idf = np.zeros(0)

    def update(self, dataset: Dataset) -> None:
        """Number the documents of ``dataset`` that the table does not hold
        yet; a dataset of another size is numbered afresh."""
        docs = dataset.documents
        if len(docs) != len(self.documents):
            ids, lengths = self._number(docs)
            self.ids = _mapped_zeros(len(ids), dtype=np.int32)
            self.ids[:] = ids
            self.offsets = np.concatenate([[0], np.cumsum(lengths)])
            self.df = _doc_counts(lengths, ids, len(self.vocab))
            self.idf = _idf(len(docs), self.df)
        else:
            changed = np.fromiter(map(is_not, docs, self.documents), bool, len(docs))
            rows = np.flatnonzero(changed).tolist()
            if rows:
                self._replace(docs, rows)
        self.documents = docs

    def _number(self, docs: Sequence[LabeledDocument]) -> tuple[np.ndarray, np.ndarray]:
        """``docs``' token ids and lengths, numbering tokens new to the run."""
        # ids from a counter, not from the dict's own __len__ (see _mapped)
        grown = defaultdict(count(len(self.vocab)).__next__, self.vocab)
        ids, lengths = _token_ids(docs, grown)
        if len(grown) > len(self.vocab):
            self.vocab = dict(grown)
        return ids, lengths

    def _replace(self, docs: tuple[LabeledDocument, ...], rows: list[int]) -> None:
        """Renumber the documents at ``rows`` (ascending) and move df by
        their exact deltas."""
        new_ids, new_lengths = self._number([docs[i] for i in rows])
        firsts = self.offsets[rows].tolist()
        lasts = self.offsets[np.add(rows, 1)].tolist()
        # the table's ids in row order: each run of unchanged rows, then a
        # replaced row's new ids; and the replaced rows' old ids
        pieces, old_ids = [], []
        start = taken = 0
        for first, last, length in zip(firsts, lasts, new_lengths.tolist()):
            pieces.append(self.ids[start:first])
            pieces.append(new_ids[taken : taken + length])
            old_ids.append(self.ids[first:last])
            start, taken = last, taken + length
        pieces.append(self.ids[start:])
        lengths = np.diff(self.offsets)

        size = len(self.vocab)
        delta = _doc_counts(new_lengths, new_ids, size)
        delta[: len(self.df)] -= _doc_counts(lengths[rows], np.concatenate(old_ids), len(self.df))
        df = np.zeros(size, dtype=np.int64)
        df[: len(self.df)] = self.df
        df += delta
        idf = np.empty(size)
        idf[: len(self.idf)] = self.idf
        moved = np.flatnonzero(delta)
        idf[moved] = _idf(len(docs), df[moved])

        lengths[rows] = new_lengths
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        self.ids = np.concatenate(pieces, out=_mapped_zeros(offsets[-1], dtype=np.int32))
        self.offsets, self.df, self.idf = offsets, df, idf


def _idf(n: int, df: np.ndarray) -> np.ndarray:
    """log(n / df) per entry, log(n / 1) where df is 0."""
    return np.array([math.log(n / max(d, 1)) for d in df.tolist()], dtype=np.float64)


def corpus_stats(dataset: Dataset, table: Optional[TokenTable] = None) -> TokenTable:
    """Document frequencies over the rewritable texts only; context is ignored.

    ``table``, a run's :class:`TokenTable`, moved to ``dataset`` and
    returned; without one, a table built for ``dataset`` alone."""
    if table is None:
        table = TokenTable()
    table.update(dataset)
    return table


def _token_ids(
    docs: Sequence[LabeledDocument], vocab: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Each token of ``docs`` as its id in ``vocab``, in reading order, and
    each document's length: the one place tokens are numbered from their
    strings."""
    lengths = np.fromiter(map(len, (d.tokens for d in docs)), dtype=np.int64, count=len(docs))
    token_ids = np.fromiter(
        map(vocab.__getitem__, chain.from_iterable(d.tokens for d in docs)),
        dtype=np.int32,
        count=int(lengths.sum()),
    )
    return token_ids, lengths


def _doc_counts(lengths: np.ndarray, token_ids: np.ndarray, size: int) -> np.ndarray:
    """How many of the documents (their lengths, and their token ids in
    reading order) hold each id below ``size``. Each block of ``BLOCK_DOCS``
    documents adds its distinct (document, token) pairs, found with one
    ``np.unique``, with one ``np.bincount``."""
    counts = np.zeros(size, dtype=np.int64)
    ends = np.cumsum(lengths)
    for start in range(0, len(lengths), BLOCK_DOCS):
        block = lengths[start : start + BLOCK_DOCS]
        first = ends[start] - block[0]
        keys = np.repeat(np.arange(len(block)) * size, block)
        keys += token_ids[first : first + len(keys)]
        # return_inverse: the argsort the embedding blocks use. A plain
        # np.unique sorts in place, which loads 1.5 MB more of numpy's code.
        pairs = np.unique(keys, return_inverse=True)[0]
        counts += np.bincount(pairs % size, minlength=size)
    return counts


def _mapped(
    docs: Sequence[LabeledDocument], table: TokenTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lengths and token ids of ``docs``, numbered from their strings
    through the table's vocabulary, and the idf table to read them with. A
    token the table never saw takes an id past it and the idf of df 1, the
    idf the table holds for a token no document holds any more."""
    # Ids from a counter, not from the dict's own __len__: that
    # self-reference would keep the copy alive until the cycle collector ran.
    vocab = defaultdict(count(len(table.vocab)).__next__, table.vocab)
    token_ids, lengths = _token_ids(docs, vocab)
    idf = np.full(len(vocab), math.log(len(table.documents) / 1))
    idf[: len(table.idf)] = table.idf
    return lengths, token_ids, idf


def tfidf_score(token: str, doc: LabeledDocument, stats: TokenTable) -> float:
    """Term frequency times inverse document frequency (natural log).

    Zero when the token does not occur in ``doc`` or occurs in every document.
    """
    if token not in doc.tokens:
        return 0.0
    weights = _block_weights(*_mapped([doc], stats))
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


def _block_weights(lengths: np.ndarray, token_ids: np.ndarray, idf: np.ndarray) -> np.ndarray:
    """The tf-idf weight of every token position of a block of documents,
    given as their lengths and their token ids in reading order: a (B, M)
    matrix, row b holding document b's weights and zero past its length,
    where M is the longest length.

    A token's weight is (its count in the document / the document's length)
    * ``idf[its id]``. The count of each occurrence comes from one
    ``np.unique`` over (document, token) keys.
    """
    keys = np.repeat(np.arange(len(lengths)) * len(idf), lengths) + token_ids
    _, occurrence, counts = np.unique(keys, return_inverse=True, return_counts=True)
    # a boolean mask fills row by row, in the order the tokens were read
    filled = np.arange(lengths.max()) < lengths[:, None]
    weights = np.zeros(filled.shape)
    weights[filled] = (counts[occurrence] / np.repeat(lengths, lengths)) * idf[token_ids]
    return weights


def _embed_block(
    lengths: np.ndarray, token_ids: np.ndarray, idf: np.ndarray, lam: int
) -> np.ndarray:
    """Embeddings of a block of documents (each of at least 2 tokens, given
    as for :func:`_block_weights`), one row each: one product of the block's
    weights with the encoding table."""
    weights = _block_weights(lengths, token_ids, idf)
    width = weights.shape[1]
    return (weights @ _encoding_table(width, lam)[:width]) / (lengths - 1)[:, None]


def surface_embedding(
    doc: LabeledDocument, stats: TokenTable, lam: int = DEFAULT_LAMBDA
) -> np.ndarray:
    """Embed one document: sum of weight(token_j) * encoding(j) over 0-based
    positions j, divided by (token count - 1)."""
    _check_width(lam)
    m = len(doc.tokens)
    if m < 2:
        raise DegenerateDocumentError(
            f"document {doc.id!r} has {m} token(s); at least 2 are required"
        )
    return _embed_block(*_mapped([doc], stats), lam)[0]


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Each row scaled to length 1; all-zero rows stay zero."""
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    return np.divide(vectors, norms, out=np.zeros_like(vectors), where=norms > 0)


def candidate_units(
    docs: Sequence[LabeledDocument], stats: TokenTable, lam: int = DEFAULT_LAMBDA
) -> np.ndarray:
    """Unit embeddings of rewrite candidates (each of at least 2 tokens), one
    row each, embedded ``BLOCK_DOCS`` at a time; a row stays zero for an
    all-zero embedding."""
    units = np.zeros((len(docs), lam))
    for start in range(0, len(docs), BLOCK_DOCS):
        block = docs[start : start + BLOCK_DOCS]
        vectors = _embed_block(*_mapped(block, stats), lam)
        units[start : start + len(block)] = _unit_rows(vectors)
    return units


def _mapped_zeros(*shape: int, dtype=np.float64) -> np.ndarray:
    """A zero array in an anonymous memory map of its own, handed back to the
    system when the array is freed. On the heap, a snapshot's arrays reuse
    the previous snapshot's freed ones only when nothing else was placed
    there in between; otherwise they take fresh memory while the freed space
    stays resident: at 10k documents, peak memory was 5 MB higher on some
    inputs than on others."""
    size = math.prod(shape)
    buffer = mmap.mmap(-1, max(1, size * np.dtype(dtype).itemsize))
    return np.frombuffer(buffer, dtype=dtype, count=size).reshape(shape)


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
    stats: Optional[TokenTable] = None,
    lam: int = DEFAULT_LAMBDA,
) -> SurfaceSpace:
    """The surface space of ``dataset``, embedded ``BLOCK_DOCS`` documents at
    a time from the token ids and idf of ``stats`` (the run's table, moved to
    ``dataset`` first); documents too short to embed keep an empty row, and
    callers treat them as unscoreable."""
    _check_width(lam)
    table = corpus_stats(dataset, stats)
    docs = dataset.documents
    space = SurfaceSpace((d.id for d in docs), (d.label for d in docs), lam)
    offsets = table.offsets
    for start in range(0, len(docs), BLOCK_DOCS):
        stop = min(start + BLOCK_DOCS, len(docs))
        lengths = np.diff(offsets[start : stop + 1])
        token_ids = table.ids[offsets[start] : offsets[stop]]
        embeddable = lengths >= 2
        if not embeddable.all():
            token_ids = token_ids[np.repeat(embeddable, lengths)]
            lengths = lengths[embeddable]
        if len(lengths):
            rows = start + np.flatnonzero(embeddable)
            space.set_rows(rows, _embed_block(lengths, token_ids, table.idf, lam))
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
