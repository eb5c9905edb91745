"""Surface-feature space: token significance, positional encoding, document
embeddings, and the cross-class cosine scores built on them.

A document's surface embedding is the significance-weighted sum of the
sinusoidal encodings of its token positions, divided by (token count - 1).
Documents with fewer than 2 tokens, or whose weights are all zero, are
excluded from scoring rather than patched.

A run numbers and counts its tokens once, in one :class:`TokenTable` that
follows the snapshots by the documents each iteration replaces
(:func:`corpus_stats`). One block walk embeds a snapshot from the table's
token ids, term counts and idf (:func:`embedding_rows`), counting nothing,
and any other text, such as rewrite candidates, reads through the same
table (:func:`surface_embedding`), where a token it never saw takes df 1,
as it would have once inserted. A snapshot keeps only its unit vectors, a
:class:`SurfaceSpace`, and their per-class sums, a :class:`ClassLedger`.
Both cosine sums the paper defines reduce to dots with those class sums: a
document's shortcut score (:func:`score_against`) and the cross-class
objective (:func:`class_alignment_objective`).
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
from .errors import ConfigError, ObjectiveUndefinedError

DEFAULT_LAMBDA = 64

# Documents per block of the block walk (_blocks): large enough for one
# matrix product to amortize the per-block numpy calls, small enough that a
# block's temporaries stay far below the space's own arrays.
BLOCK_DOCS = 256


class TokenTable:
    """A run's tokens as numbers, for one dataset snapshot at a time.

    ``vocab`` numbers every token the run has seen and only grows. Document i
    of ``documents`` holds the ids ``ids[offsets[i]:offsets[i + 1]]`` in
    reading order, and ``counts``, laid out as ``ids``, holds at each token
    position how often its token occurs in its document (the term count of
    tf). ``df`` counts the documents holding each token, and
    ``idf`` is log(n / df) per entry, log(n / 1) where df is 0: a token no
    document holds any more scores as an unseen one.

    :meth:`update` moves the table to a later snapshot. Only the documents
    that are not the objects it numbered before are mapped from their
    strings and counted, and df moves by their exact integer deltas, so each
    idf entry keeps the bits a count from nothing gives. A first build is the
    same update, from n empty documents."""

    def __init__(self):
        self.vocab: dict[str, int] = {}
        self.documents: tuple[Optional[LabeledDocument], ...] = ()
        self.ids = np.zeros(0, dtype=np.int32)
        self.counts = np.zeros(0, dtype=np.int32)
        self.offsets = np.zeros(1, dtype=np.int64)
        self.df = np.zeros(0, dtype=np.int64)
        self.idf = np.zeros(0)

    def update(self, dataset: Dataset) -> None:
        """Number the documents of ``dataset`` that the table does not hold
        yet. For a dataset of another size the table first holds n empty
        documents, which every document then replaces; the vocabulary is
        kept."""
        docs = dataset.documents
        if len(docs) != len(self.documents):
            self.documents = (None,) * len(docs)
            self.ids = np.zeros(0, dtype=np.int32)
            self.counts = np.zeros(0, dtype=np.int32)
            self.offsets = np.zeros(len(docs) + 1, dtype=np.int64)
            self.df = np.zeros(len(self.vocab), dtype=np.int64)
            self.idf = _idf(len(docs), self.df)
        changed = np.fromiter(map(is_not, docs, self.documents), bool, len(docs))
        if changed.any():
            self._replace(docs, changed)
        self.documents = docs

    def _replace(self, docs: tuple[LabeledDocument, ...], changed: np.ndarray) -> None:
        """Renumber and count the documents where ``changed`` is True, splice
        their ids and counts in place of their old ones, and move df by their
        exact deltas; idf is recomputed only where df moved."""
        rows = np.flatnonzero(changed)
        new_ids, new_lengths, grown = _token_ids([docs[i] for i in rows.tolist()], self.vocab)
        if len(grown) > len(self.vocab):
            self.vocab = dict(grown)
        old_lengths = np.diff(self.offsets)
        lengths = old_lengths.copy()
        lengths[rows] = new_lengths
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        old_taken = np.repeat(changed, old_lengths)
        new_taken = np.repeat(changed, lengths)
        old_ids = self.ids[old_taken]
        ids = _mapped_zeros(offsets[-1], dtype=np.int32)
        ids[~new_taken] = self.ids[~old_taken]
        ids[new_taken] = new_ids

        size = len(self.vocab)
        delta, new_counts = _doc_counts(new_lengths, new_ids, size)
        delta[: len(self.df)] -= _doc_counts(old_lengths[rows], old_ids, len(self.df))[0]
        counts = _mapped_zeros(offsets[-1], dtype=np.int32)
        counts[~new_taken] = self.counts[~old_taken]
        counts[new_taken] = new_counts
        df = np.zeros(size, dtype=np.int64)
        df[: len(self.df)] = self.df
        df += delta
        idf = np.empty(size)
        idf[: len(self.idf)] = self.idf
        moved = np.flatnonzero(delta)
        idf[moved] = _idf(len(docs), df[moved])
        self.ids, self.counts, self.offsets, self.df, self.idf = ids, counts, offsets, df, idf


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
) -> tuple[np.ndarray, np.ndarray, Mapping[str, int]]:
    """Each token of ``docs`` as its id, in reading order, each document's
    length, and the vocabulary the ids are read through: a copy of
    ``vocab`` grown by the tokens of ``docs`` it lacks, numbered past it in
    the order they are first read. The one place tokens are numbered from
    their strings."""
    # Ids from a counter, not from the dict's own __len__: that
    # self-reference would keep the copy alive until the cycle collector ran.
    grown = defaultdict(count(len(vocab)).__next__, vocab)
    lengths = np.fromiter(map(len, (d.tokens for d in docs)), dtype=np.int64, count=len(docs))
    token_ids = np.fromiter(
        map(grown.__getitem__, chain.from_iterable(d.tokens for d in docs)),
        dtype=np.int32,
        count=int(lengths.sum()),
    )
    return token_ids, lengths, grown


def _blocks(lengths: np.ndarray, *positions: np.ndarray):
    """The one block walk: documents (their lengths, and arrays of one entry
    per token position in reading order, such as their token ids)
    ``BLOCK_DOCS`` at a time, as (first row, lengths, each array's entries)."""
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    for start in range(0, len(lengths), BLOCK_DOCS):
        stop = min(start + BLOCK_DOCS, len(lengths))
        yield start, lengths[start:stop], *(a[offsets[start] : offsets[stop]] for a in positions)


def _doc_counts(
    lengths: np.ndarray, token_ids: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """How many of the documents (their lengths, and their token ids in
    reading order) hold each id below ``size``, and the term counts of the
    documents: at each token position, how often its token occurs in its
    document (int32, laid out as ``token_ids``). Each block of
    ``BLOCK_DOCS`` documents finds its distinct (document, token) pairs and
    their counts with one ``np.unique``, adds the pairs to df with one
    ``np.bincount`` and scatters the counts through the inverse."""
    df = np.zeros(size, dtype=np.int64)
    counts = np.empty(len(token_ids), dtype=np.int32)
    position = 0
    for _, block, block_ids in _blocks(lengths, token_ids):
        keys = np.repeat(np.arange(len(block)) * size, block) + block_ids
        pairs, occurrence, pair_counts = np.unique(keys, return_inverse=True, return_counts=True)
        df += np.bincount(pairs % size, minlength=size)
        counts[position : position + len(keys)] = pair_counts[occurrence]
        position += len(keys)
    return df, counts


def _check_width(lam: int) -> None:
    if lam <= 0 or lam % 2 != 0:
        raise ConfigError(f"encoding width must be a positive even integer, got {lam}")


_TABLES: dict[int, np.ndarray] = {}


def _encoding_table(n_positions: int, lam: int) -> np.ndarray:
    """The sinusoidal encoding of at least ``n_positions`` positions, shape
    (n, lam): component k of row j is sin(j / 10000^(2k/lam)) for even k and
    cos of the same angle for odd k. Cached per width and regrown (doubling)
    when a longer document arrives; each entry is computed alone, so a row
    keeps its bits across a regrow, and sharing the cache across callers and
    threads changes no result."""
    table = _TABLES.get(lam)
    if table is None or len(table) < n_positions:
        grown = n_positions if table is None else max(n_positions, 2 * len(table))
        k = np.arange(lam, dtype=np.float64)
        angles = np.arange(grown, dtype=np.float64)[:, None] / np.power(10000.0, 2.0 * k / lam)
        table = _TABLES[lam] = np.where(k % 2 == 0, np.sin(angles), np.cos(angles))
    return table


def _block_weights(
    lengths: np.ndarray, token_ids: np.ndarray, counts: np.ndarray, idf: np.ndarray
) -> np.ndarray:
    """The tf-idf weight of every token position of a block of documents,
    given as their lengths, and their token ids and term counts in reading
    order: a (B, M) matrix, row b holding document b's weights and zero past
    its length, where M is the longest length.

    A token's weight is (its count in the document / the document's length)
    * ``idf[its id]``.
    """
    # a boolean mask fills row by row, in the order the tokens were read
    filled = np.arange(lengths.max()) < lengths[:, None]
    weights = np.zeros(filled.shape)
    weights[filled] = (counts / np.repeat(lengths, lengths)) * idf[token_ids]
    return weights


def _embed_block(
    lengths: np.ndarray, token_ids: np.ndarray, counts: np.ndarray, idf: np.ndarray, lam: int
) -> np.ndarray:
    """Embeddings of a block of documents (each of at least 2 tokens, given
    as for :func:`_block_weights`), one row each: one product of the block's
    weights with the encoding table.

    A lone row goes in paired with itself: a one-row product takes the
    matrix-vector routine, which rounds otherwise than the matrix product,
    and a document's row keeps its bits whatever its block."""
    weights = _block_weights(lengths, token_ids, counts, idf)
    width = weights.shape[1]
    if len(weights) == 1:
        weights = np.repeat(weights, 2, axis=0)
    product = weights @ _encoding_table(width, lam)[:width]
    return product[: len(lengths)] / (lengths - 1)[:, None]


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Each row scaled to length 1; all-zero rows stay zero."""
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    return np.divide(vectors, norms, out=np.zeros_like(vectors), where=norms > 0)


def _embedded_blocks(
    lengths: np.ndarray, token_ids: np.ndarray, counts: np.ndarray, idf: np.ndarray, lam: int
):
    """Per block of :func:`_blocks`, the row numbers of its documents of at
    least 2 tokens and their embeddings."""
    for start, block, block_ids, block_counts in _blocks(lengths, token_ids, counts):
        embeddable = block >= 2
        if not embeddable.all():
            taken = np.repeat(embeddable, block)
            block_ids, block_counts = block_ids[taken], block_counts[taken]
            block = block[embeddable]
        if len(block):
            vectors = _embed_block(block, block_ids, block_counts, idf, lam)
            yield start + np.flatnonzero(embeddable), vectors


def _fill_units(units: np.ndarray, blocks) -> np.ndarray:
    """``units`` (zeros) with the unit vectors of ``blocks``' (rows, embeddings) at their rows."""
    for rows, vectors in blocks:
        units[rows] = _unit_rows(vectors)
    return units


def surface_embedding(
    docs: Sequence[LabeledDocument], stats: TokenTable, lam: int = DEFAULT_LAMBDA
) -> np.ndarray:
    """Unit embeddings of ``docs`` against the table's snapshot (a run's
    rewrite candidates, or any other text), one row each: numbered from
    their strings through the table's vocabulary once, counted as the table
    counts its own and embedded ``BLOCK_DOCS`` at a time, so a row has the
    bits of the same document's snapshot row, whatever its block or batch. A token the table never saw takes an id past
    it and the idf of df 0, which reads as df 1: the idf the table holds for
    a token no document holds any more. A row stays zero for a document of
    fewer than 2 tokens and for an all-zero embedding."""
    _check_width(lam)
    token_ids, lengths, vocab = _token_ids(docs, stats.vocab)
    unseen = _idf(len(stats.documents), np.zeros(len(vocab) - len(stats.idf), dtype=np.int64))
    counts = _doc_counts(lengths, token_ids, len(vocab))[1]
    idf = np.concatenate([stats.idf, unseen])
    blocks = _embedded_blocks(lengths, token_ids, counts, idf, lam)
    return _fill_units(np.zeros((len(docs), lam)), blocks)


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
    """One snapshot's unit embeddings ``units``, row i for the i-th document.
    A row stays zero for a document too short to embed and for the all-zero
    embedding, so ``scoreable`` is exactly the non-zero unit rows.
    """

    def __init__(self, ids: Iterable[str], labels: Iterable[int], units: np.ndarray):
        self.ids = list(ids)
        self.labels = np.asarray(list(labels), dtype=np.int64)
        self.units = units

    def __len__(self) -> int:
        """Number of documents (rows); bench/tracer.py counts them as embedded."""
        return len(self.ids)

    @property
    def scoreable(self) -> np.ndarray:
        return self.units.any(axis=1)


def embedding_rows(dataset: Dataset, stats: Optional[TokenTable] = None, lam: int = DEFAULT_LAMBDA):
    """The embeddings of ``dataset``'s documents from the token ids, term
    counts and idf of ``stats`` (the run's table, moved to ``dataset`` first;
    a table of its own when None), ``BLOCK_DOCS`` documents at a time: per
    block, the row numbers of its documents of at least 2 tokens and their
    embeddings. Nothing is counted here: the table counted each document
    when it was numbered."""
    _check_width(lam)
    table = corpus_stats(dataset, stats)
    return _embedded_blocks(np.diff(table.offsets), table.ids, table.counts, table.idf, lam)


def compute_embeddings(
    dataset: Dataset,
    stats: Optional[TokenTable] = None,
    lam: int = DEFAULT_LAMBDA,
) -> SurfaceSpace:
    """The surface space of ``dataset``, filled from :func:`embedding_rows`;
    documents too short to embed keep an empty row, and callers treat them as
    unscoreable."""
    blocks = embedding_rows(dataset, stats, lam)
    units = _fill_units(_mapped_zeros(len(dataset), lam), blocks)
    return SurfaceSpace((d.id for d in dataset), (d.label for d in dataset), units)


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
        self._opposite: dict[int, tuple[np.ndarray, int]] = {}

    def opposite(self, label: int) -> tuple[np.ndarray, int]:
        """Sum (read-only) and count of the unit vectors of every other
        class, kept until the next :meth:`swap`; threads reading between
        swaps can only fill in the same value."""
        cached = self._opposite.get(label)
        if cached is None:
            c = self._row[label]
            opposite_sum = self.sums.sum(axis=0) - self.sums[c]
            opposite_sum.flags.writeable = False
            cached = opposite_sum, int(self.counts.sum() - self.counts[c])
            self._opposite[label] = cached
        return cached

    def swap(self, label: int, old_unit: np.ndarray, new_unit: np.ndarray) -> None:
        """Replace one document's unit vector in its class sum."""
        row = self.sums[self._row[label]]
        row -= old_unit
        row += new_unit
        self._opposite.clear()


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


def shortcut_scores(space: SurfaceSpace, ledger: ClassLedger) -> tuple[np.ndarray, np.ndarray]:
    """The rows of every scoreable document in ranked order (score
    descending, ascending id as the tie-break) and their shortcut scores.
    Zero embeddings are excluded on both sides (their cosines are undefined).

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
    ranked = rows[np.lexsort((id_rank, -scores[rows]))]
    return ranked, scores[ranked]


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
