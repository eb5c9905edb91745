import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from razor import surface
from razor.corpus import Dataset, make_document
from razor.errors import ConfigError, ObjectiveUndefinedError
from razor.surface import (
    BLOCK_DOCS,
    ClassLedger,
    SurfaceSpace,
    _block_weights,
    _encoding_table,
    _unit_rows,
    class_alignment_objective,
    compute_embeddings,
    corpus_stats,
    embedding_rows,
    score_against,
    shortcut_scores,
    surface_embedding,
)

from conftest import dataset_from, doc_frequency, embedding_matrix, scores_by_id
from oracles import (
    embed_reference,
    naive_objective,
    naive_shortcut_score,
    pe_reference,
    tfidf_reference,
)

# Hand-evaluated tf-idf values for a fixed 5-document corpus, produced by an
# independent script before this module was built.
FIVE_DOC_CORPUS = [
    ("d1", "the cat sat on the mat"),
    ("d2", "the dog sat quietly"),
    ("d3", "a cat and a dog"),
    ("d4", "the mat was red"),
    ("d5", "birds fly south"),
]
FIVE_DOC_EXPECTED = [
    ("the", "d1", 0.1702752079219969),
    ("cat", "d1", 0.15271512197902584),
    ("on", "d1", 0.26823965207235),
    ("mat", "d1", 0.15271512197902584),
    ("quietly", "d2", 0.40235947810852507),
    ("a", "d3", 0.6437751649736402),
    ("dog", "d3", 0.18325814637483104),
    ("south", "d5", 0.5364793041447),
    ("cat", "d2", 0.0),
    ("the", "d4", 0.12770640594149768),
]


def five_doc_dataset():
    return dataset_from([(doc_id, text, i % 2) for i, (doc_id, text) in enumerate(FIVE_DOC_CORPUS)])


class TestCorpusStats:
    def test_bounds_and_coverage(self):
        ds = five_doc_dataset()
        stats = corpus_stats(ds)
        occurring = set()
        for doc in ds:
            occurring.update(doc.tokens)
        assert set(doc_frequency(stats)) == occurring
        for token, df in doc_frequency(stats).items():
            assert 1 <= df <= len(stats.documents)

    def test_df_counts_documents_across_blocks(self):
        ds = block_corpus(2 * BLOCK_DOCS + 37)
        stats = corpus_stats(ds)
        expected = Counter(token for doc in ds for token in set(doc.tokens))
        assert doc_frequency(stats) == dict(expected)
        for token, df in expected.items():
            assert stats.idf[stats.vocab[token]] == math.log(len(ds) / df)

    def test_context_text_excluded(self):
        ds = dataset_from(
            [
                ("a", "claim words", 0, "evidenceonly terms"),
                ("b", "other words", 1, "evidenceonly terms"),
            ],
            schema="claim_evidence",
        )
        stats = corpus_stats(ds)
        assert "evidenceonly" not in doc_frequency(stats)


def snapshot_weights(ds):
    """The tf-idf weight at each token position of each document of ``ds``,
    as the block walk computes them: one :func:`_block_weights` over the
    snapshot table's token ids, term counts and idf. Row i is document i."""
    table = corpus_stats(ds)
    weights = _block_weights(np.diff(table.offsets), table.ids, table.counts, table.idf)
    return [row[: len(doc.tokens)].tolist() for row, doc in zip(weights, ds)]


class TestTfidf:
    def test_frozen_hand_values(self):
        ds = five_doc_dataset()
        weights = dict(zip((d.id for d in ds), snapshot_weights(ds)))
        by_id = {d.id: d for d in ds}
        for token, doc_id, expected in FIVE_DOC_EXPECTED:
            tokens = by_id[doc_id].tokens
            positions = [j for j, t in enumerate(tokens) if t == token]
            assert positions or expected == 0.0
            for j in positions:
                assert weights[doc_id][j] == pytest.approx(expected, abs=1e-12)

    def test_matches_scalar_reference(self):
        ds = five_doc_dataset()
        all_tokens = [list(d.tokens) for d in ds]
        for doc, row in zip(ds, snapshot_weights(ds)):
            for token, weight in zip(doc.tokens, row):
                expected = tfidf_reference(token, list(doc.tokens), all_tokens)
                assert weight == pytest.approx(expected, abs=1e-12)

    def test_two_doc_worked_example(self):
        ds = dataset_from([("d1", "a b", 0), ("d2", "a a c", 1)])
        assert snapshot_weights(ds)[0][1] == pytest.approx(0.34657359027997264, abs=1e-12)

    def test_token_in_every_document_scores_zero(self):
        ds = dataset_from([("d1", "a b", 0), ("d2", "a a c", 1)])
        assert snapshot_weights(ds)[1][:2] == [0.0, 0.0]

    def test_zero_iff_absent_or_ubiquitous(self):
        # a token's weight in a document: the weight at its positions, all
        # equal, or zero where it has none
        ds = five_doc_dataset()
        stats = corpus_stats(ds)
        for doc, row in zip(ds, snapshot_weights(ds)):
            weights = dict(zip(doc.tokens, row))
            for token in set(doc_frequency(stats)) | {"unseen"}:
                assert {w for t, w in zip(doc.tokens, row) if t == token} <= {weights.get(token)}
                absent = token not in doc.tokens
                ubiquitous = doc_frequency(stats).get(token) == len(stats.documents)
                assert (weights.get(token, 0.0) == 0.0) == (absent or ubiquitous)

    def test_unseen_candidate_token_takes_df_one(self):
        # against the rule that weights an unseen token zero (df n), which
        # the row must not match
        ds = five_doc_dataset()
        candidate = make_document("d1", "the unseen cat sat", 0)
        unit = surface_embedding([candidate], corpus_stats(ds), 8)[0]
        all_tokens = [list(d.tokens) for d in ds]
        for unseen_df, matches in ((1, True), (len(all_tokens), False)):
            ref = np.array(embed_reference(list(candidate.tokens), all_tokens, 8, unseen_df))
            assert np.allclose(unit, ref / np.linalg.norm(ref), rtol=0, atol=1e-12) == matches


class TestPositionalEncoding:
    """The cached table every embedding reads (:func:`_encoding_table`)."""

    def test_position_zero_pattern(self):
        assert _encoding_table(1, 8)[0].tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]

    def test_frozen_spot_values(self):
        assert _encoding_table(2, 2)[1, 0] == pytest.approx(0.8414709848078965, abs=1e-12)
        assert _encoding_table(2, 4)[1, 1] == pytest.approx(0.9999500004166653, abs=1e-12)

    def test_matches_scalar_reference(self):
        for lam in (2, 4, 8):
            table = _encoding_table(101, lam)
            for pos in (0, 1, 3, 17, 100):
                for k in range(lam):
                    assert table[pos, k] == pytest.approx(pe_reference(pos, k, lam), abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(7)
        table = _encoding_table(10000, 16)
        for pos in rng.integers(0, 10000, size=50):
            vec = table[int(pos)]
            assert np.all(vec <= 1.0) and np.all(vec >= -1.0)

    def test_regrown_table_keeps_its_rows(self, monkeypatch):
        monkeypatch.setattr(surface, "_TABLES", {})
        first = {}
        for n in (10, 1000, 3):
            for lam in (8, 64):
                table = _encoding_table(n, lam)
                assert len(table) >= n
                first.setdefault(lam, table[:10].copy())
                assert table[:10].tobytes() == first[lam].tobytes()
                for pos in range(n):
                    expected = [pe_reference(pos, k, lam) for k in range(lam)]
                    np.testing.assert_allclose(table[pos], expected, rtol=0, atol=1e-12)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            compute_embeddings(five_doc_dataset(), lam=5)


class TestSurfaceEmbedding:
    def test_single_token_document_gets_zero_row(self):
        ds = dataset_from([("d1", "word", 0), ("d2", "two words", 1)])
        stats = corpus_stats(ds)
        units = surface_embedding(ds.documents, stats, 4)
        assert units.shape == (2, 4)
        assert not units[0].any() and units[1].any()
        space = compute_embeddings(ds, stats, 4)
        np.testing.assert_array_equal(units, space.units)
        assert len(space) == len(ds) == 2

    def test_all_ubiquitous_tokens_zero_marker(self):
        ds = dataset_from([("d1", "a b", 0), ("d2", "a b", 1), ("d3", "b a", 0)])
        stats = corpus_stats(ds)
        assert not surface_embedding(ds.documents[:1], stats, 4).any()
        assert np.all(embedding_matrix(ds, stats, 4)[0] == 0.0)
        space = compute_embeddings(ds, stats, 4)
        assert len(ds.documents[0].tokens) >= 2 and not space.scoreable[0]
        assert np.all(space.units[0] == 0.0)

    def test_two_token_document_matches_reference(self):
        # frozen from an independent scalar evaluation of the same corpus
        ds = dataset_from([("d1", "x y", 0), ("d2", "x z w", 1), ("d3", "y q", 0)])
        stats = corpus_stats(ds)
        vector = embedding_matrix(ds, stats, 4)[0]
        expected = [
            0.17059356191250866,
            0.40545497156493326,
            2.027325537161946e-05,
            0.405465108108063,
        ]
        np.testing.assert_allclose(vector, expected, atol=1e-12)
        np.testing.assert_allclose(
            surface_embedding(ds.documents[:1], stats, 4)[0],
            [0.28515637910279906, 0.6777399468332874, 3.3887844474237956e-05, 0.6777568906141844],
            atol=1e-12,
        )

    def test_matches_reference_on_longer_docs(self):
        ds = five_doc_dataset()
        stats = corpus_stats(ds)
        all_tokens = [list(d.tokens) for d in ds]
        vectors = embedding_matrix(ds, stats, 8)
        units = surface_embedding(ds.documents, stats, 8)
        for i, doc in enumerate(ds):
            ref = np.array(embed_reference(list(doc.tokens), all_tokens, 8))
            np.testing.assert_allclose(units[i], ref / np.linalg.norm(ref), atol=1e-12)
            np.testing.assert_allclose(vectors[i], ref, atol=1e-12)

    def test_unit_norm_within_tolerance(self):
        ds = five_doc_dataset()
        space = compute_embeddings(ds, lam=16)
        for unit in space.units[space.scoreable]:
            assert abs(np.linalg.norm(unit) - 1.0) < 1e-9

    def test_compute_embeddings_skips_short_docs(self):
        ds = dataset_from([("d1", "word", 0), ("d2", "two words here", 1), ("d3", "more words", 0)])
        space = compute_embeddings(ds, lam=4)
        assert [rows.tolist() for rows, _ in embedding_rows(ds, lam=4)] == [[1, 2]]
        assert space.scoreable.tolist() == [False, True, True]
        assert np.all(space.units[0] == 0.0)
        assert np.all(embedding_matrix(ds, lam=4)[0] == 0.0)

    def test_unseen_df_scores_new_tokens(self):
        ds = dataset_from([("d1", "a b", 0), ("d2", "a c", 1)])
        stats = corpus_stats(ds)
        novel = make_document("d1", "a brandnew", 0)
        unit = surface_embedding([novel], stats, 4)[0]
        ref = np.array(embed_reference(list(novel.tokens), [["a", "b"], ["a", "c"]], 4, 1))
        assert ref.any()
        np.testing.assert_allclose(unit, ref / np.linalg.norm(ref), atol=1e-12)


def block_corpus(n_docs, seed=0):
    """``n_docs`` documents of 1 to 40 tokens drawn with repeats from a small
    vocabulary; every document holds "common", so it is ubiquitous. Document
    ``BLOCK_DOCS + 5`` (when present) is "common common", all ubiquitous."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(30)]
    rows = []
    for i in range(n_docs):
        words = ["common"] + [vocab[j] for j in rng.integers(0, len(vocab), size=i % 40)]
        if i == BLOCK_DOCS + 5:
            words = ["common", "common"]
        rng.shuffle(words)
        rows.append((f"doc{i:04d}", " ".join(words), i % 2))
    return dataset_from(rows)


class TestBlockEmbedding:
    """compute_embeddings fills the space one block of BLOCK_DOCS documents
    at a time; every row must still match the per-document definition."""

    def test_rows_match_reference_across_blocks(self):
        ds = block_corpus(2 * BLOCK_DOCS + 37)
        stats = corpus_stats(ds)
        space = compute_embeddings(ds, stats, 8)
        vectors = embedding_matrix(ds, stats, 8)
        # sets: the oracle only asks whether a document holds a token
        all_tokens = [set(d.tokens) for d in ds]
        assert {len(d.tokens) for d in ds} == set(range(1, 41))
        for i, doc in enumerate(ds):
            if len(doc.tokens) < 2:
                assert not space.units[i].any() and not vectors[i].any()
                continue
            ref = embed_reference(list(doc.tokens), all_tokens, 8)
            np.testing.assert_allclose(vectors[i], ref, rtol=0, atol=1e-12)
        ubiquitous = BLOCK_DOCS + 5
        assert len(ds.documents[ubiquitous].tokens) >= 2 and not vectors[ubiquitous].any()
        assert not space.scoreable[ubiquitous]
        embedded = sum(len(rows) for rows, _ in embedding_rows(ds, stats, 8))
        assert embedded == sum(len(d.tokens) >= 2 for d in ds)
        norms = np.linalg.norm(space.units[space.scoreable], axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)

    def test_candidate_path_matches_rows(self):
        ds = block_corpus(2 * BLOCK_DOCS + 37)
        stats = corpus_stats(ds)
        space = compute_embeddings(ds, stats, 8)
        rows = [1, BLOCK_DOCS - 1, BLOCK_DOCS, 2 * BLOCK_DOCS + 36]
        units = surface_embedding([ds.documents[i] for i in rows], stats, 8)
        for i, unit in zip(rows, units):
            np.testing.assert_array_equal(unit, space.units[i])

    def test_candidate_rows_independent_of_batch_size(self):
        # a batch of 1 or 257 leaves a one-row block, which must round as a
        # row of a matrix product does
        ds = block_corpus(2 * BLOCK_DOCS + 37)
        stats = corpus_stats(ds)
        docs = [d for d in ds if len(d.tokens) >= 2][: BLOCK_DOCS + 1]
        whole = surface_embedding(docs, stats, 8)
        for size in (1, 2, BLOCK_DOCS, BLOCK_DOCS + 1):
            starts = range(0, len(docs), size)
            batches = [surface_embedding(docs[i : i + size], stats, 8) for i in starts]
            np.testing.assert_array_equal(np.concatenate(batches), whole)

    def test_candidates_take_the_snapshot_walk(self):
        # every document of at least 2 tokens: the candidate blocks are the
        # snapshot's blocks, so each row keeps its bits
        full = block_corpus(3 * BLOCK_DOCS + 11)
        ds = Dataset(tuple(d for d in full if len(d.tokens) >= 2), full.label_names, full.schema)
        assert len(ds) > 2 * BLOCK_DOCS
        table = corpus_stats(ds)
        np.testing.assert_array_equal(
            surface_embedding(ds.documents, table, 8), compute_embeddings(ds, table, 8).units
        )

    def test_table_of_another_snapshot_is_moved(self):
        rows = [(f"d{i}", f"shared word{i % 7}", i % 2) for i in range(2 * BLOCK_DOCS)]
        rows.append(("late", "shared lateonly", 1))
        ds = dataset_from(rows)
        fresh = compute_embeddings(ds, corpus_stats(ds), 8)
        fresh_vectors = embedding_matrix(ds, corpus_stats(ds), 8)
        # tables of a smaller snapshot and of a same-size one with other text
        smaller = corpus_stats(replace(ds, documents=ds.documents[:-1]))
        edited = replace(
            ds, documents=ds.documents[:3] + (make_document("d3", "other words entirely", 1),) + ds.documents[4:]
        )
        for table in (smaller, corpus_stats(edited)):
            space = compute_embeddings(ds, table, 8)
            assert table.documents is ds.documents
            np.testing.assert_array_equal(embedding_matrix(ds, table, 8), fresh_vectors)
            np.testing.assert_array_equal(space.units, fresh.units)
            assert [r.tolist() for r, _ in embedding_rows(ds, table, 8)] == [
                r.tolist() for r, _ in embedding_rows(ds, corpus_stats(ds), 8)
            ]

    def test_transient_memory_independent_of_corpus_size(self):
        def extra_peak(n_docs):
            ds = block_corpus(n_docs, seed=1)
            stats = corpus_stats(ds)
            compute_embeddings(ds, stats, 64)  # grow the cached encoding table first
            tracemalloc.start()
            try:
                space = compute_embeddings(ds, stats, 64)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert space.scoreable.any()
            # freed again before returning: the blocks' temporaries
            return peak - held

        small, large = extra_peak(2 * BLOCK_DOCS), extra_peak(8 * BLOCK_DOCS)
        # one block's arrays, not the snapshot's: 4x the documents may add at
        # most a tenth (flat arrays over the snapshot would add megabytes)
        assert large < 1.1 * small, (small, large)


class TestOppositeSet:
    """A document's opposite set, as ``ClassLedger.opposite`` sums it: the
    unit vectors of every document with a different label."""

    def test_binary(self, tiny_binary):
        space = compute_embeddings(tiny_binary, lam=8)
        opposite_sum, n = ClassLedger(space).opposite(0)
        assert n == 2
        np.testing.assert_allclose(opposite_sum, space.units[2] + space.units[3], atol=1e-12)

    def test_three_class_label_inequality(self):
        ds = dataset_from(
            [
                ("a", "first document text", 0),
                ("b", "second document text", 1),
                ("c", "third document text", 2),
                ("d", "fourth document text", 1),
            ]
        )
        space = compute_embeddings(ds, lam=8)
        opposite_sum, n = ClassLedger(space).opposite(ds.documents[1].label)
        assert n == 2
        np.testing.assert_allclose(opposite_sum, space.units[0] + space.units[2], atol=1e-12)

    def test_never_contains_self(self, tiny_binary):
        space = compute_embeddings(tiny_binary, lam=8)
        ledger = ClassLedger(space)
        for i, doc in enumerate(tiny_binary):
            others = [j for j, o in enumerate(tiny_binary) if o.label != doc.label]
            opposite_sum, n = ledger.opposite(doc.label)
            assert i not in others and n == len(others)
            np.testing.assert_allclose(opposite_sum, space.units[others].sum(axis=0), atol=1e-12)


def random_embedding_dataset(rng, n_docs, lam=8, n_classes=2):
    """Random corpora of distinct-vocabulary docs for score checks."""
    vocab = [f"w{i}" for i in range(40)]
    rows = []
    for i in range(n_docs):
        words = [vocab[int(j)] for j in rng.integers(0, len(vocab), size=rng.integers(4, 12))]
        rows.append((f"doc{i:03d}", " ".join(words), int(i % n_classes)))
    ds = dataset_from(rows)
    return ds, compute_embeddings(ds, lam=lam)


def space_from(ds, vectors):
    """A surface space holding the given vectors (id -> list) instead of
    embeddings of the documents' text."""
    lam = len(next(iter(vectors.values())))
    rows = np.zeros((len(ds), lam))
    for i, doc in enumerate(ds):
        if doc.id in vectors:
            rows[i] = vectors[doc.id]
    return SurfaceSpace((d.id for d in ds), (d.label for d in ds), _unit_rows(rows))


def objective_of(space):
    return class_alignment_objective(ClassLedger(space))


class TestShortcutScore:
    def test_matches_per_row_score_against(self):
        rng = np.random.default_rng(17)
        ds, space = random_embedding_dataset(rng, 60, n_classes=3)
        ledger = ClassLedger(space)
        rows, scores = shortcut_scores(space, ledger)
        expected = {}
        for i in np.flatnonzero(space.scoreable).tolist():
            opposite_sum, n = ledger.opposite(int(space.labels[i]))
            expected[i] = float(score_against(space.units[i], opposite_sum, n))
        assert sorted(rows.tolist()) == sorted(expected)
        for i, score in zip(rows.tolist(), scores.tolist()):
            assert score == pytest.approx(expected[i], rel=0, abs=1e-12)
        ranked = sorted(expected, key=lambda i: (-expected[i], space.ids[i]))
        assert rows.tolist() == ranked

    def test_exact_ties_rank_by_ascending_id(self):
        # ids out of order in the space; equal vectors tie exactly
        ids = ["m", "b", "z", "a", "k", "c"]
        ds = dataset_from([(d, "p q", i % 2) for i, d in enumerate(ids)])
        vectors = {"m": [1.0, 0.0], "b": [1.0, 0.0], "z": [0.0, 1.0],
                   "a": [0.0, 1.0], "k": [1.0, 0.0], "c": [0.0, 1.0]}
        scores = scores_by_id(space_from(ds, vectors))
        # class 0 (m, z, k) against 1 (b, a, c): two exact scores, 2/3 and 1/3
        assert len(set(scores.values())) == 2
        assert list(scores) == ["a", "c", "k", "m", "b", "z"]

    def test_identical_embeddings_score_zero(self):
        ds = dataset_from(
            [
                ("a", "same exact words here", 0),
                ("b", "same exact words here", 1),
                ("c", "same exact words here", 1),
                ("d", "other filler phrase now", 0),
            ]
        )
        scores = scores_by_id(compute_embeddings(ds, lam=8))
        # a's embedding equals b's and c's (identical text), so gamma(a) == 1 - 1 = 0
        assert scores["a"] == pytest.approx(0.0, abs=1e-9)

    def test_opposite_direction_scores_two(self):
        ds = dataset_from([("a", "p q", 0), ("b", "r s", 1)])
        space = space_from(ds, {"a": [1.0, 0.0], "b": [-1.0, 0.0]})
        assert scores_by_id(space)["a"] == pytest.approx(2.0, abs=1e-12)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(11)
        ds, space = random_embedding_dataset(rng, 4)
        vectors = embedding_matrix(ds, lam=8)
        scores = scores_by_id(space)
        for i, doc in enumerate(ds):
            opposite = [
                vectors[j].tolist()
                for j, o in enumerate(ds)
                if o.label != doc.label and space.scoreable[j]
            ]
            expected = naive_shortcut_score(vectors[i].tolist(), opposite)
            assert scores[doc.id] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(5)
        ds, space = random_embedding_dataset(rng, 30)
        for doc_id, score in scores_by_id(space).items():
            assert -1e-9 <= score <= 2.0 + 1e-9

    def test_zero_embedding_document_undefined(self):
        # "a" and "b" occur in every document, so doc a's weights all vanish
        ds = dataset_from([("a", "a b", 0), ("b", "a b c d", 1), ("c", "a b e f", 1)])
        space = compute_embeddings(ds, lam=4)
        assert len(ds.documents[0].tokens) >= 2 and not space.scoreable[0]
        assert "a" not in scores_by_id(space)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        ds, embeddings = random_embedding_dataset(rng, 10)
        vectors = embedding_matrix(ds, lam=8)
        vectors[0] *= 37.0
        scaled = space_from(ds, dict(zip(embeddings.ids, vectors.tolist())))
        target = ds.documents[0].id
        assert scores_by_id(scaled)[target] == pytest.approx(scores_by_id(embeddings)[target], rel=1e-12)

    def test_ranking_invariant_under_permutation(self):
        rng = np.random.default_rng(13)
        ds, embeddings = random_embedding_dataset(rng, 20)
        scores = scores_by_id(embeddings)
        top = sorted(scores, key=lambda i: (-scores[i], i))[:5]

        order = rng.permutation(len(ds.documents))
        shuffled = replace(ds, documents=tuple(ds.documents[i] for i in order))
        scores2 = scores_by_id(compute_embeddings(shuffled, lam=8))
        top2 = sorted(scores2, key=lambda i: (-scores2[i], i))[:5]
        assert top == top2


class TestObjective:
    def test_identical_units_give_product_of_sizes(self):
        rows = [(f"a{i}", "aligned words here", 0) for i in range(3)]
        rows += [(f"b{i}", "aligned words here", 1) for i in range(4)]
        rows += [("c0", "unrelated other filler", 0)]
        ds = dataset_from(rows)
        space = space_from(ds, {doc.id: [1.0, 2.0, 3.0] for doc in ds})
        assert objective_of(space) == pytest.approx(4 * 4, abs=1e-9)

    def test_orthogonal_classes_give_zero(self):
        ds = dataset_from([("a", "x y", 0), ("b", "z w", 1)])
        space = space_from(ds, {"a": [1.0, 0.0], "b": [0.0, 1.0]})
        assert objective_of(space) == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(23)
        ds, space = random_embedding_dataset(rng, 100)
        vectors = embedding_matrix(ds, lam=8)
        by_class = {}
        for i, doc in enumerate(ds):
            if space.scoreable[i]:
                by_class.setdefault(doc.label, []).append(vectors[i].tolist())
        expected = naive_objective(by_class)
        got = objective_of(space)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_three_class_pairs(self):
        ds = dataset_from(
            [
                ("a", "first text here", 0),
                ("b", "second text here", 1),
                ("c", "third text here", 2),
            ]
        )
        space = space_from(ds, {"a": [1.0, 0.0], "b": [1.0, 0.0], "c": [0.0, 1.0]})
        # pairs: (0,1) cos 1, (0,2) cos 0, (1,2) cos 0
        assert objective_of(space) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        ds, embeddings = random_embedding_dataset(rng, 12)
        vectors = embedding_matrix(ds, lam=8)
        vectors[3] *= 0.001
        scaled = space_from(ds, dict(zip(embeddings.ids, vectors.tolist())))
        assert objective_of(scaled) == pytest.approx(objective_of(embeddings), rel=1e-12)

    def test_class_fully_zero_embedded_undefined(self):
        # every class-0 token occurs in every document, so class 0 is all-zero
        ds = dataset_from([("a", "a b", 0), ("b", "a b", 0), ("c", "a b c d e", 1)])
        space = compute_embeddings(ds, lam=4)
        assert all(len(d.tokens) >= 2 for d in ds.documents[:2])
        assert not space.scoreable[:2].any()
        with pytest.raises(ObjectiveUndefinedError):
            objective_of(space)

    def test_class_sums_add_rows_in_document_order(self):
        # ragged classes (one with a single row, one with none scoreable),
        # zero rows, and more rows than one reduction buffer holds
        rng = np.random.default_rng(23)
        n, lam = 9000, 8
        labels = rng.choice([0, 1, 2, 3], size=n, p=[0.6, 0.3, 0.1, 0.0])
        labels[17], labels[40] = 3, 4
        rows = np.flatnonzero(rng.random(n) > 0.1)
        rows = rows[rows != 40]
        units = np.zeros((n, lam))
        units[rows] = _unit_rows(rng.standard_normal((len(rows), lam)))
        space = SurfaceSpace((f"d{i}" for i in range(n)), labels, units)
        ledger = ClassLedger(space)
        expected = np.zeros((5, lam))
        np.add.at(expected, labels, space.units)
        assert ledger.classes == [0, 1, 2, 3, 4]
        assert np.array_equal(ledger.sums, expected)
        assert ledger.counts.tolist() == [
            int(np.sum(space.scoreable & (labels == c))) for c in range(5)
        ]

    def test_swap_updates_one_class_sum(self):
        rng = np.random.default_rng(41)
        ds, space = random_embedding_dataset(rng, 12, n_classes=3)
        ledger = ClassLedger(space)
        new_unit = np.arange(1.0, 9.0) / np.linalg.norm(np.arange(1.0, 9.0))
        ledger.swap(ds.documents[4].label, space.units[4], new_unit)
        space.units[4] = new_unit
        fresh = ClassLedger(space)
        np.testing.assert_allclose(ledger.sums, fresh.sums, atol=1e-12)
        assert class_alignment_objective(ledger) == pytest.approx(
            class_alignment_objective(fresh), rel=1e-12
        )

    def test_opposite_after_swap_equals_a_fresh_ledgers(self):
        rng = np.random.default_rng(43)
        ds, space = random_embedding_dataset(rng, 12, n_classes=3)
        ledger = ClassLedger(space)
        before = {label: ledger.opposite(label) for label in ledger.classes}
        assert all(ledger.opposite(label)[0] is before[label][0] for label in ledger.classes)
        swapped = ds.documents[4].label
        new_unit = np.arange(1.0, 9.0) / np.linalg.norm(np.arange(1.0, 9.0))
        ledger.swap(swapped, space.units[4], new_unit)
        # a ledger holding the swapped sums that has answered nothing yet
        fresh = ClassLedger(space)
        fresh.sums = ledger.sums.copy()
        for label in ledger.classes:
            (got, got_n), (want, want_n) = ledger.opposite(label), fresh.opposite(label)
            assert np.array_equal(got, want) and got_n == want_n
            if label != swapped:
                assert not np.array_equal(got, before[label][0])
