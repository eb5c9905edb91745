import math

import numpy as np
import pytest

from razor.corpus import Dataset, make_document
from razor.errors import (
    ConfigError,
    DegenerateDocumentError,
    ObjectiveUndefinedError,
    StaleStatsError,
)
from razor.surface import (
    ClassLedger,
    CorpusStats,
    SurfaceSpace,
    class_alignment_objective,
    compute_embeddings,
    corpus_stats,
    positional_encoding,
    shortcut_scores,
    surface_embedding,
    tfidf_score,
    unit_vector,
)

from conftest import dataset_from
from oracles import embed_reference, naive_objective, naive_shortcut_score, pe_reference

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
        stats = corpus_stats(ds, generation_stamp=4)
        occurring = set()
        for doc in ds:
            occurring.update(doc.tokens)
        assert set(stats.doc_frequency) == occurring
        assert stats.generation_stamp == 4
        for token, df in stats.doc_frequency.items():
            assert 1 <= df <= stats.doc_count

    def test_context_text_excluded(self):
        ds = dataset_from(
            [
                ("a", "claim words", 0, "evidenceonly terms"),
                ("b", "other words", 1, "evidenceonly terms"),
            ],
            schema="claim_evidence",
        )
        stats = corpus_stats(ds)
        assert "evidenceonly" not in stats.doc_frequency


class TestTfidf:
    def test_frozen_hand_values(self):
        ds = five_doc_dataset()
        stats = corpus_stats(ds)
        by_id = {d.id: d for d in ds}
        for token, doc_id, expected in FIVE_DOC_EXPECTED:
            assert tfidf_score(token, by_id[doc_id], stats) == pytest.approx(
                expected, abs=1e-12
            )

    def test_two_doc_worked_example(self):
        ds = dataset_from([("d1", "a b", 0), ("d2", "a a c", 1)])
        stats = corpus_stats(ds)
        assert tfidf_score("b", ds.documents[0], stats) == pytest.approx(
            0.34657359027997264, abs=1e-12
        )

    def test_token_in_every_document_scores_zero(self):
        ds = dataset_from([("d1", "a b", 0), ("d2", "a a c", 1)])
        stats = corpus_stats(ds)
        assert tfidf_score("a", ds.documents[1], stats) == 0.0

    def test_absent_token_scores_zero(self):
        ds = dataset_from([("d1", "a b", 0), ("d2", "a a c", 1)])
        stats = corpus_stats(ds)
        assert tfidf_score("zzz", ds.documents[0], stats) == 0.0

    def test_stale_stats_detected(self):
        ds = dataset_from([("d1", "a b", 0), ("d2", "a c", 1)])
        stats = CorpusStats(2, {"a": 2, "c": 1}, generation_stamp=3)
        with pytest.raises(StaleStatsError):
            tfidf_score("b", ds.documents[0], stats)

    def test_zero_iff_absent_or_ubiquitous(self):
        ds = five_doc_dataset()
        stats = corpus_stats(ds)
        for doc in ds:
            for token in set(stats.doc_frequency) | {"unseen"}:
                score = tfidf_score(token, doc, stats)
                absent = token not in doc.tokens
                ubiquitous = stats.doc_frequency.get(token) == stats.doc_count
                assert (score == 0.0) == (absent or ubiquitous)


class TestPositionalEncoding:
    def test_position_zero_pattern(self):
        vec = positional_encoding(0, 8)
        assert vec.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]

    def test_frozen_spot_values(self):
        assert positional_encoding(1, 2)[0] == pytest.approx(0.8414709848078965, abs=1e-12)
        assert positional_encoding(1, 4)[1] == pytest.approx(0.9999500004166653, abs=1e-12)

    def test_matches_scalar_reference(self):
        for lam in (2, 4, 8):
            for pos in (0, 1, 3, 17, 100):
                vec = positional_encoding(pos, lam)
                for k in range(lam):
                    assert vec[k] == pytest.approx(pe_reference(pos, k, lam), abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(7)
        for pos in rng.integers(0, 10000, size=50):
            vec = positional_encoding(int(pos), 16)
            assert np.all(vec <= 1.0) and np.all(vec >= -1.0)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            positional_encoding(1, 5)

    def test_negative_position_rejected(self):
        with pytest.raises(ConfigError):
            positional_encoding(-1, 4)


class TestSurfaceEmbedding:
    def test_single_token_document_degenerate(self):
        ds = dataset_from([("d1", "word", 0), ("d2", "two words", 1)])
        stats = corpus_stats(ds)
        with pytest.raises(DegenerateDocumentError):
            surface_embedding(ds.documents[0], stats, 4)

    def test_all_ubiquitous_tokens_zero_marker(self):
        ds = dataset_from([("d1", "a b", 0), ("d2", "a b", 1), ("d3", "b a", 0)])
        stats = corpus_stats(ds)
        vector = surface_embedding(ds.documents[0], stats, 4)
        assert unit_vector(vector) is None
        assert np.all(vector == 0.0)
        space = compute_embeddings(ds, stats, 4)
        assert space.embedded[0] and not space.scoreable[0]
        assert np.all(space.units[0] == 0.0)

    def test_two_token_document_matches_reference(self):
        # frozen from an independent scalar evaluation of the same corpus
        ds = dataset_from([("d1", "x y", 0), ("d2", "x z w", 1), ("d3", "y q", 0)])
        stats = corpus_stats(ds)
        vector = surface_embedding(ds.documents[0], stats, 4)
        expected = [
            0.17059356191250866,
            0.40545497156493326,
            2.027325537161946e-05,
            0.405465108108063,
        ]
        np.testing.assert_allclose(vector, expected, atol=1e-12)
        np.testing.assert_allclose(
            unit_vector(vector),
            [0.28515637910279906, 0.6777399468332874, 3.3887844474237956e-05, 0.6777568906141844],
            atol=1e-12,
        )

    def test_matches_reference_on_longer_docs(self):
        ds = five_doc_dataset()
        stats = corpus_stats(ds)
        all_tokens = [list(d.tokens) for d in ds]
        space = compute_embeddings(ds, stats, 8)
        for i, doc in enumerate(ds):
            ref = embed_reference(list(doc.tokens), all_tokens, 8)
            np.testing.assert_allclose(surface_embedding(doc, stats, 8), ref, atol=1e-12)
            np.testing.assert_allclose(space.vectors[i], ref, atol=1e-12)

    def test_unit_norm_within_tolerance(self):
        ds = five_doc_dataset()
        space = compute_embeddings(ds, lam=16)
        for unit in space.units[space.scoreable]:
            assert abs(np.linalg.norm(unit) - 1.0) < 1e-9

    def test_compute_embeddings_skips_short_docs(self):
        ds = dataset_from([("d1", "word", 0), ("d2", "two words here", 1), ("d3", "more words", 0)])
        space = compute_embeddings(ds, lam=4)
        assert space.embedded.tolist() == [False, True, True]
        assert len(space) == 2
        assert np.all(space.vectors[0] == 0.0)

    def test_unseen_df_scores_new_tokens(self):
        ds = dataset_from([("d1", "a b", 0), ("d2", "a c", 1)])
        stats = corpus_stats(ds)
        novel = make_document("d1", "a brandnew", 0)
        with pytest.raises(StaleStatsError):
            surface_embedding(novel, stats, 4)
        assert unit_vector(surface_embedding(novel, stats, 4, unseen_df=1)) is not None


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
        opposite_sum, n = ClassLedger(space).opposite(ds.by_id("b").label)
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
    space = SurfaceSpace((d.id for d in ds), (d.label for d in ds), lam)
    for i, doc in enumerate(ds):
        if doc.id in vectors:
            space.set_row(i, np.asarray(vectors[doc.id], dtype=np.float64))
    return space


def scores_of(space):
    return shortcut_scores(space, ClassLedger(space))


def objective_of(space):
    return class_alignment_objective(ClassLedger(space))


class TestShortcutScore:
    def test_identical_embeddings_score_zero(self):
        ds = dataset_from(
            [
                ("a", "same exact words here", 0),
                ("b", "same exact words here", 1),
                ("c", "same exact words here", 1),
                ("d", "other filler phrase now", 0),
            ]
        )
        scores = scores_of(compute_embeddings(ds, lam=8))
        # a's embedding equals b's and c's (identical text), so gamma(a) == 1 - 1 = 0
        assert scores["a"] == pytest.approx(0.0, abs=1e-9)

    def test_opposite_direction_scores_two(self):
        ds = dataset_from([("a", "p q", 0), ("b", "r s", 1)])
        space = space_from(ds, {"a": [1.0, 0.0], "b": [-1.0, 0.0]})
        assert scores_of(space)["a"] == pytest.approx(2.0, abs=1e-12)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(11)
        ds, space = random_embedding_dataset(rng, 4)
        scores = scores_of(space)
        for i, doc in enumerate(ds):
            opposite = [
                space.vectors[j].tolist()
                for j, o in enumerate(ds)
                if o.label != doc.label and space.scoreable[j]
            ]
            expected = naive_shortcut_score(space.vectors[i].tolist(), opposite)
            assert scores[doc.id] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(5)
        ds, space = random_embedding_dataset(rng, 30)
        for doc_id, score in scores_of(space).items():
            assert -1e-9 <= score <= 2.0 + 1e-9

    def test_zero_embedding_document_undefined(self):
        # "a" and "b" occur in every document, so doc a's weights all vanish
        ds = dataset_from([("a", "a b", 0), ("b", "a b c d", 1), ("c", "a b e f", 1)])
        space = compute_embeddings(ds, lam=4)
        assert space.embedded[0] and not space.scoreable[0]
        assert "a" not in scores_of(space)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        ds, embeddings = random_embedding_dataset(rng, 10)
        scaled = compute_embeddings(ds, lam=8)
        scaled.set_row(0, embeddings.vectors[0] * 37.0)
        target = ds.documents[0].id
        assert scores_of(scaled)[target] == pytest.approx(scores_of(embeddings)[target], rel=1e-12)

    def test_ranking_invariant_under_permutation(self):
        rng = np.random.default_rng(13)
        ds, embeddings = random_embedding_dataset(rng, 20)
        scores = scores_of(embeddings)
        top = sorted(scores, key=lambda i: (-scores[i], i))[:5]

        order = rng.permutation(len(ds.documents))
        shuffled = ds.with_documents(ds.documents[i] for i in order)
        scores2 = scores_of(compute_embeddings(shuffled, lam=8))
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
        by_class = {}
        for i, doc in enumerate(ds):
            if space.scoreable[i]:
                by_class.setdefault(doc.label, []).append(space.vectors[i].tolist())
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
        scaled = compute_embeddings(ds, lam=8)
        scaled.set_row(3, embeddings.vectors[3] * 0.001)
        assert objective_of(scaled) == pytest.approx(objective_of(embeddings), rel=1e-12)

    def test_class_fully_zero_embedded_undefined(self):
        # every class-0 token occurs in every document, so class 0 is all-zero
        ds = dataset_from([("a", "a b", 0), ("b", "a b", 0), ("c", "a b c d e", 1)])
        space = compute_embeddings(ds, lam=4)
        assert space.embedded[:2].all() and not space.scoreable[:2].any()
        with pytest.raises(ObjectiveUndefinedError):
            objective_of(space)

    def test_swap_updates_one_class_sum(self):
        rng = np.random.default_rng(41)
        ds, space = random_embedding_dataset(rng, 12, n_classes=3)
        ledger = ClassLedger(space)
        new_unit = unit_vector(np.arange(1.0, 9.0))
        ledger.swap(ds.documents[4].label, space.units[4], new_unit)
        space.set_row(4, new_unit)
        fresh = ClassLedger(space)
        np.testing.assert_allclose(ledger.sums, fresh.sums, atol=1e-12)
        assert class_alignment_objective(ledger) == pytest.approx(
            class_alignment_objective(fresh), rel=1e-12
        )
