"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Every expected value is either frozen from an independent hand evaluation or
checked live against an independently written reference implementation from
``oracles.py``.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from razor.attribution import (
    REASON_PREDICTION_CHANGED,
    REASON_PREDICTION_CORRECT,
    REASON_SUBSET_TOO_LARGE,
    is_shortcut,
    mass_inequality_holds,
    make_record,
)
from razor.backends import MockBackend
from razor.corpus import save_dataset
from razor.errors import BackendError
from razor.evalkit import (
    BiasSpec,
    corpus_bleu,
    count_terms,
    frequency_gap,
    generate_biased_corpus,
)
from razor.pipeline import Checkpoint, RewriteJournal, RunConfig, run_razor
from razor.surface import (
    ClassLedger,
    class_alignment_objective,
    compute_embeddings,
    corpus_stats,
    positional_encoding,
    shortcut_scores,
    tfidf_score,
)

from conftest import dataset_from
from oracles import bleu_reference, naive_objective, naive_shortcut_score, pe_reference
from test_attribution import build_shortcut_instance
from test_surface import FIVE_DOC_EXPECTED, five_doc_dataset


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} FAIL: {name}")
        raise
    print(f"[acceptance] criterion {number} PASS: {name}")


def random_corpus(rng, n_docs, vocab_size=60):
    vocab = [f"w{i}" for i in range(vocab_size)]
    rows = []
    for i in range(n_docs):
        length = int(rng.integers(4, 12))
        words = [vocab[int(j)] for j in rng.integers(0, vocab_size, size=length)]
        rows.append((f"doc{i:04d}", " ".join(words), int(i % 2)))
    return dataset_from(rows)


def synth_setup(corpus_size, seed):
    spec = BiasSpec(
        "zonk",
        biased_class=1,
        bias_rate=0.9,
        background_rate=0.1,
        corpus_size=corpus_size,
        seed=seed,
    )
    dataset, rules = generate_biased_corpus(spec)
    backend = MockBackend(rules["generation"], verdict=rules["verdict"], seed=rules["seed"])
    return dataset, rules, backend


def test_criterion_1_algebraic_identity():
    with criterion(1, "fast objective and shortcut score equal the naive pairwise forms"):
        rng = np.random.default_rng(1001)
        started = time.monotonic()
        for _ in range(50):
            ds = random_corpus(rng, int(rng.integers(10, 201)))
            space = compute_embeddings(ds, lam=64)
            ledger = ClassLedger(space)
            by_class = {}
            vectors = {}
            for i, doc in enumerate(ds):
                if space.scoreable[i]:
                    vec = space.vectors[i].tolist()
                    vectors[doc.id] = vec
                    by_class.setdefault(doc.label, []).append(vec)
            fast = class_alignment_objective(ledger)
            naive = naive_objective(by_class)
            assert fast == pytest.approx(naive, rel=1e-9, abs=1e-9)

            scores = shortcut_scores(space, ledger)
            docs = [d for d in ds if d.id in vectors]
            picks = rng.choice(len(docs), size=min(10, len(docs)), replace=False)
            for idx in picks:
                doc = docs[int(idx)]
                opposite = [
                    vectors[o.id] for o in docs if o.label != doc.label
                ]
                expected = naive_shortcut_score(vectors[doc.id], opposite)
                assert scores[doc.id] == pytest.approx(expected, rel=1e-9, abs=1e-9)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"identity checks took {elapsed:.2f}s (budget 5s)"


def test_criterion_2_positional_encoding_oracle():
    with criterion(2, "positional encoding matches the independent scalar evaluator"):
        for lam in (8, 64):
            for pos in range(512):
                vec = positional_encoding(pos, lam)
                for k in range(lam):
                    assert vec[k] == pytest.approx(pe_reference(pos, k, lam), abs=1e-12)
        for lam in (8, 64):
            zero = positional_encoding(0, lam)
            assert zero.tolist() == [0.0, 1.0] * (lam // 2)


def test_criterion_3_tfidf_oracle():
    with criterion(3, "tf-idf matches hand-computed values on the fixed 5-doc corpus"):
        ds = five_doc_dataset()
        stats = corpus_stats(ds)
        by_id = {d.id: d for d in ds}
        for token, doc_id, expected in FIVE_DOC_EXPECTED:
            got = tfidf_score(token, by_id[doc_id], stats)
            assert got == pytest.approx(expected, abs=1e-12)


def test_criterion_4_monotone_greedy_ascent():
    with criterion(4, "objective never decreases within an iteration or over a run"):
        dataset, _, backend = synth_setup(400, seed=7)
        config = RunConfig(k=0.1, lam=64, epsilon=1e-4, max_iterations=10)
        result = run_razor(dataset, config, backend)
        assert result.traces
        for trace in result.traces:
            assert trace.objective_after >= trace.objective_before - 1e-9
        sequence = [result.traces[0].objective_before] + [
            t.objective_after for t in result.traces
        ]
        for earlier, later in zip(sequence, sequence[1:]):
            assert later >= earlier - 1e-9


def test_criterion_5_planted_bias_reduction():
    with criterion(5, "planted-token gap halved and count down 40% on the 1000-doc corpus"):
        dataset, _, backend = synth_setup(1000, seed=7)
        gap_before = frequency_gap(dataset, "zonk")
        count_before = count_terms(dataset, ["zonk"])["zonk"]["total"]
        assert count_before > 0

        config = RunConfig(k=0.1, lam=64, epsilon=1e-4, max_iterations=10)
        started = time.monotonic()
        result = run_razor(dataset, config, backend)
        elapsed = time.monotonic() - started

        gap_after = frequency_gap(result.dataset, "zonk")
        count_after = count_terms(result.dataset, ["zonk"])["zonk"]["total"]
        assert gap_after <= gap_before * 0.5, f"gap {gap_before:.3f} -> {gap_after:.3f}"
        assert count_after <= count_before * 0.6, f"count {count_before} -> {count_after}"
        assert len(result.traces) <= 10
        assert elapsed < 60.0, f"run took {elapsed:.1f}s (budget 60s)"


def test_criterion_6_size_and_label_preservation():
    with criterion(6, "document count and label multiset survive every run"):
        for size, seed in ((200, 3), (301, 11)):
            dataset, _, backend = synth_setup(size, seed)
            config = RunConfig(k=0.1, max_iterations=5)
            result = run_razor(dataset, config, backend)
            assert len(result.dataset) == len(dataset)
            assert Counter(d.label for d in result.dataset) == Counter(
                d.label for d in dataset
            )
            assert [d.id for d in result.dataset] == [d.id for d in dataset]


def test_criterion_7_shortcut_definition_suite():
    with criterion(7, "mean-mass inequality holds on 1000 constructed shortcut records"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            record, subset = build_shortcut_instance(rng)
            verdict = is_shortcut(subset, record)
            assert verdict.is_shortcut, "construction must satisfy all three conditions"
            assert mass_inequality_holds(subset, record) is True

        base = [[1.0, 0.0]] * 6
        changed = make_record("x", base, 1, 0, {frozenset({0}): 0})
        assert is_shortcut({0}, changed).reason == REASON_PREDICTION_CHANGED
        correct = make_record("y", base, 1, 1, {frozenset({0}): 1})
        assert is_shortcut({0}, correct).reason == REASON_PREDICTION_CORRECT
        big = make_record("z", base, 1, 0, {frozenset({0, 1, 2, 3}): 1})
        assert is_shortcut({0, 1, 2, 3}, big).reason == REASON_SUBSET_TOO_LARGE


def test_criterion_8_bleu_oracle():
    with criterion(8, "two independent BLEU scorers agree to 1e-6; identity scores 100"):
        rng = random.Random(808)
        vocab = ["the", "cat", "dog", "sat", "ran", "fast", "home", "red", "old", "new"]
        candidates, references = [], []
        for _ in range(50):
            n = rng.randint(4, 14)
            ref = [rng.choice(vocab) for _ in range(n)]
            cand = list(ref)
            for _ in range(rng.randint(0, 4)):
                cand[rng.randrange(len(cand))] = rng.choice(vocab)
            if rng.random() < 0.25:
                cand = cand[: max(4, len(cand) - 2)]
            candidates.append(" ".join(cand))
            references.append(" ".join(ref))
        assert corpus_bleu(candidates, references) == pytest.approx(
            bleu_reference(candidates, references), abs=1e-6
        )
        assert corpus_bleu(references, references) == pytest.approx(100.0, abs=1e-9)


def test_criterion_9_determinism_and_resume(tmp_path):
    with criterion(9, "seeded runs are byte-identical and resume repeats no calls"):
        dataset, rules, _ = synth_setup(300, seed=5)
        config = RunConfig(k=0.1, max_iterations=10)

        def backend(**kw):
            return MockBackend(
                rules["generation"], verdict=rules["verdict"], seed=rules["seed"], **kw
            )

        first = run_razor(dataset, config, backend())
        second = run_razor(dataset, config, backend())
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_dataset(first.dataset, p1)
        save_dataset(second.dataset, p2)
        assert p1.read_bytes() == p2.read_bytes()

        ckpt_dir = tmp_path / "ckpt"
        with pytest.raises(BackendError):
            run_razor(dataset, config, backend(fail_after_generate_calls=20), Checkpoint(ckpt_dir))
        journaled = set(RewriteJournal(Checkpoint(ckpt_dir).journal_path(1))._entries)
        assert journaled, "abort must land mid-iteration, after some documents completed"

        fresh = backend()
        resumed = run_razor(dataset, config, fresh, Checkpoint(ckpt_dir))
        p3 = tmp_path / "resumed.jsonl"
        save_dataset(resumed.dataset, p3)
        assert p3.read_bytes() == p1.read_bytes()

        iter1_generate = resumed.traces[0].llm_calls["generate"]
        assert iter1_generate == first.traces[0].llm_calls["generate"] - 3 * len(journaled)
        first_iter_docs = [d for role, d in fresh.calls.entries if role == "generate"]
        first_iter_docs = set(first_iter_docs[:iter1_generate])
        assert not (first_iter_docs & journaled)
