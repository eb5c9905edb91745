import json
import math
import random

import numpy as np
import pytest

from razor import evalkit
from razor.corpus import load_dataset, save_dataset
from razor.errors import ConfigError, DataError
from razor.evalkit import (
    BLEU_BLOCK_PAIRS,
    BiasSpec,
    corpus_bleu,
    emit_report,
    generate_biased_corpus,
)
from razor.pipeline import IterationTrace

from conftest import dataset_from
from oracles import bleu_reference, bleu_scalar, term_report_reference


def report_counts(ds, terms):
    """Each term's counts in ``ds``, read from the report of ``ds`` against itself."""
    report = emit_report(ds, ds, terms=terms)
    return {term: row["before"] for term, row in report.term_counts.items()}


def report_gap(ds, term):
    """The term's frequency gap in ``ds``, read from the report of ``ds`` against itself."""
    return emit_report(ds, ds, terms=[term]).frequency_gaps[term]["before"]


class TestCountTerms:
    def test_multiple_occurrences(self):
        ds = dataset_from([("a", "not not no", 0), ("b", "fine text", 1)])
        counts = report_counts(ds, ["no", "not"])
        assert counts["not"]["total"] == 2
        assert counts["no"]["total"] == 1
        assert counts["not"]["per_class"] == {0: 2, 1: 0}

    def test_whole_token_matching(self):
        ds = dataset_from([("a", "Nothing happened then", 0), ("b", "some words", 1)])
        counts = report_counts(ds, ["no", "not"])
        assert counts["no"]["total"] == 0
        assert counts["not"]["total"] == 0

    def test_case_insensitive(self):
        ds = dataset_from([("a", "Not now", 0), ("b", "later on", 1)])
        counts = report_counts(ds, ["not", "no"])
        assert counts["not"]["total"] == 1
        assert counts["no"]["total"] == 0

    def test_permutation_invariant_and_additive(self):
        rows = [(f"d{i}", f"token{i % 3} not filler word", i % 2) for i in range(10)]
        ds = dataset_from(rows)
        shuffled = ds.with_documents(reversed(ds.documents))
        assert report_counts(ds, ["not"]) == report_counts(shuffled, ["not"])

        first = dataset_from(rows[:5])
        second = dataset_from(rows[5:])
        total = report_counts(ds, ["not"])["not"]["total"]
        assert (
            report_counts(first, ["not"])["not"]["total"]
            + report_counts(second, ["not"])["not"]["total"]
            == total
        )

    def test_context_text_not_counted(self):
        ds = dataset_from(
            [
                ("a", "clean claim words", 0, "not not evidence"),
                ("b", "other claim words", 1, "not again"),
            ],
            schema="claim_evidence",
        )
        assert report_counts(ds, ["not"])["not"]["total"] == 0


class TestCorpusBleu:
    def test_identity_scores_100(self):
        corpus = ["the cat sat on the mat today", "a dog barked at the gate loudly"]
        assert corpus_bleu(corpus, corpus) == pytest.approx(100.0, abs=1e-9)

    def test_zero_overlap_scores_zero(self):
        assert corpus_bleu(["aa bb cc dd"], ["xx yy zz ww"]) == 0.0

    def test_zero_fourgram_overlap_without_smoothing(self):
        # unigrams overlap but no common 4-gram
        assert corpus_bleu(["a b c x e"], ["a b q c e"]) == 0.0

    def test_matches_reference_scorer(self):
        rng = random.Random(99)
        vocab = ["the", "cat", "dog", "sat", "ran", "house", "tree", "quick", "red", "old"]
        candidates, references = [], []
        for _ in range(50):
            n = rng.randint(4, 12)
            ref = [rng.choice(vocab) for _ in range(n)]
            cand = list(ref)
            for _ in range(rng.randint(0, 3)):
                cand[rng.randrange(len(cand))] = rng.choice(vocab)
            if rng.random() < 0.3:
                cand = cand[: max(4, len(cand) - 2)]
            candidates.append(" ".join(cand))
            references.append(" ".join(ref))
        mine = corpus_bleu(candidates, references)
        ref_score = bleu_reference(candidates, references)
        assert mine == pytest.approx(ref_score, abs=1e-6)

    def test_brevity_penalty_applies(self):
        # candidate shorter than reference: same n-gram precision, penalized
        full = corpus_bleu(["a b c d e f"], ["a b c d e f"])
        short = corpus_bleu(["a b c d e"], ["a b c d e f"])
        assert short < full

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            corpus_bleu(["one text"], ["two", "texts"])

    def test_empty_corpora_rejected(self):
        with pytest.raises(DataError):
            corpus_bleu([], [])

    @pytest.mark.parametrize(
        "candidates, references",
        [
            pytest.param(["", "a b c d e"], ["a b c d e", ""], id="empty-text-either-side"),
            pytest.param(["", " ", "\t"], ["a b c d", "e f g h", "i j k l"], id="all-empty-candidates"),
            pytest.param(["a b", "a b c d e"], ["a b", "a b c d e"], id="shorter-than-n"),
            pytest.param(
                ["the the the the the the", "x y x y x y"],
                ["the the cat the the the", "x y x y"],
                id="clipped-repeats",
            ),
            pytest.param(
                ["x y z w a b c d", "p q r s"],
                ["x y z w", "p q r s a b c d"],
                id="other-pairs-reference",
            ),
            pytest.param(
                ["a\tb\xa0c\u3000d e", "f  g\u3000h i"],
                ["a b c d e", "f g h i"],
                id="unicode-separators",
            ),
        ],
    )
    def test_edge_cases_equal_scalar_scorer(self, candidates, references):
        assert corpus_bleu(candidates, references) == bleu_scalar(candidates, references)

    def test_all_empty_candidates_score_zero(self):
        assert corpus_bleu(["", " "], ["a b c d", "e f g h"]) == 0.0

    def test_seeded_corpora_equal_scalar_scorer(self):
        separators = [" ", "  ", "\t", "\xa0", "\u3000"]
        for seed in range(60):
            rng = random.Random(seed)
            vocab = [f"w{i}" for i in range(rng.randint(1, 25))]
            candidates, references = [], []
            for _ in range(rng.randint(1, 40)):
                ref = [rng.choice(vocab) for _ in range(rng.randint(0, 14))]
                cand = list(ref)
                for _ in range(rng.randint(0, 4)):
                    if cand:
                        cand[rng.randrange(len(cand))] = rng.choice(vocab)
                if rng.random() < 0.3:
                    cand = cand[: rng.randint(0, len(cand))]
                candidates.append(rng.choice(separators).join(cand))
                references.append(" ".join(ref))
            assert corpus_bleu(candidates, references) == bleu_scalar(candidates, references), seed

    def test_many_distinct_tokens_across_blocks(self):
        rng = random.Random(5)
        n_pairs = 5000
        assert n_pairs > BLEU_BLOCK_PAIRS
        references = [" ".join(f"t{i}x{j}" for j in range(15)) for i in range(n_pairs)]
        candidates = []
        for ref in references:
            words = ref.split()
            words[rng.randrange(len(words))] = f"new{rng.randrange(50)}"
            candidates.append(" ".join(words[: rng.randint(10, 15)]))
        assert len(set(" ".join(references).split())) > 70_000
        assert corpus_bleu(candidates, references) == bleu_scalar(candidates, references)

    def test_identical_texts_under_four_tokens_score_zero(self):
        # unsmoothed BLEU-4 has no 4-gram to count
        assert corpus_bleu(["a b c"], ["a b c"]) == 0.0
        ds = dataset_from([("a", "the cat sat", 0), ("b", "a dog ran", 1)])
        assert emit_report(ds, ds).corpus_bleu == 0.0


class TestFrequencyGap:
    def test_token_everywhere_gap_zero(self):
        ds = dataset_from([("a", "tok here now", 0), ("b", "tok there then", 1)])
        assert report_gap(ds, "tok") == 0.0

    def test_token_only_in_one_class(self):
        ds = dataset_from(
            [
                ("a", "tok one two", 0),
                ("b", "tok three four", 0),
                ("c", "five six seven", 1),
            ]
        )
        assert report_gap(ds, "tok") == 1.0

    def test_duplication_invariant(self):
        ds = dataset_from(
            [
                ("a", "tok one two", 0),
                ("b", "three four five", 0),
                ("c", "tok six seven", 1),
                ("d", "eight nine ten", 1),
                ("e", "tok more words", 1),
            ]
        )
        doubled = dataset_from(
            [(f"{d.id}-{i}", d.mutable_text, d.label) for i in range(2) for d in ds]
        )
        assert report_gap(doubled, "tok") == pytest.approx(report_gap(ds, "tok"))

    def test_three_class_max_pairwise(self):
        ds = dataset_from(
            [
                ("a", "tok words here", 0),
                ("b", "tok words there", 0),
                ("c", "tok appears once", 1),
                ("d", "plain words only", 1),
                ("e", "nothing here at all", 2),
            ]
        )
        # rates: class0 = 1.0, class1 = 0.5, class2 = 0.0 -> max gap 1.0
        assert report_gap(ds, "tok") == pytest.approx(1.0)

    def test_planted_rate_recovered(self):
        spec = BiasSpec("zonk", biased_class=1, bias_rate=0.9, background_rate=0.1,
                        corpus_size=1000, seed=17)
        ds, _ = generate_biased_corpus(spec)
        gap = report_gap(ds, "zonk")
        # binomial 3-sigma around 0.8 with n=500 per class
        sigma = math.sqrt(0.9 * 0.1 / 500) + math.sqrt(0.1 * 0.9 / 500)
        assert abs(gap - 0.8) <= 3 * sigma


# tokens in several cases, with punctuation, and the sharp s: "ß" and "ẞ"
# lowercase to "ß", which casefolds to "ss"
ORACLE_WORDS = [
    "zonk", "Zonk", "ZONK", "zonk!", "ß", "ẞ", "ss", "SS", "«ß»", "Straße", "STRASSE",
    "the", "The", "gigi", "blick", "word", "more",
]
# a repeated term, terms that fold together, and a term no token holds
ORACLE_TERMS = ["zonk", "ZONK", "zonk", "ß", "ẞ", "ss", "strasse", "the", "gigi", "nosuch"]


class TestTermReportOracle:
    @staticmethod
    def random_text(rng):
        return " ".join(rng.choice(ORACLE_WORDS) for _ in range(rng.randint(1, 8)))

    @pytest.mark.parametrize("seed", range(12))
    def test_counts_and_gaps_equal_reference(self, seed):
        self.check_against_reference(seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_counts_and_gaps_summed_over_blocks(self, seed, monkeypatch):
        # blocks of 3 documents: every corpus spans several
        monkeypatch.setattr(evalkit, "TERM_BLOCK_DOCS", 3)
        self.check_against_reference(seed)

    def check_against_reference(self, seed):
        rng = random.Random(seed)
        # 2-4 labels hold documents; one more is declared and holds none
        labels = rng.sample(range(-3, 12), rng.randint(2, 4) + 1)
        label_names = {label: f"class{label}" for label in labels}
        used = labels[1:]
        rows = [
            (f"d{i}", self.random_text(rng), used[i % len(used)])
            for i in range(rng.randint(len(used), 40))
        ]
        before = dataset_from(rows, label_names)
        after = dataset_from(
            [(doc_id, self.random_text(rng), label) for doc_id, _, label in rows], label_names
        )
        report = emit_report(before, after, terms=ORACLE_TERMS)
        assert list(report.term_counts) == list(dict.fromkeys(ORACLE_TERMS))
        for side, ds in (("before", before), ("after", after)):
            docs = [(doc.mutable_text, doc.label) for doc in ds]
            for term in ORACLE_TERMS:
                occurrences, holding, documents = term_report_reference(docs, labels, term)
                counts = report.term_counts[term][side]
                assert list(counts["per_class"]) == labels
                assert counts == {"per_class": occurrences, "total": sum(occurrences.values())}
                assert {type(n) for n in [counts["total"], *counts["per_class"].values()]} == {int}
                rates = [holding[c] / documents[c] for c in sorted(labels) if documents[c]]
                gap = report.frequency_gaps[term][side]
                assert type(gap) is float and gap.hex() == (max(rates) - min(rates)).hex()


class TestGenerateBiasedCorpus:
    def test_full_bias_rate(self):
        spec = BiasSpec("zonk", bias_rate=1.0, background_rate=0.0, corpus_size=40, seed=1)
        ds, _ = generate_biased_corpus(spec)
        for doc in ds:
            has = "zonk" in doc.tokens
            assert has == (doc.label == 1)

    def test_seed_determinism_byte_identical(self, tmp_path):
        spec = BiasSpec("zonk", corpus_size=100, seed=42)
        first, rules1 = generate_biased_corpus(spec)
        second, rules2 = generate_biased_corpus(spec)
        assert first == second
        assert rules1 == rules2
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(first, p1)
        save_dataset(second, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empirical_rate_within_binomial_bound(self):
        spec = BiasSpec("zonk", bias_rate=0.9, background_rate=0.1, corpus_size=1000, seed=3)
        ds, _ = generate_biased_corpus(spec)
        biased = [d for d in ds if d.label == 1]
        rate = sum("zonk" in d.tokens for d in biased) / len(biased)
        assert 0.87 <= rate <= 0.93

    def test_min_sentence_length(self):
        spec = BiasSpec("zonk", corpus_size=50, seed=2)
        ds, _ = generate_biased_corpus(spec)
        assert all(len(d.tokens) >= 4 for d in ds)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigError):
            BiasSpec("zonk", bias_rate=0.1, background_rate=0.9)
        with pytest.raises(ConfigError):
            BiasSpec("zonk", bias_rate=1.2)

    def test_rules_delete_planted_token(self):
        import re

        spec = BiasSpec("zonk", corpus_size=10, seed=0)
        _, rules = generate_biased_corpus(spec)
        pattern = re.compile(rules["generation"][0]["pattern"])
        cleaned = pattern.sub("", "the crew zonk painted the fence")
        assert "zonk" not in cleaned
        assert "  " not in cleaned.strip()


class TestEmitReport:
    def plain_traces(self):
        return [
            IterationTrace(1, 10.0, 12.0, ["a"], ["a"], [], {"generate": 3, "verify": 3}, 0.1),
            IterationTrace(2, 12.5, 12.5, [], [], [], {"generate": 0, "verify": 0}, 0.0),
        ]

    def test_identical_datasets(self, tiny_binary):
        report = emit_report(tiny_binary, tiny_binary, terms=["not"])
        assert report.corpus_bleu == pytest.approx(100.0, abs=1e-9)
        assert report.rewritten_count == 0
        assert report.term_counts["not"]["delta"] == 0
        assert report.frequency_gaps["not"]["delta"] == 0.0

    @pytest.mark.parametrize("term", ["new york", "u.s.", " not"])
    def test_term_of_other_than_one_token_rejected(self, term, tiny_binary):
        with pytest.raises(ConfigError, match="is not a single token"):
            emit_report(tiny_binary, tiny_binary, terms=["not", term])

    def test_rewrites_measured(self):
        before = dataset_from(
            [
                ("a", "the zonk crew painted the fence", 1),
                ("b", "the crew cleaned the engine", 0),
            ]
        )
        after = dataset_from(
            [
                ("a", "the crew painted the fence", 1),
                ("b", "the crew cleaned the engine", 0),
            ]
        )
        report = emit_report(before, after, self.plain_traces(), terms=["zonk"])
        assert report.rewritten_count == 1
        assert report.term_counts["zonk"]["delta"] == -1
        assert report.frequency_gaps["zonk"]["after"] == 0.0
        assert report.objective_trace == [10.0, 12.0, 12.5]
        assert 0.0 < report.corpus_bleu < 100.0

    def test_schema_mismatch_rejected(self, tiny_binary):
        other = dataset_from(
            [("a", "claim text here", 0, "ev"), ("b", "other claim", 1, "ev")],
            schema="claim_evidence",
        )
        with pytest.raises(DataError, match="schema"):
            emit_report(tiny_binary, other)

    def test_label_change_rejected(self):
        before = dataset_from([("a", "the cat sat", 0), ("b", "a cat ran", 0), ("c", "dogs bark", 1)])
        after = dataset_from([("a", "the cat sat", 1), ("b", "a cat ran", 1), ("c", "dogs bark", 0)])
        with pytest.raises(DataError, match="document 'a': label or context differs"):
            emit_report(before, after, terms=["cat"])

    def test_context_change_rejected(self):
        rows = [("a", "claim one here", 0, "ev one"), ("b", "claim two here", 1, "ev two")]
        before = dataset_from(rows, schema="claim_evidence")
        after = dataset_from(rows[:1] + [("b", "claim two here", 1, "ev changed")],
                             schema="claim_evidence")
        with pytest.raises(DataError, match="document 'b': label or context differs"):
            emit_report(before, after)

    def test_json_and_csv_written(self, tmp_path, tiny_binary):
        report = emit_report(tiny_binary, tiny_binary, self.plain_traces(), terms=["not", "no"])
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "report.csv"
        report.write_json(jpath)
        report.write_csv(cpath)
        loaded = json.loads(jpath.read_text())
        assert loaded["corpus_bleu"] == pytest.approx(100.0)
        assert "term_counts" in loaded
        lines = cpath.read_text().splitlines()
        assert lines[0].startswith("section,")
        assert any(line.startswith("frequency_gap,not") for line in lines)

    def test_sampled_bleu_is_seeded(self):
        rng = random.Random(0)
        rows_before, rows_after = [], []
        for i in range(30):
            text = f"item {i} stays mostly the same here"
            rows_before.append((f"d{i}", text, i % 2))
            rows_after.append((f"d{i}", text + " changed", i % 2))
        before = dataset_from(rows_before)
        after = dataset_from(rows_after)
        r1 = emit_report(before, after, sample=5, seed=7)
        r2 = emit_report(before, after, sample=5, seed=7)
        assert r1.corpus_bleu == r2.corpus_bleu
