from types import SimpleNamespace

import numpy as np
import pytest

from razor.backends import MockBackend
from razor.corpus import make_document, replace_text
from razor.errors import BackendError, ConfigError, DataError
from razor.rewriter import (
    GeneratorConfig,
    RewriteCandidate,
    build_prompt,
    check_label_names,
    build_verify_prompt,
    embed_candidates,
    generate_candidates,
    parse_verifier_response,
    select_replacement,
    verify_label,
)
from razor.surface import (
    BLOCK_DOCS,
    ClassLedger,
    compute_embeddings,
    corpus_stats,
    score_against,
    surface_embedding,
)

from conftest import dataset_from, doc_frequency
from oracles import embed_reference

LABELS = {0: "supports", 1: "refutes"}
META_LABELS = {0: "n/a", 1: "c++", 2: "(x)"}
FEVER_LABELS = {0: "SUPPORTS", 1: "REFUTES", 2: "NOT ENOUGH INFO"}


class TestBuildPrompt:
    def test_claim_evidence_prompt_contains_parts(self):
        doc = make_document("d", "the film flopped", 1, context_text="it grossed well")
        prompt = build_prompt(doc, LABELS, schema="claim_evidence")
        assert "it grossed well" in prompt
        assert "the film flopped" in prompt
        assert "refutes" in prompt

    def test_missing_label_name(self):
        doc = make_document("d", "some text", 2)
        with pytest.raises(ConfigError):
            build_prompt(doc, LABELS)

    def test_no_context_omits_context_section(self):
        doc = make_document("d", "plain text doc", 0)
        prompt = build_prompt(doc, LABELS, schema="claim_evidence")
        assert "Evidence:" not in prompt
        assert "plain text doc" in prompt

    def test_deterministic(self):
        doc = make_document("d", "steady text", 0, context_text="ctx")
        assert build_prompt(doc, LABELS, schema="premise_hypothesis") == build_prompt(
            doc, LABELS, schema="premise_hypothesis"
        )

    def test_verify_prompt_lists_label_names(self):
        doc = make_document("d", "claim text", 1, context_text="ev")
        prompt = build_verify_prompt("new claim", doc, LABELS, schema="claim_evidence")
        assert "supports" in prompt and "refutes" in prompt
        assert "new claim" in prompt


class FlakyBackend:
    """Raises BackendError for the first ``failures`` generate calls."""

    def __init__(self, failures, text="rewritten text"):
        self.failures = failures
        self.text = text
        self.calls = 0

    def generate(self, prompt, doc, temperature, top_p, max_retries, n=None):
        # retries are the backend's responsibility; emulate "always down"
        self.calls += 1
        if self.calls <= self.failures:
            raise BackendError("simulated transport failure")
        return self.text if n is None else [self.text] * n


class TestGenerateCandidates:
    def config(self, **kw):
        return GeneratorConfig(**kw)

    def test_mock_rule_deletes_token(self):
        doc = make_document("d", "x is not y", 0)
        backend = MockBackend([{"pattern": r"\s*\bnot\b", "replacement": ""}])
        out = generate_candidates(doc, backend, self.config(), LABELS)
        assert out == ["x is y"]

    def test_identity_rule_yields_empty_set(self):
        doc = make_document("d", "nothing matches here", 0)
        backend = MockBackend([{"pattern": r"\bzzz\b", "replacement": ""}])
        assert generate_candidates(doc, backend, self.config(), LABELS) == []

    def test_duplicates_collapsed(self):
        doc = make_document("d", "a not b", 0)
        backend = MockBackend([{"pattern": r"\s*\bnot\b", "replacement": ""}])
        out = generate_candidates(doc, backend, self.config(candidates_per_doc=5), LABELS)
        assert out == ["a b"]
        assert backend.calls.count("generate") == 1  # one request for all five

    def test_transport_failure_propagates(self):
        doc = make_document("d", "some doc text", 0)
        with pytest.raises(BackendError):
            generate_candidates(doc, FlakyBackend(failures=99), self.config(), LABELS)

    def test_backend_answering_no_text_is_backend_error(self):
        doc = make_document("d", "some doc text", 0)
        with pytest.raises(BackendError, match="no rewrite"):
            generate_candidates(doc, SimpleNamespace(generate=lambda *a, n: []), self.config(), LABELS)

    def test_seeded_replacement_choice_is_deterministic(self):
        doc = make_document("d", "the outcome was poor overall", 0)
        rule = {"pattern": r"\bpoor\b", "replacements": ["bad", "weak", "mediocre"]}
        first = MockBackend([rule], seed=5)
        second = MockBackend([rule], seed=5)
        cfg = self.config(candidates_per_doc=3)
        assert generate_candidates(doc, first, cfg, LABELS) == generate_candidates(
            doc, second, cfg, LABELS
        )


class TestVerifyLabel:
    def test_confirming_verifier_accepts(self):
        doc = make_document("d", "claim body", 1, context_text="ev")
        backend = MockBackend([], verdict="confirm")
        assert verify_label("new claim", doc, backend, GeneratorConfig(), LABELS) is True

    def test_flipping_verifier_rejects(self):
        doc = make_document("d", "claim body", 1, context_text="ev")
        backend = MockBackend([], verdict="flip")
        assert verify_label("new claim", doc, backend, GeneratorConfig(), LABELS) is False

    def test_garbled_response_rejects_with_warning(self, caplog):
        doc = make_document("d", "claim body", 1)
        backend = MockBackend([], verdict="garbled")
        with caplog.at_level("WARNING", logger="razor"):
            assert verify_label("new claim", doc, backend, GeneratorConfig(), LABELS) is False
        assert any("verifier" in rec.message for rec in caplog.records)

    def test_parse_exactly_one_name(self):
        assert parse_verifier_response("I think it Refutes the claim.", LABELS) == 1
        assert parse_verifier_response("supports, or maybe refutes", LABELS) is None
        assert parse_verifier_response("no label to be found", LABELS) is None
        # substring of a longer word must not count
        assert parse_verifier_response("he refutesxyz it", LABELS) is None

    # whole-word, case-insensitive matches of names holding regex
    # metacharacters, of mixed case, and of FEVER's several-word label
    @pytest.mark.parametrize("names, response, label", [
        (META_LABELS, "n/a", 0),
        (META_LABELS, "N/A.", 0),
        (META_LABELS, "the answer is c++", 1),
        (META_LABELS, "C++!", 1),
        (META_LABELS, "(x)", 2),
        (META_LABELS, "(X) surely", 2),
        (META_LABELS, "[(x)]", 2),
        (META_LABELS, "n/a or c++", None),
        (META_LABELS, "na", None),
        (META_LABELS, "c+", None),
        (META_LABELS, "x", None),
        (META_LABELS, "x)", None),
        (META_LABELS, "abc++", None),
        (META_LABELS, "c++d", None),
        (META_LABELS, "n/ab", None),
        (FEVER_LABELS, "not enough info", 2),
        (FEVER_LABELS, "Not Enough Info.", 2),
        (FEVER_LABELS, "NOT ENOUGH INFORMATION", None),
        (FEVER_LABELS, "not  enough info", None),
        (FEVER_LABELS, "refutes, not enough info", None),
        (FEVER_LABELS, "supports", 0),
        (FEVER_LABELS, "it REFUTES", 1),
        (FEVER_LABELS, "Supported", None),
    ])
    def test_verdict_table(self, names, response, label):
        check_label_names(names)
        assert parse_verifier_response(response, names) == label

    @pytest.mark.parametrize(
        "names", [{0: "yes", 1: "Yes"}, {0: "supported", 1: "not supported"}]
    )
    def test_names_the_verifier_cannot_tell_apart_rejected(self, names):
        with pytest.raises(DataError, match="labels 0 .* and 1 "):
            check_label_names(names)
        assert parse_verifier_response(names[1], names) is None


def scoring_fixture():
    """Binary dataset with a planted token making doc b1 divergent."""
    ds = dataset_from(
        [
            ("a1", "the crew painted the fence quickly", 0),
            ("a2", "the crew cleaned the engine slowly", 0),
            ("b1", "zonk the crew painted the fence quickly", 1),
            ("b2", "the crew measured the garden today", 1),
        ]
    )
    stats = corpus_stats(ds)
    space = compute_embeddings(ds, stats, 16)
    return ds, stats, space


def select_for_b1(candidates):
    """embed_candidates, then select_replacement for doc b1 of the scoring
    fixture, against a fresh ledger of the fixture's space."""
    ds, stats, space = scoring_fixture()
    doc = {d.id: d for d in ds}["b1"]
    embed_candidates([(doc, cand) for cand in candidates], stats, 16)
    i = space.ids.index("b1")
    return select_replacement(doc, candidates, ClassLedger(space), space.units[i])


def b1_score(unit=None):
    """Shortcut score of ``unit`` (b1's own unit when None) against b1's
    opposite class in a fresh ledger of the scoring fixture."""
    _, _, space = scoring_fixture()
    if unit is None:
        unit = space.units[space.ids.index("b1")]
    return score_against(unit, *ClassLedger(space).opposite(1))


# both strictly improve on b1's original; the first scores lowest
BEST = "the crew painted the fence quickly"
RUNNER_UP = "crew painted the fence quickly zonk"


class TestSelectReplacement:
    def test_argmin_strict_improvement(self):
        accepted = [
            RewriteCandidate("the crew painted the fence quickly", True),
            RewriteCandidate("zonk zonk the crew painted the fence quickly", True),
        ]
        chosen = select_for_b1(accepted)
        assert chosen is accepted[0]
        assert b1_score(chosen.unit) < b1_score()

    def test_keep_original_when_no_candidate_improves(self):
        accepted = [RewriteCandidate("zonk zonk zonk the crew painted fences", True)]
        assert select_for_b1(accepted) is None

    def test_empty_accepted_keeps_original(self):
        assert select_for_b1([]) is None

    def test_tie_breaks_lexicographically(self):
        # identical token sequences under normalization, so identical scores
        accepted = [
            RewriteCandidate("THE crew painted the fence quickly", True),
            RewriteCandidate("The crew painted the fence quickly", True),
        ]
        chosen = select_for_b1(accepted)
        assert chosen.text == "THE crew painted the fence quickly"
        assert np.array_equal(accepted[0].unit, accepted[1].unit)

    def test_unscoreable_candidates_skipped(self):
        short = RewriteCandidate("word", True)
        empty = RewriteCandidate("?!", True)
        good = RewriteCandidate("the crew painted the fence quickly", True)
        assert select_for_b1([short, empty, good]) is good
        assert short.unit is None and short.document is None
        assert empty.unit is None and empty.document is None

    def test_replacement_carries_document_and_unit(self):
        text = "the crew painted the fence quickly"
        chosen = select_for_b1([RewriteCandidate(text, True)])
        ds, stats, _ = scoring_fixture()
        expected = replace_text({d.id: d for d in ds}["b1"], text)
        assert chosen.verified and chosen.document == expected
        np.testing.assert_array_equal(chosen.unit, surface_embedding([expected], stats, 16)[0])

    def test_original_tokens_never_replace(self):
        # the original's tokens in other case: its own embedding, no improvement
        same = RewriteCandidate("ZONK the crew painted the fence quickly", True)
        assert select_for_b1([same]) is None
        assert same.unit is None

    def test_unverified_candidates_ignored(self):
        rejected = RewriteCandidate("the crew painted the fence quickly", False)
        assert select_for_b1([rejected]) is None

    def test_unverified_best_returned_unchanged(self):
        best, runner_up = RewriteCandidate(BEST), RewriteCandidate(RUNNER_UP, True)
        chosen = select_for_b1([runner_up, best])
        assert chosen is best and best.verified is None
        assert b1_score(best.unit) < b1_score(runner_up.unit) < b1_score()

    def test_rejected_best_passed_over(self):
        best, runner_up = RewriteCandidate(BEST), RewriteCandidate(RUNNER_UP)
        assert select_for_b1([best, runner_up]) is best
        # rejected after it was embedded: selection itself passes it over
        best.verified = False
        assert select_for_b1([best, runner_up]) is runner_up
        assert best.unit is not None and runner_up.verified is None

    def test_none_when_nothing_improves_even_unverified(self):
        worse = [
            RewriteCandidate("zonk zonk zonk the crew painted fences"),
            RewriteCandidate("the crew painted the fence slowly"),
            RewriteCandidate("zonk zonk the crew painted the fence quickly", True),
        ]
        assert select_for_b1(worse) is None
        assert all(cand.unit is not None for cand in worse)


class TestEmbedCandidates:
    """embed_candidates embeds every candidate of an iteration in blocks of
    BLOCK_DOCS; each unit must match the per-document definition."""

    def test_units_match_reference_across_blocks(self):
        ds, stats, _ = scoring_fixture()
        originals = list(ds)
        rng = np.random.default_rng(3)
        words = sorted(doc_frequency(stats)) + ["unseen", "novel"]
        pairs = []
        for j in range(BLOCK_DOCS + 40):
            text = " ".join(words[w] for w in rng.integers(0, len(words), size=2 + j % 9))
            pairs.append((originals[j % len(originals)], RewriteCandidate(text, True)))
        embed_candidates(pairs, stats, 16)
        all_tokens = [set(d.tokens) for d in ds]
        embedded = [cand for _, cand in pairs if cand.unit is not None]
        assert len({cand.document.tokens for cand in embedded}) > BLOCK_DOCS
        assert any("unseen" in cand.document.tokens for cand in embedded)
        for cand in embedded:
            ref = embed_reference(list(cand.document.tokens), all_tokens, 16, unseen_df=1)
            ref = np.asarray(ref) / np.linalg.norm(ref)
            np.testing.assert_allclose(cand.unit, ref, rtol=0, atol=1e-12)

    def test_same_tokens_share_one_unit(self):
        # a block of other candidates in between: the two would otherwise be
        # embedded in different blocks
        ds, stats, _ = scoring_fixture()
        docs = {d.id: d for d in ds}
        a1, b1 = docs["a1"], docs["b1"]
        first = RewriteCandidate("the crew painted a fence", True)
        second = RewriteCandidate("The crew painted a FENCE.", True)
        fillers = [RewriteCandidate(f"the crew painted fence {i}", True) for i in range(BLOCK_DOCS)]
        embed_candidates([(a1, first)] + [(a1, c) for c in fillers] + [(b1, second)], stats, 16)
        assert first.document.id == "a1" and second.document.id == "b1"
        assert np.array_equal(first.unit, second.unit)


class TestGeneratorConfig:
    def test_defaults(self):
        cfg = GeneratorConfig()
        assert cfg.top_p == 0.9
        assert cfg.temperature == 0.7
        assert cfg.verifier_temperature == 0.0
        assert cfg.candidates_per_doc == 3

    def test_invalid_top_p(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(top_p=0.0)

    def test_invalid_temperature(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(temperature=-0.1)

    def test_backend_and_model_must_be_strings(self):
        for fields in ({"backend": ["mock"]}, {"model": 5}):
            with pytest.raises(ConfigError, match=next(iter(fields))):
                GeneratorConfig(**fields)
