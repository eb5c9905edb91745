import numpy as np
import pytest

from razor.backends import MockBackend
from razor.corpus import make_document
from razor.errors import BackendError, ConfigError
from razor.rewriter import (
    GeneratorConfig,
    PromptTemplate,
    RewriteCandidate,
    build_prompt,
    build_verify_prompt,
    generate_candidates,
    parse_verifier_response,
    select_replacement,
    verify_label,
)
from razor.surface import ClassLedger, compute_embeddings, corpus_stats

from conftest import dataset_from

LABELS = {0: "supports", 1: "refutes"}


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

    def test_unbound_placeholder_rejected(self):
        doc = make_document("d", "text body", 0)
        template = PromptTemplate("{nonsense} {text}", "{candidate}")
        with pytest.raises(ConfigError, match="placeholder"):
            build_prompt(doc, LABELS, template)

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

    def generate(self, prompt, doc, temperature, top_p, max_retries):
        # retries are the backend's responsibility; emulate "always down"
        self.calls += 1
        if self.calls <= self.failures:
            raise BackendError("simulated transport failure")
        return self.text


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
        assert backend.calls.count("generate") == 5

    def test_transport_failure_propagates(self):
        doc = make_document("d", "some doc text", 0)
        with pytest.raises(BackendError):
            generate_candidates(doc, FlakyBackend(failures=99), self.config(), LABELS)

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


def select_for_b1(accepted):
    """select_replacement for doc b1 of the scoring fixture, against a fresh
    ledger of the fixture's space."""
    ds, stats, space = scoring_fixture()
    i = space.ids.index("b1")
    return select_replacement(ds.by_id("b1"), accepted, stats, ClassLedger(space), space.units[i], 16)


class TestSelectReplacement:
    def test_argmin_strict_improvement(self):
        accepted = [
            RewriteCandidate("the crew painted the fence quickly", True),
            RewriteCandidate("zonk zonk the crew painted the fence quickly", True),
        ]
        decision = select_for_b1(accepted)
        assert decision.replaced
        assert decision.candidate.text == "the crew painted the fence quickly"
        assert decision.candidate.score < decision.original_score

    def test_keep_original_when_no_candidate_improves(self):
        accepted = [RewriteCandidate("zonk zonk zonk the crew painted fences", True)]
        decision = select_for_b1(accepted)
        assert not decision.replaced

    def test_empty_accepted_keeps_original(self):
        decision = select_for_b1([])
        assert not decision.replaced

    def test_tie_breaks_lexicographically(self):
        # identical token sequences under normalization, so identical scores
        accepted = [
            RewriteCandidate("THE crew painted the fence quickly", True),
            RewriteCandidate("The crew painted the fence quickly", True),
        ]
        decision = select_for_b1(accepted)
        assert decision.replaced
        assert decision.candidate.text == "THE crew painted the fence quickly"

    def test_unscoreable_candidates_skipped(self):
        short = RewriteCandidate("word", True)
        good = RewriteCandidate("the crew painted the fence quickly", True)
        decision = select_for_b1([short, good])
        assert decision.replaced
        assert decision.candidate.text == good.text
        assert short.score is None

    def test_unverified_candidates_ignored(self):
        unverified = RewriteCandidate("the crew painted the fence quickly", False)
        decision = select_for_b1([unverified])
        assert not decision.replaced
        assert unverified.score is None


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
