from collections import Counter
from dataclasses import replace

import pytest

from razor.backends import MockBackend
from razor.corpus import TokenizerConfig, load_dataset, make_document, save_dataset
from razor.errors import BackendError, ConfigError, DataError
from razor.evalkit import BiasSpec, generate_biased_corpus
from razor.pipeline import (
    Checkpoint,
    IterationTrace,
    RewriteJournal,
    RunConfig,
    STOP_CONVERGED,
    STOP_MAX_ITERATIONS,
    STOP_NO_REPLACEMENTS,
    rank_and_select,
    resolve_k,
    run_iteration,
    run_razor,
)
from razor.surface import ClassLedger, compute_embeddings, shortcut_scores

from conftest import dataset_from


def synth(corpus_size=200, seed=7, **spec_kw):
    spec = BiasSpec("zonk", biased_class=1, bias_rate=0.9, background_rate=0.1,
                    corpus_size=corpus_size, seed=seed, **spec_kw)
    dataset, rules = generate_biased_corpus(spec)
    return dataset, rules


def mock_backend(rules, **kw):
    return MockBackend(rules["generation"], verdict=rules["verdict"], seed=rules["seed"], **kw)


def noop_backend():
    """Mock whose rewrites never change anything."""
    return MockBackend([], verdict="confirm")


class TestRunConfig:
    def test_defaults_valid(self):
        config = RunConfig()
        assert config.k == 0.1
        assert config.max_iterations == 10

    def test_bad_epsilon(self):
        with pytest.raises(ConfigError):
            RunConfig(epsilon=0.0)

    def test_bad_k(self):
        with pytest.raises(ConfigError):
            RunConfig(k=0)
        with pytest.raises(ConfigError):
            RunConfig(k=-0.5)

    def test_odd_lambda(self):
        with pytest.raises(ConfigError):
            RunConfig(lam=7)

    def test_resolve_k(self):
        assert resolve_k(0.1, 1000) == 100
        assert resolve_k(0.1, 5) == 1
        assert resolve_k(3, 1000) == 3
        assert resolve_k(3.0, 1000) == 3


class TestRankAndSelect:
    def test_sorts_descending(self):
        ds = dataset_from(
            [
                ("a", "zonk weird planted thing", 0),
                ("b", "the crew painted the fence", 0),
                ("c", "the crew painted the fence", 1),
                ("d", "the crew cleaned the fence", 1),
            ]
        )
        space = compute_embeddings(ds, lam=16)
        ledger = ClassLedger(space)
        scores = shortcut_scores(space, ledger)
        selected = rank_and_select(space, ledger, 2)
        assert len(selected) == 2
        assert scores[selected[0]] >= scores[selected[1]]
        assert selected[0] == max(scores, key=lambda i: (scores[i], i))

    def test_tie_breaks_by_ascending_id(self):
        ds = dataset_from(
            [
                ("m", "same words here now", 0),
                ("k", "same words here now", 0),
                ("z", "other text entirely today", 1),
                ("q", "another thing happened there", 1),
            ]
        )
        space = compute_embeddings(ds, lam=16)
        ledger = ClassLedger(space)
        selected = rank_and_select(space, ledger, 2)
        # m and k share a score; k precedes m
        assert set(selected[:2]) <= {"k", "m", "q", "z"}
        scores = shortcut_scores(space, ledger)
        assert scores["k"] == pytest.approx(scores["m"])
        if {"k", "m"} <= set(selected):
            assert selected.index("k") < selected.index("m")

    def test_k_larger_than_scoreable_warns(self, caplog):
        ds = dataset_from(
            [
                ("a", "first text block", 0),
                ("b", "second text block", 1),
            ]
        )
        space = compute_embeddings(ds, lam=8)
        with caplog.at_level("WARNING", logger="razor"):
            selected = rank_and_select(space, ClassLedger(space), 10)
        assert set(selected) == {"a", "b"}
        assert any("scoreable" in rec.message for rec in caplog.records)


class TestRunIteration:
    def test_never_improving_backend_keeps_dataset(self):
        dataset, _ = synth(corpus_size=60)
        out, trace = run_iteration(dataset, RunConfig(k=5), noop_backend())
        assert out == dataset
        assert trace.replaced_ids == []
        assert set(trace.kept_ids) == set(trace.selected_ids)
        assert trace.objective_after == pytest.approx(trace.objective_before)

    def test_debiasing_backend_improves_objective(self):
        dataset, rules = synth(corpus_size=120)
        out, trace = run_iteration(dataset, RunConfig(k=10), mock_backend(rules))
        assert trace.replaced_ids
        assert trace.objective_after > trace.objective_before
        assert out != dataset

    def test_size_preserved(self):
        dataset, rules = synth(corpus_size=80)
        out, _ = run_iteration(dataset, RunConfig(k=8), mock_backend(rules))
        assert len(out) == len(dataset)

    def test_labels_and_ids_preserved(self):
        dataset, rules = synth(corpus_size=80)
        out, _ = run_iteration(dataset, RunConfig(k=8), mock_backend(rules))
        assert [d.id for d in out] == [d.id for d in dataset]
        assert Counter(d.label for d in out) == Counter(d.label for d in dataset)
        for before, after in zip(dataset, out):
            assert before.context_text == after.context_text

    def test_trace_partitions_selected(self):
        dataset, rules = synth(corpus_size=80)
        _, trace = run_iteration(dataset, RunConfig(k=8), mock_backend(rules))
        assert sorted(trace.replaced_ids + trace.kept_ids) == sorted(trace.selected_ids)

    def test_backend_failure_aborts_cleanly(self):
        dataset, rules = synth(corpus_size=60)
        backend = mock_backend(rules, fail_after_generate_calls=4)
        out, trace = run_iteration(dataset, RunConfig(k=10), backend)
        assert out == dataset
        assert trace.error is not None
        assert trace.replaced_ids == []
        assert trace.objective_after == trace.objective_before

    def test_llm_calls_counted(self):
        dataset, rules = synth(corpus_size=60)
        backend = mock_backend(rules)
        _, trace = run_iteration(dataset, RunConfig(k=6), backend)
        assert trace.llm_calls["generate"] == 6 * 3
        # one verification per distinct candidate
        assert trace.llm_calls["verify"] <= trace.llm_calls["generate"]

    def test_parallel_jobs_match_serial(self):
        dataset, rules = synth(corpus_size=60)
        serial, serial_trace = run_iteration(dataset, RunConfig(k=6, jobs=1), mock_backend(rules))
        parallel, parallel_trace = run_iteration(dataset, RunConfig(k=6, jobs=4), mock_backend(rules))
        assert serial == parallel
        assert serial_trace.llm_calls == parallel_trace.llm_calls


class TestRunRazor:
    def test_zero_replacements_terminates_immediately(self):
        dataset, _ = synth(corpus_size=60)
        result = run_razor(dataset, RunConfig(k=5, max_iterations=5), noop_backend())
        assert len(result.traces) == 1
        assert result.stop_reason == STOP_NO_REPLACEMENTS
        assert result.dataset == dataset

    def test_huge_epsilon_stops_after_one_iteration(self):
        dataset, rules = synth(corpus_size=80)
        result = run_razor(dataset, RunConfig(k=8, epsilon=1e9), mock_backend(rules))
        assert len(result.traces) == 1
        assert result.stop_reason == STOP_CONVERGED

    def test_max_iterations_respected(self):
        dataset, rules = synth(corpus_size=200)
        result = run_razor(
            dataset, RunConfig(k=2, epsilon=1e-12, max_iterations=3), mock_backend(rules)
        )
        assert len(result.traces) == 3
        assert result.stop_reason == STOP_MAX_ITERATIONS

    def test_monotone_objective_over_run(self):
        dataset, rules = synth(corpus_size=200)
        result = run_razor(dataset, RunConfig(k=0.1), mock_backend(rules))
        for trace in result.traces:
            assert trace.objective_after >= trace.objective_before - 1e-9
        values = [result.traces[0].objective_before] + [
            t.objective_after for t in result.traces
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_size_and_label_multiset_preserved(self):
        dataset, rules = synth(corpus_size=150)
        result = run_razor(dataset, RunConfig(k=0.1), mock_backend(rules))
        assert len(result.dataset) == len(dataset)
        assert Counter(d.label for d in result.dataset) == Counter(d.label for d in dataset)

    def test_rejecting_verifier_keeps_everything(self):
        dataset, rules = synth(corpus_size=60)
        backend = MockBackend(rules["generation"], verdict="flip", seed=0)
        result = run_razor(dataset, RunConfig(k=6), backend)
        assert result.dataset == dataset
        assert result.stop_reason == STOP_NO_REPLACEMENTS

    def test_objective_undefined_aborts_with_diagnostic(self):
        from razor.errors import ObjectiveUndefinedError

        # class 0's only document embeds to the zero vector
        dataset = dataset_from(
            [("a", "a b", 0), ("b", "a b c d", 1), ("c", "a b e f", 1)]
        )
        with pytest.raises(ObjectiveUndefinedError):
            run_razor(dataset, RunConfig(k=1), noop_backend())

    def test_deterministic_under_seeded_mock(self, tmp_path):
        dataset, rules = synth(corpus_size=100)
        config = RunConfig(k=0.1)
        r1 = run_razor(dataset, config, mock_backend(rules))
        r2 = run_razor(dataset, config, mock_backend(rules))
        assert r1.dataset == r2.dataset
        p1, p2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        save_dataset(r1.dataset, p1)
        save_dataset(r2.dataset, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCheckpointResume:
    def test_checkpoint_layout(self, tmp_path):
        dataset, rules = synth(corpus_size=80)
        checkpoint = Checkpoint(tmp_path / "ckpt")
        result = run_razor(dataset, RunConfig(k=8, max_iterations=2), mock_backend(rules), checkpoint)
        assert (tmp_path / "ckpt" / "iteration_000.jsonl").exists()
        assert (tmp_path / "ckpt" / "iteration_001.jsonl").exists()
        assert (tmp_path / "ckpt" / "trace.json").exists()
        # final snapshot equals returned dataset
        last = checkpoint.completed_iterations()
        snap = load_dataset(checkpoint.snapshot_path(last), "single", dataset.label_names)
        assert snap == result.dataset

    def test_finished_checkpoint_short_circuits(self, tmp_path):
        dataset, rules = synth(corpus_size=60)
        checkpoint = Checkpoint(tmp_path / "ckpt")
        first = run_razor(dataset, RunConfig(k=6), mock_backend(rules), checkpoint)
        backend = mock_backend(rules)
        again = run_razor(dataset, RunConfig(k=6), backend, checkpoint)
        assert again.dataset == first.dataset
        assert again.stop_reason == first.stop_reason
        assert backend.calls.count() == 0

    def test_resume_after_abort_no_repeated_calls(self, tmp_path):
        dataset, rules = synth(corpus_size=100)
        config = RunConfig(k=10, max_iterations=10)

        straight = run_razor(dataset, config, mock_backend(rules))

        # abort partway through the first iteration's generation phase
        ckpt_dir = tmp_path / "ckpt"
        failing = mock_backend(rules, fail_after_generate_calls=12)
        with pytest.raises(BackendError):
            run_razor(dataset, config, failing, Checkpoint(ckpt_dir))
        journaled = RewriteJournal(Checkpoint(ckpt_dir).journal_path(1))
        done_before_abort = set(journaled._entries)
        assert done_before_abort  # some documents completed before the abort

        fresh = mock_backend(rules)
        resumed = run_razor(dataset, config, fresh, Checkpoint(ckpt_dir))
        assert resumed.dataset == straight.dataset
        # within the resumed iteration, journaled documents are replayed, not
        # re-queried: its generate calls shrink by exactly the journaled share
        saved = 3 * len(done_before_abort)
        assert resumed.traces[0].llm_calls["generate"] == (
            straight.traces[0].llm_calls["generate"] - saved
        )
        first_iter_gen = [d for role, d in fresh.calls.entries if role == "generate"]
        first_iter_gen = first_iter_gen[: resumed.traces[0].llm_calls["generate"]]
        assert not (set(first_iter_gen) & done_before_abort)

    def test_resume_mid_run_continues_iterations(self, tmp_path):
        dataset, rules = synth(corpus_size=120)
        full_config = RunConfig(k=6, epsilon=1e-12, max_iterations=4)
        straight = run_razor(dataset, full_config, mock_backend(rules))

        ckpt_dir = tmp_path / "ckpt"
        short_config = RunConfig(k=6, epsilon=1e-12, max_iterations=2)
        run_razor(dataset, short_config, mock_backend(rules), Checkpoint(ckpt_dir))
        resumed = run_razor(dataset, full_config, mock_backend(rules), Checkpoint(ckpt_dir))
        assert resumed.dataset == straight.dataset
        assert len(resumed.traces) == len(straight.traces)

    def test_resume_keeps_run_tokenizer(self, tmp_path):
        # capitalized first words are tokens of their own without lowercasing
        tokenizer = TokenizerConfig(lowercase=False)
        synthetic, rules = synth(corpus_size=200)
        dataset = synthetic.with_documents(
            make_document(d.id, d.mutable_text.capitalize(), d.label, config=tokenizer)
            for d in synthetic
        )
        config = RunConfig(k=10, epsilon=1e-12, max_iterations=4, tokenizer=tokenizer)
        straight = run_razor(dataset, config, mock_backend(rules))
        assert len(straight.traces) == 4

        # abort at the first generate call of iteration 3, then resume
        ckpt_dir = tmp_path / "ckpt"
        done = sum(t.llm_calls["generate"] for t in straight.traces[:2])
        with pytest.raises(BackendError):
            run_razor(dataset, config, mock_backend(rules, fail_after_generate_calls=done),
                      Checkpoint(ckpt_dir))
        assert Checkpoint(ckpt_dir).completed_iterations() == 2
        resumed = run_razor(dataset, config, mock_backend(rules), Checkpoint(ckpt_dir))

        assert resumed.dataset == straight.dataset
        assert [t.objective_after for t in resumed.traces] == [
            t.objective_after for t in straight.traces
        ]
        p1, p2 = tmp_path / "straight.jsonl", tmp_path / "resumed.jsonl"
        save_dataset(straight.dataset, p1)
        save_dataset(resumed.dataset, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_torn_final_journal_line_dropped(self, tmp_path, caplog):
        dataset, rules = synth(corpus_size=100)
        config = RunConfig(k=10, max_iterations=10)
        straight = run_razor(dataset, config, mock_backend(rules))

        ckpt_dir = tmp_path / "ckpt"
        with pytest.raises(BackendError):
            run_razor(dataset, config, mock_backend(rules, fail_after_generate_calls=12),
                      Checkpoint(ckpt_dir))
        journal_path = Checkpoint(ckpt_dir).journal_path(1)
        complete = len(RewriteJournal(journal_path)._entries)
        with open(journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"doc_id": "torn", "candid')

        with caplog.at_level("WARNING", logger="razor"):
            journal = RewriteJournal(journal_path)
        assert len(journal._entries) == complete and "torn" not in journal
        assert any("torn final line" in rec.message for rec in caplog.records)
        assert journal_path.read_text().endswith("}\n")

        resumed = run_razor(dataset, config, mock_backend(rules), Checkpoint(ckpt_dir))
        assert resumed.dataset == straight.dataset
        # the records written after the repair are whole lines again
        assert len(RewriteJournal(journal_path)._entries) == len(straight.traces[0].selected_ids)

    def test_malformed_inner_journal_line_is_data_error(self, tmp_path):
        path = tmp_path / "journal_001.jsonl"
        path.write_text(
            '{"doc_id": "a", "candidates": []}\n'
            'not json\n'
            '{"doc_id": "b", "candidates": []}\n'
        )
        with pytest.raises(DataError, match="line 2"):
            RewriteJournal(path)

    def test_mismatched_snapshot_rejected(self, tmp_path):
        dataset, rules = synth(corpus_size=200)
        config = RunConfig(k=10, epsilon=1e-12, max_iterations=2)
        checkpoint = Checkpoint(tmp_path / "ckpt")
        run_razor(dataset, RunConfig(k=10, epsilon=1e-12, max_iterations=1),
                  mock_backend(rules), checkpoint)
        snapshot = checkpoint.snapshot_path(1)
        lines = snapshot.read_text().splitlines(keepends=True)
        snapshot.write_text("".join(lines[:30]))
        with pytest.raises(DataError, match="does not match the input"):
            run_razor(dataset, config, mock_backend(rules), checkpoint)

        # same size, but the input's labels differ from the snapshot's
        snapshot.write_text("".join(lines))
        flipped = dataset.with_documents(
            replace(doc, label=1 - doc.label) if i == 0 else doc
            for i, doc in enumerate(dataset)
        )
        with pytest.raises(DataError, match="does not match the input"):
            run_razor(flipped, config, mock_backend(rules), checkpoint)


class TestIterationTraceSerialization:
    def test_round_trip(self):
        trace = IterationTrace(
            iteration=2,
            objective_before=1.5,
            objective_after=2.5,
            selected_ids=["a", "b"],
            replaced_ids=["a"],
            kept_ids=["b"],
            llm_calls={"generate": 6, "verify": 2},
            wall_time=0.25,
        )
        assert IterationTrace.from_dict(trace.to_dict()) == trace
