import json
import math
import random
import sys
import zlib
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from razor.backends import CallLog, MockBackend
from razor.corpus import make_document, replace_text, save_dataset
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
    decide_replacement,
    rank_and_select,
    read_trace_file,
    resolve_k,
    run_iteration,
    run_razor,
)
from razor import corpus, pipeline, rewriter, surface
from razor.rewriter import GeneratorConfig, RewriteCandidate
from razor.surface import (
    BLOCK_DOCS,
    ClassLedger,
    SurfaceSpace,
    _unit_rows,
    compute_embeddings,
    score_against,
    shortcut_scores,
)

from conftest import (
    FailOnGenerate,
    FailOnVerify,
    Recording,
    dataset_from,
    doc_frequency,
    embedding_matrix,
    scores_by_id,
)
from oracles import eager_replacement
from test_corpus import TRICKY_TEXTS


def synth(corpus_size=200, seed=7, **spec_kw):
    spec = BiasSpec("zonk", biased_class=1, bias_rate=0.9, background_rate=0.1,
                    corpus_size=corpus_size, seed=seed, **spec_kw)
    dataset, rules = generate_biased_corpus(spec)
    return dataset, rules


def mock_backend(rules):
    return MockBackend(rules["generation"], verdict=rules["verdict"], seed=rules["seed"])


def noop_backend():
    """Mock whose rewrites never change anything."""
    return MockBackend([], verdict="confirm")


def unasked():
    """The ask for a request the journal holds: calling it fails the test."""
    pytest.fail("the journal asked for a request it holds")


WRONG_TYPE = r"malformed journal record \(a field has the wrong type\)"


class Unanswered(Exception):
    pass


def unanswered():
    """The ask for a request the journal does not hold: it raises
    Unanswered, so the journal records nothing."""
    raise Unanswered


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

    def test_generator_must_be_a_generator_config(self):
        with pytest.raises(ConfigError, match="generator"):
            RunConfig(generator={"candidates_per_doc": 2})

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
        ranked, scores = shortcut_scores(space, ledger)
        selected = rank_and_select(space, ledger, 2)
        assert selected == ranked[:2].tolist()
        assert scores[0] >= scores[1] and scores[0] == scores.max()

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
        selected = [space.ids[i] for i in rank_and_select(space, ledger, 2)]
        # m and k share a score; k precedes m
        assert set(selected[:2]) <= {"k", "m", "q", "z"}
        scores = scores_by_id(space, ledger)
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
        assert sorted(selected) == [0, 1]
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
        backend = FailOnGenerate(mock_backend(rules), 2)
        out, trace = run_iteration(dataset, RunConfig(k=10), backend)
        assert out == dataset
        assert trace.error is not None
        assert trace.replaced_ids == []
        assert trace.objective_after == trace.objective_before

    def test_llm_calls_counted(self):
        dataset, rules = synth(corpus_size=60)
        backend = mock_backend(rules)
        _, trace = run_iteration(dataset, RunConfig(k=6), backend)
        assert trace.llm_calls["generate"] == 6  # one request per selected document
        # at most one verification per distinct candidate, of which a
        # request yields up to candidates_per_doc
        assert trace.llm_calls["verify"] <= 3 * trace.llm_calls["generate"]

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
        # the snapshots, applied to the input, give the returned dataset
        assert Checkpoint(tmp_path / "ckpt").load_state(dataset)[0] == result.dataset

    def test_commits_and_resumes_never_recheck_the_corpus(self, tmp_path, monkeypatch):
        """Each commit and each resumed snapshot patches the rows it
        replaces: neither a straight checkpointed run nor its resume builds a
        Dataset, whose checks read every document."""
        dataset, rules = synth(corpus_size=120)
        config = RunConfig(k=6, epsilon=1e-12, max_iterations=3)
        checks, post_init = [], corpus.Dataset.__post_init__
        monkeypatch.setattr(corpus.Dataset, "__post_init__",
                            lambda self: checks.append(len(self)) or post_init(self))
        straight = run_razor(dataset, config, mock_backend(rules), Checkpoint(tmp_path / "a"))
        run_razor(dataset, replace(config, max_iterations=2), mock_backend(rules),
                  Checkpoint(tmp_path / "b"))
        resumed = run_razor(dataset, config, mock_backend(rules), Checkpoint(tmp_path / "b"))
        assert len(straight.traces) == len(resumed.traces) == 3
        assert resumed.dataset == straight.dataset
        assert checks == []

    @pytest.mark.parametrize("name, value", [
        ("k", 7),
        ("lam", 32),
        ("generator.candidates_per_doc", 2),
        ("generator.temperature", 0.5),
        ("generator.top_p", 0.8),
        ("generator.verifier_temperature", 0.1),
        ("generator.backend", "http"),
        ("generator.model", "other"),
    ])
    def test_resume_refuses_a_changed_setting(self, tmp_path, name, value):
        """A resume whose run would make other requests or score otherwise
        than the checkpoint's is a ConfigError naming the field and both
        values, raised before any request and with no file changed."""
        dataset, rules = synth(corpus_size=100)
        config = RunConfig(k=6, epsilon=1e-12, max_iterations=1)
        checkpoint = Checkpoint(tmp_path / "ckpt")
        run_razor(dataset, config, mock_backend(rules), checkpoint)
        files = {path: path.read_bytes() for path in checkpoint.directory.iterdir()}
        section, _, field_name = name.rpartition(".")
        if section:
            old = getattr(config.generator, field_name)
            changed = replace(config, generator=replace(config.generator, **{field_name: value}))
        else:
            old, changed = getattr(config, name), replace(config, **{name: value})
        backend = Recording(mock_backend(rules))
        problem = rf"manifest\.json: the checkpoint's run has {name} {old!r}, this run {value!r}"
        with pytest.raises(ConfigError, match=problem):
            run_razor(dataset, replace(changed, max_iterations=3), backend, checkpoint)
        assert backend.entries == []
        assert {path: path.read_bytes() for path in checkpoint.directory.iterdir()} == files

    def test_finished_checkpoint_short_circuits(self, tmp_path):
        dataset, rules = synth(corpus_size=60)
        checkpoint = Checkpoint(tmp_path / "ckpt")
        first = run_razor(dataset, RunConfig(k=6), mock_backend(rules), checkpoint)
        backend = mock_backend(rules)
        again = run_razor(dataset, RunConfig(k=6), backend, checkpoint)
        assert again.dataset == first.dataset
        assert again.stop_reason == first.stop_reason
        assert backend.calls.count("generate") == backend.calls.count("verify") == 0

    def test_resume_after_abort_no_repeated_calls(self, tmp_path):
        dataset, rules = synth(corpus_size=100)
        config = RunConfig(k=10, max_iterations=10)

        straight = run_razor(dataset, config, mock_backend(rules))

        # abort partway through the first iteration's generation phase
        ckpt_dir = tmp_path / "ckpt"
        failing = FailOnGenerate(mock_backend(rules), 5)
        with pytest.raises(BackendError):
            run_razor(dataset, config, failing, Checkpoint(ckpt_dir))
        journaled = RewriteJournal(Checkpoint(ckpt_dir).journal_path(1))
        done_before_abort = set(journaled._entries)
        assert done_before_abort  # some documents completed before the abort

        fresh = Recording(mock_backend(rules))
        resumed = run_razor(dataset, config, fresh, Checkpoint(ckpt_dir))
        assert resumed.dataset == straight.dataset
        # within the resumed iteration, journaled documents are replayed, not
        # re-queried: its generate calls shrink by exactly the journaled share
        saved = len(done_before_abort)
        assert resumed.traces[0].llm_calls["generate"] == (
            straight.traces[0].llm_calls["generate"] - saved
        )
        first_iter_gen = [d for role, d in fresh.entries if role == "generate"]
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

    def test_torn_final_journal_line_dropped(self, tmp_path, caplog):
        dataset, rules = synth(corpus_size=100)
        config = RunConfig(k=10, max_iterations=10)
        straight = run_razor(dataset, config, mock_backend(rules))

        ckpt_dir = tmp_path / "ckpt"
        with pytest.raises(BackendError):
            run_razor(dataset, config, FailOnGenerate(mock_backend(rules), 5),
                      Checkpoint(ckpt_dir))
        journal_path = Checkpoint(ckpt_dir).journal_path(1)
        complete = len(RewriteJournal(journal_path)._entries)
        with open(journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"doc_id": "torn", "candid')

        with caplog.at_level("WARNING", logger="razor"):
            journal = RewriteJournal(journal_path)
        assert len(journal._entries) == complete
        with pytest.raises(Unanswered):
            journal.texts("torn", unanswered)
        assert any("torn final line" in rec.message for rec in caplog.records)
        assert journal_path.read_text().endswith("}\n")

        resumed = run_razor(dataset, config, mock_backend(rules), Checkpoint(ckpt_dir))
        assert resumed.dataset == straight.dataset
        # the records written after the repair are whole lines again
        assert len(RewriteJournal(journal_path)._entries) == len(straight.traces[0].selected_ids)

    @pytest.mark.parametrize("target", ["snapshot", "trace"])
    def test_failed_write_keeps_previous_state(self, tmp_path, monkeypatch, target):
        """A snapshot or trace write that raises part-way leaves the files it
        was replacing as they were, and the run resumes to the straight
        run's output and traces. Iteration 2's trace is written before its
        snapshot, so either failure leaves snapshots 0 and 1, and the resume
        redoes iteration 2 from its journal."""
        dataset, rules = synth(corpus_size=120)
        config = RunConfig(k=6, epsilon=1e-12, max_iterations=3)
        straight = run_razor(dataset, config, mock_backend(rules))
        ckpt = Checkpoint(tmp_path / "ckpt")
        # the writer's path argument, and which of its calls writes iteration 2
        name, arg, fail_at = {
            "snapshot": ("save_dataset", 1, 3),  # snapshots 0, 1, 2
            "trace": ("write_trace_file", 0, 2),  # traces of iterations 1, 2
        }[target]
        write, writes = getattr(pipeline, name), []

        def partial(*args):
            writes.append(args[arg])
            if len(writes) == fail_at:
                with open(args[arg], "w", encoding="utf-8") as fh:
                    fh.write('{"id": "torn", "te')
                raise OSError("disk full")
            return write(*args)

        monkeypatch.setattr(pipeline, name, partial)
        with pytest.raises(OSError, match="disk full"):
            run_razor(dataset, config, mock_backend(rules), ckpt)
        monkeypatch.undo()

        assert writes[-1].name.endswith(".tmp") and not writes[-1].exists()
        files = sorted(p.name for p in ckpt.directory.iterdir())
        snapshots = ["iteration_000.jsonl", "iteration_001.jsonl"]
        assert files == sorted(
            snapshots + ["journal_001.jsonl", "journal_002.jsonl", "manifest.json", "trace.json"]
        )
        traces, _ = read_trace_file(ckpt.trace_path)
        assert [t.iteration for t in traces] == ([1, 2] if target == "snapshot" else [1])
        # a temporary file left by a killed write is not a snapshot, nor is a
        # stray file whose name holds no iteration number
        (ckpt.directory / "iteration_009.jsonl.tmp").write_text('{"id": "torn", "te')
        (ckpt.directory / "iteration_x.jsonl").write_text('{"id": "stray"}\n')
        assert ckpt.completed_iterations() == len(snapshots) - 1

        resumed = run_razor(dataset, config, mock_backend(rules), ckpt)
        assert output_bytes(resumed.dataset, tmp_path / "resumed.jsonl") == output_bytes(
            straight.dataset, tmp_path / "straight.jsonl"
        )
        assert [t.iteration for t in resumed.traces] == [1, 2, 3]
        assert resumed.traces[1].llm_calls == {"generate": 0, "verify": 0}
        assert [t.objective_after for t in resumed.traces] == [
            t.objective_after for t in straight.traces
        ]

    def test_resume_from_indented_trace_file(self, tmp_path):
        """trace.json is written on one line; one written indented, as
        earlier versions wrote it, reads as the same traces, and a run
        resumes from it."""
        dataset, rules = synth(corpus_size=120)
        config = RunConfig(k=6, epsilon=1e-12, max_iterations=3)
        straight = run_razor(dataset, config, mock_backend(rules))
        ckpt = Checkpoint(tmp_path / "ckpt")
        run_razor(dataset, replace(config, max_iterations=2), mock_backend(rules), ckpt)
        text = ckpt.trace_path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        written = json.loads(text)
        ckpt.trace_path.write_text(json.dumps(written, indent=2) + "\n")
        traces, stop_reason = read_trace_file(ckpt.trace_path)
        assert [t.to_dict() for t in traces] == written["iterations"]
        assert stop_reason == written["stop_reason"] == "max-iterations"

        resumed = run_razor(dataset, config, mock_backend(rules), ckpt)
        assert resumed.dataset == straight.dataset
        assert [t.iteration for t in resumed.traces] == [1, 2, 3]
        assert resumed.traces[2].llm_calls == straight.traces[2].llm_calls
        assert json.loads(ckpt.trace_path.read_text())["iterations"][:2] == written["iterations"]

    def test_journal_keeps_one_handle_per_iteration(self, tmp_path, monkeypatch):
        dataset, rules = synth(corpus_size=100)
        opened = []
        real_open = open

        def counting_open(path, *args, **kwargs):
            if Path(path).name.startswith("journal_"):
                opened.append(str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        ckpt = Checkpoint(tmp_path / "ckpt")
        with pytest.raises(BackendError):
            run_razor(dataset, RunConfig(k=10), FailOnGenerate(mock_backend(rules), 6),
                      ckpt)
        result = run_razor(dataset, RunConfig(k=10, max_iterations=2), mock_backend(rules), ckpt)
        monkeypatch.undo()
        assert len(result.traces) == 2
        assert opened == [str(ckpt.journal_path(1)), str(ckpt.journal_path(1)),
                          str(ckpt.journal_path(2))]

    def test_journal_answers_what_it_holds(self, tmp_path):
        """Each request is asked once and recorded; a False verdict is an
        answer like any other; a reloaded journal answers the same."""
        path = tmp_path / "journal_001.jsonl"
        asked = []

        def ask(answer):
            return lambda: asked.append(answer) or answer

        with RewriteJournal(path) as journal:
            assert journal.texts("a", ask(["x", "y"])) == ["x", "y"]
            assert journal.verdict("a", "x", ask(False)) is False
            assert journal.texts("a", unasked) == ["x", "y"]
            assert journal.verdict("a", "x", unasked) is False
        assert asked == [["x", "y"], False]
        assert path.read_text().splitlines() == [
            '{"doc_id": "a", "texts": ["x", "y"]}',
            '{"doc_id": "a", "text": "x", "verified": false}',
        ]
        replayed = RewriteJournal(path)
        assert replayed.texts("a", unasked) == ["x", "y"]
        assert replayed.verdict("a", "x", unasked) is False
        with pytest.raises(Unanswered):
            replayed.verdict("a", "y", unanswered)

    def test_journal_without_a_file_formats_nothing(self, monkeypatch):
        """A journal without a path keeps its answers but formats no line."""
        quoted = []
        quote = json.encoder.encode_basestring_ascii
        monkeypatch.setattr(json.encoder, "encode_basestring_ascii",
                            lambda s: quoted.append(s) or quote(s))
        journal = RewriteJournal()
        assert journal.texts("a", lambda: ["x", "y"]) == ["x", "y"]
        assert journal.verdict("a", "x", lambda: True) is True
        assert journal.texts("a", unasked) == ["x", "y"]
        assert journal.verdict("a", "x", unasked) is True
        assert quoted == []

    def test_journal_lines_are_json_dumps_lines(self, tmp_path):
        """Each line :meth:`RewriteJournal.record` formats is the line
        ``json.dumps`` writes, for non-ASCII and astral text, quotes,
        backslashes, control characters, a lone surrogate and an empty
        ``texts`` list; a reloaded journal answers the same."""
        path = tmp_path / "journal_001.jsonl"
        texts = TRICKY_TEXTS + ["lone \ud800 surrogate", ""]
        rows = [{"doc_id": "empty", "texts": []}, {"doc_id": 'id "ü" \ud83d', "texts": texts}]
        rows += [
            {"doc_id": f"{text} {i}", "text": text, "verified": i % 2 == 0}
            for i, text in enumerate(texts)
        ]
        with RewriteJournal(path) as journal:
            for row in rows:
                if "texts" in row:
                    journal.texts(row["doc_id"], lambda: row["texts"])
                else:
                    journal.verdict(row["doc_id"], row["text"], lambda: row["verified"])
        assert path.read_text(encoding="utf-8") == "".join(json.dumps(row) + "\n" for row in rows)
        replayed = RewriteJournal(path)
        for row in rows:
            if "texts" in row:
                assert replayed.texts(row["doc_id"], unasked) == row["texts"]
            else:
                assert replayed.verdict(row["doc_id"], row["text"], unasked) is row["verified"]

    def test_malformed_inner_journal_line_is_data_error(self, tmp_path):
        path = tmp_path / "journal_001.jsonl"
        path.write_text(
            '{"doc_id": "a", "texts": []}\n'
            'not json\n'
            '{"doc_id": "b", "texts": []}\n'
        )
        with pytest.raises(DataError, match="line 2"):
            RewriteJournal(path)

    # a final line that ends in a newline was written whole: it is not torn
    @pytest.mark.parametrize("line, problem", [
        (b'{"doc_id": "\xe9", "texts": []}', "not UTF-8"),
        (b'{"doc_id": "b", "tex', "malformed JSON"),
        (b'{"texts": []}', r"malformed journal record \(no field 'doc_id'\)"),
        (b'{"doc_id": "b", "text": "x"}', r"malformed journal record \(no field 'verified'\)"),
        (b'{"doc_id": 1, "texts": []}', WRONG_TYPE),
        (b'{"doc_id": "b", "texts": [1]}', WRONG_TYPE),
        (b'{"doc_id": "b", "text": 1, "verified": true}', WRONG_TYPE),
        (b'{"doc_id": "b", "text": "x", "verified": 1}', WRONG_TYPE),
    ])
    def test_bad_whole_final_journal_line_is_data_error(self, tmp_path, line, problem):
        path = tmp_path / "journal_001.jsonl"
        path.write_bytes(b'{"doc_id": "a", "texts": []}\n' + line + b"\n")
        with pytest.raises(DataError, match=rf"journal_001\.jsonl: line 2: {problem}"):
            RewriteJournal(path)

    def test_record_without_its_newline_is_cut(self, tmp_path, caplog):
        path = tmp_path / "journal_001.jsonl"
        path.write_text('{"doc_id": "a", "texts": ["x"]}\n{"doc_id": "b", "texts": ["y"]}')
        with caplog.at_level("WARNING", logger="razor"):
            journal = RewriteJournal(path)
        assert journal.texts("a", unasked) == ["x"]
        with pytest.raises(Unanswered):
            journal.texts("b", unanswered)
        assert any("torn final line 2" in rec.message for rec in caplog.records)
        assert path.read_text() == '{"doc_id": "a", "texts": ["x"]}\n'

    def test_undecodable_torn_tail_is_cut(self, tmp_path, caplog):
        dataset, rules = synth(corpus_size=100)
        config = RunConfig(k=10, max_iterations=10)
        straight = run_razor(dataset, config, mock_backend(rules))

        ckpt_dir = tmp_path / "ckpt"
        with pytest.raises(BackendError):
            run_razor(dataset, config, FailOnGenerate(mock_backend(rules), 5),
                      Checkpoint(ckpt_dir))
        journal_path = Checkpoint(ckpt_dir).journal_path(1)
        whole = journal_path.read_bytes()
        with open(journal_path, "ab") as fh:
            fh.write(b'{"doc_id": "\xe9\xff')

        with caplog.at_level("WARNING", logger="razor"):
            RewriteJournal(journal_path)
        assert any("torn final line" in rec.message for rec in caplog.records)
        assert journal_path.read_bytes() == whole

        resumed = run_razor(dataset, config, mock_backend(rules), Checkpoint(ckpt_dir))
        assert output_bytes(resumed.dataset, tmp_path / "resumed.jsonl") == output_bytes(
            straight.dataset, tmp_path / "straight.jsonl"
        )

    def test_mismatched_snapshot_rejected(self, tmp_path):
        """Snapshot 0 cut short, a later snapshot cut short at a line boundary
        or inside a line, or an input whose label changed: each is a data
        error naming the file and the line or document."""
        dataset, rules = synth(corpus_size=200)
        config = RunConfig(k=10, epsilon=1e-12, max_iterations=2)
        checkpoint = Checkpoint(tmp_path / "ckpt")
        result = run_razor(dataset, RunConfig(k=10, epsilon=1e-12, max_iterations=1),
                           mock_backend(rules), checkpoint)
        replaced = result.traces[0].replaced_ids
        assert len(replaced) > 1
        first, later = checkpoint.snapshot_path(0), checkpoint.snapshot_path(1)
        whole = {path: path.read_bytes() for path in (first, later)}

        def rejected(path, data, match, input_dataset=dataset):
            path.write_bytes(data)
            with pytest.raises(DataError, match=match):
                run_razor(input_dataset, config, mock_backend(rules), checkpoint)
            path.write_bytes(whole[path])

        lines = whole[first].splitlines(keepends=True)
        rejected(first, b"".join(lines[:30]), r"iteration_000\.jsonl: line 31 does not match")
        lines = whole[later].splitlines(keepends=True)
        last_id = json.loads(lines[-1])["id"]
        rejected(later, b"".join(lines[:-1]),
                 rf"iteration_001\.jsonl: lacks document '{last_id}', which iteration 1 replaced")
        rejected(later, b"".join(lines)[:-5], r"iteration_001\.jsonl: line \d+: malformed JSON")
        flipped = replace(dataset, documents=tuple(
            replace(doc, label=1 - doc.label) if i == 0 else doc
            for i, doc in enumerate(dataset)
        ))
        rejected(first, whole[first], r"line 1 does not match the input", flipped)

    @pytest.mark.parametrize("edit", ["not-in-input", "out-of-order", "other-label"])
    def test_later_snapshot_must_fit_the_input(self, tmp_path, edit):
        dataset, rules = synth(corpus_size=100)
        checkpoint = Checkpoint(tmp_path / "ckpt")
        run_razor(dataset, RunConfig(k=10, epsilon=1e-12, max_iterations=1),
                  mock_backend(rules), checkpoint)
        path = checkpoint.snapshot_path(1)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) > 1
        if edit == "not-in-input":
            rows[0]["id"], problem = "nosuch", "document 'nosuch' is not in the input"
        elif edit == "out-of-order":
            rows[:2] = rows[1], rows[0]
            problem = f"document '{rows[1]['id']}' is out of the input's order"
        else:
            rows[0]["label"] = 1 - rows[0]["label"]
            problem = f"document '{rows[0]['id']}' does not match the input's label or context"
        path.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows))
        backend = Recording(mock_backend(rules))
        with pytest.raises(DataError, match=rf"iteration_001\.jsonl: {problem}"):
            run_razor(dataset, RunConfig(k=10, max_iterations=2), backend, checkpoint)
        assert backend.entries == []

    def test_edited_input_text_rejected_before_any_request(self, tmp_path):
        """A document no iteration replaced takes its text from the input, so
        an input edited since the run cannot resume."""
        dataset, rules = synth(corpus_size=200, seed=3)
        config = RunConfig(k=20, epsilon=1e-12, max_iterations=3)
        checkpoint = Checkpoint(tmp_path / "ckpt")
        result = run_razor(dataset, replace(config, max_iterations=2), mock_backend(rules),
                           checkpoint)
        replaced = {doc_id for t in result.traces for doc_id in t.replaced_ids}
        row = next(i for i, doc in enumerate(dataset) if doc.id not in replaced)
        doc = dataset.documents[row]
        edited = dataset.replacing({row: replace_text(doc, doc.mutable_text + " again")})
        backend = Recording(mock_backend(rules))
        with pytest.raises(DataError, match=rf"iteration_000\.jsonl: line {row + 1} does not match"):
            run_razor(edited, config, backend, checkpoint)
        assert backend.entries == []

    def test_checkpoint_of_full_snapshots_resumes(self, tmp_path, monkeypatch):
        """A checkpoint whose every snapshot is a full save of its dataset
        resumes to the straight run's bytes, and its first snapshot after the
        resume holds only the documents that iteration replaced."""
        dataset, rules = synth(corpus_size=150, seed=3)
        config = RunConfig(k=10, epsilon=1e-12, max_iterations=4)
        straight_ckpt = Checkpoint(tmp_path / "straight")
        straight = run_razor(dataset, config, mock_backend(rules), straight_ckpt)
        assert len(straight.traces) == 4

        written = {}
        write_snapshot = Checkpoint.write_snapshot

        def full(self, ds, iteration, replaced_ids=None):
            written[iteration] = ds
            write_snapshot(self, ds, iteration)

        monkeypatch.setattr(Checkpoint, "write_snapshot", full)
        ckpt = Checkpoint(tmp_path / "ckpt")
        run_razor(dataset, replace(config, max_iterations=2), mock_backend(rules), ckpt)
        monkeypatch.undo()
        for iteration, ds in written.items():
            save_dataset(ds, ckpt.snapshot_path(iteration))
        assert len(ckpt.snapshot_path(2).read_text().splitlines()) == len(dataset)

        resumed = run_razor(dataset, config, mock_backend(rules), ckpt)
        assert output_bytes(resumed.dataset, tmp_path / "resumed.jsonl") == output_bytes(
            straight.dataset, tmp_path / "straight.jsonl"
        )
        for iteration in (3, 4):
            assert (ckpt.snapshot_path(iteration).read_bytes()
                    == straight_ckpt.snapshot_path(iteration).read_bytes())

    def test_changed_context_rejected_before_any_request(self, tmp_path):
        rows = [(f"c{i}", f"claim {i} holds zonk", i % 2, f"evidence {i}") for i in range(8)]
        dataset = dataset_from(rows, schema="claim_evidence")
        checkpoint = Checkpoint(tmp_path / "ckpt")
        run_razor(dataset, RunConfig(k=2, max_iterations=1), noop_backend(), checkpoint)
        changed = replace(dataset, documents=tuple(
            replace(doc, context_text="other evidence") if i == 3 else doc
            for i, doc in enumerate(dataset)
        ))
        backend = Recording(noop_backend())
        with pytest.raises(DataError, match="does not match the input"):
            run_razor(changed, RunConfig(k=2, max_iterations=2), backend, checkpoint)
        assert backend.entries == []


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


def test_iteration_embeds_in_blocks(monkeypatch):
    """One iteration embeds its snapshot and then all its generated candidates
    BLOCK_DOCS at a time: an embedding call per document or per candidate
    would multiply this count."""
    sizes = []
    embed_block = surface._embed_block

    def counted(docs, *args, **kwargs):
        sizes.append(len(docs))
        return embed_block(docs, *args, **kwargs)

    monkeypatch.setattr(surface, "_embed_block", counted)
    n_docs, k = 2 * BLOCK_DOCS + 50, BLOCK_DOCS + 30
    ds = dataset_from([(f"d{i:04d}", f"word{i} shared text", i % 2) for i in range(n_docs)])
    # one new distinct candidate per document
    backend = MockBackend([{"pattern": "^", "replacement": "fresh "}])
    journal = RewriteJournal()
    _, trace = run_iteration(ds, RunConfig(k=k), backend, journal=journal)
    candidates = sum(len(journal.texts(doc_id, unasked)) for doc_id in trace.selected_ids)
    assert candidates == k
    assert len(sizes) == math.ceil(n_docs / BLOCK_DOCS) + math.ceil(candidates / BLOCK_DOCS)
    assert sum(sizes) == n_docs + candidates


def accepts(text: str) -> bool:
    """The verdict of ScriptedBackend's verifier on a candidate: fixed per
    text, and a rejection for about one text in three."""
    return zlib.crc32(text.encode("utf-8")) % 3 != 0


class ScriptedBackend:
    """A backend whose answers depend only on the request. The i-th of the
    n texts a request asks for drops "zonk" and the i-th word of the text;
    the verifier confirms the label of the candidates :func:`accepts`.
    ``asked`` lists every answered (role, doc id, prompt or candidate) in
    request order."""

    def __init__(self):
        self.calls = CallLog()
        self.asked = []

    def generate(self, prompt, doc, temperature, top_p, max_retries, n=None):
        self.calls.add("generate")
        self.asked.append(("generate", doc.id, prompt))
        words = [w for w in doc.mutable_text.split() if w != "zonk"]
        texts = [" ".join(words[:i] + words[i + 1 :]) for i in range(n or 1)]
        return texts[0] if n is None else texts

    def verify(self, prompt, candidate, doc, label_names, temperature, max_retries):
        self.calls.add("verify")
        self.asked.append(("verify", doc.id, candidate))
        return label_names[doc.label] if accepts(candidate) else "cannot tell"


# rules whose replacements the mock picks from, per request
CHOICE_RULES = [
    {"pattern": r"\s*\bzonk\b", "replacements": ["", " quite", " the"]},
    {"pattern": r"\bcarefully\b", "replacements": ["gently", "slowly", "early"]},
]


def choice_mock():
    return MockBackend(CHOICE_RULES, seed=3)


class AskedMock(MockBackend):
    """MockBackend with ``CHOICE_RULES``, listing its requests in ``asked``
    as ScriptedBackend does. Its verifier confirms only the candidates
    :func:`accepts`, so that the commit walk has candidates to verify."""

    def __init__(self):
        super().__init__(CHOICE_RULES, seed=3)
        self.asked = []

    def generate(self, prompt, doc, *args, **kwargs):
        self.asked.append(("generate", doc.id, prompt))
        return super().generate(prompt, doc, *args, **kwargs)

    def verify(self, prompt, candidate, doc, *args):
        self.asked.append(("verify", doc.id, candidate))
        answer = super().verify(prompt, candidate, doc, *args)
        return answer if accepts(candidate) else "cannot tell"


def output_bytes(dataset, path):
    save_dataset(dataset, path)
    return path.read_bytes()


class TestLazyVerification:
    def test_decision_matches_eager_rule(self):
        """Random candidates, some tied, some unscoreable, some with a verdict
        from a speculative pass: the commit walk picks the eager rule's
        winner, asks each candidate at most once, and never asks one whose
        verdict is known."""
        rng = np.random.default_rng(5)
        lam, n, decided = 8, 40, Counter()
        for trial in range(300):
            labels = rng.integers(0, 3, size=n)
            space = SurfaceSpace(
                (f"d{i}" for i in range(n)), labels, _unit_rows(rng.standard_normal((n, lam)))
            )
            ledger = ClassLedger(space)
            doc = make_document("d0", "some original text", int(labels[0]))
            opposite_sum, count = ledger.opposite(doc.label)
            units = rng.standard_normal((4, lam))
            units /= np.linalg.norm(units, axis=1, keepdims=True)
            # an unscoreable text is scored None and makes no candidate
            cands, scored, known = [], [], {}
            for j in range(int(rng.integers(0, 7))):
                text = f"t{trial}-{rng.integers(0, 1000)}-{j}"
                kind = rng.integers(0, 6)
                score = None
                if kind > 0:  # kinds 1-5 share four units, so scores tie
                    unit = space.units[0] if kind == 5 else units[kind - 1]
                    cands.append(RewriteCandidate(text, doc, unit))
                    score = score_against(unit, opposite_sum, count)
                scored.append((text, score))
                if rng.random() < 0.3:  # journaled by a speculative pass
                    known[text] = accepts(text)
            asked = []

            def confirms(cand):
                if cand.text in known:
                    return known[cand.text]
                asked.append(cand.text)
                return accepts(cand.text)

            chosen = decide_replacement(doc, cands, ledger, space.units[0], confirms)
            original = score_against(space.units[0], opposite_sum, count)
            winner, eager_calls = eager_replacement(scored, original, accepts)
            assert (None if chosen is None else chosen.text) == winner
            assert chosen is None or (accepts(chosen.text) and chosen in cands)
            assert len(asked) == len(set(asked)) and not set(asked) & set(known)
            assert len(asked) + len(known) <= eager_calls == len(scored)
            # asked: the improving candidates without a verdict, in (score,
            # text) order, up to the winner
            improving = sorted((score, text) for text, score in scored
                               if score is not None and score < original)
            order = [text for _, text in improving]
            reached = order if winner is None else order[: order.index(winner) + 1]
            assert asked == [text for text in reached if text not in known]
            decided[chosen is not None, bool(asked)] += 1
        # the trials reach every outcome, with and without verifier calls
        assert len(decided) == 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_pass_selects_once_per_document(self, monkeypatch, jobs):
        """The speculative pass and the commit walk each call
        select_replacement once per selected document, however many of its
        candidates the verifier rejects."""
        dataset, _ = synth(corpus_size=120)
        selected = []
        select = pipeline.select_replacement

        def counted(doc, *args):
            selected.append(doc.id)
            return select(doc, *args)

        monkeypatch.setattr(pipeline, "select_replacement", counted)
        backend = ScriptedBackend()
        _, trace = run_iteration(dataset, RunConfig(k=12, jobs=jobs), backend)
        ids = trace.selected_ids
        assert sorted(selected[: len(ids)]) == sorted(ids) and selected[len(ids) :] == ids
        # some document's walk went past a rejected candidate
        verified = [(doc_id, text) for role, doc_id, text in backend.asked if role == "verify"]
        assert len(verified) > len({doc_id for doc_id, _ in verified})
        assert any(not accepts(text) for _, text in verified)

    def straight_run(self, dataset, config, monkeypatch, checkpoint=None, make=ScriptedBackend):
        """A run through a backend ``make`` builds (ScriptedBackend by
        default), and the number of verify calls its first iteration made
        before the commit walk: the speculative pass."""
        backend = make()
        speculative = []
        decide = pipeline.decide_replacement

        def spy(*args):
            if not speculative:
                speculative.append(backend.calls.count("verify"))
            return decide(*args)

        monkeypatch.setattr(pipeline, "decide_replacement", spy)
        result = run_razor(dataset, config, backend, checkpoint)
        monkeypatch.undo()
        return result, backend, speculative[0]

    @pytest.mark.parametrize("phase", ["speculative", "commit"])
    def test_resume_after_verify_failure(self, tmp_path, monkeypatch, phase):
        dataset, _ = synth(corpus_size=120)
        config = RunConfig(k=12, epsilon=1e-12, max_iterations=3)
        straight, straight_backend, speculative = self.straight_run(dataset, config, monkeypatch)
        assert len(straight.traces) == 3 and straight.traces[0].replaced_ids
        first_verifies = straight.traces[0].llm_calls["verify"]
        # some first-iteration candidates are verified by each pass
        assert 2 <= speculative < first_verifies
        n = speculative // 2 + 1 if phase == "speculative" else speculative + 1

        ckpt = Checkpoint(tmp_path / "ckpt")
        failing = FailOnVerify(ScriptedBackend(), n)
        with pytest.raises(BackendError):
            run_razor(dataset, config, failing, ckpt)
        assert ckpt.completed_iterations() == 0
        resumed_backend = ScriptedBackend()
        resumed = run_razor(dataset, config, resumed_backend, ckpt)

        assert output_bytes(resumed.dataset, tmp_path / "resumed.jsonl") == output_bytes(
            straight.dataset, tmp_path / "straight.jsonl"
        )
        assert [t.objective_after for t in resumed.traces] == [
            t.objective_after for t in straight.traces
        ]
        # the aborted and the resumed run together asked exactly what the
        # straight run asked: nothing twice, nothing more
        assert resumed.traces[0].llm_calls == {"generate": 0, "verify": first_verifies - (n - 1)}
        assert Counter(failing.backend.asked) + Counter(resumed_backend.asked) == Counter(
            straight_backend.asked
        )

    # failure point; generate requests answered before a generate failure (None:
    # three into iteration 2); snapshots left by the abort; whether the last
    # journal record is then torn
    CRASHES = {
        "generate-1": ("generate", 1, 0, False),
        "generate-5": ("generate", 5, 0, False),
        "generate-iteration-2": ("generate", None, 1, False),
        "verify-speculative": ("speculative", None, 0, False),
        "verify-commit": ("commit", None, 0, False),
        "torn-generate": ("generate", 5, 0, True),
        "torn-verify": ("commit", None, 0, True),
        "snapshot": ("snapshot", None, 1, False),
    }

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("crash", sorted(CRASHES))
    def test_crash_and_resume_matrix(self, tmp_path, monkeypatch, crash, jobs):
        self.crash_and_resume(tmp_path, monkeypatch, crash, jobs, ScriptedBackend)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("crash", sorted(CRASHES))
    def test_crash_and_resume_matrix_with_mock(self, tmp_path, monkeypatch, crash, jobs):
        self.crash_and_resume(tmp_path, monkeypatch, crash, jobs, AskedMock)

    def crash_and_resume(self, tmp_path, monkeypatch, crash, jobs, make):
        """An abort anywhere, then a resume, through backends ``make`` builds:
        the output, every snapshot and the traces are the straight serial
        run's, and the two runs together ask the backend exactly what the
        straight run asks. The one exception is a journal record torn by the
        crash: its request is asked again. A failure comes after j generate
        requests, in iteration 1 or 2; at a verify request of the speculative
        pass or the commit walk; or in the snapshot write after iteration 2's
        trace is written."""
        dataset, _ = synth(corpus_size=120)
        config = RunConfig(k=12, epsilon=1e-12, max_iterations=3)
        point, j, done, torn = self.CRASHES[crash]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            straight_ckpt = Checkpoint(tmp_path / "straight")
            straight, straight_backend, speculative = self.straight_run(
                dataset, config, monkeypatch, straight_ckpt, make
            )
            assert len(straight.traces) == 3 and straight.traces[1].replaced_ids
            config = replace(config, jobs=jobs)
            ckpt = Checkpoint(tmp_path / "ckpt")
            backend = make()
            if point == "generate":
                if j is None:  # the fourth request of iteration 2
                    j = straight.traces[0].llm_calls["generate"] + 3
                failing = FailOnGenerate(backend, j + 1)
            elif point == "snapshot":
                failing = backend
                write_snapshot = Checkpoint.write_snapshot

                def fail_second(self, ds, iteration, replaced_ids=None):
                    if iteration == 2:
                        raise OSError("disk full")
                    write_snapshot(self, ds, iteration, replaced_ids)

                monkeypatch.setattr(Checkpoint, "write_snapshot", fail_second)
            else:
                n = speculative // 2 + 1 if point == "speculative" else speculative + 1
                failing = FailOnVerify(backend, n)
            with pytest.raises((BackendError, OSError)):
                run_razor(dataset, config, failing, ckpt)
            monkeypatch.undo()
            assert ckpt.completed_iterations() == done
            aborted = {t.iteration: t.llm_calls for t in read_trace_file(ckpt.trace_path)[0]}

            again = []  # the torn record's request
            if torn:
                path = ckpt.journal_path(done + 1)
                data = path.read_bytes()
                last = data.splitlines()[-1]
                path.write_bytes(data[: len(data) - 1 - len(last) // 2])
                row = json.loads(last)
                role, text = ("generate", None) if "texts" in row else ("verify", row["text"])
                again = [
                    a for a in backend.asked
                    if a[:2] == (role, row["doc_id"]) and text in (None, a[2])
                ]
                assert len(again) == 1

            resumed_backend = make()
            resumed = run_razor(dataset, config, resumed_backend, ckpt)
        finally:
            sys.setswitchinterval(interval)

        assert output_bytes(resumed.dataset, tmp_path / "resumed.jsonl") == output_bytes(
            straight.dataset, tmp_path / "straight.jsonl"
        )
        def snapshots(checkpoint):
            paths = sorted(checkpoint.directory.glob("iteration_*.jsonl"))
            return {path.name: path.read_bytes() for path in paths}

        assert snapshots(ckpt) == snapshots(straight_ckpt)

        def without_counts(path):
            traces, stop_reason = read_trace_file(path)
            kept = [{**t.to_dict(), "wall_time": None, "llm_calls": None} for t in traces]
            return kept, stop_reason

        assert without_counts(ckpt.trace_path) == without_counts(straight_ckpt.trace_path)
        # each iteration's requests: those of the run that finished it, plus
        # the aborted run's when the resume repeated it
        for resumed_trace, straight_trace in zip(resumed.traces, straight.traces):
            calls = Counter(resumed_trace.llm_calls)
            if resumed_trace.iteration > done:
                calls.update(aborted.get(resumed_trace.iteration, {}))
            if resumed_trace.iteration == done + 1:
                calls.subtract(role for role, *_ in again)
            assert calls == Counter(straight_trace.llm_calls)
        assert Counter(backend.asked) + Counter(resumed_backend.asked) == (
            Counter(straight_backend.asked) + Counter(again)
        )

    def test_journal_of_eager_verification_refused(self, tmp_path):
        """A journal line of the format no run writes any longer, which
        verified every candidate as it was generated, is a data error naming
        the journal and the line, raised before any request."""
        dataset, _ = synth(corpus_size=120)
        config = RunConfig(k=12, epsilon=1e-12, max_iterations=2)
        ckpt = Checkpoint(tmp_path / "ckpt")
        run_razor(dataset, replace(config, max_iterations=1), ScriptedBackend(), ckpt)
        doc_id = dataset.documents[0].id
        old = {"doc_id": doc_id, "candidates": [{"text": "some text", "verified": True}]}
        ckpt.snapshot_path(1).unlink()
        with open(ckpt.journal_path(1), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(old) + "\n")
        lines = len(ckpt.journal_path(1).read_text().splitlines())

        backend = ScriptedBackend()
        with pytest.raises(DataError, match=rf"journal_001\.jsonl: line {lines}: malformed "
                                            r"journal record \(no field 'text'\)"):
            run_razor(dataset, config, backend, ckpt)
        assert backend.asked == []

    @pytest.mark.parametrize("jobs", [2, 8])
    def test_parallel_run_with_one_candidate_matches_serial(self, tmp_path, jobs):
        """More workers than cores, switching threads often: the journal and
        the output are the serial run's."""
        dataset, rules = synth(corpus_size=150)
        generator = GeneratorConfig(candidates_per_doc=1)
        results, journals = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in (1, jobs):
                ckpt = Checkpoint(tmp_path / f"jobs{n}")
                config = RunConfig(k=10, epsilon=1e-12, max_iterations=3, jobs=n, generator=generator)
                results.append(run_razor(dataset, config, mock_backend(rules), ckpt))
                journals.append([
                    sorted(ckpt.journal_path(i).read_text().splitlines()) for i in (1, 2, 3)
                ])
        finally:
            sys.setswitchinterval(interval)
        serial, parallel = results
        assert serial.traces[0].replaced_ids and journals[0] == journals[1]
        assert output_bytes(serial.dataset, tmp_path / "serial.jsonl") == output_bytes(
            parallel.dataset, tmp_path / "parallel.jsonl"
        )
        for a, b in zip(serial.traces, parallel.traces):
            assert (a.objective_after, a.replaced_ids, a.llm_calls) == (
                b.objective_after, b.replaced_ids, b.llm_calls
            )

    def test_verdict_journaled_once_per_candidate(self, tmp_path):
        dataset, _ = synth(corpus_size=120)
        ckpt = Checkpoint(tmp_path / "ckpt")
        backend = ScriptedBackend()
        run_razor(dataset, RunConfig(k=12, epsilon=1e-12, max_iterations=1), backend, ckpt)
        rows = [json.loads(line) for line in ckpt.journal_path(1).read_text().splitlines()]
        generated = [r for r in rows if "texts" in r]
        verdicts = [(r["doc_id"], r["text"]) for r in rows if "verified" in r]
        asked = [(doc_id, text) for role, doc_id, text in backend.asked if role == "verify"]
        assert len(generated) == 12 and len(verdicts) == len(set(verdicts))
        assert verdicts == asked
        assert len(verdicts) < sum(len(r["texts"]) for r in generated)


class PhasedBackend:
    """Rewrites by iteration (``iteration`` is counted from outside, from
    the iteration before the run's first): in the first, every document
    loses "zonk"; from the second on, "foo" becomes "zonk". The verifier
    confirms every label. Generate calls past ``fail_after`` raise
    BackendError."""

    def __init__(self, fail_after=None, iteration=0):
        self.calls = CallLog()
        self.iteration = iteration
        self.fail_after = fail_after

    def generate(self, prompt, doc, temperature, top_p, max_retries, n=None):
        if self.fail_after is not None and self.calls.count("generate") >= self.fail_after:
            raise BackendError("injected failure")
        self.calls.add("generate")
        words = doc.mutable_text.split()
        if self.iteration == 1:
            text = " ".join(w for w in words if w != "zonk")
        else:
            text = " ".join("zonk" if w == "foo" else w for w in words)
        return text if n is None else [text] * n

    def verify(self, prompt, candidate, doc, label_names, temperature, max_retries):
        self.calls.add("verify")
        return label_names[doc.label]


def phased_corpus():
    """40 short documents; "zonk" in four of class 1, "foo" in six."""
    rng = random.Random(7)
    pool = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]
    rows = []
    for i in range(40):
        words = rng.choices(pool, k=rng.randint(4, 7))
        if i % 10 == 1:
            words.insert(rng.randint(0, len(words)), "zonk")
        if i % 7 == 0:
            words.insert(rng.randint(0, len(words)), "foo")
        rows.append((f"d{i:02d}", " ".join(words), i % 2))
    return dataset_from(rows)


def assert_stats_equal_fresh(stats, dataset):
    """``stats`` (read from a run's token table) against a fresh count of
    ``dataset``: the same df and bit-identical idf for every token the
    snapshot holds, the unseen idf log(n / 1) for every other token of the
    table, ids that spell the documents' tokens, and at each token position
    the count of its token in its document, as a fresh table and a
    per-document Counter have it."""
    fresh = surface.corpus_stats(dataset)
    assert doc_frequency(stats) == doc_frequency(fresh)
    n = len(dataset)
    for token, i in stats.vocab.items():
        if token in fresh.vocab:
            assert stats.idf[i] == fresh.idf[fresh.vocab[token]]
        else:
            assert stats.df[i] == 0 and stats.idf[i] == math.log(n / 1)
    names = list(stats.vocab)
    for doc, start, stop in zip(dataset, stats.offsets[:-1], stats.offsets[1:]):
        assert [names[t] for t in stats.ids[start:stop]] == list(doc.tokens)
        per_doc = Counter(doc.tokens)
        assert stats.counts[start:stop].tolist() == [per_doc[t] for t in doc.tokens]
    assert stats.counts.dtype == np.int32
    np.testing.assert_array_equal(stats.counts, fresh.counts)
    return fresh


class TestTokenTable:
    def test_table_follows_every_snapshot_across_a_resume(self, tmp_path, monkeypatch):
        """Each iteration's stats, read from the run's one token table, equal
        a fresh count of its snapshot, and candidates embedded against them
        get the bits of the fresh stats: "zonk" is removed everywhere in
        iteration 1 (df 0) and candidates bring it back later, where it must
        score as an unseen token (df 1)."""
        dataset = phased_corpus()
        config = RunConfig(k=40, epsilon=1e-12, max_iterations=4)
        backends, checked = [], []
        zonk_df, zonk_candidates = {}, set()
        corpus_stats, surface_embedding = pipeline.corpus_stats, rewriter.surface_embedding

        def checked_stats(ds, table=None):
            backend = backends[-1]
            backend.iteration += 1  # one call per iteration
            stats = corpus_stats(ds, table)
            assert_stats_equal_fresh(stats, ds)
            checked.append(backend.iteration)
            if "zonk" in stats.vocab:
                zonk_df[backend.iteration] = int(stats.df[stats.vocab["zonk"]])
            return stats

        def checked_units(docs, stats, lam):
            units = surface_embedding(docs, stats, lam)
            fresh = surface.corpus_stats(replace(dataset, documents=stats.documents))
            np.testing.assert_array_equal(units, surface_embedding(docs, fresh, lam))
            if any("zonk" in d.tokens for d in docs):
                zonk_candidates.add(backends[-1].iteration)
            return units

        monkeypatch.setattr(pipeline, "corpus_stats", checked_stats)
        monkeypatch.setattr(rewriter, "surface_embedding", checked_units)
        backends.append(PhasedBackend())
        straight = run_razor(dataset, config, backends[-1])
        assert zonk_df[1] > 0 and zonk_df[2] == 0 and 2 in zonk_candidates
        assert zonk_df[3] > 0  # brought back by iteration 2's winners

        checked.clear()
        ckpt = Checkpoint(tmp_path / "ckpt")
        generated = [t.llm_calls["generate"] for t in straight.traces]
        backends.append(PhasedBackend(fail_after=sum(generated[:2]) + 1))
        with pytest.raises(BackendError):
            run_razor(dataset, config, backends[-1], ckpt)
        backends.append(PhasedBackend(iteration=ckpt.completed_iterations()))
        resumed = run_razor(dataset, config, backends[-1], ckpt)
        assert checked == [1, 2, 3, 3]  # the resume rebuilds the table from snapshot 2
        assert resumed.dataset == straight.dataset
        assert [t.objective_after for t in resumed.traces] == [
            t.objective_after for t in straight.traces
        ]

    def test_update_moves_df_by_exact_deltas(self):
        """Replacing documents across blocks: removing a token entirely,
        bringing it back, adding new tokens and changing lengths; then moving
        the table to a smaller dataset and back, where it restarts from n
        empty documents and keeps tokens no document holds at df 0."""
        rows = [(f"d{i:04d}", f"common w{i % 11} w{i % 7} w{i % 3}", i % 2)
                for i in range(2 * BLOCK_DOCS + 40)]
        rows[BLOCK_DOCS + 3] = ("rare", "common rareword w1", 1)
        dataset = dataset_from(rows)
        table = surface.TokenTable()
        docs = list(dataset)
        edits = [
            {},
            {BLOCK_DOCS + 3: "common w1 w2 w3 w4 w5", 0: "brand new words here", 5: "common"},
            {7: "rareword common rareword", 2 * BLOCK_DOCS + 39: "w1 w1 w1 w1 newer"},
            {},
            {7: "common w2", 300: "common w2 w2 w2 w2 w2 w2 w2 w2 w2 w2 w2 w2"},
        ]
        smaller = BLOCK_DOCS + 10
        steps = [(len(docs), edit) for edit in edits]
        steps += [(smaller, {}), (smaller, {3: "common newest"}), (len(docs), {4: "common w4"})]
        for stamp, (size, edit) in enumerate(steps):
            for row, text in edit.items():
                docs[row] = make_document(docs[row].id, text, docs[row].label)
            snapshot = replace(dataset, documents=tuple(docs[:size]))
            stats = surface.corpus_stats(snapshot, table)
            fresh = assert_stats_equal_fresh(stats, snapshot)
            np.testing.assert_array_equal(
                embedding_matrix(snapshot, stats, 16), embedding_matrix(snapshot, fresh, 16)
            )
            if stamp == 1:
                assert stats.df[stats.vocab["rareword"]] == 0
                novel = [make_document("c", "rareword common w1", 1)]
                units = surface.surface_embedding(novel, stats, 16)
                assert units.any()
                np.testing.assert_array_equal(units, surface.surface_embedding(novel, fresh, 16))
            if size == smaller:
                # "newer" is only in the last row, "brand" only in row 0
                assert stats.df[stats.vocab["newer"]] == 0 and "newer" not in fresh.vocab
                assert stats.df[stats.vocab["brand"]] == 1


class TestIncrementalCounts:
    """Gate on counts, not wall time: after the first iteration, the run
    maps only the tokens of the documents the last iteration replaced, and
    each snapshot formats only those documents' lines."""

    def test_iteration_maps_and_writes_only_replaced_documents(self, tmp_path, monkeypatch):
        spec = BiasSpec("zönk", biased_class=1, bias_rate=0.9, background_rate=0.1,
                        corpus_size=300, seed=3)
        dataset, rules = generate_biased_corpus(spec)
        mapped, formatted, snapshots, inside = {}, [], {}, []
        stamp = [0]

        def counting_ids(docs, vocab):
            if inside:
                mapped[stamp[0]] = mapped.get(stamp[0], 0) + sum(len(d.tokens) for d in docs)
            return token_ids(docs, vocab)

        def measured(fn):
            def call(ds, *args, **kwargs):
                inside.append(fn)
                try:
                    return fn(ds, *args, **kwargs)
                finally:
                    inside.pop()
            return call

        def stats_of(ds, table=None):
            stamp[0] += 1  # one call per iteration
            snapshots[stamp[0]] = ds
            return corpus_stats(ds, table)

        def counting_format(schema):
            fmt, ids = line_format(schema), []
            formatted.append(ids)
            return lambda doc: ids.append(doc.id) or fmt(doc)

        token_ids, line_format = surface._token_ids, corpus._line_format
        corpus_stats = pipeline.corpus_stats
        monkeypatch.setattr(surface, "_token_ids", counting_ids)
        monkeypatch.setattr(pipeline, "corpus_stats", measured(stats_of))
        monkeypatch.setattr(pipeline, "compute_embeddings", measured(pipeline.compute_embeddings))
        monkeypatch.setattr(corpus, "_line_format", counting_format)
        config = RunConfig(k=20, epsilon=1e-12, max_iterations=4)
        result = run_razor(dataset, config, mock_backend(rules), Checkpoint(tmp_path / "ckpt"))
        monkeypatch.undo()

        assert len(result.traces) == 4
        assert mapped[1] == sum(len(d.tokens) for d in dataset)
        assert formatted[0] == [d.id for d in dataset]
        for trace in result.traces[:-1]:
            later = snapshots[trace.iteration + 1]
            replaced = [d for d in later if d.id in trace.replaced_ids]
            assert replaced
            assert mapped.get(trace.iteration + 1, 0) == sum(len(d.tokens) for d in replaced)
        for trace, ids in zip(result.traces, formatted[1:]):
            assert ids == [d.id for d in dataset if d.id in trace.replaced_ids]

    def test_iteration_counts_terms_only_where_the_table_changed(self, monkeypatch):
        """The term counts (``np.unique`` over (document, token) keys) of an
        iteration cover the tokens its table update moves, every token at
        the first build and the replaced documents' old and new tokens
        after it, and the tokens of its rewrite candidates: embedding a
        snapshot reads the table's counts."""
        dataset, rules = synth(corpus_size=300, seed=3)
        counted, expected, snapshots = Counter(), Counter(), {}
        stamp = [0]

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def unique(self, keys, **kwargs):
                counted[stamp[0]] += len(keys)
                return np.unique(keys, **kwargs)

        def stats_of(ds, table=None):
            stamp[0] += 1  # one call per iteration
            snapshots[stamp[0]] = ds.documents
            return corpus_stats(ds, table)

        def units_of(docs, stats, lam):
            expected[stamp[0]] += sum(len(d.tokens) for d in docs)
            return surface_embedding(docs, stats, lam)

        corpus_stats, surface_embedding = pipeline.corpus_stats, rewriter.surface_embedding
        monkeypatch.setattr(surface, "np", CountingNumpy())
        monkeypatch.setattr(pipeline, "corpus_stats", stats_of)
        monkeypatch.setattr(rewriter, "surface_embedding", units_of)
        config = RunConfig(k=20, epsilon=1e-12, max_iterations=3)
        result = run_razor(dataset, config, mock_backend(rules))
        monkeypatch.undo()

        assert len(result.traces) == 3
        expected[1] += sum(len(d.tokens) for d in dataset)
        for trace in result.traces[:-1]:
            before, after = snapshots[trace.iteration], snapshots[trace.iteration + 1]
            rows = [i for i, doc in enumerate(before) if doc.id in trace.replaced_ids]
            assert rows
            expected[trace.iteration + 1] += sum(
                len(before[i].tokens) + len(after[i].tokens) for i in rows
            )
        assert counted == expected

    def test_snapshots_equal_full_saves_across_a_resume(self, tmp_path, monkeypatch):
        """Snapshot 0 is a full save of the input; snapshots 0..i applied to
        the input give iteration i's dataset; each later snapshot formats
        only the documents its iteration replaced, the first one after a
        resume too, and holds their lines as a full save writes them."""
        spec = BiasSpec("zönk", biased_class=1, bias_rate=0.9, background_rate=0.1,
                        corpus_size=200, seed=5)
        dataset, rules = generate_biased_corpus(spec)
        written, formatted = {}, []
        write_snapshot, line_format = Checkpoint.write_snapshot, corpus._line_format

        def recording(self, ds, iteration, replaced_ids=None):
            written[iteration] = ds
            write_snapshot(self, ds, iteration, replaced_ids)

        def counting_format(schema):
            fmt, ids = line_format(schema), []
            formatted.append(ids)
            return lambda doc: ids.append(doc.id) or fmt(doc)

        monkeypatch.setattr(Checkpoint, "write_snapshot", recording)
        monkeypatch.setattr(corpus, "_line_format", counting_format)
        ckpt = Checkpoint(tmp_path / "ckpt")
        run_razor(dataset, RunConfig(k=10, epsilon=1e-12, max_iterations=2), mock_backend(rules),
                  ckpt)
        result = run_razor(dataset, RunConfig(k=10, epsilon=1e-12, max_iterations=4),
                           mock_backend(rules), ckpt)
        monkeypatch.undo()

        assert sorted(written) == [0, 1, 2, 3, 4] and len(result.traces) == 4
        # the writes of snapshots 0, 1 and 2, the resume's byte check of
        # snapshot 0 against the input, and the writes of snapshots 3 and 4
        assert [len(ids) for ids in formatted[::3]] == [len(dataset)] * 2
        ids = formatted[1:3] + formatted[4:]
        for trace, formatted_ids in zip(result.traces, ids):
            assert formatted_ids == [d.id for d in dataset if d.id in trace.replaced_ids]
        assert ckpt.snapshot_path(0).read_bytes() == output_bytes(dataset, tmp_path / "full.jsonl")
        current = list(dataset.documents)
        rows = {doc.id: row for row, doc in enumerate(dataset)}
        for trace in result.traces:
            path = ckpt.snapshot_path(trace.iteration)
            for doc in corpus.read_documents(path, "single"):
                current[rows[doc.id]] = doc
            ds = written[trace.iteration]
            assert current == list(ds.documents)
            lines = output_bytes(ds, tmp_path / "full.jsonl").splitlines(keepends=True)
            changed = sorted(rows[doc_id] for doc_id in trace.replaced_ids)
            assert path.read_bytes() == b"".join(lines[row] for row in changed)


class TestSnapshotIsItsTrace:
    """Snapshot i >= 1 holds the documents ``traces[i-1].replaced_ids``
    names, in input-row order, with the bytes ``save_dataset`` writes for
    them given those ids: after a straight run, an abort-and-resume and a
    resume from full snapshots alike."""

    CONFIG = RunConfig(k=20, epsilon=1e-12, max_iterations=4)

    def straight_run(self, dataset, tmp_path, monkeypatch):
        """The straight run's checkpoint and the dataset each iteration made."""
        datasets = {}

        def recording(ds, config, backend, iteration, *args):
            datasets[iteration], trace = run_iteration(ds, config, backend, iteration, *args)
            return datasets[iteration], trace

        run_iteration = pipeline.run_iteration
        monkeypatch.setattr(pipeline, "run_iteration", recording)
        ckpt = Checkpoint(tmp_path / "straight")
        result = run_razor(dataset, self.CONFIG, choice_mock(), ckpt)
        monkeypatch.undo()
        assert len(result.traces) == 4 and all(t.replaced_ids for t in result.traces)
        return ckpt, datasets

    def assert_snapshots_are_traces(self, ckpt, dataset, datasets, tmp_path, first=1):
        traces, _ = read_trace_file(ckpt.trace_path)
        assert [t.iteration for t in traces] == [1, 2, 3, 4]
        rows = {doc.id: row for row, doc in enumerate(dataset)}
        for trace in traces[first - 1:]:
            path = ckpt.snapshot_path(trace.iteration)
            ids = [doc.id for doc in corpus.read_documents(path, "single")]
            assert ids == sorted(trace.replaced_ids, key=rows.__getitem__)
            save_dataset(datasets[trace.iteration], tmp_path / "ids.jsonl", trace.replaced_ids)
            assert path.read_bytes() == (tmp_path / "ids.jsonl").read_bytes()

    def test_straight_run(self, tmp_path, monkeypatch):
        dataset, _ = synth(corpus_size=200, seed=3)
        ckpt, datasets = self.straight_run(dataset, tmp_path, monkeypatch)
        self.assert_snapshots_are_traces(ckpt, dataset, datasets, tmp_path)

    def test_abort_and_resume(self, tmp_path, monkeypatch):
        dataset, _ = synth(corpus_size=200, seed=3)
        _, datasets = self.straight_run(dataset, tmp_path, monkeypatch)
        ckpt = Checkpoint(tmp_path / "ckpt")
        with pytest.raises(BackendError):
            run_razor(dataset, self.CONFIG, FailOnGenerate(choice_mock(), 31), ckpt)
        assert ckpt.completed_iterations() == 1
        run_razor(dataset, self.CONFIG, choice_mock(), ckpt)
        self.assert_snapshots_are_traces(ckpt, dataset, datasets, tmp_path)

    def test_resume_from_full_snapshots(self, tmp_path, monkeypatch):
        dataset, _ = synth(corpus_size=200, seed=3)
        _, datasets = self.straight_run(dataset, tmp_path, monkeypatch)
        ckpt = Checkpoint(tmp_path / "ckpt")
        run_razor(dataset, replace(self.CONFIG, max_iterations=2), choice_mock(), ckpt)
        for iteration in (1, 2):
            save_dataset(datasets[iteration], ckpt.snapshot_path(iteration))
        run_razor(dataset, self.CONFIG, choice_mock(), ckpt)
        self.assert_snapshots_are_traces(ckpt, dataset, datasets, tmp_path, first=3)


class TestRequestPureMock:
    """MockBackend answers from the request alone, so neither the order of
    requests nor the requests a journal answers change a run."""

    def test_jobs_give_the_serial_bytes(self, tmp_path):
        dataset, _ = synth(corpus_size=600)
        config = RunConfig(k=0.3, epsilon=1e-12, max_iterations=3)
        serial = run_razor(dataset, config, choice_mock())
        expected = output_bytes(serial.dataset, tmp_path / "serial.jsonl")
        assert serial.traces[-1].replaced_ids
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for attempt in range(3):
                result = run_razor(dataset, replace(config, jobs=2), choice_mock())
                path = tmp_path / f"jobs2-{attempt}.jsonl"
                assert output_bytes(result.dataset, path) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_abort_and_resume_give_the_straight_bytes(self, tmp_path):
        dataset, _ = synth(corpus_size=200, seed=3)
        config = RunConfig(k=20, epsilon=1e-12, max_iterations=3)
        straight = run_razor(dataset, config, choice_mock())
        ckpt = Checkpoint(tmp_path / "ckpt")
        with pytest.raises(BackendError):
            run_razor(dataset, config, FailOnGenerate(choice_mock(), 31), ckpt)
        assert ckpt.completed_iterations() == 1
        resumed = run_razor(dataset, config, choice_mock(), ckpt)
        assert output_bytes(resumed.dataset, tmp_path / "resumed.jsonl") == output_bytes(
            straight.dataset, tmp_path / "straight.jsonl"
        )
