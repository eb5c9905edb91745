import json
import re
import runpy
import shlex
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from razor import cli
from razor.cli import main
from razor.corpus import load_dataset
from razor.pipeline import RunConfig, read_trace_file
from razor.surface import _unit_rows, compute_embeddings

from conftest import FailOnGenerate, dataset_from
from razor.corpus import save_dataset


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


SINGLE_ROWS = [
    {"id": f"d{i}", "text": f"sample number {i} with words token{i % 4}", "label": i % 2}
    for i in range(12)
]


@pytest.fixture
def single_file(tmp_path):
    path = tmp_path / "data.jsonl"
    write_jsonl(path, SINGLE_ROWS)
    return path


@pytest.fixture
def synth_run(tmp_path):
    """A synth corpus + rules, via the CLI itself."""
    corpus = tmp_path / "corpus.jsonl"
    rules = tmp_path / "rules.json"
    code = main(
        [
            "synth",
            "--planted-token", "zonk",
            "--bias-rate", "0.9",
            "--background-rate", "0.1",
            "--corpus-size", "400",
            "--seed", "7",
            "--out-corpus", str(corpus),
            "--out-rules", str(rules),
        ]
    )
    assert code == 0
    return corpus, rules


class TestAnalyze:
    def test_ranking_rows_written(self, single_file, tmp_path, capsys):
        out = tmp_path / "ranking.jsonl"
        code = main(["analyze", "--input", str(single_file), "--out", str(out)])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 12
        scores = [r["score"] for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_top_rows_to_stdout(self, single_file, capsys):
        code = main(["analyze", "--input", str(single_file), "--top", "5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert {"id", "label", "score"} <= set(json.loads(lines[0]))

    def test_every_row_to_stdout_without_out_or_top(self, single_file, capsys):
        assert main(["analyze", "--input", str(single_file)]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert sorted(row["id"] for row in rows) == sorted(row["id"] for row in SINGLE_ROWS)

    def test_class_without_scoreable_documents_exits_2(self, tmp_path, capsys):
        path = tmp_path / "short.jsonl"
        write_jsonl(path, [
            {"id": "a", "text": "two tokens", "label": 0},
            {"id": "b", "text": "more tokens here", "label": 0},
            {"id": "c", "text": "one", "label": 1},
        ])
        assert main(["analyze", "--input", str(path)]) == 2
        assert capsys.readouterr().err.strip().splitlines()[-1] == (
            "razor: error: class 1 has no non-zero surface embeddings; objective undefined"
        )

    def test_single_label_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [{"id": "a", "text": "one text here", "label": 0}])
        code = main(["analyze", "--input", str(path)])
        assert code == 2
        assert "label" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["analyze", "--input", str(tmp_path / "nope.jsonl")])
        assert code == 2

    def test_embeddings_export(self, single_file, tmp_path):
        lines = single_file.read_text().splitlines(keepends=True)
        lines.insert(5, json.dumps({"id": "short", "text": "alone", "label": 1}) + "\n")
        single_file.write_text("".join(lines))
        out = tmp_path / "emb.jsonl"
        code = main(
            ["analyze", "--input", str(single_file), "--embeddings-out", str(out), "--top", "0"]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 12
        assert len(rows[0]["vector"]) == 64
        # a 1-token document has no embedding to export
        dataset = load_dataset(single_file, "single")
        assert [r["id"] for r in rows] == [d.id for d in dataset if d.id != "short"]
        space = compute_embeddings(dataset)
        np.testing.assert_array_equal(
            _unit_rows(np.array([r["vector"] for r in rows])),
            space.units[np.array([len(d.tokens) >= 2 for d in dataset])],
        )


class TestRun:
    def test_synth_plus_mock_reduces_gap(self, synth_run, tmp_path, capsys):
        corpus, rules = synth_run
        out = tmp_path / "debiased.jsonl"
        report_path = tmp_path / "report.json"
        code = main(
            [
                "run",
                "--input", str(corpus),
                "--rules", str(rules),
                "--backend", "mock",
                "--out", str(out),
                "--report", str(report_path),
                "--terms", "zonk",
                "--checkpoint-dir", str(tmp_path / "ckpt"),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["stop_reason"] in ("converged", "no-replacements", "max-iterations")
        report = json.loads(report_path.read_text())
        gap = report["frequency_gaps"]["zonk"]
        assert gap["after"] < gap["before"] * 0.5
        final = load_dataset(out, "single")
        assert len(final) == 400

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_rewrite_with_a_lone_surrogate_is_dropped(
        self, checkpoint, synth_run, tmp_path, monkeypatch
    ):
        """A rewrite holding "\\ud800" (valid JSON, but no UTF-8 file can
        hold it) makes no candidate: the run keeps the documents, and a
        resume replays the journaled answer to the same end."""
        corpus, _ = synth_run
        rules = tmp_path / "surrogate.json"
        rule = {"pattern": "zonk", "replacement": "w\ud800"}
        rules.write_text(json.dumps({"generation": [rule]}))
        out = tmp_path / "out.jsonl"
        argv = ["run", "--input", str(corpus), "--rules", str(rules), "--out", str(out)]
        if checkpoint:
            ckpt = tmp_path / "ckpt"
            argv += ["--checkpoint-dir", str(ckpt)]
            make_backend = cli._make_backend
            monkeypatch.setattr(
                cli, "_make_backend", lambda *args: FailOnGenerate(make_backend(*args), 6)
            )
            assert main(argv) == 3
            assert "\\ud800" in (ckpt / "journal_001.jsonl").read_text()
            monkeypatch.undo()
        assert main(argv) == 0
        assert out.read_bytes() == corpus.read_bytes()

    def test_report_path_without_json_suffix_gets_csv_appended(self, synth_run, tmp_path):
        corpus, rules = synth_run
        report = tmp_path / "r.out"
        argv = ["run", "--input", str(corpus), "--rules", str(rules),
                "--out", str(tmp_path / "out.jsonl"), "--report", str(report)]
        assert main(argv) == 0
        assert json.loads(report.read_text())["rewritten_count"] > 0
        assert (tmp_path / "r.out.csv").read_text().startswith("section,key,class,")

    def test_missing_api_key_with_http_backend(self, single_file, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("RAZOR_API_KEY", raising=False)
        monkeypatch.setenv("RAZOR_API_BASE", "http://127.0.0.1:9/v1/chat/completions")
        code = main(
            [
                "run",
                "--input", str(single_file),
                "--backend", "http",
                "--model", "m",
                "--out", str(tmp_path / "out.jsonl"),
            ]
        )
        assert code == 1
        assert "RAZOR_API_KEY" in capsys.readouterr().err

    def test_mock_without_rules_is_usage_error(self, single_file, tmp_path):
        code = main(
            ["run", "--input", str(single_file), "--backend", "mock", "--out", str(tmp_path / "o")]
        )
        assert code == 1

    def test_http_without_model_is_usage_error(self, single_file, tmp_path, monkeypatch):
        monkeypatch.setenv("RAZOR_API_KEY", "k")
        monkeypatch.setenv("RAZOR_API_BASE", "http://127.0.0.1:9/chat")
        code = main(
            ["run", "--input", str(single_file), "--backend", "http", "--out", str(tmp_path / "o")]
        )
        assert code == 1

    def test_backend_abort_exits_3_with_checkpoint(self, synth_run, tmp_path, monkeypatch):
        corpus, rules = synth_run
        make_backend = cli._make_backend
        monkeypatch.setattr(
            cli, "_make_backend", lambda *args: FailOnGenerate(make_backend(*args), 6)
        )
        ckpt = tmp_path / "ckpt3"
        code = main(
            [
                "run",
                "--input", str(corpus),
                "--rules", str(rules),
                "--out", str(tmp_path / "out.jsonl"),
                "--checkpoint-dir", str(ckpt),
            ]
        )
        assert code == 3
        assert (ckpt / "iteration_000.jsonl").exists()
        assert (ckpt / "journal_001.jsonl").exists()
        monkeypatch.undo()

        # resume with a working backend completes from the checkpoint
        code = main(
            [
                "run",
                "--input", str(corpus),
                "--rules", str(rules),
                "--out", str(tmp_path / "out.jsonl"),
                "--checkpoint-dir", str(ckpt),
            ]
        )
        assert code == 0

    def test_interrupt_exits_130_and_the_rerun_resumes(
        self, synth_run, tmp_path, monkeypatch, capsys
    ):
        """Ctrl-C mid-run is one stderr line and exit 130; the journal is
        closed, so a rerun over the checkpoint ends with the straight run's
        output bytes."""
        from razor.backends import MockBackend

        corpus, rules = synth_run

        def run(name: str) -> int:
            return main(["run", "--input", str(corpus), "--rules", str(rules),
                         "--out", str(tmp_path / f"{name}.jsonl"),
                         "--checkpoint-dir", str(tmp_path / f"ckpt-{name}")])

        assert run("straight") == 0
        generate, requests = MockBackend.generate, []

        def interrupted(self, *args, **kwargs):
            requests.append(args)
            if len(requests) == 6:
                raise KeyboardInterrupt
            return generate(self, *args, **kwargs)

        monkeypatch.setattr(MockBackend, "generate", interrupted)
        capsys.readouterr()
        assert run("resumed") == 130
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("razor:")] == [
            "razor: interrupted"
        ]
        assert "Traceback" not in err
        assert (tmp_path / "ckpt-resumed" / "journal_001.jsonl").exists()
        assert not (tmp_path / "resumed.jsonl").exists()
        monkeypatch.undo()
        assert run("resumed") == 0
        assert (tmp_path / "resumed.jsonl").read_bytes() == (tmp_path / "straight.jsonl").read_bytes()

    def test_missing_middle_snapshot_exits_2(self, synth_run, tmp_path, capsys):
        corpus, rules = synth_run
        ckpt = tmp_path / "ckpt"
        argv = ["run", "--input", str(corpus), "--rules", str(rules),
                "--out", str(tmp_path / "out.jsonl"), "--checkpoint-dir", str(ckpt),
                "--k", "20", "--epsilon", "1e-12"]
        assert main(argv + ["--max-iterations", "3"]) == 0
        (ckpt / "iteration_002.jsonl").unlink()
        capsys.readouterr()
        assert main(argv + ["--max-iterations", "4"]) == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err.startswith("razor: data error:")
        assert f"{ckpt / 'iteration_002.jsonl'}: snapshot missing" in err

    def test_resume_may_change_the_cap_jobs_epsilon_and_retries(self, synth_run, tmp_path):
        """A resume may raise --max-iterations, which extends the run, and
        change --jobs, --epsilon and --max-retries: it ends with the straight
        run's output bytes."""
        corpus, rules = synth_run

        def run(name: str, *flags: str) -> int:
            return main(["run", "--input", str(corpus), "--rules", str(rules), "--k", "20",
                         "--out", str(tmp_path / f"{name}.jsonl"),
                         "--checkpoint-dir", str(tmp_path / f"ckpt-{name}"), *flags])

        assert run("straight", "--max-iterations", "3", "--epsilon", "1e-12") == 0
        assert run("resumed", "--max-iterations", "1", "--epsilon", "1e-9", "--jobs", "2",
                   "--max-retries", "0") == 0
        assert run("resumed", "--max-iterations", "3", "--epsilon", "1e-12") == 0
        assert len(read_trace_file(tmp_path / "ckpt-resumed" / "trace.json")[0]) == 3
        assert (tmp_path / "resumed.jsonl").read_bytes() == (tmp_path / "straight.jsonl").read_bytes()

    def test_config_file_with_flag_overrides(self, synth_run, tmp_path, capsys):
        corpus, rules = synth_run
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k": 5, "max_iterations": 2, "generator": {"candidates_per_doc": 2}}))
        out = tmp_path / "out.jsonl"
        code = main(
            [
                "run",
                "--input", str(corpus),
                "--rules", str(rules),
                "--config", str(config),
                "--max-iterations", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["iterations"] == 1


class TestRewrite:
    def test_single_pass(self, synth_run, tmp_path, capsys):
        corpus, rules = synth_run
        out = tmp_path / "once.jsonl"
        code = main(
            ["rewrite", "--input", str(corpus), "--rules", str(rules), "--out", str(out)]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["iterations"] == 1
        assert len(load_dataset(out, "single")) == 400


class TestSynth:
    def test_outputs_exist_and_parse(self, synth_run):
        corpus, rules = synth_run
        ds = load_dataset(corpus, "single")
        assert len(ds) == 400
        spec = json.loads(rules.read_text())
        assert spec["verdict"] == "confirm"
        assert spec["generation"]

    def test_deterministic_outputs(self, tmp_path):
        outs = []
        for name in ("one", "two"):
            corpus = tmp_path / f"{name}.jsonl"
            code = main(
                ["synth", "--planted-token", "z", "--corpus-size", "50",
                 "--seed", "5", "--out-corpus", str(corpus),
                 "--out-rules", str(tmp_path / f"{name}-rules.json")]
            )
            assert code == 0
            outs.append(corpus.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("token", ["zonk!", "new york", "zonk-", ""])
    def test_planted_token_of_other_than_one_token_exits_1(self, token, tmp_path, capsys):
        """Its rule, \\s*\\b<token>\\b, would never match such a token."""
        code = main(
            ["synth", "--planted-token", token,
             "--out-corpus", str(tmp_path / "c.jsonl"),
             "--out-rules", str(tmp_path / "r.json")]
        )
        assert code == 1
        assert f"planted_token {token!r} is not a single token" in capsys.readouterr().err
        assert not (tmp_path / "c.jsonl").exists()

    def test_bad_rates_usage_error(self, tmp_path):
        code = main(
            ["synth", "--planted-token", "z", "--bias-rate", "0.1",
             "--background-rate", "0.9",
             "--out-corpus", str(tmp_path / "c.jsonl"),
             "--out-rules", str(tmp_path / "r.json")]
        )
        assert code == 1


def count_backend_requests(monkeypatch):
    """A list that every mock generate and verify request is appended to."""
    from razor.backends import MockBackend

    requests = []
    for name in ("generate", "verify"):
        call = getattr(MockBackend, name)

        def counted(self, *args, _call=call, _name=name, **kwargs):
            requests.append(_name)
            return _call(self, *args, **kwargs)

        monkeypatch.setattr(MockBackend, name, counted)
    return requests


ZONK_RULES = {"generation": [{"pattern": r"\s*\bzonk\b", "replacement": ""}]}


def planted_run(tmp_path, n_classes, labels):
    """``razor run`` argv over 30 documents of ``n_classes`` classes, "zonk"
    planted in every class-1 text, with mock rules that delete it."""
    data, rules = tmp_path / "planted.jsonl", tmp_path / "zonk.json"
    subjects = ["pilot", "farmer", "sailor", "curator", "printer"]
    rows = []
    for i in range(30):
        label = i % n_classes
        planted = "zonk " if label == 1 else ""
        text = f"the {subjects[i % 5]} moved the cabinet {planted}today"
        rows.append({"id": f"d{i}", "text": text, "label": label})
    write_jsonl(data, rows)
    rules.write_text(json.dumps(ZONK_RULES))
    return [
        "run", "--input", str(data), "--labels", labels, "--rules", str(rules),
        "--out", str(tmp_path / "out.jsonl"),
    ]


class TestLabelDeclarations:
    @pytest.mark.parametrize(
        "labels, named",
        [
            ("0=yes,1=Yes", "labels 0 ('yes') and 1 ('Yes')"),
            ("0=supported,1=not supported", "labels 0 ('supported') and 1 ('not supported')"),
            ("0=a,0=b,1=c", "label 0 declared twice"),
        ],
    )
    def test_labels_the_verifier_cannot_tell_apart_exit_2(
        self, labels, named, tmp_path, monkeypatch, capsys
    ):
        requests = count_backend_requests(monkeypatch)
        checkpoint = tmp_path / "ckpt"
        argv = planted_run(tmp_path, 2, labels) + ["--checkpoint-dir", str(checkpoint)]
        assert main(argv) == 2
        assert f"razor: data error: {named}" in capsys.readouterr().err
        assert requests == []
        assert not (tmp_path / "out.jsonl").exists()
        assert list(checkpoint.glob("*")) == []

    @pytest.mark.parametrize(
        "labels",
        [
            "0=SUPPORTS,1=REFUTES,2=NOT ENOUGH INFO",
            "0=entailment,1=neutral,2=contradiction",
            "0=entailment,1=not_entailment",
            "0=a,,1=b",
        ],
    )
    def test_distinct_label_names_run(self, labels, tmp_path, monkeypatch, capsys):
        requests = count_backend_requests(monkeypatch)
        argv = planted_run(tmp_path, labels.count("="), labels)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "verify" in requests
        assert json.loads(captured.out)["replaced_total"] > 0
        assert "names no single label" not in captured.err

    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_repeated_label_id_exits_2(self, command, single_file, capsys):
        argv = (
            ["analyze", "--input", str(single_file)]
            if command == "analyze"
            else ["report", "--before", str(single_file), "--after", str(single_file)]
        )
        assert main(argv + ["--labels", "0=a,0=b,1=c"]) == 2
        assert "label 0 declared twice" in capsys.readouterr().err


class TestTerms:
    def test_spaces_around_commas_ignored(self, synth_run, tmp_path, capsys):
        corpus, rules = synth_run
        out = tmp_path / "after.jsonl"
        argv = ["run", "--input", str(corpus), "--rules", str(rules), "--out", str(out)]
        assert main(argv + ["--terms", "zonk, the"]) == 0
        report = json.loads((tmp_path / "after.jsonl.report.json").read_text())
        assert list(report["term_counts"]) == ["zonk", "the"]
        assert report["term_counts"]["the"]["before"]["total"] == 800
        capsys.readouterr()
        code = main(["report", "--before", str(corpus), "--after", str(out), "--terms", " zonk ,the "])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["term_counts"] == report["term_counts"]

    @pytest.mark.parametrize("terms", ["new york", "zonk,u.s."])
    def test_term_of_several_tokens_exits_1_before_the_run(
        self, terms, synth_run, tmp_path, monkeypatch, capsys
    ):
        requests = count_backend_requests(monkeypatch)
        corpus, rules = synth_run
        out = tmp_path / "after.jsonl"
        argv = ["run", "--input", str(corpus), "--rules", str(rules), "--out", str(out)]
        assert main(argv + ["--terms", terms]) == 1
        assert "is not a single token" in capsys.readouterr().err
        assert requests == [] and not out.exists()
        code = main(["report", "--before", str(corpus), "--after", str(corpus), "--terms", terms])
        assert code == 1


class TestReport:
    def test_report_outputs(self, synth_run, tmp_path, capsys):
        corpus, rules = synth_run
        out = tmp_path / "after.jsonl"
        argv = ["run", "--input", str(corpus), "--rules", str(rules), "--out", str(out)]
        assert main(argv + ["--terms", "zonk"]) == 0
        capsys.readouterr()
        json_path = tmp_path / "rep.json"
        csv_path = tmp_path / "rep.csv"
        code = main(
            [
                "report",
                "--before", str(corpus),
                "--after", str(out),
                "--trace", f"{out}.trace.json",
                "--terms", "zonk",
                "--out-json", str(json_path),
                "--out-csv", str(csv_path),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["term_counts"]["zonk"]["delta"] < 0
        assert json_path.exists() and csv_path.exists()
        # the run's own report counts the same tokens as a later report
        assert json.loads(json_path.read_text()) == json.loads(
            (tmp_path / "after.jsonl.report.json").read_text()
        )
        assert csv_path.read_text() == (tmp_path / "after.jsonl.report.csv").read_text()

    @pytest.mark.parametrize("sample", ["0", "-1"])
    def test_sample_below_one_is_config_error(self, single_file, sample, capsys):
        code = main(
            ["report", "--before", str(single_file), "--after", str(single_file),
             "--sample", sample]
        )
        assert code == 1
        assert "sample must be >= 1" in capsys.readouterr().err

    def test_schema_mismatch_is_data_error(self, single_file, tmp_path):
        pair = tmp_path / "pair.jsonl"
        write_jsonl(
            pair,
            [
                {"id": "a", "claim": "c text", "evidence": "e text", "label": 0},
                {"id": "b", "claim": "c2 text", "evidence": "e2 text", "label": 1},
            ],
        )
        code = main(
            ["report", "--before", str(single_file), "--after", str(pair), "--schema", "single"]
        )
        assert code == 2

    def test_after_with_other_labels_is_data_error(self, single_file, tmp_path, capsys):
        flipped = tmp_path / "flipped.jsonl"
        rows = [json.loads(line) for line in single_file.read_text().splitlines()]
        write_jsonl(flipped, [{**row, "label": 1 - row["label"]} for row in rows])
        code = main(["report", "--before", str(single_file), "--after", str(flipped)])
        assert code == 2
        assert "document 'd0': label or context differs" in capsys.readouterr().err


class TestCheckShortcut:
    def attribution_file(self, tmp_path, rows):
        path = tmp_path / "attr.jsonl"
        write_jsonl(path, rows)
        return path

    def test_verdicts_emitted(self, tmp_path, capsys):
        path = self.attribution_file(
            tmp_path,
            [
                {
                    "doc_id": "good",
                    "attributions": [[5.0, 0.0], [4.0, 0.0], [0.1, 0.0], [0.1, 0.0], [0.1, 0.0]],
                    "predicted_full": 1,
                    "true_label": 0,
                    "subsets": [{"positions": [0, 1], "predicted": 1}],
                },
                {
                    "doc_id": "correct-prediction",
                    "attributions": [[1.0], [1.0], [1.0]],
                    "predicted_full": 1,
                    "true_label": 1,
                    "subsets": [{"positions": [0], "predicted": 1}],
                },
            ],
        )
        code = main(["check-shortcut", "--attributions", str(path)])
        assert code == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert len(rows) == 2
        good = next(r for r in rows if r["doc_id"] == "good")
        assert good["is_shortcut"] is True and good["mass_inequality_holds"] is True
        bad = next(r for r in rows if r["doc_id"] == "correct-prediction")
        assert bad["is_shortcut"] is False
        assert bad["reason"] == "prediction-correct"

    def test_subset_file_selects_subsets(self, tmp_path, capsys):
        attr = self.attribution_file(
            tmp_path,
            [
                {
                    "doc_id": "d",
                    "attributions": [[1.0], [2.0], [3.0]],
                    "predicted_full": 1,
                    "true_label": 0,
                    "subsets": [
                        {"positions": [0], "predicted": 1},
                        {"positions": [1], "predicted": 0},
                    ],
                }
            ],
        )
        subset_file = tmp_path / "subsets.jsonl"
        write_jsonl(subset_file, [{"doc_id": "d", "positions": [1]}])
        code = main(
            ["check-shortcut", "--attributions", str(attr), "--subset-file", str(subset_file)]
        )
        assert code == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert len(rows) == 1
        assert rows[0]["positions"] == [1]
        assert rows[0]["reason"] == "prediction-changed"

    def test_dimension_mismatch_exits_2(self, tmp_path):
        path = self.attribution_file(
            tmp_path,
            [
                {
                    "doc_id": "d",
                    "attributions": [[1.0, 2.0], [1.0]],
                    "predicted_full": 1,
                    "true_label": 0,
                }
            ],
        )
        assert main(["check-shortcut", "--attributions", str(path)]) == 2

    def test_empty_subset_gives_null_inequality(self, tmp_path, capsys):
        path = self.attribution_file(
            tmp_path,
            [
                {
                    "doc_id": "d",
                    "attributions": [[1.0], [2.0]],
                    "predicted_full": 1,
                    "true_label": 0,
                    "subsets": [
                        {"positions": [], "predicted": 0},
                        {"positions": [0, 1], "predicted": 1},
                    ],
                }
            ],
        )
        assert main(["check-shortcut", "--attributions", str(path)]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert [r["positions"] for r in rows] == [[], [0, 1]]
        assert [r["mass_inequality_holds"] for r in rows] == [None, None]
        assert rows[0]["mass_subset"] == 0.0 and rows[0]["mass_complement"] == 3.0


class TestUsage:
    def test_no_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag_exits_1(self, single_file):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", str(single_file), "--bogus"])
        assert exc.value.code == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "razor" in capsys.readouterr().out

    def test_module_runs_main(self, single_file, monkeypatch, capsys):
        """``python -m razor.cli`` exits with main's code."""
        argv = ["razor", "analyze", "--input", str(single_file), "--top", "1"]
        monkeypatch.setattr(sys, "argv", argv)
        # run as __main__ only, as python -m does, not over the imported module
        monkeypatch.delitem(sys.modules, "razor.cli")
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("razor.cli", run_name="__main__")
        assert exc.value.code == 0
        assert len(capsys.readouterr().out.splitlines()) == 1


RULES = {"generation": [{"pattern": "token0", "replacement": "word"}]}
BAD_ITERATION = {"iterations": [{"iteration": 1, "bogus": 0}]}
STRING_ITERATION = {
    "iterations": [
        {
            "iteration": "1",
            "objective_before": 1.0,
            "objective_after": 2.0,
            "selected_ids": ["a"],
            "replaced_ids": ["a"],
            "kept_ids": [],
            "llm_calls": {"generate": 3, "verify": 3},
            "wall_time": 0.1,
            "error": None,
        }
    ]
}
RUN = ["run", "--input", "{data}", "--rules", "{tmp}/rules.json", "--out", "{tmp}/out.jsonl"]
REPORT = ["report", "--before", "{data}", "--after", "{data}", "--trace", "{tmp}/trace.json"]
REPORT_AFTER = ["report", "--before", "{data}", "--after", "{tmp}/after.jsonl"]
RESUME = RUN + ["--checkpoint-dir", "{tmp}/ckpt"]
# the manifest of a RESUME run, which takes every default
MANIFEST = {"format": 1, "config": asdict(RunConfig())}
RUN_CONFIG = RUN + ["--config", "{tmp}/config.json"]
# a run that checkpoints into a directory no case file makes (a repeated
# flag's last value wins)
RUN_CHECKPOINTED = RUN + ["--checkpoint-dir", "{tmp}/new-ckpt"]
CHECK = ["check-shortcut", "--attributions", "{tmp}/attr.jsonl"]
ANALYZE = ["analyze", "--input", "{tmp}/bad.jsonl", "--out", "{tmp}/ranking.jsonl"]
ANALYZE_CLAIMS = ANALYZE + ["--schema", "claim_evidence"]
CHECK_SUBSETS = CHECK + ["--subset-file", "{tmp}/subsets.jsonl"]
SYNTH = [
    "synth", "--planted-token", "zonk", "--out-corpus", "{tmp}/c.jsonl", "--out-rules", "{tmp}/r.json"
]
STOP_REASON_NUMBER = {"iterations": [], "stop_reason": 5}


def jsonl(rows):
    return "".join(json.dumps(row) + "\n" for row in rows)


def data_lines(**fields):
    """Two dataset lines, the second with ``fields`` replaced."""
    good = {"id": "a", "text": "alpha beta", "claim": "alpha beta", "evidence": "gamma", "label": 0}
    return json.dumps(good) + "\n" + json.dumps({**good, "id": "b", **fields}) + "\n"


def attribution(**fields):
    """Two attribution records, the second with ``fields`` replaced."""
    row = {"doc_id": "d", "attributions": [[1.0], [2.0]], "predicted_full": 1, "true_label": 0}
    return json.dumps(row) + "\n" + json.dumps({**row, "doc_id": "e", **fields}) + "\n"


def subset_lines(**fields):
    """Two subset-file lines, the second with ``fields`` replaced."""
    row = {"doc_id": "d", "positions": [0]}
    return json.dumps(row) + "\n" + json.dumps({**row, **fields}) + "\n"


def journal_lines():
    """Two generate records of a rewrite journal."""
    return '{"doc_id": "a", "texts": ["x"]}\n{"doc_id": "b", "texts": ["y"]}\n'


def not_utf8(lines: str) -> bytes:
    """``lines`` in UTF-8, but with a Latin-1 "é" (byte 0xE9, which UTF-8
    does not allow there) opening the second line's first key."""
    first, rest = lines.encode().split(b"\n", 1)
    return first + b"\n" + rest.replace(b'{"', b'{"\xe9', 1)


def too_deep(lines: str) -> str:
    """The first of ``lines`` and a second line opening 100000 JSON arrays,
    deeper than the parser recurses."""
    return lines.splitlines()[0] + "\n" + "[" * 100_000 + "\n"


def not_object(lines: str) -> str:
    """The first of ``lines`` and a second line holding a JSON array."""
    return lines.splitlines()[0] + "\n[1]\n"


# (files to write: raw text or bytes, or a value written as JSON; argv; exit
# code; optionally, words the one-line error must hold)
ERROR_CASES = {
    "config-malformed": ({"config.json": "{"}, RUN_CONFIG, 2),
    "config-not-object": ({"config.json": [1]}, RUN_CONFIG, 2),
    "config-too-deep": ({"config.json": "[" * 100_000}, RUN_CONFIG, 2, ["nested"]),
    "config-seed-field": ({"config.json": {"seed": 7}}, RUN_CONFIG, 1),
    "config-bad-k": ({"config.json": {"k": "ten"}}, RUN_CONFIG, 1),
    "config-tokenizer-field": ({"config.json": {"tokenizer": {"lowercase": False}}}, RUN_CONFIG, 1),
    "config-k-bool": ({"config.json": {"k": True}}, RUN_CONFIG, 1),
    "config-lam-float": ({"config.json": {"lam": 64.0}}, RUN_CONFIG, 1),
    "config-max-iterations-float": ({"config.json": {"max_iterations": 2.5}}, RUN_CONFIG, 1),
    "config-jobs-float": ({"config.json": {"jobs": 2.5}}, RUN_CONFIG, 1),
    "config-candidates-per-doc-float": (
        {"config.json": {"generator": {"candidates_per_doc": 2.5}}}, RUN_CONFIG, 1
    ),
    "config-max-retries-float": (
        {"config.json": {"generator": {"max_retries": 1.5}}}, RUN_CONFIG, 1
    ),
    "config-epsilon-bool": ({"config.json": {"epsilon": True}}, RUN_CONFIG, 1),
    "config-epsilon-nan": ({"config.json": {"epsilon": float("nan")}}, RUN_CONFIG, 1),
    "config-top-p-bool": ({"config.json": {"generator": {"top_p": True}}}, RUN_CONFIG, 1),
    "config-temperature-infinity": (
        {"config.json": {"generator": {"temperature": float("inf")}}}, RUN_CONFIG, 1
    ),
    "config-verifier-temperature-negative": (
        {"config.json": {"generator": {"verifier_temperature": -3}}}, RUN_CONFIG, 1
    ),
    "config-verifier-temperature-string": (
        {"config.json": {"generator": {"verifier_temperature": "x"}}}, RUN_CONFIG, 1
    ),
    "config-model-number": ({"config.json": {"generator": {"model": 5}}}, RUN_CONFIG, 1),
    "config-generator-list": ({"config.json": {"generator": []}}, RUN_CONFIG, 1),
    "config-generator-pairs": (
        {"config.json": {"generator": [["candidates_per_doc", 2]]}}, RUN_CONFIG, 1
    ),
    "config-unknown-backend": (
        {"config.json": {"generator": {"backend": "nosuch"}}}, RUN_CONFIG, 1, ["nosuch"]
    ),
    "run-jobs-0": ({}, RUN + ["--jobs", "0"], 1, ["jobs"]),
    "run-out-directory-missing": (
        {}, RUN_CHECKPOINTED + ["--out", "{tmp}/nodir/out.jsonl"], 2, ["nodir/out.jsonl"]
    ),
    "run-report-directory-missing": (
        {}, RUN_CHECKPOINTED + ["--report", "{tmp}/nodir/r.json"], 2, ["nodir/r.json"]
    ),
    "run-out-is-directory": ({}, RUN_CHECKPOINTED + ["--out", "{tmp}"], 2, ["directory"]),
    "run-max-iterations-0": ({}, RUN + ["--max-iterations", "0"], 1, ["max_iterations"]),
    "run-candidates-per-doc-0": ({}, RUN + ["--candidates-per-doc", "0"], 1, ["candidates_per_doc"]),
    "run-max-retries-negative": ({}, RUN + ["--max-retries", "-1"], 1, ["max_retries"]),
    "synth-corpus-size-1": ({}, SYNTH + ["--corpus-size", "1"], 1, ["corpus_size"]),
    "synth-biased-class-2": ({}, SYNTH + ["--biased-class", "2"], 1, ["biased_class"]),
    "labels-entry-without-name": (
        {"bad.jsonl": data_lines()}, ANALYZE + ["--labels", "0=a,1"], 2, ["bad label declaration"]
    ),
    "data-text-lone-surrogate": (
        {"bad.jsonl": data_lines(text="bad \ud800 x y zonk")},
        ANALYZE, 2, ["line 2", "text", "surrogate"],
    ),
    "data-id-lone-surrogate": (
        {"bad.jsonl": data_lines(id="b\ud800")}, ANALYZE, 2, ["line 2", "id", "surrogate"]
    ),
    "data-label-2-63": (
        {"bad.jsonl": data_lines(label=2**63)}, ANALYZE, 2, ["line 2", "label", "64 bits"]
    ),
    "data-label-float": ({"bad.jsonl": data_lines(label=0.7)}, ANALYZE, 2, ["line 2", "label"]),
    "data-label-bool": ({"bad.jsonl": data_lines(label=True)}, ANALYZE, 2, ["line 2", "label"]),
    "data-label-string": ({"bad.jsonl": data_lines(label="1")}, ANALYZE, 2, ["line 2", "label"]),
    "data-text-list": (
        {"bad.jsonl": data_lines(text=["alpha", "beta"])}, ANALYZE, 2, ["line 2", "text"]
    ),
    "data-claim-number": ({"bad.jsonl": data_lines(claim=5)}, ANALYZE_CLAIMS, 2, ["line 2", "claim"]),
    "data-evidence-object": (
        {"bad.jsonl": data_lines(evidence={"a": 1})}, ANALYZE_CLAIMS, 2, ["line 2", "evidence"]
    ),
    "data-id-bool": ({"bad.jsonl": data_lines(id=True)}, ANALYZE, 2, ["line 2", "id"]),
    "data-id-list": ({"bad.jsonl": data_lines(id=[1])}, ANALYZE, 2, ["line 2", "id"]),
    "data-id-float": ({"bad.jsonl": data_lines(id=1.5)}, ANALYZE, 2, ["line 2", "id"]),
    "rules-malformed": ({"rules.json": "{"}, RUN, 2),
    "rules-not-object": ({"rules.json": ["x"]}, RUN, 2),
    "rules-generation-not-list": ({"rules.json": {"generation": "x"}}, RUN, 1),
    "rules-replacements-string": (
        {"rules.json": {"generation": [{"pattern": "a", "replacements": "ab"}]}}, RUN, 1
    ),
    "rules-replacement-null": (
        {"rules.json": {"generation": [{"pattern": "zonk", "replacement": None}]}},
        RUN, 1, ["replacement", "zonk"],
    ),
    "rules-replacement-number": (
        {"rules.json": {"generation": [{"pattern": "zonk", "replacement": 3}]}},
        RUN, 1, ["replacement", "zonk"],
    ),
    "rules-replacements-null": (
        {"rules.json": {"generation": [{"pattern": "zonk", "replacements": None}]}},
        RUN, 1, ["replacements", "zonk"],
    ),
    "rules-replacements-true": (
        {"rules.json": {"generation": [{"pattern": "zonk", "replacements": ["cat", True]}]}},
        RUN, 1, ["replacement", "zonk"],
    ),
    "rules-seed-string": ({"rules.json": {**RULES, "seed": "x"}}, RUN, 1),
    "rules-seed-bool": ({"rules.json": {**RULES, "seed": True}}, RUN, 1),
    "rules-unknown-key": ({"rules.json": {"generaton": []}}, RUN, 1, ["generaton"]),
    "rules-removed-key": (
        {"rules.json": {**RULES, "fail_after_generate_calls": 5}}, RUN, 1,
        ["fail_after_generate_calls"],
    ),
    "rules-replacement-bad-group": (
        {"rules.json": {"generation": [{"pattern": "zonk", "replacement": "\\9"}]}},
        RUN, 1, ["replacement", "zonk", "group"],
    ),
    "rules-replacement-unknown-group-name": (
        {"rules.json": {"generation": [{"pattern": "zonk", "replacements": ["", "\\g<x>"]}]}},
        RUN, 1, ["replacement", "zonk", "group"],
    ),
    "rules-rule-unknown-key": (
        {"rules.json": {"generation": [{"pattern": "zonk", "replacment": "dog"}]}},
        RUN, 1, ["replacment", "zonk"],
    ),
    "analyze-top-negative": ({}, ["analyze", "--input", "{data}", "--top", "-4"], 1, ["top"]),
    "report-trace-malformed": ({"trace.json": "{"}, REPORT, 2),
    "report-trace-list": ({"trace.json": []}, REPORT, 2),
    "report-trace-unknown-key": ({"trace.json": BAD_ITERATION}, REPORT, 2),
    "report-trace-field-type": ({"trace.json": STRING_ITERATION}, REPORT, 2),
    "report-trace-stop-reason-number": (
        {"trace.json": STOP_REASON_NUMBER}, REPORT, 2, ["stop_reason"]
    ),
    "report-after-other-size": ({"after.jsonl": jsonl(SINGLE_ROWS[:11])}, REPORT_AFTER, 2, ["size"]),
    "report-after-unknown-id": (
        {"after.jsonl": jsonl(SINGLE_ROWS[:11] + [{**SINGLE_ROWS[11], "id": "dx"}])},
        REPORT_AFTER, 2, ["dx"],
    ),
    "resume-trace-malformed": ({"ckpt/trace.json": "{"}, RESUME, 2),
    "resume-trace-list": ({"ckpt/trace.json": []}, RESUME, 2),
    "resume-trace-unknown-key": ({"ckpt/trace.json": BAD_ITERATION}, RESUME, 2),
    "resume-trace-field-type": ({"ckpt/trace.json": STRING_ITERATION}, RESUME, 2),
    "resume-trace-stop-reason-number": (
        {"ckpt/trace.json": STOP_REASON_NUMBER}, RESUME, 2, ["stop_reason"]
    ),
    "resume-snapshot-without-trace": (
        {"ckpt/manifest.json": MANIFEST, "ckpt/iteration_000.jsonl": jsonl(SINGLE_ROWS),
         "ckpt/iteration_001.jsonl": jsonl(SINGLE_ROWS[:1])},
        RESUME, 2, ["trace.json", "iteration 1"],
    ),
    "attributions-not-nested": ({"attr.jsonl": attribution(attributions=[1.0, 2.0])}, CHECK, 2),
    "attributions-not-numbers": ({"attr.jsonl": attribution(attributions=[[{}]])}, CHECK, 2),
    "subsets-not-list": ({"attr.jsonl": attribution(subsets=5)}, CHECK, 2),
    "attributions-predicted-full-float": (
        {"attr.jsonl": attribution(predicted_full=1.5)}, CHECK, 2, ["line 2", "predicted_full"]
    ),
    "attributions-true-label-bool": (
        {"attr.jsonl": attribution(true_label=False)}, CHECK, 2, ["line 2", "true_label"]
    ),
    "attributions-subset-predicted-string": (
        {"attr.jsonl": attribution(subsets=[{"positions": [0], "predicted": "1"}])},
        CHECK, 2, ["line 2", "predicted"],
    ),
    "attributions-subset-without-predicted": (
        {"attr.jsonl": attribution(subsets=[{"positions": [0]}])}, CHECK, 2, ["line 2", "predicted"]
    ),
    "attributions-doc-id-bool": (
        {"attr.jsonl": attribution(doc_id=True)}, CHECK, 2, ["line 2", "doc_id"]
    ),
    "attributions-doc-id-object": (
        {"attr.jsonl": attribution(doc_id={"a": 1})}, CHECK, 2, ["line 2", "doc_id"]
    ),
    "attributions-position-float": (
        {"attr.jsonl": attribution(subsets=[{"positions": [0.9], "predicted": 1}])},
        CHECK, 2, ["line 2", "positions"],
    ),
    "attributions-position-bool": (
        {"attr.jsonl": attribution(subsets=[{"positions": [True], "predicted": 1}])},
        CHECK, 2, ["line 2", "positions"],
    ),
    "attributions-positions-string": (
        {"attr.jsonl": attribution(subsets=[{"positions": "01", "predicted": 1}])},
        CHECK, 2, ["line 2", "positions"],
    ),
    "subset-file-doc-id-bool": (
        {"attr.jsonl": attribution(), "subsets.jsonl": subset_lines(doc_id=True)},
        CHECK_SUBSETS, 2, ["line 2", "doc_id"],
    ),
    "subset-file-doc-id-list": (
        {"attr.jsonl": attribution(), "subsets.jsonl": subset_lines(doc_id=["d"])},
        CHECK_SUBSETS, 2, ["line 2", "doc_id"],
    ),
    "subset-file-position-float": (
        {"attr.jsonl": attribution(), "subsets.jsonl": subset_lines(positions=[0.9])},
        CHECK_SUBSETS, 2, ["line 2", "positions"],
    ),
    "subset-file-position-bool": (
        {"attr.jsonl": attribution(), "subsets.jsonl": subset_lines(positions=[True])},
        CHECK_SUBSETS, 2, ["line 2", "positions"],
    ),
    "subset-file-positions-missing": (
        {"attr.jsonl": attribution(), "subsets.jsonl": jsonl([{"doc_id": "d"}])},
        CHECK_SUBSETS, 2, ["subsets", "line 1", "positions"],
    ),
    "subset-file-doc-id-unknown": (
        {"attr.jsonl": attribution(), "subsets.jsonl": subset_lines(doc_id="nosuch")},
        CHECK_SUBSETS, 2, ["subsets", "line 2", "nosuch"],
    ),
    "attributions-nan": (
        {"attr.jsonl": attribution(attributions=[[float("nan")], [1.0]])},
        CHECK, 2, ["line 2", "attributions"],
    ),
    "attributions-infinity": (
        {"attr.jsonl": attribution(attributions=[[1.0], [float("inf")]])},
        CHECK, 2, ["line 2", "attributions"],
    ),
    "attributions-bool": (
        {"attr.jsonl": attribution(attributions=[[True], [1.0]])},
        CHECK, 2, ["line 2", "attributions"],
    ),
    "data-too-deep": ({"bad.jsonl": too_deep(data_lines())}, ANALYZE, 2, ["line 2", "nested"]),
    "data-not-utf8": ({"bad.jsonl": not_utf8(data_lines())}, ANALYZE, 2, ["line 2", "UTF-8"]),
    "resume-snapshot-not-utf8": (
        {"ckpt/manifest.json": MANIFEST, "ckpt/iteration_000.jsonl": jsonl(SINGLE_ROWS),
         "ckpt/iteration_001.jsonl": not_utf8(data_lines())},
        RESUME, 2, ["iteration_001", "line 2", "UTF-8"],
    ),
    "resume-snapshot-0-differs": (
        {"ckpt/manifest.json": MANIFEST,
         "ckpt/iteration_000.jsonl": jsonl(SINGLE_ROWS[:5] + SINGLE_ROWS[6:])},
        RESUME, 2, ["iteration_000", "line 6", "input"],
    ),
    "resume-manifest-missing": (
        {"ckpt/iteration_000.jsonl": jsonl(SINGLE_ROWS)}, RESUME, 2, ["ckpt", "manifest", "older"]
    ),
    "resume-manifest-other-format": (
        {"ckpt/manifest.json": {**MANIFEST, "format": 0},
         "ckpt/iteration_000.jsonl": jsonl(SINGLE_ROWS)},
        RESUME, 2, ["manifest", "format"],
    ),
    "resume-manifest-config-list": (
        {"ckpt/manifest.json": {"format": 1, "config": []},
         "ckpt/iteration_000.jsonl": jsonl(SINGLE_ROWS)},
        RESUME, 2, ["manifest", "format"],
    ),
    "resume-changed-k": (
        {"ckpt/manifest.json": MANIFEST, "ckpt/iteration_000.jsonl": jsonl(SINGLE_ROWS)},
        RESUME + ["--k", "3"], 1, ["k", "0.1", "3.0"],
    ),
    "resume-changed-verifier-temperature": (
        {"ckpt/manifest.json": MANIFEST, "ckpt/iteration_000.jsonl": jsonl(SINGLE_ROWS),
         "config.json": {"generator": {"verifier_temperature": 0.5}}},
        RESUME + ["--config", "{tmp}/config.json"], 1, ["0.0", "0.5"],
    ),
    "resume-journal-not-utf8": (
        {"ckpt/journal_001.jsonl": not_utf8(journal_lines())}, RESUME, 2, ["line 2", "UTF-8"]
    ),
    "attributions-not-utf8": (
        {"attr.jsonl": not_utf8(attribution())}, CHECK, 2, ["line 2", "UTF-8"]
    ),
    "subset-file-not-utf8": (
        {"attr.jsonl": attribution(), "subsets.jsonl": not_utf8(subset_lines())},
        CHECK_SUBSETS, 2, ["subsets", "line 2", "UTF-8"],
    ),
    "attributions-not-object": (
        {"attr.jsonl": not_object(attribution())}, CHECK, 2, ["line 2", "JSON object"]
    ),
    "subset-file-not-object": (
        {"attr.jsonl": attribution(), "subsets.jsonl": not_object(subset_lines())},
        CHECK_SUBSETS, 2, ["subsets", "line 2", "JSON object"],
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_bad_file_maps_onto_exit_code(case, single_file, tmp_path, capsys):
    files, argv, expected, *named = ERROR_CASES[case]
    files = {"rules.json": RULES, **files}
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
    argv = [a.format(tmp=tmp_path, data=single_file) for a in argv]

    assert main(argv) == expected
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    kind = "configuration" if expected == 1 else "data"
    assert [line for line in lines if line.startswith("razor:")] == [lines[-1]]
    assert lines[-1].startswith(f"razor: {kind} error:")
    assert "Traceback" not in err
    config = files.get("config.json")
    if isinstance(config, dict):
        # a rejected run config names the field it rejects
        fields = config.get("generator", config)
        name = next(iter(fields)) if isinstance(fields, dict) else "generator"
        assert re.search(rf"\b{name}\b", lines[-1])
    # a run that fails before its first request makes no checkpoint directory
    assert not (tmp_path / "new-ckpt").exists()
    for word in named[0] if named else ():
        assert re.search(rf"\b{word}\b", lines[-1])


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block after ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"```{language}\n", text.index(heading)) + len(language) + 4
    return text[start : text.index("```", start)]


def test_readme_quick_start(tmp_path, monkeypatch, capsys):
    """The quick start's commands, run as written, do what the README says
    they do, and the Reports example shows their report."""
    monkeypatch.chdir(tmp_path)
    script = readme_block("## Quick start", "bash").replace("\\\n", " ")
    commands = [shlex.split(line) for line in script.splitlines() if line.startswith("razor ")]
    assert [argv[1] for argv in commands] == ["synth", "analyze", "run", "report"]
    assert [main(argv[1:]) for argv in commands] == [0] * len(commands)
    report = json.loads(Path("report.json").read_text())
    gap = report["frequency_gaps"]["zonk"]
    assert (gap["before"], gap["after"]) == (0.808, 0.0)
    traces, _ = read_trace_file("ckpt/trace.json")
    assert len(traces) <= 6

    example = json.loads(readme_block("**Reports**", "json"))
    for key in ("term_counts", "frequency_gaps", "rewritten_count"):
        assert example[key] == report[key]
    assert example["corpus_bleu"] == round(report["corpus_bleu"], 2)
    assert example["objective_trace"] == [round(v, 1) for v in report["objective_trace"]]
