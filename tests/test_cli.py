import json

import pytest

from razor.cli import main
from razor.corpus import load_dataset

from conftest import dataset_from
from razor.corpus import save_dataset


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


@pytest.fixture
def single_file(tmp_path):
    path = tmp_path / "data.jsonl"
    write_jsonl(
        path,
        [
            {"id": f"d{i}", "text": f"sample number {i} with words token{i % 4}", "label": i % 2}
            for i in range(12)
        ],
    )
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
        out = tmp_path / "emb.jsonl"
        code = main(
            ["analyze", "--input", str(single_file), "--embeddings-out", str(out), "--top", "0"]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 12
        assert len(rows[0]["vector"]) == 64


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

    def test_backend_abort_exits_3_with_checkpoint(self, synth_run, tmp_path, capsys):
        corpus, rules = synth_run
        broken = tmp_path / "broken-rules.json"
        spec = json.loads(rules.read_text())
        spec["fail_after_generate_calls"] = 5
        broken.write_text(json.dumps(spec))
        ckpt = tmp_path / "ckpt3"
        code = main(
            [
                "run",
                "--input", str(corpus),
                "--rules", str(broken),
                "--out", str(tmp_path / "out.jsonl"),
                "--checkpoint-dir", str(ckpt),
            ]
        )
        assert code == 3
        assert (ckpt / "iteration_000.jsonl").exists()
        assert (ckpt / "journal_001.jsonl").exists()

        # resume with working rules completes from the checkpoint
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

    def test_bad_rates_usage_error(self, tmp_path):
        code = main(
            ["synth", "--planted-token", "z", "--bias-rate", "0.1",
             "--background-rate", "0.9",
             "--out-corpus", str(tmp_path / "c.jsonl"),
             "--out-rules", str(tmp_path / "r.json")]
        )
        assert code == 1


class TestReport:
    def test_report_outputs(self, synth_run, tmp_path, capsys):
        corpus, rules = synth_run
        out = tmp_path / "after.jsonl"
        assert main(["run", "--input", str(corpus), "--rules", str(rules), "--out", str(out)]) == 0
        capsys.readouterr()
        json_path = tmp_path / "rep.json"
        csv_path = tmp_path / "rep.csv"
        code = main(
            [
                "report",
                "--before", str(corpus),
                "--after", str(out),
                "--terms", "zonk",
                "--out-json", str(json_path),
                "--out-csv", str(csv_path),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["term_counts"]["zonk"]["delta"] < 0
        assert json_path.exists() and csv_path.exists()

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


RULES = {"generation": [{"pattern": "token0", "replacement": "word"}]}
BAD_ITERATION = {"iterations": [{"iteration": 1, "bogus": 0}]}
RUN = ["run", "--input", "{data}", "--rules", "{tmp}/rules.json", "--out", "{tmp}/out.jsonl"]
REPORT = ["report", "--before", "{data}", "--after", "{data}", "--trace", "{tmp}/trace.json"]
RESUME = RUN + ["--checkpoint-dir", "{tmp}/ckpt"]
CHECK = ["check-shortcut", "--attributions", "{tmp}/attr.jsonl"]


def attribution(**fields):
    row = {"doc_id": "d", "attributions": [[1.0], [2.0]], "predicted_full": 1, "true_label": 0}
    return json.dumps({**row, **fields}) + "\n"


# (files to write: raw text, or a value written as JSON; argv; exit code)
ERROR_CASES = {
    "config-malformed": ({"config.json": "{"}, RUN + ["--config", "{tmp}/config.json"], 2),
    "config-not-object": ({"config.json": [1]}, RUN + ["--config", "{tmp}/config.json"], 2),
    "config-seed-field": ({"config.json": {"seed": 7}}, RUN + ["--config", "{tmp}/config.json"], 1),
    "config-bad-k": ({"config.json": {"k": "ten"}}, RUN + ["--config", "{tmp}/config.json"], 1),
    "rules-malformed": ({"rules.json": "{"}, RUN, 2),
    "rules-not-object": ({"rules.json": ["x"]}, RUN, 2),
    "rules-generation-not-list": ({"rules.json": {"generation": "x"}}, RUN, 1),
    "rules-replacements-string": (
        {"rules.json": {"generation": [{"pattern": "a", "replacements": "ab"}]}}, RUN, 1
    ),
    "report-trace-malformed": ({"trace.json": "{"}, REPORT, 2),
    "report-trace-list": ({"trace.json": []}, REPORT, 2),
    "report-trace-unknown-key": ({"trace.json": BAD_ITERATION}, REPORT, 2),
    "resume-trace-malformed": ({"ckpt/trace.json": "{"}, RESUME, 2),
    "resume-trace-list": ({"ckpt/trace.json": []}, RESUME, 2),
    "resume-trace-unknown-key": ({"ckpt/trace.json": BAD_ITERATION}, RESUME, 2),
    "attributions-not-nested": ({"attr.jsonl": attribution(attributions=[1.0, 2.0])}, CHECK, 2),
    "attributions-not-numbers": ({"attr.jsonl": attribution(attributions=[[{}]])}, CHECK, 2),
    "subsets-not-list": ({"attr.jsonl": attribution(subsets=5)}, CHECK, 2),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_bad_file_maps_onto_exit_code(case, single_file, tmp_path, capsys):
    files, argv, expected = ERROR_CASES[case]
    files = {"rules.json": RULES, **files}
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    argv = [a.format(tmp=tmp_path, data=single_file) for a in argv]

    assert main(argv) == expected
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    kind = "configuration" if expected == 1 else "data"
    assert [line for line in lines if line.startswith("razor:")] == [lines[-1]]
    assert lines[-1].startswith(f"razor: {kind} error:")
    assert "Traceback" not in err
