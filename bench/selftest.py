"""Self-tests of the benchmark: the output check rejects broken outputs, the
tracer's self time handles parallel children, BENCHMARK.json matches the code,
and a traced run of every workload emits every per-layer metric.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from check import (  # noqa: E402
    check_gaps,
    check_objective,
    check_preserved,
    check_same,
    check_stop,
    check_stub_counts,
)
from run import END_TO_END, Bench  # noqa: E402
from tracer import LAYER_METRICS, Span, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROWS = [
    {"id": "a", "claim": "x y", "evidence": "e1", "label": 0},
    {"id": "b", "claim": "y z", "evidence": "e2", "label": 1},
    {"id": "c", "claim": "z x", "evidence": "e3", "label": 2},
]


def test_preserved_output_passes():
    after = [dict(row, claim=row["claim"] + " w") for row in ROWS]
    assert check_preserved(ROWS, after, "evidence") == []


def test_dropped_doc_is_rejected():
    assert check_preserved(ROWS, ROWS[:2], "evidence")


def test_reordered_ids_are_rejected():
    assert check_preserved(ROWS, [ROWS[1], ROWS[0], ROWS[2]], "evidence")


def test_changed_label_is_rejected():
    after = [ROWS[0], dict(ROWS[1], label=0), ROWS[2]]
    assert check_preserved(ROWS, after, "evidence")


def test_changed_context_is_rejected():
    after = [ROWS[0], ROWS[1], dict(ROWS[2], evidence="other")]
    assert check_preserved(ROWS, after, "evidence")


def test_non_monotone_objective_is_rejected():
    traces = [
        {"iteration": 1, "objective_before": 1.0, "objective_after": 2.0},
        {"iteration": 2, "objective_before": 2.0, "objective_after": 1.5},
    ]
    assert check_objective(traces[:1]) == []
    assert len(check_objective(traces)) == 1


def test_wrong_stop_is_rejected():
    traces = [{}] * 3
    assert check_stop(traces, "no-replacements", 3) == []
    assert check_stop(traces, "no-replacements", 4)
    assert check_stop(traces, "max-iterations", None)


def test_gaps_must_be_recorded_and_vanish_on_short_workloads():
    report = {"frequency_gaps": {"zonk": {"before": 0.8, "after": 0.0}}}
    assert check_gaps(report, ["zonk"], must_vanish=True) == []
    assert check_gaps(report, ["zonk", "blick"], must_vanish=False)
    left = {"frequency_gaps": {"zonk": {"before": 0.8, "after": 0.1}}}
    assert check_gaps(left, ["zonk"], must_vanish=True)
    assert check_gaps(left, ["zonk"], must_vanish=False) == []


def test_runs_must_agree():
    assert check_same("sha", ["a", "a"]) == []
    assert check_same("sha", ["a", "b"])


def test_doc_sent_twice_shows_in_stub_counts():
    stub = {"received": {"generate": 31, "verify": 10, "unknown": 0},
            "failed": {"generate": 1, "verify": 0, "unknown": 0}}
    assert check_stub_counts(stub, 30, 10) == []
    assert check_stub_counts(stub, 27, 10)


def test_stub_reset_restores_failure_injection():
    from stub import StubState

    state = StubState([], delay=0.0, fail_every=2)
    prompt = "Answer with exactly one of: negative, positive.\nText: a b"
    assert [state.answer(prompt)[0] for _ in range(4)] == [200, 503, 200, 200]
    state.reset()
    assert [state.answer(prompt)[0] for _ in range(2)] == [200, 503]
    assert state.stats()["failed"]["verify"] == 1


def test_self_time_counts_parallel_children_once():
    gather = Span("pipeline.gather", None)
    gather.start, gather.end = 0.0, 10.0
    children = []
    for start, end in ((1.0, 5.0), (2.0, 6.0), (8.0, 12.0)):
        child = Span("rewriter.generate", gather)
        child.start, child.end = start, end
        children.append(child)
    own = self_times([gather, *children])
    assert own[id(gather)] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[id(children[0])] == pytest.approx(4.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("name,docs", [("short-mock", 400), ("short-http", 200), ("long-3class", 1500)])
def test_traced_run_emits_every_layer_metric(tmp_path, name, docs):
    record, result = Bench(WORKLOADS[name], 3, tmp_path, docs=docs).run(seconds=0, trace=True)
    assert record["problems"] == []
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert set(result["metrics"]) == set(LAYER_METRICS)
    assert result["metrics"]["pipeline.iterations"]["value"] >= 2


def test_untraced_run_emits_every_end_to_end_metric(tmp_path):
    record, result = Bench(WORKLOADS["short-mock"], 4, tmp_path, docs=400).run(seconds=0, trace=False)
    assert result["correct"] and record["problems"] == []
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
