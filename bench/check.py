"""Output check for one benchmark run: a wrong output marks the run failed,
not just slow. Each function returns a list of problems; empty means pass."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def read_rows(path: str | Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_preserved(before: list[dict], after: list[dict], context_field: str | None) -> list[str]:
    """Size, ids (in order), labels and context must survive the run."""
    if len(before) != len(after):
        return [f"size changed: {len(before)} docs in, {len(after)} out"]
    problems = []
    for i, (a, b) in enumerate(zip(before, after)):
        if a["id"] != b["id"]:
            problems.append(f"line {i + 1}: id {a['id']!r} became {b['id']!r}")
        elif a["label"] != b["label"]:
            problems.append(f"doc {a['id']}: label {a['label']} became {b['label']}")
        elif context_field and a[context_field] != b.get(context_field):
            problems.append(f"doc {a['id']}: {context_field} changed")
        if len(problems) >= 5:
            break
    return problems


def check_objective(traces: list[dict]) -> list[str]:
    """Each iteration's objective must not decrease."""
    return [
        f"iteration {t['iteration']}: objective fell from {t['objective_before']!r} "
        f"to {t['objective_after']!r}"
        for t in traces
        if not t["objective_after"] >= t["objective_before"]
    ]


def check_stop(traces: list[dict], stop_reason: str, expected_iterations: int | None) -> list[str]:
    if expected_iterations is None:
        return [f"stop reason {stop_reason!r} is wrong for this workload"]
    if len(traces) != expected_iterations:
        return [f"{len(traces)} iterations, expected {expected_iterations} ({stop_reason})"]
    return []


def check_gaps(report: dict, planted: list[str], must_vanish: bool) -> list[str]:
    """A final frequency gap must be recorded for every planted token; on the
    short workloads every planted token is rewritten away, so it must be 0."""
    problems = []
    for token in planted:
        gap = report.get("frequency_gaps", {}).get(token)
        if gap is None:
            problems.append(f"no frequency gap recorded for {token!r}")
        elif must_vanish and gap["after"] != 0.0:
            problems.append(f"{token!r}: final gap {gap['after']} where 0 was expected")
        elif gap["after"] > gap["before"]:
            problems.append(f"{token!r}: gap grew from {gap['before']} to {gap['after']}")
    return problems


def check_same(label: str, values: list) -> list[str]:
    """Runs of the same code on the same input must agree exactly."""
    return [] if len(set(values)) <= 1 else [f"{label} differs between runs: {sorted(set(values))}"]


def check_stub_counts(stub: dict, generate_calls: int, verify_calls: int) -> list[str]:
    """The stub must have received each role's calls plus one retry per
    failure it injected: a doc sent twice shows up as a surplus."""
    problems = []
    for role, calls in (("generate", generate_calls), ("verify", verify_calls)):
        received, failed = stub["received"][role], stub["failed"][role]
        if received != calls + failed:
            problems.append(
                f"stub received {received} {role} requests; client made {calls} calls "
                f"and {failed} were retried"
            )
    if stub["received"].get("unknown"):
        problems.append(f"stub received {stub['received']['unknown']} unrecognised prompts")
    return problems
