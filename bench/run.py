"""razor benchmark: end-to-end and per-layer numbers for one workload.

    python3 bench/run.py --workload short-mock --seed 1 --seconds 38 --trace 0

Run from the root of a razor checkout; the program is imported from ``src/``
and nothing is installed. Each call:

1. builds the workload's input from ``--seed`` under ``.bench_work/`` (see
   ``workloads.py``) and, for ``short-http``, starts the loopback stub;
2. repeats fresh-process razor runs (``worker.py``) for about ``--seconds``
   seconds, after one untimed set-up that compiles and caches. With
   ``--trace 0`` no run is traced, and after every run a few extra processes
   time set-up alone; with ``--trace 1`` untraced and traced runs alternate,
   which also gives the tracing overhead;
3. checks every run's output (``check.py``) and that runs agree exactly;
4. writes a record with inputs, provenance and every run's numbers to
   ``.bench_results/`` and prints, as its last stdout line,
   ``{"correct", "attempted", "failed", "metrics"}``: the medians of the
   end-to-end metrics (``--trace 0``) or of the per-layer metrics
   (``--trace 1``). ``attempted`` counts timed razor runs and ``failed`` the
   ones that crashed or failed their check.

Exits 2 without a result when there is no ``src/razor`` to benchmark, and 1
(after printing ``"correct": false``) when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import stub
from check import (check_gaps, check_objective, check_preserved, check_same, check_stop,
                   check_stub_counts, file_sha256, read_rows)
from tracer import LAYER_METRICS
from workloads import WORKLOADS, build_inputs, expected_iterations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# report_s is recorded for every run but not gated: see README.md.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "docs_per_s": "doc/s",
    "peak_rss_mb": "MB",
    "backend_calls": "count",
    "calls_per_replacement": "ratio",
    "objective_gain": "ratio",
}

# HttpBackend sleeps retry_backoff x attempt before a retry (1 s by default);
# one service delay keeps the injected failures from turning the run into sleep.
RETRY_BACKOFF_S = 0.01
# Set-up-only processes after each timed run: set-up is short, so many
# samples spread over the whole window keep its median steady.
SETUP_SAMPLES_PER_RUN = 2
WORKER_TIMEOUT_S = 120


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="razor benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "razor" / "__init__.py").is_file():
        print(f"no razor sources at {SRC}; run from the root of a razor checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record, result = Bench(WORKLOADS[args.workload], args.seed, work).run(
            args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


class Bench:
    """One workload's input, stub and runs; ``docs`` shrinks the corpus for
    the self-tests."""

    def __init__(self, workload, seed: int, work: Path, docs: int | None = None):
        from razor.pipeline import resolve_k

        self.workload = workload
        self.work = work
        self.inputs = build_inputs(workload, seed, work, docs)
        self.k = resolve_k(workload.run_config.get("k", 0.1), self.inputs["shape"]["docs"])
        self.before = read_rows(self.inputs["input"])
        self.spec = {
            "src": str(SRC),
            **{key: self.inputs[key] for key in ("input", "rules", "schema", "labels", "planted")},
            "backend": workload.backend,
            "run_config": workload.run_config,
            "jobs": len(os.sched_getaffinity(0)) if workload.jobs_from_nproc else 1,
            "retry_backoff": RETRY_BACKOFF_S,
        }
        self.stub_proc = None
        self.port = None
        self.reference_sha256 = None
        self.runs = 0

    def run(self, seconds: float, trace: bool) -> tuple[dict, dict]:
        record = {
            "workload": self.workload.name,
            "why": self.workload.why,
            "trace": trace,
            "inputs": {k: self.inputs[k] for k in ("sha256", "shape", "planted", "planted_docs")},
            "provenance": provenance(),
            "config": {"k": self.k, "jobs": self.spec["jobs"], **self.workload.run_config},
            "setup_only_s": [],
            "runs": [],
            "problems": [],
        }
        try:
            if self.workload.backend == "http":
                self._start_stub()
                record["stub"] = {"delay_s": stub.DELAY_S, "fail_every": stub.FAIL_EVERY,
                                  "retry_backoff_s": RETRY_BACKOFF_S}
                self.reference_sha256 = record["reference_sha256"] = self._reference_sha256()
            self._setup_only()
            start = time.monotonic()
            longest = 0.0
            while True:
                traced = trace and len(record["runs"]) % 2 == 1
                began = time.monotonic()
                run = self._timed_run(traced)
                record["runs"].append(run)
                if run["problems"]:
                    break
                if not trace:
                    for _ in range(SETUP_SAMPLES_PER_RUN):
                        record["setup_only_s"].append(self._setup_only())
                longest = max(longest, time.monotonic() - began)
                enough = len(record["runs"]) >= (2 if trace else 1)
                if enough and time.monotonic() + longest > start + seconds:
                    break
        finally:
            self._stop_stub()
        runs = record["runs"]
        for run in runs:
            record["problems"] += [f"run {run['index']}: {p}" for p in run["problems"]]
        for key in ("output_sha256", "backend_calls", "iterations", "final_gaps"):
            record["problems"] += check_same(key, [json.dumps(r.get(key)) for r in runs])
        failed = sum(1 for r in runs if r["problems"])
        metrics = self._layer_metrics(runs) if trace else self._end_to_end(runs, record)
        result = {
            "correct": not record["problems"],
            "attempted": len(runs),
            "failed": failed,
            "metrics": metrics,
        }
        record["result"] = result
        return record, result

    # -- runs -----------------------------------------------------------------

    def _worker(self, *flags: str, spec: dict | None = None) -> dict:
        rundir = self.work / f"run{self.runs}"
        self.runs += 1
        rundir.mkdir()
        spec_path = rundir / "spec.json"
        spec_path.write_text(json.dumps(spec or self.spec), encoding="utf-8")
        result_path = rundir / "result.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--spec", str(spec_path),
             "--workdir", str(rundir), "--result", str(result_path), *flags],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["dir"] = rundir
        return result

    def _setup_only(self) -> float:
        out = self._worker("--setup-only")
        shutil.rmtree(out["dir"], ignore_errors=True)
        return out["setup_s"]

    def _timed_run(self, traced: bool) -> dict:
        index = self.runs
        self._stub_get("/reset")
        try:
            out = self._worker(*(["--trace"] if traced else []))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            return {"index": index, "traced": traced, "problems": [f"run crashed: {exc}"]}
        counts = self._stub_get("/stats")
        traces = out["traces"]
        report = json.loads(Path(out["report"]).read_text(encoding="utf-8"))
        calls = out["generate_calls"] + out["verify_calls"]
        replaced = sum(len(t["replaced_ids"]) for t in traces)
        run = {
            "index": index,
            "traced": traced,
            "setup_s": out["setup_s"],
            "run_s": out["run_s"],
            "report_s": out["report_s"],
            "peak_rss_mb": out["peak_rss_mb"],
            "backend_calls": calls,
            "generate_calls": out["generate_calls"],
            "verify_calls": out["verify_calls"],
            "replaced": replaced,
            "iterations": len(traces),
            "stop_reason": out["stop_reason"],
            "objective_before": traces[0]["objective_before"],
            "objective_after": traces[-1]["objective_after"],
            "final_gaps": {t: g["after"] for t, g in report["frequency_gaps"].items()},
            "output_sha256": file_sha256(out["output"]),
            "layers": out["layers"],
        }
        problems = check_preserved(self.before, read_rows(out["output"]), self.inputs["context_field"])
        problems += check_objective(traces)
        problems += check_stop(traces, out["stop_reason"],
                               expected_iterations(self.workload, self.inputs, self.k, out["stop_reason"]))
        problems += check_gaps(report, self.inputs["planted"], self.workload.removes_planted)
        if self.reference_sha256 and run["output_sha256"] != self.reference_sha256:
            problems.append("output differs from the jobs=1 mock-backend run on the same input")
        if counts is not None:
            run["stub"] = counts
            problems += check_stub_counts(counts, out["generate_calls"], out["verify_calls"])
            if traced:
                layers = out["layers"]
                if layers["backends.attempts"] != sum(counts["received"].values()):
                    problems.append("traced requests.post count differs from the stub's")
                if layers["backends.retries"] != sum(counts["failed"].values()):
                    problems.append("traced retries differ from the stub's injected failures")
        if traced and out["layers"]["backends.generate_calls"] != out["generate_calls"]:
            problems.append("traced generate spans differ from the backend's call log")
        run["problems"] = problems
        shutil.rmtree(out["dir"], ignore_errors=True)
        return run

    def _reference_sha256(self) -> str:
        """Output of a jobs=1 run of the same input through MockBackend with
        the same rules: what the concurrent HTTP run must reproduce."""
        out = self._worker(spec={**self.spec, "backend": "mock", "jobs": 1})
        sha = file_sha256(out["output"])
        shutil.rmtree(out["dir"], ignore_errors=True)
        return sha

    # -- metrics --------------------------------------------------------------

    def _end_to_end(self, runs: list[dict], record: dict) -> dict:
        docs = self.inputs["shape"]["docs"]
        values = {name: [] for name in END_TO_END}
        for run in runs:
            if "run_s" not in run:
                continue
            values["setup_s"].append(run["setup_s"])
            values["run_s"].append(run["run_s"])
            values["docs_per_s"].append(docs / (run["setup_s"] + run["run_s"] + run["report_s"]))
            values["peak_rss_mb"].append(run["peak_rss_mb"])
            values["backend_calls"].append(run["backend_calls"])
            values["calls_per_replacement"].append(run["backend_calls"] / max(1, run["replaced"]))
            values["objective_gain"].append(
                (run["objective_after"] - run["objective_before"]) / abs(run["objective_before"])
            )
        values["setup_s"] += record["setup_only_s"]
        metrics = _medians(values, END_TO_END)
        if self.workload.backend == "http" and values["run_s"]:
            expected = metrics["backend_calls"]["value"] * stub.DELAY_S / self.spec["jobs"]
            record["expected_run_s"] = expected
            record["run_s_deviation"] = metrics["run_s"]["value"] / expected - 1.0
        record["samples"] = {name: len(v) for name, v in values.items()}
        return metrics

    def _layer_metrics(self, runs: list[dict]) -> dict:
        traced = [r for r in runs if r["traced"] and r.get("layers")]
        values = {name: [r["layers"][name] for r in traced] for name in LAYER_METRICS
                  if name != "trace.overhead_ratio"}
        plain = [r["run_s"] for r in runs if not r["traced"] and "run_s" in r]
        if traced and plain:
            values["trace.overhead_ratio"] = [
                statistics.median(r["run_s"] for r in traced) / statistics.median(plain)
            ]
        return _medians(values, LAYER_METRICS)

    # -- stub -----------------------------------------------------------------

    def _start_stub(self) -> None:
        self.stub_proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--rules", self.inputs["rules"]],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        ready, _, _ = select.select([self.stub_proc.stdout], [], [], 30)
        line = self.stub_proc.stdout.readline() if ready else ""
        if not line.strip().isdigit():
            raise RuntimeError("loopback stub did not start")
        self.port = int(line)
        self.spec["base_url"] = f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def _stub_get(self, path: str) -> dict | None:
        """The stub's request counts (``/stats``), or clear them and its
        failure injection first (``/reset``); None without a stub."""
        if self.stub_proc is None:
            return None
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(f"http://127.0.0.1:{self.port}{path}", timeout=10) as resp:
            return json.loads(resp.read())

    def _stop_stub(self) -> None:
        if self.stub_proc is None:
            return
        self.stub_proc.terminate()
        try:
            self.stub_proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.stub_proc.kill()
            self.stub_proc.wait()
        self.stub_proc.stdout.close()
        self.stub_proc = None


def _medians(values: dict[str, list], units: dict[str, str]) -> dict:
    return {
        name: {"value": statistics.median(values[name]), "unit": units[name]}
        for name in units
        if values.get(name)
    }


def provenance() -> dict:
    import numpy
    import requests

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "requests": requests.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "platform": platform.platform(),
    }


if __name__ == "__main__":
    sys.exit(main())
