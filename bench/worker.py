"""One timed razor run in a fresh process: what ``razor run`` does, through the
library, with the benchmark's own clock around each stage.

    python3 bench/worker.py --spec spec.json --workdir DIR --result out.json
        [--setup-only] [--trace]

Stages, each timed with ``time.perf_counter``:

* setup: ``import razor``, ``load_dataset``, backend and ``Checkpoint``
  construction (``--setup-only`` stops here);
* run: ``run_razor`` with the checkpoint in ``DIR/ckpt``;
* report: ``save_dataset`` of the output, ``emit_report`` and its JSON/CSV.

``--trace`` installs ``tracer.Tracer`` before loading and adds the per-layer
metrics to the result. The result JSON also carries what the output check
needs: call counts, iteration traces, stop reason and the report's gaps.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one timed razor run")
    parser.add_argument("--spec", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    workdir = Path(args.workdir)
    sys.path.insert(0, spec["src"])
    # The stub listens on loopback; a proxy from the environment must not see it.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"

    t_setup = time.perf_counter()
    import razor
    from razor.backends import HttpBackend, MockBackend
    from razor.evalkit import emit_report
    from razor.pipeline import Checkpoint, RunConfig, run_razor

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    def stage(name: str):
        return tracer.span(name) if tracer else nullcontext()

    labels = {int(k): v for k, v in spec["labels"].items()}
    with stage("corpus.load"):
        dataset = razor.load_dataset(spec["input"], spec["schema"], labels)
    if spec["backend"] == "http":
        backend = HttpBackend(
            model="stub", base_url=spec["base_url"], api_key="bench",
            retry_backoff=spec["retry_backoff"],
        )
    else:
        backend = MockBackend.from_rules_file(spec["rules"])
    if tracer:
        tracer.wrap_backend(backend)
    checkpoint = Checkpoint(workdir / "ckpt")
    setup_s = time.perf_counter() - t_setup
    if args.setup_only:
        _write(args.result, {"setup_s": setup_s})
        return 0

    config = RunConfig(jobs=spec["jobs"], **spec["run_config"])
    t_run = time.perf_counter()
    with stage("pipeline.run"):
        result = run_razor(dataset, config, backend, checkpoint)
    run_s = time.perf_counter() - t_run

    t_report = time.perf_counter()
    out_path = workdir / "output.jsonl"
    with stage("corpus.save"):
        razor.save_dataset(result.dataset, out_path)
    with stage("evalkit.report"):
        report = emit_report(dataset, result.dataset, result.traces, terms=spec["planted"])
        report.write_json(workdir / "report.json")
        report.write_csv(workdir / "report.csv")
    report_s = time.perf_counter() - t_report

    traces = [t.to_dict() for t in result.traces]
    _write(args.result, {
        "setup_s": setup_s,
        "run_s": run_s,
        "report_s": report_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "generate_calls": backend.calls.count("generate"),
        "verify_calls": backend.calls.count("verify"),
        "stop_reason": result.stop_reason,
        "traces": traces,
        "output": str(out_path),
        "report": str(workdir / "report.json"),
        "layers": layer_metrics(tracer.spans, traces) if tracer else None,
    })
    return 0


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
