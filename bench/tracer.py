"""Span tracing of a razor run from outside the package, and the per-layer
metrics computed from the spans.

``Tracer.install`` replaces razor's functions at the names their callers look
them up by (``razor.pipeline.compute_embeddings``,
``razor.rewriter.surface_embedding``, ``razor.backends.requests.post``, ...)
with wrappers that record a span per call. Nothing under ``src/`` changes.

A span records its name, start, end and parent: the span open on the same
thread, or, for a ``--jobs`` worker thread, the gather span that submitted
the work. Spans stay in memory until the run ends. Every ``*_s`` layer metric
is self time: the span's duration minus the part of it its children cover,
so the layer times of one run do not overlap. ``backends.busy_s`` and the
call percentiles are the exception: they are whole backend calls.
"""

from __future__ import annotations

import functools
import math
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "backends.generate_calls": "count",
    "backends.verify_calls": "count",
    "backends.busy_s": "s",
    "backends.call_p50_ms": "ms",
    "backends.call_p99_ms": "ms",
    "backends.call_samples": "count",
    "backends.concurrency": "ratio",
    "backends.attempts": "count",
    "backends.retries": "count",
    "backends.failures": "count",
    "backends.error_rate": "ratio",
    "surface.stats_s": "s",
    "surface.embed_s": "s",
    "surface.embed_docs": "count",
    "surface.score_s": "s",
    "surface.candidate_embed_calls": "count",
    "surface.candidate_embed_s": "s",
    "rewriter.select_s": "s",
    "rewriter.generate_s": "s",
    "rewriter.verify_s": "s",
    "rewriter.candidates_per_generate": "ratio",
    "rewriter.verified_frac": "ratio",
    "pipeline.iterations": "count",
    "pipeline.selected": "count",
    "pipeline.replaced": "count",
    "pipeline.replaced_per_selected": "ratio",
    "pipeline.rank_s": "s",
    "pipeline.gather_s": "s",
    "pipeline.commit_s": "s",
    "pipeline.checkpoint_s": "s",
    "pipeline.checkpoint_bytes": "bytes",
    "pipeline.journal_s": "s",
    "pipeline.journal_records": "count",
    "corpus.load_s": "s",
    "corpus.save_s": "s",
    "corpus.replace_text_calls": "count",
    "evalkit.report_s": "s",
    "evalkit.bleu_s": "s",
    "evalkit.bleu_pairs": "count",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "value", "failed")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.value = 0
        self.failed = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._worker_parent: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else self._worker_parent)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, fn, name: str, value=None, parents_workers: bool = False):
        """``fn`` recording a span per call; ``value(args, result)`` sets the
        span's count. ``parents_workers`` makes the span the parent of spans
        opened on threads that have none open (the ``--jobs`` pool)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            if parents_workers:
                outer, self._worker_parent = self._worker_parent, span
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    span.value = value(args, result)
                return result
            finally:
                if parents_workers:
                    self._worker_parent = outer
                self.close(span)

        return traced

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **kwargs))

    def install(self) -> None:
        """Wrap razor's layer boundaries for the rest of this process."""
        import razor.backends
        import razor.evalkit
        import razor.pipeline
        import razor.rewriter

        pipeline, rewriter = razor.pipeline, razor.rewriter
        self.patch(pipeline, "corpus_stats", "surface.stats")
        self.patch(pipeline, "compute_embeddings", "surface.embed", value=lambda a, r: len(r))
        self.patch(pipeline, "class_alignment_objective", "surface.score")
        self.patch(pipeline, "shortcut_scores", "surface.score")
        self.patch(pipeline, "surface_embedding", "surface.candidate_embed")
        self.patch(rewriter, "surface_embedding", "surface.candidate_embed")
        self.patch(pipeline, "replace_text", "corpus.replace_text")
        self.patch(rewriter, "replace_text", "corpus.replace_text")
        self.patch(pipeline, "save_dataset", "corpus.save")
        self.patch(pipeline, "generate_candidates", "rewriter.generate", value=lambda a, r: len(r))
        self.patch(pipeline, "verify_label", "rewriter.verify", value=lambda a, r: int(r))
        self.patch(pipeline, "select_replacement", "rewriter.select")
        self.patch(pipeline, "run_iteration", "pipeline.iteration")
        self.patch(pipeline, "rank_and_select", "pipeline.rank")
        self.patch(pipeline, "_gather_candidates", "pipeline.gather", parents_workers=True)
        self.patch(pipeline.RewriteJournal, "record", "pipeline.journal")
        self.patch(pipeline.Checkpoint, "write_snapshot", "pipeline.checkpoint",
                   value=lambda a, r: a[0].snapshot_path(a[2]).stat().st_size)
        self.patch(pipeline.Checkpoint, "write_traces", "pipeline.checkpoint",
                   value=lambda a, r: a[0].trace_path.stat().st_size)
        self.patch(razor.evalkit, "corpus_bleu", "evalkit.bleu", value=lambda a, r: len(a[0]))
        razor.backends.requests = _TracedRequests(razor.backends.requests, self)

    def wrap_backend(self, backend) -> None:
        """Trace the instance's ``generate`` and ``verify``, the names
        ``razor.rewriter`` calls them by."""
        backend.generate = self.wrap(backend.generate, "backends.generate")
        backend.verify = self.wrap(backend.verify, "backends.verify")


class _TracedRequests:
    """Stands in for the ``requests`` module inside ``razor.backends`` so each
    ``requests.post`` is one attempt span; a status >= 400 or a raised error
    marks the attempt failed. Every other attribute is the real module's."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def post(self, *args, **kwargs):
        with self._tracer.span("backends.post") as span:
            span.failed = True  # until a response below 400 arrives
            response = self._real.post(*args, **kwargs)
            span.failed = response.status_code >= 400
            return response


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (children of a gather span run in parallel, so their sum can exceed it)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(id(span), ()), key=lambda c: c.start):
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[id(span)] = span.end - span.start - covered
    return out


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(spans: list[Span], traces: list[dict]) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_ratio``, from one traced
    run's spans and its iteration traces (``IterationTrace.to_dict()``)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def self_s(name: str) -> float:
        return sum(own[id(s)] for s in by_name[name])

    def count(name: str) -> int:
        return len(by_name[name])

    def total(name: str) -> int:
        return sum(s.value for s in by_name[name])

    calls = by_name["backends.generate"] + by_name["backends.verify"]
    latencies = sorted((s.end - s.start) * 1000.0 for s in calls)
    busy = sum(s.end - s.start for s in calls)
    gather_wall = sum(s.end - s.start for s in by_name["pipeline.gather"])
    posts = by_name["backends.post"]
    posts_per_call: dict[int, int] = defaultdict(int)
    for post in posts:
        if post.parent is not None:
            posts_per_call[id(post.parent)] += 1
    failures = sum(1 for p in posts if p.failed)
    selected = sum(len(t["selected_ids"]) for t in traces)
    replaced = sum(len(t["replaced_ids"]) for t in traces)
    generates = count("backends.generate")
    verify_labels = count("rewriter.verify")
    return {
        "backends.generate_calls": generates,
        "backends.verify_calls": count("backends.verify"),
        "backends.busy_s": busy,
        "backends.call_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "backends.call_p99_ms": _nearest_rank(latencies, 0.99),
        "backends.call_samples": len(latencies),
        "backends.concurrency": busy / gather_wall if gather_wall else 0.0,
        "backends.attempts": len(posts),
        "backends.retries": sum(n - 1 for n in posts_per_call.values()),
        "backends.failures": failures,
        "backends.error_rate": failures / len(posts) if posts else 0.0,
        "surface.stats_s": self_s("surface.stats"),
        "surface.embed_s": self_s("surface.embed"),
        "surface.embed_docs": total("surface.embed"),
        "surface.score_s": self_s("surface.score"),
        "surface.candidate_embed_calls": count("surface.candidate_embed"),
        "surface.candidate_embed_s": self_s("surface.candidate_embed"),
        "rewriter.select_s": self_s("rewriter.select"),
        "rewriter.generate_s": self_s("rewriter.generate"),
        "rewriter.verify_s": self_s("rewriter.verify"),
        "rewriter.candidates_per_generate": total("rewriter.generate") / generates if generates else 0.0,
        "rewriter.verified_frac": total("rewriter.verify") / verify_labels if verify_labels else 0.0,
        "pipeline.iterations": len(traces),
        "pipeline.selected": selected,
        "pipeline.replaced": replaced,
        "pipeline.replaced_per_selected": replaced / selected if selected else 0.0,
        "pipeline.rank_s": self_s("pipeline.rank"),
        "pipeline.gather_s": self_s("pipeline.gather"),
        "pipeline.commit_s": self_s("pipeline.iteration"),
        "pipeline.checkpoint_s": self_s("pipeline.checkpoint"),
        "pipeline.checkpoint_bytes": total("pipeline.checkpoint"),
        "pipeline.journal_s": self_s("pipeline.journal"),
        "pipeline.journal_records": count("pipeline.journal"),
        "corpus.load_s": self_s("corpus.load"),
        "corpus.save_s": self_s("corpus.save"),
        "corpus.replace_text_calls": count("corpus.replace_text"),
        "evalkit.report_s": self_s("evalkit.report"),
        "evalkit.bleu_s": self_s("evalkit.bleu"),
        "evalkit.bleu_pairs": total("evalkit.bleu"),
        "trace.spans": len(spans),
    }
