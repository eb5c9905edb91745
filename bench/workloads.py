"""Benchmark workloads: seeded input generators and what each run must produce.

Every workload is built from ``--seed`` alone and written to JSONL (plus a
mock-rules file) before any timing starts; razor only ever sees those files.
Sizes are set so that a 38-second measurement holds at least three
fresh-process runs of every workload, and about seven or more of the two
mock workloads; their median damps the speed swings of a shared host.

* ``short-mock``: ``razor.evalkit.generate_biased_corpus`` with ``zonk``
  planted at 0.9/0.1, 5k docs of 6-7 tokens, default ``RunConfig`` and the
  in-process ``MockBackend``. Tens of thousands of zero-latency backend calls.
* ``short-http``: the same generator at 500 docs, the real ``HttpBackend``
  against the loopback stub in ``stub.py`` (10 ms service delay), ``jobs`` =
  nproc. ``k`` is 0.2 so that the ~250 planted docs sit half-way between
  iteration boundaries (250 / 100 = 2.5): every seed then runs exactly four
  iterations, where ``k`` = 0.1 puts the count on a boundary and the run
  length jumps between six and seven iterations from seed to seed.
* ``long-3class``: this module's own ``claim_evidence`` corpus, 10k docs in 3
  classes, 20-40 token claims over a 4000-word Zipf vocabulary, one planted
  token per biased class, and mock rules with several ``replacements``.
  ``k`` is an absolute 250 and ``epsilon`` is 1e-9: one iteration over 10k
  docs improves the objective by ~5e-5 of its value, so the default epsilon
  (1e-4) would stop after one iteration, and the per-iteration recompute of the
  surface space is what this workload exists to measure.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

from check import file_sha256

PLANTED = "zonk"
SHORT_LABELS = {0: "negative", 1: "positive"}
LONG_LABELS = {0: "refutes", 1: "supports", 2: "neutral"}
LONG_PLANTED = {0: "zonk", 1: "blick"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    docs: int
    backend: str  # "mock" or "http"
    run_config: dict  # keyword arguments for razor.pipeline.RunConfig
    jobs_from_nproc: bool = False
    # True: every planted doc gets rewritten and every planted token vanishes.
    # False: the run must reach run_config["max_iterations"].
    removes_planted: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "short-mock",
            "5k short docs, zero-latency mock backend: backend bookkeeping, "
            "per-candidate scoring and the commit ledger dominate",
            docs=5_000,
            backend="mock",
            run_config={},
        ),
        Workload(
            "short-http",
            "500 short docs through the real HTTP client to a 10 ms loopback stub "
            "with jobs=nproc: per-request overhead, concurrency and retries",
            docs=500,
            backend="http",
            run_config={"k": 0.2},
            jobs_from_nproc=True,
        ),
        Workload(
            "long-3class",
            "10k long 3-class claim/evidence docs, small k: the per-iteration "
            "recompute of stats, embeddings and scores plus big snapshots",
            docs=10_000,
            backend="mock",
            run_config={"k": 250, "epsilon": 1e-9, "max_iterations": 3},
            removes_planted=False,
        ),
    )
}


def mock_rewrite(rules: list[dict], text: str) -> str:
    """What ``MockBackend`` generates for ``text`` under ``rules``. The stub
    and the collision filter ask razor's own mock, so they match it by
    construction."""
    from razor.backends import MockBackend
    from razor.corpus import make_document

    return MockBackend(rules).generate("", make_document("doc", text, 0), 0.0, 1.0, 0)


def _write_jsonl(rows: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _short_rows(docs: int, seed: int, drop_cross_label_collisions: bool):
    from razor.evalkit import BiasSpec, generate_biased_corpus

    dataset, rules = generate_biased_corpus(
        BiasSpec(PLANTED, biased_class=1, bias_rate=0.9, background_rate=0.1,
                 corpus_size=docs, seed=seed)
    )
    rows = [{"id": d.id, "text": d.mutable_text, "label": d.label} for d in dataset]
    if drop_cross_label_collisions:
        # The stub answers a verification from the label it saw when it
        # generated that exact candidate text. Two docs of different labels
        # whose rewrites coincide would make that answer ambiguous, so the
        # later of such a pair is left out of the corpus.
        owner: dict[str, int] = {}
        kept = []
        for row in rows:
            candidate = mock_rewrite(rules["generation"], row["text"])
            if candidate != row["text"]:
                if owner.setdefault(candidate, row["label"]) != row["label"]:
                    continue
            kept.append(row)
        rows = kept
    return rows, rules


def _long_vocabulary(size: int) -> list[str]:
    consonants, vowels = "bdfgklmnprstvz", "aeiou"
    syllables = [c + v for c in consonants for v in vowels]
    words = [a + b for a in syllables for b in syllables]
    random.Random(0).shuffle(words)  # fixed across seeds; only sampling is seeded
    return words[:size]


def _long_rows(docs: int, seed: int, vocab_size: int = 4000):
    rng = random.Random(seed)
    vocab = _long_vocabulary(vocab_size)
    cum_weights = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(vocab_size)))
    labels = sorted(LONG_LABELS)
    rows = []
    for i in range(docs):
        label = labels[i % len(labels)]
        claim = rng.choices(vocab, cum_weights=cum_weights, k=rng.randint(20, 40))
        for biased_class, token in LONG_PLANTED.items():
            if rng.random() < (0.9 if label == biased_class else 0.1):
                claim.insert(rng.randint(0, len(claim)), token)
        evidence = rng.choices(vocab, cum_weights=cum_weights, k=rng.randint(8, 12))
        rows.append({"id": f"claim-{i:06d}", "claim": " ".join(claim),
                     "evidence": " ".join(evidence), "label": label})
    # Planted tokens are deleted or swapped for one of the two most frequent
    # words; eight frequent words are each swapped for one of three rarer ones.
    # Every generate call draws each choice afresh, so a doc gets up to three
    # distinct candidates and a doc selected again gets new ones.
    rules = [
        {"pattern": rf"\s*\b{token}\b", "replacements": ["", f" {vocab[0]}", f" {vocab[1]}"]}
        for token in LONG_PLANTED.values()
    ] + [
        {"pattern": rf"\b{vocab[r]}\b", "replacements": [vocab[100 + 3 * r + j] for j in range(3)]}
        for r in range(2, 10)
    ]
    return rows, {"generation": rules, "verdict": "confirm", "seed": seed}


def build_inputs(workload: Workload, seed: int, directory: Path, docs: int | None = None) -> dict:
    """Write the workload's corpus and rules under ``directory``; return the
    description the worker and the output check need. ``docs`` overrides the
    corpus size (the self-tests use small corpora)."""
    docs = docs or workload.docs
    if workload.name == "long-3class":
        rows, rules = _long_rows(docs, seed)
        schema, labels, planted = "claim_evidence", LONG_LABELS, list(LONG_PLANTED.values())
        text_field, context_field = "claim", "evidence"
    else:
        rows, rules = _short_rows(docs, seed, workload.backend == "http")
        schema, labels, planted = "single", SHORT_LABELS, [PLANTED]
        text_field, context_field = "text", None
    input_path = directory / "input.jsonl"
    rules_path = directory / "rules.json"
    _write_jsonl(rows, input_path)
    rules_path.write_text(json.dumps(rules, indent=2) + "\n", encoding="utf-8")
    planted_docs = sum(1 for row in rows if set(planted) & set(row[text_field].split()))
    return {
        "input": str(input_path),
        "rules": str(rules_path),
        "schema": schema,
        "labels": {str(k): v for k, v in labels.items()},
        "planted": planted,
        "context_field": context_field,
        "planted_docs": planted_docs,
        "shape": {
            "docs": len(rows),
            "classes": len({row["label"] for row in rows}),
            "mean_tokens": sum(len(row[text_field].split()) for row in rows) / len(rows),
        },
        "sha256": file_sha256(input_path),
    }


def expected_iterations(workload: Workload, inputs: dict, k: int, stop_reason: str) -> int | None:
    """Iteration count a correct run must report for this stop reason, or None
    when the stop reason itself is wrong for the workload.

    On the short corpora every planted doc outranks every clean one and its
    rewrite (the token deleted) always improves, so ``k`` planted docs are
    replaced per iteration. The run ends either in the iteration that replaces
    the last of them (too small a gain: ``converged``) or in the next, which
    finds nothing to replace. The long corpus keeps improving at epsilon 1e-9
    and must hit its iteration cap.
    """
    if not workload.removes_planted:
        return workload.run_config["max_iterations"] if stop_reason == "max-iterations" else None
    removal = math.ceil(inputs["planted_docs"] / k)
    return {"converged": removal, "no-replacements": removal + 1}.get(stop_reason)
