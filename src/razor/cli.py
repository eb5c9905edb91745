"""Command-line entry point.

Subcommands: analyze (score and rank documents), rewrite (one debiasing
pass), run (full loop with checkpointing), synth (planted-bias corpus),
report (before/after measurements), check-shortcut (attribution verdicts).

Exit codes: 0 success, 1 usage/configuration error, 2 data error, 3 backend
error. Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields

from . import __version__
from .attribution import (
    attribution_mass,
    is_shortcut,
    json_positions,
    load_attribution_records,
    mass_inequality_holds,
)
from .backends import HttpBackend, MockBackend
from .corpus import SCHEMAS, json_id, load_dataset, parse_label_names, read_json, read_json_lines, save_dataset
from .errors import BackendError, ConfigError, DataError, RazorError
from .evalkit import BiasSpec, emit_report, generate_biased_corpus
from .pipeline import Checkpoint, RunConfig, read_trace_file, run_razor, write_trace_file
from .rewriter import GeneratorConfig
from .surface import (
    ClassLedger,
    class_alignment_objective,
    compute_embeddings,
    corpus_stats,
    embedding_rows,
    shortcut_scores,
)

log = logging.getLogger("razor")


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract: usage errors exit 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="input dataset (JSONL)")
    parser.add_argument(
        "--schema", choices=sorted(SCHEMAS), default="single", help="line schema of the dataset"
    )
    parser.add_argument(
        "--labels",
        default=None,
        help='label set declaration, e.g. "0=refutes,1=supports" (inferred if omitted)',
    )


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    _add_dataset_args(parser)
    parser.add_argument("--config", default=None, help="run config JSON (flags override it)")
    parser.add_argument("--backend", choices=["mock", "http"], default=None)
    parser.add_argument("--rules", default=None, help="mock backend rules file (JSON)")
    parser.add_argument("--model", default=None, help="model name for the http backend")
    parser.add_argument("--checkpoint-dir", default=None)
    parser.add_argument("--out", required=True, help="where to write the final dataset")
    parser.add_argument("--report", default=None, help="report JSON path (default <out>.report.json)")
    parser.add_argument("--terms", default=None, help="comma-separated terms to track in the report")
    parser.add_argument("--k", type=float, default=None, help="documents per iteration (count or fraction)")
    parser.add_argument("--lambda", dest="lam", type=int, default=None, help="encoding width")
    parser.add_argument("--epsilon", type=float, default=None)
    parser.add_argument("--max-iterations", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None, help="parallel backend requests")
    parser.add_argument("--temperature", type=float, default=None)
    parser.add_argument("--top-p", type=float, default=None)
    parser.add_argument("--candidates-per-doc", type=int, default=None)
    parser.add_argument("--max-retries", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="razor", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="score documents and rank them by shortcut score")
    _add_dataset_args(p)
    p.add_argument("--lambda", dest="lam", type=int, default=64, help="encoding width")
    p.add_argument("--top", type=int, default=None, help="print the N highest-scoring rows")
    p.add_argument("--out", default=None, help="ranking JSONL path (stdout if omitted)")
    p.add_argument("--embeddings-out", default=None, help="export embeddings as JSONL")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run", help="full debiasing loop")
    _add_run_args(p)
    p.set_defaults(func=cmd_run, single_pass=False)

    p = sub.add_parser("rewrite", help="a single score-rewrite-replace pass")
    _add_run_args(p)
    p.set_defaults(func=cmd_run, single_pass=True)

    p = sub.add_parser("synth", help="generate a planted-bias corpus and mock rules")
    p.add_argument("--planted-token", required=True)
    p.add_argument("--biased-class", type=int, default=1)
    p.add_argument("--bias-rate", type=float, default=0.9)
    p.add_argument("--background-rate", type=float, default=0.1)
    p.add_argument("--corpus-size", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-corpus", default="corpus.jsonl")
    p.add_argument("--out-rules", default="rules.json")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="before/after bias measurements")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--schema", choices=sorted(SCHEMAS), default="single")
    p.add_argument("--labels", default=None)
    p.add_argument("--trace", default=None, help="trace.json from a run checkpoint")
    p.add_argument("--terms", default=None, help="comma-separated terms to measure")
    p.add_argument("--sample", type=int, default=None, help="BLEU over a seeded sample of rewritten pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-json", default=None)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("check-shortcut", help="formal shortcut verdicts from attribution records")
    p.add_argument("--attributions", required=True, help="attribution records (JSONL)")
    p.add_argument(
        "--subset-file",
        default=None,
        help='JSONL of {"doc_id", "positions"} to check (default: every recorded subset)',
    )
    p.set_defaults(func=cmd_check_shortcut)

    return parser


def _load_labels(arg):
    return parse_label_names(arg) if arg else None


def cmd_analyze(args) -> int:
    if args.top is not None and args.top < 0:
        raise ConfigError(f"--top must be >= 0, got {args.top}")
    dataset = load_dataset(args.input, args.schema, _load_labels(args.labels))
    table = corpus_stats(dataset)
    space = compute_embeddings(dataset, table, args.lam)
    ledger = ClassLedger(space)
    ranked, scores = shortcut_scores(space, ledger)
    objective = class_alignment_objective(ledger)
    rows = [
        {"id": space.ids[i], "label": int(space.labels[i]), "score": score}
        for i, score in zip(ranked.tolist(), scores.tolist())
    ]

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    if args.embeddings_out:
        with open(args.embeddings_out, "w", encoding="utf-8") as fh:
            for block, vectors in embedding_rows(dataset, table, args.lam):
                for i, vector in zip(block.tolist(), vectors.tolist()):
                    fh.write(json.dumps({"id": space.ids[i], "vector": vector}) + "\n")
    if args.top is not None:
        for row in rows[: args.top]:
            print(json.dumps(row, ensure_ascii=False))
    elif not args.out:
        for row in rows:
            print(json.dumps(row, ensure_ascii=False))
    log.info(
        "%d documents, %d scoreable, %d excluded; objective %.6f",
        len(dataset),
        len(scores),
        len(dataset) - len(scores),
        objective,
    )
    return 0


def _build_run_config(args) -> RunConfig:
    """The config file's fields, overridden by every flag given; each flag's
    dest is the name of its RunConfig or GeneratorConfig field."""
    data = read_json(args.config) if args.config else {}
    try:
        gen = dict(data.pop("generator", {}))
        for fields_of, target in ((RunConfig, data), (GeneratorConfig, gen)):
            for f in fields(fields_of):
                if (value := getattr(args, f.name, None)) is not None:
                    target[f.name] = value
        if args.single_pass:
            data["max_iterations"] = 1
        return RunConfig(generator=GeneratorConfig(**gen), **data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad run config: {exc}") from None


def _make_backend(args, config: RunConfig):
    if config.generator.backend == "mock":
        if not args.rules:
            raise ConfigError("mock backend requires --rules")
        return MockBackend.from_rules_file(args.rules)
    if config.generator.backend == "http":
        if not config.generator.model:
            raise ConfigError("http backend requires a model name (--model)")
        return HttpBackend(model=config.generator.model)
    raise ConfigError(f"unknown backend {config.generator.backend!r}")


def cmd_run(args) -> int:
    config = _build_run_config(args)
    backend = _make_backend(args, config)
    dataset = load_dataset(args.input, args.schema, _load_labels(args.labels))
    checkpoint = Checkpoint(args.checkpoint_dir) if args.checkpoint_dir else None
    result = run_razor(dataset, config, backend, checkpoint)
    save_dataset(result.dataset, args.out)

    terms = [t for t in (args.terms or "").split(",") if t]
    report = emit_report(dataset, result.dataset, result.traces, terms=terms)
    report_path = args.report or f"{args.out}.report.json"
    report.write_json(report_path)
    csv_path = (
        report_path[: -len(".json")] + ".csv"
        if report_path.endswith(".json")
        else report_path + ".csv"
    )
    report.write_csv(csv_path)
    if checkpoint is None:
        write_trace_file(f"{args.out}.trace.json", result.traces, result.stop_reason)
    summary = {
        "stop_reason": result.stop_reason,
        "iterations": len(result.traces),
        "replaced_total": sum(len(t.replaced_ids) for t in result.traces),
        "objective_trace": report.objective_trace,
        "output": args.out,
        "report": report_path,
    }
    print(json.dumps(summary))
    return 0


def cmd_synth(args) -> int:
    spec = BiasSpec(
        planted_token=args.planted_token,
        biased_class=args.biased_class,
        bias_rate=args.bias_rate,
        background_rate=args.background_rate,
        corpus_size=args.corpus_size,
        seed=args.seed,
    )
    dataset, rules = generate_biased_corpus(spec)
    save_dataset(dataset, args.out_corpus)
    with open(args.out_rules, "w", encoding="utf-8") as fh:
        json.dump(rules, fh, indent=2)
        fh.write("\n")
    print(json.dumps({"corpus": args.out_corpus, "rules": args.out_rules, "size": len(dataset)}))
    return 0


def cmd_report(args) -> int:
    labels = _load_labels(args.labels)
    before = load_dataset(args.before, args.schema, labels)
    after = load_dataset(args.after, args.schema, labels)
    traces = read_trace_file(args.trace)[0] if args.trace else []
    terms = [t for t in (args.terms or "").split(",") if t]
    report = emit_report(before, after, traces, terms=terms, sample=args.sample, seed=args.seed)
    if args.out_json:
        report.write_json(args.out_json)
    if args.out_csv:
        report.write_csv(args.out_csv)
    print(json.dumps(report.to_dict()))
    return 0


def cmd_check_shortcut(args) -> int:
    records = load_attribution_records(args.attributions)
    known = {record.doc_id for record in records}

    def subset(row: dict) -> tuple[str, frozenset[int]]:
        try:
            doc_id = json_id(row["doc_id"], "doc_id")
            positions = json_positions(row["positions"])
        except KeyError as exc:
            raise DataError(f"bad subset ({exc})") from None
        if doc_id not in known:
            raise DataError(f"no attribution record for doc_id {doc_id!r}")
        return doc_id, positions

    wanted: dict[str, list[frozenset[int]]] = {}
    if args.subset_file:
        with open(args.subset_file, "rb") as fh:
            for doc_id, positions in read_json_lines(args.subset_file, fh, subset):
                wanted.setdefault(doc_id, []).append(positions)

    for record in records:
        if args.subset_file:
            subsets = wanted.get(record.doc_id, [])
        else:
            subsets = sorted(record.subset_predictions, key=sorted)
        for positions in subsets:
            verdict = is_shortcut(positions, record)
            complement = frozenset(range(record.n_tokens)) - positions
            row = {
                "doc_id": record.doc_id,
                "positions": sorted(positions),
                "is_shortcut": verdict.is_shortcut,
                "reason": verdict.reason,
                "mass_inequality_holds": (
                    mass_inequality_holds(positions, record) if positions and complement else None
                ),
                "mass_subset": attribution_mass(positions, record),
                "mass_complement": attribution_mass(complement, record),
            }
            print(json.dumps(row))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"razor: configuration error: {exc}", file=sys.stderr)
        return 1
    except BackendError as exc:
        print(f"razor: backend error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"razor: data error: {exc}", file=sys.stderr)
        return 2
    except RazorError as exc:
        print(f"razor: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
