"""Command-line entry point.

One binary, subcommand style: ``ingest`` builds normalized records from
a posts dump, ``embed`` precomputes embedding tables, ``rank`` emits
dynamic rankings, ``loss`` scores records against a log-probability
file, ``train-toy`` fits the bigram policy, ``eval`` produces a metric
report, and ``export-heatmap`` dumps a distance matrix as CSV.

Every run writes a manifest next to its main artifact (config echo,
input digests, package version) so outputs can be reproduced
byte-for-byte.  Exit codes: 0 success, 2 validation, 3 I/O or file
format, 4 numerically degenerate input.

Imported before numpy (``prefrank`` on the command line, ``python -m
prefrank.cli``), this module sets ``OPENBLAS_NUM_THREADS=1`` unless
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is
already set.  prefrank's BLAS calls are vector products, nearly all of
embedding length, which OpenBLAS does not split across threads, so its
worker pool would only burn CPU spin-waiting in every run; with one
thread, results also cannot depend on the host's core count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

# Must run before numpy loads OpenBLAS; a (non-empty) thread count the user set wins.
if "numpy" not in sys.modules and not any(
    os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__, corpus, evaluation, objective, pipeline, policy
from .apdf import DecayConfig
from .embed import (
    DEFAULT_DIM,
    DEFAULT_NGRAM,
    HashedNgramEmbedder,
    load_external_embeddings,
    write_external_embeddings,
)
from .errors import DegenerateInputError, SchemaError, ValidationError, naming_record
from .objective import COMPARISON_MODES, DEFAULT_ALPHA, MODE_LITERAL

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_DEGENERATE = 4


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# The flags that name an input file; a manifest digests each one that is set.
_INPUT_FLAGS = ("dump", "records", "logprobs", "generations", "embeddings", "external_scores")


def _write_manifest(out_path, args: argparse.Namespace, extra: dict | None = None):
    config = {}
    for key, value in sorted(vars(args).items()):
        if key == "func":
            continue
        if isinstance(value, Path):
            value = str(value)
        config[key] = value
    manifest = {
        "command": args.command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in map(vars(args).get, _INPUT_FLAGS) if p},
        "version": __version__,
    }
    if extra:
        manifest.update(extra)
    manifest_path = str(out_path) + ".manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _parse_ks(value: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(tok) for tok in value.split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationError(f"bad k list {value!r}: {exc}") from exc
    if not ks or any(k < 1 for k in ks):
        raise ValidationError(f"k values must be positive integers, got {value!r}")
    return ks


def _timestamp_flag(flag: str, value: str) -> datetime:
    try:
        return corpus.parse_timestamp(value)
    except ValueError:
        raise ValidationError(f"{flag} must be an ISO-8601 timestamp, got {value!r}") from None


def _decay_config(args, records) -> DecayConfig | None:
    if args.no_decay:
        return None
    days = args.half_life_days
    if not 0.0 < days <= timedelta.max.days or not timedelta(days=days):
        raise ValidationError(
            f"--half-life-days must be at least one microsecond and at most "
            f"{timedelta.max.days} days, got {days}"
        )
    if args.reference_time is not None:
        reference = _timestamp_flag("--reference-time", args.reference_time)
    else:
        # Default to the newest timestamp in the data so runs are
        # reproducible from their inputs alone.
        stamps = [r.question_created_at for r in records]
        stamps += [c.created_at for r in records for c in r.candidates]
        reference = max(stamps) if stamps else datetime.now(timezone.utc)
    return DecayConfig(reference_time=reference, half_life=timedelta(days=days))


def _embedding_source(args):
    """Returns (embedder, table, name) from the common embedding flags."""
    if getattr(args, "embeddings", None):
        return None, load_external_embeddings(args.embeddings), f"external:{args.embeddings}"
    embedder = HashedNgramEmbedder(dim=args.dim, ngram=args.ngram)
    return embedder, None, f"hashed_ngram(dim={args.dim},ngram={args.ngram})"


def _perception_args(args, records) -> dict:
    """`build_perception`'s keywords from the embedding and decay flags."""
    embedder, table, _ = _embedding_source(args)
    return {"embedder": embedder, "table": table, "decay": _decay_config(args, records)}


def _read_by_record(path, what: str, field: str, convert) -> dict:
    """`{record_id: convert(row[field])}` from JSONL; a bad or repeated row is an error."""
    values = {}
    for lineno, row in corpus.iter_jsonl(path):
        try:
            record_id, value = str(row["record_id"]), convert(row[field])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad {what} entry: {exc}", line=lineno) from exc
        if record_id in values:
            raise SchemaError(f"duplicate {what} for record {record_id!r}", line=lineno)
        values[record_id] = value
    return values


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"'text' must be a string, got {type(value).__name__}")
    return value


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"'score' must be finite, got {number}")
    return number


def cmd_ingest(args) -> int:
    result = corpus.parse_dump(args.dump)
    entries = list(result.entries)
    counts = {"parsed": len(entries)}
    entries = corpus.filter_accepted(entries)
    counts["accepted"] = len(entries)
    if args.require_code_block:
        entries = corpus.filter_code_block(entries)
    counts["code_block"] = len(entries)
    entries = corpus.clean_entries(entries)
    counts["cleaned"] = len(entries)
    cfg = corpus.FilterConfig(
        min_pool_size=args.min_pool_size,
        max_pool_size=args.max_pool_size,
        min_vote_gap=args.min_vote_gap,
        min_votes_per_response=args.min_votes_per_response,
        max_question_tokens=args.max_question_tokens,
        max_response_tokens=args.max_response_tokens,
        since=_timestamp_flag("--since", args.since) if args.since else None,
    )
    entries, rejections = corpus.apply_quality_filters(entries, cfg)
    counts["quality"] = len(entries)
    if args.gold:
        decay = _decay_config(args, entries)
        entries = [corpus.assign_gold_ranking(r, decay) for r in entries]
    corpus.write_records(args.out, entries)
    _write_manifest(args.out, args, extra={"counts": counts})
    for stage, count in counts.items():
        print(f"{stage}\t{count}")
    for reason, count in sorted(rejections.items()):
        print(f"rejected_{reason}\t{count}")
    for reason, count in sorted(result.warnings.items()):
        print(f"warning_{reason}\t{count}")
    return EXIT_OK


def cmd_embed(args) -> int:
    records = corpus.read_records(args.records)
    embedder = HashedNgramEmbedder(dim=args.dim, ngram=args.ngram)
    table: dict[str, np.ndarray] = {}
    for record in records:
        table[pipeline.question_key(record)] = embedder.embed(record.question_text)
        for candidate in record.candidates:
            table[pipeline.candidate_key(record, candidate.id)] = embedder.embed(candidate.content)
    if args.generations:
        generations = _read_by_record(args.generations, "generation", "text", _text)
        for record_id, text in generations.items():
            table[pipeline.generation_key(record_id)] = embedder.embed(text)
    write_external_embeddings(args.out, table)
    _write_manifest(args.out, args)
    print(f"embedded\t{len(table)}")
    return EXIT_OK


def cmd_rank(args) -> int:
    records = corpus.read_records(args.records)
    prepared = pipeline.prepare_records(records, **_perception_args(args, records))
    with open(args.out, "w", encoding="utf-8") as handle:
        for item in prepared:
            row = {"record_id": item.record.question_id, "order": item.perception.dynamic.order}
            handle.write(json.dumps(row) + "\n")
    _write_manifest(args.out, args)
    print(f"ranked\t{len(prepared)}")
    return EXIT_OK


def cmd_loss(args) -> int:
    records = corpus.read_records(args.records)
    table_logprobs = policy.load_logprob_file(args.logprobs)
    # Deterministic reduction order: records sorted by id.
    records = sorted(records, key=lambda r: r.question_id)
    prepared = pipeline.prepare_records(records, **_perception_args(args, records))
    rows = []
    for item in prepared:
        record, perception = item.record, item.perception
        pi_s = table_logprobs.scores_for(record)
        l_pa = float(-pi_s[perception.dynamic.top()])
        with naming_record(record.question_id):
            l_pc = objective.perceptual_comparison_loss(
                pi_s, perception.dynamic, perception.singles, perception.multi, args.mode
            )
        row = {"record_id": record.question_id, "mode": args.mode}
        row.update(objective.total_loss(l_pc, l_pa, args.alpha).to_dict())
        rows.append(row)
    with open(args.out, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    summary = {
        "n_records": len(rows),
        "mean_l_pa": float(np.mean([r["l_pa"] for r in rows])) if rows else 0.0,
        "mean_l_pc": float(np.mean([r["l_pc"] for r in rows])) if rows else 0.0,
        "mean_total": float(np.mean([r["total"] for r in rows])) if rows else 0.0,
        "alpha": args.alpha,
        "mode": args.mode,
    }
    _write_manifest(args.out, args, extra={"summary": summary})
    for key, value in summary.items():
        print(f"{key}\t{value}")
    return EXIT_OK


def cmd_train_toy(args) -> int:
    records = corpus.read_records(args.records)
    prepared = pipeline.prepare_records(records, **_perception_args(args, records))
    toy = policy.ToyPolicy.fresh(
        seed=args.seed,
        init_scale=args.init_scale,
        learning_rate=args.learning_rate,
        question_scale=args.question_scale,
    )
    result = policy.train(toy, prepared, epochs=args.epochs, alpha=args.alpha, mode=args.mode)
    toy.save(args.out_policy)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            for step, breakdown in enumerate(result.trace):
                row = {"step": step}
                row.update(breakdown.to_dict())
                handle.write(json.dumps(row) + "\n")
    totals = result.totals
    per_epoch = totals.reshape(args.epochs, -1).mean(axis=1) if totals.size else totals
    summary = {
        "steps": int(totals.size),
        "first_epoch_mean_loss": float(per_epoch[0]) if totals.size else None,
        "last_epoch_mean_loss": float(per_epoch[-1]) if totals.size else None,
    }
    _write_manifest(args.out_policy, args, extra={"summary": summary})
    for key, value in summary.items():
        print(f"{key}\t{value}")
    return EXIT_OK


def cmd_eval(args) -> int:
    records = corpus.read_records(args.records)
    generations = _read_by_record(args.generations, "generation", "text", _text)
    scores = None
    if args.external_scores:
        scores = _read_by_record(args.external_scores, "external score", "score", _finite)
    embedder, table, embedder_name = _embedding_source(args)
    report = evaluation.evaluate_dataset(
        records,
        generations,
        ks=_parse_ks(args.k),
        normalizer=args.normalizer,
        embedder=embedder,
        table=table,
        embedder_name=embedder_name,
        external_scores=scores,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    _write_manifest(args.out, args)
    for line in report.summary_lines():
        print(line)
    return EXIT_OK


def cmd_export_heatmap(args) -> int:
    records = corpus.read_records(args.records)
    matches = [r for r in records if r.question_id == args.record_id]
    if not matches:
        raise ValidationError(f"record {args.record_id!r} not found in {args.records}")
    perception = pipeline.build_perception(matches[0], **_perception_args(args, records))
    by_name = {m.attribute_name: m for m in perception.singles}
    by_name["multi"] = perception.multi
    if args.attribute not in by_name:
        raise ValidationError(
            f"unknown attribute {args.attribute!r}; expected one of {sorted(by_name)}"
        )
    np.savetxt(args.out, by_name[args.attribute].values, delimiter=",")
    _write_manifest(args.out, args)
    print(f"exported\t{args.attribute}\t{perception.multi.size}x{perception.multi.size}")
    return EXIT_OK


def _add_embedding_flags(parser: argparse.ArgumentParser, with_external: bool = True):
    parser.add_argument("--dim", type=int, default=DEFAULT_DIM, help="hashed embedder dimension")
    parser.add_argument("--ngram", type=int, default=DEFAULT_NGRAM, help="hashed embedder n-gram size")
    if with_external:
        parser.add_argument(
            "--embeddings",
            default=None,
            help="external embedding TSV (id<TAB>floats); overrides the hashed embedder",
        )


def _add_decay_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--half-life-days", type=float, default=365.0, help="popularity decay half-life")
    parser.add_argument("--no-decay", action="store_true", help="disable popularity time decay")
    parser.add_argument(
        "--reference-time",
        default=None,
        help="decay reference timestamp (ISO-8601); default: newest timestamp in the data",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefrank",
        description="Multi-attribute preference ranking, losses, and metrics for community QA",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a posts dump into normalized records")
    p.add_argument("dump", help="Posts XML dump")
    p.add_argument("--out", required=True, help="output records JSONL")
    p.add_argument("--min-pool-size", type=int, default=0)
    p.add_argument("--max-pool-size", type=int, default=0)
    p.add_argument("--min-vote-gap", type=int, default=0)
    p.add_argument("--min-votes-per-response", type=int, default=0)
    p.add_argument("--max-question-tokens", type=int, default=0)
    p.add_argument("--max-response-tokens", type=int, default=0)
    p.add_argument("--since", default=None, help="drop questions posted before this ISO timestamp")
    p.add_argument("--require-code-block", action="store_true")
    p.add_argument("--gold", action=argparse.BooleanOptionalAction, default=True,
                   help="attach gold rankings (accepted first, then decayed votes)")
    _add_decay_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("embed", help="write a hashed-embedding TSV for records (and generations)")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True, help="output TSV")
    p.add_argument("--generations", default=None, help="optional generations JSONL to embed too")
    _add_embedding_flags(p, with_external=False)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("rank", help="emit dynamic rankings per record")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True, help="output JSONL of {record_id, order}")
    _add_embedding_flags(p)
    _add_decay_flags(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("loss", help="per-record loss breakdowns from a logprob file")
    p.add_argument("--records", required=True)
    p.add_argument("--logprobs", required=True, help="JSON-Lines token logprob file")
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--mode", default=MODE_LITERAL, choices=list(COMPARISON_MODES))
    _add_embedding_flags(p)
    _add_decay_flags(p)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("train-toy", help="train the toy bigram policy")
    p.add_argument("--records", required=True)
    p.add_argument("--out-policy", required=True, help="output policy checkpoint")
    p.add_argument("--trace", default=None, help="optional per-step loss trace JSONL")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--learning-rate", type=float, default=policy.DEFAULT_LEARNING_RATE)
    p.add_argument("--init-scale", type=float, default=1e-3)
    p.add_argument("--question-scale", type=float, default=policy.DEFAULT_QUESTION_SCALE)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--mode", default=MODE_LITERAL, choices=list(COMPARISON_MODES))
    _add_embedding_flags(p)
    _add_decay_flags(p)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("eval", help="metric report for generations against records")
    p.add_argument("--records", required=True)
    p.add_argument("--generations", required=True, help="JSONL of {record_id, text}")
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--k", default="1,3", help="comma-separated k values")
    p.add_argument(
        "--normalizer",
        default=evaluation.NORMALIZER_PAPER_HALF,
        choices=list(evaluation.NORMALIZERS),
    )
    p.add_argument("--external-scores", default=None, help="optional JSONL of {record_id, score}")
    _add_embedding_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-heatmap", help="dump one record's distance matrix as CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--record-id", required=True)
    p.add_argument(
        "--attribute",
        default="multi",
        help="semantic, popularity, or multi",
    )
    p.add_argument("--out", required=True, help="output CSV (row-major, headerless)")
    _add_embedding_flags(p)
    _add_decay_flags(p)
    p.set_defaults(func=cmd_export_heatmap)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateInputError as exc:
        return _fail("degenerate_input", exc, EXIT_DEGENERATE)
    except (SchemaError, OSError) as exc:
        return _fail("io", exc, EXIT_IO)
    except (ValidationError, ValueError) as exc:
        return _fail("validation", exc, EXIT_VALIDATION)


def _fail(category: str, exc: Exception, code: int) -> int:
    print(json.dumps({"error": category, "message": str(exc)}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
