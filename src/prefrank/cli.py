"""Command-line entry point.

One binary, subcommand style: ``ingest`` builds normalized records from
a posts dump, ``embed`` precomputes embedding tables, ``rank`` emits
dynamic rankings, ``loss`` scores records against a log-probability
file, ``train-toy`` fits the bigram policy, ``eval`` produces a metric
report, and ``export-heatmap`` dumps a distance matrix as CSV.

Every run writes a manifest next to its main artifact (config echo,
input digests, package version) so outputs can be reproduced
byte-for-byte.  Exit codes: 0 success, 1 internal (an exception not
mapped below, reported as its type and message), 2 validation, 3 I/O or
file format, 4 numerically degenerate input.  No traceback is printed.

This module imports only the standard library, `corpus`, `errors` and
`constants`; each subcommand imports the modules it runs when it
starts: ``ingest``, ``embed`` and ``rank`` never load numpy, and
``eval`` only to correlate external scores (an embedding table is read
without it).  At import (``prefrank`` on the command line, ``python -m
prefrank.cli``), before any subcommand loads numpy, this module sets
``OPENBLAS_NUM_THREADS=1`` unless ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is already set.  prefrank's
BLAS calls are vector products, nearly all of embedding length, which
OpenBLAS does not split across threads, so its worker pool would only
burn CPU spin-waiting in every run; with one thread, results also cannot
depend on the host's core count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timedelta

# Must run before numpy loads OpenBLAS; a (non-empty) thread count the user set wins.
if "numpy" not in sys.modules and not any(
    os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import __version__, constants, corpus
# Module globals: bench/tracing.py patches both table functions by name here and on `embed`.
from .corpus import DecayConfig, load_external_embeddings, write_external_embeddings
from .errors import DegenerateInputError, SchemaError, ValidationError, naming_record

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_DEGENERATE = 4


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# The flags that name an input file; a manifest digests each one that is set and is a regular file.
_INPUT_FLAGS = ("dump", "records", "logprobs", "generations", "embeddings", "external_scores")
# The flags that name an output file; a manifest is written beside --out and --out-policy.
_OUTPUT_FLAGS = ("out", "out_policy", "trace")


def _refuse_overwrites(args) -> None:
    """Refuses an output path that resolves to an input file or to another output."""
    values = vars(args)
    flag = {name: "--" + name.replace("_", "-") for name in _INPUT_FLAGS + _OUTPUT_FLAGS}
    flag["dump"] = "the dump"
    owner = {os.path.realpath(values[name]): flag[name] for name in _INPUT_FLAGS if values.get(name)}
    outputs = [(flag[name], values[name]) for name in _OUTPUT_FLAGS if values.get(name)]
    outputs += [(f"the {f} manifest", f"{path}.manifest.json") for f, path in outputs if f != "--trace"]
    for output, path in outputs:
        other = owner.setdefault(os.path.realpath(path), output)
        if other != output:
            raise ValidationError(f"{output} and {other} name the same file {path!r}")


def _write_json(path, document) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_manifest(out_path, args: argparse.Namespace, extra: dict | None = None):
    config = {key: value for key, value in sorted(vars(args).items()) if key != "func"}
    inputs = [path for path in map(vars(args).get, _INPUT_FLAGS) if path]
    manifest = {
        "command": args.command,
        "config": config,
        # The run consumed an input that is not a regular file (a pipe, `<(...)`): null.
        "inputs": {str(p): _sha256(p) if os.path.isfile(p) else None for p in inputs},
        "version": __version__,
    }
    if extra:
        manifest.update(extra)
    _write_json(str(out_path) + ".manifest.json", manifest)


def _parse_ks(value: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(tok) for tok in value.split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationError(f"bad k list {value!r}: {exc}") from exc
    if not ks or any(k < 1 for k in ks):
        raise ValidationError(f"k values must be positive integers, got {value!r}")
    if len(set(ks)) < len(ks):
        raise ValidationError(f"k value {max(ks, key=ks.count)} is repeated in {value!r}")
    return ks


def _timestamp_flag(flag: str, value: str) -> datetime:
    try:
        return corpus.parse_timestamp(value)
    except ValidationError:
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
        # reproducible from their inputs alone; with no records nothing decays.
        stamps = [r.question_created_at for r in records]
        stamps += [c.created_at for r in records for c in r.candidates]
        if not stamps:
            return None
        reference = max(stamps)
    return DecayConfig(reference_time=reference, half_life=timedelta(days=days))


def _vectors(args) -> dict:
    """The `embedder` and `table` keywords from the embedding flags."""
    if args.embeddings:
        return {"embedder": None, "table": load_external_embeddings(args.embeddings)}
    from .embed import HashedNgramEmbedder

    return {"embedder": HashedNgramEmbedder(dim=args.dim, ngram=args.ngram), "table": None}


def _generation(row) -> tuple[str, str]:
    corpus.require(row, dict, "a generation")
    return str(corpus.require_field(row, "record_id")), corpus.require_field(row, "text", str)


def _external_score(row) -> tuple[str, float]:
    corpus.require(row, dict, "an external score")
    return str(corpus.require_field(row, "record_id")), corpus.require_field(row, "score", float)


def cmd_ingest(args) -> int:
    result = corpus.parse_dump(args.dump)
    entries = result.entries
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
    from . import embed

    records = corpus.read_records(args.records)
    embedder = embed.HashedNgramEmbedder(dim=args.dim, ngram=args.ngram)
    texts = []
    for record in records:
        texts.append((corpus.question_key(record), record.question_text))
        texts += [(corpus.candidate_key(record, c.id), c.content) for c in record.candidates]
    if args.generations:
        generations = corpus.read_keyed_jsonl(args.generations, _generation, "generation")
        texts += [(corpus.generation_key(record_id), text) for record_id, text in generations.items()]
    table = {}
    for key, text in texts:
        if key in table:
            raise ValidationError(f"embedding key {key!r} is written twice")
        table[key] = embedder.embed(text)
    write_external_embeddings(args.out, table)
    _write_manifest(args.out, args)
    print(f"embedded\t{len(table)}")
    return EXIT_OK


def cmd_rank(args) -> int:
    from . import pipeline

    records = corpus.read_records(args.records)
    prepared = pipeline.prepare_records(records, **_vectors(args), decay=_decay_config(args, records))
    rows = ({"record_id": p.record.question_id, "order": p.perception.dynamic.order} for p in prepared)
    corpus.write_jsonl(args.out, rows)
    _write_manifest(args.out, args)
    print(f"ranked\t{len(prepared)}")
    return EXIT_OK


def cmd_loss(args) -> int:
    import numpy as np

    from . import objective, pipeline, policy

    objective.check_alpha(args.alpha)
    records = corpus.read_records(args.records)
    table_logprobs = policy.load_logprob_file(args.logprobs)
    # Deterministic reduction order: records sorted by id.
    records = sorted(records, key=lambda r: r.question_id)
    prepared = pipeline.prepare_records(records, **_vectors(args), decay=_decay_config(args, records))
    rows = []
    for item in prepared:
        record, perception = item.record, item.perception
        pi_s = objective.policy_scores_from_logprobs(corpus.logprob_rows(table_logprobs, record))
        with naming_record(record.question_id):
            breakdown = objective.record_loss(pi_s, perception, args.alpha, args.mode)
        rows.append({"record_id": record.question_id, "mode": args.mode, **breakdown.to_dict()})
    corpus.write_jsonl(args.out, rows)
    summary = {"n_records": len(rows)}
    for key in ("l_pa", "l_pc", "total"):
        summary[f"mean_{key}"] = float(np.mean([r[key] for r in rows])) if rows else 0.0
    summary.update(alpha=args.alpha, mode=args.mode)
    _write_manifest(args.out, args, extra={"summary": summary})
    for key, value in summary.items():
        print(f"{key}\t{value}")
    return EXIT_OK


def cmd_train_toy(args) -> int:
    from . import pipeline, policy

    records = corpus.read_records(args.records)
    prepared = pipeline.prepare_records(records, **_vectors(args), decay=_decay_config(args, records))
    toy = policy.ToyPolicy.fresh(
        seed=args.seed,
        init_scale=args.init_scale,
        learning_rate=args.learning_rate,
        question_scale=args.question_scale,
    )
    result = policy.train(toy, prepared, epochs=args.epochs, alpha=args.alpha, mode=args.mode)
    toy.save(args.out_policy)
    if args.trace:
        corpus.write_jsonl(
            args.trace, ({"step": step, **b.to_dict()} for step, b in enumerate(result.trace))
        )
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
    from . import evaluation

    ks = _parse_ks(args.k)
    records = corpus.read_records(args.records)
    generations = corpus.read_keyed_jsonl(args.generations, _generation, "generation")
    scores = None
    if args.external_scores:
        scores = corpus.read_keyed_jsonl(args.external_scores, _external_score, "external score")
    hashed = f"hashed_ngram(dim={args.dim},ngram={args.ngram})"
    report = evaluation.evaluate_dataset(
        records,
        generations,
        **_vectors(args),
        ks=ks,
        normalizer=args.normalizer,
        embedder_name=f"external:{args.embeddings}" if args.embeddings else hashed,
        external_scores=scores,
    )
    _write_json(args.out, report.to_dict())
    _write_manifest(args.out, args)
    for line in report.summary_lines():
        print(line)
    return EXIT_OK


def cmd_export_heatmap(args) -> int:
    import numpy as np

    from . import pipeline

    records = corpus.read_records(args.records)
    matches = [r for r in records if r.question_id == args.record_id]
    if not matches:
        raise ValidationError(f"record {args.record_id!r} not found in {args.records}")
    perception = pipeline.build_perception(matches[0], **_vectors(args), decay=_decay_config(args, records))
    by_name = {m.attribute_name: m for m in perception.singles}
    by_name["multi"] = perception.multi
    np.savetxt(args.out, by_name[args.attribute].values, delimiter=",")
    _write_manifest(args.out, args)
    print(f"exported\t{args.attribute}\t{perception.multi.size}x{perception.multi.size}")
    return EXIT_OK


def _add_embedding_flags(parser: argparse.ArgumentParser, with_external: bool = True):
    parser.add_argument("--dim", type=int, default=constants.DEFAULT_DIM, help="hashed embedder dimension")
    parser.add_argument("--ngram", type=int, default=constants.DEFAULT_NGRAM, help="hashed embedder n-gram size")
    if with_external:
        parser.add_argument(
            "--embeddings",
            default=None,
            help="external embedding TSV (id<TAB>floats); overrides the hashed embedder",
        )


def _add_decay_flags(parser: argparse.ArgumentParser):
    days = corpus.DEFAULT_HALF_LIFE / timedelta(days=1)
    parser.add_argument("--half-life-days", type=float, default=days, help="popularity decay half-life")
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
    p.add_argument("--alpha", type=float, default=constants.DEFAULT_ALPHA)
    p.add_argument("--mode", default=constants.DEFAULT_MODE, choices=list(constants.COMPARISON_MODES))
    _add_embedding_flags(p)
    _add_decay_flags(p)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("train-toy", help="train the toy bigram policy")
    p.add_argument("--records", required=True)
    p.add_argument("--out-policy", required=True, help="output policy checkpoint")
    p.add_argument("--trace", default=None, help="optional per-step loss trace JSONL")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--learning-rate", type=float, default=constants.DEFAULT_LEARNING_RATE)
    p.add_argument("--init-scale", type=float, default=constants.DEFAULT_INIT_SCALE)
    p.add_argument("--question-scale", type=float, default=constants.DEFAULT_QUESTION_SCALE)
    p.add_argument("--alpha", type=float, default=constants.DEFAULT_ALPHA)
    p.add_argument("--mode", default=constants.DEFAULT_MODE, choices=list(constants.COMPARISON_MODES))
    _add_embedding_flags(p)
    _add_decay_flags(p)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("eval", help="metric report for generations against records")
    p.add_argument("--records", required=True)
    p.add_argument("--generations", required=True, help="JSONL of {record_id, text}")
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--k", default=",".join(map(str, constants.DEFAULT_KS)), help="comma-separated k values")
    p.add_argument("--normalizer", default=constants.NORMALIZER_PAPER_HALF, choices=list(constants.NORMALIZERS))
    p.add_argument("--external-scores", default=None, help="optional JSONL of {record_id, score}")
    _add_embedding_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-heatmap", help="dump one record's distance matrix as CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--record-id", required=True)
    p.add_argument(
        "--attribute",
        default="multi",
        choices=[constants.SEMANTIC, constants.POPULARITY, "multi"],
    )
    p.add_argument("--out", required=True, help="output CSV (row-major, headerless)")
    _add_embedding_flags(p)
    _add_decay_flags(p)
    p.set_defaults(func=cmd_export_heatmap)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _refuse_overwrites(args)
        return args.func(args)
    except DegenerateInputError as exc:
        return _fail("degenerate_input", exc, EXIT_DEGENERATE)
    except (SchemaError, OSError) as exc:
        return _fail("io", exc, EXIT_IO)
    except ValidationError as exc:
        return _fail("validation", exc, EXIT_VALIDATION)
    except Exception as exc:  # a bug, or a resource such as memory ran out
        return _fail("internal", f"{type(exc).__name__}: {exc}", EXIT_INTERNAL)


def _fail(category: str, exc: Exception | str, code: int) -> int:
    print(json.dumps({"error": category, "message": str(exc)}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
