"""Output checks for one pipeline round, and the greedy-ranking oracle.

Each check returns a list of problems (empty when the output is right).
The oracle is the benchmark's own implementation of the dynamic-ranking
contract, so a ranking change in the program cannot also change what
its output is checked against.
"""

from __future__ import annotations

import json
import math
from datetime import timedelta

import numpy as np


def greedy_order(values: np.ndarray, rank_of: np.ndarray) -> list[int]:
    """Dynamic-ranking contract by one walk over pairs sorted by (-value, row, col).

    At each step the largest positive entry among unplaced pairs is the
    first pair in that sort whose endpoints are both unplaced, because
    placing a candidate only removes pairs.  The semantically better
    endpoint is placed; leftovers follow in semantic order.
    """
    size = len(rank_of)
    rows, cols = np.triu_indices(size, k=1)
    pair_values = values[rows, cols]
    by_value = np.lexsort((cols, rows, -pair_values))
    placed = [False] * size
    order = []
    for k in by_value.tolist():
        if pair_values[k] <= 0.0:
            break
        row, col = int(rows[k]), int(cols[k])
        if placed[row] or placed[col]:
            continue
        winner = row if rank_of[row] < rank_of[col] else col
        placed[winner] = True
        order.append(winner)
    order += sorted((c for c in range(size) if not placed[c]), key=lambda c: rank_of[c])
    return order


def parse_stdout(text: str) -> dict[str, str]:
    """`key<TAB>value` lines as printed by every subcommand."""
    pairs = {}
    for line in text.splitlines():
        key, sep, value = line.partition("\t")
        if sep:
            pairs[key] = value
    return pairs


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def expected_stdout(plan, step: str) -> dict[str, str]:
    """The counts each subcommand must print, from the plan alone."""
    kept = len(plan.kept)
    if step == "ingest":
        return {k: str(v) for k, v in plan.ingest_lines().items()}
    if step == "embed":
        return {"embedded": str(plan.embedded)}
    if step == "rank":
        return {"ranked": str(kept)}
    if step == "loss":
        return {"n_records": str(kept)}
    if step == "train-toy":
        return {"steps": str(plan.steps)}
    return {"n_records": str(kept)}


def check_stdout(plan, step: str, stdout: str) -> list[str]:
    got = parse_stdout(stdout)
    want = expected_stdout(plan, step)
    if step == "ingest":
        return [] if got == want else [f"ingest printed {got}, plan says {want}"]
    return [f"{step}: {k}={got.get(k)} but plan says {v}" for k, v in want.items() if got.get(k) != v]


def cli_default_decay(prefrank, records):
    # The CLI default: newest timestamp in the data, 365-day half-life.
    stamps = [r.question_created_at for r in records]
    stamps += [c.created_at for r in records for c in r.candidates]
    return prefrank.DecayConfig(reference_time=max(stamps), half_life=timedelta(days=365))


def check_records(plan, records) -> list[str]:
    want = [(str(q.qid), len(q.live)) for q in plan.kept]
    got = [(r.question_id, r.pool_size) for r in records]
    return [] if got == want else ["records.jsonl ids or pool sizes differ from the plan"]


def check_table(plan, table: dict, records) -> list[str]:
    keys = {r.question_id for r in records}
    keys |= {f"{r.question_id}/{c.id}" for r in records for c in r.candidates}
    if plan.shape.table:
        keys |= {f"{r.question_id}/generation" for r in records}
    problems = [] if set(table) == keys else ["embedding table keys differ from the records"]
    norms = np.array([np.linalg.norm(v) for v in table.values()])
    if not np.allclose(norms, 1.0, atol=1e-9):
        problems.append("embedding table has vectors that are not unit-norm")
    return problems


def check_ranks(prefrank, records, table, ranks_path) -> list[str]:
    rows = read_jsonl(ranks_path)
    if [r["record_id"] for r in rows] != [r.question_id for r in records]:
        return ["ranks.jsonl record ids differ from records.jsonl"]
    embedder = None if table is not None else prefrank.HashedNgramEmbedder()
    decay = cli_default_decay(prefrank, records)
    problems = []
    for record, row in zip(records, rows):
        bundle = prefrank.build_perception(record, embedder=embedder, table=table, decay=decay)
        want = greedy_order(bundle.multi.values, bundle.arank.rank_of)
        if row["order"] != want:
            problems.append(f"record {record.question_id}: rank order differs from the greedy oracle")
    return problems


def check_losses(records, losses_path) -> list[str]:
    rows = read_jsonl(losses_path)
    problems = []
    if [r["record_id"] for r in rows] != sorted(r.question_id for r in records):
        problems.append("losses.jsonl record ids are not the records sorted by id")
    for row in rows:
        values = [row["l_pa"], row["l_pc"], row["alpha"], row["total"]]
        if not all(isinstance(v, float) and math.isfinite(v) for v in values):
            problems.append(f"record {row['record_id']}: non-finite loss row")
        elif row["total"] != row["l_pc"] + row["alpha"] * row["l_pa"]:
            problems.append(f"record {row['record_id']}: total != l_pc + alpha * l_pa")
        elif row["l_pc"] < 0 or row["l_pa"] < 0:
            problems.append(f"record {row['record_id']}: negative loss")
    return problems


def check_training(prefrank, plan, policy_path, trace_path) -> list[str]:
    problems = []
    try:
        prefrank.ToyPolicy.load(policy_path)  # checks magic, shape, size and finiteness
    except prefrank.PrefRankError as exc:
        problems.append(f"policy checkpoint: {exc}")
    rows = read_jsonl(trace_path)
    if len(rows) != plan.steps:
        problems.append("training trace has the wrong number of steps")
    if not all(math.isfinite(r["total"]) for r in rows):
        problems.append("training trace has a non-finite loss")
    return problems


def check_report(plan, report_path) -> list[str]:
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    problems = []
    if report["n_records"] != len(plan.kept) or report["skipped"]:
        problems.append("eval report skipped records or miscounted them")
    for k, value in report["pref_hit"].items():
        if not 0.0 <= value <= 1.0:
            problems.append(f"pref_hit@{k} = {value} out of [0, 1]")
    for k, value in report["pref_recall"].items():
        # paper_half divides a top-k overlap by 2, so the bound is k / 2.
        if not 0.0 <= value <= int(k) / 2:
            problems.append(f"pref_recall@{k} = {value} out of [0, {int(k) / 2}]")
    for name in ("bleu", "rouge_l"):
        if not 0.0 <= report[name] <= 1.0:
            problems.append(f"{name} = {report[name]} out of [0, 1]")
    return problems
