"""Golden run: every subcommand through `main()` on one small seeded dump,
compared with the committed summary in `golden_run.json`.

The chain is ingest -> embed -> rank (hashed, then with the embedding
table) -> loss -> train-toy -> eval -> export-heatmap.  The dump holds a
semantic tie (two answers with identical text, votes and date), a pool
whose votes are all equal (its vote gap, 0, sits on the filter's bound),
a pool the size filter drops and a question without an accepted answer.
`loss` and `train-toy` run the top-anchored comparison rounds, the CLI's
default.

Integers and orders must match exactly, and so must PrefHit/PrefRecall
(ratios of small integers).  Losses, trace rows, BLEU/Rouge-L and the
heatmap must match to a relative 1e-12, and the trained weights to
max|dw| / max|w| <= 1e-12: an unpinned numpy may differ in the last bits
of its SIMD `exp`/`log`.

A change that moves a golden value on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_run.py

and names every moved value in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from prefrank.cli import main
from prefrank.corpus import read_records, write_logprob_file
from prefrank.policy import ToyPolicy, logprob_table

from conftest import answer_row, posts_xml, question_row

GOLDEN = Path(__file__).with_name("golden_run.json")
RTOL = 1e-12
SEED = 3

# (question id, question body, accepted answer id or None, answers as (id, body, votes, day)).
QUESTIONS = (
    ("1", "<p>which abc is bad</p>", 11, (
        (11, "<p>abc bad cab</p>", 9, 2),
        (12, "<p>dab dab ace</p>", 2, 3),
        (13, "<p>cab bed</p>", 5, 4),
        (14, "<p>cab bed</p>", 5, 4),
    )),
    ("2", "<p>a dead bee</p>", 22, (
        (21, "<p>bead a dab</p>", 4, 2),
        (22, "<p>dead bee ace</p>", 4, 5),
        (23, "<p>a bee</p>", 4, 9),
    )),
    ("3", "<p>cede a bead</p>", 31, (
        (31, "<p>cede a bead</p>", 1, 2),
        (32, "<p>bead dace</p>", 14, 3),
        (33, "<p>ace cede</p>", 3, 6),
        (34, "<p>bee bad</p>", 0, 7),
        (35, "<p>dab cab bed</p>", 8, 8),
    )),
    ("4", "<p>abcde</p>", 41, (
        (41, "<p>abc de</p>", 3, 2),
        (42, "<p>ed cba</p>", 7, 3),
    )),
    ("5", "<p>one answer only</p>", 51, ((51, "<p>abc</p>", 2, 2),)),
    ("6", "<p>nothing accepted</p>", None, (
        (61, "<p>bad</p>", 1, 2),
        (62, "<p>cab</p>", 6, 3),
    )),
)

GENERATIONS = {"1": "abc bad cab bed", "2": "dead bee", "3": "bead dace ace"}


def _write_inputs(directory: Path) -> dict:
    rows = []
    for qid, body, accepted, answers in QUESTIONS:
        rows.append(question_row(qid, body, accepted_id=accepted))
        rows += [
            answer_row(aid, qid, body=text, created=f"2024-01-{day:02d}T00:00:00", score=votes)
            for aid, text, votes, day in answers
        ]
    paths = {name: directory / name for name in ("Posts.xml", "generations.jsonl")}
    paths["Posts.xml"].write_text(posts_xml(rows), encoding="utf-8")
    paths["generations.jsonl"].write_text(
        "".join(json.dumps({"record_id": r, "text": t}) + "\n" for r, t in GENERATIONS.items()),
        encoding="utf-8",
    )
    return paths


def _run(*argv) -> dict[str, str]:
    """Runs one subcommand; returns its stdout's tab-separated lines as a dict."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([str(a) for a in argv])
    assert code == 0, f"{argv[0]} exited {code}"
    return dict(line.split("\t", 1) for line in stdout.getvalue().splitlines())


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def golden_run(directory: Path) -> dict:
    """Runs the chain in `directory`; returns what the golden file pins."""
    inputs = _write_inputs(directory)
    out = {name: directory / name for name in (
        "records.jsonl", "embeddings.tsv", "ranks.jsonl", "ranks-table.jsonl", "logprobs.jsonl",
        "losses.jsonl", "policy.bin", "trace.jsonl", "report.json", "heatmap.csv",
    )}
    records = str(out["records.jsonl"])
    summary = {"ingest": _run("ingest", inputs["Posts.xml"], "--out", records, "--min-pool-size", 2)}
    summary["gold"] = {r.question_id: list(r.gold_ranking) for r in read_records(records)}
    summary["embed"] = _run("embed", "--records", records, "--generations", inputs["generations.jsonl"],
                            "--out", out["embeddings.tsv"])
    ranks = {}
    for name, extra in (("ranks.jsonl", []), ("ranks-table.jsonl", ["--embeddings", out["embeddings.tsv"]])):
        _run("rank", "--records", records, "--out", out[name], *extra)
        ranks[name] = {row["record_id"]: row["order"] for row in _jsonl(out[name])}
    summary["rank"] = ranks

    write_logprob_file(out["logprobs.jsonl"], logprob_table(ToyPolicy.fresh(seed=SEED), read_records(records)))
    _run("loss", "--records", records, "--logprobs", out["logprobs.jsonl"], "--out", out["losses.jsonl"])
    summary["loss"] = _jsonl(out["losses.jsonl"])

    _run("train-toy", "--records", records, "--out-policy", out["policy.bin"], "--trace", out["trace.jsonl"],
         "--epochs", 2, "--seed", SEED, "--mode", "top_anchored")
    summary["trace"] = _jsonl(out["trace.jsonl"])
    # Training moves only the context rows the responses use; the rest keep the seeded init.
    delta = ToyPolicy.load(out["policy.bin"]).weights - ToyPolicy.fresh(seed=SEED).weights
    summary["policy_delta_rows"] = {str(row): delta[row].tolist() for row in np.flatnonzero(delta.any(axis=1))}

    _run("eval", "--records", records, "--generations", inputs["generations.jsonl"], "--out", out["report.json"])
    summary["eval"] = json.loads(out["report.json"].read_text(encoding="utf-8"))

    _run("export-heatmap", "--records", records, "--record-id", "1", "--out", out["heatmap.csv"])
    summary["heatmap"] = np.loadtxt(out["heatmap.csv"], delimiter=",").tolist()
    return summary


def _assert_close(actual, golden, what):
    np.testing.assert_allclose(np.asarray(actual), np.asarray(golden), rtol=RTOL, atol=0, err_msg=what)


def _split_rows(rows: list[dict]) -> tuple[list[dict], list[list[float]]]:
    """(the rows' non-float fields, their float fields in key order)."""
    exact = [{k: v for k, v in row.items() if not isinstance(v, float)} for row in rows]
    floats = [[v for _, v in sorted(row.items()) if isinstance(v, float)] for row in rows]
    return exact, floats


def test_golden_run(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = golden_run(tmp_path)

    for key in ("ingest", "gold", "embed", "rank"):
        assert actual[key] == golden[key], key
    for key in ("loss", "trace"):
        exact, floats = _split_rows(actual[key])
        golden_exact, golden_floats = _split_rows(golden[key])
        assert exact == golden_exact, key
        _assert_close(floats, golden_floats, key)

    report, golden_report = dict(actual["eval"]), dict(golden["eval"])
    for metric in ("bleu", "rouge_l"):
        _assert_close(report.pop(metric), golden_report.pop(metric), metric)
    assert report == golden_report
    _assert_close(actual["heatmap"], golden["heatmap"], "heatmap")

    assert actual["policy_delta_rows"].keys() == golden["policy_delta_rows"].keys()
    rows = list(golden["policy_delta_rows"])
    delta = np.array([actual["policy_delta_rows"][r] for r in rows])
    golden_delta = np.array([golden["policy_delta_rows"][r] for r in rows])
    weights = ToyPolicy.fresh(seed=SEED).weights
    weights[[int(r) for r in rows]] += golden_delta
    assert np.abs(delta - golden_delta).max() <= RTOL * np.abs(weights).max()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(json.dumps(golden_run(Path(scratch)), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
