"""Shared fixtures: record factories, an XML dump builder, random pool
generators, and the synthetic training suite used end to end."""

from __future__ import annotations

import dataclasses
import json
from datetime import datetime, timedelta, timezone
from xml.sax.saxutils import quoteattr

import numpy as np
import pytest

from prefrank.apdf import GainVector, multi_apdf, single_apdf
from prefrank.corpus import QARecord, ResponseCandidate, write_records
from prefrank.embed import HashedNgramEmbedder
from prefrank.pipeline import PreparedRecord, build_perception
from prefrank.policy import LogProbTable, ToyPolicy
from prefrank.ranking import SemanticRank

T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)


def make_candidate(i, content="answer text", votes=0, days=0, accepted=False, cid=None):
    return ResponseCandidate(
        id=cid if cid is not None else f"a{i}",
        content=content,
        votes=votes,
        created_at=T0 + timedelta(days=days),
        accepted=accepted,
    )


def make_record(question_id="q1", question_text="how do I sort?", candidates=None, gold=None):
    if candidates is None:
        candidates = (make_candidate(0, accepted=True), make_candidate(1, content="other", votes=3))
    return QARecord(
        question_id=question_id,
        question_text=question_text,
        question_created_at=T0,
        candidates=tuple(candidates),
        gold_ranking=gold,
    )


def random_pool_matrices(rng, size, attributes=2):
    """Random gain vectors and their single/multi matrices for one pool."""
    gains = [
        GainVector(f"attr{k}", rng.uniform(0.0, 2.0, size=size)) for k in range(attributes)
    ]
    singles = [single_apdf(g) for g in gains]
    return gains, singles, multi_apdf(singles)


def quantized_pool_matrices(rng, size):
    """Singles and fusion from gains on three levels: ties put zeros off the diagonal."""
    singles = [
        single_apdf(GainVector(name, rng.choice([0.0, 0.5, 1.5], size=size)))
        for name in ("a", "b")
    ]
    return singles, multi_apdf(singles)


def random_semantic_rank(rng, size):
    return SemanticRank(rng.permutation(size))


# ---------------------------------------------------------------------------
# Posts.xml fixture builder


def posts_xml(rows: list[str]) -> str:
    return "<posts>\n" + "\n".join(rows) + "\n</posts>\n"


def question_row(qid, body, created="2024-01-01T00:00:00", accepted_id=None, **extra):
    attrs = [f'Id="{qid}"', 'PostTypeId="1"', f'CreationDate="{created}"', f"Body={quoteattr(body)}"]
    if accepted_id is not None:
        attrs.append(f'AcceptedAnswerId="{accepted_id}"')
    for key, value in extra.items():
        attrs.append(f"{key}={quoteattr(str(value))}")
    return "  <row " + " ".join(attrs) + " />"


def answer_row(aid, parent, body="<p>an answer</p>", created="2024-01-02T00:00:00", score=0):
    return (
        f'  <row Id="{aid}" PostTypeId="2" ParentId="{parent}" '
        f'CreationDate="{created}" Body={quoteattr(body)} Score="{score}" />'
    )


CODE_BODY = (
    "<p>Why does this fail?</p>"
    "<pre><code>print(1 &lt; 2)\n\tx = [i for i in range(3)]</code></pre>"
)
CODE_TEXT = "print(1 < 2)\n\tx = [i for i in range(3)]"
PLAIN_BODY = "<p>Is there a canonical reference for this?</p>"


@dataclasses.dataclass(frozen=True)
class DumpQuestion:
    """One fixture question: flags drive which filter stages it survives."""

    qid: int
    accepted: bool
    code: bool
    votes: tuple[int, ...]


# 25 questions.  18 have an accepted answer; of those, 12 have a code
# block; with min_pool_size=3 and min_vote_gap=5, 7 of the 12 pass the
# quality stage (3 fail on pool size, 2 on vote gap).
DUMP_PLAN = (
    # survivors of every stage: pool >= 3, gap >= 5
    DumpQuestion(1, True, True, (12, 0, 3)),
    DumpQuestion(2, True, True, (9, 1, 2, 4)),
    DumpQuestion(3, True, True, (20, 5, 15)),
    DumpQuestion(4, True, True, (7, 0, 1)),
    DumpQuestion(5, True, True, (50, 2, 8, 30)),
    DumpQuestion(6, True, True, (6, 0, 3)),
    DumpQuestion(7, True, True, (11, 4, 2)),
    # accepted + code, pool too small (2 candidates)
    DumpQuestion(8, True, True, (10, 2)),
    DumpQuestion(9, True, True, (8, 0)),
    DumpQuestion(10, True, True, (15, 3)),
    # accepted + code, vote gap below 5
    DumpQuestion(11, True, True, (4, 2, 1)),
    DumpQuestion(12, True, True, (3, 3, 0)),
    # accepted, no code block
    DumpQuestion(13, True, False, (9, 1, 2)),
    DumpQuestion(14, True, False, (6, 0)),
    DumpQuestion(15, True, False, (22, 4, 7)),
    DumpQuestion(16, True, False, (5, 5)),
    DumpQuestion(17, True, False, (13, 2, 6)),
    DumpQuestion(18, True, False, (8, 1)),
    # no accepted answer
    DumpQuestion(19, False, True, (10, 0, 5)),
    DumpQuestion(20, False, True, (7, 2)),
    DumpQuestion(21, False, False, (9, 3, 1)),
    DumpQuestion(22, False, False, (4, 0)),
    DumpQuestion(23, False, True, (16, 8, 2)),
    DumpQuestion(24, False, False, (6, 1, 3)),
    DumpQuestion(25, False, False, (11, 2)),
)

STAGE_COUNTS = {"parsed": 25, "accepted": 18, "code_block": 12, "quality": 7}


def build_dump_plan_xml() -> str:
    rows = []
    next_answer_id = 1000
    for item in DUMP_PLAN:
        answer_ids = []
        for _ in item.votes:
            answer_ids.append(next_answer_id)
            next_answer_id += 1
        body = CODE_BODY if item.code else PLAIN_BODY
        rows.append(
            question_row(
                item.qid,
                body,
                created=f"2024-01-{(item.qid % 28) + 1:02d}T00:00:00",
                accepted_id=answer_ids[0] if item.accepted else None,
            )
        )
        for offset, (aid, votes) in enumerate(zip(answer_ids, item.votes)):
            rows.append(
                answer_row(
                    aid,
                    item.qid,
                    body=f"<p>answer {aid} says</p><pre><code>v = {offset}</code></pre>",
                    created=f"2024-02-{offset + 1:02d}T00:00:00",
                    score=votes,
                )
            )
    return posts_xml(rows)


@pytest.fixture
def dump_plan_file(tmp_path):
    path = tmp_path / "Posts.xml"
    path.write_text(build_dump_plan_xml(), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Synthetic end-to-end suite: pools of five distinctive code-words where the
# candidate holding word 0 dominates both attributes, so the fused matrix
# (and hence the dynamic ranking) puts it first, recoverably.

SUITE_WORDS = (
    "zephyr quartz binding",
    "marble onion tactic",
    "velvet copper signal",
    "sunset gravel output",
    "impulse dragon buffer",
)
SUITE_VOTES = (50, 3, 5, 8, 13)  # word 0 gets 50; the rest get distinct low counts


def make_synthetic_records(n=200, seed=7, dim=64):
    """Records plus perception bundles; gold ranking = dynamic ranking."""
    rng = np.random.default_rng(seed)
    embedder = HashedNgramEmbedder(dim=dim)
    prepared = []
    for i in range(n):
        perm = [int(x) for x in rng.permutation(len(SUITE_WORDS))]
        candidates = []
        low_votes = iter(SUITE_VOTES[1:])
        for c, word_index in enumerate(perm):
            votes = SUITE_VOTES[0] if word_index == 0 else next(low_votes)
            candidates.append(
                ResponseCandidate(
                    id=f"c{c}",
                    content=SUITE_WORDS[word_index],
                    votes=votes,
                    created_at=T0 + timedelta(days=c),
                    accepted=(word_index == 0),
                )
            )
        record = QARecord(
            question_id=f"q{i:04d}",
            question_text=f"{SUITE_WORDS[0]} {i:04d}",
            question_created_at=T0,
            candidates=tuple(candidates),
        )
        perception = build_perception(record, embedder=embedder)
        record = record.replace(gold_ranking=tuple(perception.dynamic.order))
        prepared.append(PreparedRecord(record=record, perception=perception))
    return prepared


@pytest.fixture(scope="session")
def synthetic_suite():
    return make_synthetic_records()


# ---------------------------------------------------------------------------
# One valid set of the CLI's JSON-Lines inputs, and the argv of every
# subcommand that reads them.


def write_cli_inputs(directory) -> dict:
    """Two records with their generations, external scores and logprobs."""
    records = [
        make_record(
            "r1",
            question_text="rotate a list in place",
            candidates=(
                make_candidate(0, content="slice and concatenate copies", votes=1),
                make_candidate(1, content="use collections.deque rotate", votes=5, accepted=True),
                make_candidate(2, content="rotate a list in place, déjà vu", votes=25, days=3),
            ),
            gold=(2, 1, 0),
        ),
        make_record(
            "r2",
            question_text="sort a dict by value",
            candidates=(
                make_candidate(0, content="sorted(d.items(), key=itemgetter(1))", accepted=True),
                make_candidate(1, content="a heap keeps the smallest first", votes=9),
            ),
            gold=(0, 1),
        ),
    ]
    paths = {name: directory / f"{name}.jsonl" for name in ("records", "generations", "scores", "logprobs")}
    write_records(paths["records"], records)
    rows = [("r1", "rotate the list in place", 0.5), ("r2", "sort the dict by its values", 1.5)]
    with open(paths["generations"], "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps({"record_id": r, "text": t}) + "\n" for r, t, _ in rows)
    with open(paths["scores"], "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps({"record_id": r, "score": s}) + "\n" for r, _, s in rows)
    LogProbTable.from_policy(ToyPolicy.fresh(seed=0), records).write(paths["logprobs"])
    return paths


# Subcommand -> the input files it reads.
CLI_READERS = {
    "embed": ("records", "generations"),
    "rank": ("records",),
    "loss": ("records", "logprobs"),
    "train-toy": ("records",),
    "eval": ("records", "generations", "scores"),
    "export-heatmap": ("records",),
}


def cli_argv(command: str, paths: dict, out_dir) -> list[str]:
    """argv running `command` on `paths`, writing under `out_dir`."""
    out = str(out_dir / f"{command}.out")
    argv = {
        "embed": ["--generations", paths["generations"], "--out", out],
        "rank": ["--out", out],
        "loss": ["--logprobs", paths["logprobs"], "--out", out],
        "train-toy": ["--out-policy", out, "--epochs", "1"],
        "eval": ["--generations", paths["generations"], "--external-scores", paths["scores"]]
        + ["--out", out],
        "export-heatmap": ["--record-id", "r1", "--out", out],
    }[command]
    return [command, "--records", *map(str, [paths["records"], *argv])]
