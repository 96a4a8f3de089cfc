"""Seeded synthetic workloads for the benchmark.

A workload is a *plan* (which questions exist, which filter stage each
one fails, which answers survive cleaning) plus the three input files
the CLI walkthrough consumes: a StackExchange-style Posts XML dump, a
token-logprob JSONL and a generations JSONL.  Every file is written
from the plan with the standard library alone, so the program under
test receives only generated inputs, and every count the `ingest`
stage prints is known before it runs.

The same (workload, seed) pair always yields the same bytes.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from html import escape
from pathlib import Path
from xml.sax.saxutils import quoteattr

MIN_VOTE_GAP = 5
EPOCHS = 1  # train-toy epochs: one gradient step per kept record
T0 = datetime(2021, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class Shape:
    """Corpus shape of one workload."""

    kept_pool_sizes: tuple[int, ...]  # pool sizes of kept questions, cycled
    answer_words: int  # words per answer paragraph (~6.5 chars a word)
    with_code_in_answers: bool
    min_pool_size: int
    table: bool  # rank/loss/train-toy/eval read the embed step's TSV table
    noise: int  # questions per filter-failing category


SHAPES = {
    # StackExchange shape: small pools, ~400-char HTML answers with code,
    # embedded by the built-in hasher in every subcommand.
    "small-pools": Shape(
        kept_pool_sizes=(3, 4, 5, 6, 7, 8),
        answer_words=44,
        with_code_in_answers=True,
        min_pool_size=3,
        table=False,
        noise=15,
    ),
    # Pools of 16, 64 and 256 short answers, embedded once into the TSV
    # table that every later subcommand reads: the M^2 and M^3 layers, the
    # table reader and the process pool that ships the table dominate.
    "large-pools": Shape(
        kept_pool_sizes=(16, 64, 16, 256, 16, 64),
        answer_words=14,
        with_code_in_answers=False,
        min_pool_size=16,
        table=True,
        noise=6,
    ),
}

KEPT = {"small-pools": 36, "large-pools": 6}


@dataclass(frozen=True)
class Answer:
    aid: int
    html: str
    plain: str  # text before HTML wrapping; empty when blank
    score: int
    created: datetime
    blank: bool  # empty after cleaning, so ingest drops it


@dataclass
class Question:
    qid: int
    fate: str  # "kept" or the stage/reason that drops it
    text: str  # plain text of the question paragraph
    body: str  # HTML body
    created: datetime
    answers: list[Answer]
    accepted_id: int | None

    @property
    def live(self) -> list[Answer]:
        """Answers that survive cleaning."""
        return [a for a in self.answers if not a.blank]


@dataclass
class Plan:
    """Everything the generator decided, and the counts it implies."""

    workload: str
    seed: int
    shape: Shape
    questions: list[Question] = field(default_factory=list)
    orphan_answers: int = 0

    @property
    def dump_rows(self) -> int:
        return len(self.questions) + sum(len(q.answers) for q in self.questions) + self.orphan_answers

    @property
    def kept(self) -> list[Question]:
        return [q for q in self.questions if q.fate == "kept"]

    def ingest_lines(self) -> dict[str, int]:
        """The exact `stage<TAB>count` lines `ingest` prints."""
        with_answers = [q for q in self.questions if q.answers]
        accepted = [q for q in with_answers if q.fate not in ("unaccepted",)]
        code = [q for q in accepted if q.fate != "no_code"]
        cleaned = [q for q in code if q.fate != "blank_pool"]
        lines = {
            "parsed": len(with_answers),
            "accepted": len(accepted),
            "code_block": len(code),
            "cleaned": len(cleaned),
            "quality": len(self.kept),
        }
        rejected = Counter(q.fate for q in cleaned if q.fate != "kept")
        for reason, count in sorted(rejected.items()):
            lines[f"rejected_{reason}"] = count
        warnings = Counter()
        if self.orphan_answers:
            warnings["orphan_answer"] = self.orphan_answers
        unanswered = len(self.questions) - len(with_answers)
        if unanswered:
            warnings["question_without_answers"] = unanswered
        for reason, count in sorted(warnings.items()):
            lines[f"warning_{reason}"] = count
        return lines

    @property
    def steps(self) -> int:
        return len(self.kept) * EPOCHS

    @property
    def embedded(self) -> int:
        """Rows of the embed step's table: kept questions and their surviving
        candidates, plus one generation per kept record when it is embedded too."""
        texts = sum(1 + len(q.live) for q in self.kept)
        return texts + (len(self.kept) if self.shape.table else 0)


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    syllables = ["ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "ze", "qu", "ab", "or", "in", "el"]
    words = set()
    while len(words) < size:
        words.add("".join(rng.choice(syllables) for _ in range(rng.randint(1, 4))))
    return sorted(words)


def _sentence(rng: random.Random, topic: list[str], vocab: list[str], words: int, focus: float) -> str:
    return " ".join(rng.choice(topic) if rng.random() < focus else rng.choice(vocab) for _ in range(words))


def _code(rng: random.Random, topic: list[str], lines: int) -> str:
    out = []
    for _ in range(lines):
        a, b = rng.choice(topic), rng.choice(topic)
        out.append(f"if {a} < {b}: {a} = {b}({rng.randint(0, 99)}) & {a}")
    return "\n".join(out)


def _votes(rng: random.Random, size: int, fate: str, boundary: bool = False) -> list[int]:
    """Scores of one pool.  `boundary` puts the vote gap exactly at the
    filter threshold (kept) or one below it (rejected)."""
    if fate == "vote_gap_too_small":
        base = rng.randint(0, 20)
        votes = [base + rng.randint(0, MIN_VOTE_GAP - 1) for _ in range(size)]
        if boundary:
            votes[0], votes[-1] = base, base + MIN_VOTE_GAP - 1
        return votes
    if fate != "kept":
        return [rng.randint(-1, 30) for _ in range(size)]
    if boundary:
        # Ties in votes, but at least two distinct gains: not degenerate.
        base = rng.randint(1, 20)
        votes = [base + rng.randint(0, MIN_VOTE_GAP) for _ in range(size)]
        votes[0], votes[-1] = base, base + MIN_VOTE_GAP
        return votes
    # Distinct clamped votes give distinct popularity gains, so no kept
    # pool is degenerate.
    while True:
        votes = rng.sample(range(-2, 4 * size + 40), size)
        if max(0, max(votes)) - max(0, min(votes)) >= MIN_VOTE_GAP and sum(v <= 0 for v in votes) <= 1:
            return votes


def _stamp(moment: datetime) -> str:
    return moment.strftime("%Y-%m-%dT%H:%M:%S.") + f"{moment.microsecond // 1000:03d}"


def make_plan(workload: str, seed: int) -> Plan:
    """Decide every question of the workload from the seed."""
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    vocab = _vocabulary(rng, 400)
    plan = Plan(workload=workload, seed=seed, shape=shape)
    small = max(2, shape.min_pool_size - 3)
    fates = ["kept"] * KEPT[workload]
    for fate in ("unaccepted", "no_code", "blank_pool", "pool_too_small", "vote_gap_too_small"):
        fates += [fate] * shape.noise
    fates += ["unanswered"] * max(1, shape.noise // 4)
    rng.shuffle(fates)
    # Pool sizes cycle by position within each fate, so every seed writes
    # the same number of rows and only the text and votes change.
    seen = Counter()
    next_id = 1000
    for fate in fates:
        qid = next_id
        next_id += 1
        nth = seen[fate]
        seen[fate] += 1
        topic = rng.sample(vocab, 12)
        created = T0 + timedelta(days=rng.uniform(0, 900))
        text = _sentence(rng, topic, vocab, 18, 0.6)
        if fate == "no_code":
            body = f"<p>{escape(text)}</p>"
        else:
            code = _code(rng, topic, 3)
            body = f"<p>{escape(text)}</p>\n<pre><code>{escape(code)}</code></pre>"
            text = f"{text}\n{code}"
        if fate == "kept":
            size = shape.kept_pool_sizes[nth % len(shape.kept_pool_sizes)]
        elif fate == "pool_too_small":
            size = 1 + nth % (shape.min_pool_size - 1)
        elif fate == "unanswered":
            size = 0
        elif fate == "vote_gap_too_small":
            size = shape.min_pool_size + nth % 6
        else:
            size = small + nth % 6
        votes = _votes(rng, size, fate, boundary=nth % 4 == 0)
        answers = []
        for k in range(size):
            aid = next_id
            next_id += 1
            plain = _sentence(rng, topic, vocab, shape.answer_words, rng.uniform(0.05, 0.95))
            html = f"<p>{escape(plain)}</p>"
            if fate == "blank_pool":
                html, plain = "<p> </p>\n<div></div>", ""
            elif shape.with_code_in_answers:
                snippet = _code(rng, topic, 1)
                html += f"\n<pre><code>{escape(snippet)}</code></pre>"
                plain = f"{plain}\n{snippet}"
            stamp = created + timedelta(hours=rng.uniform(1, 24 * 400))
            answers.append(Answer(aid, html, plain, votes[k], stamp, fate == "blank_pool"))
        accepted_id = None
        if answers and fate != "unaccepted":
            accepted_id = rng.choice(answers).aid
        if fate == "kept" and size > 3 and nth % 3 == 0:
            # One extra answer that is blank after cleaning: ingest drops it.
            aid = next_id
            next_id += 1
            answers.append(Answer(aid, "<p> </p>", "", rng.randint(0, 5), created + timedelta(hours=2), True))
        plan.questions.append(Question(qid, fate, text, body, created, answers, accepted_id))
    plan.orphan_answers = max(1, shape.noise // 8)
    return plan


def write_inputs(plan: Plan, directory: Path) -> dict[str, Path]:
    """Write Posts.xml, logprobs.jsonl and gens.jsonl for the plan."""
    rng = random.Random(f"inputs:{plan.workload}:{plan.seed}")
    directory.mkdir(parents=True, exist_ok=True)
    rows = []
    for q in plan.questions:
        attrs = f'Id="{q.qid}" PostTypeId="1" CreationDate="{_stamp(q.created)}" Body={quoteattr(q.body)}'
        if q.accepted_id is not None:
            attrs += f' AcceptedAnswerId="{q.accepted_id}"'
        rows.append(f"  <row {attrs} />")
        for a in q.answers:
            rows.append(
                f'  <row Id="{a.aid}" PostTypeId="2" ParentId="{q.qid}" CreationDate="{_stamp(a.created)}" '
                f'Body={quoteattr(a.html)} Score="{a.score}" />'
            )
    for k in range(plan.orphan_answers):
        rows.append(
            f'  <row Id="{9_000_000 + k}" PostTypeId="2" ParentId="{8_000_000 + k}" '
            f'CreationDate="{_stamp(T0)}" Body="&lt;p&gt;orphan&lt;/p&gt;" Score="1" />'
        )
    paths = {
        "dump": directory / "Posts.xml",
        "logprobs": directory / "logprobs.jsonl",
        "generations": directory / "gens.jsonl",
    }
    paths["dump"].write_text("<posts>\n" + "\n".join(rows) + "\n</posts>\n", encoding="utf-8")
    with open(paths["logprobs"], "w", encoding="utf-8") as lp, open(paths["generations"], "w", encoding="utf-8") as gen:
        for q in plan.kept:
            for a in q.live:
                tokens = max(1, len(a.plain.split()))
                logprobs = [round(-rng.expovariate(0.7) - 1e-3, 6) for _ in range(tokens)]
                lp.write(json.dumps({"record_id": str(q.qid), "candidate_id": str(a.aid), "logprobs": logprobs}) + "\n")
            # A noisy copy of one candidate: BLEU and Rouge-L land mid-range.
            words = rng.choice(q.live).plain.split()
            noisy = [w if rng.random() < 0.7 else rng.choice(words) for w in words]
            gen.write(json.dumps({"record_id": str(q.qid), "text": " ".join(noisy)}) + "\n")
    return paths


def sweep_pool(seed: int, size: int, k: int) -> tuple[str, list[tuple[str, int, datetime]]]:
    """Question text and (answer text, votes, created) for one fixed-size pool.

    Answers are ~120 characters, as in large-pools, with distinct votes.
    """
    rng = random.Random(f"sweep:{seed}:{size}:{k}")
    vocab = _vocabulary(rng, 400)
    topic = rng.sample(vocab, 12)
    question = _sentence(rng, topic, vocab, 18, 0.6)
    votes = _votes(rng, size, "kept")
    answers = [
        (_sentence(rng, topic, vocab, 14, rng.uniform(0.05, 0.95)), votes[i], T0 + timedelta(hours=rng.uniform(1, 9000)))
        for i in range(size)
    ]
    return question, answers
