"""Metamorphic gates: the CLI's outputs follow its inputs under a transform.

Each test runs `main()` in-process on a small seeded corpus (the records
of `conftest.write_cli_inputs` plus a few larger pools) and on a
transformed copy of it, and checks how the two runs' outputs relate:

- shuffling each pool's candidates (and remapping `gold_ranking`) maps
  the `rank` orders back exactly and leaves `eval`'s report equal; the
  `loss` rows agree to a relative 1e-12 and the trained weights to
  max|dw| / max|w| <= 1e-12, since the sums run in another order;
- reordering the records leaves every record's rows unchanged;
- a copy of a record under a new id gets the original's `rank` and
  `loss` rows;
- shuffling a dump's answers maps `ingest`'s gold ranking back, full
  twins (equal text, votes and time) included, since a full tie goes to
  the lower candidate id;
- `embed` followed by `rank`, `loss` and `train-toy --trace` with
  `--embeddings` writes the hashed runs' ranks, losses, policy and trace
  byte for byte (or fails as they fail, on a degenerate pool), and
  followed by `eval --embeddings` the hashed `eval`'s report, bar its
  `embedder` field: the table holds the embedder's floats as written,
  and the reader keeps them.

Equal gains share one rank discount, and `semantic_rank` and `eval`'s
matches break exact cosine ties by candidate id, so ties follow a
shuffle: one pool holds two 0-vote answers, another two answers with one
text and distinct votes.  Only full twins, equal in text, votes and
time, are still ordered by pool position (`dynamic_rank` breaks equal
distances by the (row, col) pair); the fixture checks that the corpus
holds none, and the drawn pools below keep their texts distinct.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefrank.apdf import semantic_gains
from prefrank.cli import main
from prefrank.corpus import question_key, read_records, write_logprob_file, write_records
from prefrank.embed import HashedNgramEmbedder, cosine, resolve_vectors
from prefrank.policy import ToyPolicy, logprob_table

from conftest import answer_row, cli_argv, make_candidate, make_record, posts_xml, question_row, write_cli_inputs

RTOL = 1e-12
VOCAB = (
    "list dict heap sort slice copy rotate deque key value index loop yield map filter "
    "tuple set frozen lambda iterator generator stack queue merge split join reverse"
).split()
BUDGET = settings(max_examples=10, deadline=None)


def _extra_records(seed=16):
    """Six seeded pools of 4-6 candidates, one day per pool.

    Texts and votes are distinct, with two exceptions.  The fifth pool's first
    two answers have 0 votes, so they tie in popularity.  The last pool's first
    two answers share a text, so they tie in semantic gain.
    """
    rng = random.Random(seed)
    records, generations = [], {}
    for i, size in enumerate((4, 5, 6, 4, 5, 4)):
        texts = set()
        while len(texts) < size:
            texts.add(" ".join(rng.sample(VOCAB, rng.randint(3, 7))))
        texts = sorted(texts)
        if i == 5:
            texts[0] = texts[1]
        votes = [0, 0, *rng.sample(range(1, 40), size - 2)] if i == 4 else rng.sample(range(40), size)
        day = rng.randint(0, 30)
        candidates = [
            make_candidate(c, content=text, votes=v, days=day, accepted=c == 0)
            for c, (text, v) in enumerate(zip(texts, votes))
        ]
        gold = tuple(rng.sample(range(size), size))
        question = " ".join(rng.sample(VOCAB, 5))
        records.append(make_record(f"x{i}", question_text=question, candidates=candidates, gold=gold))
        generations[f"x{i}"] = " ".join(rng.sample(VOCAB, 6))
    return records, generations


def _semantic_gains(record) -> list[float]:
    key, text = question_key(record), record.question_text
    question, pool = resolve_vectors(key, text, record, embedder=HashedNgramEmbedder())
    return semantic_gains([cosine(question, vector) for vector in pool]).gains.tolist()


def _jsonl_rows(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


def _write_inputs(directory: Path, records, generations: dict, scores: dict) -> dict:
    """Writes records, generations, external scores and the seed-0 policy's logprobs; returns their paths."""
    paths = {name: directory / f"{name}.jsonl" for name in ("records", "generations", "scores", "logprobs")}
    write_records(paths["records"], records)
    for name, key, values in (("generations", "text", generations), ("scores", "score", scores)):
        rows = [json.dumps({"record_id": r, key: v}) + "\n" for r, v in values.items()]
        paths[name].write_text("".join(rows), encoding="utf-8")
    write_logprob_file(paths["logprobs"], logprob_table(ToyPolicy.fresh(seed=0), records))
    return paths


def _attempt(command: str, paths: dict, out_dir: Path, *extra) -> tuple[int, str, bytes | None]:
    """`command`'s exit code, its stderr, and its output file's bytes when it exited 0."""
    out_dir.mkdir(exist_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([*cli_argv(command, paths, out_dir), *map(str, extra)])
    out = out_dir / f"{command}.out"
    return code, stderr.getvalue(), out.read_bytes() if code == 0 else None


def _run(command: str, paths: dict, out_dir: Path, *extra) -> Path:
    code, stderr, _ = _attempt(command, paths, out_dir, *extra)
    assert code == 0, f"{command} exited {code}: {stderr}"
    return out_dir / f"{command}.out"


def _outputs(paths: dict, out_dir: Path, commands=("rank", "loss", "train-toy", "eval")) -> dict:
    """Each command's output: rank and loss rows by record id, weights, the eval report."""
    out = {}
    for command in commands:
        path = _run(command, paths, out_dir)
        if command == "train-toy":
            out[command] = ToyPolicy.load(path).weights
        elif command == "eval":
            out[command] = json.loads(path.read_text(encoding="utf-8"))
        else:
            out[command] = {row.pop("record_id"): row for row in _jsonl_rows(path)}
    return out


@dataclasses.dataclass
class Corpus:
    records: list
    generations: dict
    scores: dict
    outputs: dict

    def write(self, directory: Path, records: list) -> dict:
        """The corpus's input files in `directory`, with `records` in place of its own."""
        return _write_inputs(directory, records, self.generations, self.scores)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Corpus:
    directory = tmp_path_factory.mktemp("base")
    paths = write_cli_inputs(directory)
    extra, generations = _extra_records()
    records = read_records(paths["records"]) + extra
    for record in records:
        attributes = {(g, c.votes, c.created_at) for g, c in zip(_semantic_gains(record), record.candidates)}
        assert len(attributes) == record.pool_size, f"{record.question_id} holds full twins"
    generations.update((row["record_id"], row["text"]) for row in _jsonl_rows(paths["generations"]))
    scores = {row["record_id"]: row["score"] for row in _jsonl_rows(paths["scores"])}
    scores.update((record.question_id, 0.25 * i) for i, record in enumerate(extra))
    _write_inputs(directory, records, generations, scores)
    return Corpus(records, generations, scores, _outputs(paths, directory / "out"))


def _assert_loss_rows_close(actual: dict, expected: dict):
    assert actual.keys() == expected.keys()
    for record_id, row in expected.items():
        got = actual[record_id]
        assert got.keys() == row.keys() and got["mode"] == row["mode"]
        floats = ("alpha", "l_pa", "l_pc", "total")
        np.testing.assert_allclose([got[k] for k in floats], [row[k] for k in floats], rtol=RTOL, atol=0)


@BUDGET
@given(data=st.data())
def test_shuffling_each_pool_maps_every_output_back(corpus, tmp_path_factory, data):
    shuffled, sigmas = [], {}
    for record in corpus.records:
        sigma = data.draw(st.permutations(range(record.pool_size)), label=record.question_id)
        inverse = np.argsort(sigma)
        shuffled.append(
            record.replace(
                candidates=tuple(record.candidates[s] for s in sigma),
                gold_ranking=tuple(int(inverse[c]) for c in record.gold_ranking),
            )
        )
        sigmas[record.question_id] = sigma
    directory = tmp_path_factory.mktemp("shuffled")
    out = _outputs(corpus.write(directory, shuffled), directory / "out")

    mapped = {r: {"order": [sigmas[r][c] for c in row["order"]]} for r, row in out["rank"].items()}
    assert mapped == corpus.outputs["rank"]
    assert out["eval"] == corpus.outputs["eval"]
    _assert_loss_rows_close(out["loss"], corpus.outputs["loss"])
    weights = corpus.outputs["train-toy"]
    assert np.abs(out["train-toy"] - weights).max() <= RTOL * np.abs(weights).max()


@BUDGET
@given(order=st.permutations(range(8)))
def test_reordering_the_records_leaves_each_records_rows_unchanged(corpus, tmp_path_factory, order):
    directory = tmp_path_factory.mktemp("reordered")
    paths = corpus.write(directory, [corpus.records[i] for i in order])
    out = _outputs(paths, directory / "out", ("rank", "loss", "train-toy"))
    assert out["rank"] == corpus.outputs["rank"]
    assert out["loss"] == corpus.outputs["loss"]
    # Training visits records sorted by id, whatever the file order.
    assert out["train-toy"].tobytes() == corpus.outputs["train-toy"].tobytes()


@BUDGET
@given(index=st.integers(0, 7), position=st.integers(0, 8))
def test_a_copied_record_gets_the_originals_rows(corpus, tmp_path_factory, index, position):
    original = corpus.records[index]
    records = list(corpus.records)
    records.insert(position, original.replace(question_id="copy"))
    directory = tmp_path_factory.mktemp("copied")
    out = _outputs(corpus.write(directory, records), directory / "out", ("rank", "loss"))
    for command in ("rank", "loss"):
        assert out[command].pop("copy") == corpus.outputs[command][original.question_id]
        assert out[command] == corpus.outputs[command]


# (id, body, votes, day): the accepted answer, full twins 8 and 10, answer 9
# with their votes and time but its own text, and a 0-vote answer.  Ids
# compare as strings, so the tie goes 10, 8, 9 whatever the dump's order.
TWIN_POOL = (
    (70, "<p>abc bad cab</p>", 9, 2),
    (8, "<p>cab bed</p>", 5, 4),
    (10, "<p>cab bed</p>", 5, 4),
    (9, "<p>dab ace</p>", 5, 4),
    (11, "<p>bee</p>", 0, 3),
)


@BUDGET
@given(order=st.permutations(range(len(TWIN_POOL))))
def test_shuffling_a_dumps_answers_maps_the_gold_ranking_back(tmp_path_factory, order):
    answers = [
        answer_row(aid, 7, body=body, created=f"2024-01-{day:02d}T00:00:00", score=votes)
        for aid, body, votes, day in TWIN_POOL
    ]
    directory = tmp_path_factory.mktemp("twins")
    dump = directory / "Posts.xml"
    rows = [question_row(7, "<p>which cab is bed</p>", accepted_id=70), *(answers[i] for i in order)]
    dump.write_text(posts_xml(rows), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", str(dump), "--out", str(directory / "records.jsonl")]) == 0
    [record] = read_records(directory / "records.jsonl")
    assert [record.candidates[c].id for c in record.gold_ranking] == ["70", "10", "8", "9", "11"]


TEXTS = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=6).map(" ".join)
POOL_TEXTS = st.lists(TEXTS, min_size=2, max_size=6, unique=True)


@BUDGET
@given(
    pools=st.lists(
        st.tuples(POOL_TEXTS, st.lists(st.integers(0, 30), min_size=6, max_size=6), TEXTS),
        min_size=1,
        max_size=4,
    )
)
def test_embed_then_rank_loss_and_train_from_the_table_equal_the_hashed_runs(tmp_path_factory, pools):
    records = []
    for i, (texts, votes, question) in enumerate(pools):
        pool = [
            make_candidate(c, content=text, votes=v, days=v % 7)
            for c, (text, v) in enumerate(zip(texts, votes))
        ]
        records.append(make_record(f"h{i}", question_text=question, candidates=pool))
    directory = tmp_path_factory.mktemp("table")
    paths = _write_inputs(directory, records, {}, {})
    table = _run("embed", paths, directory / "embed")
    runs = {}
    for name, extra in (("hashed", ()), ("from-table", ("--embeddings", table))):
        out_dir = directory / name
        trace = out_dir / "trace.jsonl"
        runs[name] = [
            _attempt(command, paths, out_dir, *extra, *more)
            for command, more in (("rank", ()), ("loss", ()), ("train-toy", ("--trace", trace)))
        ]
        runs[name].append(trace.read_bytes() if trace.exists() else None)
    assert runs["hashed"][0][0] == 0
    # `loss` and `train-toy` refuse a pool where a candidate ties all others in
    # one attribute (exit 4); the two runs must then fail alike.
    assert runs["from-table"] == runs["hashed"]


@BUDGET
@given(pools=st.lists(st.tuples(POOL_TEXTS, TEXTS, st.randoms(use_true_random=False)), min_size=1, max_size=4))
def test_embed_then_eval_from_the_table_equals_the_hashed_eval(tmp_path_factory, pools):
    records, generations, scores = [], {}, {}
    for i, (texts, generated, rng) in enumerate(pools):
        pool = [make_candidate(c, content=text) for c, text in enumerate(texts)]
        record = make_record(f"h{i}", candidates=pool, gold=tuple(rng.sample(range(len(pool)), len(pool))))
        records.append(record)
        generations[record.question_id] = generated
        scores[record.question_id] = rng.random()
    directory = tmp_path_factory.mktemp("eval-table")
    paths = _write_inputs(directory, records, generations, scores)
    table = _run("embed", paths, directory / "embed")
    hashed, from_table = (
        json.loads(_run("eval", paths, directory / name, *extra).read_text(encoding="utf-8"))
        for name, extra in (("hashed", ()), ("from-table", ("--embeddings", table)))
    )
    assert hashed.pop("embedder") != from_table.pop("embedder")
    assert from_table == hashed
