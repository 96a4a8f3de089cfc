"""End-to-end subcommand behavior, exit codes, and manifests."""

import ast
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import prefrank
from prefrank import objective, pipeline, policy
from prefrank import cli
from prefrank.cli import build_parser, main
from prefrank.corpus import logprob_rows, read_records, write_logprob_file, write_records
from prefrank.embed import HashedNgramEmbedder, write_external_embeddings
from prefrank.evaluation import pearson_r, pool_similarities, spearman_r
from prefrank.pipeline import build_perception, prepare_records
from prefrank.policy import ToyPolicy, load_logprob_file, logprob_table
from prefrank.ranking import brute_force_rank

from conftest import (
    CLI_READERS,
    PLAIN_BODY,
    answer_row,
    cli_argv,
    make_candidate,
    make_record,
    posts_xml,
    question_row,
    write_cli_inputs,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(args):
    return main([str(a) for a in args])


def three_candidate_record():
    """Pool whose dynamic ranking is hand-checkable: candidate 2 matches the
    question text and has the most votes, so it dominates both attributes."""
    return make_record(
        "r3",
        question_text="rotate a list in place",
        candidates=(
            make_candidate(0, content="slice and concatenate copies", votes=1),
            make_candidate(1, content="use collections.deque rotate", votes=5, accepted=True),
            make_candidate(2, content="rotate a list in place", votes=25),
        ),
    )


def jsonl(rows) -> str:
    return "".join(json.dumps(row) + "\n" for row in rows)


@pytest.fixture
def records_file(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(path, [three_candidate_record()])
    return path


class TestIngest:
    def test_pipeline_counts_and_artifacts(self, dump_plan_file, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        code = run(
            [
                "ingest",
                dump_plan_file,
                "--out",
                out,
                "--require-code-block",
                "--min-pool-size",
                3,
                "--min-vote-gap",
                5,
                "--no-decay",
            ]
        )
        assert code == 0
        printed = dict(
            line.split("\t") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert printed["parsed"] == "25"
        assert printed["accepted"] == "18"
        assert printed["code_block"] == "12"
        assert printed["quality"] == "7"
        records = read_records(out)
        assert len(records) == 7
        assert all(r.gold_ranking is not None for r in records)
        assert all(r.candidates[r.gold_ranking[0]].accepted for r in records)
        manifest = json.loads((tmp_path / "records.jsonl.manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert manifest["counts"]["quality"] == 7
        assert len(manifest["inputs"]) == 1

    def test_missing_dump_is_io_error(self, tmp_path):
        assert run(["ingest", tmp_path / "nope.xml", "--out", tmp_path / "o.jsonl"]) == 3

    def test_repeated_ids_are_skipped_and_counted(self, tmp_path, capsys):
        rows = [
            question_row(1, PLAIN_BODY, accepted_id=11),
            answer_row(11, 1, score=2),
            answer_row(12, 1, score=5),
            question_row(1, "<p>a later copy</p>"),
            answer_row(12, 1, score=7),
        ]
        dump, out = tmp_path / "Posts.xml", tmp_path / "records.jsonl"
        dump.write_text(posts_xml(rows), encoding="utf-8")
        assert run(["ingest", dump, "--out", out]) == 0
        printed = dict(line.split("\t") for line in capsys.readouterr().out.strip().splitlines())
        assert printed["warning_duplicate_Id"] == "2"
        [record] = read_records(out)
        assert record.question_text == "Is there a canonical reference for this?"
        assert [(c.id, c.votes) for c in record.candidates] == [("11", 2), ("12", 5)]

    def test_manifest_counts_are_the_printed_counts(self, tmp_path, capsys):
        rows = [
            question_row(1, PLAIN_BODY, accepted_id=11),
            answer_row(11, 1, score=2),
            answer_row(11, 1, score=3),
            question_row(2, PLAIN_BODY, accepted_id=21),
            *(answer_row(20 + i, 2, score=i) for i in range(1, 4)),
        ]
        dump, out = tmp_path / "Posts.xml", tmp_path / "records.jsonl"
        dump.write_text(posts_xml(rows), encoding="utf-8")
        assert run(["ingest", dump, "--out", out, "--max-pool-size", 2]) == 0
        printed = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert printed["rejected_pool_too_large"] == printed["warning_duplicate_Id"] == "1"
        counts = json.loads((tmp_path / "records.jsonl.manifest.json").read_text())["counts"]
        assert counts == {key: int(value) for key, value in printed.items()}


class TestRank:
    def test_matches_library_and_oracle(self, records_file, tmp_path):
        out = tmp_path / "ranks.jsonl"
        assert run(["rank", "--records", records_file, "--out", out]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 1
        record = read_records(records_file)[0]
        embedder = HashedNgramEmbedder()
        perception = build_perception(record, embedder=embedder)
        assert rows[0]["order"] == perception.dynamic.order
        assert rows[0]["order"] == brute_force_rank(perception.multi, perception.arank).order
        # candidate 2 dominates semantics and popularity
        assert rows[0]["order"][0] == 2

    def test_rank_and_loss_rows_match_library_loop(self, tmp_path):
        # File order r3, q0..q5: sorting by id moves r3 from first to last.
        records = [three_candidate_record()]
        for i in range(6):
            records.append(
                make_record(
                    f"q{i}",
                    question_text=f"question number {i}",
                    candidates=(
                        make_candidate(0, content=f"first answer {i}", votes=3, accepted=True),
                        make_candidate(1, content=f"second answer {i} text", votes=9),
                    ),
                )
            )
        path = tmp_path / "records.jsonl"
        write_records(path, records)
        logprobs = tmp_path / "logprobs.jsonl"
        write_logprob_file(logprobs, logprob_table(ToyPolicy.fresh(seed=2), read_records(path)))
        ranks, losses = tmp_path / "ranks.jsonl", tmp_path / "losses.jsonl"
        assert run(["rank", "--records", path, "--out", ranks, "--no-decay"]) == 0
        argv = ["loss", "--records", path, "--logprobs", logprobs, "--out", losses, "--no-decay"]
        assert run(argv) == 0

        prepared = prepare_records(read_records(path), embedder=HashedNgramEmbedder(), decay=None)
        expected_ranks = [
            {"record_id": p.record.question_id, "order": p.perception.dynamic.order}
            for p in prepared
        ]
        assert expected_ranks[0]["record_id"] == "r3"
        assert ranks.read_text() == jsonl(expected_ranks)

        table = load_logprob_file(logprobs)
        expected_losses = []
        for p in sorted(prepared, key=lambda p: p.record.question_id):
            record, perception = p.record, p.perception
            top = record.candidates[perception.dynamic.top()].id
            l_pa = -float(np.mean(table[record.question_id, top]))
            l_pc = objective.perceptual_comparison_loss(
                objective.policy_scores_from_logprobs(logprob_rows(table, record)),
                perception.dynamic,
                perception.singles,
                perception.multi,
                objective.MODE_TOP_ANCHORED,  # the CLI's default schedule
            )
            row = {"record_id": record.question_id, "mode": "top_anchored"}
            row.update(objective.LossBreakdown(l_pa, l_pc, objective.DEFAULT_ALPHA).to_dict())
            expected_losses.append(row)
        assert expected_losses[-1]["record_id"] == "r3"
        assert losses.read_text() == jsonl(expected_losses)

    # argv after `--records`: `{out}` is the run's own directory, the other names are inputs.
    @pytest.mark.parametrize(
        "template",
        [
            pytest.param("rank --out {out}/ranks.jsonl", id="rank"),
            *(
                pytest.param(
                    f"loss --logprobs {{logprobs}} --out {{out}}/losses.jsonl --mode {mode}",
                    id=f"loss-{mode}",
                )
                for mode in ("literal", "top_anchored")
            ),
            *(
                pytest.param(
                    "train-toy --out-policy {out}/policy.bin --trace {out}/trace.jsonl --epochs 1"
                    f" --mode {mode}",
                    id=f"train-toy-{mode}",
                )
                for mode in ("literal", "top_anchored")
            ),
            pytest.param("export-heatmap --record-id r1 --out {out}/heatmap.csv", id="export-heatmap"),
            pytest.param("eval --generations {generations} --out {out}/report.json", id="eval"),
        ],
    )
    def test_external_embeddings_match_hashed(self, tmp_path, template):
        # A table that `embed` wrote holds the hashed embedder's floats, so every artifact is
        # the same byte for byte, apart from the `embedder` field of `eval`'s report.
        paths = write_cli_inputs(tmp_path)
        emb = tmp_path / "emb.tsv"
        embed = ["embed", "--records", paths["records"], "--generations", paths["generations"]]
        assert run(embed + ["--out", emb]) == 0
        artifacts = []
        for variant, extra in (("hashed", []), ("table", ["--embeddings", emb])):
            out = tmp_path / variant
            out.mkdir()
            command, *argv = (token.format(out=out, **paths) for token in template.split())
            assert run([command, "--records", paths["records"], *argv, *extra]) == 0
            written = [p for p in out.iterdir() if ".manifest" not in p.name]
            artifacts.append({p.name: p.read_bytes() for p in written})
        if command == "eval":
            reports = [json.loads(files.pop("report.json")) for files in artifacts]
            embedders = [report.pop("embedder") for report in reports]
            assert embedders == ["hashed_ngram(dim=256,ngram=3)", "external"]
            assert reports[0] == reports[1]
        assert artifacts[0] == artifacts[1]


class TestLoss:
    def test_alpha_zero_total_equals_comparison(self, records_file, tmp_path):
        record = read_records(records_file)[0]
        table = logprob_table(ToyPolicy.fresh(seed=2), [record])
        logprobs = tmp_path / "logprobs.jsonl"
        write_logprob_file(logprobs, table)
        out = tmp_path / "loss.jsonl"
        code = run(
            [
                "loss",
                "--records",
                records_file,
                "--logprobs",
                logprobs,
                "--out",
                out,
                "--alpha",
                0,
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows
        for row in rows:
            assert row["total"] == row["l_pc"]
            assert row["mode"] == "top_anchored"

    def test_rows_equal_library_record_loss_at_its_defaults(self, records_file, tmp_path):
        # Neither side names a mode or an alpha; `--no-decay` matches the library's `decay=None`.
        record = read_records(records_file)[0]
        logprobs, out = tmp_path / "logprobs.jsonl", tmp_path / "loss.jsonl"
        write_logprob_file(logprobs, logprob_table(ToyPolicy.fresh(seed=2), [record]))
        assert run(["loss", "--records", records_file, "--logprobs", logprobs, "--out", out, "--no-decay"]) == 0
        pi_s = objective.policy_scores_from_logprobs(logprob_rows(load_logprob_file(logprobs), record))
        breakdown = objective.record_loss(pi_s, build_perception(record, embedder=HashedNgramEmbedder()))
        assert json.loads(out.read_text()) == {"record_id": "r3", "mode": "top_anchored", **breakdown.to_dict()}

    def test_degenerate_pool_exits_4(self, tmp_path):
        # Identical texts and votes: both matrices are all-zero, so the
        # round's reward weight is zero.
        record = make_record(
            "dg",
            candidates=(
                make_candidate(0, content="same words", votes=4, accepted=True),
                make_candidate(1, content="same words", votes=4),
            ),
        )
        records = tmp_path / "records.jsonl"
        write_records(records, [record])
        table = logprob_table(ToyPolicy.fresh(seed=0), [record])
        logprobs = tmp_path / "logprobs.jsonl"
        write_logprob_file(logprobs, table)
        out = tmp_path / "loss.jsonl"
        code = run(["loss", "--records", records, "--logprobs", logprobs, "--out", out])
        assert code == 4

    @pytest.mark.parametrize("command", ["loss", "train-toy"])
    def test_degenerate_pool_error_names_the_record(self, tmp_path, capsys, command):
        # 'dg' has equal votes, so with decay off its popularity matrix is all zero.
        records = [
            make_record(
                qid,
                question_text=f"question {qid}",
                candidates=(
                    make_candidate(0, content=f"first answer {qid}", votes=votes, accepted=True),
                    make_candidate(1, content=f"second answer {qid} differs", votes=2),
                ),
            )
            for qid, votes in (("a1", 9), ("dg", 2), ("z9", 7))
        ]
        path = tmp_path / "records.jsonl"
        write_records(path, records)
        if command == "loss":
            logprobs = tmp_path / "logprobs.jsonl"
            write_logprob_file(logprobs, logprob_table(ToyPolicy.fresh(seed=0), records))
            argv = ["loss", "--records", path, "--logprobs", logprobs, "--out", tmp_path / "o"]
        else:
            argv = ["train-toy", "--records", path, "--out-policy", tmp_path / "p.bin"]
        code = run(argv + ["--no-decay"])
        assert code == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        payload = json.loads(err)
        assert payload["error"] == "degenerate_input"
        assert payload["message"].startswith("record 'dg': round 0: reward weight")

    @staticmethod
    def set_logprobs(paths, record_id, values, count):
        """Give the first `count` candidates of `record_id` the token logprobs `values`."""
        rows = [json.loads(line) for line in paths["logprobs"].read_text().splitlines()]
        for row in [row for row in rows if row["record_id"] == record_id][:count]:
            row["logprobs"] = values
        paths["logprobs"].write_text("".join(json.dumps(row) + "\n" for row in rows))

    @pytest.mark.parametrize("tokens", [1, 2])
    def test_logprobs_near_the_float_limit_are_refused_naming_the_record(self, tmp_path, capsys, tokens):
        # One such token per row overflowed the comparison loss to Infinity (exit 0);
        # two overflowed each score's mean (exit 2, naming no record).
        paths = write_cli_inputs(tmp_path)
        self.set_logprobs(paths, "r1", [-1.7e308] * tokens, count=2)
        argv = cli_argv("loss", paths, tmp_path)
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "io"
        assert "'r1'" in payload["message"] and "logprobs must be in [-1e+100, 0]" in payload["message"]
        assert not (tmp_path / "loss.out").exists()

    def test_logprobs_at_the_bound_give_finite_losses(self, tmp_path, capsys):
        paths = write_cli_inputs(tmp_path)
        # r1's comparison rounds score candidates at the bound; all of r2's are at it,
        # so its l_pa is 1e100 and, with the largest alpha, its total is 1e200.
        self.set_logprobs(paths, "r1", [-1e100, -1e100], count=2)
        self.set_logprobs(paths, "r2", [-1e100], count=2)
        assert run(cli_argv("loss", paths, tmp_path) + ["--alpha", "1e100"]) == 0
        assert capsys.readouterr().err == ""

        def refuse(token):
            raise AssertionError(f"{token} in the output")

        out = tmp_path / "loss.out"
        rows = [json.loads(line, parse_constant=refuse) for line in out.read_text().splitlines()]
        assert [row["record_id"] for row in rows] == ["r1", "r2"]
        manifest = (tmp_path / "loss.out.manifest.json").read_text()
        summary = json.loads(manifest, parse_constant=refuse)["summary"]
        assert summary["mean_total"] > 1e199


def assert_file_format_error(code, capsys, line):
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["error"] == "io"
    assert f"line {line}" in payload["message"]
    return payload


class TestNonStringText:
    @pytest.mark.parametrize(
        "field, value", [("content", 7), ("content", None), ("question_text", ["q"])]
    )
    def test_record_text_is_file_format_error(self, records_file, tmp_path, capsys, field, value):
        good = records_file.read_text()
        bad = json.loads(good)
        if field == "content":
            bad["candidates"][0]["content"] = value
        else:
            bad["question_text"] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(good + json.dumps(bad) + "\n")
        code = run(["rank", "--records", path, "--out", tmp_path / "r.jsonl"])
        assert_file_format_error(code, capsys, 2)

    @pytest.mark.parametrize("table", [False, True])
    def test_generation_text_is_file_format_error(self, tmp_path, capsys, table):
        records_file = tmp_path / "records.jsonl"
        write_records(records_file, [three_candidate_record().replace(gold_ranking=(2, 1, 0))])
        gens = tmp_path / "gens.jsonl"
        gens.write_text(json.dumps({"record_id": "r3", "text": 5}) + "\n")
        args = ["eval", "--records", records_file, "--generations", gens, "--out", tmp_path / "e.json"]
        if table:
            emb = tmp_path / "emb.tsv"
            assert run(["embed", "--records", records_file, "--out", emb]) == 0
            capsys.readouterr()
            args += ["--embeddings", emb]
        assert_file_format_error(run(args), capsys, 1)


class TestWrongRowTypes:
    @pytest.mark.parametrize(
        "name, command, row",
        [
            ("logprobs", "loss", '{"record_id": "r1", "candidate_id": "a1", "logprobs": ["-1.5"]}'),
            ("logprobs", "loss", '{"record_id": "r1", "candidate_id": "a1", "logprobs": [false]}'),
            ("logprobs", "loss", '{"record_id": "r1", "candidate_id": "a1", "logprobs": [-1%s]}'
             % ("0" * 400)),
            ("logprobs", "loss", '["r1", "a1", [-1.5]]'),
            ("logprobs", "loss", '{"record_id": "r1", "logprobs": [-1.5]}'),
            ("generations", "eval", '"rotate the list in place"'),
            ("generations", "embed", '["r2", "sort the dict by its values"]'),
        ],
        ids=["logprob-string", "logprob-bool", "logprob-400-digits", "logprob-array-row",
             "logprob-missing-key", "generation-string-row", "generation-array-row"],
    )
    def test_row_of_the_wrong_type_names_its_line(self, tmp_path, capsys, name, command, row):
        paths = write_cli_inputs(tmp_path)
        lines = paths[name].read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = row + "\n"
        paths[name].write_text("".join(lines), encoding="utf-8")
        assert_file_format_error(run(cli_argv(command, paths, tmp_path)), capsys, 2)
        assert not list(tmp_path.glob(f"{command}.out*"))


class TestEmbeddingKeys:
    """Table keys are `<record_id>`, `<record_id>/<candidate_id>` and `<record_id>/generation`."""

    @staticmethod
    def write_records_file(tmp_path, *records):
        path = tmp_path / "records.jsonl"
        write_records(path, records)
        return path

    def test_embed_refuses_a_candidate_named_generation(self, tmp_path, capsys):
        generation = make_candidate(0, cid="generation")
        records = [three_candidate_record(), make_record("r4", candidates=(generation,))]
        gens = tmp_path / "gens.jsonl"
        gens.write_text(jsonl({"record_id": r.question_id, "text": "a generation"} for r in records))
        argv = ["embed", "--records", self.write_records_file(tmp_path, *records), "--generations", gens]
        assert run(argv + ["--out", tmp_path / "emb.tsv"]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "validation"
        assert payload["message"].startswith("record 'r4': candidate id 'generation'")
        assert not (tmp_path / "emb.tsv").exists()

    @pytest.mark.parametrize("command", ["rank", "eval"])
    def test_reading_a_table_refuses_a_candidate_named_generation(self, tmp_path, capsys, command):
        record = make_record("r4", candidates=(make_candidate(0, cid="generation"), make_candidate(1)))
        records = self.write_records_file(tmp_path, record.replace(gold_ranking=(0, 1)))
        # Written through the library: `embed` itself refuses this record.
        emb = tmp_path / "emb.tsv"
        embedder = HashedNgramEmbedder()
        keys = ("r4", "r4/generation", "r4/a1")
        write_external_embeddings(emb, {key: embedder.embed(key) for key in keys})
        argv = [command, "--records", records, "--embeddings", emb, "--out", tmp_path / "out"]
        if command == "eval":
            gens = tmp_path / "gens.jsonl"
            gens.write_text(jsonl([{"record_id": "r4", "text": "a generation"}]))
            argv += ["--generations", gens]
        assert run(argv) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["message"].startswith("record 'r4': candidate id 'generation'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "record_ids, key, message",
        [
            (("r", "r/a0"), "r/a0", "is written twice"),
            (("r\t1",), "r\t1", "is empty or holds a tab, CR or LF"),
            (("r\r1",), "r\r1", "is empty or holds a tab, CR or LF"),
            (("",), "", "is empty or holds a tab, CR or LF"),
        ],
        ids=["repeated", "tab", "carriage-return", "empty"],
    )
    def test_embed_refuses_a_key_it_cannot_write(self, tmp_path, capsys, record_ids, key, message):
        records = self.write_records_file(tmp_path, *(make_record(rid) for rid in record_ids))
        assert run(["embed", "--records", records, "--out", tmp_path / "emb.tsv"]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "validation", "message": f"embedding key {key!r} {message}"}
        assert not (tmp_path / "emb.tsv").exists()


class TestInternalErrors:
    @pytest.mark.parametrize(
        "error", [RuntimeError("boom"), MemoryError(), ValueError("boom")], ids=["runtime", "memory", "value"]
    )
    def test_an_unmapped_exception_exits_1_without_a_traceback(self, tmp_path, capsys, monkeypatch, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(pipeline, "prepare_records", failing)
        paths = write_cli_inputs(tmp_path)
        assert run(cli_argv("rank", paths, tmp_path)) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "internal", "message": f"{type(error).__name__}: {error}"}


class TestEncodingErrors:
    def test_records_file(self, records_file, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(records_file.read_bytes() + b'{"question_id": "\xff"}\n')
        code = run(["rank", "--records", path, "--out", tmp_path / "r.jsonl"])
        assert "invalid UTF-8" in assert_file_format_error(code, capsys, 2)["message"]

    def test_embeddings_table(self, records_file, tmp_path, capsys):
        emb = tmp_path / "emb.tsv"
        assert run(["embed", "--records", records_file, "--out", emb]) == 0
        capsys.readouterr()
        lines = emb.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b"\t", b"\t\xff ", 1)
        emb.write_bytes(b"".join(lines))
        argv = ["rank", "--records", records_file, "--out", tmp_path / "r.jsonl", "--embeddings", emb]
        assert "invalid UTF-8" in assert_file_format_error(run(argv), capsys, 2)["message"]

    @pytest.mark.parametrize("file, field", [("records", "question_id"), ("records", "content"),
                                             ("generations", "text")])
    def test_lone_surrogate_escape_names_its_line(self, tmp_path, capsys, file, field):
        # json.loads reads "\\ud800" as a str that no UTF-8 writer or encoder accepts.
        paths = write_cli_inputs(tmp_path)
        lines = paths[file].read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[1])
        (row["candidates"][0] if field == "content" else row)[field] = "a\ud800b"
        lines[1] = json.dumps(row) + "\n"
        paths[file].write_text("".join(lines), encoding="utf-8")
        code = run(cli_argv("embed", paths, tmp_path))
        assert "surrogates not allowed" in assert_file_format_error(code, capsys, 2)["message"]
        assert not list(tmp_path.glob("embed.out*"))


class TestRepeatedIds:
    @pytest.mark.parametrize("command", sorted(CLI_READERS))
    def test_repeated_question_id_names_the_second_line(self, tmp_path, capsys, command):
        paths = write_cli_inputs(tmp_path)
        lines = paths["records"].read_text(encoding="utf-8").splitlines(keepends=True)
        paths["records"].write_text(lines[0] + lines[0] + lines[1], encoding="utf-8")
        payload = assert_file_format_error(run(cli_argv(command, paths, tmp_path)), capsys, 2)
        assert payload["message"] == "line 2: duplicate record 'r1'"
        assert not list(tmp_path.glob(f"{command}.out*"))

    @pytest.mark.parametrize(
        "name, command, expected",
        [
            ("generations", "embed", "duplicate generation 'r1'"),
            ("generations", "eval", "duplicate generation 'r1'"),
            ("scores", "eval", "duplicate external score 'r1'"),
            ("logprobs", "loss", "duplicate logprob entry ('r1', 'a0')"),
        ],
    )
    def test_repeated_row_key_names_the_line(self, tmp_path, capsys, name, command, expected):
        paths = write_cli_inputs(tmp_path)
        lines = paths[name].read_text(encoding="utf-8").splitlines(keepends=True)
        paths[name].write_text(lines[0] + lines[1] + lines[0], encoding="utf-8")
        payload = assert_file_format_error(run(cli_argv(command, paths, tmp_path)), capsys, 3)
        assert payload["message"] == f"line 3: {expected}"


class TestHugeNumbers:
    @pytest.mark.parametrize(
        "name, command",
        [("records", "rank"), ("generations", "embed"), ("scores", "eval"), ("logprobs", "loss")],
    )
    def test_integer_past_the_conversion_limit_names_its_line(self, tmp_path, capsys, name, command):
        # json.loads refuses an integer literal of more than 4,300 digits.
        paths = write_cli_inputs(tmp_path)
        lines = paths[name].read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1].rstrip()[:-1] + ', "pad": 1' + "0" * 4300 + "}\n"
        paths[name].write_text("".join(lines), encoding="utf-8")
        payload = assert_file_format_error(run(cli_argv(command, paths, tmp_path)), capsys, 2)
        assert "invalid JSON" in payload["message"]

    def test_votes_past_the_float_range_name_their_line(self, tmp_path, capsys):
        paths = write_cli_inputs(tmp_path)
        text = paths["records"].read_text(encoding="utf-8")
        paths["records"].write_text(text.replace('"votes": 25', '"votes": 1e400'), encoding="utf-8")
        payload = assert_file_format_error(run(cli_argv("rank", paths, tmp_path)), capsys, 1)
        assert "'votes' must be a JSON integer, got float" in payload["message"]


class TestNumericFlags:
    @pytest.mark.parametrize(
        "command, flag, value",
        [("loss", "--alpha", v) for v in ("inf", "nan", "-1")]
        + [("train-toy", "--alpha", "inf")]
        + [("train-toy", f, v) for f in ("--learning-rate", "--question-scale", "--init-scale")
           for v in ("nan", "inf")],
    )
    def test_non_finite_value_writes_nothing(self, tmp_path, capsys, command, flag, value):
        paths = write_cli_inputs(tmp_path)
        assert run(cli_argv(command, paths, tmp_path) + [f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        payload = json.loads(err)
        assert payload["error"] == "validation"
        assert flag[2:].replace("-", "_") in payload["message"]
        assert not list(tmp_path.glob(f"{command}.out*"))

    @pytest.mark.parametrize("command, extra", [("loss", []), ("train-toy", ["--epochs=0"])])
    def test_alpha_is_checked_when_no_loss_is_combined(self, tmp_path, capsys, command, extra):
        paths = write_cli_inputs(tmp_path)
        if command == "loss":
            paths["records"].write_text("")
        assert run(cli_argv(command, paths, tmp_path) + extra + ["--alpha=inf"]) == 2
        assert "alpha must be finite" in json.loads(capsys.readouterr().err)["message"]
        assert not list(tmp_path.glob(f"{command}.out*"))

    @pytest.mark.parametrize(
        "flag, value",
        [("--half-life-days", v) for v in ("nan", "inf", "1e300", "-1", "1e-12")]
        # The second timestamp is valid ISO-8601 but falls before year 1 in UTC.
        + [(f, v) for f in ("--reference-time", "--since")
           for v in ("yesterday", "0001-01-01T00:00:00+01:00")],
    )
    def test_bad_value_is_validation_error(
        self, records_file, dump_plan_file, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "r.jsonl"
        if flag == "--since":  # an `ingest` flag; the others are read by `rank`
            argv = ["ingest", dump_plan_file, "--out", out]
        else:
            argv = ["rank", "--records", records_file, "--out", out]
        assert run(argv + [f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        payload = json.loads(err)
        assert payload["error"] == "validation"
        assert flag in payload["message"]

    @pytest.mark.parametrize("command", sorted(CLI_READERS))
    def test_dim_past_its_bound_is_refused_before_allocation(self, tmp_path, capsys, command):
        paths = write_cli_inputs(tmp_path)
        assert run(cli_argv(command, paths, tmp_path) + ["--dim", "1000000000000"]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "validation", "message": "dim must be in [8, 65536], got 1000000000000"}
        assert not list(tmp_path.glob(f"{command}.out*"))

    @pytest.mark.parametrize(
        "command, flag",
        [("train-toy", f) for f in ("--init-scale", "--question-scale", "--learning-rate", "--alpha")]
        + [("loss", "--alpha")],
    )
    @pytest.mark.parametrize("value", ["1e308", "-1e308", "1.1e100"])
    def test_value_that_would_overflow_is_refused_by_name(self, tmp_path, capsys, command, flag, value):
        paths = write_cli_inputs(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(cli_argv(command, paths, tmp_path) + [f"{flag}={value}"]) == 2
        assert [str(w.message) for w in caught] == []
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "validation"
        assert payload["message"].startswith(flag[2:].replace("-", "_") + " must be finite and")
        assert not list(tmp_path.glob(f"{command}.out*"))


class TestTrainToy:
    @pytest.mark.parametrize("seed", ["-1", str(2**63), "99999999999999999999"])
    def test_seed_outside_the_checkpoint_field_exits_2(self, tmp_path, capsys, seed):
        paths = write_cli_inputs(tmp_path)
        assert run(cli_argv("train-toy", paths, tmp_path) + ["--seed", seed]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "validation", "message": f"seed must be in [0, 2**63), got {seed}"}
        assert not list(tmp_path.glob("train-toy.out*"))

    def test_largest_seed_is_saved(self, tmp_path):
        paths = write_cli_inputs(tmp_path)
        assert run(cli_argv("train-toy", paths, tmp_path) + ["--seed", str(2**63 - 1)]) == 0
        assert ToyPolicy.load(tmp_path / "train-toy.out").seed == 2**63 - 1

    def test_non_finite_weights_exit_4_without_a_checkpoint(self, tmp_path, capsys, monkeypatch):
        # Stands in for an update that overflows on the last step.
        train = policy.train

        def overflowing(toy, *args, **kwargs):
            result = train(toy, *args, **kwargs)
            toy.weights[0, 0] = np.inf
            return result

        monkeypatch.setattr(policy, "train", overflowing)
        paths = write_cli_inputs(tmp_path)
        assert run(cli_argv("train-toy", paths, tmp_path)) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "degenerate_input"
        assert not list(tmp_path.glob("train-toy.out*"))

    def test_checkpoint_and_trace(self, tmp_path, synthetic_suite):
        records = [item.record for item in synthetic_suite[:12]]
        records_path = tmp_path / "records.jsonl"
        write_records(records_path, records)
        ckpt = tmp_path / "policy.bin"
        trace = tmp_path / "trace.jsonl"
        code = run(
            [
                "train-toy",
                "--records",
                records_path,
                "--out-policy",
                ckpt,
                "--trace",
                trace,
                "--epochs",
                2,
                "--dim",
                64,
                "--no-decay",
                "--mode",
                "top_anchored",
            ]
        )
        assert code == 0
        loaded = ToyPolicy.load(ckpt)
        assert loaded.weights.shape == (257, 256)
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(rows) == 24
        assert all(np.isfinite(row["total"]) for row in rows)

    def test_deterministic_checkpoints(self, tmp_path, synthetic_suite):
        records = [item.record for item in synthetic_suite[:6]]
        records_path = tmp_path / "records.jsonl"
        write_records(records_path, records)
        blobs = []
        for name in ("a.bin", "b.bin"):
            ckpt = tmp_path / name
            code = run(
                [
                    "train-toy",
                    "--records",
                    records_path,
                    "--out-policy",
                    ckpt,
                    "--epochs",
                    1,
                    "--seed",
                    7,
                    "--dim",
                    64,
                    "--no-decay",
                ]
            )
            assert code == 0
            blobs.append(ckpt.read_bytes())
        assert blobs[0] == blobs[1]


class TestEval:
    def test_self_copies_hit(self, tmp_path):
        records = []
        generations = []
        for i in range(4):
            record = make_record(
                f"e{i}",
                question_text=f"question {i}",
                candidates=(
                    make_candidate(0, content=f"gold answer text {i}", votes=9, accepted=True),
                    make_candidate(1, content=f"a very different reply {i}", votes=1),
                ),
                gold=(0, 1),
            )
            records.append(record)
            generations.append({"record_id": record.question_id, "text": record.candidates[0].content})
        records_path = tmp_path / "records.jsonl"
        write_records(records_path, records)
        gens_path = tmp_path / "gens.jsonl"
        gens_path.write_text("\n".join(json.dumps(g) for g in generations) + "\n")
        out = tmp_path / "report.json"
        code = run(
            ["eval", "--records", records_path, "--generations", gens_path, "--out", out, "--k", "1,2"]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pref_hit"]["1"] == 1.0
        assert report["safer_hit"] == 1.0
        assert report["n_records"] == 4

    def test_repeated_k_is_refused_naming_it(self, tmp_path, capsys):
        paths = write_cli_inputs(tmp_path)
        assert run(cli_argv("eval", paths, tmp_path) + ["--k", "3,1,3"]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "validation", "message": "k value 3 is repeated in '3,1,3'"}
        assert not list(tmp_path.glob("eval.out*"))

    @pytest.mark.parametrize(
        "k, message",
        [
            ("1,x", "bad k list '1,x': invalid literal for int() with base 10: 'x'"),
            ("0,1", "k values must be positive integers, got '0,1'"),
            (",", "k values must be positive integers, got ','"),
        ],
        ids=["not-an-integer", "zero", "none"],
    )
    def test_a_k_list_that_is_not_positive_integers_is_refused(self, tmp_path, capsys, k, message):
        paths = write_cli_inputs(tmp_path)
        assert run(cli_argv("eval", paths, tmp_path) + ["--k", k]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "validation", "message": message}

    def test_k_is_checked_before_any_input_is_read(self, tmp_path, capsys):
        paths = write_cli_inputs(tmp_path)
        paths["generations"] = tmp_path / "missing.jsonl"
        assert run(cli_argv("eval", paths, tmp_path) + ["--k", "3,3"]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "validation", "message": "k value 3 is repeated in '3,3'"}

    @staticmethod
    def external_score_inputs(tmp_path, scores):
        """Five two-candidate records, their generations and a scores file.

        `scores` maps record ids to the JSON value of their `score`.
        """
        records = []
        generations = []
        for i in range(5):
            record = make_record(
                f"e{i}",
                candidates=(
                    make_candidate(0, content="answer alpha common tail", votes=5, accepted=True),
                    make_candidate(1, content=f"answer beta {i}", votes=1),
                ),
                gold=(0, 1),
            )
            records.append(record)
            # Increasingly corrupted copies of the gold-best text, so the
            # similarity column actually varies.
            generations.append(
                {"record_id": record.question_id, "text": "answer alpha common tail"[: 24 - 3 * i]}
            )
        records_path = tmp_path / "records.jsonl"
        write_records(records_path, records)
        gens_path = tmp_path / "gens.jsonl"
        gens_path.write_text(jsonl(generations))
        scores_path = tmp_path / "scores.jsonl"
        scores_path.write_text(jsonl({"record_id": k, "score": v} for k, v in scores.items()))
        args = ["eval", "--records", records_path, "--generations", gens_path]
        args += ["--out", tmp_path / "report.json", "--external-scores", scores_path]
        return records, generations, args

    def test_external_scores_correlations(self, tmp_path):
        scores = {f"e{i}": float(i) + 0.5 for i in range(5)}
        records, generations, args = self.external_score_inputs(tmp_path, scores)
        assert run(args) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        embedder = HashedNgramEmbedder()
        gold_best = [
            float(pool_similarities(g["text"], r, embedder=embedder)[r.gold_ranking[0]])
            for r, g in zip(records, generations)
        ]
        xs = list(scores.values())
        assert report["external_score_pearson"] == pearson_r(xs, gold_best)
        assert report["external_score_spearman"] == spearman_r(xs, gold_best)

    def test_constant_external_scores_give_null(self, tmp_path):
        _, _, args = self.external_score_inputs(tmp_path, {f"e{i}": 2.0 for i in range(5)})
        assert run(args) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["external_score_pearson"] is None
        assert report["external_score_spearman"] is None

    def test_one_paired_record_leaves_the_keys_out(self, tmp_path):
        _, _, args = self.external_score_inputs(tmp_path, {"e1": 1.0, "unknown": 3.0})
        assert run(args) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "external_score_pearson" not in report
        assert "external_score_spearman" not in report
        assert report["n_records"] == 5

    @pytest.mark.parametrize(
        "rows, line",
        [
            ([("e0", 1.0), ("e1", float("nan"))], 2),
            ([("e0", "inf")], 1),
            ([("e0", 1.0), ("e1", 2.0), ("e0", 3.0)], 3),
            ([("e0", True)], 1),
            ([("e0", 1.0), ("e1", False)], 2),
            ([("e0", "2.5")], 1),
        ],
        ids=["nan", "inf-string", "duplicate", "true", "false", "numeric-string"],
    )
    def test_bad_external_score_rows_are_file_format_errors(self, tmp_path, capsys, rows, line):
        _, _, args = self.external_score_inputs(tmp_path, {})
        # json.dumps writes a float NaN as the bare token NaN, which json.loads reads back.
        (tmp_path / "scores.jsonl").write_text(jsonl({"record_id": k, "score": v} for k, v in rows))
        assert_file_format_error(run(args), capsys, line)
        assert not (tmp_path / "report.json").exists()

    def test_embeddings_table_without_question_keys(self, tmp_path, capsys):
        records, _, args = self.external_score_inputs(tmp_path, {})
        emb = tmp_path / "emb.tsv"
        embed_args = ["embed", "--records", tmp_path / "records.jsonl", "--out", emb]
        assert run(embed_args + ["--generations", tmp_path / "gens.jsonl"]) == 0
        question_ids = {r.question_id for r in records}
        rows = emb.read_text().splitlines(keepends=True)
        kept = [row for row in rows if row.split("\t", 1)[0] not in question_ids]
        assert len(kept) == len(rows) - len(records)
        emb.write_text("".join(kept))
        assert args[-2] == "--external-scores"
        assert run(args[:-2] + ["--embeddings", emb]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["n_records"] == 5


    def test_missing_candidate_vector_is_validation_error(self, tmp_path, capsys):
        records_file = tmp_path / "records.jsonl"
        write_records(records_file, [three_candidate_record().replace(gold_ranking=(2, 1, 0))])
        gens = tmp_path / "gens.jsonl"
        gens.write_text(json.dumps({"record_id": "r3", "text": "rotate it"}) + "\n")
        emb = tmp_path / "emb.tsv"
        assert run(["embed", "--records", records_file, "--generations", gens, "--out", emb]) == 0
        capsys.readouterr()
        rows = emb.read_text().splitlines(keepends=True)
        emb.write_text("".join(row for row in rows if not row.startswith("r3/a1\t")))
        args = ["eval", "--records", records_file, "--generations", gens, "--embeddings", emb]
        assert run(args + ["--out", tmp_path / "e.json"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        payload = json.loads(err)
        assert payload["error"] == "validation"
        assert "'r3/a1'" in payload["message"]


class TestExportHeatmap:
    def test_csv_matches_library(self, records_file, tmp_path):
        out = tmp_path / "heat.csv"
        code = run(
            [
                "export-heatmap",
                "--records",
                records_file,
                "--record-id",
                "r3",
                "--attribute",
                "multi",
                "--out",
                out,
            ]
        )
        assert code == 0
        exported = np.loadtxt(out, delimiter=",")
        record = read_records(records_file)[0]
        perception = build_perception(record, embedder=HashedNgramEmbedder())
        assert np.allclose(exported, perception.multi.values, atol=1e-12)
        assert exported.shape == (3, 3)

    def test_unknown_attribute_is_refused_before_the_records_are_read(self, tmp_path, capsys):
        argv = ["export-heatmap", "--records", tmp_path / "missing.jsonl", "--record-id", "r3",
                "--attribute", "semantics", "--out", tmp_path / "x.csv"]
        with pytest.raises(SystemExit) as exited:
            run(argv)
        assert exited.value.code == 2
        assert "argument --attribute: invalid choice: 'semantics'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        for attribute in ("semantic", "popularity", "multi"):
            args = [str(a) for a in argv[:6] + [attribute] + argv[7:]]
            assert build_parser().parse_args(args).attribute == attribute

    def test_unknown_record_is_validation_error(self, records_file, tmp_path):
        code = run(
            [
                "export-heatmap",
                "--records",
                records_file,
                "--record-id",
                "missing",
                "--attribute",
                "multi",
                "--out",
                tmp_path / "x.csv",
            ]
        )
        assert code == 2


class TestManifests:
    def test_manifest_digests_inputs(self, records_file, tmp_path):
        out = tmp_path / "ranks.jsonl"
        assert run(["rank", "--records", records_file, "--out", out]) == 0
        manifest = json.loads((tmp_path / "ranks.jsonl.manifest.json").read_text())
        assert manifest["command"] == "rank"
        assert manifest["version"]
        digest = manifest["inputs"][str(records_file)]
        assert len(digest) == 64
        assert "workers" not in manifest["config"]

    def test_input_read_from_a_fifo_has_a_null_digest(self, records_file, tmp_path):
        # In a child with a timeout: digesting the FIFO after the run would block for a writer.
        fifo = tmp_path / "records.fifo"
        os.mkfifo(fifo)
        feeder = threading.Thread(target=fifo.write_bytes, args=(records_file.read_bytes(),), daemon=True)
        feeder.start()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "prefrank.cli", "rank", "--records", fifo, "--out", tmp_path / "piped.jsonl"],
                env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))},
                capture_output=True, text=True, timeout=60,
            )
        finally:
            feeder.join(timeout=10)
            if feeder.is_alive():  # the child never opened the FIFO; release the writer
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        assert done.returncode == 0, done.stderr
        assert run(["rank", "--records", records_file, "--out", tmp_path / "ranks.jsonl"]) == 0
        assert (tmp_path / "piped.jsonl").read_bytes() == (tmp_path / "ranks.jsonl").read_bytes()
        manifest = json.loads((tmp_path / "piped.jsonl.manifest.json").read_text())
        assert manifest["inputs"] == {str(fifo): None}

    def test_defaults_echo_their_library_values(self, tmp_path):
        paths = write_cli_inputs(tmp_path)
        for command in ("train-toy", "eval"):
            assert run(cli_argv(command, paths, tmp_path)) == 0
        config = json.loads((tmp_path / "train-toy.out.manifest.json").read_text())["config"]
        assert (config["half_life_days"], config["init_scale"]) == (365.0, 0.001)
        assert json.loads((tmp_path / "eval.out.manifest.json").read_text())["config"]["k"] == "1,3"


    @pytest.mark.parametrize("command", ["ingest", *CLI_READERS])
    def test_each_run_writes_one_manifest_beside_its_artifact(self, dump_plan_file, tmp_path, command):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        if command == "ingest":
            argv = ["ingest", dump_plan_file, "--out", out_dir / "ingest.out"]
        else:
            argv = cli_argv(command, write_cli_inputs(tmp_path), out_dir)
        if command == "train-toy":
            argv += ["--trace", out_dir / "trace.jsonl"]
        assert run(argv) == 0
        [manifest] = tmp_path.rglob("*.manifest.json")
        assert manifest == out_dir / f"{command}.out.manifest.json"
        blocks = {"ingest": {"counts"}, "loss": {"summary"}, "train-toy": {"summary"}}.get(command, set())
        assert json.loads(manifest.read_text()).keys() == {"command", "config", "inputs", "version", *blocks}

    def test_a_run_refused_after_reading_its_inputs_leaves_no_manifest(self, tmp_path, capsys):
        paths = write_cli_inputs(tmp_path)
        lines = paths["logprobs"].read_text().splitlines(keepends=True)
        paths["logprobs"].write_text("".join(lines[:-1]))
        assert run(cli_argv("loss", paths, tmp_path)) == 2
        assert "no log-probabilities for record" in json.loads(capsys.readouterr().err)["message"]
        assert not list(tmp_path.glob("*.manifest.json"))

    def test_only_main_writes_manifests_and_subcommands_neither_print_nor_exit(self):
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        callers = [
            f.name
            for f in functions
            for node in ast.walk(f)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_write_manifest"
        ]
        assert callers == ["main"]
        commands = [f for f in functions if f.name.startswith("cmd_")]
        assert len(commands) == 7
        names = {node.id for f in commands for node in ast.walk(f) if isinstance(node, ast.Name)}
        assert "print" not in names
        assert not {name for name in names if name.startswith("EXIT_")}


class TestOverwrites:
    def test_rank_out_on_its_records_exits_2_and_keeps_them(self, records_file, capsys):
        before = records_file.read_bytes()
        assert run(["rank", "--records", records_file, "--out", records_file]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "validation"
        assert "--out and --records" in payload["message"]
        assert records_file.read_bytes() == before
        assert not records_file.with_name("records.jsonl.manifest.json").exists()

    def test_train_toy_trace_on_its_checkpoint_exits_2(self, tmp_path, capsys):
        paths = write_cli_inputs(tmp_path)
        checkpoint = tmp_path / "policy.bin"
        argv = ["train-toy", "--records", paths["records"], "--out-policy", checkpoint, "--trace", checkpoint]
        assert run(argv) == 2
        assert "--trace and --out-policy" in json.loads(capsys.readouterr().err)["message"]
        assert not list(tmp_path.glob("policy.bin*"))

    def test_output_on_an_input_manifest_path_exits_2(self, records_file, tmp_path, capsys):
        ranks = tmp_path / "ranks.jsonl"
        records = tmp_path / "ranks.jsonl.manifest.json"
        records.write_bytes(records_file.read_bytes())
        assert run(["rank", "--records", records, "--out", ranks]) == 2
        assert "the --out manifest and --records" in json.loads(capsys.readouterr().err)["message"]
        assert not ranks.exists()


def printed(argv, capsys) -> list[str]:
    """stdout lines of a run that exits 0, through `main` or argparse's own exit."""
    try:
        code = run(argv)
    except SystemExit as exit_:
        code = exit_.code
    assert code == 0
    return capsys.readouterr().out.splitlines()


class TestFlagEffects:
    """Each flag changes what its subcommand prints; its default does not print that line."""

    @pytest.mark.parametrize(
        "command, flag, line",
        [
            # On the dump plan, without --require-code-block, 18 questions reach the quality stage.
            ("ingest", ["--max-pool-size", "3"], "rejected_pool_too_large\t2"),
            ("ingest", ["--max-question-tokens", "8"], "rejected_question_too_long\t12"),
            ("ingest", ["--max-response-tokens", "4"], "rejected_response_too_long\t18"),
            ("ingest", ["--min-votes-per-response", "1"], "rejected_votes_below_minimum\t6"),
            ("eval", ["--ngram", "4"], "embedder\thashed_ngram(dim=256,ngram=4)"),
            ("eval", ["--normalizer", "by_k"], "normalizer\tby_k"),
            (None, ["--version"], "prefrank 0.1.0"),
        ],
    )
    def test_flag_changes_the_output(self, dump_plan_file, tmp_path, capsys, command, flag, line):
        if command == "ingest":
            argv = ["ingest", dump_plan_file, "--out", tmp_path / "records.jsonl"]
        elif command == "eval":
            argv = cli_argv("eval", write_cli_inputs(tmp_path), tmp_path)
        else:
            argv = []
        assert line in printed(argv + flag, capsys)
        if argv:
            assert line not in printed(argv, capsys)


def test_version_matches_pyproject(capsys):
    # The package's metadata and `prefrank.__version__` are typed separately.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(SRC).parent / "pyproject.toml", "rb") as handle:
        version = tomllib.load(handle)["project"]["version"]
    assert prefrank.__version__ == version
    assert printed(["--version"], capsys) == [f"prefrank {version}"]
