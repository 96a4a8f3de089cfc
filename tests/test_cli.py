"""End-to-end subcommand behavior, exit codes, and manifests."""

import json
from dataclasses import replace

import numpy as np
import pytest

from prefrank import objective
from prefrank.cli import main
from prefrank.corpus import read_records, write_records
from prefrank.embed import HashedNgramEmbedder
from prefrank.evaluation import pearson_r, pool_similarities, spearman_r
from prefrank.pipeline import build_perception, prepare_records
from prefrank.policy import LogProbTable, ToyPolicy, load_logprob_file
from prefrank.ranking import brute_force_rank

from conftest import make_candidate, make_record


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
        LogProbTable.from_policy(ToyPolicy.fresh(seed=2), read_records(path)).write(logprobs)
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
            l_pa = objective.perceptual_alignment_loss(table.tokens_for(record.question_id, top))
            l_pc = objective.perceptual_comparison_loss(
                table.scores_for(record),
                perception.dynamic,
                perception.singles,
                perception.multi,
                "literal",
            )
            row = {"record_id": record.question_id, "mode": "literal"}
            row.update(objective.total_loss(l_pc, l_pa, objective.DEFAULT_ALPHA).to_dict())
            expected_losses.append(row)
        assert expected_losses[-1]["record_id"] == "r3"
        assert losses.read_text() == jsonl(expected_losses)

    def test_external_embeddings_match_hashed(self, records_file, tmp_path):
        emb = tmp_path / "emb.tsv"
        assert run(["embed", "--records", records_file, "--out", emb]) == 0
        out_hashed = tmp_path / "hashed.jsonl"
        out_table = tmp_path / "table.jsonl"
        assert run(["rank", "--records", records_file, "--out", out_hashed]) == 0
        assert (
            run(
                [
                    "rank",
                    "--records",
                    records_file,
                    "--out",
                    out_table,
                    "--embeddings",
                    emb,
                ]
            )
            == 0
        )
        assert out_hashed.read_text() == out_table.read_text()


class TestLoss:
    def test_alpha_zero_total_equals_comparison(self, records_file, tmp_path):
        record = read_records(records_file)[0]
        table = LogProbTable.from_policy(ToyPolicy.fresh(seed=2), [record])
        logprobs = tmp_path / "logprobs.jsonl"
        table.write(logprobs)
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
            assert row["mode"] == "literal"

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
        table = LogProbTable.from_policy(ToyPolicy.fresh(seed=0), [record])
        logprobs = tmp_path / "logprobs.jsonl"
        table.write(logprobs)
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
            LogProbTable.from_policy(ToyPolicy.fresh(seed=0), records).write(logprobs)
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
        write_records(records_file, [replace(three_candidate_record(), gold_ranking=(2, 1, 0))])
        gens = tmp_path / "gens.jsonl"
        gens.write_text(json.dumps({"record_id": "r3", "text": 5}) + "\n")
        args = ["eval", "--records", records_file, "--generations", gens, "--out", tmp_path / "e.json"]
        if table:
            emb = tmp_path / "emb.tsv"
            assert run(["embed", "--records", records_file, "--out", emb]) == 0
            capsys.readouterr()
            args += ["--embeddings", emb]
        assert_file_format_error(run(args), capsys, 1)


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


class TestNumericFlags:
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


class TestTrainToy:
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
        ],
        ids=["nan", "inf-string", "duplicate"],
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
        write_records(records_file, [replace(three_candidate_record(), gold_ranking=(2, 1, 0))])
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
