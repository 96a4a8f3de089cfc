"""Tests for the benchmark's workload generator and its ranking oracle.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks
import workload
from prefrank import cli
from prefrank.apdf import ApdfMatrix
from prefrank.corpus import read_records
from prefrank.ranking import SemanticRank, dynamic_rank


@pytest.mark.parametrize("name", sorted(workload.SHAPES))
def test_ingest_prints_the_planned_stage_counts(name, tmp_path):
    plan = workload.make_plan(name, seed=3)
    paths = workload.write_inputs(plan, tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([
            "ingest", str(paths["dump"]), "--out", str(tmp_path / "records.jsonl"), "--require-code-block",
            "--min-pool-size", str(plan.shape.min_pool_size), "--min-vote-gap", str(workload.MIN_VOTE_GAP),
        ])
    assert code == 0
    assert checks.check_stdout(plan, "ingest", out.getvalue()) == []
    assert checks.check_records(plan, read_records(tmp_path / "records.jsonl")) == []


@pytest.mark.parametrize("name", sorted(workload.SHAPES))
def test_plan_fails_questions_at_every_stage(name):
    lines = workload.make_plan(name, seed=0).ingest_lines()
    stages = [lines[k] for k in ("parsed", "accepted", "code_block", "cleaned", "quality")]
    assert stages == sorted(stages, reverse=True) and len(set(stages)) == len(stages)
    for key in ("rejected_pool_too_small", "rejected_vote_gap_too_small",
                "warning_orphan_answer", "warning_question_without_answers"):
        assert lines[key] > 0


def test_inputs_depend_on_the_seed_alone(tmp_path):
    def files(seed, directory):
        paths = workload.write_inputs(workload.make_plan("small-pools", seed), directory)
        return [p.read_bytes() for p in paths.values()]

    assert files(4, tmp_path / "a") == files(4, tmp_path / "b")
    assert files(4, tmp_path / "a") != files(5, tmp_path / "c")


def _symmetric(rng, size: int, tie_heavy: bool) -> np.ndarray:
    if tie_heavy:
        upper = rng.integers(0, 3, (size, size)).astype(np.float64)
    else:
        upper = rng.uniform(0.0, 1.0, (size, size)) * (rng.random((size, size)) < 0.8)
    upper = np.triu(upper, 1)
    return upper + upper.T


@pytest.mark.parametrize("tie_heavy", [False, True])
def test_oracle_agrees_with_dynamic_rank(tie_heavy):
    rng = np.random.default_rng(11 if tie_heavy else 12)
    for _ in range(400):
        size = int(rng.integers(1, 25))
        values = _symmetric(rng, size, tie_heavy)
        arank = SemanticRank(rng.permutation(size))
        expected = dynamic_rank(ApdfMatrix("test", values), arank).order
        assert checks.greedy_order(values, arank.rank_of) == expected


def test_oracle_places_leftovers_in_semantic_order():
    rank_of = np.array([2, 0, 1])
    assert checks.greedy_order(np.zeros((3, 3)), rank_of) == [1, 2, 0]
