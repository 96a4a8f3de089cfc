"""The benchmark's artifacts: README steps 1-6 through `main()` on the
benchmark's own inputs, compared with the committed `benchmark_artifacts.json`.

For seeds 1 and 7 of both workloads, `bench/workload.py` writes the
inputs and `bench/run.pipeline_argv` gives the six steps' argv, run here
in process in a temporary directory.  `bench/` is imported as it is, not
changed.

`records.jsonl`, `embeddings.tsv`, `ranks.jsonl` and `report.json` come
from the standard library alone and must keep their SHA-256.  The values
of `losses.jsonl` and `train_trace.jsonl` must match to a relative 1e-12,
and the trained weights to max|dw| / max|w| <= 1e-12, as in
`test_golden_run.py`: an unpinned numpy may differ in the last bits of its
SIMD `exp`/`log`.  Training moves 18-36 of the policy's rows, too many
floats to commit, so each moved row is pinned by its largest |dw| and by
three weighted sums of its dw.  Each of those moves by at most the rule's
bound times the weights' 1-norm, so a run the rule accepts passes.

A change that moves a pinned value on purpose regenerates the file with

    PYTHONPATH=src python tests/test_benchmark_artifacts.py

and names every moved value in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402
import workload  # noqa: E402

from prefrank.cli import main  # noqa: E402
from prefrank.policy import VOCAB, ToyPolicy  # noqa: E402

PINNED = Path(__file__).with_name("benchmark_artifacts.json")
RTOL = 1e-12
PIPELINES = [f"{name}/{seed}" for name in sorted(workload.SHAPES) for seed in (1, 7)]
EXACT = ("records.jsonl", "embeddings.tsv", "ranks.jsonl", "report.json")
ROWS = ("losses.jsonl", "train_trace.jsonl")
# Weights of the per-row sums that pin a moved policy row: all ones, alternating signs, a ramp.
SKETCH = np.stack([np.ones(VOCAB), (-1.0) ** np.arange(VOCAB), np.arange(VOCAB) / VOCAB], axis=1)


def _policy_sketch(path: Path) -> dict:
    """The weights' largest |w|, and each moved row's largest |dw| and weighted sums of dw."""
    policy = ToyPolicy.load(path)
    delta = policy.weights - ToyPolicy.fresh(seed=policy.seed).weights
    rows = np.flatnonzero(delta.any(axis=1))
    sketch = np.column_stack([np.abs(delta[rows]).max(axis=1), delta[rows] @ SKETCH])
    return {"max_abs_weight": float(np.abs(policy.weights).max()),
            "rows": {str(row): values.tolist() for row, values in zip(rows, sketch)}}


def pipeline_artifacts(pipeline: str, directory: Path) -> dict:
    """Runs the benchmark's six steps for "workload/seed" in `directory`; returns what the file pins."""
    name, seed = pipeline.split("/")
    plan = workload.make_plan(name, int(seed))
    workload.write_inputs(plan, directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for step, argv in run.pipeline_argv(plan):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, f"{pipeline}: {step} failed"
    finally:
        os.chdir(cwd)
    pinned = {"sha256": {artifact: run.sha256(directory / artifact) for artifact in EXACT}}
    for artifact in ROWS:
        lines = (directory / artifact).read_text(encoding="utf-8").splitlines()
        pinned[artifact] = [json.loads(line) for line in lines]
    pinned["policy.bin"] = _policy_sketch(directory / "policy.bin")
    return pinned


def _split_rows(rows: list[dict]) -> tuple[list[dict], list[list[float]]]:
    """(the rows' non-float fields, their float fields in key order)."""
    exact = [{k: v for k, v in row.items() if not isinstance(v, float)} for row in rows]
    floats = [[v for _, v in sorted(row.items()) if isinstance(v, float)] for row in rows]
    return exact, floats


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_benchmark_artifacts_are_unchanged(pipeline, tmp_path):
    golden = json.loads(PINNED.read_text(encoding="utf-8"))[pipeline]
    actual = pipeline_artifacts(pipeline, tmp_path)

    assert actual["sha256"] == golden["sha256"]
    for artifact in ROWS:
        exact, floats = _split_rows(actual[artifact])
        golden_exact, golden_floats = _split_rows(golden[artifact])
        assert exact == golden_exact, artifact
        np.testing.assert_allclose(floats, golden_floats, rtol=RTOL, atol=0, err_msg=artifact)

    policy, golden_policy = actual["policy.bin"], golden["policy.bin"]
    assert policy["rows"].keys() == golden_policy["rows"].keys()
    bound = RTOL * golden_policy["max_abs_weight"]
    assert abs(policy["max_abs_weight"] - golden_policy["max_abs_weight"]) <= bound
    rows = list(golden_policy["rows"])
    sketch = np.array([policy["rows"][row] for row in rows])
    golden_sketch = np.array([golden_policy["rows"][row] for row in rows])
    assert (np.abs(sketch - golden_sketch) <= bound * np.r_[1.0, np.abs(SKETCH).sum(axis=0)]).all()


if __name__ == "__main__":
    pinned = {}
    for pipeline in PIPELINES:
        with tempfile.TemporaryDirectory() as scratch:
            pinned[pipeline] = pipeline_artifacts(pipeline, Path(scratch))
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PINNED}", file=sys.stderr)
