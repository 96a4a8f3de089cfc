"""Start-up behaviour in fresh interpreters: what ``import prefrank`` and
each subcommand load, and the one-thread BLAS default that only the CLI
module applies."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from prefrank.cli import main
from prefrank.corpus import write_records
from prefrank.policy import LogProbTable, ToyPolicy

from conftest import build_dump_plan_xml, cli_argv, write_cli_inputs

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Prints the thread variables and this process's thread count as JSON.
REPORT = f"""
import json, os
tasks = "/proc/self/task"
print(json.dumps({{
    "env": {{name: os.environ.get(name) for name in {THREAD_VARS!r}}},
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}}))
"""


def child_env(**preset):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(preset)
    return env


def run_python(code, env):
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_library_import_is_lazy_and_leaves_environment_alone():
    code = """
import json, os, sys
import prefrank
state = {
    "numpy": "numpy" in sys.modules,
    "env": {name: os.environ.get(name) for name in %r},
}
# The submodules the benchmark reads, before anything else imports them.
state["submodules"] = [prefrank.embed.__name__, prefrank.pipeline.__name__,
                       prefrank.objective.__name__, prefrank.policy.__name__]
state["unresolved"] = [
    name for name in prefrank.__all__
    if getattr(sys.modules[getattr(prefrank, name).__module__], name) is not getattr(prefrank, name)
]
from prefrank import score, ToyPolicy
try:
    prefrank.no_such_name
    state["unknown"] = "resolved"
except AttributeError as exc:
    state["unknown"] = str(exc)
state["dir_has_all"] = set(prefrank.__all__) <= set(dir(prefrank))
print(json.dumps(state))
""" % (THREAD_VARS,)
    state = run_python(code, child_env())
    assert state["numpy"] is False
    assert state["env"] == dict.fromkeys(THREAD_VARS)
    assert state["submodules"] == [
        "prefrank.embed",
        "prefrank.pipeline",
        "prefrank.objective",
        "prefrank.policy",
    ]
    assert state["unresolved"] == []
    assert state["unknown"] == "module 'prefrank' has no attribute 'no_such_name'"
    assert state["dir_has_all"]


@pytest.mark.parametrize(
    "preset, expected",
    [
        ({}, {"OPENBLAS_NUM_THREADS": "1"}),
        ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"}),
        ({"OMP_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}),
    ],
)
def test_cli_import_defaults_to_one_blas_thread(preset, expected):
    # The CLI module itself loads no numpy; importing it next starts OpenBLAS under the default.
    report = run_python("import prefrank.cli\nimport numpy\n" + REPORT, child_env(**preset))
    assert report["env"] == {name: expected.get(name) for name in THREAD_VARS}
    if not preset and report["threads"] is not None:
        assert report["threads"] == 1


def test_cli_import_after_numpy_changes_nothing():
    # Too late to reach OpenBLAS; the variable would only leak to children.
    report = run_python("import numpy, prefrank.cli\n" + REPORT, child_env())
    assert report["env"] == dict.fromkeys(THREAD_VARS)


def test_outputs_do_not_depend_on_blas_threads(tmp_path, synthetic_suite):
    records = [item.record for item in synthetic_suite[:8]]
    records_path = tmp_path / "records.jsonl"
    write_records(records_path, records)
    logprobs = tmp_path / "logprobs.jsonl"
    LogProbTable.from_policy(ToyPolicy.fresh(seed=2), records).write(logprobs)
    outputs = {}
    for label, preset in (("default", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        out = tmp_path / label
        out.mkdir()
        loss = ["loss", "--records", records_path, "--logprobs", logprobs, "--out", out / "losses.jsonl"]
        train = ["train-toy", "--records", records_path, "--out-policy", out / "policy.bin",
                 "--epochs", "1", "--dim", "64"]
        code = (
            "from prefrank.cli import main\n"
            f"assert main({[str(a) for a in loss]!r}) == 0\n"
            f"assert main({[str(a) for a in train]!r}) == 0\n" + REPORT
        )
        report = run_python(code, child_env(**preset))
        assert report["env"]["OPENBLAS_NUM_THREADS"] == ("1" if label == "default" else "2")
        outputs[label] = [(out / name).read_bytes() for name in ("losses.jsonl", "policy.bin")]
    assert outputs["default"] == outputs["two"]


# numpy and the prefrank modules loaded, printed as a sorted JSON list.
LOADED = """
print(json.dumps(sorted(m for m in sys.modules if m == "numpy" or m.startswith("prefrank"))))
"""
CLI_MODULES = {"prefrank", "prefrank.cli", "prefrank.constants", "prefrank.corpus", "prefrank.errors"}
PERCEPTION_MODULES = CLI_MODULES | {"numpy", *(f"prefrank.{m}" for m in ("apdf", "embed", "pipeline", "ranking"))}
EVAL_MODULES = CLI_MODULES | {"prefrank.embed", "prefrank.evaluation"}


def hashed_eval_argv(paths, out_dir) -> list[str]:
    """`eval` with the hashed embedder and no external scores."""
    argv = ["eval", "--records", paths["records"], "--generations", paths["generations"]]
    return [str(a) for a in argv + ["--out", out_dir / "report.json"]]


def modules_loaded_by(argv) -> list[str]:
    code = f"import json, sys\nfrom prefrank.cli import main\nassert main({argv!r}) == 0\n" + LOADED
    return run_python(code, child_env())


def test_cli_import_and_decay_config_load_no_numpy():
    code = "import json, sys\nimport prefrank, prefrank.cli\nprefrank.DecayConfig\n" + LOADED
    assert run_python(code, child_env()) == sorted(CLI_MODULES)


def test_loading_the_three_inputs_loads_no_numpy(tmp_path):
    # The benchmark's set-up probe: records, logprobs and an embedding table through the
    # public names, in a fresh interpreter.  `loss` itself still loads `policy`: it reads the
    # logprob file through `policy.load_logprob_file`, the name the benchmark's tracer patches.
    paths = write_cli_inputs(tmp_path)
    table = tmp_path / "e.tsv"
    assert main(["embed", "--records", str(paths["records"]), "--out", str(table)]) == 0
    code = (
        "import json, sys\nimport prefrank\n"
        f"prefrank.read_records({str(paths['records'])!r})\n"
        f"prefrank.load_logprob_file({str(paths['logprobs'])!r})\n"
        f"prefrank.load_external_embeddings({str(table)!r})\n" + LOADED
    )
    loaded = run_python(code, child_env())
    assert loaded == ["prefrank", "prefrank.constants", "prefrank.corpus", "prefrank.embed", "prefrank.errors"]


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("ingest", CLI_MODULES),
        ("embed", CLI_MODULES | {"prefrank.embed"}),
        ("rank", PERCEPTION_MODULES),
        ("export-heatmap", PERCEPTION_MODULES),
        ("loss", PERCEPTION_MODULES | {"prefrank.objective", "prefrank.policy"}),
        ("train-toy", PERCEPTION_MODULES | {"prefrank.objective", "prefrank.policy"}),
        ("eval", EVAL_MODULES),
    ],
)
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, command, loaded):
    if command == "ingest":
        dump = tmp_path / "Posts.xml"
        dump.write_text(build_dump_plan_xml(), encoding="utf-8")
        argv = ["ingest", str(dump), "--out", str(tmp_path / "records.jsonl")]
    elif command == "eval":
        argv = hashed_eval_argv(write_cli_inputs(tmp_path), tmp_path)
    else:
        argv = cli_argv(command, write_cli_inputs(tmp_path), tmp_path)
    assert modules_loaded_by(argv) == sorted(loaded)


@pytest.mark.parametrize("flag", ["--embeddings", "--external-scores"])
def test_eval_loads_numpy_only_to_correlate_scores(tmp_path, flag):
    paths = write_cli_inputs(tmp_path)
    if flag == "--embeddings":
        value = tmp_path / "e.tsv"
        embed = ["embed", "--records", paths["records"], "--generations", paths["generations"], "--out", value]
        assert main([str(a) for a in embed]) == 0
    else:
        value = paths["scores"]
    argv = hashed_eval_argv(paths, tmp_path) + [flag, str(value)]
    numpy = {"numpy"} if flag == "--external-scores" else set()
    assert modules_loaded_by(argv) == sorted(EVAL_MODULES | numpy)
