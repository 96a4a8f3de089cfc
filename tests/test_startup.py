"""Start-up behaviour in fresh interpreters: what ``import prefrank`` and
each subcommand load, and the one-thread BLAS default that only the CLI
module applies; and, read from the source, which prefrank modules each
module imports."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from prefrank.cli import main
from prefrank.corpus import write_logprob_file, write_records
from prefrank.policy import ToyPolicy, logprob_table

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
    write_logprob_file(logprobs, logprob_table(ToyPolicy.fresh(seed=2), records))
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


# numpy, the dump parsers, `dataclasses` and the prefrank modules loaded, printed as a sorted JSON
# list.  `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize` at start-up; no expected set
# below names it, so a path that imports it again fails.
DUMP_PARSERS = ("html.parser", "xml.etree.ElementTree")
TRACKED = ("numpy", "dataclasses", *DUMP_PARSERS)
LOADED = f"""
print(json.dumps(sorted(m for m in sys.modules if m in {TRACKED!r} or m.startswith("prefrank"))))
"""
CLI_MODULES = {"prefrank", "prefrank.cli", "prefrank.constants", "prefrank.corpus", "prefrank.errors"}
INGEST_MODULES = CLI_MODULES | {"prefrank.ingest", *DUMP_PARSERS}
# The perception layer is standard-library code: `rank` loads no numpy, and the
# subcommands that read the distance matrices' arrays load it.
PERCEPTION_MODULES = CLI_MODULES | {f"prefrank.{m}" for m in ("apdf", "embed", "pipeline", "ranking")}
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
    # public names, in a fresh interpreter, then the one cosine on two of the table's rows.
    # The three readers live in `corpus`, so neither `embed` nor its `hashlib` loads before
    # the cosine.  `loss` itself still loads `policy`: it reads the logprob file through
    # `policy.load_logprob_file`, the name the benchmark's tracer patches.
    paths = write_cli_inputs(tmp_path)
    table = tmp_path / "e.tsv"
    assert main(["embed", "--records", str(paths["records"]), "--out", str(table)]) == 0
    code = (
        "import json, sys\nimport prefrank\n"
        f"prefrank.read_records({str(paths['records'])!r})\n"
        f"prefrank.load_logprob_file({str(paths['logprobs'])!r})\n"
        f"table = prefrank.load_external_embeddings({str(table)!r})\n"
        'assert "prefrank.embed" not in sys.modules and "hashlib" not in sys.modules\n'
        'assert -1.0 <= prefrank.cosine(table["r1"], table["r1/a0"]) <= 1.0\n' + LOADED
    )
    loaded = run_python(code, child_env())
    assert loaded == ["prefrank", "prefrank.constants", "prefrank.corpus", "prefrank.embed", "prefrank.errors"]


def test_an_unknown_corpus_name_imports_no_ingestion():
    code = """
import json, sys
import prefrank.corpus as corpus
state = {"hasattr": hasattr(corpus, "nope")}
try:
    corpus.nope
except AttributeError as exc:
    state["unknown"] = str(exc)
state["ingest_loaded"] = "prefrank.ingest" in sys.modules
print(json.dumps(state))
"""
    assert run_python(code, child_env()) == {
        "hasattr": False,
        "unknown": "module 'prefrank.corpus' has no attribute 'nope'",
        "ingest_loaded": False,
    }


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("ingest", INGEST_MODULES),
        ("embed", CLI_MODULES | {"prefrank.embed"}),
        ("rank", PERCEPTION_MODULES),
        ("export-heatmap", PERCEPTION_MODULES | {"numpy"}),
        ("loss", PERCEPTION_MODULES | {"numpy", "prefrank.objective", "prefrank.policy"}),
        ("train-toy", PERCEPTION_MODULES | {"numpy", "prefrank.objective", "prefrank.policy"}),
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


def test_rank_on_an_embedding_table_loads_no_numpy(tmp_path):
    paths = write_cli_inputs(tmp_path)
    table = tmp_path / "e.tsv"
    assert main(["embed", "--records", str(paths["records"]), "--out", str(table)]) == 0
    argv = cli_argv("rank", paths, tmp_path) + ["--embeddings", str(table)]
    assert modules_loaded_by(argv) == sorted(PERCEPTION_MODULES)


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



def package_imports(tree) -> list[ast.ImportFrom]:
    """Every relative import in `tree`: ``from .module import names`` and ``from . import modules``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]


def test_corpus_imports_only_the_bottom_layer():
    # `corpus` is the standard-library layer that every other module reads; the model sits above it.
    tree = ast.parse((SRC / "prefrank" / "corpus.py").read_text(encoding="utf-8"))
    scope = {id(node): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) for node in ast.walk(f)}
    found = {(scope.get(id(node), "module"), node.module or alias.name)
             for node in package_imports(tree) for alias in node.names}
    assert found == {("module", "constants"), ("module", "errors"), ("__getattr__", "ingest")}


def test_no_module_imports_another_modules_private_name():
    private = [
        (path.name, node.module, alias.name)
        for path in sorted((SRC / "prefrank").glob("*.py"))
        for node in package_imports(ast.parse(path.read_text(encoding="utf-8")))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")  # a dunder, like `__version__`, is public
    ]
    assert private == []
