"""README's CLI walkthrough and its "Library use" block, run verbatim, and its
module list checked against the package.

The bash block under "## CLI walkthrough" runs under `bash -e -o pipefail`
in a temporary directory, then the python block under "## Library use"
runs in the same directory on the records that step 1 wrote.  `prefrank`
is a shim on PATH that runs `python -m prefrank.cli` with this
interpreter, and the children's PYTHONPATH is the directory holding the
`prefrank` package that this test imported: run from a checkout with
PYTHONPATH=src, the test covers the source tree; run from elsewhere with
the package installed, it covers the installed package.

The fixture writes the three inputs that the walkthrough reads but does
not produce: `Posts.xml` (question 12345, whose pool of three answers
passes step 1's filters), `logprobs.jsonl` and `gens.jsonl`.

Under "## Modules", each bullet starts with a module's name and, in
parentheses, the public names that `prefrank` resolves from it.  Under
"## Library use", the parentheses after "Records, configs and results"
list every `Value` subclass that the package defines.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import prefrank
from prefrank.corpus import Value

from conftest import CODE_BODY, answer_row, posts_xml, question_row

README = Path(__file__).resolve().parents[1] / "README.md"
QUESTION_ID = "12345"
# (answer id, votes): the first is accepted, and the vote spread is 12.
ANSWERS = (("12346", 12), ("12347", 3), ("12348", 0))
# Each step's artifact; all but the trace get a manifest beside them.
ARTIFACTS = (
    "records.jsonl",
    "embeddings.tsv",
    "ranks.jsonl",
    "losses.jsonl",
    "policy.bin",
    "report.json",
    "heatmap.csv",
)


def readme_block(heading: str, language: str) -> str:
    """The first ```language block under the `## heading` section of README."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(f"## {heading}") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("## ")), len(lines))
    opening = lines.index(f"```{language}", start, end) + 1
    closing = lines.index("```", opening, end)
    return "\n".join(lines[opening:closing]) + "\n"


def write_walkthrough_inputs(directory: Path) -> None:
    rows = [question_row(QUESTION_ID, CODE_BODY, accepted_id=ANSWERS[0][0])]
    for day, (aid, votes) in enumerate(ANSWERS, start=1):
        body = f"<p>answer {aid}</p><pre><code>v = {votes}</code></pre>"
        rows.append(answer_row(aid, QUESTION_ID, body, created=f"2024-02-0{day}T00:00:00", score=votes))
    (directory / "Posts.xml").write_text(posts_xml(rows), encoding="utf-8")
    logprobs = [
        {"record_id": QUESTION_ID, "candidate_id": aid, "logprobs": [-0.5 - day, -1.25]}
        for day, (aid, _) in enumerate(ANSWERS)
    ]
    (directory / "logprobs.jsonl").write_text("".join(json.dumps(row) + "\n" for row in logprobs))
    generation = {"record_id": QUESTION_ID, "text": "print(1 < 2) in a list comprehension"}
    (directory / "gens.jsonl").write_text(json.dumps(generation) + "\n")


def child_env(bin_dir: Path) -> dict:
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["PYTHONPATH"] = str(Path(prefrank.__file__).resolve().parents[1])
    return env


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The walkthrough's directory, its environment and the finished bash run."""
    root = tmp_path_factory.mktemp("readme")
    bin_dir, work = root / "bin", root / "work"
    bin_dir.mkdir()
    work.mkdir()
    shim = bin_dir / "prefrank"
    shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m prefrank.cli "$@"\n')
    shim.chmod(0o755)
    write_walkthrough_inputs(work)
    script = root / "walkthrough.sh"
    script.write_text(readme_block("CLI walkthrough", "bash"), encoding="utf-8")
    env = child_env(bin_dir)
    done = subprocess.run(
        ["bash", "-e", "-o", "pipefail", str(script)],
        cwd=work, env=env, capture_output=True, text=True, timeout=120,
    )
    return work, env, done


def test_cli_walkthrough_runs(walkthrough):
    work, _, done = walkthrough
    assert done.returncode == 0, done.stderr
    for name in ARTIFACTS:
        assert (work / name).stat().st_size > 0, name
        manifest = json.loads((work / f"{name}.manifest.json").read_text())
        assert manifest["version"] == prefrank.__version__
    assert (work / "trace.jsonl").stat().st_size > 0
    assert json.loads((work / "ranks.jsonl").read_text())["record_id"] == QUESTION_ID
    assert len((work / "heatmap.csv").read_text().splitlines()) == len(ANSWERS)


def test_library_block_runs(walkthrough):
    work, env, done = walkthrough
    assert done.returncode == 0, done.stderr
    script = work.parent / "library.py"
    script.write_text(readme_block("Library use", "python"), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=work, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    order, total = done.stdout.splitlines()
    assert sorted(json.loads(order)) == list(range(len(ANSWERS)))
    assert math.isfinite(float(total))


def readme_modules() -> dict[str, tuple[str, ...]]:
    """Each "## Modules" bullet's module and the names in parentheses after it, in order."""
    section = README.read_text(encoding="utf-8").split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- `(\w+)`(?: \(([^)]*)\))?:", section, re.MULTILINE)
    return {module: tuple(re.findall(r"`(\w+)`", names)) for module, names in bullets}


def test_readme_lists_every_module_with_its_exports():
    modules = sorted(path.stem for path in Path(prefrank.__file__).parent.glob("*.py") if path.stem != "__init__")
    assert set(prefrank._EXPORTS) <= set(modules)
    assert readme_modules() == {module: prefrank._EXPORTS.get(module, ()) for module in modules}


def test_each_export_is_defined_in_the_module_that_lists_it():
    exported = {name: module for module, names in prefrank._EXPORTS.items() for name in names}
    assert sorted(exported) == prefrank.__all__
    assert [name for name in exported if not inspect.isclass(getattr(prefrank, name))
            and not inspect.isfunction(getattr(prefrank, name))] == []
    homes = {name: getattr(prefrank, name).__module__ for name in exported}
    assert homes == {name: f"prefrank.{module}" for name, module in exported.items()}
    assert set(exported) | set(prefrank._EXPORTS) <= set(dir(prefrank))
    # The table reader is one function wherever it resolves.
    assert prefrank.load_external_embeddings is prefrank.corpus.load_external_embeddings
    assert prefrank.load_external_embeddings is prefrank.embed.load_external_embeddings


def package_value_classes() -> list[type]:
    """Every `Value` subclass defined in a module of the package, by name."""
    modules = [importlib.import_module(f"prefrank.{path.stem}")
               for path in Path(prefrank.__file__).parent.glob("*.py") if path.stem != "__init__"]
    return sorted((cls for module in modules for cls in vars(module).values() if inspect.isclass(cls)
                   and issubclass(cls, Value) and cls is not Value and cls.__module__ == module.__name__),
                  key=lambda cls: cls.__name__)


def test_readme_lists_every_value_class():
    library = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    listed = re.search(r"Records, configs and results \(([^)]*)\)", library).group(1)
    names = re.findall(r"`(\w+)`", listed)
    assert sorted(names) == [cls.__name__ for cls in package_value_classes()]
    assert "`ToyPolicy` is the one plain mutable class" in " ".join(library.split())
    assert not issubclass(prefrank.ToyPolicy, Value)


def test_value_classes_take_the_shared_constructor():
    assert [cls.__name__ for cls in package_value_classes() if "__init__" in vars(cls)] == []
