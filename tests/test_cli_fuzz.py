"""Mutated JSON-Lines inputs through `main()`: every failure is a clean exit.

Valid records, generations, external-scores and logprobs files are
mutated by byte flips, truncation, repeated lines, fields of the wrong
JSON type (or missing) and huge or non-finite numbers, then read by a
subcommand.  Whatever the mutation, the run exits 0, 2, 3 or 4, prints
exactly one JSON error object on failure, and raises nothing.
"""

import contextlib
import io
import json
from dataclasses import dataclass

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from prefrank.cli import main

from conftest import CLI_READERS, cli_argv, write_cli_inputs

# File -> the fields a mutation may target (nested ones are found by name).
FIELDS = {
    "records": (
        "question_id",
        "question_text",
        "question_created_at",
        "candidates",
        "gold_ranking",
        "id",
        "content",
        "votes",
        "created_at",
        "accepted",
    ),
    "generations": ("record_id", "text"),
    "scores": ("record_id", "score"),
    "logprobs": ("record_id", "candidate_id", "logprobs"),
}
MUTATIONS = ("flip", "truncate", "repeat", "retype", "number")
MISSING = object()  # a `retype` value that deletes the field
WRONG_TYPES = (MISSING, None, True, False, 0, -1, 2.5, "", "x", [], [1], {}, {"a": 1})
# Literal JSON number tokens: out of float range, non-finite, or past the
# 4,300-digit integer limit of json.loads.
NUMBERS = ("1e400", "-1e400", "NaN", "Infinity", "-Infinity", "1" + "0" * 400, "-" + "9" * 320,
           "1" + "0" * 4300, "1e-400", "0")
_PLACEHOLDER = "\x00number\x00"


@dataclass(frozen=True)
class Case:
    file: str
    command: str
    mutation: str
    line: int = 0
    field: str = ""
    value: object = None


@st.composite
def cases(draw):
    file = draw(st.sampled_from(sorted(FIELDS)))
    command = draw(st.sampled_from([c for c, files in CLI_READERS.items() if file in files]))
    mutation = draw(st.sampled_from(MUTATIONS))
    value = {
        "flip": st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)),
        "truncate": st.integers(0, 1 << 16),
        "repeat": st.none(),
        "retype": st.sampled_from(WRONG_TYPES),
        "number": st.sampled_from(NUMBERS),
    }[mutation]
    return Case(
        file,
        command,
        mutation,
        line=draw(st.integers(0, 1)),
        field=draw(st.sampled_from(FIELDS[file])),
        value=draw(value),
    )


def _owner(row, field):
    """The first object (depth first) holding `field`, or None."""
    if isinstance(row, dict):
        if field in row:
            return row
        children = row.values()
    elif isinstance(row, list):
        children = row
    else:
        return None
    for child in children:
        found = _owner(child, field)
        if found is not None:
            return found
    return None


def mutate(data: bytes, case: Case) -> bytes:
    if case.mutation == "flip":
        position, xor = case.value
        position %= len(data)
        return data[:position] + bytes([data[position] ^ xor]) + data[position + 1:]
    if case.mutation == "truncate":
        return data[: case.value % len(data)]
    lines = data.decode("utf-8").splitlines(keepends=True)
    index = case.line % len(lines)
    if case.mutation == "repeat":
        lines.append(lines[index])
        return "".join(lines).encode("utf-8")
    row = json.loads(lines[index])
    owner = _owner(row, case.field)
    if case.mutation == "retype":
        if case.value is MISSING:
            del owner[case.field]
        else:
            owner[case.field] = case.value
        text = json.dumps(row)
    else:
        if isinstance(owner[case.field], list) and owner[case.field]:
            owner[case.field][0] = _PLACEHOLDER
        else:
            owner[case.field] = _PLACEHOLDER
        text = json.dumps(row).replace(json.dumps(_PLACEHOLDER), case.value)
    lines[index] = text + "\n"
    return "".join(lines).encode("utf-8")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cases())
@example(case=Case("records", "rank", "number", line=1, field="votes", value="1e400"))
@example(case=Case("records", "eval", "repeat", line=0))
@example(case=Case("logprobs", "loss", "number", field="logprobs", value="1" + "0" * 400))
@example(case=Case("scores", "eval", "number", field="score", value="-" + "9" * 320))
def test_mutated_input_exits_cleanly(tmp_path, case):
    paths = write_cli_inputs(tmp_path)
    mutated = tmp_path / f"mutated-{case.file}.jsonl"
    mutated.write_bytes(mutate(paths[case.file].read_bytes(), case))
    argv = cli_argv(case.command, {**paths, case.file: mutated}, tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err.getvalue() == ""
    else:
        payload = json.loads(err.getvalue())
        assert sorted(payload) == ["error", "message"]
