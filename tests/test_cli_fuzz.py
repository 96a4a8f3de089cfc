"""Mutated inputs through `main()`: every failure is a clean exit.

Valid records, generations, external-scores and logprobs files are
mutated by byte flips, truncation, repeated lines, fields of the wrong
JSON type (or missing, or a string with a lone surrogate) and huge or
non-finite numbers, then read by a subcommand.  So are an embedding
table (read by `rank` and `eval`) and a posts dump (read by `ingest`),
with the same byte-level mutations plus bad values, keys, widths and
attributes.  Every numeric flag of every subcommand is given huge,
tiny, negative and non-finite values.  Whatever the mutation, the run
exits 0, 2, 3 or 4, prints exactly one JSON error object on failure, and
raises nothing; a bad flag value also raises no warning, which a CLI
process would print to stderr.
"""

import argparse
import contextlib
import io
import json
import re
import warnings
from dataclasses import dataclass

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from prefrank.cli import build_parser, main

from conftest import CODE_BODY, CLI_READERS, answer_row, cli_argv, posts_xml, question_row, write_cli_inputs

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
# Mutations of any file's bytes -> the strategy for their `Case.value`.
BYTE_MUTATIONS = {
    "flip": st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)),
    "truncate": st.integers(0, 1 << 16),
    "repeat": st.none(),
}
MISSING = object()  # a `retype` value that deletes the field
WRONG_TYPES = (MISSING, None, True, False, 0, -1, 2.5, "", "x", "\ud800", [], [1], {}, {"a": 1})
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
    mutation = draw(st.sampled_from(sorted(BYTE_MUTATIONS) + ["retype", "number"]))
    value = {
        **BYTE_MUTATIONS, "retype": st.sampled_from(WRONG_TYPES), "number": st.sampled_from(NUMBERS)
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


def mutate_bytes(data: bytes, case: Case) -> bytes | None:
    """A flip, truncation or repeated line of `data`; None for another mutation."""
    if case.mutation == "flip":
        position, xor = case.value
        position %= len(data)
        return data[:position] + bytes([data[position] ^ xor]) + data[position + 1:]
    if case.mutation == "truncate":
        return data[: case.value % len(data)]
    if case.mutation == "repeat":
        lines = data.splitlines(keepends=True)
        return data + lines[case.line % len(lines)]
    return None


def mutate(data: bytes, case: Case) -> bytes:
    mutated = mutate_bytes(data, case)
    if mutated is not None:
        return mutated
    lines = data.decode("utf-8").splitlines(keepends=True)
    index = case.line % len(lines)
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


def run_main(argv) -> int:
    """`main(argv)`'s exit code, after checking what it printed to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err.getvalue() == ""
    else:
        payload = json.loads(err.getvalue())
        assert sorted(payload) == ["error", "message"]
    return code


SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@SETTINGS
@given(case=cases())
@example(case=Case("records", "rank", "number", line=1, field="votes", value="1e400"))
@example(case=Case("records", "eval", "repeat", line=0))
@example(case=Case("logprobs", "loss", "number", field="logprobs", value="1" + "0" * 400))
@example(case=Case("scores", "eval", "number", field="score", value="-" + "9" * 320))
def test_mutated_input_exits_cleanly(tmp_path, case):
    paths = write_cli_inputs(tmp_path)
    mutated = tmp_path / f"mutated-{case.file}.jsonl"
    mutated.write_bytes(mutate(paths[case.file].read_bytes(), case))
    run_main(cli_argv(case.command, {**paths, case.file: mutated}, tmp_path))


# Tokens for a table value: out of float range, non-finite, not a float,
# or a float only Python's float() reads.
TABLE_VALUES = ("1e400", "-1e400", "1e-400", "nan", "-inf", "1" + "0" * 400, "0x10", "1_0", "١", "0")
TABLE_KEYS = ("", " ", "r1", "r1/a0", "r1/generation", "nope", "r1/a0 ")


@st.composite
def table_cases(draw):
    mutation = draw(st.sampled_from(sorted(BYTE_MUTATIONS) + ["value", "width", "key", "drop"]))
    value = {**BYTE_MUTATIONS, "value": st.sampled_from(TABLE_VALUES), "width": st.sampled_from((-1, 1)),
             "key": st.sampled_from(TABLE_KEYS), "drop": st.none()}[mutation]
    return Case("embeddings", draw(st.sampled_from(("rank", "eval"))), mutation, line=draw(st.integers(0, 8)),
                value=draw(value))


def mutate_table(data: bytes, case: Case) -> bytes:
    mutated = mutate_bytes(data, case)
    if mutated is not None:
        return mutated
    lines = data.decode("utf-8").splitlines(keepends=True)
    index = case.line % len(lines)
    key, values = lines[index].rstrip("\n").split("\t")
    values = values.split()
    if case.mutation == "drop":
        del lines[index]
    elif case.mutation == "key":
        lines[index] = f"{case.value}\t{' '.join(values)}\n"
    else:
        if case.mutation == "value":
            values[case.line % len(values)] = case.value
        elif case.value < 0:
            values.pop()
        else:
            values.append("0.5")
        lines[index] = f"{key}\t{' '.join(values)}\n"
    return "".join(lines).encode("utf-8")


@settings(SETTINGS, max_examples=40)
@given(case=table_cases())
@example(case=Case("embeddings", "rank", "value", line=0, value="1" + "0" * 400))
@example(case=Case("embeddings", "eval", "key", line=4, value="r1/generation"))
def test_mutated_embedding_table_exits_cleanly(tmp_path, case):
    paths = write_cli_inputs(tmp_path)
    table = tmp_path / "emb.tsv"
    assert run_main(["embed", "--records", paths["records"], "--generations", paths["generations"],
                     "--dim", "8", "--out", table]) == 0
    table.write_bytes(mutate_table(table.read_bytes(), case))
    run_main(cli_argv(case.command, paths, tmp_path) + ["--embeddings", str(table)])


# Values for a dump attribute: empty, not a number or timestamp, past the
# float range or the 4,300-digit integer limit, outside the UTC range, or
# markup that is not well-formed XML.
DUMP_ATTRIBUTES = ("Id", "PostTypeId", "ParentId", "CreationDate", "Body", "Score", "AcceptedAnswerId")
DUMP_VALUES = ("", "x", "-1", "1e400", "9" * 5000, "2024-13-01", "0001-01-01T00:00:00+01:00", "&bogus;",
               "&#0;", "<", "&lt;code&gt;", "1", "11")


def write_dump(path):
    rows = [
        question_row(1, CODE_BODY, accepted_id=11),
        answer_row(11, 1, score=12),
        answer_row(12, 1, body="<p>no <b>code</b> here</p>", score=3),
        answer_row(13, 1, body="<pre><code>x = 1</code></pre>", score=0),
        question_row(2, "<p>plain</p>", accepted_id=21),
        answer_row(21, 2, score=4),
        answer_row(22, 9, score=1),
    ]
    path.write_text(posts_xml(rows), encoding="utf-8")


@st.composite
def dump_cases(draw):
    mutation = draw(st.sampled_from(sorted(BYTE_MUTATIONS) + ["retype", "drop"]))
    value = {**BYTE_MUTATIONS, "retype": st.sampled_from(DUMP_VALUES), "drop": st.none()}[mutation]
    return Case("dump", "ingest", mutation, line=draw(st.integers(1, 7)),
                field=draw(st.sampled_from(DUMP_ATTRIBUTES)), value=draw(value))


def mutate_dump(data: bytes, case: Case) -> bytes:
    mutated = mutate_bytes(data, case)
    if mutated is not None:
        return mutated
    lines = data.decode("utf-8").splitlines(keepends=True)
    replacement = "" if case.mutation == "drop" else f'{case.field}="{case.value}"'
    lines[case.line] = re.sub(rf'\b{case.field}="[^"]*"', replacement, lines[case.line])
    return "".join(lines).encode("utf-8")


@settings(SETTINGS, max_examples=60)
@given(case=dump_cases())
@example(case=Case("dump", "ingest", "retype", line=2, field="Score", value="9" * 5000))
@example(case=Case("dump", "ingest", "retype", line=1, field="Body", value="&bogus;"))
def test_mutated_dump_exits_cleanly(tmp_path, case):
    dump = tmp_path / "Posts.xml"
    write_dump(dump)
    dump.write_bytes(mutate_dump(dump.read_bytes(), case))
    run_main(["ingest", dump, "--out", tmp_path / "records.jsonl", "--min-pool-size", "2"])


# Values for a numeric flag: huge, tiny, negative, zero and (floats only)
# non-finite or past the float range.  The huge integers are past the C
# integer range, so an unchecked `--dim` fails at once instead of
# allocating.  `--epochs` costs time in proportion to its value, so it
# draws only small or refused ones.
INT_VALUES = ("0", "1", "-1", "3", str(2**63), "9" * 30, "-" + "9" * 30)
FLOAT_VALUES = ("0", "-0.0", "1", "-1", "5e-324", "-5e-324", "1e-300", "1e100", "1.1e100", "-1e101",
                "1e308", "-1e308", "1e400", "nan", "inf", "-inf")
EPOCH_VALUES = ("0", "1", "-1", "-" + "9" * 30)


def numeric_flags() -> dict[str, dict[str, tuple[str, ...]]]:
    """Each subcommand's int and float flags, read from the parser, with their values."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    values = {int: INT_VALUES, float: FLOAT_VALUES}
    return {
        command: {
            action.option_strings[0]: EPOCH_VALUES if action.dest == "epochs" else values[action.type]
            for action in parser._actions
            if action.type in values
        }
        for command, parser in subparsers.choices.items()
    }


NUMERIC_FLAGS = numeric_flags()


@st.composite
def flag_cases(draw):
    command = draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    flag = draw(st.sampled_from(sorted(NUMERIC_FLAGS[command])))
    return Case("argv", command, "flag", field=flag, value=draw(st.sampled_from(NUMERIC_FLAGS[command][flag])))


def test_every_subcommand_has_a_numeric_flag():
    assert sorted(NUMERIC_FLAGS) == sorted([*CLI_READERS, "ingest"])
    assert all(NUMERIC_FLAGS.values())


@SETTINGS
@given(case=flag_cases())
@example(case=Case("argv", "train-toy", "flag", field="--init-scale", value="1e308"))
@example(case=Case("argv", "train-toy", "flag", field="--question-scale", value="1e308"))
@example(case=Case("argv", "train-toy", "flag", field="--learning-rate", value="1e308"))
@example(case=Case("argv", "rank", "flag", field="--dim", value="9" * 30))
def test_numeric_flag_value_exits_cleanly(tmp_path, case):
    if case.command == "ingest":
        dump = tmp_path / "Posts.xml"
        write_dump(dump)
        argv = ["ingest", dump, "--out", tmp_path / "records.jsonl"]
    else:
        argv = cli_argv(case.command, write_cli_inputs(tmp_path), tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_main(argv + [f"{case.field}={case.value}"])
    assert [str(w.message) for w in caught] == []
