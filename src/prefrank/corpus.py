"""Records and the files that every subcommand reads and writes.

The standard-library I/O layer: records and their JSON-Lines form (one
per line, fixed key order), the JSON field gate, the keyed JSON-Lines
reader, the embedding-table TSV and its keys, the token-logprob file
that external models write, and the popularity decay config; none of
these formats needs numpy.  Dump ingestion is in `ingest`, whose public
names also resolve here, importing it (and the XML and HTML parsers) on
first access.
"""

from __future__ import annotations

import json
import math
import re
import sys
from array import array
from datetime import datetime, timedelta, timezone
from numbers import Real
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .constants import MAX_SCALE
from .errors import SchemaError, ValidationError

# Resolved from `ingest` on first access (PEP 562).  `cli` calls the ingestion steps
# as `corpus.<name>`, the names that bench/tracing.py patches.
_INGEST_NAMES = frozenset({"DumpParseResult", "FilterConfig", "apply_quality_filters",
                           "assign_gold_ranking", "clean_entries", "clean_html", "filter_accepted",
                           "filter_code_block", "has_code_block", "parse_dump", "quality_reject_reason"})


def __getattr__(name):
    if name not in _INGEST_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import ingest

    value = getattr(ingest, name)
    globals()[name] = value  # later lookups skip this hook
    return value


class _Fields(type):
    def __new__(mcs, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        defaults = {f: namespace.pop(f) for f in fields if f in namespace}
        return super().__new__(mcs, name, bases, {**namespace, "__slots__": fields, "_defaults": defaults})


class Value(metaclass=_Fields):
    """An immutable record of the class body's annotated fields, in order, held in ``__slots__`` (a
    class-level value is the default), given by position or keyword and checked by `__post_init__`,
    as is ``replace(**changes)``'s copy.  Equality, hashing and repr go by value."""

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        given = {**dict(zip(fields, args)), **kwargs}  # a field given twice, or past the last, counts once
        values = {**self._defaults, **given}
        if len(given) != len(args) + len(kwargs) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}{fields}: {len(args)} positional, keywords {sorted(kwargs)}")
        for name in fields:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def __reduce__(self):  # pickle and copy construct, so the checks run; equality and hashing compare it
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self.__reduce__() == other.__reduce__() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__slots__)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def replace(self, **changes):
        return type(self)(**dict(zip(self.__slots__, self.__reduce__()[1]), **changes))


class ResponseCandidate(Value):
    """One answer in a pool: content plus its perceivable attributes."""

    id: str
    content: str
    votes: int
    created_at: datetime
    accepted: bool = False

    def __post_init__(self):
        if not isinstance(self.votes, int) or isinstance(self.votes, bool):
            raise ValidationError(f"candidate {self.id}: votes must be an int, got {type(self.votes).__name__}")
        if self.votes < 0:
            raise ValidationError(f"candidate {self.id}: votes must be >= 0, got {self.votes}")
        if not isinstance(self.created_at, datetime) or self.created_at.tzinfo is None:
            raise ValidationError(f"candidate {self.id}: created_at must be a timezone-aware datetime")


class QARecord(Value):
    """A question with its ordered candidate pool and optional gold ranking."""

    question_id: str
    question_text: str
    question_created_at: datetime
    candidates: tuple[ResponseCandidate, ...]
    gold_ranking: tuple[int, ...] | None = None

    def __post_init__(self):
        candidates = tuple(self.candidates)
        object.__setattr__(self, "candidates", candidates)
        if not candidates:
            raise ValidationError(f"record {self.question_id}: candidate pool is empty")
        if not isinstance(self.question_created_at, datetime) or self.question_created_at.tzinfo is None:
            raise ValidationError(f"record {self.question_id}: question_created_at must be a timezone-aware datetime")
        ids = [c.id for c in candidates]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"record {self.question_id}: duplicate candidate ids")
        if sum(1 for c in candidates if c.accepted) > 1:
            raise ValidationError(f"record {self.question_id}: more than one accepted candidate")
        if self.gold_ranking is not None:
            gold = tuple(int(i) for i in self.gold_ranking)
            if sorted(gold) != list(range(len(candidates))):
                raise ValidationError(
                    f"record {self.question_id}: gold_ranking is not a permutation of 0..{len(candidates) - 1}"
                )
            object.__setattr__(self, "gold_ranking", gold)

    @property
    def pool_size(self) -> int:
        return len(self.candidates)

    def accepted_index(self) -> int | None:
        for i, c in enumerate(self.candidates):
            if c.accepted:
                return i
        return None


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp (naive means UTC); a bad or out-of-range one is a ValidationError."""
    try:
        parsed = datetime.fromisoformat(value)
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=timezone.utc)
        return parsed.astimezone(timezone.utc)
    except (ValueError, OverflowError):
        raise ValidationError(f"timestamp {value!r} is not ISO-8601 or is out of range in UTC") from None


DEFAULT_HALF_LIFE = timedelta(days=365)


class DecayConfig(Value):
    """Exponential time decay applied to vote counts.

    ``half_life`` is the age at which popularity halves.  No decay is
    spelled ``None`` wherever a config is taken.
    """

    reference_time: datetime
    half_life: timedelta = DEFAULT_HALF_LIFE

    def __post_init__(self):
        if not isinstance(self.reference_time, datetime) or self.reference_time.tzinfo is None:
            raise ValidationError("decay reference_time must be a timezone-aware datetime")
        if not isinstance(self.half_life, timedelta) or self.half_life <= timedelta(0):
            raise ValidationError("decay half_life must be a positive timedelta")


def decayed_popularity(votes: float, created_at: datetime, cfg: DecayConfig | None) -> float:
    """Votes * 2**(-age / half_life), clamped to [0, votes]; unchanged when cfg is None."""
    if votes < 0:
        raise ValidationError(f"votes must be nonnegative, got {votes}")
    if cfg is None:
        return float(votes)
    age = (cfg.reference_time - created_at).total_seconds()
    if age <= 0.0:
        return float(votes)
    return float(votes) * 2.0 ** (-age / cfg.half_life.total_seconds())


def record_to_dict(record: QARecord) -> dict:
    return {
        "question_id": record.question_id,
        "question_text": record.question_text,
        "question_created_at": record.question_created_at.isoformat(),
        "candidates": [
            {
                "id": c.id,
                "content": c.content,
                "votes": int(c.votes),
                "created_at": c.created_at.isoformat(),
                "accepted": bool(c.accepted),
            }
            for c in record.candidates
        ],
        "gold_ranking": (
            [int(i) for i in record.gold_ranking] if record.gold_ranking is not None else None
        ),
    }


_JSON_NAMES = {dict: "object", list: "array", str: "string", int: "integer", float: "number", bool: "boolean"}


def require(value, kind: type, what: str):
    """`value` if it is a JSON value of `kind`, else a ValidationError naming `what`.  `float`
    means a JSON number, returned as a float; an integer or a number is a finite float, not a bool."""
    types = (int, float) if kind is float else kind
    if not isinstance(value, types) or (isinstance(value, bool) and kind is not bool):
        raise ValidationError(f"{what} must be a JSON {_JSON_NAMES[kind]}, got {type(value).__name__}")
    if kind is not int and kind is not float:
        return value
    try:
        number = float(value)
    except OverflowError:
        raise ValidationError(f"{what} is too large for a float") from None
    if not math.isfinite(number):
        raise ValidationError(f"{what} must be finite, got {number}")
    return value if kind is int else number


def require_field(row: dict, key: str, kind: type | None = None, owner: str = ""):
    """``row[key]`` through `require` (any JSON value when `kind` is None);
    a missing key is a ValidationError naming it, after `owner` if given."""
    try:
        value = row[key]
    except KeyError:
        raise ValidationError(f"{owner}missing key {key!r}") from None
    return value if kind is None else require(value, kind, f"{owner}{key!r}")


def record_from_dict(payload: dict) -> QARecord:
    """Inverse of `record_to_dict`; a missing field or one of the wrong JSON type is a ValidationError."""
    require(payload, dict, "a record")
    candidates = []
    for entry in require_field(payload, "candidates", list):
        require(entry, dict, "a candidate")
        candidates.append(
            ResponseCandidate(
                id=str(require_field(entry, "id", owner="candidate ")),
                content=require_field(entry, "content", str, "candidate "),
                votes=require_field(entry, "votes", int, "candidate "),
                created_at=parse_timestamp(require_field(entry, "created_at", str, "candidate ")),
                accepted=require_field(entry, "accepted", bool, "candidate "),
            )
        )
    gold = require_field(payload, "gold_ranking")
    if gold is not None:
        gold = tuple(require(i, int, "'gold_ranking' entry") for i in require(gold, list, "'gold_ranking'"))
    return QARecord(
        question_id=str(require_field(payload, "question_id")),
        question_text=require_field(payload, "question_text", str),
        question_created_at=parse_timestamp(require_field(payload, "question_created_at", str)),
        candidates=tuple(candidates),
        gold_ranking=gold,
    )


def write_records(path, records: Iterable[QARecord]) -> None:
    """Write records as JSON-Lines, one per line, UTF-8."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_dict(record), ensure_ascii=False) + "\n")


def write_jsonl(path, rows: Iterable[dict]) -> None:
    """Write one ``json.dumps`` line per row (ASCII, default separators)."""
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def iter_lines(path) -> Iterator[tuple[int, str]]:
    """Yield (line number, text) per ``\\n``-terminated line of a UTF-8
    file, line ending kept.  Bytes that are not UTF-8 raise SchemaError
    naming the line."""
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaError(f"invalid UTF-8: {exc}", line=lineno) from exc
            yield lineno, line


GENERATION_KEY_SUFFIX = "generation"


def question_key(record: QARecord) -> str:
    return record.question_id


def candidate_key(record: QARecord, candidate_id: str) -> str:
    """A candidate's key; the id `generation` is refused, since its key would be the generation's."""
    if candidate_id == GENERATION_KEY_SUFFIX:
        raise ValidationError(
            f"record {record.question_id!r}: candidate id {candidate_id!r} would share the generation's key"
        )
    return f"{record.question_id}/{candidate_id}"


def generation_key(record_id: str) -> str:
    return f"{record_id}/{GENERATION_KEY_SUFFIX}"


# A norm in [SAFE_NORM, MAX_NORM) squares to a normal, finite float, and so
# does the product of two such norms, a cosine's divisor.
SAFE_NORM = math.sqrt(sys.float_info.min)
MAX_NORM = math.sqrt(sys.float_info.max)


def load_external_embeddings(path) -> dict[str, Sequence[float]]:
    """Read `id<TAB>floats` lines into a map of ``array('d')`` rows, each
    value as ``float()`` reads its token.

    All rows must share one dimension.  Duplicate ids, malformed rows,
    bytes that are not UTF-8 and non-finite values are SchemaErrors naming
    the line.  Rows are kept as written (cosines divide by the norms), except
    that a row whose norm leaves [sqrt(float min), sqrt(float max)) and that
    is not all-zero is scaled to a largest |value| of 1.
    """
    table: dict[str, Sequence[float]] = {}
    dim: int | None = None
    for lineno, raw in iter_lines(path):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        key, sep, rest = line.partition("\t")
        if not sep or not key:
            raise SchemaError("expected `id<TAB>floats`", line=lineno)
        try:
            values = list(map(float, rest.split()))
        except ValueError as exc:
            raise SchemaError(f"bad float in embedding row: {exc}", line=lineno) from exc
        if not values:
            raise SchemaError("embedding row has no values", line=lineno)
        norm = math.hypot(*values)  # inf or nan if a value is; ordinary rows stop here
        if not SAFE_NORM <= norm < MAX_NORM:
            if not all(map(math.isfinite, values)):
                raise SchemaError("non-finite value in embedding row", line=lineno)
            if norm:
                peak = max(map(abs, values))
                values = [value / peak for value in values]
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise SchemaError(
                f"dimension mismatch: expected {dim}, got {len(values)}", line=lineno
            )
        if key in table:
            raise SchemaError(f"duplicate embedding id {key!r}", line=lineno)
        table[key] = array("d", values)  # 8 bytes a value; a list of floats takes 32
    return table


def write_external_embeddings(path, table: dict[str, Sequence[float]]) -> None:
    """Write the TSV format read by :func:`load_external_embeddings`, each
    value as the ``repr`` of its float64; a row may be a list or an array.
    A key that is empty or holds a tab, CR or LF is refused before the file
    opens, and so is a NaN or infinite value, which the reader would refuse."""
    lines = []
    for key, vec in table.items():
        if not key or "\t" in key or "\r" in key or "\n" in key:
            raise ValidationError(f"embedding key {key!r} is empty or holds a tab, CR or LF")
        lines.append(f"{key}\t{_row_text(key, vec)}\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def _row_text(key: str, vec: Sequence[float]) -> str:
    # One repr per distinct float64 bit pattern: a hashed row holds a few
    # distinct values, and bits (unlike ==) tell 0.0 from -0.0.
    values = array("d", vec)
    bits = array("Q", values.tobytes())
    distinct = dict(zip(bits, values))
    if not all(map(math.isfinite, distinct.values())):
        raise ValidationError(f"embedding {key!r} holds a NaN or infinite value")
    words = {b: repr(v) for b, v in distinct.items()}
    return " ".join(map(words.__getitem__, bits))


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def iter_jsonl(path) -> Iterator[tuple[int, object]]:
    """Yield (line number, decoded JSON) per non-blank line; callers check
    the fields.  Invalid UTF-8, a line `json.loads` refuses (such as an
    over-long integer), or a string holding a lone surrogate (an unpaired
    ``\\ud800``-``\\udfff`` escape, which no UTF-8 writer accepts) raises
    SchemaError naming the line."""
    for lineno, line in iter_lines(path):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            if _SURROGATE_ESCAPE.search(line):
                json.dumps(payload, ensure_ascii=False).encode("utf-8")
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"invalid JSON: {exc}", line=lineno) from exc
        yield lineno, payload


def read_keyed_jsonl(path, parse: Callable[[object], tuple[Hashable, object]], what: str) -> dict:
    """``{key: value}`` in file order, from ``parse(row) -> (key, value)``
    per JSON-Lines row.  A ValidationError from `parse` and a repeated key
    each raise SchemaError naming the line; another exception is a bug."""
    values = {}
    for lineno, row in iter_jsonl(path):
        try:
            key, value = parse(row)
        except ValidationError as exc:
            raise SchemaError(f"bad {what}: {exc}", line=lineno) from exc
        if key in values:
            raise SchemaError(f"duplicate {what} {key!r}", line=lineno)
        values[key] = value
    return values


def _keyed_record(row) -> tuple[str, QARecord]:
    record = record_from_dict(row)
    return record.question_id, record


def read_records(path) -> list[QARecord]:
    """Read JSON-Lines records; a bad row or a repeated question id names the line."""
    return list(read_keyed_jsonl(path, _keyed_record, "record").values())


def _logprob_row(values, key) -> array:
    """`values` as an ``array('d')`` row: non-empty, 1-D, real numbers only (no bool
    or string), every value in [-MAX_SCALE, 0].  The file reader and writer share
    this gate."""
    try:
        kinds = set(map(type, values))
    except TypeError:  # not iterable: a number or a 0-d array
        kinds = set()
    # A nested list, or a 2-D array (its items are 1-D arrays), is a row of rows.
    if not kinds or list in kinds or getattr(values, "ndim", 1) != 1:
        raise ValidationError(f"{key}: logprob vector must be non-empty and 1-D")
    # A JSON number, or a numpy row's float64; a bool's type is bool, not int.
    if not all(issubclass(kind, Real) and kind is not bool for kind in kinds):
        raise ValidationError(f"{key}: 'logprobs' must be an array of JSON numbers")
    try:
        row = array("d", values)
    except OverflowError:
        raise ValidationError(f"{key}: a 'logprobs' entry is too large for a float") from None
    # Bounded so that no score mean, loss or summary mean of a logprob file overflows.  min and
    # max pass a NaN that is not first, but a sum of in-range values is NaN only if one is.
    if not (-MAX_SCALE <= min(row) and max(row) <= 0) or math.isnan(sum(row)):
        raise ValidationError(f"{key}: logprobs must be in [-{MAX_SCALE:g}, 0]")
    return row


def _logprob_entry(row) -> tuple[tuple[str, str], array]:
    require(row, dict, "a logprob row")
    key = (str(require_field(row, "record_id")), str(require_field(row, "candidate_id")))
    return key, _logprob_row(require_field(row, "logprobs", list), key)


def load_logprob_file(path) -> dict[tuple[str, str], array]:
    """Read the JSON-Lines logprob format into ``{(record_id, candidate_id): array('d')}``,
    each row checked as it is read; a bad or repeated row names the line."""
    return read_keyed_jsonl(path, _logprob_entry, "logprob entry")


def write_logprob_file(path, table: dict[tuple[str, str], Sequence[float]]) -> None:
    """Write the format read by :func:`load_logprob_file`; a row may be a list or an
    array, and a row the reader would refuse is refused before the file opens."""
    rows = [
        {"record_id": key[0], "candidate_id": key[1], "logprobs": _logprob_row(row, key).tolist()}
        for key, row in table.items()
    ]
    write_jsonl(path, rows)


def logprob_rows(table: dict[tuple[str, str], Sequence[float]], record: QARecord) -> list:
    """The pool's logprob rows, in pool order; a missing one is a ValidationError naming it."""
    try:
        return [table[record.question_id, c.id] for c in record.candidates]
    except KeyError as exc:
        record_id, candidate_id = exc.args[0]
        raise ValidationError(f"no log-probabilities for record {record_id!r} candidate {candidate_id!r}") from None
