"""StackExchange-style corpus ingestion and persistence.

The pipeline mirrors how the training corpus is built: parse a Posts
XML dump into question/answer pools, keep questions with a
questioner-picked answer, keep questions whose body contains a code
block, strip HTML (preserving code text verbatim), apply configurable
quality thresholds, and optionally attach a gold ranking.  Records are
persisted as JSON-Lines, one record per line, with a fixed key order.

Every filter is a per-record predicate, so the surviving set is
independent of filter order.
"""

from __future__ import annotations

import dataclasses
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from html.parser import HTMLParser
from pathlib import Path
from typing import Iterable, Iterator
from xml.etree import ElementTree

from .apdf import DecayConfig, decayed_popularity
from .errors import DumpParseError, SchemaError, ValidationError

_CODE_BLOCK_RE = re.compile(r"<code[\s>]|```", re.IGNORECASE)


@dataclass(frozen=True)
class ResponseCandidate:
    """One answer in a pool: content plus its perceivable attributes."""

    id: str
    content: str
    votes: int
    created_at: datetime
    accepted: bool = False

    def __post_init__(self):
        if self.votes < 0:
            raise ValidationError(f"candidate {self.id}: votes must be >= 0, got {self.votes}")
        if self.created_at.tzinfo is None:
            raise ValidationError(f"candidate {self.id}: created_at must be timezone-aware")


@dataclass(frozen=True)
class QARecord:
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
        if self.question_created_at.tzinfo is None:
            raise ValidationError(f"record {self.question_id}: question_created_at must be timezone-aware")
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


@dataclass(frozen=True)
class FilterConfig:
    """Quality thresholds for step-4 filtering.

    Zero-valued maxima (`max_pool_size`, `max_question_tokens`,
    `max_response_tokens`) disable that cap, so the all-zero config is
    the identity filter.  Token counts are whitespace-separated tokens.
    """

    min_pool_size: int = 0
    max_pool_size: int = 0
    min_vote_gap: int = 0
    min_votes_per_response: int = 0
    max_question_tokens: int = 0
    max_response_tokens: int = 0
    since: datetime | None = None

    def __post_init__(self):
        for name in (
            "min_pool_size",
            "max_pool_size",
            "min_vote_gap",
            "min_votes_per_response",
            "max_question_tokens",
            "max_response_tokens",
        ):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if self.since is not None and self.since.tzinfo is None:
            raise ValidationError("since must be timezone-aware")


@dataclass
class DumpParseResult:
    """Parsed entries plus a counter of skipped-row warnings."""

    entries: list[QARecord] = field(default_factory=list)
    warnings: Counter = field(default_factory=Counter)

    def __iter__(self) -> Iterator[QARecord]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC, out-of-range ones rejected."""
    parsed = datetime.fromisoformat(value)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    try:
        return parsed.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp out of range in UTC: {value!r}") from None


def _parse_rows(path: Path) -> Iterator[dict]:
    try:
        for _, elem in ElementTree.iterparse(str(path), events=("end",)):
            if elem.tag == "row":
                yield dict(elem.attrib)
                elem.clear()
    except ElementTree.ParseError as exc:
        line = exc.position[0] if exc.position else None
        raise DumpParseError(f"malformed XML in {path}: {exc}", line=line) from exc


def parse_dump(path) -> DumpParseResult:
    """Parse a Posts XML dump into question entries with attached answer pools.

    Rows missing a required attribute, with an unparseable timestamp, or
    (answers) with a non-integer Score are skipped and counted in the
    result's warnings as ``missing_<attribute>``, ``bad_CreationDate`` or
    ``bad_Score``; answers whose question is absent are counted as
    orphans.  The `votes` attribute is the row Score clamped to zero,
    since popularity is nonnegative.
    """
    path = Path(path)
    result = DumpParseResult()
    with open(path, "rb") as probe:
        head = probe.read(4096)
    if not head.strip() and len(head) < 4096:
        return result

    questions: dict[str, dict] = {}
    question_order: list[str] = []
    answers: dict[str, list[dict]] = {}

    for row in _parse_rows(path):
        post_type = row.get("PostTypeId")
        if post_type == "1":
            required = ("Id", "CreationDate", "Body")
        elif post_type == "2":
            required = ("Id", "CreationDate", "Body", "ParentId", "Score")
        else:
            continue
        missing = [name for name in required if name not in row]
        if missing:
            result.warnings[f"missing_{missing[0]}"] += 1
            continue
        try:
            row["_created_at"] = parse_timestamp(row["CreationDate"])
        except ValueError:
            result.warnings["bad_CreationDate"] += 1
            continue
        if post_type == "2":
            try:
                row["_votes"] = max(0, int(row["Score"]))
            except ValueError:
                result.warnings["bad_Score"] += 1
                continue
        if post_type == "1":
            questions[row["Id"]] = row
            question_order.append(row["Id"])
        else:
            answers.setdefault(row["ParentId"], []).append(row)

    for parent_id in answers:
        if parent_id not in questions:
            result.warnings["orphan_answer"] += len(answers[parent_id])

    for question_id in question_order:
        question = questions[question_id]
        pool = answers.get(question_id, [])
        if not pool:
            result.warnings["question_without_answers"] += 1
            continue
        accepted_id = question.get("AcceptedAnswerId")
        candidates = tuple(
            ResponseCandidate(
                id=row["Id"],
                content=row["Body"],
                votes=row["_votes"],
                created_at=row["_created_at"],
                accepted=(row["Id"] == accepted_id),
            )
            for row in pool
        )
        result.entries.append(
            QARecord(
                question_id=question_id,
                question_text=question["Body"],
                question_created_at=question["_created_at"],
                candidates=candidates,
            )
        )
    return result


def filter_accepted(entries: Iterable[QARecord]) -> list[QARecord]:
    """Keep questions whose pool contains the questioner-picked answer."""
    return [record for record in entries if record.accepted_index() is not None]


def has_code_block(text: str) -> bool:
    """True when the text contains an HTML `<code>` tag or a fenced block."""
    return bool(_CODE_BLOCK_RE.search(text))


def filter_code_block(entries: Iterable[QARecord]) -> list[QARecord]:
    """Keep questions whose body contains at least one code block."""
    return [record for record in entries if has_code_block(record.question_text)]


class _TagStripper(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []

    def handle_data(self, data: str) -> None:
        self.parts.append(data)


def clean_html(text: str) -> str:
    """Strip HTML tags and decode entities, keeping text content verbatim.

    Text inside `<code>` blocks survives byte-for-byte (modulo entity
    decoding), since code is the domain signal here.  Unbalanced markup
    is stripped best-effort.
    """
    stripper = _TagStripper()
    stripper.feed(text)
    stripper.close()
    return "".join(stripper.parts)


def clean_entries(entries: Iterable[QARecord]) -> list[QARecord]:
    """Clean question and candidate bodies; drop candidates (and, if
    emptied, whole records) whose content is blank after cleaning."""
    cleaned: list[QARecord] = []
    for record in entries:
        candidates = tuple(
            dataclasses.replace(c, content=text)
            for c in record.candidates
            if (text := clean_html(c.content)).strip()
        )
        if not candidates:
            continue
        cleaned.append(
            dataclasses.replace(
                record,
                question_text=clean_html(record.question_text),
                candidates=candidates,
            )
        )
    return cleaned


def _token_count(text: str) -> int:
    return len(text.split())


def quality_reject_reason(record: QARecord, cfg: FilterConfig) -> str | None:
    """The first threshold a record violates, or None if it passes all."""
    pool = record.pool_size
    if pool < cfg.min_pool_size:
        return "pool_too_small"
    if cfg.max_pool_size and pool > cfg.max_pool_size:
        return "pool_too_large"
    votes = [c.votes for c in record.candidates]
    if max(votes) - min(votes) < cfg.min_vote_gap:
        return "vote_gap_too_small"
    if any(v < cfg.min_votes_per_response for v in votes):
        return "votes_below_minimum"
    if cfg.max_question_tokens and _token_count(record.question_text) > cfg.max_question_tokens:
        return "question_too_long"
    if cfg.max_response_tokens and any(
        _token_count(c.content) > cfg.max_response_tokens for c in record.candidates
    ):
        return "response_too_long"
    if cfg.since is not None and record.question_created_at < cfg.since:
        return "question_too_old"
    return None


def apply_quality_filters(
    entries: Iterable[QARecord], cfg: FilterConfig
) -> tuple[list[QARecord], Counter]:
    """Keep records passing every threshold; count rejections per filter."""
    kept: list[QARecord] = []
    rejections: Counter = Counter()
    for record in entries:
        reason = quality_reject_reason(record, cfg)
        if reason is None:
            kept.append(record)
        else:
            rejections[reason] += 1
    return kept, rejections


def assign_gold_ranking(record: QARecord, decay: DecayConfig | None) -> QARecord:
    """Attach the gold label: accepted answer first, then the rest by
    time-decayed votes descending, ties by earlier creation then index."""
    accepted = record.accepted_index()

    def sort_key(i: int):
        candidate = record.candidates[i]
        decayed = decayed_popularity(candidate.votes, candidate.created_at, decay)
        return (-decayed, candidate.created_at, i)

    rest = sorted((i for i in range(record.pool_size) if i != accepted), key=sort_key)
    order = ([accepted] if accepted is not None else []) + rest
    return dataclasses.replace(record, gold_ranking=tuple(order))


# JSON-Lines persistence.  Keys are written in this fixed order.
_RECORD_KEYS = ("question_id", "question_text", "question_created_at", "candidates", "gold_ranking")
_CANDIDATE_KEYS = ("id", "content", "votes", "created_at", "accepted")


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


def _require_str(value, what: str):
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string, got {type(value).__name__}")
    return value


def record_from_dict(payload: dict) -> QARecord:
    for key in _RECORD_KEYS:
        if key not in payload:
            raise ValidationError(f"missing key {key!r}")
    candidates = []
    for entry in payload["candidates"]:
        for key in _CANDIDATE_KEYS:
            if key not in entry:
                raise ValidationError(f"candidate missing key {key!r}")
        candidates.append(
            ResponseCandidate(
                id=str(entry["id"]),
                content=_require_str(entry["content"], "candidate 'content'"),
                votes=int(entry["votes"]),
                created_at=parse_timestamp(entry["created_at"]),
                accepted=bool(entry["accepted"]),
            )
        )
    gold = payload["gold_ranking"]
    return QARecord(
        question_id=str(payload["question_id"]),
        question_text=_require_str(payload["question_text"], "'question_text'"),
        question_created_at=parse_timestamp(payload["question_created_at"]),
        candidates=tuple(candidates),
        gold_ranking=tuple(gold) if gold is not None else None,
    )


def write_records(path, records: Iterable[QARecord]) -> None:
    """Write records as JSON-Lines, one per line, UTF-8."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_dict(record), ensure_ascii=False) + "\n")


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


def iter_jsonl(path) -> Iterator[tuple[int, object]]:
    """Yield (line number, decoded JSON) per non-blank line; callers check
    the fields.  Invalid UTF-8 or JSON raises SchemaError naming the line."""
    for lineno, line in iter_lines(path):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}", line=lineno) from exc
        yield lineno, payload


def read_records(path) -> list[QARecord]:
    """Read JSON-Lines records; schema problems name the offending line."""
    records: list[QARecord] = []
    for lineno, payload in iter_jsonl(path):
        try:
            records.append(record_from_dict(payload))
        except (ValidationError, ValueError, TypeError, KeyError) as exc:
            raise SchemaError(str(exc), line=lineno) from exc
    return records
