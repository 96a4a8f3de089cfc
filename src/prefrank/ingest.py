"""Dump ingestion: a StackExchange-style Posts XML dump to records.

Parse the dump into question/answer pools, keep questions with a
questioner-picked answer, keep questions whose body contains a code
block, strip HTML (preserving code text verbatim), apply configurable
quality thresholds, and attach a gold ranking.  Every filter is a
per-record predicate, so the surviving set is independent of filter
order.  Only ``ingest`` runs this module and loads its parsers.
"""

from __future__ import annotations

import re
from collections import Counter
from datetime import datetime
from html.parser import HTMLParser
from pathlib import Path
from typing import Iterable, Iterator
from xml.etree import ElementTree

from .corpus import DecayConfig, QARecord, ResponseCandidate, Value, decayed_popularity, parse_timestamp
from .errors import DumpParseError, ValidationError

_CODE_BLOCK_RE = re.compile(r"<code[\s>]|```", re.IGNORECASE)


class FilterConfig(Value):
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
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValidationError(f"{name} must be an int >= 0, got {value!r}")
        if self.since is not None and (not isinstance(self.since, datetime) or self.since.tzinfo is None):
            raise ValidationError("since must be a timezone-aware datetime or None")


class DumpParseResult:
    """Parsed entries plus a counter of skipped-row warnings."""

    __slots__ = ("entries", "warnings")

    def __init__(self, entries: list[QARecord] | None = None, warnings: Counter | None = None):
        self.entries = [] if entries is None else entries
        self.warnings = Counter() if warnings is None else warnings


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
    orphans.  Questions and answers share one ``Id`` space: a row that
    repeats the ``Id`` of an earlier kept row is skipped and counted as
    ``duplicate_Id``, so the first row wins.  The `votes` attribute is
    the row Score clamped to zero, since popularity is nonnegative.
    """
    path = Path(path)
    result = DumpParseResult()
    with open(path, "rb") as probe:
        head = probe.read(4096)
    if not head.strip() and len(head) < 4096:
        return result

    questions: dict[str, dict] = {}
    answers: dict[str, list[dict]] = {}
    seen_ids: set[str] = set()

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
        except ValidationError:
            result.warnings["bad_CreationDate"] += 1
            continue
        if post_type == "2":
            try:
                row["_votes"] = max(0, int(row["Score"]))
            except ValueError:
                result.warnings["bad_Score"] += 1
                continue
        if row["Id"] in seen_ids:
            result.warnings["duplicate_Id"] += 1
            continue
        seen_ids.add(row["Id"])
        if post_type == "1":
            questions[row["Id"]] = row
        else:
            answers.setdefault(row["ParentId"], []).append(row)

    for parent_id in answers:
        if parent_id not in questions:
            result.warnings["orphan_answer"] += len(answers[parent_id])

    for question_id, question in questions.items():
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
        candidates = tuple(c.replace(content=text) for c in record.candidates
                           if (text := clean_html(c.content)).strip())
        if not candidates:
            continue
        cleaned.append(record.replace(question_text=clean_html(record.question_text), candidates=candidates))
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
    return record.replace(gold_ranking=tuple(order))
