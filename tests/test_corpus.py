"""Dump parsing, filtering, HTML cleaning, gold labels, persistence, logprob files."""

import copy
import json
import math
import pickle
import re
from collections import Counter
from datetime import timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import prefrank
from prefrank import corpus, ingest
from prefrank.apdf import DecayConfig
from prefrank.corpus import (
    QARecord,
    ResponseCandidate,
    load_logprob_file,
    logprob_rows,
    parse_timestamp,
    read_keyed_jsonl,
    read_records,
    require,
    write_logprob_file,
    write_records,
)
from prefrank.errors import DumpParseError, SchemaError, ValidationError
from prefrank.ingest import (
    DumpParseResult,
    FilterConfig,
    apply_quality_filters,
    assign_gold_ranking,
    clean_entries,
    clean_html,
    filter_accepted,
    filter_code_block,
    has_code_block,
    parse_dump,
)
from prefrank.objective import LossBreakdown, policy_scores_from_logprobs

from conftest import (
    CODE_BODY,
    PLAIN_BODY,
    T0,
    answer_row,
    make_candidate,
    make_record,
    posts_xml,
    question_row,
)


class TestParseDump:
    def test_two_questions_with_pools(self, tmp_path):
        rows = [
            question_row(1, CODE_BODY, accepted_id=11),
            answer_row(11, 1, score=4),
            answer_row(12, 1, score=1),
            answer_row(13, 1, score=0),
            question_row(2, PLAIN_BODY),
            answer_row(21, 2, score=2),
            answer_row(22, 2, score=7),
        ]
        path = tmp_path / "Posts.xml"
        path.write_text(posts_xml(rows), encoding="utf-8")
        result = parse_dump(path)
        assert len(result.entries) == 2
        assert [r.pool_size for r in result.entries] == [3, 2]
        assert result.warnings == {}
        first = result.entries[0]
        assert first.accepted_index() == 0
        assert first.candidates[0].votes == 4

    def test_empty_file(self, tmp_path):
        path = tmp_path / "Posts.xml"
        path.write_text("", encoding="utf-8")
        result = parse_dump(path)
        assert len(result.entries) == 0
        assert sum(result.warnings.values()) == 0

    def test_missing_creation_date_skips_with_warning(self, tmp_path):
        rows = [
            question_row(1, PLAIN_BODY),
            answer_row(11, 1, score=1),
            '  <row Id="12" PostTypeId="2" ParentId="1" Body="no date" Score="3" />',
        ]
        path = tmp_path / "Posts.xml"
        path.write_text(posts_xml(rows), encoding="utf-8")
        result = parse_dump(path)
        assert len(result.entries) == 1
        assert result.entries[0].pool_size == 1
        assert sum(result.warnings.values()) == 1

    def test_creation_date_before_year_one_in_utc_skips_with_warning(self, tmp_path):
        rows = [
            question_row(1, PLAIN_BODY),
            answer_row(11, 1, score=1),
            answer_row(12, 1, created="0001-01-01T00:00:00+01:00"),
        ]
        path = tmp_path / "Posts.xml"
        path.write_text(posts_xml(rows), encoding="utf-8")
        result = parse_dump(path)
        assert result.entries[0].pool_size == 1
        assert result.warnings == {"bad_CreationDate": 1}

    def test_non_integer_score_skips_with_warning(self, tmp_path):
        rows = [
            question_row(1, PLAIN_BODY),
            answer_row(11, 1, score=1),
            answer_row(12, 1, score="3.5"),
        ]
        path = tmp_path / "Posts.xml"
        path.write_text(posts_xml(rows), encoding="utf-8")
        result = parse_dump(path)
        assert [c.id for c in result.entries[0].candidates] == ["11"]
        assert result.warnings == {"bad_Score": 1}

    def test_malformed_xml_reports_line(self, tmp_path):
        path = tmp_path / "Posts.xml"
        path.write_text('<posts>\n  <row Id="1" PostTypeId="1"\n</posts>\n', encoding="utf-8")
        with pytest.raises(DumpParseError) as excinfo:
            parse_dump(path)
        assert excinfo.value.line is not None

    def test_orphan_answer_counted(self, tmp_path):
        rows = [
            question_row(1, PLAIN_BODY),
            answer_row(11, 1, score=1),
            answer_row(99, 42, score=5),
        ]
        path = tmp_path / "Posts.xml"
        path.write_text(posts_xml(rows), encoding="utf-8")
        result = parse_dump(path)
        assert result.warnings["orphan_answer"] == 1

    def test_negative_scores_clamped(self, tmp_path):
        rows = [question_row(1, PLAIN_BODY), answer_row(11, 1, score=-4)]
        path = tmp_path / "Posts.xml"
        path.write_text(posts_xml(rows), encoding="utf-8")
        result = parse_dump(path)
        assert result.entries[0].candidates[0].votes == 0

    def test_repeated_question_id_keeps_the_first_row(self, tmp_path):
        rows = [
            question_row(1, PLAIN_BODY),
            answer_row(11, 1, score=1),
            question_row(1, CODE_BODY),
            answer_row(12, 1, score=2),
        ]
        path = tmp_path / "Posts.xml"
        path.write_text(posts_xml(rows), encoding="utf-8")
        result = parse_dump(path)
        assert [r.question_id for r in result.entries] == ["1"]
        assert result.entries[0].question_text == PLAIN_BODY
        assert [c.id for c in result.entries[0].candidates] == ["11", "12"]
        assert result.warnings == {"duplicate_Id": 1}

    def test_repeated_answer_id_keeps_the_first_row(self, tmp_path):
        rows = [
            question_row(1, PLAIN_BODY, accepted_id=11),
            answer_row(11, 1, body="<p>first</p>", score=1),
            answer_row(12, 1, score=2),
            answer_row(11, 1, body="<p>again</p>", score=9),
        ]
        path = tmp_path / "Posts.xml"
        path.write_text(posts_xml(rows), encoding="utf-8")
        result = parse_dump(path)
        candidates = result.entries[0].candidates
        assert [(c.id, c.content, c.votes) for c in candidates] == [
            ("11", "<p>first</p>", 1),
            ("12", "<p>an answer</p>", 2),
        ]
        assert result.warnings == {"duplicate_Id": 1}

    def test_an_answer_cannot_reuse_a_question_id(self, tmp_path):
        # A posts dump numbers questions and answers in one Id space.
        rows = [question_row(1, PLAIN_BODY), answer_row(11, 1), answer_row(1, 1)]
        path = tmp_path / "Posts.xml"
        path.write_text(posts_xml(rows), encoding="utf-8")
        result = parse_dump(path)
        assert [c.id for c in result.entries[0].candidates] == ["11"]
        assert result.warnings == {"duplicate_Id": 1}

    def test_a_skipped_row_does_not_claim_its_id(self, tmp_path):
        rows = [
            question_row(1, PLAIN_BODY),
            answer_row(11, 1, score="x"),
            answer_row(11, 1, score=3),
        ]
        path = tmp_path / "Posts.xml"
        path.write_text(posts_xml(rows), encoding="utf-8")
        result = parse_dump(path)
        assert [(c.id, c.votes) for c in result.entries[0].candidates] == [("11", 3)]
        assert result.warnings == {"bad_Score": 1}


def test_each_ingestion_name_is_one_object_wherever_it_resolves():
    names = {
        name for name, value in vars(ingest).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == ingest.__name__
    }
    assert names == corpus._INGEST_NAMES
    for name in names:
        assert getattr(corpus, name) is getattr(ingest, name), name
        if name in prefrank.__all__:
            assert getattr(prefrank, name) is getattr(ingest, name), name


class TestFilterAccepted:
    def test_kept_and_dropped(self):
        with_accepted = make_record("q1")
        without = make_record(
            "q2",
            candidates=(make_candidate(0), make_candidate(1, content="b")),
        )
        assert filter_accepted([with_accepted, without]) == [with_accepted]

    def test_fixture_counts(self):
        records = []
        for i in range(10):
            accepted = i < 6
            records.append(
                make_record(
                    f"q{i}",
                    candidates=(
                        make_candidate(0, accepted=accepted),
                        make_candidate(1, content="b"),
                    ),
                )
            )
        assert len(filter_accepted(records)) == 6


class TestFilterCodeBlock:
    def test_html_code_tag_kept(self):
        assert has_code_block("<pre><code>x = 1</code></pre>")

    def test_plain_prose_dropped(self):
        assert not has_code_block("what is the meaning of this?")

    def test_fenced_block_kept(self):
        assert has_code_block("look:\n```\nx = 1\n```\n")

    def test_fixture_counts(self):
        records = [
            make_record(f"q{i}", question_text=CODE_BODY if i < 4 else PLAIN_BODY)
            for i in range(10)
        ]
        assert len(filter_code_block(records)) == 4


class TestCleanHtml:
    def test_simple_tags(self):
        assert clean_html("<p>hi</p>") == "hi"

    def test_empty(self):
        assert clean_html("") == ""

    def test_entities_in_code(self):
        assert clean_html("<pre><code>x&lt;1</code></pre>") == "x<1"

    def test_code_preserved_verbatim(self):
        body = "<pre><code>for i in range(3):\n    print(i &amp; 1)</code></pre>"
        assert clean_html(body) == "for i in range(3):\n    print(i & 1)"

    def test_attributes_and_nesting(self):
        body = '<div class="x"><p>a <b>b</b> c</p></div>'
        assert clean_html(body) == "a b c"

    def test_unbalanced_tags_best_effort(self):
        assert clean_html("<p>hi") == "hi"
        assert clean_html("hi</p>") == "hi"

    def test_no_tags_survive(self):
        bodies = [
            "<p>a</p><pre><code>b</code></pre>",
            "<ul><li>one</li><li>two</li></ul>",
            "<a href='x'>link</a> trail",
        ]
        for body in bodies:
            cleaned = clean_html(body)
            assert "<p" not in cleaned and "</" not in cleaned

    def test_clean_entries_drops_blank_candidates(self):
        record = make_record(
            candidates=(
                make_candidate(0, content="<p>real</p>", accepted=True),
                make_candidate(1, content="<p>  </p>"),
            )
        )
        cleaned = clean_entries([record])
        assert len(cleaned) == 1
        assert [c.content for c in cleaned[0].candidates] == ["real"]
        # A record none of whose answers survives is dropped whole.
        emptied = make_record("q2", candidates=(make_candidate(0, content="<p> </p>"),))
        assert clean_entries([emptied, record]) == cleaned


class TestQualityFilters:
    def test_pool_too_small(self):
        record = make_record()
        cfg = FilterConfig(min_pool_size=3)
        kept, rejections = apply_quality_filters([record], cfg)
        assert kept == []
        assert rejections["pool_too_small"] == 1

    def test_vote_gap(self):
        record = make_record(
            candidates=(
                make_candidate(0, votes=10, accepted=True),
                make_candidate(1, content="b", votes=2),
            )
        )
        kept, _ = apply_quality_filters([record], FilterConfig(min_vote_gap=5))
        assert kept == [record]
        kept, rejections = apply_quality_filters([record], FilterConfig(min_vote_gap=9))
        assert kept == []
        assert rejections["vote_gap_too_small"] == 1

    def test_all_zero_config_is_identity(self):
        records = [make_record(f"q{i}") for i in range(5)]
        kept, rejections = apply_quality_filters(records, FilterConfig())
        assert kept == records
        assert not rejections

    def test_token_caps(self):
        record = make_record(question_text="one two three four")
        kept, _ = apply_quality_filters([record], FilterConfig(max_question_tokens=4))
        assert kept == [record]
        kept, rejections = apply_quality_filters([record], FilterConfig(max_question_tokens=3))
        assert kept == []
        assert rejections["question_too_long"] == 1

    def test_since(self):
        record = make_record()
        cfg = FilterConfig(since=T0 + timedelta(days=1))
        kept, rejections = apply_quality_filters([record], cfg)
        assert kept == []
        assert rejections["question_too_old"] == 1

    def test_filters_are_monotone_and_order_independent(self):
        records = []
        for i in range(20):
            accepted = i % 3 != 0
            text = CODE_BODY if i % 2 == 0 else PLAIN_BODY
            records.append(
                make_record(
                    f"q{i}",
                    question_text=text,
                    candidates=(
                        make_candidate(0, votes=i, accepted=accepted),
                        make_candidate(1, content="b", votes=0),
                    ),
                )
            )
        cfg = FilterConfig(min_vote_gap=4)

        def ids(rs):
            return {r.question_id for r in rs}

        order_a = apply_quality_filters(filter_code_block(filter_accepted(records)), cfg)[0]
        order_b = filter_accepted(filter_code_block(apply_quality_filters(records, cfg)[0]))
        assert ids(order_a) == ids(order_b)
        assert ids(order_a) <= ids(records)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValidationError):
            FilterConfig(min_pool_size=-1)


class TestAssignGoldRanking:
    def test_single_candidate(self):
        record = make_record(candidates=(make_candidate(0, accepted=True),))
        assert assign_gold_ranking(record, None).gold_ranking == (0,)

    def test_accepted_first_then_votes(self):
        record = make_record(
            candidates=(
                make_candidate(0, votes=5),
                make_candidate(1, content="b", votes=9),
                make_candidate(2, content="c", votes=1, accepted=True),
            )
        )
        ranked = assign_gold_ranking(record, None)
        assert ranked.gold_ranking == (2, 1, 0)

    def test_tie_broken_by_earlier_creation(self):
        record = make_record(
            candidates=(
                make_candidate(0, votes=4, days=5),
                make_candidate(1, content="b", votes=4, days=2),
            )
        )
        ranked = assign_gold_ranking(record, None)
        assert ranked.gold_ranking == (1, 0)

    def test_no_accepted_candidate(self):
        record = make_record(
            candidates=(
                make_candidate(0, votes=1),
                make_candidate(1, content="b", votes=8),
            )
        )
        ranked = assign_gold_ranking(record, None)
        assert ranked.gold_ranking == (1, 0)

    def test_decay_changes_order(self):
        # Older candidate has more votes, but decay halves it enough to flip.
        record = make_record(
            candidates=(
                make_candidate(0, votes=10, days=0),
                make_candidate(1, content="b", votes=7, days=700),
            )
        )
        decay = DecayConfig(reference_time=T0 + timedelta(days=730), half_life=timedelta(days=100))
        ranked = assign_gold_ranking(record, decay)
        assert ranked.gold_ranking == (1, 0)
        no_decay = assign_gold_ranking(record, None)
        assert no_decay.gold_ranking == (0, 1)

    def test_output_is_always_a_permutation(self):
        import numpy as np

        rng = np.random.default_rng(31)
        for _ in range(50):
            size = int(rng.integers(1, 9))
            accepted_at = int(rng.integers(size + 1))
            candidates = tuple(
                make_candidate(
                    i,
                    content=f"text {i}",
                    votes=int(rng.integers(0, 40)),
                    days=int(rng.integers(0, 900)),
                    accepted=(i == accepted_at),
                )
                for i in range(size)
            )
            record = make_record(candidates=candidates)
            ranked = assign_gold_ranking(record, None)
            assert sorted(ranked.gold_ranking) == list(range(size))
            if accepted_at < size:
                assert ranked.gold_ranking[0] == accepted_at


class TestPersistence:
    def test_round_trip_random_records(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(32)
        records = []
        for i in range(100):
            size = int(rng.integers(1, 6))
            accepted_at = int(rng.integers(size))
            candidates = tuple(
                make_candidate(
                    j,
                    content=f"answer {i}/{j} with unicode é中",
                    votes=int(rng.integers(0, 100)),
                    days=int(rng.integers(0, 365)),
                    accepted=(j == accepted_at and bool(rng.integers(2))),
                )
                for j in range(size)
            )
            gold = tuple(int(x) for x in rng.permutation(size)) if rng.integers(2) else None
            records.append(
                make_record(f"q{i}", question_text=f"question {i}?", candidates=candidates, gold=gold)
            )
        path = tmp_path / "records.jsonl"
        write_records(path, records)
        assert read_records(path) == records

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(path, [])
        assert path.read_text(encoding="utf-8") == ""
        assert read_records(path) == []

    def test_blank_lines_are_skipped_and_still_numbered(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(path, [make_record("q1")])
        line = path.read_text(encoding="utf-8")
        path.write_text("\n" + line + " \t\r\n", encoding="utf-8")
        assert read_records(path) == [make_record("q1")]
        path.write_text("\n" + line + "  \n{", encoding="utf-8")
        with pytest.raises(SchemaError, match="line 4: invalid JSON"):
            read_records(path)

    def test_missing_key_names_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        good = (
            '{"question_id": "q1", "question_text": "t", '
            '"question_created_at": "2024-01-01T00:00:00+00:00", '
            '"candidates": [{"id": "a", "content": "c", "votes": 1, '
            '"created_at": "2024-01-01T00:00:00+00:00", "accepted": true}], '
            '"gold_ranking": null}'
        )
        bad = '{"question_id": "q2", "question_text": "t"}'
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="line 2"):
            read_records(path)

    def test_timestamp_outside_the_utc_range_names_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(path, [make_record()])
        text = path.read_text(encoding="utf-8")
        stamp = '"question_created_at": "0001-01-01T00:00:00+01:00"'
        path.write_text(
            text + re.sub(r'"question_created_at": "[^"]*"', stamp, text), encoding="utf-8"
        )
        with pytest.raises(SchemaError, match="line 2.*out of range"):
            read_records(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="line 1"):
            read_records(path)

    def test_repeated_question_id_names_the_second_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(path, [make_record("q1"), make_record("q2"), make_record("q1")])
        with pytest.raises(SchemaError, match="line 3: duplicate record 'q1'"):
            read_records(path)

    def test_integer_past_the_conversion_limit_names_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(path, [make_record("q1"), make_record("q2")])
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1].replace('"votes": 3', '"votes": 1' + "0" * 4300, 1)
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(SchemaError, match="line 2: invalid JSON"):
            read_records(path)

    def test_nesting_past_the_recursion_limit_names_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("[" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="line 1: invalid JSON"):
            read_records(path)

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("votes", "1e400", "'votes' must be a JSON integer, got float"),
            ("votes", "1" + "0" * 400, "'votes' is too large for a float"),
            ("votes", "2.9", "'votes' must be a JSON integer, got float"),
            ("votes", "true", "'votes' must be a JSON integer, got bool"),
            ("votes", '"3"', "'votes' must be a JSON integer, got str"),
            ("accepted", '"false"', "'accepted' must be a JSON boolean, got str"),
            ("accepted", "0", "'accepted' must be a JSON boolean, got int"),
            ("gold_ranking", "[0.5, 1]", "'gold_ranking' entry must be a JSON integer"),
            ("gold_ranking", "[false, true]", "'gold_ranking' entry must be a JSON integer"),
            ("gold_ranking", '"01"', "'gold_ranking' must be a JSON array"),
            ("candidates", '{"id": "a"}', "'candidates' must be a JSON array"),
            ("created_at", "0", "'created_at' must be a JSON string, got int"),
        ],
        ids=[
            "votes-1e400",
            "votes-10**400",
            "votes-2.9",
            "votes-true",
            "votes-string",
            "accepted-string",
            "accepted-0",
            "gold-float",
            "gold-bools",
            "gold-string",
            "candidates-object",
            "created_at-int",
        ],
    )
    def test_wrong_json_type_names_line(self, tmp_path, field, value, expected):
        path = tmp_path / "records.jsonl"
        write_records(path, [make_record("q1"), make_record("q2", gold=(1, 0))])
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1], count = re.subn(rf'"{field}": (\[[^]]*\]|\w+|"[^"]*")', f'"{field}": {value}', lines[1], 1)
        assert count == 1
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(SchemaError, match=f"line 2: bad record: .*{re.escape(expected)}"):
            read_records(path)

    def test_a_record_must_be_an_object(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="line 1: bad record: a record must be a JSON object"):
            read_records(path)


class TestRecordValidation:
    def test_duplicate_candidate_ids_rejected(self):
        with pytest.raises(ValidationError):
            make_record(
                candidates=(make_candidate(0, cid="same"), make_candidate(1, cid="same"))
            )

    def test_two_accepted_rejected(self):
        with pytest.raises(ValidationError):
            make_record(
                candidates=(make_candidate(0, accepted=True), make_candidate(1, accepted=True))
            )

    def test_bad_gold_rejected(self):
        with pytest.raises(ValidationError):
            make_record(gold=(0, 0))

    def test_naive_timestamp_rejected(self):
        with pytest.raises(ValidationError):
            QARecord(
                question_id="q",
                question_text="t",
                question_created_at=T0.replace(tzinfo=None),
                candidates=(make_candidate(0),),
            )

    def test_parse_timestamp_assumes_utc(self):
        parsed = parse_timestamp("2024-05-01T12:30:00")
        assert parsed.tzinfo == timezone.utc
        assert parsed.hour == 12

    @pytest.mark.parametrize("value", ["yesterday", "2024-13-01", "0001-01-01T00:00:00+01:00"])
    def test_bad_timestamp_is_a_validation_error(self, value):
        with pytest.raises(ValidationError, match=re.escape(repr(value))):
            parse_timestamp(value)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ResponseCandidate("a0", "text", "3", T0), "votes must be an int, got str"),
            (lambda: ResponseCandidate("a0", "text", True, T0), "votes must be an int, got bool"),
            (lambda: ResponseCandidate("a0", "text", 3.0, T0), "votes must be an int, got float"),
            (lambda: ResponseCandidate("a0", "text", 3, "2024-01-01"), "created_at must be a timezone-aware datetime"),
            (lambda: make_record().replace(question_created_at="2024-01-01"),
             "question_created_at must be a timezone-aware datetime"),
            (lambda: FilterConfig(since="2024-01-01"), "since must be a timezone-aware datetime or None"),
            (lambda: FilterConfig(since=T0.replace(tzinfo=None)), "since must be a timezone-aware datetime or None"),
            (lambda: make_record(candidates=()), "record q1: candidate pool is empty"),
        ],
        ids=["votes-str", "votes-bool", "votes-float", "created-at-str", "question-created-at-str", "since-str",
             "since-naive", "empty-pool"],
    )
    def test_a_wrongly_typed_field_is_a_validation_error(self, build, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("value", ["3", True, 2.0, None])
    def test_every_filter_threshold_must_be_an_int(self, value):
        names = ["min_pool_size", "max_pool_size", "min_vote_gap", "min_votes_per_response",
                 "max_question_tokens", "max_response_tokens"]
        for name in names:
            with pytest.raises(ValidationError, match=re.escape(f"{name} must be an int >= 0, got {value!r}")):
                FilterConfig(**{name: value})
        assert FilterConfig(**{name: 2 for name in names}).since is None

    def test_immutable_records_support_replace(self):
        record = make_record()
        updated = record.replace(gold_ranking=(0, 1))
        assert updated.gold_ranking == (0, 1)
        assert record.gold_ranking is None


class TestValueRecords:
    """The contract that prefrank's immutable record classes share (`corpus.Value`)."""

    def test_equality_goes_by_type_and_value(self):
        assert make_record() == make_record() and make_candidate(0) == make_candidate(0)
        assert make_record() != make_record(question_id="q2")
        assert FilterConfig() == FilterConfig(min_pool_size=0) != FilterConfig(min_pool_size=1)
        assert LossBreakdown(1.0, 2.0, 0.5) != (1.0, 2.0, 0.5)
        assert DecayConfig(T0) != FilterConfig(since=T0)

    def test_equal_values_hash_equal(self):
        assert hash(make_record()) == hash(make_record())
        assert len({make_candidate(0), make_candidate(0), make_candidate(1)}) == 2

    def test_a_result_holding_a_counter_compares_but_does_not_hash(self):
        result = DumpParseResult((make_record(),), Counter(bad_Score=1))
        assert result == DumpParseResult((make_record(),), Counter(bad_Score=1)) != result.replace(entries=())
        with pytest.raises(TypeError, match="unhashable"):
            hash(result)

    def test_fields_refuse_assignment_and_deletion(self):
        record = make_record()
        with pytest.raises(AttributeError, match="question_id"):
            record.question_id = "q2"
        with pytest.raises(AttributeError):
            del record.candidates
        with pytest.raises(AttributeError):
            record.note = "not a field"
        assert record == make_record()

    def test_replace_checks_the_copy(self):
        record = make_record()
        with pytest.raises(ValidationError, match="permutation"):
            record.replace(gold_ranking=(0, 0))
        with pytest.raises(ValidationError, match="votes must be >= 0"):
            record.candidates[0].replace(votes=-1)
        with pytest.raises(TypeError):
            record.replace(score=1)
        assert record.replace() == record

    def test_pickle_and_copy_round_trip(self):
        record = make_record(gold=(1, 0))
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(clone) is QARecord and clone == record
            assert type(clone.candidates) is tuple and clone.gold_ranking == (1, 0)

    def test_fields_by_position_or_keyword_with_defaults(self):
        fields = ("a0", "text", 3, T0)
        assert ResponseCandidate(*fields) == ResponseCandidate(*fields, accepted=False)
        assert ResponseCandidate(*fields) == ResponseCandidate(id="a0", content="text", votes=3, created_at=T0)
        assert repr(DecayConfig(T0)) == f"DecayConfig(reference_time={T0!r}, half_life=datetime.timedelta(days=365))"

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            (("a0", "text", 3), {}),  # created_at missing
            (("a0", "text", 3, T0), {"score": 1}),  # no such field
            (("a0", "text", 3, T0), {"id": "a1"}),  # id given twice
            (("a0", "text", 3, T0, False, 1), {}),  # one positional too many
        ],
    )
    def test_an_unknown_missing_or_repeated_field_is_a_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            ResponseCandidate(*args, **kwargs)


class TestFieldGate:
    @pytest.mark.parametrize("value, expected", [(2, 2.0), (-2.5, -2.5), (10**300, 1e300)])
    def test_a_number_is_returned_as_a_float(self, value, expected):
        number = require(value, float, "'score'")
        assert type(number) is float and number == expected

    @pytest.mark.parametrize(
        "kind, value, expected",
        [
            (float, True, "'x' must be a JSON number, got bool"),
            (float, "2.5", "'x' must be a JSON number, got str"),
            (float, float("nan"), "'x' must be finite, got nan"),
            (float, float("-inf"), "'x' must be finite, got -inf"),
            (float, 10**400, "'x' is too large for a float"),
            (int, 10**400, "'x' is too large for a float"),
            (int, False, "'x' must be a JSON integer, got bool"),
            (bool, 1, "'x' must be a JSON boolean, got int"),
        ],
    )
    def test_refused_values_name_the_field(self, kind, value, expected):
        with pytest.raises(ValidationError, match=re.escape(expected)):
            require(value, kind, "'x'")

    def test_an_exception_other_than_validation_error_propagates(self, tmp_path):
        # A bug in a row parser must not pose as a bad line.
        path = tmp_path / "rows.jsonl"
        path.write_text('{"id": 1}\n', encoding="utf-8")
        with pytest.raises(KeyError):
            read_keyed_jsonl(path, lambda row: row["missing"], "row")


# Values the reader must keep: in [-1e100, 0], with -0.0, subnormals, the bound itself
# and integers near 2**53, where a float cannot hold every integer.
KEPT_LOGPROBS = st.one_of(
    st.floats(min_value=-1e100, max_value=0.0),
    st.sampled_from([-0.0, -5e-324, -2.2250738585072014e-308, -1e100]),
    st.integers(min_value=-1000, max_value=0),
    st.integers(min_value=-(2**53) - 64, max_value=-(2**53) + 64),
)
# Values it must refuse; json.dumps writes the first three as NaN, Infinity and -Infinity.
REFUSED_LOGPROBS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(max_value=-1e100, exclude_max=True, allow_infinity=False),
)
LOGPROB_SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def logprob_line(candidate_id, values) -> str:
    return json.dumps({"record_id": "q1", "candidate_id": candidate_id, "logprobs": values}) + "\n"


class TestLogProbFile:
    @LOGPROB_SETTINGS
    @given(
        row=st.lists(KEPT_LOGPROBS, min_size=1, max_size=12),
        position=st.integers(min_value=0, max_value=12),
        bad=REFUSED_LOGPROBS,
    )
    @example(row=[-1.0, -2.0], position=1, bad=math.nan)  # a NaN that min and max pass over
    def test_a_bad_value_anywhere_is_refused_naming_its_line_and_key(self, tmp_path, row, position, bad):
        row.insert(min(position, len(row)), bad)
        path = tmp_path / "logprobs.jsonl"
        path.write_text(logprob_line("a", [-1.0]) + logprob_line("b", row), encoding="utf-8")
        expected = re.escape("('q1', 'b'): logprobs must be in [-1e+100, 0]")
        with pytest.raises(SchemaError, match=f"line 2: bad logprob entry: {expected}"):
            load_logprob_file(path)
        written = tmp_path / "written.jsonl"
        with pytest.raises(ValidationError, match=expected):
            write_logprob_file(written, {("q1", "a"): [-1.0], ("q1", "b"): row})
        assert not written.exists()

    @pytest.mark.parametrize(
        "bad",
        [[], [[-1.0]], -1.0, np.array(-1.0), np.zeros((1, 2))],
        ids=["empty", "nested", "number", "0-d", "2-D"],
    )
    def test_a_row_that_is_not_one_flat_vector_is_refused(self, tmp_path, bad):
        expected = re.escape("('q1', 'b'): logprob vector must be non-empty and 1-D")
        written = tmp_path / "written.jsonl"
        with pytest.raises(ValidationError, match=expected):
            write_logprob_file(written, {("q1", "b"): bad})
        assert not written.exists()
        if isinstance(bad, list):
            written.write_text(logprob_line("b", bad), encoding="utf-8")
            with pytest.raises(SchemaError, match=f"line 1: bad logprob entry: {expected}"):
                load_logprob_file(written)

    @pytest.mark.parametrize("bad", [[False], [-1.0, True], ["-1.5"], [-1.0, None]])
    def test_a_row_that_is_not_all_numbers_is_refused_alike(self, tmp_path, bad):
        # The file reader and writer share one gate: a bool is not a number, nor a string.
        expected = re.escape("('q1', 'b'): 'logprobs' must be an array of JSON numbers")
        path = tmp_path / "logprobs.jsonl"
        path.write_text(logprob_line("a", [-1.0]) + logprob_line("b", bad), encoding="utf-8")
        with pytest.raises(SchemaError, match=f"line 2: bad logprob entry: {expected}"):
            load_logprob_file(path)
        written = tmp_path / "written.jsonl"
        with pytest.raises(ValidationError, match=expected):
            write_logprob_file(written, {("q1", "a"): [-1.0], ("q1", "b"): bad})
        assert not written.exists()
        # A numpy row, as `policy.logprob_table` builds them, is numbers.
        write_logprob_file(written, {("q1", "b"): np.array([-1.5, -0.5])})
        assert load_logprob_file(written)[("q1", "b")].tolist() == [-1.5, -0.5]

    @LOGPROB_SETTINGS
    @given(rows=st.lists(st.lists(KEPT_LOGPROBS, min_size=1, max_size=12), min_size=1, max_size=4))
    def test_rows_and_scores_are_bit_identical_to_float64(self, tmp_path, rows):
        record = make_record(candidates=[make_candidate(i) for i in range(len(rows))])
        path = tmp_path / "logprobs.jsonl"
        path.write_text("".join(logprob_line(f"a{i}", values) for i, values in enumerate(rows)), encoding="utf-8")
        expected = [np.asarray(values, np.float64) for values in rows]
        means = np.array([float(np.mean(values)) for values in expected])
        written = tmp_path / "written.jsonl"
        write_logprob_file(written, {("q1", f"a{i}"): values for i, values in enumerate(rows)})
        for table in (load_logprob_file(path), load_logprob_file(written)):
            assert [row.tobytes() for row in logprob_rows(table, record)] == [values.tobytes() for values in expected]
            assert policy_scores_from_logprobs(logprob_rows(table, record)).tobytes() == means.tobytes()
