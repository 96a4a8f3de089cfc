"""Dump parsing, filtering, HTML cleaning, gold labels, persistence."""

import dataclasses
import re
from datetime import timedelta, timezone

import pytest

from prefrank.apdf import DecayConfig
from prefrank.corpus import (
    FilterConfig,
    QARecord,
    apply_quality_filters,
    assign_gold_ranking,
    clean_entries,
    clean_html,
    filter_accepted,
    filter_code_block,
    has_code_block,
    parse_dump,
    parse_timestamp,
    read_records,
    write_records,
)
from prefrank.errors import DumpParseError, SchemaError, ValidationError

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
        assert len(result) == 2
        assert [r.pool_size for r in result] == [3, 2]
        assert result.warnings == {}
        first = result.entries[0]
        assert first.accepted_index() == 0
        assert first.candidates[0].votes == 4

    def test_empty_file(self, tmp_path):
        path = tmp_path / "Posts.xml"
        path.write_text("", encoding="utf-8")
        result = parse_dump(path)
        assert len(result) == 0
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
        assert len(result) == 1
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

    def test_immutable_records_support_replace(self):
        record = make_record()
        updated = dataclasses.replace(record, gold_ranking=(0, 1))
        assert updated.gold_ranking == (0, 1)
        assert record.gold_ranking is None
