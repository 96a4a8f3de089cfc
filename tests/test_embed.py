"""Hashed n-gram embeddings, cosine, and the external vector format."""

import hashlib
import math
import pickle
import re
import sys
import warnings
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefrank import embed, pipeline
from prefrank.apdf import semantic_gains, single_apdf
from prefrank.corpus import candidate_key, question_key
from prefrank.embed import (
    MAX_DIM,
    HashedNgramEmbedder,
    cosine,
    load_external_embeddings,
    resolve_vectors,
    write_external_embeddings,
)
from prefrank.errors import SchemaError, ValidationError

from conftest import make_candidate, make_record


def reference_embed(text: str, dim: int, ngram: int) -> np.ndarray:
    """The per-gram loop the memoized embedder must reproduce bit for bit."""

    def signed_bucket(data: bytes) -> tuple[int, float]:
        value = int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")
        return (value >> 1) % dim, 1.0 if value & 1 else -1.0

    vec = np.zeros(dim, dtype=np.float64)
    if not text:
        return vec
    encoded = text.encode("utf-8")
    grams = [encoded[i : i + ngram] for i in range(len(encoded) - ngram + 1)] or [encoded]
    for gram in grams:
        bucket, sign = signed_bucket(gram)
        vec[bucket] += sign
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        bucket, _ = signed_bucket(encoded)
        vec[bucket] = 1.0
        return vec
    return vec / norm


# The reader keeps a row as written when its norm is in [LOW_NORM, HIGH_NORM):
# below, the squared sum is subnormal or zero; at or above, it overflows.
LOW_NORM = math.sqrt(np.finfo(np.float64).tiny)
HIGH_NORM = math.sqrt(np.finfo(np.float64).max)


def reference_table_row(rest: str) -> np.ndarray:
    """The per-token parse the table reader must reproduce bit for bit."""
    return np.array([float(tok) for tok in rest.split()], dtype=np.float64)


def reference_range_guard(row: np.ndarray) -> np.ndarray:
    """`row` unless its norm leaves [LOW_NORM, HIGH_NORM) and it is not all-zero;
    then `row` scaled to a largest |value| of 1."""
    if LOW_NORM <= math.hypot(*row) < HIGH_NORM or not row.any():
        return row
    return row / np.abs(row).max()


# Token -> how float() reads it: a finite value, a non-finite one, or an error.
TABLE_TOKENS = {
    **dict.fromkeys(
        ["1_0", "+.5", "-0", "1.", "1e-400", "4.9e-324", "0.30000000000000004", "\u0661\u0662",
         "\uff11\uff12", "123456789012345678901234567890"],
        "finite",
    ),
    **dict.fromkeys(["infinity", "-Infinity", "1e400", "nan", "-nan"], "non-finite"),
    **dict.fromkeys(["0x1p3", "1,5", "0b1", "1__0", "_1", "inf_", ".e1", "1e"], "rejected"),
}


class TestHashedNgramEmbed:
    def test_empty_text_is_zero_vector(self):
        vec = HashedNgramEmbedder().embed("")
        assert not np.asarray(vec).any()

    def test_nonempty_text_is_unit_norm(self):
        for text in ("a", "fn main()", "x" * 500, "日本語のテキスト"):
            assert np.linalg.norm(HashedNgramEmbedder().embed(text)) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = HashedNgramEmbedder().embed("def f(x): return x + 1")
        b = HashedNgramEmbedder().embed("def f(x): return x + 1")
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_self_similarity(self):
        vec = HashedNgramEmbedder().embed("fn main()")
        assert cosine(vec, vec) == pytest.approx(1.0, abs=1e-12)

    def test_short_text_below_ngram_size(self):
        vec = HashedNgramEmbedder(ngram=5).embed("ab")
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_bad_parameters_rejected(self):
        for dim in (4, 7, MAX_DIM + 1, 10**12):
            with pytest.raises(ValidationError, match=rf"dim must be in \[8, {MAX_DIM}\], got {dim}"):
                HashedNgramEmbedder(dim=dim)
        with pytest.raises(ValidationError, match="ngram must be >= 1, got 0"):
            HashedNgramEmbedder(ngram=0)
        assert np.asarray(HashedNgramEmbedder(dim=MAX_DIM).embed("x")).shape == (MAX_DIM,)

    @settings(max_examples=300, deadline=None)
    @given(
        text=st.text(max_size=80),
        ngram=st.sampled_from([1, 2, 3, 5]),
        dims=st.sampled_from([(8, 256), (64, 17), (256, 64)]),
    )
    @example(text="", ngram=3, dims=(8, 256))
    @example(text="ab", ngram=3, dims=(8, 256))
    @example(text="é", ngram=5, dims=(64, 17))
    def test_bit_identical_to_per_gram_loop(self, text, ngram, dims):
        # Two embedders in one call: each keeps its own memo, so a gram
        # hashed for one dim is hashed again for the other.
        for dim in dims:
            got = HashedNgramEmbedder(dim, ngram).embed(text)
            assert type(got) is list and all(type(value) is float for value in got)
            assert np.asarray(got).dtype == np.float64
            assert np.asarray(got).tobytes() == reference_embed(text, dim, ngram).tobytes()

    def test_cancelled_collisions_fall_back_to_one_bucket(self):
        # At dim=8, ngram=3 the grams "aaa" and "aab" share a bucket with
        # opposite signs, so the signed sum is all-zero.
        text = "aaab"
        encoded = text.encode()
        raw = np.zeros(8)
        for gram in (encoded[0:3], encoded[1:4]):
            value = int.from_bytes(hashlib.blake2b(gram, digest_size=8).digest(), "big")
            raw[(value >> 1) % 8] += 1.0 if value & 1 else -1.0
        assert not raw.any()
        vec = np.asarray(HashedNgramEmbedder(8, 3).embed(text))
        assert vec.tobytes() == reference_embed(text, 8, 3).tobytes()
        assert np.count_nonzero(vec) == 1 and vec.max() == 1.0

    def test_full_memo_is_replaced(self, monkeypatch):
        monkeypatch.setattr(embed, "_MEMO_LIMIT", 16)
        embedder = HashedNgramEmbedder()
        for i in range(40):
            text = f"row {i} of the table"
            got = embedder.embed(text)
            assert np.asarray(got).tobytes() == reference_embed(text, 256, 3).tobytes()
            # Replaced before a call once past the limit, so at most one
            # text's grams beyond it.
            assert len(embedder._memo) <= 16 + len(text)

    def test_threads_share_a_memo_that_keeps_filling_up(self, monkeypatch):
        # Four threads on one embedder whose memo is replaced every few texts.
        monkeypatch.setattr(embed, "_MEMO_LIMIT", 8)
        texts = [f"thread-safe text {i} " * (1 + i % 3) for i in range(200)]
        expected = [reference_embed(text, 64, 3).tobytes() for text in texts]
        embedder = HashedNgramEmbedder(64, 3)

        def embed_all(offset):
            # Each thread starts at its own text, so the threads miss on different grams.
            order = texts[offset:] + texts[:offset]
            return [np.asarray(embedder.embed(t)).tobytes() for t in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(embed_all, offset) for offset in (0, 50, 100, 150)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected[offset:] + expected[:offset] for offset in (0, 50, 100, 150)]

    def test_memo_stays_out_of_pickled_embedder(self):
        embedder = HashedNgramEmbedder()
        before = len(pickle.dumps(embedder))
        for i in range(500):
            embedder.embed(f"text number {i}: " + "xyz" * (i % 7))
        assert len(pickle.dumps(embedder)) == before


class TestResolveVectors:
    def test_embedder_lists_and_table_rows_come_back_as_given(self):
        texts = ("sorted(d.items(), key=itemgetter(1))", "sort the dict by value", "a heap of dicts")
        record = make_record(
            question_text="how do I sort a dict?",
            candidates=[make_candidate(c, content=text, votes=c) for c, text in enumerate(texts)],
        )
        embedder = HashedNgramEmbedder(64, 3)
        anchor, pool = resolve_vectors("q1", record.question_text, record, embedder=embedder)
        texts = [record.question_text, *(c.content for c in record.candidates)]
        for vec, text in zip([anchor, *pool], texts, strict=True):
            assert type(vec) is list and vec == embedder.embed(text)
            assert np.asarray(vec).tobytes() == reference_embed(text, 64, 3).tobytes()
        keys = [question_key(record), *(candidate_key(record, c.id) for c in record.candidates)]
        table = {key: np.asarray(vec) for key, vec in zip(keys, [anchor, *pool])}
        rows = resolve_vectors(keys[0], "", record, table=table)
        assert rows[0] is table[keys[0]]
        assert all(row is table[key] for row, key in zip(rows[1], keys[1:], strict=True))
        assert pipeline.resolve_vectors is resolve_vectors

        hashed = pipeline.build_perception(record, embedder=embedder)
        tabled = pipeline.build_perception(record, table=table)
        reference = [reference_embed(text, 64, 3) for text in texts]
        sims = np.array([cosine(reference[0], vec) for vec in reference[1:]])
        assert hashed.singles[0].values.tobytes() == single_apdf(semantic_gains(sims)).values.tobytes()
        for a, b in zip([*hashed.singles, hashed.multi], [*tabled.singles, tabled.multi], strict=True):
            assert a.values.tobytes() == b.values.tobytes()
        assert hashed.arank.rank_of.tobytes() == tabled.arank.rank_of.tobytes()
        assert hashed.dynamic.order == tabled.dynamic.order

    def test_neither_an_embedder_nor_a_table_is_refused(self):
        with pytest.raises(ValidationError, match="either an embedder or an embedding table is required"):
            pipeline.build_perception(make_record())


class TestCosine:
    def test_self_is_one(self):
        v = np.array([0.6, 0.8])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_is_minus_one(self):
        v = np.array([0.6, 0.8])
        assert cosine(v, -v) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector_is_neutral(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            cosine(np.zeros(3), np.zeros(4))

    def test_bounded_and_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = rng.standard_normal(8)
            b = rng.standard_normal(8)
            c = cosine(a, b)
            assert abs(c) <= 1.0 + 1e-12
            assert c == pytest.approx(cosine(b, a), abs=1e-15)

    def test_scale_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = rng.standard_normal(6)
            b = rng.standard_normal(6)
            lam = float(rng.uniform(0.01, 100.0))
            assert cosine(lam * a, b) == pytest.approx(cosine(a, b), abs=1e-12)


class TestExternalEmbeddings:
    def test_load_fixture(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text(
            "q1\t1 0 0 0\n"
            "q1/a1\t0 2 0 0\n"
            "q1/a2\t1 1 1 1\n",
            encoding="utf-8",
        )
        table = load_external_embeddings(path)
        assert {key: (type(row), row.typecode, row.tolist()) for key, row in table.items()} == {
            "q1": (array, "d", [1.0, 0.0, 0.0, 0.0]),
            "q1/a1": (array, "d", [0.0, 2.0, 0.0, 0.0]),
            "q1/a2": (array, "d", [1.0, 1.0, 1.0, 1.0]),
        }

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("a\t1 0\na\t0 1\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="duplicate embedding id 'a'"):
            load_external_embeddings(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("a\t1 0\nb\t1 0 0\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="line 2"):
            load_external_embeddings(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("", encoding="utf-8")
        assert load_external_embeddings(path) == {}

    def test_bad_float_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        for bad_row in ("a\t1 oops\n", "a\t1 nan\n", "a\t-inf 1\n"):
            path.write_text("b\t1 0\n" + bad_row, encoding="utf-8")
            with pytest.raises(SchemaError, match="line 2"):
                load_external_embeddings(path)

    @pytest.mark.parametrize(
        "row, message",
        [("a 1 0\n", "expected `id<TAB>floats`"), ("\t1 0\n", "expected `id<TAB>floats`"),
         ("a\t\n", "embedding row has no values"), ("a\t \n", "embedding row has no values")],
        ids=["no-tab", "no-key", "no-values", "blank-values"],
    )
    def test_a_row_without_a_key_or_values_is_rejected(self, tmp_path, row, message):
        path = tmp_path / "emb.tsv"
        path.write_text("b\t1 0\n" + row, encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"line 2: {message}")):
            load_external_embeddings(path)

    @pytest.mark.parametrize("token, kind", TABLE_TOKENS.items())
    def test_token_parse_matches_float(self, tmp_path, token, kind):
        rest = f"{token} 2.5"
        path = tmp_path / "emb.tsv"
        path.write_text(f"b\t1 0\na\t{rest}\n", encoding="utf-8")
        try:
            expected = reference_table_row(rest)
        except ValueError:
            assert kind == "rejected"
            with pytest.raises(SchemaError, match="line 2: bad float"):
                load_external_embeddings(path)
            return
        if not np.all(np.isfinite(expected)):
            assert kind == "non-finite"
            with pytest.raises(SchemaError, match="line 2: non-finite"):
                load_external_embeddings(path)
            return
        assert kind == "finite"
        got = load_external_embeddings(path)["a"]
        assert LOW_NORM <= np.linalg.norm(expected) < HIGH_NORM  # so the row is kept as written
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            # Bounded so that "{:.3e}" cannot round a value up to inf.
            st.lists(st.floats(-1e300, 1e300), min_size=3, max_size=3),
            min_size=1,
            max_size=6,
        ),
        fmt=st.sampled_from([repr, "{:.17g}".format, "{:.3e}".format, "{:f}".format]),
        sep=st.sampled_from([" ", "  ", "\t", "\u2003"]),
    )
    def test_rows_bit_identical_to_per_token_parse(self, tmp_path_factory, rows, fmt, sep):
        lines = [f"r{i}\t" + sep.join(fmt(x) for x in row) for i, row in enumerate(rows)]
        path = tmp_path_factory.mktemp("table") / "emb.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        table = load_external_embeddings(path)
        for line in lines:
            key, _, rest = line.partition("\t")
            expected = reference_range_guard(reference_table_row(rest))
            assert table[key].tobytes() == expected.tobytes()

    def test_rows_whose_squared_sum_leaves_the_float_range(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text(
            "big\t1e200 1\nhuge\t1e154 1e154\ntiny\t1e-200 1e-200\nsubnormal\t1e-160 1e-160\n"
            "unit\t1 1\nzero\t0 0\n",
            encoding="utf-8",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = load_external_embeddings(path)
        assert table["big"].tolist() == [1.0, 1e-200]
        for key in ("huge", "tiny", "subnormal"):
            assert table[key].tobytes() == table["unit"].tobytes()
        assert table["zero"].tolist() == [0.0, 0.0]
        assert cosine(table["tiny"], table["big"]) == pytest.approx(2**-0.5)

    def test_crlf_line_endings(self, tmp_path):
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        lf.write_bytes(b"a\t1 2\n\nb\t3 4\n")
        crlf.write_bytes(b"a\t1 2\r\n\r\nb\t3 4\r\n")
        want, got = load_external_embeddings(lf), load_external_embeddings(crlf)
        assert list(got) == ["a", "b"]
        assert all(got[key].tobytes() == want[key].tobytes() for key in want)

    @settings(max_examples=60, deadline=None)
    @given(
        row=st.lists(
            st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 0.5, -0.5]),
            min_size=1,
            max_size=12,
        )
    )
    @example(row=[0.0, -0.0, 0.0, -0.0])
    def test_list_and_array_rows_write_the_same_bytes(self, tmp_path_factory, row):
        work = tmp_path_factory.mktemp("rows")
        hashed = HashedNgramEmbedder(16).embed("a hashed row")
        tables = {
            "list": {"row": row, "hashed": hashed},
            "array": {"row": np.array(row), "hashed": np.array(hashed)},
        }
        for name, table in tables.items():
            write_external_embeddings(work / f"{name}.tsv", table)
        written = (work / "list.tsv").read_bytes()
        assert written == (work / "array.tsv").read_bytes()
        # Each value is the repr of its float64, as a per-value join writes it.
        assert written.decode() == "".join(
            f"{key}\t{' '.join(map(repr, vec))}\n" for key, vec in tables["list"].items()
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", [list, np.array])
    def test_non_finite_value_refused_before_the_file_opens(self, tmp_path, bad, kind):
        path = tmp_path / "emb.tsv"
        with pytest.raises(ValidationError, match="embedding 'b' holds a NaN or infinite value"):
            write_external_embeddings(path, {"a": kind([1.0, 0.0]), "b": kind([0.5, bad, 0.5])})
        assert not path.exists()

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        table = {}
        for i in range(10):
            vec = rng.standard_normal(16)
            table[f"id{i}"] = vec / np.linalg.norm(vec)
        path = tmp_path / "emb.tsv"
        write_external_embeddings(path, table)
        loaded = load_external_embeddings(path)
        assert list(loaded) == list(table)
        for key in table:
            assert loaded[key].tobytes() == table[key].tobytes()

    def test_hashed_rows_read_back_bit_identical(self, tmp_path):
        embedder = HashedNgramEmbedder(64)
        table = {text: embedder.embed(text) for text in ("sort a dict by value", "heap", "x" * 300)}
        table["signed zeros"] = [-0.0 if value == 0 else value for value in table["heap"]]
        table["empty text"] = embedder.embed("")
        table["negative zeros"] = [-0.0] * 64
        path = tmp_path / "emb.tsv"
        write_external_embeddings(path, table)
        loaded = load_external_embeddings(path)
        assert list(loaded) == list(table)
        for key, row in table.items():
            assert loaded[key].tobytes() == array("d", row).tobytes()

    def test_rows_at_the_ends_of_the_range_give_finite_cosines(self, tmp_path):
        def spread(n, end):
            # n equal |values| whose norm is just inside the range at `end`.
            value = end / math.sqrt(n)
            while not LOW_NORM <= math.hypot(*[value] * n) < HIGH_NORM:
                value = math.nextafter(value, 1.0)
            return [value if i % 2 else -value for i in range(n)]

        inside = {
            "low": [LOW_NORM, 0.0, 0.0],
            "low2": spread(2, LOW_NORM) + [0.0],
            "low3": spread(3, LOW_NORM),
            "high": [math.nextafter(HIGH_NORM, 0.0), 0.0, 0.0],
            "high2": [0.0, *spread(2, HIGH_NORM)],
            "high3": spread(3, HIGH_NORM),
            "unit": [0.25, -0.5, 1.0],
        }
        outside = {"below": [math.nextafter(LOW_NORM, 0.0), 0.0, 0.0], "above": [HIGH_NORM, 0.0, 0.0]}
        path = tmp_path / "emb.tsv"
        write_external_embeddings(path, {**inside, **outside})
        table = load_external_embeddings(path)
        for key, row in inside.items():
            assert table[key].tobytes() == array("d", row).tobytes()
        for key in outside:
            assert table[key].tolist() == [1.0, 0.0, 0.0]
        # Rounding alone takes a cosine up to a few ulps past 1, as it does for unit rows.
        bound = 1.0 + 4 * sys.float_info.epsilon
        for a in table.values():
            for b in table.values():
                similarity = cosine(a, b)
                assert math.isfinite(similarity) and abs(similarity) <= bound
            assert cosine(a, a) == pytest.approx(1.0, rel=1e-15)
