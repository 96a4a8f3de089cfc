"""Hit/recall metrics, text-overlap metrics, and correlations."""

from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefrank import embed, evaluation
from prefrank.corpus import candidate_key, generation_key
from prefrank.embed import HashedNgramEmbedder
from prefrank.errors import ValidationError
from prefrank.evaluation import (
    NORMALIZER_BY_K,
    NORMALIZER_PAPER_HALF,
    RecordOutcome,
    _lcs_length,
    _mean,
    best_match,
    bleu,
    evaluate_dataset,
    gold_top_k,
    pearson_r,
    pool_similarities,
    pref_hit,
    pref_recall,
    rouge_l,
    safer_hit,
    spearman_r,
    top_k_matches,
)

from conftest import make_candidate, make_record


def ids(size):
    """Candidate ids that sort like their indices."""
    return tuple(f"a{c:02d}" for c in range(size))


def outcome(sims, gold, record_id="r"):
    return RecordOutcome(
        record_id=record_id,
        similarities=np.asarray(sims, dtype=np.float64),
        candidate_ids=ids(len(sims)),
        gold_ranking=tuple(gold),
    )


def numpy_cosine(a, b) -> float:
    """The numpy cosine that `embed.cosine` replaced."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestBestMatch:
    def test_argmax(self):
        assert best_match(np.array([0.1, 0.8, 0.3]), ids(3)) == 1

    def test_single(self):
        assert best_match(np.array([0.42]), ids(1)) == 0

    def test_tie_goes_to_lower_id(self):
        assert best_match(np.array([0.5, 0.9, 0.9]), ids(3)) == 1
        assert best_match(np.array([0.5, 0.9, 0.9]), ("a0", "b", "a1")) == 2

    def test_verbatim_candidate_wins(self):
        embedder = HashedNgramEmbedder(dim=64)
        record = make_record(
            candidates=(
                make_candidate(0, content="use a dict comprehension", accepted=True),
                make_candidate(1, content="try a for loop with append"),
                make_candidate(2, content="vectorize with numpy instead"),
            )
        )
        sims = pool_similarities("vectorize with numpy instead", record, embedder=embedder)
        assert best_match(sims, [c.id for c in record.candidates]) == 2
        assert sims[2] == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="similarity vector must be non-empty"):
            best_match([], ())


class TestTopKMatches:
    def test_k_at_least_pool_returns_all_sorted(self):
        assert top_k_matches(np.array([0.1, 0.8, 0.3]), ids(3), 10) == [1, 2, 0]

    def test_example(self):
        assert top_k_matches(np.array([0.1, 0.8, 0.3]), ids(3), 2) == [1, 2]

    def test_k1_equals_best_match(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            sims = rng.uniform(-1, 1, size=int(rng.integers(1, 9)))
            assert top_k_matches(sims, ids(sims.size), 1) == [best_match(sims, ids(sims.size))]

    def test_bad_k_rejected(self):
        with pytest.raises(ValidationError):
            top_k_matches(np.array([0.1]), ids(1), 0)


# Similarities with exact ties and both signed zeros drawn often.
similarity_lists = st.lists(
    st.sampled_from([0.0, -0.0, 0.5, -1.0]) | st.floats(-1.0, 1.0), min_size=1, max_size=40
)


class TestNumpyFreeHelpers:
    """The standard-library helpers against the numpy code they replace.  With ids
    that sort like the indices, an id tie-break is numpy's stable index tie-break."""

    @settings(max_examples=200, deadline=None)
    @given(sims=similarity_lists)
    @example(sims=[0.0, -0.0, 0.0])
    @example(sims=[-0.0, 0.0])
    def test_best_match_is_numpy_argmax(self, sims):
        expected = int(np.argmax(sims))
        assert best_match(sims, ids(len(sims))) == expected
        assert best_match(np.asarray(sims), ids(len(sims))) == expected

    @settings(max_examples=200, deadline=None)
    @given(sims=similarity_lists, k=st.integers(1, 45))
    @example(sims=[-0.0, 0.5, 0.0, 0.5, -0.0], k=5)
    def test_top_k_matches_is_a_stable_numpy_argsort(self, sims, k):
        expected = np.argsort(-np.asarray(sims), kind="stable")[:k].tolist()
        assert top_k_matches(sims, ids(len(sims)), k) == expected
        assert top_k_matches(np.asarray(sims), ids(len(sims)), k) == expected

    @settings(max_examples=200, deadline=None)
    @given(sims=similarity_lists, data=st.data())
    def test_matches_follow_the_candidates_not_their_positions(self, sims, data):
        # Candidate sigma[p] moves to position p and keeps its id, so exact ties still go by id.
        names = [f"x{c}" for c in range(len(sims))]
        sigma = data.draw(st.permutations(range(len(sims))))
        moved_sims, moved_names = [sims[s] for s in sigma], [names[s] for s in sigma]
        assert sigma[best_match(moved_sims, moved_names)] == best_match(sims, names)
        for k in range(1, len(sims) + 1):
            assert [sigma[c] for c in top_k_matches(moved_sims, moved_names, k)] == top_k_matches(sims, names, k)

    @settings(max_examples=300, deadline=None)
    @given(
        texts=st.lists(st.text(alphabet="abcd efg\u00e9", max_size=300), min_size=2, max_size=2),
        dim=st.sampled_from([8, 64, 256]),
    )
    def test_cosine_matches_numpy_on_hashed_vectors(self, texts, dim):
        a, b = (HashedNgramEmbedder(dim).embed(t) for t in texts)
        if any(a) and any(b):
            assert abs(embed.cosine(a, b) - numpy_cosine(a, b)) <= 1e-15
        else:
            assert embed.cosine(a, b) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 1024), sparsity=st.floats(0.0, 0.9))
    def test_cosine_matches_numpy_on_unit_norm_table_rows(self, seed, dim, sparsity):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((2, dim)) * (rng.random((2, dim)) >= sparsity)
        rows[:, 0] += 1.0  # no all-zero row
        # Unit-norm float64 rows, as lists and as the ``array('d')`` rows the TSV reader returns.
        a, b = (row / np.linalg.norm(row) for row in rows)
        expected = numpy_cosine(a, b)
        for kind in (list, lambda row: array("d", row)):
            assert abs(embed.cosine(kind(a), kind(b)) - expected) <= 1e-15

    def test_pool_similarities_from_a_table_of_arrays_or_lists(self):
        # Rows a caller built, not unit-norm, so the anchor's norm matters.
        rng = np.random.default_rng(17)
        record = make_record(candidates=[make_candidate(c, content=f"c{c}") for c in range(4)])
        keys = [generation_key("q1"), *(candidate_key(record, c.id) for c in record.candidates)]
        rows = dict(zip(keys, rng.standard_normal((5, 32)) * rng.uniform(0.1, 10.0, (5, 1))))
        expected = [numpy_cosine(rows[keys[0]], rows[key]) for key in keys[1:]]
        for table in (rows, {key: row.tolist() for key, row in rows.items()}):
            sims = pool_similarities("unused", record, table=table)
            assert type(sims) is list
            np.testing.assert_allclose(sims, expected, rtol=0, atol=1e-15)

    def test_cosine_of_a_zero_vector_is_exactly_zero(self):
        # `eval` takes its similarities from the one cosine, by the name it imports.
        assert evaluation.cosine is embed.cosine
        vec = HashedNgramEmbedder(64).embed("some text")
        for zero in ([0.0] * 64, array("d", [0.0] * 64)):
            assert embed.cosine(zero, vec) == embed.cosine(vec, zero) == 0.0
            assert embed.cosine(zero, zero) == 0.0
            assert embed.cosine(zero, vec, 0.0) == 0.0

    def test_cosine_dimension_mismatch_rejected(self):
        for kind in (list, lambda row: array("d", row)):
            with pytest.raises(ValidationError, match="dimension mismatch: 3 vs 4"):
                embed.cosine(kind([1.0] * 3), kind([1.0] * 4))

    @settings(max_examples=300, deadline=None)
    @given(xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=700))
    def test_mean_is_numpy_mean(self, xs):
        expected = float(np.mean(xs))
        assert abs(_mean(xs) - expected) <= 1e-14 * abs(expected)


class TestGoldTopK:
    def test_size_is_min_of_k_and_pool(self):
        gold = (2, 0, 1)
        assert gold_top_k(gold, 2) == {2, 0}
        assert gold_top_k(gold, 7) == {0, 1, 2}

    def test_bad_k_rejected(self):
        with pytest.raises(ValidationError, match="k must be >= 1, got 0"):
            gold_top_k((0, 1), 0)


class TestPrefHit:
    def test_all_hits(self):
        outcomes = [outcome([0.9, 0.1], [0, 1]), outcome([0.2, 0.7], [1, 0])]
        assert pref_hit(outcomes, 1) == 1.0

    def test_no_hits(self):
        outcomes = [outcome([0.9, 0.1], [1, 0]), outcome([0.2, 0.7], [0, 1])]
        assert pref_hit(outcomes, 1) == 0.0

    def test_half(self):
        outcomes = [
            outcome([0.9, 0.1, 0.0], [0, 1, 2]),
            outcome([0.9, 0.1, 0.0], [1, 0, 2]),
            outcome([0.0, 0.1, 0.9], [2, 0, 1]),
            outcome([0.0, 0.9, 0.1], [2, 0, 1]),
        ]
        assert pref_hit(outcomes, 1) == 0.5

    def test_monotone_in_k(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            size = int(rng.integers(1, 9))
            outcomes = [
                outcome(rng.uniform(0, 1, size=size), rng.permutation(size))
                for _ in range(int(rng.integers(1, 6)))
            ]
            values = [pref_hit(outcomes, k) for k in range(1, size + 2)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            pref_hit([], 1)


class TestPrefRecall:
    def test_perfect_overlap_paper_half(self):
        # top-2 matches == gold top-2: overlap 2, divided by 2.
        outcomes = [outcome([0.9, 0.8, 0.1], [0, 1, 2])]
        assert pref_recall(outcomes, 2, NORMALIZER_PAPER_HALF) == 1.0

    def test_zero_overlap(self):
        outcomes = [outcome([0.9, 0.8, 0.1, 0.0], [2, 3, 0, 1])]
        assert pref_recall(outcomes, 2, NORMALIZER_PAPER_HALF) == 0.0

    def test_literal_half_exceeds_one_for_k3(self):
        outcomes = [outcome([0.9, 0.8, 0.7, 0.1], [0, 1, 2, 3])]
        assert pref_recall(outcomes, 3, NORMALIZER_PAPER_HALF) == 1.5

    def test_by_k_is_bounded(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            size = int(rng.integers(1, 9))
            k = int(rng.integers(1, 7))
            outcomes = [
                outcome(rng.uniform(0, 1, size=size), rng.permutation(size))
                for _ in range(int(rng.integers(1, 5)))
            ]
            value = pref_recall(outcomes, k, NORMALIZER_BY_K)
            assert 0.0 <= value <= 1.0

    def test_by_k_perfect(self):
        outcomes = [outcome([0.9, 0.8, 0.7, 0.1], [0, 1, 2, 3])]
        assert pref_recall(outcomes, 3, NORMALIZER_BY_K) == 1.0

    def test_unknown_normalizer_rejected(self):
        with pytest.raises(ValidationError):
            pref_recall([outcome([0.5], [0])], 1, "thirds")

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="pref_recall requires at least one record"):
            pref_recall([], 1)


class TestSaferHit:
    def test_hit(self):
        assert safer_hit(np.array([0.9, 0.2]), ids(2), 0) == 1

    def test_miss(self):
        assert safer_hit(np.array([0.9, 0.2]), ids(2), 1) == 0

    def test_pool_must_be_two(self):
        with pytest.raises(ValidationError):
            safer_hit(np.array([0.9, 0.2, 0.1]), ids(3), 0)

    def test_gold_index_must_be_0_or_1(self):
        with pytest.raises(ValidationError, match="gold_safer_index must be 0 or 1, got 2"):
            safer_hit(np.array([0.9, 0.2]), ids(2), 2)

    def test_dataset_mean(self):
        sims = [([0.9, 0.1], 0), ([0.3, 0.8], 1), ([0.6, 0.5], 0), ([0.2, 0.4], 0)]
        hits = [safer_hit(np.array(s), ids(2), g) for s, g in sims]
        assert sum(hits) / len(hits) == 0.75


class TestBleu:
    def test_identical(self):
        text = "def add(a, b): return a + b"
        assert bleu(text, [text]) == 1.0

    def test_disjoint(self):
        assert bleu("alpha beta gamma", ["delta epsilon zeta"]) == 0.0

    def test_hand_computed_bigram_case(self):
        candidate = "the cat sat on mat"
        reference = "the cat sat on the mat"
        # p1 = 5/5, p2 = 3/4, brevity = exp(1 - 6/5)
        assert bleu(candidate, [reference], max_n=2) == pytest.approx(
            0.7090416310250969, abs=1e-12
        )

    def test_empty_candidate(self):
        assert bleu("", ["something"]) == 0.0

    def test_short_candidate_uses_available_orders(self):
        assert bleu("two words", ["two words"]) == 1.0

    def test_multiple_references_clip(self):
        # Each unigram is covered by a different reference.
        assert bleu("a b", ["a x", "y b"], max_n=1) == 1.0
        # But the bigram appears in neither, so the default order-2 score is 0.
        assert bleu("a b", ["a x", "y b"]) == 0.0
        # The brevity penalty takes the reference length closest to the candidate's, the
        # shorter on ties: 2 and 4 are both 1 from 3, so no penalty (4 would give exp(-1/3)).
        assert bleu("a b c", ["a b", "a b c d"]) == 1.0

    def test_range(self):
        rng = np.random.default_rng(54)
        vocab = ["red", "green", "blue", "cyan", "teal"]
        for _ in range(100):
            cand = " ".join(rng.choice(vocab, size=int(rng.integers(1, 8))))
            ref = " ".join(rng.choice(vocab, size=int(rng.integers(1, 8))))
            assert 0.0 <= bleu(cand, [ref]) <= 1.0

    def test_bad_max_n_rejected(self):
        with pytest.raises(ValidationError, match="max_n must be >= 1, got 0"):
            bleu("a b", ["a b"], max_n=0)


def reference_lcs_length(a: list[str], b: list[str]) -> int:
    """The row-by-row dynamic program the bit-parallel LCS must reproduce."""
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for token_a in a:
        current = [0] * (len(b) + 1)
        for j, token_b in enumerate(b, start=1):
            if token_a == token_b:
                current[j] = previous[j - 1] + 1
            else:
                current[j] = max(previous[j], current[j - 1])
        previous = current
    return previous[-1]


class TestRougeL:
    @settings(max_examples=300, deadline=None)
    @given(
        a=st.lists(st.sampled_from("abcd"), max_size=40),
        b=st.lists(st.sampled_from("abcde"), max_size=90),
    )
    @example(a=[], b=["a"])
    @example(a=["a"], b=[])
    @example(a=["a"] * 70, b=["a"] * 70)
    def test_lcs_equals_dynamic_program(self, a, b):
        assert _lcs_length(a, b) == reference_lcs_length(a, b)
        assert _lcs_length(b, a) == reference_lcs_length(a, b)

    def test_identical(self):
        assert rouge_l("a b c", "a b c") == 1.0

    def test_empty_candidate(self):
        assert rouge_l("", "a b c") == 0.0

    def test_hand_lcs_case(self):
        # LCS("a b c d", "a c d e") = "a c d", P = R = 3/4, F1 = 0.75
        assert rouge_l("a b c d", "a c d e") == pytest.approx(0.75, abs=1e-12)

    def test_disjoint(self):
        assert rouge_l("x y", "p q") == 0.0


class TestCorrelations:
    def test_pearson_perfect_linear(self):
        xs = np.arange(10.0)
        assert pearson_r(xs, 2 * xs + 1) == pytest.approx(1.0, abs=1e-12)

    def test_pearson_hand_fixture(self):
        assert pearson_r([1, 2, 3, 4, 5], [2, 1, 4, 3, 6]) == pytest.approx(
            0.8219949365267863, abs=1e-12
        )

    def test_spearman_monotone(self):
        xs = np.array([0.1, 0.5, 1.2, 3.0, 9.9])
        assert spearman_r(xs, np.exp(xs)) == pytest.approx(1.0, abs=1e-12)

    def test_spearman_hand_fixture(self):
        assert spearman_r([1, 2, 3, 4, 5], [2, 1, 4, 3, 6]) == pytest.approx(0.8, abs=1e-12)

    def test_spearman_handles_ties(self):
        value = spearman_r([1.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        assert -1.0 <= value <= 1.0

    @pytest.mark.parametrize(
        "xs, scale, expected",
        [
            ([1e200, -1e200, 0.0], 1e200, -0.5),  # squares overflow
            ([1.5e308, 1.5e308, -1e308], 1.5e308, -0.8660254037844386),  # the sum overflows
            ([1e-200, -1e-200, 0.0], 1e-200, -0.5),  # squares underflow to zero
        ],
    )
    def test_pearson_samples_whose_squares_leave_the_float_range(self, xs, scale, expected):
        ys = [0.1, 0.2, 0.3]
        scaled = pearson_r([x / scale for x in xs], ys)
        assert scaled == pytest.approx(expected, abs=1e-15)
        assert pearson_r(xs, ys) == pearson_r(ys, xs) == scaled

    def test_constant_sample_rejected(self):
        with pytest.raises(ValidationError):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        for correlation in (pearson_r, spearman_r):
            for xs, ys in ([1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0], [1.0]):
                with pytest.raises(ValidationError, match="correlation requires two equal-length 1-D samples"):
                    correlation(xs, ys)


def graded_pool_record(record_id="g1"):
    """Pool whose similarity-to-best ordering matches the gold ranking."""
    best = "alpha beta gamma delta epsilon"
    return make_record(
        record_id,
        question_text="which incantation?",
        candidates=(
            make_candidate(0, content=best, votes=9, accepted=True),
            make_candidate(1, content="alpha beta gamma delta zeta"),
            make_candidate(2, content="alpha beta eta theta iota"),
            make_candidate(3, content="kappa lambda mu nu xi"),
        ),
        gold=(0, 1, 2, 3),
    )


class TestEvaluateDataset:
    def test_self_copies_hit_everything(self):
        embedder = HashedNgramEmbedder(dim=128)
        records = [graded_pool_record(f"g{i}") for i in range(4)]
        generations = {r.question_id: r.candidates[0].content for r in records}
        report = evaluate_dataset(
            records, generations, ks=(1, 2, 3), normalizer=NORMALIZER_BY_K, embedder=embedder
        )
        assert report.pref_hit[1] == 1.0
        assert report.pref_recall[1] == 1.0
        assert report.pref_recall[2] == 1.0
        assert report.pref_recall[3] == 1.0
        assert report.bleu == 1.0
        assert report.rouge_l == 1.0
        assert report.n_records == 4

    def test_skips_counted(self):
        embedder = HashedNgramEmbedder(dim=64)
        with_gold = graded_pool_record("g1")
        without_gold = make_record("g2", gold=None)
        records = [with_gold, without_gold, graded_pool_record("g3")]
        generations = {
            "g1": with_gold.candidates[0].content,
            "g2": "whatever",
            # g3 has no generation
        }
        report = evaluate_dataset(records, generations, ks=(1,), embedder=embedder)
        assert report.n_records == 1
        assert report.skipped["no_gold_ranking"] == 1
        assert report.skipped["no_generation"] == 1

    def test_record_order_is_irrelevant(self):
        embedder = HashedNgramEmbedder(dim=64)
        records = [graded_pool_record(f"g{i}") for i in range(6)]
        generations = {r.question_id: r.candidates[1].content for r in records}
        forward = evaluate_dataset(records, generations, ks=(1, 2), embedder=embedder)
        backward = evaluate_dataset(records[::-1], generations, ks=(1, 2), embedder=embedder)
        assert forward.pref_hit == backward.pref_hit
        assert forward.pref_recall == backward.pref_recall
        assert forward.bleu == backward.bleu

    def test_safer_hit_over_two_candidate_records(self):
        embedder = HashedNgramEmbedder(dim=64)
        records = [
            make_record(
                "p1",
                candidates=(
                    make_candidate(0, content="decline politely and move on", accepted=True),
                    make_candidate(1, content="comply with the dangerous ask"),
                ),
                gold=(0, 1),
            ),
            make_record(
                "p2",
                candidates=(
                    make_candidate(0, content="share the unsafe workaround"),
                    make_candidate(1, content="recommend the supported path", accepted=True),
                ),
                gold=(1, 0),
            ),
        ]
        generations = {
            "p1": "decline politely and move on",
            "p2": "share the unsafe workaround",
        }
        report = evaluate_dataset(records, generations, ks=(1,), embedder=embedder)
        assert report.safer_hit == 0.5

    def test_summary_lines_cover_metrics(self):
        embedder = HashedNgramEmbedder(dim=64)
        records = [graded_pool_record("g1")]
        generations = {"g1": records[0].candidates[0].content}
        report = evaluate_dataset(records, generations, ks=(1,), embedder=embedder)
        text = "\n".join(report.summary_lines())
        for needle in ("pref_hit@1", "pref_recall@1", "bleu", "rouge_l", "n_records"):
            assert needle in text

    def test_the_report_names_its_vectors(self):
        embedder = HashedNgramEmbedder(dim=64)
        [record] = records = [graded_pool_record("g1")]
        generations = {"g1": "the generated answer"}
        table = {candidate_key(record, c.id): embedder.embed(c.content) for c in record.candidates}
        table[generation_key("g1")] = embedder.embed(generations["g1"])
        hashed = evaluate_dataset(records, generations, ks=(1,), embedder=embedder)
        external = evaluate_dataset(records, generations, ks=(1,), table=table)
        assert (hashed.embedder, external.embedder) == ("hashed_ngram(dim=64,ngram=3)", "external")
        assert external.replace(embedder=hashed.embedder) == hashed

    def test_nothing_evaluable_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_dataset([make_record("q")], {}, embedder=HashedNgramEmbedder(dim=64))
