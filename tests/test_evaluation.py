"""Hit/recall metrics, text-overlap metrics, and correlations."""

import numpy as np
import pytest

from prefrank.embed import HashedNgramEmbedder
from prefrank.errors import ValidationError
from prefrank.evaluation import (
    NORMALIZER_BY_K,
    NORMALIZER_PAPER_HALF,
    RecordOutcome,
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


def outcome(sims, gold, record_id="r"):
    return RecordOutcome(
        record_id=record_id,
        similarities=np.asarray(sims, dtype=np.float64),
        gold_ranking=tuple(gold),
    )


class TestBestMatch:
    def test_argmax(self):
        assert best_match(np.array([0.1, 0.8, 0.3])) == 1

    def test_single(self):
        assert best_match(np.array([0.42])) == 0

    def test_tie_goes_to_lower_index(self):
        assert best_match(np.array([0.5, 0.9, 0.9])) == 1

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
        assert best_match(sims) == 2
        assert sims[2] == pytest.approx(1.0, abs=1e-12)


class TestTopKMatches:
    def test_k_at_least_pool_returns_all_sorted(self):
        assert top_k_matches(np.array([0.1, 0.8, 0.3]), 10) == [1, 2, 0]

    def test_example(self):
        assert top_k_matches(np.array([0.1, 0.8, 0.3]), 2) == [1, 2]

    def test_k1_equals_best_match(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            sims = rng.uniform(-1, 1, size=int(rng.integers(1, 9)))
            assert top_k_matches(sims, 1) == [best_match(sims)]

    def test_bad_k_rejected(self):
        with pytest.raises(ValidationError):
            top_k_matches(np.array([0.1]), 0)


class TestGoldTopK:
    def test_size_is_min_of_k_and_pool(self):
        gold = (2, 0, 1)
        assert gold_top_k(gold, 2) == {2, 0}
        assert gold_top_k(gold, 7) == {0, 1, 2}


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


class TestSaferHit:
    def test_hit(self):
        assert safer_hit(np.array([0.9, 0.2]), 0) == 1

    def test_miss(self):
        assert safer_hit(np.array([0.9, 0.2]), 1) == 0

    def test_pool_must_be_two(self):
        with pytest.raises(ValidationError):
            safer_hit(np.array([0.9, 0.2, 0.1]), 0)

    def test_dataset_mean(self):
        sims = [([0.9, 0.1], 0), ([0.3, 0.8], 1), ([0.6, 0.5], 0), ([0.2, 0.4], 0)]
        hits = [safer_hit(np.array(s), g) for s, g in sims]
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

    def test_range(self):
        rng = np.random.default_rng(54)
        vocab = ["red", "green", "blue", "cyan", "teal"]
        for _ in range(100):
            cand = " ".join(rng.choice(vocab, size=int(rng.integers(1, 8))))
            ref = " ".join(rng.choice(vocab, size=int(rng.integers(1, 8))))
            assert 0.0 <= bleu(cand, [ref]) <= 1.0


class TestRougeL:
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
        with pytest.raises(ValidationError):
            pearson_r([1.0, 2.0], [1.0, 2.0, 3.0])


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

    def test_nothing_evaluable_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_dataset([make_record("q")], {}, embedder=HashedNgramEmbedder(dim=64))
