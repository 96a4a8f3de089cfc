"""Acceptance suite: one test per exit criterion, each printing a
PASS line with its measured numbers.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

from prefrank.corpus import (
    FilterConfig,
    apply_quality_filters,
    clean_entries,
    clean_html,
    filter_accepted,
    filter_code_block,
    parse_dump,
)
from prefrank.embed import HashedNgramEmbedder
from prefrank.evaluation import (
    NORMALIZER_BY_K,
    RecordOutcome,
    pool_similarities,
    pref_hit,
    pref_recall,
    spearman_r,
)
from prefrank.objective import (
    MODE_TOP_ANCHORED,
    dpo_pair_loss,
    perceptual_comparison_loss,
    plackett_luce_loss,
    record_loss,
)
from prefrank.policy import ToyPolicy, loss_gradient, record_scores, train
from prefrank.ranking import DynamicRanking, brute_force_rank, dynamic_rank

from conftest import (
    CODE_TEXT,
    DUMP_PLAN,
    STAGE_COUNTS,
    make_candidate,
    make_record,
    random_pool_matrices,
    random_semantic_rank,
)
from test_objective import uniform_matrix
from test_ranking import HAND_ARANK, HAND_MATRIX


def report(criterion, detail):
    print(f"\n[acceptance {criterion}] PASS: {detail}")


class TestCriterion1ApdfInvariants:
    def test_matrix_invariants_on_random_pools(self):
        started = time.monotonic()
        rng = np.random.default_rng(1001)
        pools = 1000
        for _ in range(pools):
            size = int(rng.integers(2, 13))
            attributes = int(rng.integers(2, 4))
            _, singles, multi = random_pool_matrices(rng, size=size, attributes=attributes)
            for matrix in singles + [multi]:
                values = matrix.values
                assert np.abs(values - values.T).max() <= 1e-12
                assert not np.diagonal(values).any()
                assert np.all(values >= 0.0)
            product = singles[0].values.copy()
            for matrix in singles[1:]:
                product = product * matrix.values
            assert np.array_equal(multi.values, product)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0
        report(1, f"{pools} random pools (M in 2..12), invariants exact, {elapsed:.2f}s")


class TestCriterion2OracleEquivalence:
    def test_dynamic_equals_brute_force(self):
        started = time.monotonic()
        rng = np.random.default_rng(1002)
        instances = 500
        for _ in range(instances):
            size = int(rng.integers(1, 7))
            _, _, multi = random_pool_matrices(rng, size=size)
            arank = random_semantic_rank(rng, size)
            fast = dynamic_rank(multi, arank).order
            slow = brute_force_rank(multi, arank).order
            assert fast == slow
        assert dynamic_rank(HAND_MATRIX, HAND_ARANK).order == [2, 0, 1]
        assert brute_force_rank(HAND_MATRIX, HAND_ARANK).order == [2, 0, 1]
        elapsed = time.monotonic() - started
        assert elapsed < 5.0
        report(2, f"{instances} random instances (M <= 6) + hand fixtures identical, {elapsed:.2f}s")


class TestCriterion3ClosedFormLosses:
    def test_uniform_cases_and_pairwise_reduction(self):
        two = uniform_matrix(2)
        loss2 = perceptual_comparison_loss(np.zeros(2), DynamicRanking([0, 1]), [two], two)
        assert loss2 == pytest.approx(math.log(2), abs=1e-9)

        three = uniform_matrix(3)
        loss3 = perceptual_comparison_loss(np.zeros(3), DynamicRanking([0, 1, 2]), [three], three)
        assert loss3 == pytest.approx(2 * math.log(3), abs=1e-9)

        rng = np.random.default_rng(1003)
        for _ in range(200):
            pi_theta = rng.uniform(-5, 0, size=2)
            pi_ref = rng.uniform(-5, 0, size=2)
            beta = float(rng.uniform(0.05, 2.0))
            listwise = plackett_luce_loss(pi_theta, pi_ref, [0, 1], beta)
            pairwise = dpo_pair_loss(pi_theta[0], pi_theta[1], pi_ref[0], pi_ref[1], beta)
            assert listwise == pytest.approx(pairwise, abs=1e-12)
        report(
            3,
            f"M=2 uniform = ln2 ({loss2:.9f}), M=3 uniform = 2ln3 ({loss3:.9f}), "
            "listwise==pairwise on 200 random pairs within 1e-12",
        )


class TestCriterion4GradientCorrectness:
    def test_analytic_gradient_vs_central_differences(self, synthetic_suite):
        started = time.monotonic()
        rng = np.random.default_rng(1004)
        h = 1e-5
        alpha = 0.05
        worst = 0.0
        checked = 0
        for item in synthetic_suite[:50]:
            policy = ToyPolicy.fresh(seed=int(rng.integers(1 << 30)), init_scale=5e-2)
            _, grad = loss_gradient(
                policy, item.record, item.perception, alpha, MODE_TOP_ANCHORED
            )
            rows, cols = np.nonzero(np.abs(grad) > 1e-6)
            pick = rng.choice(rows.size, size=min(30, rows.size), replace=False)
            for idx in pick:
                r, c = int(rows[idx]), int(cols[idx])
                original = policy.weights[r, c]
                policy.weights[r, c] = original + h
                up = record_loss(
                    record_scores(policy, item.record), item.perception, alpha, MODE_TOP_ANCHORED
                ).total
                policy.weights[r, c] = original - h
                down = record_loss(
                    record_scores(policy, item.record), item.perception, alpha, MODE_TOP_ANCHORED
                ).total
                policy.weights[r, c] = original
                fd = (up - down) / (2 * h)
                rel = abs(fd - grad[r, c]) / max(abs(fd), abs(grad[r, c]))
                worst = max(worst, rel)
                checked += 1
            # Rows no candidate context touches must be exactly zero.
            used = {256}
            for candidate in item.record.candidates:
                used.update(candidate.content.encode("utf-8")[:-1])
            untouched = sorted(set(range(257)) - used)
            assert not grad[untouched].any()
        elapsed = time.monotonic() - started
        assert worst < 1e-4
        assert elapsed < 30.0
        report(
            4,
            f"50 records, {checked} coordinates, max relative error {worst:.2e} "
            f"(< 1e-4), {elapsed:.1f}s",
        )


class TestCriterion5EndToEndAlignment:
    def test_training_recovers_the_fused_optimum(self, synthetic_suite):
        started = time.monotonic()
        embedder = HashedNgramEmbedder(dim=64)
        policy = ToyPolicy.fresh(seed=0)

        def hit_at_1():
            outcomes = []
            for item in synthetic_suite:
                record = item.record
                pick = int(np.argmax(record_scores(policy, record)))
                generated = record.candidates[pick].content
                sims = pool_similarities(generated, record, embedder=embedder)
                outcomes.append(
                    RecordOutcome(
                        record_id=record.question_id,
                        similarities=sims,
                        candidate_ids=tuple(c.id for c in record.candidates),
                        gold_ranking=record.gold_ranking,
                    )
                )
            return pref_hit(outcomes, 1)

        untrained = hit_at_1()
        epoch_means = []
        for _ in range(5):
            result = train(
                policy, list(synthetic_suite), epochs=1, alpha=0.05, mode=MODE_TOP_ANCHORED
            )
            epoch_means.append(float(result.totals.mean()))
        trained = hit_at_1()
        elapsed = time.monotonic() - started

        assert trained >= 0.9
        assert all(b <= a + 1e-12 for a, b in zip(epoch_means, epoch_means[1:]))
        assert elapsed < 120.0
        report(
            5,
            f"PrefHit@1 {untrained:.3f} -> {trained:.3f} (>= 0.9, chance 0.2); "
            f"epoch mean losses {['%.4f' % m for m in epoch_means]} non-increasing; "
            f"{elapsed:.1f}s",
        )


class TestCriterion6MetricSanity:
    def test_exact_values_on_perfect_fixture_and_monotonicity(self):
        # Pools built so similarity order matches gold order exactly.
        embedder = HashedNgramEmbedder(dim=128)
        outcomes = []
        for i in range(5):
            best = f"alpha beta gamma delta {i}"
            record = make_record(
                f"m{i}",
                question_text="which one?",
                candidates=(
                    make_candidate(0, content=best, votes=9, accepted=True),
                    make_candidate(1, content=f"alpha beta gamma zeta {i}"),
                    make_candidate(2, content=f"alpha beta theta iota {i}"),
                    make_candidate(3, content=f"kappa lambda mu nu {i}"),
                ),
                gold=(0, 1, 2, 3),
            )
            sims = pool_similarities(best, record, embedder=embedder)
            assert [int(x) for x in np.argsort(-np.asarray(sims), kind="stable")] == [0, 1, 2, 3]
            outcomes.append(
                RecordOutcome(
                    record_id=record.question_id,
                    similarities=sims,
                    candidate_ids=tuple(c.id for c in record.candidates),
                    gold_ranking=record.gold_ranking,
                )
            )
        assert pref_hit(outcomes, 1) == 1.0
        for k in (1, 2, 3):
            assert pref_recall(outcomes, k, NORMALIZER_BY_K) == 1.0

        rng = np.random.default_rng(1006)
        trials = 1000
        for _ in range(trials):
            size = int(rng.integers(1, 9))
            random_outcomes = [
                RecordOutcome(
                    record_id="x",
                    similarities=rng.uniform(0, 1, size=size),
                    candidate_ids=tuple(f"a{c}" for c in range(size)),
                    gold_ranking=tuple(int(v) for v in rng.permutation(size)),
                )
                for _ in range(int(rng.integers(1, 4)))
            ]
            values = [pref_hit(random_outcomes, k) for k in range(1, size + 2)]
            assert all(a <= b for a, b in zip(values, values[1:]))
        report(
            6,
            f"gold-copy fixture: PrefHit@1 = 1.0 and PrefRecall@k (by_k) = 1.0 exactly; "
            f"PrefHit monotone in k over {trials} random trials",
        )


class TestCriterion7ConsistencyEcho:
    def test_hit_tracks_falling_loss_across_checkpoints(self, synthetic_suite):
        suite = list(synthetic_suite)
        policy = ToyPolicy.fresh(seed=0)

        def checkpoint_stats():
            hits = 0
            losses = []
            for item in suite:
                pi = record_scores(policy, item.record)
                hits += int(int(np.argmax(pi)) == item.record.gold_ranking[0])
                losses.append(record_loss(pi, item.perception, 0.05, MODE_TOP_ANCHORED).total)
            return hits / len(suite), float(np.mean(losses))

        hit_values = []
        loss_values = []
        hit, loss = checkpoint_stats()
        hit_values.append(hit)
        loss_values.append(loss)
        for _ in range(8):
            train(policy, suite, epochs=1, alpha=0.05, mode=MODE_TOP_ANCHORED)
            hit, loss = checkpoint_stats()
            hit_values.append(hit)
            loss_values.append(loss)

        correlation = spearman_r(hit_values, [-v for v in loss_values])
        assert len(hit_values) >= 8
        assert correlation > 0.0
        report(
            7,
            f"{len(hit_values)} checkpoints, spearman(PrefHit@1, -loss) = {correlation:.3f} > 0",
        )


class TestCriterion8IngestionFidelity:
    def test_stage_counts_and_code_preservation(self, dump_plan_file):
        result = parse_dump(dump_plan_file)
        entries = list(result.entries)
        assert len(entries) == STAGE_COUNTS["parsed"]
        assert len(entries) == len(DUMP_PLAN)

        accepted = filter_accepted(entries)
        assert len(accepted) == STAGE_COUNTS["accepted"]
        assert len(accepted) == sum(1 for q in DUMP_PLAN if q.accepted)

        with_code = filter_code_block(accepted)
        assert len(with_code) == STAGE_COUNTS["code_block"]
        assert len(with_code) == sum(1 for q in DUMP_PLAN if q.accepted and q.code)

        cleaned = clean_entries(with_code)
        assert len(cleaned) == STAGE_COUNTS["code_block"]
        for record in cleaned:
            assert CODE_TEXT in record.question_text

        cfg = FilterConfig(min_pool_size=3, min_vote_gap=5)
        final, rejections = apply_quality_filters(cleaned, cfg)
        assert len(final) == STAGE_COUNTS["quality"]
        expected_final = sum(
            1
            for q in DUMP_PLAN
            if q.accepted and q.code and len(q.votes) >= 3 and max(q.votes) - min(q.votes) >= 5
        )
        assert len(final) == expected_final
        assert rejections["pool_too_small"] == 3
        assert rejections["vote_gap_too_small"] == 2

        # Byte-for-byte code preservation, checked off the pipeline too.
        assert clean_html("<pre><code>print(1 &lt; 2)\n\tx = [i for i in range(3)]</code></pre>") == CODE_TEXT
        report(
            8,
            f"stage counts {STAGE_COUNTS} exact on the 25-question fixture; "
            "code block text preserved byte-for-byte",
        )
