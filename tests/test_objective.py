"""Closed-form checks and properties of the loss functions."""

import math

import numpy as np
import pytest

from prefrank.apdf import ApdfMatrix
from prefrank.errors import DegenerateInputError, ValidationError
from prefrank.objective import (
    MODE_LITERAL,
    MODE_TOP_ANCHORED,
    _penalty_weights,
    _reward_weights,
    comparison_loss_and_score_grad,
    comparison_round_positives,
    dpo_pair_loss,
    penalty_weights,
    perceptual_alignment_loss,
    perceptual_comparison_loss,
    plackett_luce_loss,
    reward_weight,
    total_loss,
)
from prefrank.ranking import DynamicRanking, dynamic_rank

from conftest import quantized_pool_matrices, random_pool_matrices, random_semantic_rank


def uniform_matrix(size):
    """All off-diagonal entries 1: every reward and penalty weight is 1."""
    return ApdfMatrix("uniform", np.ones((size, size)) - np.eye(size))


def reference_round_weights(singles, multi, d_r, b):
    """Round b's reward and penalties, computed one round at a time."""
    reward = 1.0
    for matrix in singles:
        reward *= float(matrix.row(b).max())
    values = np.sort(np.delete(multi.row(b), b))
    negatives = [i for i in d_r.order if i != b]
    return reward, {candidate: float(value) for candidate, value in zip(negatives, values)}


def reference_comparison(pi_s, d_r, singles, multi, mode=MODE_LITERAL):
    """The round-by-round comparison loss and score gradient, kept as the
    reference the all-rounds-at-once version is checked against."""
    grad = np.zeros(multi.size)
    loss = 0.0
    for m, b in enumerate(comparison_round_positives(d_r, mode)):
        reward, penalties = reference_round_weights(singles, multi, d_r, b)
        if not math.isfinite(reward):
            raise ValidationError(f"reward weight must be finite and >= 0, got {reward}")
        if reward == 0.0:
            raise DegenerateInputError(
                f"round {m}: reward weight for candidate {b} is zero (all-zero matrix row)"
            )
        included = [b]
        log_scores = [pi_s[b] + math.log(reward)]
        for candidate, penalty in penalties.items():
            if penalty > 0.0:
                included.append(candidate)
                log_scores.append(pi_s[candidate] + math.log(penalty))
        log_scores = np.array(log_scores)
        peak = float(np.max(log_scores))
        lse = peak + math.log(float(np.sum(np.exp(log_scores - peak))))
        loss += lse - float(log_scores[0])
        for candidate, p in zip(included, np.exp(log_scores - lse)):
            grad[candidate] += p
        grad[b] -= 1.0
    return loss, grad


class TestPerceptualAlignmentLoss:
    def test_certain_tokens_give_zero(self):
        assert perceptual_alignment_loss(np.zeros(5)) == 0.0

    def test_uniform_vocab(self):
        vocab = 50
        logprobs = np.full(8, math.log(1.0 / vocab))
        assert perceptual_alignment_loss(logprobs) == pytest.approx(math.log(vocab), abs=1e-12)

    def test_mean(self):
        assert perceptual_alignment_loss(np.array([-1.0, -3.0])) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            perceptual_alignment_loss(np.array([]))


class TestRewardWeight:
    def test_single_candidate_row_is_zero(self):
        assert reward_weight([ApdfMatrix("a", np.zeros((1, 1)))], 0) == 0.0

    def test_row_max(self):
        matrix = ApdfMatrix(
            "a", np.array([[0.0, 0.3, 0.1], [0.3, 0.0, 0.05], [0.1, 0.05, 0.0]])
        )
        assert reward_weight([matrix], 0) == pytest.approx(0.3)

    def test_product_across_attributes(self):
        a = ApdfMatrix("a", np.array([[0.0, 0.3], [0.3, 0.0]]))
        b = ApdfMatrix("b", np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert reward_weight([a, b], 0) == pytest.approx(0.15, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            reward_weight([uniform_matrix(3)], 3)


class TestPenaltyWeights:
    def test_two_candidates(self):
        matrix = ApdfMatrix("m", np.array([[0.0, 0.7], [0.7, 0.0]]))
        weights = penalty_weights(matrix, DynamicRanking([0, 1]), 0)
        assert weights == {1: 0.7}

    def test_hand_assignment(self):
        # row b=1 is [0.4, 0, 0.1]; dynamic order [2, 1, 0] puts
        # candidate 2 first among negatives, so it takes the smaller 0.1.
        values = np.array([[0.0, 0.4, 0.2], [0.4, 0.0, 0.1], [0.2, 0.1, 0.0]])
        matrix = ApdfMatrix("m", values)
        weights = penalty_weights(matrix, DynamicRanking([2, 1, 0]), 1)
        assert weights == {2: pytest.approx(0.1), 0: pytest.approx(0.4)}

    def test_zero_matrix_gives_zero_penalties(self):
        matrix = ApdfMatrix("m", np.zeros((3, 3)))
        weights = penalty_weights(matrix, DynamicRanking([0, 1, 2]), 0)
        assert weights == {1: 0.0, 2: 0.0}

    def test_covers_exactly_the_negatives(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            size = int(rng.integers(2, 8))
            _, _, multi = random_pool_matrices(rng, size=size)
            order = list(rng.permutation(size))
            b = int(rng.integers(size))
            weights = penalty_weights(multi, DynamicRanking(order), b)
            assert set(weights) == set(range(size)) - {b}

    def test_better_rank_smaller_penalty(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            size = int(rng.integers(3, 8))
            _, _, multi = random_pool_matrices(rng, size=size)
            order = list(rng.permutation(size))
            b = int(rng.integers(size))
            weights = penalty_weights(multi, DynamicRanking(order), b)
            negatives = [i for i in order if i != b]
            values = [weights[i] for i in negatives]
            assert values == sorted(values)


class TestComparisonRounds:
    def test_literal_skips_top(self):
        d_r = DynamicRanking([2, 0, 1])
        assert comparison_round_positives(d_r, MODE_LITERAL) == [0, 1]

    def test_top_anchored_skips_last(self):
        d_r = DynamicRanking([2, 0, 1])
        assert comparison_round_positives(d_r, MODE_TOP_ANCHORED) == [2, 0]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            comparison_round_positives(DynamicRanking([0, 1]), "both")


class TestPerceptualComparisonLoss:
    def test_two_candidates_uniform(self):
        matrix = uniform_matrix(2)
        loss = perceptual_comparison_loss(
            np.zeros(2), DynamicRanking([0, 1]), [matrix], matrix
        )
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_three_candidates_uniform(self):
        matrix = uniform_matrix(3)
        for mode in (MODE_LITERAL, MODE_TOP_ANCHORED):
            loss = perceptual_comparison_loss(
                np.zeros(3), DynamicRanking([0, 1, 2]), [matrix], matrix, mode
            )
            assert loss == pytest.approx(2 * math.log(3), abs=1e-12)

    def test_huge_reward_drives_loss_to_zero(self):
        size = 3
        reward_scaled = ApdfMatrix("big", 1e6 * (np.ones((size, size)) - np.eye(size)))
        penalty = uniform_matrix(size)
        loss = perceptual_comparison_loss(
            np.zeros(size), DynamicRanking([0, 1, 2]), [reward_scaled], penalty
        )
        assert 0.0 < loss < 1e-5

    def test_zero_reward_weight_is_an_error_naming_the_round(self):
        zero = ApdfMatrix("zero", np.zeros((2, 2)))
        with pytest.raises(DegenerateInputError, match="round 0"):
            perceptual_comparison_loss(np.zeros(2), DynamicRanking([0, 1]), [zero], zero)

    def test_nan_scores_rejected(self):
        matrix = uniform_matrix(2)
        with pytest.raises(ValidationError):
            perceptual_comparison_loss(
                np.array([0.0, float("nan")]), DynamicRanking([0, 1]), [matrix], matrix
            )

    def test_single_candidate_rejected(self):
        matrix = ApdfMatrix("m", np.zeros((1, 1)))
        with pytest.raises(ValidationError):
            perceptual_comparison_loss(np.zeros(1), DynamicRanking([0]), [matrix], matrix)

    def test_shift_invariance_for_any_weights(self):
        # exp(pi + c) scales numerator and denominator alike, so a uniform
        # shift cancels regardless of how unequal the weights are.
        rng = np.random.default_rng(23)
        for _ in range(50):
            size = int(rng.integers(2, 7))
            _, singles, multi = random_pool_matrices(rng, size=size)
            arank = random_semantic_rank(rng, size)
            d_r = dynamic_rank(multi, arank)
            pi = rng.uniform(-4.0, 0.0, size=size)
            shift = float(rng.uniform(-3.0, 3.0))
            base = perceptual_comparison_loss(pi, d_r, singles, multi)
            shifted = perceptual_comparison_loss(pi + shift, d_r, singles, multi)
            assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_monotone_in_positive_and_negative_scores(self):
        matrix = uniform_matrix(2)
        d_r = DynamicRanking([0, 1])
        base = perceptual_comparison_loss(np.array([0.0, 0.0]), d_r, [matrix], matrix)
        # Candidate 1 is the literal round's positive.
        raised_positive = perceptual_comparison_loss(np.array([0.0, 0.5]), d_r, [matrix], matrix)
        raised_negative = perceptual_comparison_loss(np.array([0.5, 0.0]), d_r, [matrix], matrix)
        assert raised_positive < base < raised_negative

    def test_nonnegative_and_finite_on_random_inputs(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            size = int(rng.integers(2, 8))
            _, singles, multi = random_pool_matrices(rng, size=size)
            d_r = dynamic_rank(multi, random_semantic_rank(rng, size))
            pi = rng.uniform(-6.0, 0.0, size=size)
            for mode in (MODE_LITERAL, MODE_TOP_ANCHORED):
                loss = perceptual_comparison_loss(pi, d_r, singles, multi, mode)
                assert math.isfinite(loss)
                assert loss >= 0.0

    def test_score_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(25)
        h = 1e-6
        for _ in range(25):
            size = int(rng.integers(2, 7))
            _, singles, multi = random_pool_matrices(rng, size=size)
            d_r = dynamic_rank(multi, random_semantic_rank(rng, size))
            pi = rng.uniform(-4.0, 0.0, size=size)
            loss, grad = comparison_loss_and_score_grad(pi, d_r, singles, multi)
            assert loss == pytest.approx(
                perceptual_comparison_loss(pi, d_r, singles, multi), abs=1e-12
            )
            for i in range(size):
                up = pi.copy()
                up[i] += h
                down = pi.copy()
                down[i] -= h
                fd = (
                    perceptual_comparison_loss(up, d_r, singles, multi)
                    - perceptual_comparison_loss(down, d_r, singles, multi)
                ) / (2 * h)
                assert grad[i] == pytest.approx(fd, abs=1e-6)


class TestReferenceEquivalence:
    """All rounds at once against the round-by-round reference loop."""

    def matches_reference(self, pi, d_r, singles, multi, mode):
        """Assert both paths agree; True if they computed, False if both raised."""
        try:
            expected_loss, expected_grad = reference_comparison(pi, d_r, singles, multi, mode)
        except DegenerateInputError as exc:
            with pytest.raises(DegenerateInputError) as raised:
                comparison_loss_and_score_grad(pi, d_r, singles, multi, mode)
            assert str(raised.value) == str(exc)
            return False
        loss, grad = comparison_loss_and_score_grad(pi, d_r, singles, multi, mode)
        assert abs(loss - expected_loss) <= 1e-12 * abs(expected_loss)
        np.testing.assert_allclose(
            grad, expected_grad, rtol=1e-12, atol=1e-12 * np.abs(expected_grad).max()
        )
        return True

    def test_random_pools(self):
        rng = np.random.default_rng(41)
        for size in list(range(2, 17)) + [24, 32, 48, 64]:
            for _ in range(3):
                _, singles, multi = random_pool_matrices(rng, size=size)
                d_r = dynamic_rank(multi, random_semantic_rank(rng, size))
                pi = rng.uniform(-6.0, 0.0, size=size)
                for mode in (MODE_LITERAL, MODE_TOP_ANCHORED):
                    assert self.matches_reference(pi, d_r, singles, multi, mode)

    def test_tied_gains_and_zero_penalties(self):
        rng = np.random.default_rng(42)
        compared = zero_penalties = 0
        for _ in range(120):
            size = int(rng.integers(2, 65)) if rng.random() < 0.25 else int(rng.integers(2, 9))
            singles, multi = quantized_pool_matrices(rng, size)
            d_r = dynamic_rank(multi, random_semantic_rank(rng, size))
            pi = rng.uniform(-6.0, 0.0, size=size)
            for mode in (MODE_LITERAL, MODE_TOP_ANCHORED):
                if self.matches_reference(pi, d_r, singles, multi, mode):
                    compared += 1
                    zero_penalties += int(np.sum(multi.values == 0.0) > size)
        assert compared > 50
        assert zero_penalties > 25

    def test_degenerate_round_matches_reference(self):
        # A single matrix with one all-zero row: the round whose positive is
        # that candidate is degenerate; in literal mode the top is never one.
        rng = np.random.default_rng(43)
        raised = 0
        for _ in range(60):
            size = int(rng.integers(2, 12))
            _, singles, multi = random_pool_matrices(rng, size=size)
            values = singles[1].values.copy()
            k = int(rng.integers(size))
            values[k, :] = values[:, k] = 0.0
            singles = [singles[0], ApdfMatrix("zeroed", values)]
            d_r = DynamicRanking(list(rng.permutation(size)))
            pi = rng.uniform(-4.0, 0.0, size=size)
            for mode in (MODE_LITERAL, MODE_TOP_ANCHORED):
                raised += not self.matches_reference(pi, d_r, singles, multi, mode)
        assert raised > 60

    def test_overflowing_reward_is_validation_error(self):
        big = ApdfMatrix("big", 1e200 * (np.ones((3, 3)) - np.eye(3)))
        d_r = DynamicRanking([0, 1, 2])
        with pytest.raises(ValidationError, match="reward weight must be finite"):
            comparison_loss_and_score_grad(np.zeros(3), d_r, [big, big], uniform_matrix(3))
        with pytest.raises(ValidationError, match="reward weight must be finite"):
            reference_comparison(np.zeros(3), d_r, [big, big], uniform_matrix(3))

    def test_public_weights_are_the_rows_the_loss_uses(self):
        rng = np.random.default_rng(44)
        for _ in range(40):
            size = int(rng.integers(2, 20))
            if rng.random() < 0.5:
                _, singles, multi = random_pool_matrices(rng, size=size)
            else:
                singles, multi = quantized_pool_matrices(rng, size)
            d_r = DynamicRanking(list(rng.permutation(size)))
            for mode in (MODE_LITERAL, MODE_TOP_ANCHORED):
                positives = np.array(comparison_round_positives(d_r, mode))
                rewards = _reward_weights(singles, positives)
                negatives, penalties = _penalty_weights(multi, d_r, positives)
                for m, b in enumerate(positives.tolist()):
                    expected_reward, expected_penalties = reference_round_weights(
                        singles, multi, d_r, b
                    )
                    row = dict(zip(negatives[m].tolist(), penalties[m].tolist()))
                    assert reward_weight(singles, b) == rewards[m] == expected_reward
                    assert list(penalty_weights(multi, d_r, b).items()) == list(row.items())
                    assert list(row.items()) == list(expected_penalties.items())


class TestDiscountScaleInvariance:
    """A rank-discount base other than e scales every single matrix by
    c = ln(base) and the fused matrix by c**2; neither the dynamic ranking
    nor the comparison loss may see it.  That is why the base is fixed."""

    @staticmethod
    def loss_or_error(pi_s, d_r, singles, multi, mode):
        try:
            return comparison_loss_and_score_grad(pi_s, d_r, singles, multi, mode)
        except DegenerateInputError as exc:
            return str(exc)

    @pytest.mark.parametrize("c", [0.25, 2.0, 8.0, math.log(2), math.log(10)])
    def test_ranking_and_loss_ignore_the_scale(self, c):
        rng = np.random.default_rng(45)
        for trial in range(60):
            size = int(rng.integers(2, 40 if trial % 3 else 5))  # small pools can be degenerate
            if trial % 2:
                _, singles, multi = random_pool_matrices(rng, size=size)
            else:
                singles, multi = quantized_pool_matrices(rng, size)
            arank = random_semantic_rank(rng, size)
            pi_s = rng.normal(scale=0.5, size=size)
            scaled = [ApdfMatrix(m.attribute_name, c * m.values) for m in singles]
            scaled_multi = ApdfMatrix(multi.attribute_name, c * c * multi.values)
            d_r = dynamic_rank(multi, arank)
            assert dynamic_rank(scaled_multi, arank).order == d_r.order
            for mode in (MODE_LITERAL, MODE_TOP_ANCHORED):
                positives = np.array(comparison_round_positives(d_r, mode))
                if math.log2(c).is_integer():
                    # Every weight of every round scales by c**2 exactly.
                    rewards = _reward_weights(singles, positives)
                    assert np.array_equal(_reward_weights(scaled, positives), c * c * rewards)
                    penalties = _penalty_weights(multi, d_r, positives)[1]
                    scaled_penalties = _penalty_weights(scaled_multi, d_r, positives)[1]
                    assert np.array_equal(scaled_penalties, c * c * penalties)
                got = self.loss_or_error(pi_s, d_r, scaled, scaled_multi, mode)
                expected = self.loss_or_error(pi_s, d_r, singles, multi, mode)
                if isinstance(expected, str):
                    assert got == expected
                    continue
                assert got[0] == pytest.approx(expected[0], rel=1e-12)
                assert np.abs(got[1] - expected[1]).max() <= 1e-12 * np.abs(expected[1]).max()


class TestTotalLoss:
    def test_alpha_zero(self):
        breakdown = total_loss(1.7, 99.0, alpha=0.0)
        assert breakdown.total == 1.7

    def test_default_alpha_example(self):
        breakdown = total_loss(2.0, 3.0)
        assert breakdown.alpha == 0.05
        assert breakdown.total == pytest.approx(2.15, abs=1e-15)

    def test_zero_alignment_component(self):
        for alpha in (0.0, 0.05, 1.0, 7.5):
            assert total_loss(2.5, 0.0, alpha).total == 2.5

    def test_linear_in_alpha(self):
        l_pc, l_pa = 1.3, 0.8
        t0 = total_loss(l_pc, l_pa, 0.0).total
        t1 = total_loss(l_pc, l_pa, 1.0).total
        for alpha in (0.25, 0.5, 2.0):
            expected = t0 + alpha * (t1 - t0)
            assert total_loss(l_pc, l_pa, alpha).total == pytest.approx(expected, rel=1e-15)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError):
            total_loss(1.0, 1.0, alpha=-0.1)


class TestDpoPairLoss:
    def test_equal_ratios(self):
        assert dpo_pair_loss(-1.0, -1.0, -1.0, -1.0, beta=0.3) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_unit_margin(self):
        # log-ratio difference of 1 at beta=1: -log(sigmoid(1))
        assert dpo_pair_loss(-1.0, -2.0, -1.0, -1.0, beta=1.0) == pytest.approx(
            0.31326168751822286, abs=1e-12
        )

    def test_large_margin_vanishes(self):
        beta = 0.1
        margin = 40.0 / beta
        assert dpo_pair_loss(0.0, -margin, 0.0, 0.0, beta=beta) < 1e-6

    def test_positive_and_finite(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            w, l, rw, rl = rng.uniform(-10, 0, size=4)
            loss = dpo_pair_loss(w, l, rw, rl, beta=float(rng.uniform(0.01, 2)))
            assert loss > 0.0
            assert math.isfinite(loss)

    def test_bad_beta_rejected(self):
        with pytest.raises(ValidationError):
            dpo_pair_loss(0, 0, 0, 0, beta=0.0)


class TestPlackettLuceLoss:
    def test_pairwise_reduction(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            pi_theta = rng.uniform(-5, 0, size=2)
            pi_ref = rng.uniform(-5, 0, size=2)
            beta = float(rng.uniform(0.05, 2.0))
            listwise = plackett_luce_loss(pi_theta, pi_ref, [0, 1], beta)
            pairwise = dpo_pair_loss(pi_theta[0], pi_theta[1], pi_ref[0], pi_ref[1], beta)
            assert listwise == pytest.approx(pairwise, abs=1e-12)

    def test_three_equal_ratios(self):
        loss = plackett_luce_loss(np.zeros(3), np.zeros(3), [0, 1, 2], beta=1.0)
        assert loss == pytest.approx(math.log(3) + math.log(2), abs=1e-12)

    def test_two_equal_ratios(self):
        loss = plackett_luce_loss(np.zeros(2), np.zeros(2), [1, 0], beta=0.7)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            plackett_luce_loss(np.zeros(3), np.zeros(2), [0, 1, 2], 1.0)

    def test_bad_ranking_rejected(self):
        with pytest.raises(ValidationError):
            plackett_luce_loss(np.zeros(3), np.zeros(3), [0, 0, 2], 1.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            size = int(rng.integers(2, 9))
            loss = plackett_luce_loss(
                rng.uniform(-5, 0, size=size),
                rng.uniform(-5, 0, size=size),
                list(rng.permutation(size)),
                beta=float(rng.uniform(0.05, 2.0)),
            )
            assert loss >= 0.0
