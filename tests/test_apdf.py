"""Gain functions, rank discounts, and distance-factor matrices."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefrank.apdf import (
    ApdfMatrix,
    DecayConfig,
    GainVector,
    decayed_popularity,
    induced_ranks,
    multi_apdf,
    popularity_gain,
    rank_discount,
    semantic_gain,
    single_apdf,
)
from prefrank.errors import ValidationError

from conftest import random_pool_matrices


class TestRankDiscount:
    def test_rank_one(self):
        assert rank_discount(1) == pytest.approx(1.4426950408889634, abs=1e-12)

    def test_rank_two(self):
        assert rank_discount(2) == pytest.approx(0.9102392266268373, abs=1e-12)

    def test_strictly_decreasing_and_positive(self):
        values = [rank_discount(r) for r in range(1, 50)]
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rank_below_one_rejected(self):
        with pytest.raises(ValidationError):
            rank_discount(0)


class TestSemanticGain:
    def test_endpoints(self):
        assert semantic_gain(1.0) == 1.0
        assert semantic_gain(0.0) == 0.5
        assert semantic_gain(-1.0) == 0.25

    def test_half(self):
        assert semantic_gain(0.5) == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(0)
        for phi in rng.uniform(-1, 1, size=500):
            gain = semantic_gain(float(phi))
            assert 0.25 <= gain <= 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            semantic_gain(1.5)
        with pytest.raises(ValidationError):
            semantic_gain(float("nan"))


class TestDecayedPopularity:
    reference = datetime(2024, 6, 1, tzinfo=timezone.utc)

    def cfg(self, **kwargs):
        return DecayConfig(reference_time=self.reference, **kwargs)

    def test_zero_age(self):
        assert decayed_popularity(40, self.reference, self.cfg()) == 40.0

    def test_half_life(self):
        created = self.reference - timedelta(days=365)
        cfg = self.cfg(half_life=timedelta(days=365))
        assert decayed_popularity(40, created, cfg) == pytest.approx(20.0, rel=1e-12)

    def test_zero_votes(self):
        assert decayed_popularity(0, self.reference - timedelta(days=999), self.cfg()) == 0.0

    def test_future_creation_clamps(self):
        created = self.reference + timedelta(days=10)
        assert decayed_popularity(7, created, self.cfg()) == 7.0

    def test_disabled_passthrough(self):
        assert decayed_popularity(9, self.reference - timedelta(days=10000), None) == 9.0

    def test_negative_votes_rejected(self):
        with pytest.raises(ValidationError):
            decayed_popularity(-1, self.reference, self.cfg())

    def test_bad_half_life_rejected(self):
        with pytest.raises(ValidationError):
            DecayConfig(reference_time=self.reference, half_life=timedelta(0))


class TestPopularityGain:
    def test_values(self):
        assert popularity_gain(0.0) == 0.0
        assert popularity_gain(9.0) == pytest.approx(1.0, abs=1e-12)
        assert popularity_gain(99.0) == pytest.approx(2.0, abs=1e-12)

    def test_monotone(self):
        rng = np.random.default_rng(1)
        values = np.sort(rng.uniform(0, 1e6, size=200))
        gains = [popularity_gain(v) for v in values]
        assert all(a <= b for a, b in zip(gains, gains[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            popularity_gain(-0.5)


class TestInducedRanks:
    def test_example(self):
        ranks = induced_ranks(GainVector("x", np.array([0.9, 0.1, 0.5])))
        assert ranks.tolist() == [1, 3, 2]

    def test_ties_by_index(self):
        ranks = induced_ranks(GainVector("x", np.array([0.5, 0.5, 0.5, 0.5])))
        assert ranks.tolist() == [1, 2, 3, 4]

    def test_single(self):
        assert induced_ranks(GainVector("x", np.array([3.0]))).tolist() == [1]

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=12))
    def test_always_a_permutation(self, gains):
        ranks = induced_ranks(GainVector("x", np.array(gains)))
        assert sorted(ranks.tolist()) == list(range(1, len(gains) + 1))


class TestSingleApdf:
    def test_single_candidate(self):
        matrix = single_apdf(GainVector("x", np.array([2.0])))
        assert matrix.values.tolist() == [[0.0]]

    def test_equal_gains_zero_matrix(self):
        matrix = single_apdf(GainVector("x", np.array([0.7, 0.7, 0.7])))
        assert not matrix.values.any()

    def test_two_candidate_value(self):
        matrix = single_apdf(GainVector("x", np.array([1.0, 0.5])))
        assert matrix.values[0, 1] == pytest.approx(0.26622790713106304, abs=1e-12)
        assert matrix.values[1, 0] == matrix.values[0, 1]

    def test_positive_iff_gains_differ(self):
        gains = np.array([0.3, 0.3, 0.9, 0.1])
        matrix = single_apdf(GainVector("x", gains))
        for i in range(4):
            for j in range(4):
                if gains[i] == gains[j]:
                    assert matrix.values[i, j] == 0.0
                else:
                    assert matrix.values[i, j] > 0.0

    @settings(max_examples=100)
    @given(st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=10))
    def test_invariants_hold_for_any_base(self, gains):
        matrix = single_apdf(GainVector("x", np.array(gains)))
        values = matrix.values
        assert np.abs(values - values.T).max() <= 1e-12
        assert not np.diagonal(values).any()
        assert np.all(values >= 0)


class TestMultiApdf:
    def test_identity_on_single_input(self):
        _, singles, _ = random_pool_matrices(np.random.default_rng(2), size=5)
        fused = multi_apdf(singles[:1])
        assert np.array_equal(fused.values, singles[0].values)

    def test_zero_matrix_absorbs(self):
        _, singles, _ = random_pool_matrices(np.random.default_rng(3), size=4)
        zero = ApdfMatrix("zero", np.zeros((4, 4)))
        assert not multi_apdf([singles[0], zero]).values.any()

    def test_two_matrix_example(self):
        a = ApdfMatrix("a", np.array([[0.0, 0.26622790713106304], [0.26622790713106304, 0.0]]))
        b = ApdfMatrix("b", np.array([[0.0, 0.3], [0.3, 0.0]]))
        fused = multi_apdf([a, b])
        assert fused.values[0, 1] == pytest.approx(0.07986837213931891, abs=1e-12)

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            size = int(rng.integers(2, 8))
            _, singles, _ = random_pool_matrices(rng, size=size, attributes=3)
            a, b, c = singles
            assert np.allclose(multi_apdf([a, b]).values, multi_apdf([b, a]).values, atol=0)
            left = multi_apdf([multi_apdf([a, b]), c]).values
            right = multi_apdf([a, multi_apdf([b, c])]).values
            assert np.allclose(left, right, rtol=1e-15, atol=1e-300)

    def test_shape_mismatch_rejected(self):
        a = ApdfMatrix("a", np.zeros((2, 2)))
        b = ApdfMatrix("b", np.zeros((3, 3)))
        with pytest.raises(ValidationError):
            multi_apdf([a, b])

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            multi_apdf([])


class TestMatrixValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            ApdfMatrix("x", np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            ApdfMatrix("x", np.array([[0.1, 0.0], [0.0, 0.0]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            ApdfMatrix("x", np.array([[0.0, -0.5], [-0.5, 0.0]]))

    def test_gain_vector_rejects_negative_and_nan(self):
        with pytest.raises(ValidationError):
            GainVector("x", np.array([0.1, -0.2]))
        with pytest.raises(ValidationError):
            GainVector("x", np.array([0.1, float("nan")]))
