"""Gain functions, rank discounts, and distance-factor matrices."""

import itertools
import math
import re
from array import array
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefrank.apdf import (
    ApdfMatrix,
    DecayConfig,
    GainVector,
    decayed_popularity,
    induced_ranks,
    multi_apdf,
    popularity_gain,
    popularity_gains,
    rank_discount,
    semantic_gain,
    single_apdf,
)
from prefrank.errors import ValidationError

from conftest import random_pool_matrices


def expected_swap_costs(gains: list[float]) -> np.ndarray:
    """Brute force: |DCG(pi) - DCG(pi with i and j swapped)|, averaged over every
    order pi that sorts the gains descending (each order of each group of equal
    gains), where DCG = sum of gain / ln(rank + 1) over 1-indexed ranks.  Each
    term is an exact integer count of 1/unit, so the two DCGs cancel exactly and
    only the averaged cost is rounded; float terms below the normal range would
    round to a fixed step, and a cost there could cancel to 0."""
    size = len(gains)
    groups = [[c for c in range(size) if gains[c] == value] for value in sorted(set(gains), reverse=True)]
    orders = list(itertools.product(*(itertools.permutations(group) for group in groups)))
    logs = {r: Fraction(math.log(r + 1)) for r in range(1, size + 1)}
    unit = math.lcm(*(Fraction(g).denominator for g in gains)) * math.lcm(*(f.numerator for f in logs.values()))
    term = {(c, r): int(Fraction(gains[c]) / log * unit) for c in range(size) for r, log in logs.items()}
    total = np.zeros((size, size), dtype=object)
    for parts in orders:
        rank = {c: r for r, c in enumerate(itertools.chain(*parts), start=1)}

        def dcg(ranks):
            return sum(term[c, ranks[c]] for c in range(size))

        for i, j in itertools.combinations(range(size), 2):
            cost = abs(dcg(rank) - dcg({**rank, i: rank[j], j: rank[i]}))
            total[i, j] += cost
            total[j, i] += cost
    return (total / Fraction(unit * len(orders))).astype(float)


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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"reference_time": reference.replace(tzinfo=None)}, "reference_time must be a timezone-aware"),
            ({"reference_time": "2024-06-01T00:00:00+00:00"}, "reference_time must be a timezone-aware"),
            ({"reference_time": reference, "half_life": 5}, "half_life must be a positive timedelta"),
        ],
        ids=["naive", "string", "number"],
    )
    def test_naive_reference_or_bare_number_half_life_rejected_at_construction(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            DecayConfig(**kwargs)


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

    def test_votes_and_times_must_pair_up(self):
        with pytest.raises(ValidationError, match="votes and created_ats must have equal length"):
            popularity_gains([1, 2], [datetime(2024, 1, 1, tzinfo=timezone.utc)], None)


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

    def test_equal_gains_share_the_mean_discount(self):
        matrix = single_apdf(GainVector("x", np.array([1.0, 0.0, 0.0])))
        shared = (rank_discount(2) + rank_discount(3)) / 2
        assert matrix.values[0, 1] == matrix.values[0, 2] == rank_discount(1) - shared

    # A small value set, so draws tie often; 0.0 and -0.0 are one gain.
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_permuting_the_gains_permutes_the_matrix(self, data):
        values = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0])
        gains = np.array(data.draw(st.lists(values, min_size=1, max_size=10)))
        sigma = data.draw(st.permutations(range(gains.size)))
        matrix = single_apdf(GainVector("x", gains)).values
        permuted = single_apdf(GainVector("x", gains[sigma])).values
        assert permuted.tobytes() == matrix[np.ix_(sigma, sigma)].tobytes()

    # Half the draws from a small value set, so that ties occur.
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(min_value=0, max_value=4),
            min_size=1,
            max_size=7,
        )
    )
    @example([1.0, 0.5, 1.0, 0.0, 0.5, 1.0, 2.0])
    @example([0.5] * 7)
    def test_entries_are_lambdaranks_expected_swap_costs(self, gains):
        matrix = single_apdf(GainVector("x", np.array(gains))).values
        largest_term = max(gains) / math.log(2)
        assert np.abs(matrix - expected_swap_costs(gains)).max() <= 1e-14 * largest_term

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

    @settings(deadline=None)
    @given(data=st.data())
    def test_fused_rows_are_the_product_of_the_singles_rows(self, data):
        # Bit for bit, so the sign of every zero must match too.
        gains = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0]) | st.floats(min_value=0.0, max_value=4.0)
        size = data.draw(st.integers(1, 12))
        a, b = (single_apdf(GainVector(name, data.draw(st.lists(gains, min_size=size, max_size=size))))
                for name in "ab")
        rows = zip(multi_apdf([a, b]).upper_rows(), a.upper_rows(), b.upper_rows(), strict=True)
        for fused, row_a, row_b in rows:
            assert array("d", fused).tobytes() == array("d", map(mul, row_a, row_b)).tobytes()

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

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.zeros((2, 3)), "APDF matrix must be square and non-empty"),
            (np.zeros((0, 0)), "APDF matrix must be square and non-empty"),
            (np.zeros(3), "APDF matrix must be square and non-empty"),
            (np.array([[0.0, np.inf], [np.inf, 0.0]]), "x: matrix contains non-finite values"),
            (np.array([[0.0, np.nan], [np.nan, 0.0]]), "x: matrix contains non-finite values"),
        ],
        ids=["not-square", "empty", "one-dimensional", "infinite", "nan"],
    )
    def test_a_matrix_must_be_square_non_empty_and_finite(self, values, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            ApdfMatrix("x", values)

    def test_a_held_matrix_whose_entries_overflow_is_rejected(self):
        # (1.79e308 - 0) x (1/ln 2 - 1/ln 11) overflows, so the bound is infinite and every entry
        # is checked; the check, not numpy's overflow warning, reports it.
        gains = GainVector("x", [1.79e308, *(k * 1e-300 for k in range(9))])
        with pytest.raises(ValidationError, match="x: matrix contains non-finite"):
            single_apdf(gains)

    @pytest.mark.parametrize("gains", [[], 0.5, ["a"], np.ones((2, 2))], ids=["empty", "scalar", "text", "2-D"])
    def test_gain_vector_must_be_a_non_empty_vector(self, gains):
        with pytest.raises(ValidationError, match="gains must be a non-empty 1-D vector"):
            GainVector("x", gains)

    def test_gain_vector_rejects_negative_and_nan(self):
        with pytest.raises(ValidationError):
            GainVector("x", np.array([0.1, -0.2]))
        with pytest.raises(ValidationError):
            GainVector("x", np.array([0.1, float("nan")]))
