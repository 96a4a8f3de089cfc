"""Dynamic ranking against its brute-force oracle."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefrank.apdf import ApdfMatrix, GainVector, induced_ranks, multi_apdf, single_apdf
from prefrank.errors import ValidationError
from prefrank.evaluation import top_k_matches
from prefrank.ranking import (
    DynamicRanking,
    SemanticRank,
    brute_force_rank,
    dynamic_rank,
    semantic_rank,
)

from conftest import quantized_pool_matrices, random_pool_matrices, random_semantic_rank


def reference_descending_order(values: list[float]) -> list[int]:
    """The Python sort the rankings used before one stable argsort."""
    return sorted(range(len(values)), key=lambda i: (-values[i], i))


# Small value sets, so draws tie often; 0.0 and -0.0 compare equal.
GAIN_VALUES = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0])
COSINE_VALUES = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])


class TestDescendingOrderReference:
    @settings(max_examples=200, deadline=None)
    @given(
        gains=st.lists(GAIN_VALUES, min_size=1, max_size=10),
        cosines=st.lists(COSINE_VALUES, min_size=1, max_size=10),
    )
    def test_rankings_match_the_sorted_reference(self, gains, cosines):
        order = reference_descending_order(gains)
        expected = [order.index(i) + 1 for i in range(len(gains))]
        assert induced_ranks(GainVector("x", np.array(gains))).tolist() == expected

        # Ids that sort like the indices make the id tie-break the index one.
        ids = [f"a{c:02d}" for c in range(len(cosines))]
        order = reference_descending_order(cosines)
        expected = [order.index(i) for i in range(len(cosines))]
        assert semantic_rank(np.array(cosines), ids).rank_of.tolist() == expected
        for k in range(1, len(cosines) + 2):
            assert top_k_matches(np.array(cosines), ids, k) == order[:k]


class TestSemanticRank:
    def test_example(self):
        assert semantic_rank(np.array([0.2, 0.9, 0.5]), ["a", "b", "c"]).rank_of.tolist() == [2, 0, 1]

    def test_all_equal_ties_by_id(self):
        assert semantic_rank([0.4, 0.4, 0.4, 0.4], ["a", "b", "c", "d"]).rank_of.tolist() == [0, 1, 2, 3]
        assert semantic_rank([0.4, 0.4, 0.4, 0.4], ["d", "a", "c", "b"]).rank_of.tolist() == [3, 0, 2, 1]

    @settings(max_examples=200, deadline=None)
    @given(
        cosines=st.lists(COSINE_VALUES | st.floats(-1.0, 1.0), min_size=1, max_size=10),
        data=st.data(),
    )
    def test_ties_go_by_id_whatever_the_position(self, cosines, data):
        # Candidate sigma[p] moves to position p with its id; its rank must not change.
        ids = [f"c{c}" for c in range(len(cosines))]
        sigma = data.draw(st.permutations(range(len(cosines))))
        ranks = semantic_rank(cosines, ids).rank_of
        moved = semantic_rank([cosines[s] for s in sigma], [ids[s] for s in sigma]).rank_of
        assert moved.tolist() == [ranks[s] for s in sigma]

    def test_single_candidate(self):
        assert semantic_rank(np.array([0.3]), ["a"]).rank_of.tolist() == [0]

    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError):
            semantic_rank(np.array([]), [])

    def test_one_id_per_candidate(self):
        with pytest.raises(ValidationError, match="2 candidate ids for 3 similarities"):
            semantic_rank([0.1, 0.2, 0.3], ["a", "b"])

    def test_by_rank_inverts_rank_of(self):
        rank = SemanticRank(np.array([1, 2, 0]))
        assert rank.by_rank() == [2, 0, 1]
        # Python ints, not numpy integers, so the order serializes as JSON.
        assert all(type(c) is int for c in rank.by_rank())
        assert json.dumps(rank.by_rank()) == "[2, 0, 1]"

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValidationError):
            SemanticRank(np.array([0, 0, 1]))

    @pytest.mark.parametrize(
        "rank_of", [[0.0, 1.0], ["0", "1"], [0, 2**63], None], ids=["floats", "text", "past-int64", "none"]
    )
    def test_ranks_that_are_not_integers_are_rejected(self, rank_of):
        with pytest.raises(ValidationError, match="rank_of must be a permutation of 0..M-1"):
            SemanticRank(rank_of)


HAND_MATRIX = ApdfMatrix(
    "multi", np.array([[0.0, 0.5, 0.9], [0.5, 0.0, 0.2], [0.9, 0.2, 0.0]])
)
HAND_ARANK = SemanticRank(np.array([1, 2, 0]))


class TestDynamicRank:
    def test_single_candidate(self):
        matrix = ApdfMatrix("multi", np.zeros((1, 1)))
        assert dynamic_rank(matrix, SemanticRank(np.array([0]))).order == [0]

    def test_all_zero_matrix_falls_back_to_arank(self):
        matrix = ApdfMatrix("multi", np.zeros((4, 4)))
        arank = SemanticRank(np.array([2, 0, 3, 1]))
        assert dynamic_rank(matrix, arank).order == [1, 3, 0, 2]

    def test_hand_fixture(self):
        # max 0.9 at (0,2): rank_of[2]=0 beats rank_of[0]=1, place 2;
        # zero row/col 2; max 0.5 at (0,1): rank_of[0]=1 beats 2, place 0;
        # nothing positive left, append 1.
        assert dynamic_rank(HAND_MATRIX, HAND_ARANK).order == [2, 0, 1]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            dynamic_rank(HAND_MATRIX, SemanticRank(np.array([0, 1])))

    def test_deterministic(self):
        a = dynamic_rank(HAND_MATRIX, HAND_ARANK).order
        b = dynamic_rank(HAND_MATRIX, HAND_ARANK).order
        assert a == b

    def test_argmax_ties_broken_lexicographically(self):
        # Two entries share the maximum; (0,1) is chosen over (0,2).
        matrix = ApdfMatrix(
            "multi", np.array([[0.0, 0.7, 0.7], [0.7, 0.0, 0.1], [0.7, 0.1, 0.0]])
        )
        arank = SemanticRank(np.array([0, 1, 2]))
        assert dynamic_rank(matrix, arank).order[0] == 0
        assert dynamic_rank(matrix, arank).order == brute_force_rank(matrix, arank).order

    def test_invalid_order_rejected(self):
        with pytest.raises(ValidationError):
            DynamicRanking([0, 0, 1])


class TestOracleEquivalence:
    def test_hand_fixture(self):
        assert brute_force_rank(HAND_MATRIX, HAND_ARANK).order == [2, 0, 1]

    def test_all_zero(self):
        matrix = ApdfMatrix("multi", np.zeros((3, 3)))
        arank = SemanticRank(np.array([2, 0, 1]))
        assert brute_force_rank(matrix, arank).order == dynamic_rank(matrix, arank).order

    def test_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            size = int(rng.integers(1, 7))
            _, _, multi = random_pool_matrices(rng, size=size)
            arank = random_semantic_rank(rng, size)
            assert dynamic_rank(multi, arank).order == brute_force_rank(multi, arank).order

    def test_random_instances_with_ties(self):
        # Duplicate gains produce equal matrix entries, stressing both
        # the argmax tie-break and the zero-entry fallback.
        rng = np.random.default_rng(12)
        for _ in range(200):
            size = int(rng.integers(2, 7))
            levels = rng.choice([0.0, 0.5, 1.0], size=size)
            singles = [single_apdf(GainVector("a", levels)), single_apdf(GainVector("b", rng.choice([1.0, 2.0], size=size)))]
            multi = multi_apdf(singles)
            arank = random_semantic_rank(rng, size)
            assert dynamic_rank(multi, arank).order == brute_force_rank(multi, arank).order

    def test_larger_pools_sampled(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            size = int(rng.integers(8, 16))
            _, _, multi = random_pool_matrices(rng, size=size)
            arank = random_semantic_rank(rng, size)
            assert dynamic_rank(multi, arank).order == brute_force_rank(multi, arank).order

    def test_benchmark_pool_size(self):
        # M = 64, one of the benchmark's large pool sizes (16, 64 and 256; the
        # O(M^3) oracle keeps it below 256, which test_numpy_reference covers).
        # Half the instances take gains from three levels, so many entries tie
        # and many are zero.
        rng = np.random.default_rng(15)
        size = 64
        for quantized in (False, True) * 6:
            if quantized:
                _, multi = quantized_pool_matrices(rng, size)
            else:
                _, _, multi = random_pool_matrices(rng, size=size)
            arank = random_semantic_rank(rng, size)
            assert dynamic_rank(multi, arank).order == brute_force_rank(multi, arank).order

    def test_reads_only_the_upper_triangle(self):
        # ApdfMatrix accepts asymmetry up to 1e-12; a larger entry below the
        # diagonal must not steer the walk away from the oracle.
        matrix = ApdfMatrix("x", [[0, 1], [1 + 1e-13, 0]])
        arank = SemanticRank(np.array([0, 1]))
        assert dynamic_rank(matrix, arank).order == brute_force_rank(matrix, arank).order == [0, 1]
        rng = np.random.default_rng(16)
        for _ in range(100):
            size = int(rng.integers(2, 12))
            _, _, multi = random_pool_matrices(rng, size=size)
            values = multi.values + np.tril(rng.uniform(0.0, 1e-13, size=(size, size)), -1)
            perturbed = ApdfMatrix("x", values)
            arank = random_semantic_rank(rng, size)
            assert dynamic_rank(perturbed, arank).order == brute_force_rank(perturbed, arank).order


class TestPermutationEquivariance:
    def test_relabeling_permutes_output(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            size = int(rng.integers(2, 7))
            # Distinct random entries, no ties.
            _, _, multi = random_pool_matrices(rng, size=size)
            if np.unique(multi.values[np.triu_indices(size, 1)]).size != size * (size - 1) // 2:
                continue
            arank = random_semantic_rank(rng, size)
            base = dynamic_rank(multi, arank).order

            sigma = rng.permutation(size)
            permuted_values = multi.values[np.ix_(sigma, sigma)]
            permuted_multi = ApdfMatrix("multi", permuted_values)
            # candidate j of the permuted instance is candidate sigma[j] originally
            permuted_arank = SemanticRank([arank.rank_of[s] for s in sigma])
            permuted_order = dynamic_rank(permuted_multi, permuted_arank).order

            inverse = np.empty(size, dtype=int)
            inverse[sigma] = np.arange(size)
            assert [int(inverse[c]) for c in base] == permuted_order
