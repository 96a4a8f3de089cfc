"""The standard-library distance matrices and dynamic ranking against the numpy
code they replaced, kept here verbatim as the reference: the same bytes, the
same orders."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prefrank.apdf import ApdfMatrix, GainVector, multi_apdf, rank_discount, single_apdf
from prefrank.ranking import SemanticRank, dynamic_rank


def reference_single_apdf(gains: np.ndarray) -> np.ndarray:
    ranks = np.empty(gains.size, dtype=np.int64)
    ranks[np.argsort(-gains, kind="stable")] = np.arange(1, gains.size + 1)
    discounts = np.array([rank_discount(int(r)) for r in ranks])
    by_rank = np.argsort(ranks)
    _, group, counts = np.unique(gains[by_rank], return_inverse=True, return_counts=True)
    discounts[by_rank] = (np.bincount(group, weights=discounts[by_rank]) / counts)[group]
    gain_diff = np.subtract.outer(gains, gains)
    discount_diff = np.subtract.outer(discounts, discounts)
    return gain_diff * discount_diff + 0.0


def reference_multi_apdf(matrices: list[np.ndarray]) -> np.ndarray:
    fused = matrices[0].copy()
    for values in matrices[1:]:
        fused *= values
    fused += 0.0
    return fused


def reference_dynamic_rank(values: np.ndarray, rank_of: np.ndarray) -> list[int]:
    rows, cols = np.nonzero(np.triu(values > 0.0, k=1))
    walk = np.lexsort((cols, rows, -values[rows, cols]))
    placed: set[int] = set()
    order: list[int] = []
    for row, col in zip(rows[walk].tolist(), cols[walk].tolist()):
        if row not in placed and col not in placed:
            winner = row if rank_of[row] < rank_of[col] else col
            placed.add(winner)
            order.append(winner)
    return order + [c for c in np.argsort(rank_of, kind="stable").tolist() if c not in placed]


def assert_same_as_reference(gain_lists, explicit, rank_of):
    """Singles, fusion and ranking against the reference; an `explicit` single is
    passed to the fusion as `ApdfMatrix(name, values)`."""
    singles, references = [], []
    for k, gains in enumerate(gain_lists):
        single = single_apdf(GainVector(f"attr{k}", gains))
        reference = reference_single_apdf(np.array(gains, dtype=np.float64))
        assert single.values.tobytes() == reference.tobytes()
        singles.append(ApdfMatrix(single.attribute_name, reference) if explicit[k] else single)
        references.append(reference)
    multi = multi_apdf(singles)
    reference = reference_multi_apdf(references)
    assert multi.values.tobytes() == reference.tobytes()
    arank = SemanticRank(rank_of)
    expected = reference_dynamic_rank(reference, np.array(rank_of))
    assert dynamic_rank(multi, arank).order == expected
    assert dynamic_rank(ApdfMatrix("explicit", reference), arank).order == expected


# A small value set with zero in both signs, so that gains often tie and are often zero.
GAINS = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0]) | st.floats(min_value=0.0, max_value=4.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_matrices_and_orders_match_the_numpy_reference(data):
    size = data.draw(st.integers(1, 40))
    attributes = data.draw(st.integers(1, 3))
    gain_lists = [data.draw(st.lists(GAINS, min_size=size, max_size=size)) for _ in range(attributes)]
    explicit = data.draw(st.lists(st.booleans(), min_size=attributes, max_size=attributes))
    rank_of = data.draw(st.permutations(range(size)))
    assert_same_as_reference(gain_lists, explicit, rank_of)


def test_a_256_candidate_pool_matches_the_numpy_reference():
    rng = np.random.default_rng(256)
    semantic = [2.0 ** (phi - 1.0) for phi in rng.uniform(-1.0, 1.0, 256).tolist()]
    popularity = np.log10(rng.integers(0, 40, 256) + 1.0).tolist()  # many vote ties
    rank_of = rng.permutation(256).tolist()
    assert_same_as_reference([semantic, popularity], [False, False], rank_of)
    assert_same_as_reference([semantic, popularity], [False, True], rank_of)
    # Gains on three levels: most rows hold ties and off-diagonal zeros.
    levels = [rng.choice([0.5, 1.0, 2.0], 256).tolist() for _ in range(2)]
    assert_same_as_reference(levels, [False, False], rank_of)
    # Monotone gains in both attributes with the largest gains ranked first: each
    # placement takes a row's head column, so nearly every row's head goes stale.
    monotone = [float(c) for c in range(256)]
    assert_same_as_reference([monotone, monotone], [False, False], list(range(255, -1, -1)))
    # Three attributes take the product path, not the two-single fused rows.
    assert_same_as_reference([semantic, popularity, levels[0]], [False, False, False], rank_of)
