"""Self-supervised dynamic ranking of a candidate pool.

The ranking walks the fused distance matrix greedily: at each step the
largest surviving pairwise distance is located and the endpoint that
ranks higher semantically is placed next, then removed from play.  When
no strictly positive distance survives, the remaining candidates are
appended in semantic-rank order.  Only the upper triangle (row < col)
is read.  ``dynamic_rank`` sorts the positive upper-triangle pairs once
and makes one pass over them, skipping every pair with a placed
endpoint, O(M^2 log M); ``brute_force_rank``
implements the same contract by rescanning the full matrix against an
exclusion set at every step, O(M^3), and exists as an independent
check on ``dynamic_rank``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .apdf import ApdfMatrix
from .embed import cosine  # noqa: F401  unused; bench/tracing.py patches ranking.cosine by name
from .errors import ValidationError


@dataclass(frozen=True)
class SemanticRank:
    """0-indexed semantic ranks: rank_of[c] == 0 means c is closest to the question."""

    rank_of: np.ndarray

    def __post_init__(self):
        rank_of = np.asarray(self.rank_of, dtype=np.int64)
        if sorted(rank_of.tolist()) != list(range(rank_of.size)):
            raise ValidationError("rank_of must be a permutation of 0..M-1")
        object.__setattr__(self, "rank_of", rank_of)

    def __len__(self) -> int:
        return self.rank_of.size

    def by_rank(self) -> list[int]:
        """Candidate indices from most to least semantically similar."""
        return list(np.argsort(self.rank_of, kind="stable"))


@dataclass(frozen=True)
class DynamicRanking:
    """Candidate indices in dynamic-ranking order, best first."""

    order: list[int]

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValidationError("order must be a permutation of 0..M-1")
        object.__setattr__(self, "order", [int(i) for i in self.order])

    def __len__(self) -> int:
        return len(self.order)

    def top(self) -> int:
        return self.order[0]


def semantic_rank(similarities: Sequence[float], ids: Sequence[str]) -> SemanticRank:
    """Rank candidates by descending question/candidate cosine; an exact tie goes to
    the lower candidate id, so a candidate's rank does not depend on its pool position."""
    if len(similarities) == 0:
        raise ValidationError("candidate pool must be non-empty")
    if len(ids) != len(similarities):
        raise ValidationError(f"{len(ids)} candidate ids for {len(similarities)} similarities")
    by_rank = sorted(range(len(ids)), key=lambda c: (-similarities[c], ids[c]))
    return SemanticRank(np.argsort(by_rank))  # the inverse permutation


def _check_inputs(multi: ApdfMatrix, arank: SemanticRank) -> None:
    if multi.size != len(arank):
        raise ValidationError(
            f"matrix is {multi.size}x{multi.size} but semantic rank covers {len(arank)} candidates"
        )


def dynamic_rank(multi: ApdfMatrix, arank: SemanticRank) -> DynamicRanking:
    """Greedy placement by maximal surviving distance, semantic rank deciding.

    The positive entries (row, col) with row < col are sorted once by
    (-value, row, col), so ties on the maximal entry go to the
    lexicographically smallest pair.  Placing a candidate retires every
    pair it belongs to, so one pass over that order is the greedy walk:
    a pair with a placed endpoint is skipped, any other places its
    semantically better endpoint.  Candidates the walk does not reach
    follow in semantic-rank order.  O(M^2 log M), the sort.
    """
    _check_inputs(multi, arank)
    values = multi.values
    rows, cols = np.nonzero(np.triu(values > 0.0, k=1))
    walk = np.lexsort((cols, rows, -values[rows, cols]))
    rank_of = arank.rank_of.tolist()
    placed: set[int] = set()
    order: list[int] = []
    for row, col in zip(rows[walk].tolist(), cols[walk].tolist()):
        if row not in placed and col not in placed:
            winner = row if rank_of[row] < rank_of[col] else col
            placed.add(winner)
            order.append(winner)
    order += [c for c in arank.by_rank() if c not in placed]
    return DynamicRanking(order)


def brute_force_rank(multi: ApdfMatrix, arank: SemanticRank) -> DynamicRanking:
    """Reference implementation: full rescan over unplaced pairs each step."""
    _check_inputs(multi, arank)
    size = multi.size
    values = multi.values
    rank_of = arank.rank_of
    order: list[int] = []
    while len(order) < size:
        best = None  # (value, row, col)
        for row in range(size):
            if row in order:
                continue
            for col in range(row + 1, size):
                if col in order:
                    continue
                value = values[row, col]
                if value <= 0.0:
                    continue
                if best is None or value > best[0] or (value == best[0] and (row, col) < best[1:]):
                    best = (value, row, col)
        if best is None:
            break
        _, row, col = best
        winner = row if rank_of[row] < rank_of[col] else col
        order.append(winner)
    for candidate in arank.by_rank():
        if candidate not in order:
            order.append(candidate)
    return DynamicRanking(order)
