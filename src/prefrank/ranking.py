"""Self-supervised dynamic ranking of a candidate pool.

The ranking walks the fused distance matrix greedily: at each step the
largest surviving pairwise distance is located and the endpoint that
ranks higher semantically is placed next, then removed from play.  When
no strictly positive distance survives, the remaining candidates are
appended in semantic-rank order.  Only the upper triangle (row < col)
is read.  ``dynamic_rank`` sorts each triangle row once and merges the
rows through a heap of their best surviving entries, O(M^2 log M); it is
standard-library code and reads the triangle through
`ApdfMatrix.upper_rows`, so ``rank`` loads no numpy.
``brute_force_rank`` implements the same contract by rescanning the
full matrix against an exclusion set at every step, O(M^3), and exists
as an independent check on ``dynamic_rank``.
"""

from __future__ import annotations

from array import array
from heapq import heapify, heappop, heapreplace
from typing import Sequence

from .apdf import ApdfMatrix
from .corpus import Value
from .embed import cosine, similarity_key  # noqa: F401  cosine is unused; bench/tracing.py patches ranking.cosine
from .errors import ValidationError


class SemanticRank(Value):
    """0-indexed semantic ranks, as an ``array('q')``: rank_of[c] == 0 means c is
    closest to the question."""

    rank_of: Sequence[int]

    def __post_init__(self):
        try:
            rank_of = array("q", self.rank_of)
        except (TypeError, OverflowError):  # not integers, or out of range
            rank_of = None
        if rank_of is None or sorted(rank_of) != list(range(len(rank_of))):
            raise ValidationError("rank_of must be a permutation of 0..M-1")
        object.__setattr__(self, "rank_of", rank_of)

    def __len__(self) -> int:
        return len(self.rank_of)

    def by_rank(self) -> list[int]:
        """Candidate indices (Python ints) from most to least semantically similar."""
        return sorted(range(len(self.rank_of)), key=self.rank_of.__getitem__)


class DynamicRanking(Value):
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
    by_rank = sorted(range(len(ids)), key=similarity_key(similarities, ids))
    return SemanticRank(sorted(range(len(ids)), key=by_rank.__getitem__))  # the inverse permutation


def _check_inputs(multi: ApdfMatrix, arank: SemanticRank) -> None:
    if multi.size != len(arank):
        raise ValidationError(
            f"matrix is {multi.size}x{multi.size} but semantic rank covers {len(arank)} candidates"
        )


def dynamic_rank(multi: ApdfMatrix, arank: SemanticRank) -> DynamicRanking:
    """Greedy placement by maximal surviving distance, semantic rank deciding.

    Each row's columns are sorted once by descending value, stably, so
    equal values keep column order.  A heap holds each live row's best
    surviving entry keyed (-value, row, position): its top is the largest
    entry with both endpoints unplaced, ties going to the smallest (row,
    col), and places its semantically better endpoint.  A placed row leaves
    the heap; a row whose head column is placed moves on to its next
    positive entry with an unplaced column.  Candidates the walk does not
    reach follow in semantic-rank order.  O(M^2 log M): the row sorts, and
    at most one heap step per entry.
    """
    _check_inputs(multi, arank)
    rows = list(multi.upper_rows())
    by_value = [sorted(range(len(values)), key=values.__getitem__, reverse=True) for values in rows]
    heap = [(-values[cols[0]], row, 0) for row, (values, cols) in enumerate(zip(rows, by_value))
            if cols and values[cols[0]] > 0.0]
    heapify(heap)
    rank_of = arank.rank_of
    placed = [False] * multi.size
    order: list[int] = []
    while heap:
        _, row, position = heap[0]
        if not placed[row]:
            values, cols = rows[row], by_value[row]
            col = row + 1 + cols[position]
            if not placed[col]:
                winner = row if rank_of[row] < rank_of[col] else col
                placed[winner] = True
                order.append(winner)
            if not placed[row]:
                position += 1
                while position < len(cols) and placed[row + 1 + cols[position]]:
                    position += 1
                if position < len(cols) and values[cols[position]] > 0.0:
                    heapreplace(heap, (-values[cols[position]], row, position))
                    continue
        heappop(heap)
    order += [c for c in arank.by_rank() if not placed[c]]
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
