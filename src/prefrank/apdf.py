"""Attribute gains, rank discounts, and perceptual-distance matrices.

For a pool of M candidate responses, each attribute (semantics,
popularity, ...) yields a gain vector; the pairwise distance factor for
candidates i and j is

    delta[i, j] = (gain[i] - gain[j]) * (discount(rank[i]) - discount(rank[j]))

with ranks induced per attribute by sorting that attribute's own gains
in descending order; equal gains share the mean discount of the ranks
they hold.  An entry is LambdaRank's swap cost: |DCG(pi) - DCG(pi with
i and j swapped)| for DCG = sum of gain / ln(rank + 1) over the order
pi, averaged over the orders of equal gains.  Because both factors flip
sign together, every matrix is symmetric, zero on the diagonal, and
nonnegative.  The fused multi-attribute matrix is the element-wise
product of the single matrices, which preserves all three properties
and keeps per-entry row lookups meaningful for the comparison weights
downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .corpus import DecayConfig, decayed_popularity
from .errors import ValidationError

SEMANTIC = "semantic"
POPULARITY = "popularity"

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class GainVector:
    """Per-candidate gains for one attribute over a pool of size M."""

    attribute_name: str
    gains: np.ndarray

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=np.float64)
        if gains.ndim != 1 or gains.size < 1:
            raise ValidationError("gains must be a non-empty 1-D vector")
        if not np.all(np.isfinite(gains)):
            raise ValidationError(f"{self.attribute_name}: gains contain non-finite values")
        if np.any(gains < 0):
            raise ValidationError(f"{self.attribute_name}: gains must be nonnegative")
        object.__setattr__(self, "gains", gains)

    def __len__(self) -> int:
        return self.gains.size


@dataclass(frozen=True)
class ApdfMatrix:
    """M x M pairwise perceptual distances for one attribute (or the fusion).

    Invariants checked at construction: symmetric within 1e-12, exactly
    zero diagonal, all entries finite and nonnegative.
    """

    attribute_name: str
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1] or values.shape[0] < 1:
            raise ValidationError("APDF matrix must be square and non-empty")
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"{self.attribute_name}: matrix contains non-finite values")
        if np.any(np.diagonal(values) != 0.0):
            raise ValidationError(f"{self.attribute_name}: matrix diagonal must be exactly zero")
        if np.abs(values - values.T).max() > _SYMMETRY_TOL:
            raise ValidationError(f"{self.attribute_name}: matrix is not symmetric")
        if np.any(values < 0.0):
            raise ValidationError(f"{self.attribute_name}: matrix has negative entries")
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.values.shape[0]


def rank_discount(rank: int) -> float:
    """Positional discount 1 / ln(rank + 1) for a 1-indexed rank.

    The base is fixed: another base c = ln(base) scales every single matrix
    by c and the fused one by c**2, which changes neither the dynamic
    ranking nor, since each round's weights all scale alike, any loss.
    """
    if rank < 1:
        raise ValidationError(f"rank must be a 1-indexed positive integer, got {rank}")
    return 1.0 / math.log(rank + 1)


def semantic_gain(phi: float) -> float:
    """Gain 2**(phi - 1) for a question/response cosine phi in [-1, 1]."""
    if not math.isfinite(phi) or abs(phi) > 1.0 + 1e-12:
        raise ValidationError(f"cosine similarity out of range [-1, 1]: {phi}")
    return 2.0 ** (min(max(phi, -1.0), 1.0) - 1.0)


def popularity_gain(decayed_votes: float) -> float:
    """Gain log10(decayed_votes + 1); the log dampens extreme vote counts."""
    if decayed_votes < 0:
        raise ValidationError(f"decayed popularity must be nonnegative, got {decayed_votes}")
    return math.log10(decayed_votes + 1.0)


def semantic_gains(similarities: np.ndarray) -> GainVector:
    """Semantic gain vector for a pool from its question/candidate cosines."""
    gains = [semantic_gain(phi) for phi in np.asarray(similarities, dtype=np.float64).tolist()]
    return GainVector(SEMANTIC, np.array(gains))


def popularity_gains(
    votes: list[int], created_ats: list[datetime], cfg: DecayConfig | None
) -> GainVector:
    """Popularity gain vector from raw votes and creation times."""
    if len(votes) != len(created_ats):
        raise ValidationError("votes and created_ats must have equal length")
    gains = [
        popularity_gain(decayed_popularity(v, t, cfg)) for v, t in zip(votes, created_ats)
    ]
    return GainVector(POPULARITY, np.array(gains))


def induced_ranks(gains: GainVector) -> np.ndarray:
    """1-indexed ranks by descending gain; ties go to the lower index."""
    ranks = np.empty(len(gains), dtype=np.int64)
    ranks[np.argsort(-gains.gains, kind="stable")] = np.arange(1, len(gains) + 1)
    return ranks


def single_apdf(gains: GainVector) -> ApdfMatrix:
    """Distance-factor matrix for one attribute from its gain vector.

    Equal gains share one discount, the mean of the discounts of the rank
    positions they hold, summed in rank order, so no entry depends on the
    order of the pool.
    """
    ranks = induced_ranks(gains)
    discounts = np.array([rank_discount(int(r)) for r in ranks])
    by_rank = np.argsort(ranks)
    _, group, counts = np.unique(gains.gains[by_rank], return_inverse=True, return_counts=True)
    discounts[by_rank] = (np.bincount(group, weights=discounts[by_rank]) / counts)[group]
    gain_diff = np.subtract.outer(gains.gains, gains.gains)
    discount_diff = np.subtract.outer(discounts, discounts)
    # + 0.0 normalizes the -0.0 entries the sign-agreeing product produces.
    return ApdfMatrix(gains.attribute_name, gain_diff * discount_diff + 0.0)


def multi_apdf(matrices: list[ApdfMatrix]) -> ApdfMatrix:
    """Element-wise (Hadamard) fusion of L single-attribute matrices."""
    if not matrices:
        raise ValidationError("multi_apdf requires at least one matrix")
    size = matrices[0].size
    for m in matrices:
        if m.size != size:
            raise ValidationError(
                f"matrix shape mismatch: {m.attribute_name} is {m.size}x{m.size}, expected {size}"
            )
    fused = matrices[0].values.copy()
    for m in matrices[1:]:
        fused *= m.values
    fused += 0.0
    name = "*".join(m.attribute_name for m in matrices)
    return ApdfMatrix(name, fused)
