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

Standard-library code: a single matrix keeps its O(M) factors (gains and
shared discounts) and a fused one its inputs, and `upper_rows` reads the
strict upper triangle from them.  `values`, the numpy array, is built on
first access.
"""

from __future__ import annotations

import math
from array import array
from datetime import datetime
from functools import cached_property, reduce
from itertools import groupby
from operator import add, mul
from typing import Iterator, Sequence

from .constants import POPULARITY, SEMANTIC
from .corpus import DecayConfig, Value, decayed_popularity
from .errors import ValidationError

_SYMMETRY_TOL = 1e-12


class GainVector(Value):
    """Per-candidate gains for one attribute over a pool of size M, as an ``array('d')``."""

    attribute_name: str
    gains: Sequence[float]

    def __post_init__(self):
        try:
            gains = array("d", self.gains)
        except TypeError:
            raise ValidationError("gains must be a non-empty 1-D vector") from None
        if not gains:
            raise ValidationError("gains must be a non-empty 1-D vector")
        if not all(map(math.isfinite, gains)):
            raise ValidationError(f"{self.attribute_name}: gains contain non-finite values")
        if min(gains) < 0:
            raise ValidationError(f"{self.attribute_name}: gains must be nonnegative")
        object.__setattr__(self, "gains", gains)

    def __len__(self) -> int:
        return len(self.gains)


class ApdfMatrix:
    """M x M pairwise perceptual distances for one attribute (or the fusion).

    ``ApdfMatrix(name, values)`` checks an explicit array at construction:
    symmetric within 1e-12, exactly zero diagonal, all entries finite and
    nonnegative.  `single_apdf` keeps the factors of the entries and
    `multi_apdf` the inputs, which are symmetric, zero on the diagonal and
    nonnegative by construction; `_lazy` checks that their entries are finite.
    """

    _factors: tuple[array, array] | None = None  # gains g, discounts d: entry (i, j) is (g_i - g_j)(d_i - d_j)
    _inputs: tuple[ApdfMatrix, ...] = ()  # a fused matrix is the Hadamard product of these

    def __init__(self, attribute_name: str, values):
        import numpy as np

        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1] or values.shape[0] < 1:
            raise ValidationError("APDF matrix must be square and non-empty")
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"{attribute_name}: matrix contains non-finite values")
        if np.any(np.diagonal(values) != 0.0):
            raise ValidationError(f"{attribute_name}: matrix diagonal must be exactly zero")
        if np.abs(values - values.T).max() > _SYMMETRY_TOL:
            raise ValidationError(f"{attribute_name}: matrix is not symmetric")
        if np.any(values < 0.0):
            raise ValidationError(f"{attribute_name}: matrix has negative entries")
        # `values` set here shadows the cached property, which builds it for `_lazy` matrices.
        self.attribute_name, self.size, self.values = attribute_name, len(values), values
        self._bound = float(values.max())

    @classmethod
    def _lazy(cls, attribute_name: str, size: int, bound: float, factors=None, inputs=()) -> ApdfMatrix:
        """A matrix held as `factors` or `inputs`, none of whose entries exceeds `bound`."""
        matrix = cls.__new__(cls)
        matrix.attribute_name, matrix.size, matrix._bound = attribute_name, size, bound
        matrix._factors, matrix._inputs = factors, inputs
        if not math.isfinite(bound):  # rounding is monotone: a finite bound leaves every entry finite
            cls(attribute_name, matrix.values)  # checks every entry
        return matrix

    @cached_property
    def values(self):
        """The M x M float64 array, built on first access and cached."""
        import numpy as np

        with np.errstate(over="ignore"):  # an entry that overflows reads inf, which `_lazy` refuses
            if self._factors:
                gains, discounts = (np.frombuffer(f) for f in self._factors)
                # + 0.0 normalizes the -0.0 entries the sign-agreeing product produces.
                return np.subtract.outer(gains, gains) * np.subtract.outer(discounts, discounts) + 0.0
            fused = self._inputs[0].values.copy()
            for m in self._inputs[1:]:
                fused *= m.values
        fused += 0.0
        return fused

    def upper_rows(self) -> Iterator[list[float]]:
        """Row i's entries (i, i+1) .. (i, M-1) as Python floats, read from the
        factors, the inputs or ``values``; a zero may read -0.0."""
        if self._factors:
            factors = list(zip(*self._factors))  # (g_i, d_i) per candidate
            return ([(g - h) * (d - e) for h, e in factors[i + 1:]] for i, (g, d) in enumerate(factors))
        if len(self._inputs) == 2 and all(m._factors for m in self._inputs):
            # Each single's entry, then their product: the float operations of the product path.
            factors = list(zip(*self._inputs[0]._factors, *self._inputs[1]._factors))  # (g, d, p, s) per candidate
            return ([(g - h) * (d - e) * ((p - q) * (s - t)) for h, e, q, t in factors[i + 1:]]
                    for i, (g, d, p, s) in enumerate(factors))
        if self._inputs:
            rows = zip(*(m.upper_rows() for m in self._inputs))
            return (reduce(lambda a, b: list(map(mul, a, b)), parts) for parts in rows)
        return (row[i + 1:] for i, row in enumerate(self.values.tolist()))


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


def semantic_gains(similarities: Sequence[float]) -> GainVector:
    """Semantic gain vector for a pool from its question/candidate cosines."""
    return GainVector(SEMANTIC, [semantic_gain(float(phi)) for phi in similarities])


def popularity_gains(
    votes: list[int], created_ats: list[datetime], cfg: DecayConfig | None
) -> GainVector:
    """Popularity gain vector from raw votes and creation times."""
    if len(votes) != len(created_ats):
        raise ValidationError("votes and created_ats must have equal length")
    gains = [
        popularity_gain(decayed_popularity(v, t, cfg)) for v, t in zip(votes, created_ats)
    ]
    return GainVector(POPULARITY, gains)


def _by_rank(gains: GainVector) -> list[int]:
    """Candidates by descending gain; the stable sort leaves ties in index order."""
    return sorted(range(len(gains)), key=gains.gains.__getitem__, reverse=True)


def induced_ranks(gains: GainVector) -> array:
    """1-indexed ranks by descending gain, as an ``array('q')``; ties go to the lower index."""
    ranks = array("q", [0]) * len(gains)
    for rank, candidate in enumerate(_by_rank(gains), 1):
        ranks[candidate] = rank
    return ranks


def single_apdf(gains: GainVector) -> ApdfMatrix:
    """Distance-factor matrix for one attribute from its gain vector.

    Equal gains share one discount, the mean of the discounts of the rank
    positions they hold, summed in rank order, so no entry depends on the
    order of the pool.
    """
    discounts = array("d", [0.0]) * len(gains)
    for _, group in groupby(enumerate(_by_rank(gains), 1), key=lambda item: gains.gains[item[1]]):
        ranks, members = zip(*group)
        total = reduce(add, map(rank_discount, ranks), 0.0)  # not sum(), which compensates since Python 3.12
        for candidate in members:
            discounts[candidate] = total / len(ranks)
    bound = (max(gains.gains) - min(gains.gains)) * (max(discounts) - min(discounts))
    return ApdfMatrix._lazy(gains.attribute_name, len(gains), bound, factors=(gains.gains, discounts))


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
    name = "*".join(m.attribute_name for m in matrices)
    bound = math.prod(m._bound for m in matrices)
    return ApdfMatrix._lazy(name, size, bound, inputs=tuple(matrices))
