"""Deterministic text embeddings and cosine similarity.

Embeddings feed two cosine vectors: a record's question/candidate
cosines, which give both the semantic gain and the semantic rank that
breaks ties in dynamic ranking, and a generation's candidate cosines for
the hit/recall metrics.  The default embedder hashes character n-grams
into a fixed number of signed buckets, and keeps its own memo of each
n-gram's bucket and sign; it is a test-grade stand-in for any real
encoder.  Vectors precomputed by an external encoder can be
loaded from a TSV file instead (`corpus` reads and writes that format
and owns its keys, and keeps each row as written); `resolve_vectors`
picks a table or an embedder.

The embedder, `cosine` and `resolve_vectors` need only the standard
library, so ``prefrank embed`` runs without numpy and ``prefrank eval``
loads it only to correlate external scores.  `cosine` is the one cosine:
``rank``, ``loss``, ``train-toy`` and ``eval`` all take their
similarities from it, through `anchor_cosines`, and order them by
`similarity_key`.
"""

from __future__ import annotations

import hashlib
import math
from operator import mul
from typing import Callable, Sequence

from .constants import DEFAULT_DIM, DEFAULT_NGRAM
from .corpus import QARecord, candidate_key
from .corpus import load_external_embeddings, write_external_embeddings  # noqa: F401  bench/ reads them here
from .errors import ValidationError

# A hashed vector is dense in memory, so its width is capped far above any useful size.
MIN_DIM, MAX_DIM = 8, 1 << 16

# An embedder's memo is replaced by an empty one past this many n-grams.
_MEMO_LIMIT = 1 << 18


def _digest(data: bytes) -> int:
    # blake2b rather than hash(): the builtin is salted per process.
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class _BucketMemo(dict):
    """N-gram (a tuple of byte values) -> (bucket, sign), filled on first lookup."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, gram: tuple[int, ...]) -> tuple[int, int]:
        digest = _digest(bytes(gram))
        entry = self[gram] = ((digest >> 1) % self.dim, 1 if digest & 1 else -1)
        return entry


class HashedNgramEmbedder:
    """Default embedder: character n-grams with signed feature hashing.

    Each n-gram's digest picks a bucket (``(digest >> 1) % dim``) and a
    sign (low bit set: +1, clear: -1).  Each distinct n-gram is hashed
    once per embedder: its memo (replaced by an empty one past 2**18
    entries) maps the n-gram to its bucket and sign.  Vectors are
    bit-identical to hashing every n-gram on every call.  The memo is
    safe to share between threads (a filled memo is replaced, never
    cleared under a reader) and is not part of a pickled embedder.
    """

    def __init__(self, dim: int = DEFAULT_DIM, ngram: int = DEFAULT_NGRAM):
        if not MIN_DIM <= dim <= MAX_DIM:
            raise ValidationError(f"dim must be in [{MIN_DIM}, {MAX_DIM}], got {dim}")
        if ngram < 1:
            raise ValidationError(f"ngram must be >= 1, got {ngram}")
        self.dim = dim
        self.ngram = ngram
        self._memo = _BucketMemo(dim)

    def __reduce__(self):  # a copy or an unpickled embedder starts with an empty memo
        return type(self), (self.dim, self.ngram)

    def embed(self, text: str) -> list[float]:
        """A unit-norm vector of `dim` floats (all-zero only for empty text), bit-stable across calls.

        The bucket sums are integers, so their sum of squares is exact and
        each entry is one correctly rounded division by its square root:
        the same floats as numpy's ``vec / np.linalg.norm(vec)``.
        """
        dim, ngram = self.dim, self.ngram
        if not text:
            return [0.0] * dim
        encoded = text.encode("utf-8")
        if len(encoded) >= ngram:
            grams = zip(*(encoded[i:] for i in range(ngram)))
        else:
            grams = (tuple(encoded),)
        memo = self._memo
        if len(memo) > _MEMO_LIMIT:
            memo = self._memo = _BucketMemo(dim)
        counts = [0] * dim
        for bucket, sign in map(memo.__getitem__, grams):
            counts[bucket] += sign
        squares = sum(map(mul, counts, counts))
        if not squares:
            # Signed collisions cancelled everything out; fall back to a
            # single bucket so non-empty text always has unit norm.
            vec = [0.0] * dim
            vec[(_digest(encoded) >> 1) % dim] = 1.0
            return vec
        norm = math.sqrt(squares)
        return [value / norm for value in counts]


def cosine(a: Sequence[float], b: Sequence[float], norm_a: float | None = None) -> float:
    """Cosine similarity in [-1, 1], to rounding: the correctly rounded sum
    of the products (`math.fsum`) over the product of the norms.  0 if
    either vector is all-zero or the norms' product underflows, which keeps
    empty responses rankable (they fall to the bottom by gain) instead of
    aborting a whole batch.  `norm_a` is ``math.hypot(*a)``, when the
    caller has it."""
    if len(a) != len(b):
        raise ValidationError(f"dimension mismatch: {len(a)} vs {len(b)}")
    norms = (math.hypot(*a) if norm_a is None else norm_a) * math.hypot(*b)
    return math.fsum(map(mul, a, b)) / norms if norms else 0.0


def anchor_cosines(anchor: Sequence[float], pool: list[Sequence[float]]) -> list[float]:
    """`cosine` of the anchor with each pool vector.  Each vector becomes a list
    once, since `cosine` reads it twice and an ``array('d')`` table row boxes
    a float on every read; the anchor's norm is taken once."""
    anchor = list(anchor)
    norm = math.hypot(*anchor)
    return [cosine(anchor, list(vector), norm) for vector in pool]


def similarity_key(similarities: Sequence[float], ids: Sequence[str]) -> Callable[[int], tuple[float, str]]:
    """Key on candidate indices putting the most similar first; an exact tie goes to the lower candidate id."""
    return lambda c: (-similarities[c], ids[c])


def table_vector(table: dict[str, Sequence[float]], key: str) -> Sequence[float]:
    """The vector stored under `key`; a missing key is an error naming it."""
    try:
        return table[key]
    except KeyError:
        raise ValidationError(f"no embedding for key {key!r}") from None


def resolve_vectors(
    key: str,
    text: str,
    record: QARecord,
    embedder: HashedNgramEmbedder | None = None,
    table: dict[str, Sequence[float]] | None = None,
) -> tuple[Sequence[float], list[Sequence[float]]]:
    """Vectors of an anchor (the question or a generation) and the candidates:
    a table's rows under `key` and the candidate keys, as stored (a missing key
    is an error, not a fallback), or the embedder's float lists for the texts."""
    if table is not None:
        anchor = table_vector(table, key)
        return anchor, [table_vector(table, candidate_key(record, c.id)) for c in record.candidates]
    if embedder is None:
        raise ValidationError("either an embedder or an embedding table is required")
    return embedder.embed(text), [embedder.embed(c.content) for c in record.candidates]
