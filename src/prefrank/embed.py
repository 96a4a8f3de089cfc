"""Deterministic text embeddings and cosine similarity.

Embeddings feed two cosine vectors: a record's question/candidate
cosines, which give both the semantic gain and the semantic rank that
breaks ties in dynamic ranking, and a generation's candidate cosines for
the hit/recall metrics.  The default embedder hashes character n-grams
into a fixed number of signed buckets; it is a test-grade stand-in for
any real encoder.  Vectors precomputed by an external encoder can be
loaded from a TSV file instead (`corpus` reads and writes that format);
`pipeline` owns its key format and chooses between a table and an
embedder.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .constants import DEFAULT_DIM, DEFAULT_NGRAM
from .corpus import load_external_embeddings, write_external_embeddings  # noqa: F401  bench/ reads them here
from .errors import ValidationError

# A hashed vector is dense in memory, so its width is capped far above any useful size.
MIN_DIM, MAX_DIM = 8, 1 << 16

# Per-process memo from n-gram bytes to its 64-bit digest, shared by every
# dim.  Full, it is replaced by an empty dict rather than cleared, so a call
# holding the old dict (another thread's) never loses a key it just added.
_DIGEST_MEMO_LIMIT = 1 << 18
_digest_memo: dict[bytes, int] = {}


def _digest(data: bytes) -> int:
    # blake2b rather than hash(): the builtin is salted per process.
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def _gram_digests(grams: list[bytes]) -> np.ndarray:
    global _digest_memo
    memo = _digest_memo
    if len(memo) > _DIGEST_MEMO_LIMIT:
        memo = _digest_memo = {}
    for gram in set(grams).difference(memo):
        memo[gram] = _digest(gram)
    return np.fromiter(map(memo.__getitem__, grams), dtype=np.uint64, count=len(grams))


class HashedNgramEmbedder:
    """Default embedder: character n-grams with signed feature hashing.

    Each n-gram's digest picks a bucket (``(digest >> 1) % dim``) and a
    sign (low bit set: +1, clear: -1).  Each distinct n-gram is hashed
    once per process: a module-level memo (emptied past 2**18 entries)
    maps n-gram bytes to their digest for every ``dim``.  Vectors are
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

    def embed(self, text: str) -> np.ndarray:
        """A unit-norm float64 vector (all-zero only for empty text), bit-stable across calls."""
        dim, ngram = self.dim, self.ngram
        if not text:
            return np.zeros(dim, dtype=np.float64)
        encoded = text.encode("utf-8")
        grams = [encoded[i : i + ngram] for i in range(len(encoded) - ngram + 1)] or [encoded]
        digests = _gram_digests(grams)
        # Slot 2*bucket + sign bit, so one bincount gives both signs' counts.
        slots = (((digests >> 1) % dim) * 2 + (digests & 1)).astype(np.intp)
        counts = np.bincount(slots, minlength=2 * dim)
        vec = (counts[1::2] - counts[0::2]).astype(np.float64)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            # Signed collisions cancelled everything out; fall back to a
            # single bucket so non-empty text always has unit norm.
            vec[(_digest(encoded) >> 1) % dim] = 1.0
            return vec
        return vec / norm


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; 0 if either vector is all-zero.

    The zero-vector convention keeps empty responses rankable (they fall
    to the bottom by gain) instead of aborting a whole batch.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(a, b) / (norm_a * norm_b))
