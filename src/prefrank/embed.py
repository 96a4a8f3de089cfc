"""Deterministic text embeddings and cosine similarity.

Embeddings feed two cosine vectors: a record's question/candidate
cosines, which give both the semantic gain and the semantic rank that
breaks ties in dynamic ranking, and a generation's candidate cosines for
the hit/recall metrics.  The default embedder hashes character n-grams
into a fixed number of signed buckets; it is a test-grade stand-in for
any real encoder.  Vectors precomputed by an external encoder can be
loaded from a TSV file instead; `pipeline` owns its key format and
chooses between a table and an embedder.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .corpus import iter_lines
from .errors import SchemaError, ValidationError

DEFAULT_DIM = 256
DEFAULT_NGRAM = 3
# A hashed vector is dense in memory, so its width is capped far above any useful size.
MIN_DIM, MAX_DIM = 8, 1 << 16

# Below this norm a row's squared sum is subnormal or zero and has lost bits.
_SAFE_NORM = np.sqrt(np.finfo(np.float64).tiny)


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


def load_external_embeddings(path) -> dict[str, np.ndarray]:
    """Read `id<TAB>floats` lines into a map of unit-norm vectors.

    All rows must share one dimension.  Duplicate ids, malformed rows,
    bytes that are not UTF-8 and non-finite values are SchemaErrors naming
    the line; vectors are L2-normalized on load (an all-zero row stays zero;
    a row whose squared sum leaves the float range is first scaled to max 1).
    """
    table: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, raw in iter_lines(path):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        key, sep, rest = line.partition("\t")
        if not sep or not key:
            raise SchemaError("expected `id<TAB>floats`", line=lineno)
        try:
            # numpy converts each str token with float(); tests/test_embed.py
            # checks this against a per-token float() reference.
            values = np.array(rest.split(), dtype=np.float64)
        except ValueError as exc:
            raise SchemaError(f"bad float in embedding row: {exc}", line=lineno) from exc
        if values.size == 0:
            raise SchemaError("embedding row has no values", line=lineno)
        if not np.all(np.isfinite(values)):
            raise SchemaError("non-finite value in embedding row", line=lineno)
        if dim is None:
            dim = values.size
        elif values.size != dim:
            raise SchemaError(
                f"dimension mismatch: expected {dim}, got {values.size}", line=lineno
            )
        if key in table:
            raise SchemaError(f"duplicate embedding id {key!r}", line=lineno)
        # Per row, not norm(axis=1): the batched sum runs in another order.
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(values)
        if not _SAFE_NORM <= norm < np.inf and values.any():
            values = values / np.abs(values).max()  # ordinary rows skip this
            norm = np.linalg.norm(values)
        table[key] = values / norm if norm > 0 else values
    return table


def write_external_embeddings(path, table: dict[str, np.ndarray]) -> None:
    """Write the TSV format read by :func:`load_external_embeddings`; a key
    that is empty or holds a tab, CR or LF is refused before the file opens."""
    for key in table:
        if not key or "\t" in key or "\r" in key or "\n" in key:
            raise ValidationError(f"embedding key {key!r} is empty or holds a tab, CR or LF")
    with open(path, "w", encoding="utf-8") as handle:
        for key, vec in table.items():
            floats = " ".join(map(repr, np.asarray(vec, dtype=np.float64).tolist()))
            handle.write(f"{key}\t{floats}\n")
