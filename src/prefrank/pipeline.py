"""Assembly of per-record perception state.

Bridges the corpus, embedding, distance-factor, and ranking layers.
`resolve_vectors` is the one place vectors come from: an embedding table
read by the keys defined here, or an embedder.  `build_perception` takes
the question/candidate cosines once and derives the gain vectors, the
single and fused distance matrices, the semantic rank, and the dynamic
ranking.  Everything downstream (losses, training, evaluation, the CLI)
consumes the resulting bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .apdf import (
    ApdfMatrix,
    DecayConfig,
    GainVector,
    multi_apdf,
    popularity_gains,
    semantic_gains,
    single_apdf,
)
from .corpus import QARecord
from .embed import HashedNgramEmbedder, cosine
from .errors import ValidationError
from .ranking import DynamicRanking, SemanticRank, dynamic_rank, semantic_rank


GENERATION_KEY_SUFFIX = "generation"


def question_key(record: QARecord) -> str:
    return record.question_id


def candidate_key(record: QARecord, candidate_id: str) -> str:
    return f"{record.question_id}/{candidate_id}"


def generation_key(record_id: str) -> str:
    return f"{record_id}/{GENERATION_KEY_SUFFIX}"


def table_vector(table: dict[str, np.ndarray], key: str) -> np.ndarray:
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
    table: dict[str, np.ndarray] | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Vectors of an anchor (the question or a generation) and the candidates.

    A table is read by `key` and the candidate keys, where a missing key is
    an error rather than a silent fallback; an embedder embeds the texts.
    """
    if table is not None:
        anchor = table_vector(table, key)
        return anchor, [table_vector(table, candidate_key(record, c.id)) for c in record.candidates]
    if embedder is None:
        raise ValidationError("either an embedder or an embedding table is required")
    anchor = embedder.embed(text)
    return anchor, [embedder.embed(c.content) for c in record.candidates]


@dataclass(frozen=True)
class PerceptionBundle:
    """Everything perception derives from one record's pool."""

    gains: list[GainVector]
    singles: list[ApdfMatrix]
    multi: ApdfMatrix
    arank: SemanticRank
    dynamic: DynamicRanking


@dataclass(frozen=True)
class PreparedRecord:
    """A record paired with its perception state, ready for loss and training use."""

    record: QARecord
    perception: PerceptionBundle


def build_perception(
    record: QARecord,
    embedder: HashedNgramEmbedder | None = None,
    table: dict[str, np.ndarray] | None = None,
    decay: DecayConfig | None = None,
) -> PerceptionBundle:
    """Gains, matrices, and rankings for one record; `decay=None` leaves votes undecayed."""
    question, candidates = resolve_vectors(
        question_key(record), record.question_text, record, embedder=embedder, table=table
    )
    similarities = np.array([cosine(question, c) for c in candidates])
    gains = [
        semantic_gains(similarities),
        popularity_gains(
            [c.votes for c in record.candidates],
            [c.created_at for c in record.candidates],
            decay,
        ),
    ]
    singles = [single_apdf(g) for g in gains]
    multi = multi_apdf(singles)
    arank = semantic_rank(similarities)
    dynamic = dynamic_rank(multi, arank)
    return PerceptionBundle(gains=gains, singles=singles, multi=multi, arank=arank, dynamic=dynamic)


def prepare_records(
    records: list[QARecord],
    embedder: HashedNgramEmbedder | None = None,
    table: dict[str, np.ndarray] | None = None,
    decay: DecayConfig | None = None,
) -> list[PreparedRecord]:
    """Build perception bundles for a batch, preserving record order."""
    return [
        PreparedRecord(
            record=r,
            perception=build_perception(r, embedder=embedder, table=table, decay=decay),
        )
        for r in records
    ]
