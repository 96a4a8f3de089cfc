"""Assembly of per-record perception state.

Bridges the corpus, embedding, distance-factor, and ranking layers:
given a record plus an embedding source and decay settings, build the
gain vectors, the single and fused distance matrices, the semantic
rank, and the dynamic ranking.  Everything downstream (losses,
training, evaluation, the CLI) consumes the resulting bundle.
"""

from __future__ import annotations

import math
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
from .embed import Embedder
from .errors import ValidationError
from .ranking import DynamicRanking, SemanticRank, dynamic_rank, semantic_rank


def question_key(record: QARecord) -> str:
    return record.question_id


def candidate_key(record: QARecord, candidate_id: str) -> str:
    return f"{record.question_id}/{candidate_id}"


def table_vector(table: dict[str, np.ndarray], key: str) -> np.ndarray:
    """The vector stored under `key`; a missing key is an error naming it."""
    try:
        return table[key]
    except KeyError:
        raise ValidationError(f"no embedding for key {key!r}") from None


def embeddings_for(
    record: QARecord,
    embedder: Embedder | None = None,
    table: dict[str, np.ndarray] | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Question and candidate vectors, from a table if given, else an embedder.

    Table keys follow the convention `question_id` for the question and
    `question_id/candidate_id` for candidates; a missing key is an error
    rather than a silent fallback.
    """
    if table is not None:
        question = table_vector(table, question_key(record))
        candidates = [table_vector(table, candidate_key(record, c.id)) for c in record.candidates]
        return question, candidates
    if embedder is None:
        raise ValidationError("either an embedder or an embedding table is required")
    question = embedder.embed(record.question_text)
    candidates = [embedder.embed(c.content) for c in record.candidates]
    return question, candidates


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
    embedder: Embedder | None = None,
    table: dict[str, np.ndarray] | None = None,
    decay: DecayConfig | None = None,
    discount_base: float = math.e,
) -> PerceptionBundle:
    """Gains, matrices, and rankings for one record."""
    if decay is None:
        decay = DecayConfig(reference_time=record.question_created_at, enabled=False)
    question_emb, candidate_embs = embeddings_for(record, embedder=embedder, table=table)
    gains = [
        semantic_gains(question_emb, candidate_embs),
        popularity_gains(
            [c.votes for c in record.candidates],
            [c.created_at for c in record.candidates],
            decay,
        ),
    ]
    singles = [single_apdf(g, discount_base) for g in gains]
    multi = multi_apdf(singles)
    arank = semantic_rank(question_emb, candidate_embs)
    dynamic = dynamic_rank(multi, arank)
    return PerceptionBundle(gains=gains, singles=singles, multi=multi, arank=arank, dynamic=dynamic)


def prepare_records(
    records: list[QARecord],
    embedder: Embedder | None = None,
    table: dict[str, np.ndarray] | None = None,
    decay: DecayConfig | None = None,
    discount_base: float = math.e,
) -> list[PreparedRecord]:
    """Build perception bundles for a batch, preserving record order."""
    return [
        PreparedRecord(
            record=r,
            perception=build_perception(
                r, embedder=embedder, table=table, decay=decay, discount_base=discount_base
            ),
        )
        for r in records
    ]
