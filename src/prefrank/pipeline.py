"""Assembly of per-record perception state.

Bridges the corpus, embedding, distance-factor, and ranking layers.
Vectors come from `embed.resolve_vectors` (an embedding table's rows
under `corpus`'s keys, or an embedder's float lists); `build_perception`
takes the question/candidate cosines once, with `embed.anchor_cosines`, and
derives the gain vectors, the single and fused distance matrices, the
semantic rank, and the dynamic ranking.  Losses, training and the
``rank`` and ``export-heatmap`` subcommands consume the resulting bundle.
"""

from __future__ import annotations

from typing import Sequence

from .apdf import ApdfMatrix, multi_apdf, popularity_gains, semantic_gains, single_apdf
from .corpus import DecayConfig, QARecord, Value, question_key
from .embed import HashedNgramEmbedder, anchor_cosines, resolve_vectors
from .ranking import DynamicRanking, SemanticRank, dynamic_rank, semantic_rank


class PerceptionBundle(Value):
    """Everything perception derives from one record's pool."""

    singles: tuple[ApdfMatrix, ...]
    multi: ApdfMatrix
    arank: SemanticRank
    dynamic: DynamicRanking


class PreparedRecord(Value):
    """A record paired with its perception state, ready for loss and training use."""

    record: QARecord
    perception: PerceptionBundle


def build_perception(
    record: QARecord,
    embedder: HashedNgramEmbedder | None = None,
    table: dict[str, Sequence[float]] | None = None,
    decay: DecayConfig | None = None,
) -> PerceptionBundle:
    """Distance matrices and rankings for one record; `decay=None` leaves votes undecayed."""
    similarities = anchor_cosines(
        *resolve_vectors(question_key(record), record.question_text, record, embedder=embedder, table=table)
    )
    gains = [
        semantic_gains(similarities),
        popularity_gains(
            [c.votes for c in record.candidates],
            [c.created_at for c in record.candidates],
            decay,
        ),
    ]
    singles = tuple(single_apdf(g) for g in gains)
    multi = multi_apdf(singles)
    arank = semantic_rank(similarities, [c.id for c in record.candidates])
    dynamic = dynamic_rank(multi, arank)
    return PerceptionBundle(singles=singles, multi=multi, arank=arank, dynamic=dynamic)


def prepare_records(
    records: list[QARecord],
    embedder: HashedNgramEmbedder | None = None,
    table: dict[str, Sequence[float]] | None = None,
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
