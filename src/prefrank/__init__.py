"""Multi-attribute preference ranking for community QA.

Pools of candidate answers are scored along perceivable attributes
(semantic similarity to the question, time-decayed popularity), fused
into pairwise distance-factor matrices, and ranked without labels; the
resulting ranking drives alignment and list-wise comparison losses and
a family of preference metrics.

The public names below load their submodule on first access (PEP 562),
so ``import prefrank`` by itself imports no numpy and leaves the
environment alone.  Only the command-line entry point, ``prefrank.cli``,
sets a BLAS thread default, and only when it is imported before numpy.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it provides.  Each submodule also
# resolves as an attribute (``prefrank.embed``), as after an eager import.
_EXPORTS = {
    "apdf": (
        "ApdfMatrix",
        "GainVector",
        "induced_ranks",
        "multi_apdf",
        "popularity_gain",
        "rank_discount",
        "semantic_gain",
        "single_apdf",
    ),
    "corpus": ("DecayConfig", "QARecord", "ResponseCandidate", "load_external_embeddings",
               "load_logprob_file", "logprob_rows", "read_records", "write_logprob_file", "write_records"),
    "embed": ("HashedNgramEmbedder", "cosine"),
    "errors": (
        "DegenerateInputError",
        "DumpParseError",
        "PrefRankError",
        "SchemaError",
        "ValidationError",
    ),
    "evaluation": (
        "EvalReport",
        "best_match",
        "bleu",
        "evaluate_dataset",
        "pearson_r",
        "pref_hit",
        "pref_recall",
        "rouge_l",
        "safer_hit",
        "spearman_r",
        "top_k_matches",
    ),
    "ingest": ("FilterConfig",),
    "objective": (
        "LossBreakdown",
        "dpo_pair_loss",
        "perceptual_alignment_loss",
        "perceptual_comparison_loss",
        "plackett_luce_loss",
    ),
    "pipeline": ("PerceptionBundle", "PreparedRecord", "build_perception", "prepare_records"),
    "policy": ("ToyPolicy", "score", "train"),
    "ranking": (
        "DynamicRanking",
        "SemanticRank",
        "brute_force_rank",
        "dynamic_rank",
        "semantic_rank",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
