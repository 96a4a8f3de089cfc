"""In-memory spans around calls into prefrank's modules.

The tracer replaces a public function at the name its caller looks it
up by (``pipeline`` imports ``single_apdf`` by name, so the wrapper goes
on ``prefrank.pipeline.single_apdf``) and restores every original on
``uninstall``.  Spans are kept in memory and written out when the run
ends.  Functions called many times per record with little work each
(``cosine``, ``question_bias``) are counted rather than timed, so the
tracer does not dwarf them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter


def _pool_size(position: int, attr: str):
    def size_of(*args):
        value = getattr(args[position], attr)
        return value if isinstance(value, int) else len(value)

    return size_of


# (module the caller looks the name up in, attribute, span name, pool size of a call)
TIMED = [
    ("prefrank.corpus", "parse_dump", "corpus.parse_dump", None),
    ("prefrank.corpus", "clean_entries", "corpus.clean_entries", None),
    ("prefrank.corpus", "apply_quality_filters", "corpus.apply_quality_filters", None),
    ("prefrank.corpus", "write_records", "corpus.write_records", None),
    ("prefrank.corpus", "read_records", "corpus.read_records", None),
    ("prefrank.embed:HashedNgramEmbedder", "embed", "embed.embed", None),
    ("prefrank.cli", "load_external_embeddings", "embed.load_external_embeddings", None),
    ("prefrank.embed", "load_external_embeddings", "embed.load_external_embeddings", None),
    ("prefrank.cli", "write_external_embeddings", "embed.write_external_embeddings", None),
    ("prefrank.pipeline", "build_perception", "pipeline.build_perception", _pool_size(0, "pool_size")),
    ("prefrank.pipeline", "semantic_gains", "apdf.semantic_gains", None),
    ("prefrank.pipeline", "popularity_gains", "apdf.popularity_gains", None),
    ("prefrank.pipeline", "single_apdf", "apdf.single_apdf", None),
    ("prefrank.pipeline", "multi_apdf", "apdf.multi_apdf", None),
    ("prefrank.pipeline", "semantic_rank", "ranking.semantic_rank", None),
    ("prefrank.pipeline", "dynamic_rank", "ranking.dynamic_rank", _pool_size(0, "size")),
    ("prefrank.objective", "perceptual_comparison_loss", "objective.perceptual_comparison_loss",
     _pool_size(1, "order")),
    ("prefrank.objective", "comparison_loss_and_score_grad", "objective.comparison_loss_and_score_grad",
     _pool_size(1, "order")),
    ("prefrank.policy", "loss_gradient", "policy.loss_gradient", _pool_size(1, "pool_size")),
    ("prefrank.policy", "load_logprob_file", "policy.load_logprob_file", None),
    ("prefrank.evaluation", "build_outcomes", "evaluation.build_outcomes", None),
    ("prefrank.evaluation", "pool_similarities", "evaluation.pool_similarities", None),
    ("prefrank.evaluation", "bleu", "evaluation.bleu", None),
    ("prefrank.evaluation", "rouge_l", "evaluation.rouge_l", None),
]

COUNTED = [
    ("prefrank.embed", "cosine", "embed.cosine"),  # apdf.semantic_gains imports it per call
    ("prefrank.ranking", "cosine", "embed.cosine"),
    ("prefrank.evaluation", "cosine", "embed.cosine"),
    ("prefrank.policy", "question_bias", "policy.question_bias"),
]


@dataclass
class Span:
    trace_id: str
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    size: int | None


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (trace_id, name) -> calls
        self.trace_id = ""
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patches: list = []

    def install(self, trace_id: str) -> None:
        self.trace_id = trace_id
        for path, attr, name, size_of in TIMED:
            self._patch(path, attr, self._timed(name, size_of))
        for path, attr, name in COUNTED:
            self._patch(path, attr, self._counted(name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, path: str, attr: str, make) -> None:
        module, _, cls = path.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    @contextmanager
    def span(self, name: str, size: int | None = None):
        parent = self._stack[-1] if self._stack else None
        span_id = next(self._ids)
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(self.trace_id, span_id, parent, name, start, end, size))

    def _timed(self, name, size_of):
        def make(original):
            def traced(*args, **kwargs):
                with self.span(name, size_of(*args) if size_of else None):
                    return original(*args, **kwargs)

            return traced

        return make

    def _counted(self, name):
        def make(original):
            def counted(*args, **kwargs):
                self.counts[(self.trace_id, name)] += 1
                return original(*args, **kwargs)

            return counted

        return make

    def layer_stats(self, trace_ids) -> dict[str, LayerStats]:
        """Calls, busy time, self time and durations per span name."""
        spans = [s for s in self.spans if s.trace_id in trace_ids]
        child_time = defaultdict(float)
        for s in spans:
            if s.parent_id is not None:
                child_time[(s.trace_id, s.parent_id)] += s.end - s.start
        stats: dict[str, LayerStats] = {}
        for s in spans:
            st = stats.setdefault(s.name, LayerStats())
            st.calls += 1
            st.busy_s += s.end - s.start
            st.self_s += s.end - s.start - child_time[(s.trace_id, s.span_id)]
            st.durations.append(s.end - s.start)
        for (trace_id, name), calls in self.counts.items():
            if trace_id in trace_ids:
                stats.setdefault(name, LayerStats()).calls += calls
        return stats

    def p50_by_size(self, trace_id: str) -> dict[tuple[str, int], float]:
        groups = defaultdict(list)
        for s in self.spans:
            if s.trace_id == trace_id and s.size is not None:
                groups[(s.name, s.size)].append(s.end - s.start)
        return {key: statistics.median(durations) for key, durations in groups.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(asdict(s)) + "\n")
            for (trace_id, name), calls in sorted(self.counts.items()):
                handle.write(json.dumps({"trace_id": trace_id, "name": name, "calls": calls}) + "\n")


def tail(durations: list[float]) -> float:
    """The highest sample with at least 10 samples above it.

    That is the highest percentile the sample supports; below 11 samples
    it falls back to the smallest sample.
    """
    ordered = sorted(durations)
    return ordered[max(0, len(ordered) - 11)]
