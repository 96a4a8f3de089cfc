"""The toy policy: a byte-level bigram softmax language model small
enough to train at desk scale with exact analytic gradients.

It conditions on the question through a fixed hashed bias on the
logits; it is a numerical test vehicle, not a language model in any
linguistic sense.  The other log-probability provider, the table of
scores that any external model writes, is read by `corpus`
(``LogProbTable``, ``load_logprob_file``); both names resolve here too.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import objective
from .constants import DEFAULT_INIT_SCALE, DEFAULT_LEARNING_RATE, DEFAULT_QUESTION_SCALE, MAX_SCALE
from .corpus import LogProbTable, QARecord, load_logprob_file  # noqa: F401  cli and bench/ call them here
from .errors import DegenerateInputError, SchemaError, ValidationError, naming_record
from .pipeline import PerceptionBundle, PreparedRecord

VOCAB = 256
BOS = VOCAB  # context index for the first response byte
CONTEXTS = VOCAB + 1

_CHECKPOINT_MAGIC = b"PRNKPOL1"
_CHECKPOINT_VERSION = 1


def question_bias(question: str, scale: float) -> np.ndarray:
    """Fixed per-question logit bias from a hash of the question text.

    Deterministic and non-trainable; empty questions get a zero bias.
    """
    if scale == 0.0 or not question:
        return np.zeros(VOCAB)
    digest = hashlib.blake2b(question.encode("utf-8"), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    return scale * rng.standard_normal(VOCAB)


@dataclass
class ToyPolicy:
    """Byte-level bigram softmax LM with a question-conditioned logit bias.

    ``weights[c, v]`` is the logit for next byte v given previous byte c
    (row BOS for the first byte).  Only ``weights`` is trainable.
    """

    weights: np.ndarray
    learning_rate: float = DEFAULT_LEARNING_RATE
    seed: int = 0
    question_scale: float = DEFAULT_QUESTION_SCALE

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (CONTEXTS, VOCAB):
            raise ValidationError(
                f"weights must have shape {(CONTEXTS, VOCAB)}, got {self.weights.shape}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValidationError("weights must be finite")
        for name in ("learning_rate", "question_scale"):
            _check_scale(name, getattr(self, name))

    @classmethod
    def fresh(
        cls,
        seed: int = 0,
        init_scale: float = DEFAULT_INIT_SCALE,
        learning_rate: float = DEFAULT_LEARNING_RATE,
        question_scale: float = DEFAULT_QUESTION_SCALE,
    ) -> "ToyPolicy":
        """New policy with small seeded-noise weights (uniform if init_scale=0).

        The seed must fit the checkpoint's signed 64-bit field."""
        if not 0 <= seed < 2**63:
            raise ValidationError(f"seed must be in [0, 2**63), got {seed}")
        _check_scale("init_scale", init_scale)
        rng = np.random.default_rng(seed)
        weights = init_scale * rng.standard_normal((CONTEXTS, VOCAB))
        return cls(
            weights=weights,
            learning_rate=learning_rate,
            seed=seed,
            question_scale=question_scale,
        )

    def save(self, path) -> None:
        """Write the checkpoint; weights that training drove non-finite are refused."""
        if not np.all(np.isfinite(self.weights)):
            raise DegenerateInputError("weights are not finite; checkpoint not written")
        header = struct.pack(
            "<8sIIIqdd",
            _CHECKPOINT_MAGIC,
            _CHECKPOINT_VERSION,
            CONTEXTS,
            VOCAB,
            self.seed,
            self.learning_rate,
            self.question_scale,
        )
        with open(path, "wb") as handle:
            handle.write(header)
            handle.write(self.weights.astype("<f8").tobytes())

    @classmethod
    def load(cls, path) -> "ToyPolicy":
        with open(path, "rb") as handle:
            raw = handle.read()
        header_size = struct.calcsize("<8sIIIqdd")
        if len(raw) < header_size:
            raise SchemaError(f"{path}: truncated policy checkpoint")
        magic, version, contexts, vocab, seed, learning_rate, question_scale = struct.unpack(
            "<8sIIIqdd", raw[:header_size]
        )
        if magic != _CHECKPOINT_MAGIC:
            raise SchemaError(f"{path}: not a policy checkpoint (bad magic)")
        if version != _CHECKPOINT_VERSION:
            raise SchemaError(f"{path}: unsupported checkpoint version {version}")
        if (contexts, vocab) != (CONTEXTS, VOCAB):
            raise SchemaError(f"{path}: unexpected dimensions {contexts}x{vocab}")
        expected = header_size + contexts * vocab * 8
        if len(raw) != expected:
            raise SchemaError(f"{path}: checkpoint size {len(raw)} != expected {expected}")
        weights = np.frombuffer(raw[header_size:], dtype="<f8").reshape(contexts, vocab).copy()
        return cls(
            weights=weights,
            learning_rate=learning_rate,
            seed=seed,
            question_scale=question_scale,
        )


def _check_scale(name: str, value: float) -> None:
    if not (math.isfinite(value) and abs(value) <= MAX_SCALE):
        raise ValidationError(f"{name} must be finite and at most {MAX_SCALE:g} in size, got {value}")


def _response_arrays(response: str) -> tuple[np.ndarray, np.ndarray]:
    data = response.encode("utf-8")
    if not data:
        raise ValidationError("response must be non-empty")
    tokens = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    contexts = np.concatenate(([BOS], tokens[:-1]))
    return contexts, tokens


def log_prob_table(policy: ToyPolicy, question: str) -> np.ndarray:
    """Next-byte log-probabilities for every context row under one question.

    Row c is the log-softmax of ``weights[c]`` plus the question bias.  It
    depends only on the previous byte c (BOS before the first byte), so
    one CONTEXTS x VOCAB table scores every candidate of a question.
    """
    logits = policy.weights + question_bias(question, policy.question_scale)
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def score(policy: ToyPolicy, question: str, response: str) -> np.ndarray:
    """Token log-probabilities of the response under the policy.

    Autoregressive over bytes: entry k depends only on the question and
    bytes before k.
    """
    contexts, tokens = _response_arrays(response)
    return log_prob_table(policy, question)[contexts, tokens]


def _pool_scores(table: np.ndarray, pool: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    return objective.policy_scores_from_logprobs([table[contexts, tokens] for contexts, tokens in pool])


def record_scores(policy: ToyPolicy, record: QARecord) -> np.ndarray:
    """Mean token log-probability per candidate, in pool order."""
    pool = [_response_arrays(c.content) for c in record.candidates]
    return _pool_scores(log_prob_table(policy, record.question_text), pool)


def loss_gradient(
    policy: ToyPolicy,
    record: QARecord,
    perception: PerceptionBundle,
    alpha: float = objective.DEFAULT_ALPHA,
    mode: str = objective.MODE_LITERAL,
) -> tuple[objective.LossBreakdown, np.ndarray]:
    """Loss and its exact gradient with respect to the policy weights.

    With token k of candidate c weighted w_k = -dL/dpi_c / T_c, row r of
    the gradient is sum over tokens with context r of w_k * (probs[r] -
    onehot(token k)): the row's total w times probs[r], minus w per bigram.
    """
    table = log_prob_table(policy, record.question_text)
    pool = [_response_arrays(c.content) for c in record.candidates]
    pi_s = _pool_scores(table, pool)

    l_pa = objective.perceptual_alignment_loss(pi_s, perception.dynamic)
    l_pc, d_pi = objective.comparison_loss_and_score_grad(
        pi_s, perception.dynamic, perception.singles, perception.multi, mode
    )
    d_pi[perception.dynamic.top()] -= alpha
    breakdown = objective.total_loss(l_pc, l_pa, alpha)

    lengths = np.array([tok.size for _, tok in pool])
    token_weight = np.repeat(-d_pi / lengths, lengths)
    contexts = np.concatenate([ctx for ctx, _ in pool])
    tokens = np.concatenate([tok for _, tok in pool])
    row_weight = np.bincount(contexts, weights=token_weight, minlength=CONTEXTS)
    bigram_weight = np.bincount(
        contexts * VOCAB + tokens, weights=token_weight, minlength=CONTEXTS * VOCAB
    ).reshape(CONTEXTS, VOCAB)
    grad = row_weight[:, None] * np.exp(table) - bigram_weight
    return breakdown, grad


@dataclass
class TrainResult:
    """The per-step loss trace, one entry per record update."""

    trace: list[objective.LossBreakdown] = field(default_factory=list)

    @property
    def totals(self) -> np.ndarray:
        return np.array([b.total for b in self.trace])


def train(
    policy: ToyPolicy,
    prepared: list[PreparedRecord],
    epochs: int = 1,
    alpha: float = objective.DEFAULT_ALPHA,
    mode: str = objective.MODE_LITERAL,
) -> TrainResult:
    """Plain gradient descent over records in id order, mutating the policy.

    Deterministic: records are visited sorted by question id, every
    epoch, with no shuffling, so a fixed seed reproduces bit-identical
    weights.  A non-finite loss aborts with the failing step number; a
    degenerate record aborts with an error naming its question id.
    """
    if not prepared:
        raise ValidationError("training requires at least one record")
    if epochs < 0:
        raise ValidationError("epochs must be >= 0")
    objective.check_alpha(alpha)
    ordered = sorted(prepared, key=lambda p: p.record.question_id)
    result = TrainResult()
    step = 0
    for _ in range(epochs):
        for item in ordered:
            with naming_record(item.record.question_id):
                breakdown, grad = loss_gradient(policy, item.record, item.perception, alpha, mode)
                if not np.isfinite(breakdown.total):
                    raise DegenerateInputError(f"non-finite loss at step {step}")
            result.trace.append(breakdown)
            policy.weights -= policy.learning_rate * grad
            step += 1
    return result
