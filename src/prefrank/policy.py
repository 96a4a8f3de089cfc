"""The toy policy: a byte-level bigram softmax language model small
enough to train at desk scale with exact analytic gradients.

It conditions on the question through a fixed hashed bias on the
logits; it is a numerical test vehicle, not a language model in any
linguistic sense.  Scores and gradients compute only the context rows a
pool uses; every other row's gradient is exactly zero, and `loss_gradient`
says why it stays dense.  The other log-probability provider, the logprob
file that any external model writes, is read by `corpus.load_logprob_file`,
which resolves here too; `logprob_table` gives this policy's rows for that file.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from . import objective
from .constants import DEFAULT_INIT_SCALE, DEFAULT_LEARNING_RATE, DEFAULT_QUESTION_SCALE, MAX_SCALE
from .corpus import QARecord, Value, load_logprob_file  # noqa: F401  cli and bench/ call load_logprob_file here
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


class ToyPolicy:
    """Byte-level bigram softmax LM with a question-conditioned logit bias.

    ``weights[c, v]`` is the logit for next byte v given previous byte c
    (row BOS for the first byte).  Only ``weights`` is trainable.
    """

    __slots__ = ("weights", "learning_rate", "seed", "question_scale")

    def __init__(self, weights: np.ndarray, learning_rate: float = DEFAULT_LEARNING_RATE, seed: int = 0,
                 question_scale: float = DEFAULT_QUESTION_SCALE):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.learning_rate, self.seed, self.question_scale = learning_rate, seed, question_scale
        if self.weights.shape != (CONTEXTS, VOCAB):
            raise ValidationError(
                f"weights must have shape {(CONTEXTS, VOCAB)}, got {self.weights.shape}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValidationError("weights must be finite")
        # The checkpoint stores the seed as a signed 64-bit field.
        if not 0 <= self.seed < 2**63:
            raise ValidationError(f"seed must be in [0, 2**63), got {self.seed}")
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
        The constructor checks the seed before numpy's generator sees it."""
        policy = cls(np.zeros((CONTEXTS, VOCAB)), learning_rate, seed, question_scale)
        _check_scale("init_scale", init_scale)
        policy.weights[:] = init_scale * np.random.default_rng(seed).standard_normal((CONTEXTS, VOCAB))
        return policy

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
        try:
            return cls(weights, learning_rate, seed, question_scale)
        except ValidationError as exc:
            raise SchemaError(f"{path}: {exc}") from None


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


def _pool_log_probs(
    policy: ToyPolicy, question: str, responses: list[str]
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Each response's token log-probabilities, and the rows they come from.

    Row c is the log-softmax of ``weights[c]`` plus the question bias; it
    depends only on the previous byte c (BOS before the first byte).  Only
    the pool's distinct contexts, `rows`, ascending, are computed, each by
    the float operations a full CONTEXTS x VOCAB table takes, so `table[i]`
    equals row ``rows[i]`` of it bit for bit; `entries` holds each pool
    token's flat index into `table`, response after response.
    """
    pool = [_response_arrays(response) for response in responses]
    contexts = np.concatenate([ctx for ctx, _ in pool])
    used = np.bincount(contexts, minlength=CONTEXTS) > 0
    rows = np.flatnonzero(used)
    logits = policy.weights[rows] + question_bias(question, policy.question_scale)
    shifted = logits - logits.max(axis=1, keepdims=True)
    table = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    entries = (np.cumsum(used) - 1)[contexts] * VOCAB + np.concatenate([tok for _, tok in pool])
    return np.split(table.ravel()[entries], np.cumsum([tok.size for _, tok in pool])[:-1]), rows, entries, table


def logprob_table(policy: ToyPolicy, records: list[QARecord]) -> dict[tuple[str, str], np.ndarray]:
    """Every candidate's token log-probabilities, keyed as `corpus.write_logprob_file` writes them."""
    table = {}
    for record in records:
        log_probs = _pool_log_probs(policy, record.question_text, [c.content for c in record.candidates])[0]
        table.update(((record.question_id, c.id), row) for c, row in zip(record.candidates, log_probs))
    return table


def score(policy: ToyPolicy, question: str, response: str) -> np.ndarray:
    """Token log-probabilities of the response under the policy.

    Autoregressive over bytes: entry k depends only on the question and
    bytes before k.
    """
    return _pool_log_probs(policy, question, [response])[0][0]


def record_scores(policy: ToyPolicy, record: QARecord) -> np.ndarray:
    """Mean token log-probability per candidate, in pool order."""
    log_probs = _pool_log_probs(policy, record.question_text, [c.content for c in record.candidates])[0]
    return objective.policy_scores_from_logprobs(log_probs)


def loss_gradient(
    policy: ToyPolicy,
    record: QARecord,
    perception: PerceptionBundle,
    alpha: float = objective.DEFAULT_ALPHA,
    mode: str = objective.DEFAULT_MODE,
) -> tuple[objective.LossBreakdown, np.ndarray]:
    """Loss and its exact gradient with respect to the policy weights.

    With token k of candidate c weighted w_k = -dL/dpi_c / T_c, row r of
    the gradient is sum over tokens with context r of w_k * (probs[r] -
    onehot(token k)): the row's total w times probs[r], minus w per bigram.
    Only the pool's context rows are computed; every other row is exactly
    zero.  The gradient stays dense: `train` subtracts it whole through this
    module-level name, which bench/tracing.py patches, and tests index it.
    """
    responses = [c.content for c in record.candidates]
    log_probs, rows, entries, table = _pool_log_probs(policy, record.question_text, responses)
    pi_s = objective.policy_scores_from_logprobs(log_probs)

    l_pa = objective.perceptual_alignment_loss(pi_s, perception.dynamic)
    l_pc, d_pi = objective.comparison_loss_and_score_grad(
        pi_s, perception.dynamic, perception.singles, perception.multi, mode
    )
    d_pi[perception.dynamic.top()] -= alpha
    breakdown = objective.LossBreakdown(l_pa, l_pc, alpha)

    lengths = np.array([lp.size for lp in log_probs])
    token_weight = np.repeat(-d_pi / lengths, lengths)
    row_weight = np.bincount(entries // VOCAB, weights=token_weight, minlength=rows.size)
    bigram_weight = np.bincount(entries, weights=token_weight, minlength=table.size)
    grad = np.zeros((CONTEXTS, VOCAB))
    grad[rows] = row_weight[:, None] * np.exp(table) - bigram_weight.reshape(table.shape)
    return breakdown, grad


class TrainResult(Value):
    """The per-step loss trace, one entry per record update."""

    trace: tuple[objective.LossBreakdown, ...]

    @property
    def totals(self) -> np.ndarray:
        return np.array([b.total for b in self.trace])


def train(
    policy: ToyPolicy,
    prepared: list[PreparedRecord],
    epochs: int = 1,
    alpha: float = objective.DEFAULT_ALPHA,
    mode: str = objective.DEFAULT_MODE,
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
    trace = []
    for _ in range(epochs):
        for item in ordered:
            with naming_record(item.record.question_id):
                breakdown, grad = loss_gradient(policy, item.record, item.perception, alpha, mode)
                if not np.isfinite(breakdown.total):
                    raise DegenerateInputError(f"non-finite loss at step {len(trace)}")
            trace.append(breakdown)
            policy.weights -= policy.learning_rate * grad
    return TrainResult(tuple(trace))
