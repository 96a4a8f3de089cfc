"""Alignment and comparison losses over candidate log-probabilities.

All functions here are pure: they take per-candidate policy scores
(mean token log-probabilities, natural log) plus distance-factor
matrices and return scalars.  Nothing in this module touches model
weights, which keeps the losses directly checkable against closed
forms and reusable by any log-probability provider.

The comparison loss runs M-1 rounds.  In each round one candidate b is
the positive: its reward weight is the product over attributes of the
largest entry in b's row of each single-attribute matrix, and every
other candidate gets a penalty weight drawn from b's row of the fused
matrix, sorted ascending and assigned so that candidates ranked higher
dynamically receive smaller penalties.  Two round schedules are
supported: ``literal`` takes positives from dynamic-rank positions
1..M-1 (the top response is handled by the alignment loss alone) and
``top_anchored``, the default, takes positions 0..M-2.

All rounds are computed at once: ``comparison_rounds`` builds an
(M-1) x M weight matrix whose row r holds round r's reward at its
positive and the penalties at its negatives, and ``weighted_rounds``
takes one row-wise logsumexp over score + log(weight) for every round's
softmax.  A zero weight is log 0 = -inf there, so that candidate adds
nothing to its round.  The cost is O(M^2 log M), the row sorts.
``plackett_luce_loss`` runs the same rounds with 0/1 weights.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .apdf import ApdfMatrix
from .constants import COMPARISON_MODES, DEFAULT_ALPHA, DEFAULT_MODE, MAX_SCALE, MODE_LITERAL, MODE_TOP_ANCHORED
from .corpus import Value
from .errors import DegenerateInputError, ValidationError
from .ranking import DynamicRanking

if TYPE_CHECKING:
    from .pipeline import PerceptionBundle

DEFAULT_DPO_BETA = 0.1


class LossBreakdown(Value):
    """The two objectives and their weight; `total` is l_pc + alpha * l_pa."""

    l_pa: float
    l_pc: float
    alpha: float

    def __post_init__(self):
        check_alpha(self.alpha)

    @property
    def total(self) -> float:
        return self.l_pc + self.alpha * self.l_pa

    def to_dict(self) -> dict:
        return {"l_pa": self.l_pa, "l_pc": self.l_pc, "alpha": self.alpha, "total": self.total}


def validate_policy_scores(pi_s: np.ndarray, size: int | None = None) -> np.ndarray:
    """Check a per-candidate score vector: 1-D, finite, no NaN."""
    pi_s = np.asarray(pi_s, dtype=np.float64)
    if pi_s.ndim != 1:
        raise ValidationError("policy scores must be a 1-D vector")
    if not np.all(np.isfinite(pi_s)):
        raise ValidationError("policy scores contain NaN or infinite entries")
    if size is not None and pi_s.size != size:
        raise ValidationError(f"expected {size} policy scores, got {pi_s.size}")
    return pi_s


def policy_scores_from_logprobs(token_logprobs: list[np.ndarray]) -> np.ndarray:
    """Mean token log-probability per candidate (natural-log units)."""
    return np.array([float(np.mean(np.asarray(lp, dtype=np.float64))) for lp in token_logprobs])


def perceptual_alignment_loss(pi_s: np.ndarray, d_r: DynamicRanking) -> float:
    """Mean negative log-likelihood of the top dynamically-ranked response: its negated policy score."""
    pi_s = validate_policy_scores(pi_s, len(d_r))
    return float(-pi_s[d_r.top()])


def perceptual_comparison_loss(
    pi_s: np.ndarray,
    d_r: DynamicRanking,
    single_matrices: list[ApdfMatrix],
    multi: ApdfMatrix,
    mode: str = DEFAULT_MODE,
) -> float:
    """Weighted list-wise softmax loss over M-1 rounds; >= 0 and finite."""
    return comparison_loss_and_score_grad(pi_s, d_r, single_matrices, multi, mode)[0]


def comparison_rounds(
    d_r: DynamicRanking, single_matrices: list[ApdfMatrix], multi: ApdfMatrix, mode: str = DEFAULT_MODE
) -> tuple[np.ndarray, np.ndarray]:
    """Each round's positive and the (M-1) x M matrix of its reward and penalty weights.

    Round r's positive sits at dynamic-rank position r + 1 (``literal``)
    or r (``top_anchored``).  A zero reward raises ``DegenerateInputError``
    naming its round; an overflowing one, ``ValidationError``.
    """
    size = multi.size
    if size < 2:
        raise ValidationError("comparison loss requires a pool of at least 2 candidates")
    if mode not in COMPARISON_MODES:
        raise ValidationError(f"unknown comparison mode {mode!r}; expected one of {COMPARISON_MODES}")
    if not single_matrices:
        raise ValidationError("reward weight requires at least one matrix")
    if any(matrix.size != size for matrix in single_matrices):
        raise ValidationError("single-attribute matrices must share one shape")
    if len(d_r) != size:
        raise ValidationError("dynamic ranking does not match matrix size")
    order = np.asarray(d_r.order, dtype=np.intp)
    rounds = np.arange(size - 1)
    position = rounds + (mode == MODE_LITERAL)
    positives = order[position]
    rewards = np.ones(size - 1)
    # Overflow is reported below as a non-finite reward.
    with np.errstate(over="ignore", invalid="ignore"):
        for matrix in single_matrices:
            rewards *= matrix.values.max(axis=1)[positives]
    unusable = ~np.isfinite(rewards) | (rewards == 0.0)
    if unusable.any():
        m = int(unusable.argmax())
        if not math.isfinite(rewards[m]):
            raise ValidationError(f"reward weight must be finite and >= 0, got {float(rewards[m])}")
        raise DegenerateInputError(
            f"round {m}: reward weight for candidate {positives[m]} is zero (all-zero matrix row)"
        )
    # Round r's negatives are the dynamic order without its positive, and their
    # penalties the positive's fused row sorted ascending without its smallest
    # entry: entries are nonnegative and the diagonal is zero, so that is a zero.
    # Sorted in place: np.sort's second copy would make this step about 3x slower at M=256.
    negatives = order[rounds + (rounds >= position[:, None])]
    penalties = multi.values[positives]
    penalties.sort(axis=1)
    weights = np.zeros((size - 1, size))
    weights[rounds[:, None], negatives] = penalties[:, 1:]
    weights[rounds, positives] = rewards
    return positives, weights


def weighted_rounds(
    scores: np.ndarray, positives: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Summed loss, score gradient and per-round softmax of weighted rounds.

    Round r is a softmax over scores + log(weights[r]) with target
    ``positives[r]``; a zero weight gives its candidate probability 0.0.
    The logits overwrite ``weights`` and the softmax is normalized in
    place, which keeps the peak memory to a few rounds x M arrays.
    """
    with np.errstate(divide="ignore"):
        log_scores = np.log(weights, out=weights)
    log_scores += scores
    peak = log_scores.max(axis=1, keepdims=True)
    probs = log_scores - peak
    np.exp(probs, out=probs)
    totals = probs.sum(axis=1, keepdims=True)
    loss = float(np.sum(peak[:, 0] + np.log(totals[:, 0]) - log_scores[np.arange(positives.size), positives]))
    probs /= totals
    grad = probs.sum(axis=0) - np.bincount(positives, minlength=scores.size)
    return loss, grad, probs


def comparison_loss_and_score_grad(
    pi_s: np.ndarray,
    d_r: DynamicRanking,
    single_matrices: list[ApdfMatrix],
    multi: ApdfMatrix,
    mode: str = DEFAULT_MODE,
) -> tuple[float, np.ndarray]:
    """Comparison loss plus its gradient with respect to the score vector."""
    pi_s = validate_policy_scores(pi_s, multi.size)
    positives, weights = comparison_rounds(d_r, single_matrices, multi, mode)
    return weighted_rounds(pi_s, positives, weights)[:2]


def check_alpha(alpha: float) -> float:
    """The alignment-loss weight, if it is finite and in [0, MAX_SCALE]."""
    if not (math.isfinite(alpha) and 0 <= alpha <= MAX_SCALE):
        raise ValidationError(f"alpha must be finite and in [0, {MAX_SCALE:g}], got {alpha}")
    return alpha


def record_loss(
    pi_s: np.ndarray, perception: PerceptionBundle, alpha: float = DEFAULT_ALPHA, mode: str = DEFAULT_MODE
) -> LossBreakdown:
    """One record's combined loss from its candidates' policy scores and its perception."""
    l_pa = perceptual_alignment_loss(pi_s, perception.dynamic)
    # Through the module global, the name that bench/tracing.py times `loss`'s comparison loss by.
    l_pc = perceptual_comparison_loss(pi_s, perception.dynamic, perception.singles, perception.multi, mode)
    return LossBreakdown(l_pa, l_pc, alpha)


def dpo_pair_loss(
    pi_theta_w: float,
    pi_theta_l: float,
    pi_ref_w: float,
    pi_ref_l: float,
    beta: float = DEFAULT_DPO_BETA,
) -> float:
    """Pairwise Bradley-Terry preference loss on sequence log-probabilities."""
    if beta <= 0:
        raise ValidationError(f"beta must be > 0, got {beta}")
    for value in (pi_theta_w, pi_theta_l, pi_ref_w, pi_ref_l):
        if not math.isfinite(value):
            raise ValidationError("log-probability inputs must be finite")
    margin = beta * ((pi_theta_w - pi_ref_w) - (pi_theta_l - pi_ref_l))
    # -log(sigmoid(margin)) == softplus(-margin), computed stably.
    return float(np.logaddexp(0.0, -margin))


def plackett_luce_loss(
    pi_theta: np.ndarray,
    pi_ref: np.ndarray,
    ranking: list[int],
    beta: float = DEFAULT_DPO_BETA,
) -> float:
    """Negative log-likelihood of a full ranking under the listwise model.

    Rewards are beta * (pi_theta - pi_ref); the preferred candidate comes
    first in ``ranking``.  The loss is ``weighted_rounds`` with 0/1 weights;
    for M == 2 it is :func:`dpo_pair_loss` up to rounding.
    """
    if beta <= 0:
        raise ValidationError(f"beta must be > 0, got {beta}")
    pi_theta = validate_policy_scores(pi_theta)
    pi_ref = validate_policy_scores(pi_ref, pi_theta.size)
    size = pi_theta.size
    if size < 2:
        raise ValidationError("listwise loss requires at least 2 candidates")
    if sorted(ranking) != list(range(size)):
        raise ValidationError("ranking must be a permutation of 0..M-1")
    # Round r's positive is order[r]; weight 1 on each candidate not yet placed (position >= r).
    order = np.asarray(ranking, dtype=np.intp)
    weights = np.triu(np.ones((size - 1, size)))[:, np.argsort(order)]
    return weighted_rounds(beta * (pi_theta - pi_ref), order[:-1], weights)[0]
