"""Toy policy scoring, analytic gradients, training, logprob files."""

import math
import re
import struct

import numpy as np
import pytest

from prefrank.apdf import GainVector, multi_apdf, single_apdf
from prefrank.cli import build_parser
from prefrank.corpus import logprob_rows, write_logprob_file
from prefrank.embed import HashedNgramEmbedder
from prefrank.errors import DegenerateInputError, SchemaError, ValidationError
from prefrank.evaluation import RecordOutcome, pool_similarities, pref_hit
from prefrank.objective import (
    MODE_LITERAL,
    MODE_TOP_ANCHORED,
    comparison_loss_and_score_grad,
    policy_scores_from_logprobs,
    record_loss,
)
from prefrank.pipeline import PerceptionBundle, PreparedRecord
from prefrank.policy import (
    BOS,
    CONTEXTS,
    VOCAB,
    ToyPolicy,
    load_logprob_file,
    logprob_table,
    loss_gradient,
    question_bias,
    record_scores,
    score,
    train,
)
from prefrank.ranking import DynamicRanking, SemanticRank

from conftest import make_candidate, make_record


def uniform_policy(**kwargs):
    return ToyPolicy.fresh(seed=0, init_scale=0.0, question_scale=0.0, **kwargs)


class TestScore:
    def test_uniform_single_token(self):
        logprobs = score(uniform_policy(), "q", "x")
        assert logprobs.shape == (1,)
        assert logprobs[0] == pytest.approx(math.log(1.0 / VOCAB), abs=1e-12)

    def test_deterministic(self):
        policy = ToyPolicy.fresh(seed=3)
        a = score(policy, "how?", "because of the cache")
        b = score(policy, "how?", "because of the cache")
        assert a.tobytes() == b.tobytes()

    def test_length_matches_byte_count(self):
        text = "héllo"  # 6 bytes in UTF-8
        assert score(uniform_policy(), "q", text).size == len(text.encode("utf-8"))

    def test_entries_nonpositive(self):
        policy = ToyPolicy.fresh(seed=4, init_scale=0.5)
        logprobs = score(policy, "question", "some response text")
        assert np.all(logprobs <= 0.0)

    def test_empty_response_rejected(self):
        with pytest.raises(ValidationError):
            score(uniform_policy(), "q", "")

    def test_autoregressive_prefix_invariance(self):
        policy = ToyPolicy.fresh(seed=5, init_scale=0.3)
        a = score(policy, "q", "shared prefix THEN one")
        b = score(policy, "q", "shared prefix THEN two")
        shared = len("shared prefix THEN ")
        assert np.array_equal(a[:shared], b[:shared])

    def test_mean_is_policy_score(self):
        policy = ToyPolicy.fresh(seed=6)
        record = make_record(
            candidates=(
                make_candidate(0, content="aardvark", accepted=True),
                make_candidate(1, content="zebra"),
            )
        )
        pi = record_scores(policy, record)
        expected = [
            float(np.mean(score(policy, record.question_text, c.content)))
            for c in record.candidates
        ]
        assert pi.tolist() == expected


class TestQuestionBias:
    def test_empty_question_zero(self):
        assert not question_bias("", 0.1).any()

    def test_zero_scale_zero(self):
        assert not question_bias("anything", 0.0).any()

    def test_deterministic_and_question_dependent(self):
        a = question_bias("what is x?", 0.1)
        b = question_bias("what is x?", 0.1)
        c = question_bias("what is y?", 0.1)
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        policy = ToyPolicy.fresh(seed=9, init_scale=0.2, learning_rate=0.25, question_scale=0.05)
        path = tmp_path / "policy.bin"
        policy.save(path)
        loaded = ToyPolicy.load(path)
        assert loaded.weights.tobytes() == policy.weights.tobytes()
        assert loaded.learning_rate == policy.learning_rate
        assert loaded.seed == policy.seed
        assert loaded.question_scale == policy.question_scale

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "policy.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(SchemaError):
            ToyPolicy.load(path)

    def test_truncated_rejected(self, tmp_path):
        policy = ToyPolicy.fresh(seed=0)
        path = tmp_path / "policy.bin"
        policy.save(path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(SchemaError):
            ToyPolicy.load(path)

    @pytest.mark.parametrize("field", ["learning_rate", "question_scale"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_hyperparameter_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            ToyPolicy.fresh(seed=0, **{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("weights", math.nan, "weights must be finite"),
            ("weights", math.inf, "weights must be finite"),
            ("learning_rate", math.nan, "learning_rate must be finite"),
            ("question_scale", -math.inf, "question_scale must be finite"),
            ("seed", -5, re.escape("seed must be in [0, 2**63), got -5")),
            ("seed", 2**63, re.escape(f"seed must be in [0, 2**63), got {2**63}")),
        ],
    )
    def test_constructor_gate(self, field, value, message):
        weights = np.zeros((CONTEXTS, VOCAB))
        kwargs = {"weights": weights}
        if field == "weights":
            weights[3, 4] = value
        else:
            kwargs[field] = value
        with pytest.raises(ValidationError, match=message):
            ToyPolicy(**kwargs)

    # Offsets into the "<8sIIIqdd" header (44 bytes), then into the weights.
    @pytest.mark.parametrize(
        "offset, fmt, value, message",
        [
            (20, "<q", -5, re.escape("seed must be in [0, 2**63), got -5")),
            (28, "<d", math.nan, "learning_rate must be finite"),
            (36, "<d", math.inf, "question_scale must be finite"),
            (44 + 8 * 300, "<d", math.nan, "weights must be finite"),
        ],
    )
    def test_invalid_checkpoint_field_is_a_schema_error_naming_the_path(
        self, tmp_path, offset, fmt, value, message
    ):
        path = tmp_path / "policy.bin"
        ToyPolicy.fresh(seed=0).save(path)
        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(SchemaError, match=re.escape(f"{path}: ") + message):
            ToyPolicy.load(path)

    def test_non_finite_weights_are_not_saved(self, tmp_path):
        policy = ToyPolicy.fresh(seed=0)
        policy.weights[3, 4] = np.inf  # as an overflowing update would leave them
        path = tmp_path / "policy.bin"
        with pytest.raises(DegenerateInputError, match="not finite"):
            policy.save(path)
        assert not path.exists()

    def test_softmax_rows_normalized(self):
        policy = ToyPolicy.fresh(seed=10, init_scale=0.4)
        logits = policy.weights
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert policy.weights.shape == (CONTEXTS, VOCAB)
        assert BOS == VOCAB


def finite_difference_check(policy, record, perception, alpha, mode, rng, coords=40, h=1e-5):
    """Max relative error between analytic gradient and central differences
    over sampled coordinates with non-negligible analytic value."""
    breakdown, grad = loss_gradient(policy, record, perception, alpha, mode)
    rows, cols = np.nonzero(np.abs(grad) > 1e-6)
    if rows.size == 0:
        return 0.0
    pick = rng.choice(rows.size, size=min(coords, rows.size), replace=False)
    max_rel = 0.0
    for idx in pick:
        r, c = int(rows[idx]), int(cols[idx])
        original = policy.weights[r, c]
        policy.weights[r, c] = original + h
        up = record_loss(record_scores(policy, record), perception, alpha, mode).total
        policy.weights[r, c] = original - h
        down = record_loss(record_scores(policy, record), perception, alpha, mode).total
        policy.weights[r, c] = original
        fd = (up - down) / (2 * h)
        rel = abs(fd - grad[r, c]) / max(abs(fd), abs(grad[r, c]))
        max_rel = max(max_rel, rel)
    return max_rel


class TestLossGradient:
    def test_matches_finite_differences(self, synthetic_suite):
        rng = np.random.default_rng(41)
        policy = ToyPolicy.fresh(seed=11, init_scale=5e-2)
        for item in synthetic_suite[:5]:
            err = finite_difference_check(
                policy, item.record, item.perception, alpha=0.05, mode=MODE_TOP_ANCHORED, rng=rng
            )
            assert err < 1e-4

    def test_loss_equals_record_loss(self, synthetic_suite):
        policy = ToyPolicy.fresh(seed=15, init_scale=5e-2)
        for item in synthetic_suite:
            for mode in (MODE_LITERAL, MODE_TOP_ANCHORED):
                breakdown, _ = loss_gradient(policy, item.record, item.perception, 0.05, mode)
                scores = record_scores(policy, item.record)
                assert breakdown == record_loss(scores, item.perception, 0.05, mode)

    def test_matches_per_token_reference(self, synthetic_suite):
        # Reference: accumulate d(pi)/d(logits) = (onehot - probs) / T token
        # by token.  The closed form sums in another order, so compare to
        # float64 rounding relative to the largest entry.
        policy = ToyPolicy.fresh(seed=16, init_scale=5e-2)
        for item in synthetic_suite[:10]:
            record, perception = item.record, item.perception
            _, grad = loss_gradient(policy, record, perception, 0.05, MODE_TOP_ANCHORED)
            pi_s = record_scores(policy, record)
            _, d_pi = comparison_loss_and_score_grad(
                pi_s, perception.dynamic, perception.singles, perception.multi, MODE_TOP_ANCHORED
            )
            d_pi[perception.dynamic.top()] -= 0.05
            bias = question_bias(record.question_text, policy.question_scale)
            expected = np.zeros_like(policy.weights)
            for coeff, candidate in zip(d_pi, record.candidates):
                data = candidate.content.encode("utf-8")
                for context, token in zip((BOS, *data[:-1]), data):
                    logits = policy.weights[context] + bias
                    probs = np.exp(logits - logits.max())
                    probs /= probs.sum()
                    probs[token] -= 1.0
                    expected[context] -= (coeff / len(data)) * probs
            assert np.max(np.abs(grad - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_alpha_zero_is_comparison_gradient_alone(self, synthetic_suite):
        item = synthetic_suite[0]
        policy = ToyPolicy.fresh(seed=12, init_scale=5e-2)
        b0, g0 = loss_gradient(policy, item.record, item.perception, alpha=0.0)
        assert b0.total == b0.l_pc
        # Linearity in alpha: grad(a) == grad(0) + a * (grad(1) - grad(0)).
        _, g1 = loss_gradient(policy, item.record, item.perception, alpha=1.0)
        _, gm = loss_gradient(policy, item.record, item.perception, alpha=0.4)
        assert np.allclose(gm, g0 + 0.4 * (g1 - g0), atol=1e-12)

    def test_untouched_rows_have_zero_gradient(self, synthetic_suite):
        item = synthetic_suite[0]
        policy = ToyPolicy.fresh(seed=13)
        _, grad = loss_gradient(policy, item.record, item.perception)
        used = {BOS}
        for candidate in item.record.candidates:
            used.update(candidate.content.encode("utf-8")[:-1])
        untouched = sorted(set(range(CONTEXTS)) - used)
        assert not grad[untouched].any()

    def test_zero_gradient_at_constructed_optimum(self):
        # Weights so extreme the positive's byte has probability exactly 1
        # in float64 (the competitor underflows to 0): the alignment loss,
        # the single comparison round, and the whole gradient are exact 0.
        policy = uniform_policy()
        policy.weights[BOS, ord("a")] = 1000.0
        record = make_record(
            candidates=(
                make_candidate(0, content="a", accepted=True),
                make_candidate(1, content="b"),
            )
        )
        gains = [GainVector("semantic", np.array([1.0, 0.5])),
                 GainVector("popularity", np.array([2.0, 1.0]))]
        singles = [single_apdf(g) for g in gains]
        perception = PerceptionBundle(
            singles=singles,
            multi=multi_apdf(singles),
            arank=SemanticRank(np.array([0, 1])),
            dynamic=DynamicRanking([0, 1]),
        )
        breakdown, grad = loss_gradient(
            policy, record, perception, alpha=0.05, mode=MODE_TOP_ANCHORED
        )
        assert breakdown.l_pa == 0.0
        assert breakdown.total == 0.0
        assert not grad.any()


def full_table(policy, question):
    """Reference: the log-softmax of all CONTEXTS rows of weights plus the question bias."""
    logits = policy.weights + question_bias(question, policy.question_scale)
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def full_table_tokens(table, response):
    data = np.frombuffer(response.encode("utf-8"), dtype=np.uint8).astype(np.int64)
    contexts = np.concatenate(([BOS], data[:-1]))
    return contexts, data, table[contexts, data]


def full_table_gradient(policy, record, perception, mode):
    """Reference: the dense gradient from the full table, every row computed."""
    table = full_table(policy, record.question_text)
    pool = [full_table_tokens(table, c.content) for c in record.candidates]
    pi_s = policy_scores_from_logprobs([logprobs for _, _, logprobs in pool])
    _, d_pi = comparison_loss_and_score_grad(
        pi_s, perception.dynamic, perception.singles, perception.multi, mode
    )
    d_pi[perception.dynamic.top()] -= 0.05
    lengths = np.array([tokens.size for _, tokens, _ in pool])
    token_weight = np.repeat(-d_pi / lengths, lengths)
    contexts = np.concatenate([contexts for contexts, _, _ in pool])
    tokens = np.concatenate([tokens for _, tokens, _ in pool])
    row_weight = np.bincount(contexts, weights=token_weight, minlength=CONTEXTS)
    bigram_weight = np.bincount(
        contexts * VOCAB + tokens, weights=token_weight, minlength=CONTEXTS * VOCAB
    ).reshape(CONTEXTS, VOCAB)
    return row_weight[:, None] * np.exp(table) - bigram_weight


class TestOnlyThePoolsRowsAreComputed:
    """Scores and gradients built from the rows a pool uses equal the full
    CONTEXTS x VOCAB table's bit for bit, and so does training."""

    @staticmethod
    def suite(synthetic_suite):
        # A multibyte UTF-8 pool, and a one-byte answer that reads only the BOS row.
        item = synthetic_suite[0]
        contents = ("déjà vu ✓", "x", "naïve 日本語 answer", "é", "zephyr quartz binding")
        candidates = tuple(
            c.replace(content=text) for c, text in zip(item.record.candidates, contents)
        )
        record = item.record.replace(question_id="q9999", candidates=candidates)
        return [*synthetic_suite[:20], PreparedRecord(record=record, perception=item.perception)]

    @staticmethod
    def policy():
        return ToyPolicy.fresh(seed=23, init_scale=0.3, question_scale=0.2)

    def test_scores_and_gradient_equal_the_full_table(self, synthetic_suite):
        policy = self.policy()
        suite = self.suite(synthetic_suite)
        table = logprob_table(policy, [item.record for item in suite])
        for item in suite:
            record = item.record
            reference = full_table(policy, record.question_text)
            expected = [full_table_tokens(reference, c.content)[2] for c in record.candidates]
            for candidate, logprobs in zip(record.candidates, expected):
                assert score(policy, record.question_text, candidate.content).tobytes() == logprobs.tobytes()
                assert table[record.question_id, candidate.id].tobytes() == logprobs.tobytes()
            expected_scores = policy_scores_from_logprobs(expected)
            assert record_scores(policy, record).tobytes() == expected_scores.tobytes()
            for mode in (MODE_LITERAL, MODE_TOP_ANCHORED):
                _, grad = loss_gradient(policy, record, item.perception, 0.05, mode)
                assert grad.tobytes() == full_table_gradient(policy, record, item.perception, mode).tobytes()

    @pytest.mark.parametrize("mode", [MODE_LITERAL, MODE_TOP_ANCHORED])
    def test_training_equals_a_dense_loop(self, synthetic_suite, mode):
        suite = self.suite(synthetic_suite)
        trained, reference = self.policy(), self.policy()
        train(trained, suite, epochs=3, alpha=0.05, mode=mode)
        for _ in range(3):
            for item in sorted(suite, key=lambda p: p.record.question_id):
                grad = full_table_gradient(reference, item.record, item.perception, mode)
                reference.weights -= reference.learning_rate * grad
        assert trained.weights.tobytes() == reference.weights.tobytes()


class TestTrain:
    def test_learning_rate_zero_is_identity(self, synthetic_suite):
        policy = ToyPolicy.fresh(seed=14, learning_rate=0.0)
        before = policy.weights.copy()
        train(policy, list(synthetic_suite[:10]), epochs=2)
        assert np.array_equal(policy.weights, before)

    def test_loss_trace_finite_and_decreasing(self, synthetic_suite):
        policy = ToyPolicy.fresh(seed=0)
        subset = list(synthetic_suite[:50])
        first = train(policy, subset, epochs=1, mode=MODE_TOP_ANCHORED)
        second = train(policy, subset, epochs=1, mode=MODE_TOP_ANCHORED)
        assert np.all(np.isfinite(first.totals))
        assert second.totals.mean() < first.totals.mean()

    def test_bit_reproducible(self, synthetic_suite):
        subset = list(synthetic_suite[:20])
        runs = []
        for _ in range(2):
            policy = ToyPolicy.fresh(seed=21)
            train(policy, subset, epochs=2, mode=MODE_TOP_ANCHORED)
            runs.append(policy.weights.tobytes())
        assert runs[0] == runs[1]

    def test_empty_records_rejected(self):
        with pytest.raises(ValidationError):
            train(ToyPolicy.fresh(seed=0), [], epochs=1)


class TestLogProbTable:
    def fixture_table(self):
        return {
            ("q1", "a"): np.array([-0.5, -1.0]),
            ("q1", "b"): np.array([-2.0]),
            ("q2", "a"): np.array([-0.25, -0.5, -0.125]),
        }

    def test_round_trip(self, tmp_path):
        table = self.fixture_table()
        path = tmp_path / "logprobs.jsonl"
        write_logprob_file(path, table)
        loaded = load_logprob_file(path)
        assert list(loaded) == list(table)
        for key in table:
            assert np.array_equal(loaded[key], table[key])

    def test_positive_logprob_rejected(self, tmp_path):
        path = tmp_path / "logprobs.jsonl"
        path.write_text(
            '{"record_id": "q1", "candidate_id": "a", "logprobs": [0.5]}\n', encoding="utf-8"
        )
        with pytest.raises(SchemaError, match="line 1"):
            load_logprob_file(path)

    @pytest.mark.parametrize("bad", [[0.5], [], [-1.0, math.nan], [-math.inf], [[-1.0]]])
    def test_bad_vector_from_a_caller_names_its_key(self, tmp_path, bad):
        path = tmp_path / "logprobs.jsonl"
        with pytest.raises(ValidationError, match=re.escape("('q1', 'b'): logprob")):
            write_logprob_file(path, {("q1", "a"): [-1.0], ("q1", "b"): bad})
        assert not path.exists()  # refused before the file opens

    def test_fixture_size(self, tmp_path):
        entries = {}
        for r in range(3):
            for c in range(4):
                entries[(f"q{r}", f"a{c}")] = np.array([-1.0, -2.0])
        path = tmp_path / "logprobs.jsonl"
        write_logprob_file(path, entries)
        assert len(load_logprob_file(path)) == 12

    def test_missing_candidate_named(self):
        table = self.fixture_table()
        record = make_record(
            "q1",
            candidates=(
                make_candidate(0, cid="a", accepted=True),
                make_candidate(1, cid="missing"),
            ),
        )
        with pytest.raises(ValidationError, match="no log-probabilities for record 'q1' candidate 'missing'"):
            logprob_rows(table, record)

    def test_scores_match_policy(self, synthetic_suite):
        policy = ToyPolicy.fresh(seed=17)
        records = [item.record for item in synthetic_suite[:5]]
        table = logprob_table(policy, records)
        for record in records:
            scores = policy_scores_from_logprobs(logprob_rows(table, record))
            assert scores.tobytes() == record_scores(policy, record).tobytes()
            for candidate in record.candidates:
                expected = score(policy, record.question_text, candidate.content)
                assert table[record.question_id, candidate.id].tobytes() == expected.tobytes()

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "logprobs.jsonl"
        line = '{"record_id": "q1", "candidate_id": "a", "logprobs": [-1.0]}\n'
        path.write_text(line + line, encoding="utf-8")
        with pytest.raises(SchemaError, match="line 2"):
            load_logprob_file(path)


class TestTrainingAtTheCliDefaults:
    """The synthetic suite trained as ``train-toy`` trains it with no options.

    The suite's gold ranking is its dynamic ranking.  Under ``literal``,
    the CLI's default schedule, no round has the top answer as its
    positive, so at alpha 0.05 the policy puts the second answer first;
    ``top_anchored`` puts the top answer first (README, "Comparison-round
    schedule")."""

    @staticmethod
    def pref_hit_at_1(policy, suite):
        embedder = HashedNgramEmbedder(dim=64)
        outcomes = []
        for item in suite:
            record = item.record
            generated = record.candidates[int(np.argmax(record_scores(policy, record)))].content
            outcomes.append(
                RecordOutcome(
                    record_id=record.question_id,
                    similarities=pool_similarities(generated, record, embedder=embedder),
                    candidate_ids=tuple(c.id for c in record.candidates),
                    gold_ranking=record.gold_ranking,
                )
            )
        return pref_hit(outcomes, 1)

    @pytest.mark.parametrize("mode, trained_hit", [(MODE_LITERAL, 0.0), (MODE_TOP_ANCHORED, 1.0)])
    def test_pref_hit_at_1(self, synthetic_suite, mode, trained_hit):
        args = build_parser().parse_args(["train-toy", "--records", "r.jsonl", "--out-policy", "p.bin"])
        assert args.mode == MODE_LITERAL
        policy = ToyPolicy.fresh(
            seed=args.seed,
            init_scale=args.init_scale,
            learning_rate=args.learning_rate,
            question_scale=args.question_scale,
        )
        assert self.pref_hit_at_1(policy, synthetic_suite) == 0.195
        train(policy, list(synthetic_suite), epochs=args.epochs, alpha=args.alpha, mode=mode)
        assert self.pref_hit_at_1(policy, synthetic_suite) == trained_hit
