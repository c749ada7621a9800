import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ffbm import (
    ObjectiveContext,
    WeightChainConfig,
    WeightSummary,
    block_accuracy,
    class_probabilities,
    cross_entropy_loss,
    feature_scores,
    loss_and_accuracy,
    mean_description_length,
    reduce_dimension,
    run_weight_chain,
    summarize_weights,
)
from ffbm import analysis
from ffbm.analysis import _BATCH_LOGITS
from ffbm.softmax import _cross_entropy, _log_normaliser, _row_logits


# ------------------------------------------------------------------ summaries

def test_summary_identical_samples_zero_std():
    w = np.array([[1.0, -2.0]])
    summary = summarize_weights([w, w.copy(), w.copy()])
    assert np.allclose(summary.mean, w)
    assert np.allclose(summary.std, 0.0)


def test_summary_two_point_population_moments():
    summary = summarize_weights([np.array([[0.0]]), np.array([[2.0]])])
    assert summary.mean[0, 0] == 1.0
    assert summary.std[0, 0] == 1.0  # population convention: ((1)+(1))/2 = 1


def test_summary_matches_streaming_oracle():
    rng = np.random.default_rng(0)
    samples = [rng.normal(size=(3, 4)) for _ in range(50)]
    summary = summarize_weights(samples)
    # Welford's streaming algorithm as the independent second formula.
    mean = np.zeros((3, 4))
    m2 = np.zeros((3, 4))
    for idx, w in enumerate(samples, start=1):
        delta = w - mean
        mean += delta / idx
        m2 += delta * (w - mean)
    assert np.abs(summary.mean - mean).max() < 1e-10
    assert np.abs(summary.std - np.sqrt(m2 / len(samples))).max() < 1e-10


def test_summary_empty_error():
    with pytest.raises(ValueError):
        summarize_weights([])


# ----------------------------------------------------------------- reduction

def test_feature_score_clear_interval():
    summary = WeightSummary(mean=np.array([[2.0]]), std=np.array([[0.5]]))
    assert math.isclose(feature_scores(summary, 1.0)[0], 1.5, rel_tol=1e-12)


def test_feature_score_straddling_interval_collapses():
    summary = WeightSummary(mean=np.array([[0.3]]), std=np.array([[0.5]]))
    assert feature_scores(summary, 1.0)[0] == 0.0


def test_reduce_sort_and_cutoff():
    summary = WeightSummary(
        mean=np.array([[2.0, 0.3, -1.4]]),
        std=np.array([[0.5, 0.5, 0.5]]),
    )
    result = reduce_dimension(summary, 1.0, 2)
    assert np.allclose(result.scores, [1.5, 0.0, 0.9])
    assert result.kept.tolist() == [0, 2]
    assert math.isclose(result.cutoff, 0.9, rel_tol=1e-12)


def test_reduce_tie_break_is_stable_ascending():
    summary = WeightSummary(mean=np.array([[1.0, 1.0, 1.0]]), std=np.zeros((1, 3)))
    result = reduce_dimension(summary, 1.0, 2)
    assert result.kept.tolist() == [0, 1]


def test_reduce_validation():
    summary = WeightSummary(mean=np.zeros((2, 3)), std=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        reduce_dimension(summary, 1.0, 4)
    with pytest.raises(ValueError):
        reduce_dimension(summary, -1.0, 2)


def naive_reduction(summary, multiplier, target_dim):
    """Brute-force search over cutoff candidates for the kept set.

    A feature survives cutoff c when some block interval (no zero-collapse)
    lies entirely outside (-c, c); the reported cutoff is the largest
    candidate keeping exactly target_dim features.
    """
    low = summary.mean - multiplier * summary.std
    high = summary.mean + multiplier * summary.std

    def kept_at(c):
        kept = []
        for d in range(summary.mean.shape[1]):
            if any(low[i, d] >= c or high[i, d] <= -c for i in range(summary.mean.shape[0])):
                kept.append(d)
        return kept

    candidates = sorted(set(feature_scores(summary, multiplier).tolist()), reverse=True)
    for c in candidates:
        kept = kept_at(c)
        if len(kept) == target_dim:
            return kept, c
    return None, None


def test_reduce_matches_naive_search():
    rng = np.random.default_rng(1)
    for _ in range(40):
        num_blocks = int(rng.integers(1, 5))
        num_features = int(rng.integers(2, 10))
        summary = WeightSummary(
            mean=rng.normal(scale=2.0, size=(num_blocks, num_features)),
            std=np.abs(rng.normal(scale=0.8, size=(num_blocks, num_features))),
        )
        target = int(rng.integers(1, num_features + 1))
        result = reduce_dimension(summary, 1.0, target)
        kept, cutoff = naive_reduction(summary, 1.0, target)
        if kept is None:
            continue  # ties make exactly target_dim unreachable; sort result stands
        assert result.kept.tolist() == kept
        assert math.isclose(result.cutoff, cutoff, rel_tol=1e-12)


def test_reduce_consistency_with_membership_rule():
    # The kept set must equal the survivors at a cutoff just below c*.
    rng = np.random.default_rng(2)
    summary = WeightSummary(
        mean=rng.normal(scale=2.0, size=(3, 8)),
        std=np.abs(rng.normal(scale=0.5, size=(3, 8))),
    )
    result = reduce_dimension(summary, 1.0, 4)
    survivors = [d for d in range(8) if result.scores[d] >= result.cutoff - 1e-12]
    assert survivors == result.kept.tolist()


# ------------------------------------------------------------------- metrics

def test_mean_description_length_constant_trace():
    assert mean_description_length([7.0, 7.0, 7.0], 3, 4, num_blocks=1) == 1.0


def test_mean_description_length_subtracts_partition_constant():
    value = mean_description_length([10.0], 4, 6, num_blocks=2)
    assert math.isclose(value, (10.0 - 4 * math.log(2)) / 10.0, rel_tol=1e-12)


def test_mean_description_length_empty_error():
    with pytest.raises(ValueError):
        mean_description_length([], 3, 4, num_blocks=1)


def test_cross_entropy_uniform_classifier():
    y = np.array([[0.2, 0.8], [0.6, 0.4], [1.0, 0.0]])
    feats = np.array([[1.0], [0.0], [1.0]])
    loss = cross_entropy_loss([np.zeros((2, 1))], y, feats, np.arange(3))
    assert math.isclose(loss, math.log(2), rel_tol=1e-12)


def test_cross_entropy_confident_match_goes_to_zero():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    strong = np.array([[50.0, 0.0], [0.0, 50.0]])
    loss = cross_entropy_loss([strong], y, feats, np.arange(2))
    assert loss < 1e-10


def test_cross_entropy_empty_vertex_set():
    with pytest.raises(ValueError):
        cross_entropy_loss([np.zeros((2, 1))], np.ones((2, 2)) / 2,
                           np.zeros((2, 1)), np.array([], dtype=int))


def test_cross_entropy_matches_naive_loop():
    rng = np.random.default_rng(3)
    feats = (rng.random((10, 3)) < 0.5).astype(float)
    raw = rng.random((10, 2))
    y = raw / raw.sum(axis=1, keepdims=True)
    samples = [rng.normal(size=(2, 3)) for _ in range(5)]
    subset = np.array([0, 2, 3, 7, 9])
    total = 0.0
    for w in samples:
        for i in subset:
            probs = class_probabilities(w, feats[i][None])[0]
            for j in range(2):
                total += y[i, j] * math.log(1.0 / probs[j])
    expected = total / (len(samples) * len(subset))
    got = cross_entropy_loss(samples, y, feats, subset)
    assert abs(got - expected) < 1e-10


def test_block_accuracy_perfect_classifier():
    y = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]])
    feats = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    strong = np.array([[10.0, 0.0], [0.0, 10.0]])
    acc = block_accuracy([strong], y, feats, np.arange(3))
    assert acc.tolist() == [1.0, 1.0]


def test_block_accuracy_tie_break_to_lowest_index():
    # Zero weights predict block 0 for every vertex via the tie-break.
    y = np.array([[0.6, 0.4], [0.4, 0.6]])
    feats = np.array([[1.0], [1.0]])
    acc = block_accuracy([np.zeros((2, 1))], y, feats, np.arange(2))
    assert acc.tolist() == [1.0, 0.0]


def test_block_accuracy_undefined_for_empty_block():
    y = np.array([[0.9, 0.1], [0.8, 0.2]])
    feats = np.array([[1.0], [1.0]])
    acc = block_accuracy([np.zeros((2, 1))], y, feats, np.arange(2))
    assert acc[0] == 1.0
    assert np.isnan(acc[1])


@pytest.mark.parametrize("metric", [cross_entropy_loss, block_accuracy])
@pytest.mark.parametrize("samples, vertex_set, message", [
    ([], np.arange(2), "need at least one weight sample"),
    ([np.zeros((2, 1))], np.array([], dtype=int), "empty vertex set"),
])
def test_metrics_reject_empty_inputs(metric, samples, vertex_set, message):
    y = np.array([[0.9, 0.1], [0.2, 0.8]])
    feats = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError, match=message):
        metric(samples, y, feats, vertex_set)


def test_block_accuracy_matches_naive_loop():
    rng = np.random.default_rng(4)
    feats = (rng.random((12, 3)) < 0.5).astype(float)
    raw = rng.random((12, 3))
    y = raw / raw.sum(axis=1, keepdims=True)
    samples = [rng.normal(size=(3, 3)) for _ in range(4)]
    subset = np.arange(12)
    got = block_accuracy(samples, y, feats, subset)
    assigned = y.argmax(axis=1)
    for j in range(3):
        members = [i for i in subset if assigned[i] == j]
        if not members:
            assert np.isnan(got[j])
            continue
        hits = 0
        for w in samples:
            for i in members:
                hits += int(np.argmax(class_probabilities(w, feats[i][None])[0]) == assigned[i])
        assert math.isclose(got[j], hits / (len(members) * len(samples)), rel_tol=1e-12)


def test_block_accuracy_relabelling_invariant():
    rng = np.random.default_rng(5)
    feats = (rng.random((15, 4)) < 0.5).astype(float)
    raw = rng.random((15, 3))
    y = raw / raw.sum(axis=1, keepdims=True)
    samples = [rng.normal(size=(3, 4)) for _ in range(3)]
    base = block_accuracy(samples, y, feats, np.arange(15))
    perm = np.array([2, 0, 1])
    inv = np.argsort(perm)
    permuted = block_accuracy([w[inv] for w in samples], y[:, inv], feats, np.arange(15))
    assert np.allclose(base, permuted[perm], equal_nan=True)


def _two_pass_metrics(weight_samples, responsibilities, features, vertex_set):
    """The loss and the per-block accuracy as two separate passes over the
    samples, each batching the logits as the scoring code does."""
    ctx = ObjectiveContext(features[vertex_set], responsibilities[vertex_set], sigma=1.0)
    stack = np.asarray(weight_samples, dtype=np.float64)
    batch = max(1, _BATCH_LOGITS // max(1, ctx.rows.shape[0] * ctx.num_blocks))
    batches = [stack[k:k + batch] for k in range(0, len(stack), batch)]
    loss = sum(float(_cross_entropy(w, _log_normaliser(_row_logits(w, ctx))[0], ctx).sum())
               for w in batches) / (len(stack) * ctx.size)

    assigned = ctx.targets.argmax(axis=1)
    votes = np.zeros((ctx.rows.shape[0], ctx.num_blocks), dtype=np.int64)
    for w in batches:
        predicted = _row_logits(w, ctx).argmax(axis=-1)
        votes += (predicted[..., None] == np.arange(ctx.num_blocks)).sum(axis=0)
    agree = votes[ctx.inverse, assigned]
    accuracy = np.full(ctx.num_blocks, np.nan)
    for j in range(ctx.num_blocks):
        members = assigned == j
        if members.any():
            accuracy[j] = agree[members].sum() / (members.sum() * len(stack))
    return loss, accuracy


@given(seed=st.integers(0, 2**32 - 1), num_vertices=st.integers(1, 30),
       num_blocks=st.integers(1, 4), num_features=st.integers(1, 4),
       num_samples=st.integers(1, 40), real_features=st.booleans(),
       empty_block=st.booleans())
# 28 distinct rows x 4 blocks x 200 samples is past _BATCH_LOGITS: two batches.
@example(seed=1, num_vertices=40, num_blocks=4, num_features=3, num_samples=200,
         real_features=True, empty_block=True)
@settings(max_examples=100, deadline=None)
def test_loss_and_accuracy_equal_the_two_pass_metrics(seed, num_vertices, num_blocks, num_features,
                                                      num_samples, real_features, empty_block):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(num_vertices, num_features))
    if not real_features:
        feats = (feats < 0).astype(np.int8)
    raw = rng.random((num_vertices, num_blocks))
    if empty_block and num_blocks > 1:
        raw[:, -1] = 0.0  # no vertex is assigned to the last block
    y = raw / raw.sum(axis=1, keepdims=True)
    samples = [rng.normal(scale=3.0, size=(num_blocks, num_features)) for _ in range(num_samples)]
    subset = np.flatnonzero(rng.random(num_vertices) < 0.7)
    if subset.size == 0:
        subset = np.arange(num_vertices)

    loss, accuracy = loss_and_accuracy(samples, y, feats, subset)
    ref_loss, ref_accuracy = _two_pass_metrics(samples, y, feats, subset)
    assert loss.hex() == ref_loss.hex()
    assert accuracy.tobytes() == ref_accuracy.tobytes()
    assert cross_entropy_loss(samples, y, feats, subset) == loss
    assert block_accuracy(samples, y, feats, subset).tobytes() == accuracy.tobytes()


def test_a_chains_samples_are_scored_and_summarised_in_place(monkeypatch):
    # A chain's retained samples are one K x B x D block of its buffer; the
    # metrics batch that block as it is, and the summary reads it as one array.
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(12, 3))
    raw = rng.random((12, 2))
    y = raw / raw.sum(axis=1, keepdims=True)
    res = run_weight_chain(ObjectiveContext(feats, y, 1.0),
                           WeightChainConfig(iterations=50, burn_in=0.0, thinning=1, seed=0))
    batches = []
    sample_logits = analysis._sample_logits

    def recording(weight_samples, ctx):
        for weights, logits in sample_logits(weight_samples, ctx):
            batches.append(weights)
            yield weights, logits

    monkeypatch.setattr(analysis, "_sample_logits", recording)
    loss, accuracy = loss_and_accuracy(res.samples, y, feats, np.arange(12))
    assert len(batches) == 1 and np.shares_memory(batches[0], res.samples[0])
    as_list = loss_and_accuracy(list(res.samples), y, feats, np.arange(12))
    assert loss.hex() == as_list[0].hex() and accuracy.tobytes() == as_list[1].tobytes()
    summary, from_list = summarize_weights(res.samples), summarize_weights(list(res.samples))
    assert summary.mean.tobytes() == from_list.mean.tobytes()
    assert summary.std.tobytes() == from_list.std.tobytes()
