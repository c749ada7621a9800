"""Posterior summaries, feature screening, and evaluation metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .softmax import ObjectiveContext, _cross_entropy, _log_normaliser, _row_logits

# Logit entries held at once while scoring retained samples: each temporary
# stays near 128 KB, so scoring adds little to peak memory, also where rows
# hardly repeat (real-valued features have U = N).
_BATCH_LOGITS = 1 << 14


@dataclass(frozen=True, eq=False)
class WeightSummary:
    """Entry-wise sample mean and standard deviation of the weight posterior.

    The standard deviation uses the population convention (divide by the
    number of retained samples, no Bessel correction).
    """

    mean: np.ndarray
    std: np.ndarray


def summarize_weights(samples) -> WeightSummary:
    if len(samples) == 0:
        raise ValueError("need at least one weight sample")
    stack = np.asarray(samples, dtype=np.float64)
    return WeightSummary(mean=stack.mean(axis=0), std=stack.std(axis=0, ddof=0))


@dataclass(frozen=True, eq=False)
class ReducedFeatureSet:
    """Outcome of the posterior significance screen on features.

    kept: retained feature indices, ascending.
    cutoff: score of the weakest retained feature (the largest interval
        cutoff at which exactly the requested number of features survive).
    scores: per-feature cutoff scores, one per original feature.
    """

    kept: np.ndarray
    cutoff: float
    scores: np.ndarray


def feature_scores(summary: WeightSummary, multiplier: float) -> np.ndarray:
    """Per-feature screening score.

    For feature d, each block's credible interval (mu - k sigma, mu + k sigma)
    collapses to the point 0 if it straddles zero; the score is the largest
    over blocks of the interval's distance bound min(|low|, |high|).  A
    feature survives a cutoff c exactly when its score is >= c.
    """
    check_multiplier(multiplier)
    low = summary.mean - multiplier * summary.std
    high = summary.mean + multiplier * summary.std
    straddles = (low <= 0.0) & (high >= 0.0)
    low = np.where(straddles, 0.0, low)
    high = np.where(straddles, 0.0, high)
    return np.minimum(np.abs(low), np.abs(high)).max(axis=0)


def check_multiplier(multiplier: float) -> None:
    """The screen's interval rule: the multiplier k is finite and positive."""
    if not 0 < multiplier < math.inf:
        raise ValueError(f"interval multiplier must be finite and positive, got {multiplier}")


def check_target_dim(target_dim: int, num_features: int) -> None:
    """The screen's range rule: it keeps between 1 and num_features features."""
    if not 0 < target_dim <= num_features:
        raise ValueError(f"target dimension {target_dim} outside [1, {num_features}]")


def reduce_dimension(summary: WeightSummary, multiplier: float, target_dim: int) -> ReducedFeatureSet:
    """Keep the target_dim features with the largest screening scores.

    Sorting is stable with ascending-index tie-break; the reported cutoff is
    the score of the last feature kept.
    """
    scores = feature_scores(summary, multiplier)
    check_target_dim(target_dim, scores.shape[0])
    ranked = np.argsort(-scores, kind="stable")[:target_dim]
    cutoff = float(scores[ranked[-1]])
    return ReducedFeatureSet(kept=np.sort(ranked), cutoff=cutoff, scores=scores)


def mean_description_length(s_values, num_vertices: int, num_edges: int,
                            num_blocks: int) -> float:
    """(mean of the retained S - N log B) / (N + E), in nats per entity.

    This gauges how well the block model fits the graph, so the
    partition-encoding constant N log B, which is independent of the
    partition and cancels everywhere in sampling, is subtracted from the
    mean; published per-entity figures follow that convention.
    """
    s_values = np.asarray(s_values, dtype=np.float64)
    if s_values.size == 0:
        raise ValueError("empty description-length trace")
    total = float(s_values.mean()) - num_vertices * np.log(num_blocks)
    return total / (num_vertices + num_edges)


def _sample_logits(weight_samples, ctx: ObjectiveContext):
    """Batches of retained samples (S x B x D) with their logits on the distinct rows (S x U x B)."""
    stack = np.asarray(weight_samples, dtype=np.float64)
    batch = max(1, _BATCH_LOGITS // max(1, ctx.rows.shape[0] * ctx.num_blocks))
    for start in range(0, len(stack), batch):
        weights = stack[start:start + batch]
        yield weights, _row_logits(weights, ctx)


def loss_and_accuracy(weight_samples, responsibilities, features, vertex_set):
    """Cross-entropy loss and per-block accuracy of a vertex set, in one pass over the samples.

    responsibilities and features cover all vertices; vertex_set selects the
    rows to score (training or test side of the split).  The loss is the
    mean over retained samples of the weight objective's cross-entropy term
    divided by the vertex count.  A block's accuracy is the fraction, over
    its vertices and all samples, of classifier argmax predictions that
    match the posterior argmax; a block with no vertices in the set gets NaN
    (undefined rather than zero, so averages are not dragged down).
    """
    vertex_set = np.asarray(vertex_set)
    if vertex_set.size == 0:
        raise ValueError("empty vertex set")
    if len(weight_samples) == 0:
        raise ValueError("need at least one weight sample")
    # The prior width enters neither the cross-entropy term nor the argmax.
    ctx = ObjectiveContext(np.asarray(features)[vertex_set],
                           np.asarray(responsibilities)[vertex_set], sigma=1.0)
    assigned = ctx.targets.argmax(axis=1)

    losses = []
    # votes[u, j]: samples whose classifier puts distinct row u in block j.
    votes = np.zeros((ctx.rows.shape[0], ctx.num_blocks), dtype=np.int64)
    for weights, logits in _sample_logits(weight_samples, ctx):
        losses.append(float(_cross_entropy(weights, _log_normaliser(logits)[0], ctx).sum()))
        predicted = logits.argmax(axis=-1)
        votes += (predicted[..., None] == np.arange(ctx.num_blocks)).sum(axis=0)
    # sum() compensates rounding on Python 3.12+, so += could move the last bit.
    loss = sum(losses) / (len(weight_samples) * ctx.size)
    agree = votes[ctx.inverse, assigned]

    accuracy = np.full(ctx.num_blocks, np.nan)
    for j in range(ctx.num_blocks):
        members = assigned == j
        if members.any():
            accuracy[j] = agree[members].sum() / (members.sum() * len(weight_samples))
    return loss, accuracy


def cross_entropy_loss(weight_samples, responsibilities, features, vertex_set) -> float:
    """The loss of loss_and_accuracy."""
    return loss_and_accuracy(weight_samples, responsibilities, features, vertex_set)[0]


def block_accuracy(weight_samples, responsibilities, features, vertex_set) -> np.ndarray:
    """The per-block accuracy of loss_and_accuracy."""
    return loss_and_accuracy(weight_samples, responsibilities, features, vertex_set)[1]


def null_if_undefined(value):
    """value with NaN, also each NaN entry of a list, as None: a metric
    undefined in a repetition (a block with no vertex on a side) is JSON's
    null in report.json."""
    if isinstance(value, list):
        return [null_if_undefined(x) for x in value]
    return None if isinstance(value, float) and math.isnan(value) else value


@dataclass
class EvaluationReport:
    """Metrics of one experiment repetition.

    extras holds further metrics, written after the named ones by to_dict,
    which refuses an extras key that would replace one of them.
    """

    mean_dl: float
    loss_train: float
    loss_test: float
    accuracy_train: list
    accuracy_test: list
    acceptance_ratio: float
    mean_objective: float
    cutoff: float = None
    kept_features: list = None
    reduced_loss_train: float = None
    reduced_loss_test: float = None
    reduced_acceptance_ratio: float = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "mean_description_length": self.mean_dl,
            "loss_train": self.loss_train,
            "loss_test": self.loss_test,
            "accuracy_train": null_if_undefined([float(a) for a in self.accuracy_train]),
            "accuracy_test": null_if_undefined([float(a) for a in self.accuracy_test]),
            "acceptance_ratio": self.acceptance_ratio,
            "mean_objective": self.mean_objective,
        }
        if self.kept_features is not None:
            out["cutoff"] = self.cutoff
            out["kept_features"] = list(self.kept_features)
            out["reduced_loss_train"] = self.reduced_loss_train
            out["reduced_loss_test"] = self.reduced_loss_test
            out["reduced_acceptance_ratio"] = self.reduced_acceptance_ratio
        shadowed = sorted(out.keys() & self.extras.keys())
        if shadowed:
            raise ValueError(f"extras may not replace the metrics {shadowed}")
        out.update(self.extras)
        return out
