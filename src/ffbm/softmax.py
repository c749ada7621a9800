"""Feature-to-block generator: softmax probabilities, objective, gradient.

The generator assigns vertex i to block j with probability
exp(w_j . x_i) / sum_k exp(w_k . x_i); there is deliberately no bias row,
since with mutually exclusive binary flags a bias adds a redundant degree
of freedom without expressiveness.  The negative log-posterior of the
weights is a soft cross-entropy plus a Gaussian ridge penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ObjectiveContext:
    """Data slice the weight posterior is conditioned on.

    features: rows of the binary feature matrix for the active vertices.
    targets: matching rows of soft responsibilities (or hard one-hot
        memberships); each row must sum to 1, which is the only property
        the gradient identity relies on.
    sigma: prior standard deviation of each weight entry.

    The objective depends on the data only through the distinct feature
    rows, their counts and targets.T @ features, so these are derived once:
    rows (U x D, the distinct rows), counts (U), weighted_rows
    (counts[:, None] * rows), inverse (the index into rows of each vertex)
    and target_moments (B x D).  Binary flags repeat, so U is usually far
    below the number of vertices; real-valued features have U = N.
    """

    features: np.ndarray
    targets: np.ndarray
    sigma: float
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    weighted_rows: np.ndarray = field(init=False, repr=False, compare=False)
    inverse: np.ndarray = field(init=False, repr=False, compare=False)
    target_moments: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        targ = np.asarray(self.targets, dtype=np.float64)
        if feats.ndim != 2 or targ.ndim != 2 or feats.shape[0] != targ.shape[0]:
            raise ValueError("features and targets must be 2-D with equal row counts")
        row_sums = targ.sum(axis=1)
        if targ.size and not np.allclose(row_sums, 1.0, atol=1e-9):
            raise ValueError("every target row must sum to 1")
        if self.sigma <= 0:
            raise ValueError("prior standard deviation must be positive")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", targ)
        rows, inverse, counts = np.unique(feats, axis=0, return_inverse=True, return_counts=True)
        counts = counts.astype(np.float64)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "weighted_rows", counts[:, None] * rows)
        object.__setattr__(self, "inverse", inverse.reshape(-1))
        object.__setattr__(self, "target_moments", targ.T @ feats)

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def num_blocks(self) -> int:
        return self.targets.shape[1]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


def class_probabilities(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Row-wise softmax of features @ weights.T (one row per vertex)."""
    logits = np.asarray(features, dtype=np.float64) @ np.asarray(weights, dtype=np.float64).T
    _, shifted, total = _log_normaliser(logits)
    return shifted / total


def _row_logits(weights: np.ndarray, ctx: ObjectiveContext) -> np.ndarray:
    """Logits of every distinct row: U x B for one weight matrix, S x U x B for a stack of S."""
    return ctx.rows @ weights.swapaxes(-1, -2)


def _log_normaliser(logits: np.ndarray):
    """log sum_j exp(logit_j) along the last axis, shifted by the peak so
    extreme logits cannot overflow; also returns the shifted exponentials
    and their sums, from which the softmax follows."""
    peak = logits.max(axis=-1, keepdims=True)
    shifted = np.exp(logits - peak)
    total = shifted.sum(axis=-1, keepdims=True)
    return (peak + np.log(total))[..., 0], shifted, total


def _cross_entropy(weights: np.ndarray, log_z: np.ndarray, ctx: ObjectiveContext):
    """The objective's soft cross-entropy term, sum_i (logZ_i - sum_j y_ij logit_ij).

    Summed over distinct rows: counts . logZ - <W, targets.T @ features>.
    log_z holds the log-normalisers of the distinct rows under weights;
    weights may be one B x D matrix or a stack of them (one value each).
    """
    flat = weights.reshape(*weights.shape[:-2], -1)
    return log_z @ ctx.counts - flat @ ctx.target_moments.ravel()


def objective_and_gradient(weights: np.ndarray, ctx: ObjectiveContext):
    """Objective and gradient sharing one softmax evaluation.

    The objective is the soft cross-entropy plus ridge penalty
    sum_ij y_ij log(1/a_ij) + |W|^2 / (2 sigma^2), computed through the
    log-normaliser so extreme logits cannot underflow:
    sum_j y_ij log(1/a_ij) = logZ_i - sum_j y_ij logit_ij.
    Row k of the gradient is -sum_i x_i (y_ik - a_ik) + w_k / sigma^2;
    both sums run over the distinct rows, weighted by their counts.
    """
    weights = np.asarray(weights, dtype=np.float64)
    log_z, shifted, total = _log_normaliser(_row_logits(weights, ctx))
    value = (float(_cross_entropy(weights, log_z, ctx))
             + float(np.vdot(weights, weights)) / (2.0 * ctx.sigma**2))
    grad = (shifted / total).T @ ctx.weighted_rows - ctx.target_moments + weights / ctx.sigma**2
    return value, grad


def objective(weights: np.ndarray, ctx: ObjectiveContext) -> float:
    """The objective of objective_and_gradient."""
    return objective_and_gradient(weights, ctx)[0]


def objective_gradient(weights: np.ndarray, ctx: ObjectiveContext) -> np.ndarray:
    """d objective / dW, as objective_and_gradient computes it."""
    return objective_and_gradient(weights, ctx)[1]


def log_partition_given_features(num_vertices: int, num_blocks: int) -> float:
    """log p(b | X) = -N log B: the Gaussian weight prior is block-symmetric,
    so integrating the weights out leaves a uniform law over partitions."""
    return -num_vertices * math.log(num_blocks)
