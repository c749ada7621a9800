"""Feature-to-block generator: softmax probabilities, objective, gradient.

The generator assigns vertex i to block j with probability
exp(w_j . x_i) / sum_k exp(w_k . x_i); there is deliberately no bias row,
since with mutually exclusive binary flags a bias adds a redundant degree
of freedom without expressiveness.  The negative log-posterior of the
weights is a soft cross-entropy plus a Gaussian ridge penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ObjectiveContext:
    """Data slice the weight posterior is conditioned on.

    features: rows of the binary feature matrix for the active vertices.
    targets: matching rows of soft responsibilities (or hard one-hot
        memberships); each row must sum to 1, which is the only property
        the gradient identity relies on.
    sigma: prior standard deviation of each weight entry.
    """

    features: np.ndarray
    targets: np.ndarray
    sigma: float

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
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _log_normaliser(logits: np.ndarray) -> np.ndarray:
    peak = logits.max(axis=1, keepdims=True)
    return (peak + np.log(np.exp(logits - peak).sum(axis=1, keepdims=True)))[:, 0]


def objective_and_gradient(weights: np.ndarray, ctx: ObjectiveContext):
    """Objective and gradient sharing one softmax evaluation.

    The objective is the soft cross-entropy plus ridge penalty
    sum_ij y_ij log(1/a_ij) + |W|^2 / (2 sigma^2), computed through the
    log-normaliser so extreme logits cannot underflow:
    sum_j y_ij log(1/a_ij) = logZ_i - sum_j y_ij logit_ij.
    Row k of the gradient is -sum_i x_i (y_ik - a_ik) + w_k / sigma^2.
    """
    weights = np.asarray(weights, dtype=np.float64)
    logits = ctx.features @ weights.T
    log_z = _log_normaliser(logits)
    cross = log_z.sum() - float((ctx.targets * logits).sum())
    value = cross + float((weights * weights).sum()) / (2.0 * ctx.sigma**2)
    probs = np.exp(logits - log_z[:, None])
    grad = (probs - ctx.targets).T @ ctx.features + weights / ctx.sigma**2
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
