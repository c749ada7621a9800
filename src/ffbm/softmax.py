"""Feature-to-block generator: softmax probabilities, objective, gradient.

The generator assigns vertex i to block j with probability
exp(w_j . x_i) / sum_k exp(w_k . x_i); there is deliberately no bias row,
since with mutually exclusive binary flags a bias adds a redundant degree
of freedom without expressiveness.  The negative log-posterior of the
weights is a soft cross-entropy plus a Gaussian ridge penalty.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np


def check_sigma(sigma: float) -> None:
    """The prior width rule of the objective and of the weight chain.

    The objective divides by sigma^2 and by 2 sigma^2, so sigma^2 must be a
    normal float and 2 sigma^2 finite: about 1.5e-154 <= sigma <= 9.5e153.
    The sign is checked on its own, since -sigma squares to a valid width.
    """
    width = float(sigma)
    square = width * width  # a Python float product overflows to inf, where ** raises
    if not (width > 0 and square >= sys.float_info.min and math.isfinite(2.0 * square)):
        raise ValueError("prior standard deviation must be positive and finite, with sigma^2 "
                         f"a normal float and 2 sigma^2 finite, got {sigma}")


@dataclass(frozen=True, eq=False)
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

    Contexts compare and hash by identity: their fields are arrays, which
    have no single truth value for ==.
    """

    features: np.ndarray
    targets: np.ndarray
    sigma: float
    rows: np.ndarray = field(init=False, repr=False)
    counts: np.ndarray = field(init=False, repr=False)
    weighted_rows: np.ndarray = field(init=False, repr=False)
    inverse: np.ndarray = field(init=False, repr=False)
    target_moments: np.ndarray = field(init=False, repr=False)
    # objective_kernel([self]), bound on the first objective_and_gradient
    # call; its work arrays make that call unsafe from two threads at once.
    _kernel: object = field(init=False, repr=False, default=None)

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        targ = np.asarray(self.targets, dtype=np.float64)
        if feats.ndim != 2 or targ.ndim != 2 or feats.shape[0] != targ.shape[0]:
            raise ValueError("features and targets must be 2-D with equal row counts")
        row_sums = targ.sum(axis=1)
        if targ.size and not np.allclose(row_sums, 1.0, atol=1e-9):
            raise ValueError("every target row must sum to 1")
        check_sigma(self.sigma)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", targ)
        rows, inverse, counts = np.unique(feats, axis=0, return_inverse=True, return_counts=True)
        counts = counts.astype(np.float64)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "weighted_rows", counts[:, None] * rows)
        object.__setattr__(self, "inverse", inverse.reshape(-1))
        object.__setattr__(self, "target_moments", targ.T @ feats)

    def __getstate__(self):
        return {**self.__dict__, "_kernel": None}  # a closure, rebound on first use

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
    The losses score batches of retained samples with it, as matrix-vector
    products.  objective_kernel takes the same two terms as one dot per
    slice (dot_views), which a stack needs so that its values equal its
    slices'; the two forms may differ in the last bit, and the losses keep
    this one so that report.json keeps its bits.
    """
    flat = weights.reshape(*weights.shape[:-2], -1)
    return log_z @ ctx.counts - flat @ ctx.target_moments.ravel()


def dot_views(stack: np.ndarray):
    """(S, 1, K) and (S, K, 1) views of a C-contiguous S x B x D stack, K = B * D.

    Their matmul is |W|^2 of every slice: numpy computes each
    (1, K) @ (K, 1) product with the dot that np.vdot calls, so a stack's
    values equal its slices' and np.vdot's bit for bit.  A pairwise sum
    such as (x * x).sum() does not.
    """
    size, k = stack.shape[0], stack.shape[1] * stack.shape[2]
    return stack.reshape(size, 1, k), stack.reshape(size, k, 1)


def stack_views(weights: np.ndarray) -> tuple:
    """A C-contiguous S x B x D weight stack with the views objective_kernel reads:
    its slices transposed, then its dot_views.  Taken once per buffer."""
    return (weights, weights.swapaxes(-1, -2)) + dot_views(weights)


def objective_kernel(ctxs):
    """Bind the objective and gradient of a stack of S contexts of one shape (U, B, D).

    Returns evaluate(views, grad): for the stack_views of an S x B x D
    weight stack it writes the gradient of slice s under ctxs[s] into
    grad[s] and returns the S objectives as floats.  The contexts' arrays
    are stacked and the work arrays allocated once, here; each numpy call
    then runs once on the whole stack.  Every reduction works slice by
    slice in the order a lone slice uses: matmul (one BLAS call per slice),
    max and sum along the last axis, and dots through dot_views.  So slice
    s gets the bits that a stack of ctxs[s] alone gets, whatever the rest
    holds.
    """
    shapes = {(c.rows.shape[0], c.num_blocks, c.num_features) for c in ctxs}
    if len(shapes) != 1:
        raise ValueError(f"a stack needs contexts of one shape (U, B, D), got {sorted(shapes)}")
    ((u, b, d),) = shapes
    s = len(ctxs)
    rows, counts, weighted_rows = np.empty((s, u, d)), np.empty((s, u, 1)), np.empty((s, u, d))
    moments, variance = np.empty((s, b, d)), np.empty((s, b, d))  # full, as broadcasting costs time
    for i, c in enumerate(ctxs):
        rows[i], counts[i, :, 0], weighted_rows[i] = c.rows, c.counts, c.weighted_rows
        moments[i], variance[i] = c.target_moments, c.sigma**2
    moment_cols = dot_views(moments)[1]
    twice_variance = [2.0 * c.sigma**2 for c in ctxs]

    logits = np.empty((s, u, b))  # the logits, then the shifted exponentials, then the softmax
    probs_t = logits.swapaxes(-1, -2)
    peak, total, log_z = np.empty((s, u, 1)), np.empty((s, u, 1)), np.empty((s, u, 1))
    # Row-constant views of the same shape as logits, which numpy combines
    # with them faster than it broadcasts.
    peaks, totals = np.broadcast_to(peak, logits.shape), np.broadcast_to(total, logits.shape)
    log_z_rows = log_z.reshape(s, 1, u)
    dots = np.empty((3, s, 1, 1))  # counts . logZ, <W, moments> and |W|^2 of every slice
    cross, moment, ridge = dots
    dot_values = dots.reshape(3, s)
    decay = np.empty((s, b, d))
    maximum, add_up = np.maximum.reduce, np.add.reduce
    matmul, add, subtract, divide, exp, log = np.matmul, np.add, np.subtract, np.divide, np.exp, np.log

    def evaluate(views, grad):
        weights, transposed, flat_rows, flat_cols = views
        # The soft cross-entropy, through the log-normaliser of each distinct
        # row: counts . logZ - <W, targets.T @ features>.
        matmul(rows, transposed, logits)
        maximum(logits, -1, None, peak, True)
        subtract(logits, peaks, logits)
        exp(logits, logits)
        add_up(logits, -1, None, total, True)
        log(total, log_z)
        add(peak, log_z, log_z)
        matmul(log_z_rows, counts, cross)
        matmul(flat_rows, moment_cols, moment)
        matmul(flat_rows, flat_cols, ridge)
        # The gradient: softmax.T @ weighted rows - moments + W / sigma^2.
        divide(logits, totals, logits)
        matmul(probs_t, weighted_rows, grad)
        subtract(grad, moments, grad)
        divide(weights, variance, decay)
        add(grad, decay, grad)
        return [c - m + r / v for c, m, r, v in zip(*dot_values.tolist(), twice_variance)]

    return evaluate


def objective_and_gradient(weights: np.ndarray, ctx: ObjectiveContext):
    """Objective and gradient sharing one softmax evaluation.

    The objective is the soft cross-entropy plus ridge penalty
    sum_ij y_ij log(1/a_ij) + |W|^2 / (2 sigma^2), computed through the
    log-normaliser so extreme logits cannot underflow:
    sum_j y_ij log(1/a_ij) = logZ_i - sum_j y_ij logit_ij.
    Row k of the gradient is -sum_i x_i (y_ik - a_ik) + w_k / sigma^2;
    both sums run over the distinct rows, weighted by their counts.
    This is the one-chain call of objective_kernel, which the weight chain
    runs.  The kernel is bound once per context and reused, with its work
    arrays, so two threads must not call this on one context at once.
    """
    if ctx._kernel is None:
        object.__setattr__(ctx, "_kernel", objective_kernel([ctx]))
    weights = np.array(weights, dtype=np.float64, order="C")[None]
    grad = np.empty_like(weights)
    (value,) = ctx._kernel(stack_views(weights), grad)
    return value, grad[0]


def objective(weights: np.ndarray, ctx: ObjectiveContext) -> float:
    """The objective of objective_and_gradient."""
    return objective_and_gradient(weights, ctx)[0]


def objective_gradient(weights: np.ndarray, ctx: ObjectiveContext) -> np.ndarray:
    """d objective / dW, as objective_and_gradient computes it."""
    return objective_and_gradient(weights, ctx)[1]


def log_partition_given_features(num_vertices: int, num_blocks: int) -> float:
    """log p(b | X) = -N log B: integrating out the block-symmetric Gaussian
    weight prior leaves each vertex's block uniform, but not the joint law of
    b, since vertices share the weights: two with one nonzero feature row
    share a block with probability above 1/B (0.637 at B = 2, sigma = 1)."""
    return -num_vertices * math.log(num_blocks)
