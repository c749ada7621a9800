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

from .sampling import check_integer, check_real, check_reals


def check_sigma(sigma: float) -> float:
    """The prior width rule of the objective and of the weight chain: sigma,
    returned as a float, is a real number in (0, inf) (sampling.check_real),
    and since the objective divides by sigma^2 and 2 sigma^2, sigma^2 is a
    normal float and 2 sigma^2 finite: about 1.5e-154 <= sigma <= 9.5e153."""
    width = check_real("sigma", sigma, 0.0)
    square = width * width  # a Python float product overflows to inf, where ** raises
    if not (square >= sys.float_info.min and math.isfinite(2.0 * square)):
        raise ValueError(f"sigma must have sigma^2 a normal float and 2 sigma^2 finite, got {sigma!r}")
    return width


@dataclass(frozen=True, eq=False)
class ObjectiveContext:
    """Data slice the weight posterior is conditioned on.

    features: rows of the binary feature matrix for the active vertices.
    targets: matching rows of soft responsibilities (or hard one-hot
        memberships); each row must sum to 1, which is the only property
        the gradient identity relies on.
    sigma: prior standard deviation of each weight entry.

    Features and targets are finite reals by ``sampling.check_reals``.  The
    objective depends on the data only through the distinct feature rows,
    their counts and targets.T @ features, so these are derived once:
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
    # A one-slot buffer, its gradient and objective_halves([self], ...) bound
    # to them on the first objective_and_gradient call; the shared buffers
    # make that call unsafe from two threads at once.
    _kernel: object = field(init=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "features", check_reals("features", self.features))
        object.__setattr__(self, "targets", check_reals("targets", self.targets))
        feats, targ = self.features, self.targets
        if feats.ndim != 2 or targ.ndim != 2 or feats.shape[0] != targ.shape[0]:
            raise ValueError("features and targets must be 2-D with equal row counts")
        if not np.allclose(targ.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("every target row must sum to 1")
        object.__setattr__(self, "sigma", check_sigma(self.sigma))
        rows, inverse, counts = np.unique(feats, axis=0, return_inverse=True, return_counts=True)
        counts = counts.astype(np.float64)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "weighted_rows", counts[:, None] * rows)
        object.__setattr__(self, "inverse", inverse.reshape(-1))
        object.__setattr__(self, "target_moments", targ.T @ feats)

    def __getstate__(self):
        return {**self.__dict__, "_kernel": None}  # closures, rebound on first use

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
    products.  objective_halves takes the same two terms as one dot per
    slice (dot_views), which a stack needs so that its values equal its
    slices'; the two forms may differ in the last bit, and the losses keep
    this one so that report.json keeps its bits.
    """
    flat = weights.reshape(*weights.shape[:-2], -1)
    return log_z @ ctx.counts - flat @ ctx.target_moments.ravel()


def dot_views(stack: np.ndarray):
    """(..., 1, K) and (..., K, 1) views of a C-contiguous ... x B x D stack, K = B * D.

    Their matmul is |W|^2 of every slice: numpy computes each
    (1, K) @ (K, 1) product with the dot that np.vdot calls, so a stack's
    values equal its slices' and np.vdot's bit for bit.  A pairwise sum
    such as (x * x).sum() does not.
    """
    lead, k = stack.shape[:-2], stack.shape[-2] * stack.shape[-1]
    return stack.reshape(*lead, 1, k), stack.reshape(*lead, k, 1)


def objective_halves(ctxs, states: np.ndarray, grads: np.ndarray):
    """Bind the objective and gradient of a stack of S contexts of one shape
    (U, B, D) to a block of weight stacks, split into a gradient half and a
    value half.

    states and grads are C-contiguous n x S x B x D buffers, slot k of each
    holding one weight stack and its gradient.  Returns gradient(k), which
    writes into grads[k] the gradient of each slice of slot k under its
    context and keeps each distinct row's peak logit and softmax normaliser
    in slot k; and values(first, stop), which returns the objectives of the
    slots first .. stop - 1 as one list, S floats a slot, from the kept
    peaks and normalisers and three dots per slice.  A value is only as
    current as the last gradient call on its slot.

    The weight chain (mala._run_stack) runs the gradient half once per
    proposal it computes ahead of its MH tests, and the value half once per
    block; objective_and_gradient runs each once on a one-slot buffer.  The
    contexts' arrays are stacked and the work arrays allocated once, here,
    with the views of every slot, and the sliced views of a run of slots,
    one slot or many, on its first use; each numpy call of the value half
    then runs once on a whole run.  Every reduction works slice by slice
    in the order a lone slice uses: matmul (one BLAS call per slice), max
    and sum along the last axis, and dots through dot_views; every other
    step is element by element.  So slice s of slot k gets the bits that
    a one-slot block holding ctxs[s] alone gets, whatever the other slices
    and slots hold and however the runs are cut, and a block's objectives
    equal those of the two halves run one slot at a time.
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

    slots = states.shape[0]
    logits = np.empty((slots, s, u, b))  # the logits, then the shifted exponentials, then the softmax
    peaks, totals, log_z = np.empty((slots, s, u, 1)), np.empty((slots, s, u, 1)), np.empty((slots, s, u, 1))
    decay = np.empty(states.shape)
    dots = np.empty((3, slots, s, 1, 1))  # counts . logZ, <W, moments> and |W|^2 of every slice
    flat_rows, flat_cols = dot_views(states)
    value_runs = {}  # first * slots + stop: the views of those slots
    maximum, add_up = np.maximum.reduce, np.add.reduce
    matmul, add, subtract, divide, exp, log = np.matmul, np.add, np.subtract, np.divide, np.exp, np.log

    # A slot's views are indexed, not sliced, as numpy handles the
    # three-dimensional views faster.  The peaks and normalisers are also
    # viewed as row-constant arrays of the logits' shape, which numpy
    # combines with them faster than it broadcasts.
    slot_views = [(states[k], states[k].swapaxes(-1, -2), logits[k], logits[k].swapaxes(-1, -2),
                   peaks[k], totals[k], np.broadcast_to(peaks[k], logits[k].shape),
                   np.broadcast_to(totals[k], logits[k].shape), grads[k], decay[k]) for k in range(slots)]

    def value_views(run, first, stop):
        return (peaks[run], totals[run], log_z[run], log_z.reshape(slots, s, 1, u)[run], *dots[:, run],
                flat_rows[run], flat_cols[run], dots.reshape(3, -1)[:, first * s:stop * s],
                twice_variance * (stop - first))

    def gradient(k):
        # The softmax of each distinct row, through its peak and normaliser,
        # then softmax.T @ weighted rows - moments + W / sigma^2.
        weights, transposed, logit, probs_t, peak, total, peak_rows, total_rows, grad, scaled = slot_views[k]
        matmul(rows, transposed, logit)
        maximum(logit, -1, None, peak, True)
        subtract(logit, peak_rows, logit)
        exp(logit, logit)
        add_up(logit, -1, None, total, True)
        divide(logit, total_rows, logit)
        matmul(probs_t, weighted_rows, grad)
        subtract(grad, moments, grad)
        divide(weights, variance, scaled)
        add(grad, scaled, grad)

    def values(first, stop):
        # The soft cross-entropy, through the log-normaliser of each distinct
        # row, and the ridge: counts . logZ - <W, targets.T @ features> +
        # |W|^2 / (2 sigma^2).
        key = first * slots + stop
        run = value_runs.get(key) or value_runs.setdefault(key, value_views(slice(first, stop), first, stop))
        peak, total, logs, log_rows, cross, moment, ridge, weight_rows, weight_cols, flat, variances = run
        log(total, logs)
        add(peak, logs, logs)
        matmul(log_rows, counts, cross)
        matmul(weight_rows, moment_cols, moment)
        matmul(weight_rows, weight_cols, ridge)
        crosses, moments_, ridges = flat.tolist()
        return [c - m + r / v for c, m, r, v in zip(crosses, moments_, ridges, variances)]

    return gradient, values


def objective_and_gradient(weights: np.ndarray, ctx: ObjectiveContext):
    """Objective and gradient sharing one softmax evaluation.

    The objective is the soft cross-entropy plus ridge penalty
    sum_ij y_ij log(1/a_ij) + |W|^2 / (2 sigma^2), computed through the
    log-normaliser so extreme logits cannot underflow:
    sum_j y_ij log(1/a_ij) = logZ_i - sum_j y_ij logit_ij.
    Row k of the gradient is -sum_i x_i (y_ik - a_ik) + w_k / sigma^2;
    both sums run over the distinct rows, weighted by their counts.
    It runs the gradient half, then the value half, of objective_halves on
    a one-slot copy of weights: the depth-one use of the halves the weight
    chain runs.  The halves are bound once per context and reused, with
    their buffers, so two threads must not call this on one context at
    once; the gradient returned is a copy, which later calls leave as it is.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (ctx.num_blocks, ctx.num_features):
        raise ValueError(f"weights of shape {weights.shape} for a context of {ctx.num_blocks} blocks "
                         f"and {ctx.num_features} features")
    if ctx._kernel is None:
        state, state_grad = np.empty((2, 1, 1) + weights.shape)
        halves = objective_halves([ctx], state, state_grad)
        object.__setattr__(ctx, "_kernel", (state[0, 0], state_grad[0, 0]) + halves)
    slot, slot_grad, gradient, values = ctx._kernel
    np.copyto(slot, weights)
    gradient(0)
    (value,) = values(0, 1)
    return value, slot_grad.copy()


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
    num_blocks = check_integer("num_blocks", num_blocks, 1)
    return -check_integer("num_vertices", num_vertices, 0) * math.log(num_blocks)
