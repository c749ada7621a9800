import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from ffbm import (
    ObjectiveContext,
    WeightChainConfig,
    class_probabilities,
    log_partition_given_features,
    objective,
    objective_and_gradient,
    objective_gradient,
)
from ffbm.softmax import check_sigma


def random_context(rng, num_blocks, num_features, size, sigma=1.0):
    feats = (rng.random((size, num_features)) < 0.5).astype(float)
    raw = rng.random((size, num_blocks))
    targets = raw / raw.sum(axis=1, keepdims=True)
    return ObjectiveContext(feats, targets, sigma)


# ------------------------------------------------------------------- softmax

def test_softmax_zero_weights_uniform():
    w = np.zeros((4, 3))
    assert np.allclose(class_probabilities(w, np.array([[1.0, 0.0, 1.0]])), 0.25)


def test_softmax_two_block_example():
    w = np.array([[math.log(2.0)], [0.0]])
    probs = class_probabilities(w, np.array([[1.0]]))[0]
    assert np.allclose(probs, [2 / 3, 1 / 3])


def test_softmax_zero_features_uniform():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 4))
    assert np.allclose(class_probabilities(w, np.zeros((1, 4))), 1 / 3)


def test_softmax_overflow_safe():
    w = np.array([[800.0], [-800.0]])
    probs = class_probabilities(w, np.array([[1.0]]))[0]
    assert np.isfinite(probs).all()
    assert math.isclose(probs.sum(), 1.0, abs_tol=1e-12)


@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_softmax_rows_sum_to_one(num_blocks, num_features, seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=5.0, size=(num_blocks, num_features))
    x = rng.integers(0, 2, num_features).astype(float)
    assert abs(class_probabilities(w, x[None])[0].sum() - 1.0) < 1e-12
    probs = class_probabilities(w, np.stack([x, x * 0]))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_softmax_equals_the_shifted_exponential_formula(num_blocks, num_features, seed):
    # Weights of +-800 put logits far past exp's overflow point.
    rng = np.random.default_rng(seed)
    w = rng.choice([-800.0, -2.5, 0.0, 0.75, 800.0], size=(num_blocks, num_features))
    x = rng.integers(0, 2, (7, num_features)).astype(np.int8)
    logits = x.astype(np.float64) @ w.T
    logits -= logits.max(axis=1, keepdims=True)
    expected = np.exp(logits)
    expected /= expected.sum(axis=1, keepdims=True)
    assert class_probabilities(w, x).tobytes() == expected.tobytes()


# ----------------------------------------------------------------- objective

def test_objective_zero_weights_is_entropy():
    rng = np.random.default_rng(1)
    ctx = random_context(rng, 3, 4, 20)
    assert math.isclose(objective(np.zeros((3, 4)), ctx), 20 * math.log(3), rel_tol=1e-12)


def test_objective_prior_vanishes_for_wide_prior():
    rng = np.random.default_rng(2)
    feats = (rng.random((15, 3)) < 0.5).astype(float)
    raw = rng.random((15, 2))
    targets = raw / raw.sum(axis=1, keepdims=True)
    w = rng.normal(size=(2, 3))
    tight = objective(w, ObjectiveContext(feats, targets, 1.0))
    wide = objective(w, ObjectiveContext(feats, targets, 1e9))
    penalty = float((w * w).sum()) / 2.0
    assert math.isclose(tight - wide, penalty, rel_tol=1e-6)


def test_objective_matches_scalar_loop_oracle():
    rng = np.random.default_rng(3)
    ctx = random_context(rng, 3, 5, 12, sigma=0.7)
    w = rng.normal(size=(3, 5))
    total = 0.0
    for i in range(12):
        probs = class_probabilities(w, ctx.features[i][None])[0]
        for j in range(3):
            total += ctx.targets[i, j] * math.log(1.0 / probs[j])
    total += sum(w[r, d] ** 2 for r in range(3) for d in range(5)) / (2 * 0.7**2)
    assert abs(objective(w, ctx) - total) < 1e-10


def test_objective_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(20):
        ctx = random_context(rng, 2, 3, 8, sigma=0.5)
        w = rng.normal(scale=3.0, size=(2, 3))
        assert objective(w, ctx) >= 0.0


def full_row_objective(weights, features, targets, sigma):
    """Value and gradient summed over every row, as computed before the rows were compressed."""
    logits = features @ weights.T
    peak = logits.max(axis=1, keepdims=True)
    log_z = (peak + np.log(np.exp(logits - peak).sum(axis=1, keepdims=True)))[:, 0]
    value = (log_z.sum() - float((targets * logits).sum())
             + float((weights * weights).sum()) / (2.0 * sigma**2))
    probs = np.exp(logits - log_z[:, None])
    grad = (probs - targets).T @ features + weights / sigma**2
    return value, grad


@given(num_blocks=st.integers(1, 5), num_features=st.integers(1, 6), distinct=st.integers(1, 6),
       size=st.integers(1, 40), real_valued=st.booleans(), zero_row=st.booleans(),
       seed=st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_compressed_objective_matches_full_row_oracle(num_blocks, num_features, distinct, size,
                                                       real_valued, zero_row, seed):
    # Vertices draw their rows from a few distinct ones, so rows repeat.
    rng = np.random.default_rng(seed)
    if real_valued:
        base = rng.normal(size=(distinct, num_features))
    else:
        base = (rng.random((distinct, num_features)) < 0.5).astype(float)
    if zero_row:
        base[0] = 0.0
    picks = rng.integers(0, distinct, size)
    picks[0] = 0
    feats = base[picks]
    raw = rng.random((size, num_blocks))
    targets = raw / raw.sum(axis=1, keepdims=True)
    sigma = float(rng.uniform(0.5, 2.0))
    ctx = ObjectiveContext(feats, targets, sigma)
    assert np.array_equal(ctx.rows[ctx.inverse], ctx.features)
    assert len(np.unique(ctx.rows, axis=0)) == len(ctx.rows) <= distinct
    assert ctx.counts.sum() == size

    w = rng.normal(scale=3.0, size=(num_blocks, num_features))
    value, grad = objective_and_gradient(w, ctx)
    want_value, want_grad = full_row_objective(w, feats, targets, sigma)
    assert abs(value - want_value) <= 1e-12 * max(1.0, abs(want_value))
    assert np.abs(grad - want_grad).max() <= 1e-12 * max(1.0, np.abs(want_grad).max())


def test_context_validates_rows():
    with pytest.raises(ValueError):
        ObjectiveContext(np.zeros((2, 1)), np.array([[0.7, 0.2], [0.5, 0.5]]), 1.0)
    with pytest.raises(ValueError):
        ObjectiveContext(np.zeros((2, 1)), np.full((2, 2), 0.5), 0.0)
    # A NaN prior width would give a NaN objective and gradient without an error.
    for sigma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must"):
            ObjectiveContext(np.zeros((2, 1)), np.full((2, 2), 0.5), sigma)


def test_prior_width_keeps_its_square_normal_and_twice_its_square_finite():
    # The bounds sqrt(smallest normal) and sqrt(largest float / 2) pass, and
    # 1% beyond either fails; -1 squares to a valid width, so the sign is checked.
    lowest, highest = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max / 2)
    for sigma in (lowest, highest, 1.0):
        check_sigma(sigma)
        WeightChainConfig(sigma=sigma)
    for sigma in (0.99 * lowest, 1.01 * highest, 1e-170, 1e200, -1.0, 0.0):
        with pytest.raises(ValueError, match="sigma must"):
            ObjectiveContext(np.zeros((2, 1)), np.full((2, 2), 0.5), sigma)
        with pytest.raises(ValueError, match="sigma must"):
            WeightChainConfig(sigma=sigma)


def test_context_pickled_after_use_gives_the_same_bits():
    # The bound halves are closures, which pickle cannot take; they are
    # dropped and rebound on the copy's first call.
    rng = np.random.default_rng(4)
    ctx = random_context(rng, 3, 4, 20, sigma=0.8)
    weights = rng.normal(size=(3, 4))
    value, grad = objective_and_gradient(weights, ctx)
    copy = pickle.loads(pickle.dumps(ctx))
    assert copy._kernel is None
    copy_value, copy_grad = objective_and_gradient(weights, copy)
    assert copy_value == value and copy_grad.tobytes() == grad.tobytes()


def test_contexts_compare_and_hash_by_identity():
    ctx = ObjectiveContext(np.eye(2), np.eye(2), 1.0)
    other = ObjectiveContext(np.eye(2), np.eye(2), 1.0)
    assert ctx == ctx and ctx != other
    assert ctx in [other, ctx] and other not in [ctx]
    assert len({ctx, other, ctx}) == 2


# ------------------------------------------------------------------ gradient

def test_gradient_zero_weights_closed_form():
    rng = np.random.default_rng(5)
    ctx = random_context(rng, 3, 4, 10)
    grad = objective_gradient(np.zeros((3, 4)), ctx)
    expected = np.zeros((3, 4))
    for k in range(3):
        expected[k] = -(ctx.features * (ctx.targets[:, k] - 1 / 3)[:, None]).sum(axis=0)
    assert np.allclose(grad, expected, atol=1e-12)


def test_gradient_perfect_fit_leaves_prior():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(2, 3))
    feats = (rng.random((30, 3)) < 0.5).astype(float)
    targets = class_probabilities(w, feats)  # y == a exactly
    ctx = ObjectiveContext(feats, targets, 0.9)
    assert np.allclose(objective_gradient(w, ctx), w / 0.9**2, atol=1e-10)


def central_difference(w, ctx, step=1e-5):
    grad = np.zeros_like(w)
    for r in range(w.shape[0]):
        for d in range(w.shape[1]):
            up = w.copy()
            up[r, d] += step
            dn = w.copy()
            dn[r, d] -= step
            grad[r, d] = (objective(up, ctx) - objective(dn, ctx)) / (2 * step)
    return grad


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(10):
        num_blocks = int(rng.integers(2, 6))
        num_features = int(rng.integers(1, 9))
        ctx = random_context(rng, num_blocks, num_features, int(rng.integers(2, 51)),
                             sigma=float(rng.uniform(0.5, 2.0)))
        w = rng.normal(size=(num_blocks, num_features))
        analytic = objective_gradient(w, ctx)
        numeric = central_difference(w, ctx)
        rel = np.abs(numeric - analytic).max() / (np.abs(analytic).max() + 1e-12)
        assert rel < 1e-6


def test_objective_and_gradient_consistent():
    rng = np.random.default_rng(8)
    ctx = random_context(rng, 3, 4, 15)
    w = rng.normal(size=(3, 4))
    value, grad = objective_and_gradient(w, ctx)
    assert math.isclose(value, objective(w, ctx), rel_tol=1e-12)
    assert np.allclose(grad, objective_gradient(w, ctx), atol=1e-12)


def test_successive_gradients_of_one_context_do_not_alias():
    # Every call on a context reuses one bound buffer, so each gradient
    # returned must be a copy: the first survives the second call, and both
    # equal the results on a fresh context.
    def context():
        return random_context(np.random.default_rng(10), 3, 4, 15)

    ctx = context()
    first, second = np.random.default_rng(11).normal(size=(2, 3, 4))
    value, grad = objective_and_gradient(first, ctx)
    kept = grad.copy()
    second_value, second_grad = objective_and_gradient(second, ctx)
    assert grad.tobytes() == kept.tobytes()
    assert not np.shares_memory(grad, second_grad)
    for weights, v, g in ((first, value, grad), (second, second_value, second_grad)):
        fresh_value, fresh_grad = objective_and_gradient(weights, context())
        assert fresh_value == v and fresh_grad.tobytes() == g.tobytes()


# --------------------------------------------------------------- shift symmetry

def test_likelihood_shift_invariant_prior_not():
    rng = np.random.default_rng(9)
    feats = (rng.random((20, 3)) < 0.5).astype(float)
    raw = rng.random((20, 2))
    targets = raw / raw.sum(axis=1, keepdims=True)
    ctx = ObjectiveContext(feats, targets, 1.0)
    wide = ObjectiveContext(feats, targets, 1e12)  # isolates the likelihood term

    w = rng.normal(size=(2, 3))
    shift = rng.normal(size=3)
    assert abs(objective(w, wide) - objective(w + shift, wide)) < 1e-10

    # At the regularised minimiser any row-shift cannot lower the objective.
    res = minimize(lambda flat: objective_and_gradient(flat.reshape(2, 3), ctx)[0],
                   np.zeros(6),
                   jac=lambda flat: objective_and_gradient(flat.reshape(2, 3), ctx)[1].ravel())
    w_star = res.x.reshape(2, 3)
    for _ in range(10):
        c = rng.normal(size=3)
        assert objective(w_star + c, ctx) >= objective(w_star, ctx) - 1e-9


# ------------------------------------------------------------- p(b|X) marginal

def test_log_partition_given_features_examples():
    assert math.isclose(log_partition_given_features(3, 2), math.log(1 / 8), rel_tol=1e-12)
    assert log_partition_given_features(7, 1) == 0.0


def test_partition_marginal_monte_carlo():
    # E_theta[p(b | X, theta)] = B^-N for b over N=2 vertices with feature
    # rows (1) and (0); the x = 0 row is uniform for every theta, so the
    # joint factorises exactly and each of the four memberships averages 1/4.
    rng = np.random.default_rng(10)
    draws = 40_000
    w = rng.normal(0.0, 1.0, size=(draws, 2))
    logits = w - w.max(axis=1, keepdims=True)
    phi = np.exp(logits)
    phi /= phi.sum(axis=1, keepdims=True)
    for b1 in range(2):
        for b2 in range(2):
            values = phi[:, b1] * 0.5
            err = abs(values.mean() - 0.25)
            se = values.std(ddof=1) / math.sqrt(draws)
            assert err < 3 * se, (b1, b2, err, 3 * se)


def test_partition_marginal_single_vertex_any_features():
    # For one vertex the identity holds for every feature vector.
    rng = np.random.default_rng(11)
    draws = 40_000
    x = np.array([1.0, 0.0, 1.0])
    w = rng.normal(0.0, 1.0, size=(draws, 3, 3))
    logits = w @ x
    logits -= logits.max(axis=1, keepdims=True)
    phi = np.exp(logits)
    phi /= phi.sum(axis=1, keepdims=True)
    for b in range(3):
        err = abs(phi[:, b].mean() - 1 / 3)
        se = phi[:, b].std(ddof=1) / math.sqrt(draws)
        assert err < 3 * se
