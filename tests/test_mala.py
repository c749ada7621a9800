import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffbm import (
    GeneratorSpec,
    ObjectiveContext,
    WeightChainConfig,
    accept_log_prob,
    generate,
    load_polbooks,
    objective_and_gradient,
    proposal_log_density,
    run_weight_chain,
    run_weight_chains,
    step_size,
)
from ffbm import mala
from ffbm.sampling import retained_indices, stream_seed_sequence
from ffbm.softmax import objective_halves

from conftest import objective_failing_at


def gaussian_context():
    """B=1, D=1, sigma=1: the softmax factor is constant, so the
    objective is exactly w^2/2 -- a standard Gaussian target."""
    return ObjectiveContext(np.array([[1.0]]), np.array([[1.0]]), 1.0)


def separated_context(size=100):
    feats = np.zeros((size, 1))
    feats[: size // 2, 0] = 1.0
    targets = np.zeros((size, 2))
    targets[: size // 2, 0] = 1.0
    targets[size // 2:, 1] = 1.0
    return ObjectiveContext(feats, targets, 1.0)


# ----------------------------------------------------------------- schedule

def test_step_size_formula():
    cfg = WeightChainConfig(step_scale=0.2)
    h0 = step_size(0, cfg, 238)
    assert math.isclose(h0, (50.0 / 238.0) * 1000.0 ** (-0.8), rel_tol=1e-12)
    assert math.isclose(h0, 8.36e-4, rel_tol=5e-3)


def test_step_size_decreasing_and_linear_in_scale():
    cfg = WeightChainConfig(step_scale=0.3)
    values = [step_size(t, cfg, 50) for t in range(0, 5000, 250)]
    assert all(a > b for a, b in zip(values, values[1:]))
    double = WeightChainConfig(step_scale=0.6)
    assert math.isclose(step_size(123, double, 50), 2 * step_size(123, cfg, 50), rel_tol=1e-12)


def test_step_size_validation():
    cfg = WeightChainConfig()
    with pytest.raises(ValueError):
        step_size(0, cfg, 0)
    # Before iteration 0 the schedule has no meaning, and below -1000 its
    # power of a negative base is complex.
    # An infinite t would give step 0, a NaN one a NaN step.
    for t in (-1, -1500, math.inf, math.nan):
        with pytest.raises(ValueError, match="iteration must be a nonnegative integer"):
            step_size(t, cfg, 10)
    with pytest.raises(ValueError):
        WeightChainConfig(step_scale=-1.0)
    # A NaN step scale would otherwise fail only later, as a misleading
    # WeightChainError at the first proposal.
    for field in ("sigma", "step_scale"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{field} must be a real number in"):
                WeightChainConfig(**{field: value})


def test_the_chain_s_schedule_is_step_size_bit_for_bit(monkeypatch):
    # The chain builds its schedule without a step_size call per iteration;
    # the steps its MH tests read (as -4 h, exact) must still be
    # step_size's floats.
    calls, steps, real = [], {}, mala._decide
    monkeypatch.setattr(mala, "step_size", lambda *args: calls.append(args) or step_size(*args))

    def spy(labels, t, values, proposed, drift_norms, tests):
        # tests[k] belongs to iteration t + k + 1, which takes step h_{t+k}.
        steps.update((t + k, quarter / -4.0) for k, (quarter, _, _) in enumerate(tests))
        return real(labels, t, values, proposed, drift_norms, tests)

    monkeypatch.setattr(mala, "_decide", spy)
    for size in (2, 37, 100, 238):
        for scale in (0.05, 0.5, 3.0):
            cfg = WeightChainConfig(iterations=1200, burn_in=0.0, thinning=1, step_scale=scale)
            steps.clear()
            run_weight_chain(separated_context(size), cfg)
            assert [steps[t].hex() for t in range(1200)] == [step_size(t, cfg, size).hex() for t in range(1200)]
    assert len(calls) == 0


# ------------------------------------------------------------- accept formula

def test_accept_identity_proposal_is_certain():
    ctx = separated_context()
    rng = np.random.default_rng(1)
    w = rng.normal(size=(2, 1))
    assert accept_log_prob(w, w.copy(), ctx, 0.05) == 0.0


def test_accept_flat_target_is_certain():
    # One block makes the cross-entropy identically zero, and a huge prior
    # width flattens the ridge term, so the target has zero gradient
    # everywhere and every proposal is symmetric.
    ctx = ObjectiveContext(np.array([[1.0], [0.0]]), np.ones((2, 1)), 1e9)
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.normal(size=(1, 1))
        b = rng.normal(size=(1, 1))
        assert accept_log_prob(a, b, ctx, 0.1) > -1e-9


def test_proposal_density_validation():
    for step in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"step must be a real number in \(0, inf\)"):
            proposal_log_density(np.zeros((1, 1)), np.ones((1, 1)), np.zeros((1, 1)), step)


def test_accept_log_prob_agrees_with_the_chain_on_non_finite_inputs():
    # The chain raises WeightChainError on a NaN proposal U and rejects a
    # +inf one; min(0, log alpha) alone would accept both for certain.
    ctx = separated_context()
    w = np.random.default_rng(5).normal(size=(2, 1))
    with np.errstate(all="ignore"):  # the objective itself warns on these inputs
        for proposal in (np.full((2, 1), math.nan), np.array([[math.inf], [-math.inf]])):
            assert math.isnan(objective_and_gradient(proposal, ctx)[0])
            with pytest.raises(mala.WeightChainError, match="nan at the proposal"):
                accept_log_prob(w, proposal, ctx, 0.05)
        with pytest.raises(mala.WeightChainError, match="nan at the current state"):
            accept_log_prob(np.full((2, 1), math.nan), w, ctx, 0.05)
        # U is +inf here, and the drift norms overflow.
        huge = np.full((2, 1), 1e200)
        assert objective_and_gradient(huge, ctx)[0] == math.inf
        assert accept_log_prob(w, huge, ctx, 0.05) == -math.inf
    # Finite objectives whose drift norms are both infinite over a subnormal
    # step give a NaN log alpha, which the chain's test rejects.
    assert accept_log_prob(w, w + 1.0, ctx, 1e-310) == -math.inf
    for step in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match=r"step must be a real number in \(0, inf\)"):
            accept_log_prob(w, w + 0.1, ctx, step)


def test_reverse_proposal_identity():
    # The density used inside the chain must match a from-scratch recompute.
    ctx = separated_context()
    rng = np.random.default_rng(3)
    w = rng.normal(size=(2, 1))
    _, grad = objective_and_gradient(w, ctx)
    h = 0.01
    noise = rng.standard_normal((2, 1))
    prop = w - h * grad + math.sqrt(2 * h) * noise
    fast = -float((noise * noise).sum()) / 2.0
    slow = proposal_log_density(w, prop, grad, h)
    assert abs(fast - slow) < 1e-10


# ------------------------------------------------------------------ full runs

def test_retained_count_and_trace_shape():
    ctx = separated_context()
    cfg = WeightChainConfig(iterations=100, burn_in=0.4, thinning=10, seed=4)
    res = run_weight_chain(ctx, cfg)
    assert res.retained == retained_indices(100, 0.4, 10)
    assert len(res.samples) == 7
    assert res.u_trace.shape == (101,)
    assert res.accepted.shape == (100,)
    assert 0.0 < res.acceptance_ratio <= 1.0
    assert math.isclose(res.mean_objective, float(res.u_trace[1:].mean()), rel_tol=1e-12)


def test_chain_deterministic():
    ctx = separated_context()
    cfg = WeightChainConfig(iterations=200, seed=5, burn_in=0.0, thinning=1)
    a = run_weight_chain(ctx, cfg)
    b = run_weight_chain(ctx, cfg)
    assert np.array_equal(np.stack(a.samples), np.stack(b.samples))
    assert np.array_equal(a.u_trace, b.u_trace)


def test_posterior_separates_planted_groups():
    ctx = separated_context()
    cfg = WeightChainConfig(iterations=4000, burn_in=0.4, thinning=5,
                            step_scale=1.0, seed=6)
    res = run_weight_chain(ctx, cfg)
    mean = np.mean(res.samples, axis=0)
    assert mean[0, 0] - mean[1, 0] > 0.5


def test_tight_prior_concentrates_samples():
    sigma = 0.01
    ctx = ObjectiveContext(np.array([[1.0], [0.0]]), np.full((2, 2), 0.5), sigma)
    cfg = WeightChainConfig(iterations=3000, burn_in=0.4, thinning=5,
                            sigma=sigma, step_scale=1.0, seed=7)
    res = run_weight_chain(ctx, cfg)
    norms = [float(np.linalg.norm(w)) for w in res.samples]
    assert np.mean(norms) < 3 * sigma * math.sqrt(4)


def test_grid_integration_oracle_two_parameters():
    # Dense quadrature of exp(-U) on a grid gives the exact posterior
    # moments of the 2-parameter posterior; the chain must agree within
    # Monte Carlo error (batch-means standard errors).
    ctx = separated_context(size=12)
    grid = np.linspace(-6.0, 6.0, 241)
    w1, w2 = np.meshgrid(grid, grid, indexing="ij")
    # Closed form of the unnormalised density: vertices with x=1 contribute
    # log(1 + exp(w2 - w1)) each, vertices with x=0 a constant.
    n1 = int(ctx.targets[:, 0].sum())
    log_dens = -(n1 * np.log1p(np.exp(w2 - w1)) + (w1**2 + w2**2) / 2.0)
    dens = np.exp(log_dens - log_dens.max())
    dens /= dens.sum()
    grid_mean = np.array([(dens * w1).sum(), (dens * w2).sum()])
    grid_var = np.array([(dens * w1**2).sum(), (dens * w2**2).sum()]) - grid_mean**2

    cfg = WeightChainConfig(iterations=60_000, burn_in=0.2, thinning=1,
                            step_scale=4.0, seed=9)
    res = run_weight_chain(ctx, cfg)
    draws = np.stack(res.samples)[:, :, 0]
    batches = np.array_split(draws, 20)
    for coord in range(2):
        means = np.array([b[:, coord].mean() for b in batches])
        se = means.std(ddof=1) / math.sqrt(len(batches))
        assert abs(draws[:, coord].mean() - grid_mean[coord]) < 3 * se + 1e-3
        var_batches = np.array([b[:, coord].var() for b in batches])
        se_var = var_batches.std(ddof=1) / math.sqrt(len(batches))
        assert abs(draws[:, coord].var() - grid_var[coord]) < 3 * se_var + 1e-3


def test_annealed_acceptance_improves():
    ctx = separated_context()
    cfg = WeightChainConfig(iterations=4000, burn_in=0.0, thinning=1,
                            step_scale=40.0, seed=10)
    res = run_weight_chain(ctx, cfg)
    window = cfg.iterations // 10
    early = res.accepted[:window].mean()
    late = res.accepted[-window:].mean()
    assert late > early


def test_chain_flags_do_not_depend_on_row_order():
    # The objective sees sorted distinct rows, so shuffling the vertices
    # may move only the last digits of U.  The step is moderate: with a step
    # far past the curvature the proposal map expands such differences.
    rng = np.random.default_rng(11)
    feats = (rng.random((60, 3)) < 0.5).astype(float)
    raw = rng.random((60, 3))
    ctx = ObjectiveContext(feats, raw / raw.sum(axis=1, keepdims=True), 1.0)
    perm = rng.permutation(60)
    shuffled = ObjectiveContext(ctx.features[perm], ctx.targets[perm], 1.0)
    cfg = WeightChainConfig(iterations=2000, burn_in=0.0, thinning=1, step_scale=4.0, seed=12)
    a = run_weight_chain(ctx, cfg)
    b = run_weight_chain(shuffled, cfg)
    assert 0.0 < a.acceptance_ratio < 1.0
    assert np.array_equal(a.accepted, b.accepted)
    assert np.allclose(a.u_trace, b.u_trace, rtol=1e-12, atol=0.0)


def test_empty_context_is_rejected():
    ctx = ObjectiveContext(np.zeros((0, 2)), np.zeros((0, 3)), 1.0)
    with pytest.raises(ValueError):
        run_weight_chain(ctx, WeightChainConfig(iterations=10))


def reference_weight_chain(ctx, cfg):
    """The weight chain as a plain loop over the public objective_and_gradient
    and proposal_log_density, which run_weight_chain must match byte for
    byte.  The initial state comes from default_rng(seed), and iteration t
    draws its noise from the first child of SeedSequence(seed) and one
    uniform, used or not, from the second.  Returns the U trace, the
    retained samples and the acceptance flags."""
    noise_rng, accept_rng = map(np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(2))
    shape = (ctx.num_blocks, ctx.num_features)
    weights = np.random.default_rng(cfg.seed).normal(0.0, cfg.sigma, shape)
    value, grad = objective_and_gradient(weights, ctx)
    keep = set(retained_indices(cfg.iterations, cfg.burn_in, cfg.thinning))
    trace = [value]
    samples = [weights] if 0 in keep else []
    accepted = []
    for t in range(cfg.iterations):
        h = step_size(t, cfg, ctx.size)
        noise = noise_rng.standard_normal(shape)
        uniform = accept_rng.random()
        proposal = weights - h * grad + math.sqrt(2.0 * h) * noise
        prop_value, prop_grad = objective_and_gradient(proposal, ctx)
        log_fwd = -float(np.vdot(noise, noise)) / 2.0
        log_alpha = (value - prop_value + proposal_log_density(proposal, weights, prop_grad, h)
                     - log_fwd)
        accept = log_alpha >= 0.0 or uniform < math.exp(log_alpha)
        if accept:
            weights, value, grad = proposal, prop_value, prop_grad
        accepted.append(accept)
        trace.append(value)
        if t + 1 in keep:
            samples.append(weights)
    return np.array(trace), samples, np.array(accepted)


def polbooks_context(seed=3):
    """Polbooks' first 74 vertices with soft targets drawn from the seed, as a
    repetition's training set."""
    net = load_polbooks()
    raw = np.random.default_rng(seed).random((74, 3))
    return ObjectiveContext(net.features[:74], raw / raw.sum(axis=1, keepdims=True), 1.0)


def planted_context():
    """350 training vertices of a planted N=500, B=4 model with 4 binary
    flags, targets the planted one-hot memberships."""
    off = 8.0 * 4 / (500 * 13)
    spec = GeneratorSpec(num_vertices=500, weights=3.0 * np.eye(4),
                         affinity=np.full((4, 4), off) + np.eye(4) * 9 * off,
                         feature_probs=np.full(4, 0.5), seed=11)
    net, truth = generate(spec)
    return ObjectiveContext(net.features[:350], np.eye(4)[truth["memberships"][:350]], 1.0)


@pytest.mark.parametrize("make_context", [polbooks_context, planted_context])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weight_chain_equals_the_reference_loop(make_context, seed):
    ctx = make_context()
    cfg = WeightChainConfig(iterations=1500, burn_in=0.2, thinning=7, step_scale=0.5, seed=seed)
    res = run_weight_chain(ctx, cfg)
    trace, samples, accepted = reference_weight_chain(ctx, cfg)
    assert 0.0 < accepted.mean() < 1.0
    assert res.u_trace.tobytes() == trace.tobytes()
    assert len(res.samples) == len(samples)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(res.samples, samples))
    assert res.accepted.tobytes() == accepted.tobytes()
    assert res.acceptance_ratio == float(accepted.sum()) / cfg.iterations
    assert res.mean_objective == float(trace[1:].mean())


@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("chunk, floats", [(1, None), (7, None), (301, None), (None, 20)])
def test_weight_chain_output_does_not_depend_on_the_chunk(monkeypatch, size, chunk, floats):
    # Iteration t reads normals tK .. (t+1)K - 1 and uniform t of its chain's
    # streams, so chunks of 1, 7, the whole chain (T + 1) and the float
    # cap's 2 iterations (K = 9) give the bytes of the default chunk.
    ctxs = [polbooks_context(seed) for seed in range(3, 3 + size)]
    cfgs = [WeightChainConfig(iterations=300, burn_in=0.2, thinning=3, step_scale=0.5, seed=s)
            for s in range(size)]
    default = run_weight_chains(ctxs, cfgs)
    monkeypatch.setattr(mala, "_CHUNK", chunk or mala._CHUNK)
    monkeypatch.setattr(mala, "_CHUNK_FLOATS", floats or mala._CHUNK_FLOATS)
    for a, b in zip(default, run_weight_chains(ctxs, cfgs)):
        assert 0.0 < a.accepted.mean() < 1.0
        assert a.u_trace.tobytes() == b.u_trace.tobytes()
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a.accepted.tobytes() == b.accepted.tobytes()


def _spy_blocks(monkeypatch):
    """Record (block length, flags of its last iteration decided, iterations
    decided) for every block the chains settle."""
    real, blocks = mala._decide, []

    def spy(labels, t, values, proposed, drift_norms, tests):
        outcome = real(labels, t, values, proposed, drift_norms, tests)
        blocks.append((len(tests),) + outcome[:2])
        return outcome

    monkeypatch.setattr(mala, "_decide", spy)
    return blocks


@pytest.mark.parametrize("size, step_scale, burn_in, thinning",
                         [(1, 2.0, 0.2, 3), (3, 2.0, 0.2, 3), (1, 5.0, 0.2, 3), (3, 2.0, 0.0, 1)],
                         ids=["1-2.0", "3-2.0", "1-5.0", "3-2.0-every"])
@pytest.mark.parametrize("depth", [1, 2, 7, 400])
def test_weight_chain_output_does_not_depend_on_how_far_it_runs_ahead(monkeypatch, size, step_scale,
                                                                      burn_in, thinning, depth):
    # A chain computes blocks of proposals ahead of their MH tests and drops
    # what follows the first rejection, so blocks of at most 1, 2 or 7
    # iterations, or as long as the chunk of 256, give the bytes of the
    # default depth.  A lone chain accepts 0.92 of its proposals at
    # step_scale 2 and 0.67 at 5, a stack of three 0.86-0.92 at 2; in each
    # case rejections cut blocks at their first iteration, at later ones,
    # and (past a depth of 2) before their last, so work run ahead is dropped.
    # With every iteration kept (burn_in 0, thinning 1), the samples hold
    # iteration 0, iteration T and the end of every block.
    ctxs = [polbooks_context(seed) for seed in range(3, 3 + size)]
    cfgs = [WeightChainConfig(iterations=300, burn_in=burn_in, thinning=thinning, step_scale=step_scale,
                              seed=s) for s in range(size)]
    default = run_weight_chains(ctxs, cfgs)
    monkeypatch.setattr(mala, "_DEPTH", depth)
    blocks = _spy_blocks(monkeypatch)
    for a, b in zip(default, run_weight_chains(ctxs, cfgs)):
        assert 0.0 < a.accepted.mean() < 1.0
        assert len(b.samples) == (301 if thinning == 1 else 81)
        assert a.u_trace.tobytes() == b.u_trace.tobytes()
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a.accepted.tobytes() == b.accepted.tobytes()
    assert max(n for n, _, _ in blocks) <= depth
    assert (depth == 1) == all(decided == n for n, _, decided in blocks)
    if depth > 1:
        assert any(decided > 1 and not all(flags) for _, flags, decided in blocks)
        assert depth == 2 or any(1 < decided < n for n, _, decided in blocks)


def test_a_stack_keeps_each_chain_s_outcome_where_its_chains_differ(monkeypatch):
    # A block assumes that every chain accepts every proposal.  Where the
    # chains differ, the block ends, with one chain rejecting while the
    # others accept at the block's first iteration among the cases; the
    # chains that moved keep their moves, the others their states, and
    # every chain equals its reference loop.
    ctxs = [polbooks_context(seed) for seed in (3, 4, 5)]
    cfgs = [WeightChainConfig(iterations=300, burn_in=0.0, thinning=1, step_scale=2.0, seed=s)
            for s in range(3)]
    blocks = _spy_blocks(monkeypatch)
    results = run_weight_chains(ctxs, cfgs)
    cuts = [(decided, sum(flags)) for n, flags, decided in blocks if n > 1 and 0 < sum(flags) < 3]
    assert (1, 2) in cuts
    for ctx, cfg, res in zip(ctxs, cfgs, results):
        trace, samples, accepted = reference_weight_chain(ctx, cfg)
        assert res.u_trace.tobytes() == trace.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(res.samples, samples))
        assert res.accepted.tobytes() == accepted.tobytes()


@pytest.mark.parametrize("slot, warns", [(2, False), (1, True)])
def test_floating_point_errors_of_work_run_ahead_raise_no_warning(monkeypatch, slot, warns):
    # The gradient half overflows on every slot from the given one on.
    # Past slot 1 that is work run ahead of the MH tests: the chain runs the
    # iterations of the block again one at a time, which gives the same
    # bytes and no warning, and a fault costs about one rerun of its block,
    # so the chain computes at most 3 gradients per iteration.  At slot 1
    # the chain meets the overflow one iteration at a time too, and the
    # warning is raised.
    ctx, cfg = polbooks_context(), WeightChainConfig(iterations=300, step_scale=0.5, seed=1)
    plain = run_weight_chain(ctx, cfg)
    real, calls = mala.objective_halves, []

    def halves(ctxs, states, grads):
        gradient, values = real(ctxs, states, grads)

        def overflowing(k):
            gradient(k)
            calls.append(k)
            if k >= slot:
                np.multiply(1e300, 1e300)

        return overflowing, values

    monkeypatch.setattr(mala, "objective_halves", halves)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if warns:
            with pytest.raises(RuntimeWarning, match="overflow"):
                run_weight_chain(ctx, cfg)
        else:
            res = run_weight_chain(ctx, cfg)
            assert res.u_trace.tobytes() == plain.u_trace.tobytes()
            assert res.samples.tobytes() == plain.samples.tobytes()
            assert len(calls) <= 3 * cfg.iterations


def test_one_config_runs_twice_to_the_same_bytes():
    # A run's chains are seeded by SeedSequences; the noise and accept
    # streams are derived from the seed without spawn, which would count its
    # calls on the seed and give a second run other children.
    seed = stream_seed_sequence(1, "weight-chain", 0)
    cfg = WeightChainConfig(iterations=200, burn_in=0.0, thinning=1, step_scale=0.5, seed=seed)
    ctx = polbooks_context()
    a, b = run_weight_chain(ctx, cfg), run_weight_chain(ctx, cfg)
    fresh = run_weight_chain(ctx, WeightChainConfig(iterations=200, burn_in=0.0, thinning=1, step_scale=0.5,
                                                    seed=stream_seed_sequence(1, "weight-chain", 0)))
    assert seed.n_children_spawned == 0
    assert 0.0 < a.accepted.mean() < 1.0
    for res in (b, fresh):
        assert a.u_trace.tobytes() == res.u_trace.tobytes()
        assert a.samples.tobytes() == res.samples.tobytes()
        assert a.accepted.tobytes() == res.accepted.tobytes()


@pytest.mark.parametrize("call, value, where", [
    (0, math.nan, "initial draw"),
    (0, math.inf, "initial draw"),
    (5, math.nan, "iteration 5"),
    (3, -math.inf, "iteration 3"),
])
def test_weight_chain_names_the_non_finite_step(monkeypatch, call, value, where):
    objective_failing_at(monkeypatch, call, value)
    cfg = WeightChainConfig(iterations=50, burn_in=0.0, thinning=1, seed=13)
    with pytest.raises(ArithmeticError, match=where):
        run_weight_chain(separated_context(), cfg)


def test_weight_chain_error_keeps_its_chain_through_pickling():
    # A --jobs worker sends the error back to the main process by pickle.
    exc = pickle.loads(pickle.dumps(mala.WeightChainError("objective is nan", 2)))
    assert (type(exc), str(exc), exc.chain) == (mala.WeightChainError, "objective is nan", 2)


def test_weight_chain_rejects_an_infinite_proposal(monkeypatch):
    cfg = WeightChainConfig(iterations=50, burn_in=0.0, thinning=1, seed=13)
    plain = run_weight_chain(separated_context(), cfg)
    assert plain.accepted[6]
    objective_failing_at(monkeypatch, 7, math.inf)
    res = run_weight_chain(separated_context(), cfg)
    assert not res.accepted[6]
    assert np.isfinite(res.u_trace).all()


def _stack_inputs(rng, size, real_valued):
    """size contexts on 10 vertices with 2 features; odd positions use half as
    many distinct feature rows as even ones, so a stack of two or more splits
    by U.  Prior widths differ by position."""
    ctxs = []
    for s in range(size):
        if real_valued:
            pool = rng.normal(size=(10 if s % 2 == 0 else 5, 2))
        else:
            pool = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])[:4 if s % 2 == 0 else 2]
        feats = pool[rng.permutation(np.arange(10) % len(pool))]
        raw = rng.random((10, 3))
        ctxs.append(ObjectiveContext(feats, raw / raw.sum(axis=1, keepdims=True), (1.0, 0.5, 2.0)[s % 3]))
    return ctxs


@given(st.integers(1, 5), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_lockstep_chains_equal_the_reference_loop(size, real_valued, seed):
    rng = np.random.default_rng(seed)
    ctxs = _stack_inputs(rng, size, real_valued)
    cfgs = [WeightChainConfig(iterations=120, burn_in=0.2, thinning=3, sigma=ctx.sigma,
                              step_scale=0.5, seed=seed + s) for s, ctx in enumerate(ctxs)]
    results = run_weight_chains(ctxs, cfgs)
    for ctx, cfg, res in zip(ctxs, cfgs, results):
        trace, samples, accepted = reference_weight_chain(ctx, cfg)
        assert res.u_trace.tobytes() == trace.tobytes()
        assert len(res.samples) == len(samples)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(res.samples, samples))
        assert res.accepted.tobytes() == accepted.tobytes()
        assert res.acceptance_ratio == float(accepted.sum()) / cfg.iterations
        assert res.mean_objective == float(trace[1:].mean())

    # One stack per shape: its objective, gradient and proposal densities
    # equal the one-chain calls slice by slice.
    for parity in (0, 1):
        group = ctxs[parity::2]
        if not group:
            continue
        shape = (len(group), 3, 2)
        weights, to, grad_from = (rng.normal(size=shape) for _ in range(3))
        states, grads = np.empty((2, 1) + shape)
        states[0] = weights
        gradient, objective_values = objective_halves(group, states, grads)
        gradient(0)
        values, grad = objective_values(0, 1), grads[0]
        densities = proposal_log_density(weights, to, grad_from, 0.03)
        for s, ctx in enumerate(group):
            value, slice_grad = objective_and_gradient(weights[s], ctx)
            assert np.float64(values[s]).tobytes() == np.float64(value).tobytes()
            assert grad[s].tobytes() == slice_grad.tobytes()
            assert densities[s] == proposal_log_density(weights[s], to[s], grad_from[s], 0.03)


def test_lockstep_stacks_split_by_shape_and_see_both_outcomes():
    # The inputs of the hypothesis test above: stacks split by U, and
    # step_scale=0.5 gives rejections as well as acceptances, so some
    # iterations copy only part of a stack's proposals.
    ctxs = _stack_inputs(np.random.default_rng(0), 5, real_valued=False)
    cfgs = [WeightChainConfig(iterations=120, burn_in=0.2, thinning=3, sigma=ctx.sigma,
                              step_scale=0.5, seed=s) for s, ctx in enumerate(ctxs)]
    assert {ctx.rows.shape[0] for ctx in ctxs} == {2, 4}
    accepted = np.stack([res.accepted for res in run_weight_chains(ctxs, cfgs)])
    assert 0.0 < accepted.mean() < 1.0
    moved = accepted[0::2].sum(axis=0)  # the U = 4 stack
    assert ((0 < moved) & (moved < 3)).any()


def test_lockstep_samples_peak_at_one_copy_per_chain():
    # Each chain's retained samples are views of one buffer per stack, so a
    # stack of four peaks at four chains' samples plus work arrays, not at
    # two copies of them.
    rng = np.random.default_rng(4)
    ctxs = []
    for _ in range(4):
        raw = rng.random((20, 4))
        ctxs.append(ObjectiveContext(rng.normal(size=(20, 64)), raw / raw.sum(axis=1, keepdims=True), 1.0))
    cfgs = [WeightChainConfig(iterations=1000, burn_in=0.0, thinning=1, seed=s) for s in range(4)]
    run_weight_chains(ctxs[:1], cfgs[:1])  # binds numpy's lazily built internals untraced
    tracemalloc.start()
    try:
        results = run_weight_chains(ctxs, cfgs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one_chain = sum(sample.nbytes for sample in results[0].samples)
    assert len(results[0].samples) == 1001 and one_chain == 1001 * 4 * 64 * 8
    assert peak < 1.25 * 4 * one_chain


def test_proposal_log_density_of_vectors_is_vdot():
    # One state of any shape is a vector to the density, as np.vdot sees it.
    rng = np.random.default_rng(8)
    for shape in [(), (0,), (7,), (3, 5), (3, 0)]:
        frm, to, grad = (rng.normal(size=shape) for _ in range(3))
        drift = to - frm + 0.01 * grad
        value = proposal_log_density(frm, to, grad, 0.01)
        assert isinstance(value, float)
        assert value == -float(np.vdot(drift, drift)) / (4.0 * 0.01)
    frm, to, grad = (rng.normal(size=(2, 3, 4, 5)) for _ in range(3))
    values = proposal_log_density(frm, to, grad, 0.01)
    assert values.shape == (2, 3)
    assert values[1, 2] == proposal_log_density(frm[1, 2], to[1, 2], grad[1, 2], 0.01)


def test_prior_width_mismatch_raises_before_any_draw(monkeypatch):
    # The objective reads ctx.sigma and the initial draw cfg.sigma: a chain
    # whose two differ would start from the wrong prior.  The check covers
    # every chain before any stack runs, also a later stack's chain.
    monkeypatch.setattr(mala, "_run_stack", lambda *args: pytest.fail("a stack ran"))
    with pytest.raises(ValueError, match=r"weight chain 1\b.*sigma=2\.0.*sigma=1\.0"):
        run_weight_chains([gaussian_context(), ObjectiveContext(np.eye(2), np.eye(2), 2.0)],
                          [WeightChainConfig(), WeightChainConfig()])
    ctx = ObjectiveContext(np.array([[1.0]]), np.array([[1.0]]), 2.0)
    with pytest.raises(ValueError, match="weight chain 0"):
        run_weight_chain(ctx, WeightChainConfig())
