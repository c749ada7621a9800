"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from ffbm import (
    BlockChainConfig,
    BlockState,
    GeneratorSpec,
    ObjectiveContext,
    RunConfig,
    WeightChainConfig,
    accept_log_prob,
    align_labels,
    apply_move,
    count_partitions,
    delta_description_length,
    description_length,
    generate,
    load_polbooks,
    network_from_edges,
    objective_and_gradient,
    objective_gradient,
    reduce_dimension,
    run_block_chain,
    run_experiment,
    run_repetition,
    run_weight_chain,
    sample_microcanonical_graph,
    summarize_weights,
)
from ffbm.analysis import WeightSummary, feature_scores
from ffbm.pipeline import aggregate_reports

from conftest import random_multigraph
from test_analysis import naive_reduction
from test_dcsbm import enumerate_matchings, exact_graph_multiplicity, exact_pairing_count
from test_softmax import central_difference, random_context
from test_tables import enumerate_partitions


def check(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {num:2d}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


# -------------------------------------------------------------------------- 1

def test_criterion_1_polbooks_reproduction():
    net = load_polbooks()
    cfg = RunConfig(seed=1)  # defaults are the published polbooks hyperparameters
    assert (cfg.num_blocks, cfg.train_fraction, cfg.sigma) == (3, 0.7, 1.0)
    assert (cfg.block_iters, cfg.block_burn_in, cfg.block_thinning) == (1000, 0.2, 5)
    assert (cfg.theta_iters, cfg.theta_burn_in, cfg.theta_thinning) == (10000, 0.4, 10)
    assert (cfg.step_scale, cfg.repetitions) == (0.05, 10)

    start = time.time()
    reports, _ = run_experiment(net, cfg)
    elapsed = time.time() - start
    agg = aggregate_reports(reports)["mean"]

    s_ok = abs(agg["mean_description_length"] - 2.250) < 0.03
    l0_ok = abs(agg["loss_train"] - 0.563) < 0.13
    l1_ok = abs(agg["loss_test"] - 0.595) < 0.27
    time_ok = elapsed / cfg.repetitions < 180.0
    check(1, "polbooks reproduction", s_ok and l0_ok and l1_ok and time_ok,
          f"S_e={agg['mean_description_length']:.4f} (2.250±0.03), "
          f"L0={agg['loss_train']:.4f} (0.563±0.13), "
          f"L1={agg['loss_test']:.4f} (0.595±0.27), "
          f"{elapsed / cfg.repetitions:.1f}s/repetition")


# -------------------------------------------------------------------------- 2

def fold_orbit(labels):
    flipped = tuple(1 - x for x in labels)
    return min(labels, flipped)


def test_criterion_2_exact_posterior_oracle():
    net = network_from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    log_pi = {}
    for labels in itertools.product(range(2), repeat=5):
        if len(set(labels)) < 2:
            continue  # unreachable at fixed B: empty-block moves are rejected
        state = BlockState(net, list(labels), 2)
        log_pi[labels] = -description_length(net, state)
    peak = max(log_pi.values())
    z = sum(math.exp(v - peak) for v in log_pi.values())
    truth = Counter()
    for labels, v in log_pi.items():
        truth[fold_orbit(labels)] += math.exp(v - peak) / z

    start = time.time()
    cfg = BlockChainConfig(iterations=200_000, burn_in=0.0, thinning=1, seed=2)
    res = run_block_chain(net, 2, cfg)
    elapsed = time.time() - start
    emp = Counter()
    for sample in res.samples:
        emp[fold_orbit(tuple(int(x) for x in sample))] += 1
    total = sum(emp.values())
    tv = 0.5 * sum(abs(emp.get(k, 0) / total - truth.get(k, 0.0))
                   for k in set(emp) | set(truth))
    check(2, "exact-posterior oracle", tv < 0.05 and elapsed < 30.0,
          f"TV={tv:.4f} (<0.05) over 2e5 sweeps in {elapsed:.1f}s (<30s)")


# -------------------------------------------------------------------------- 3

def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        num_blocks = int(rng.integers(2, 6))
        num_features = int(rng.integers(1, 9))
        size = int(rng.integers(2, 51))
        ctx = random_context(rng, num_blocks, num_features, size,
                             sigma=float(rng.uniform(0.5, 2.0)))
        w = rng.normal(size=(num_blocks, num_features))
        analytic = objective_gradient(w, ctx)
        numeric = central_difference(w, ctx, step=1e-5)
        rel = np.abs(numeric - analytic).max() / (np.abs(analytic).max() + 1e-12)
        worst = max(worst, rel)
    check(3, "gradient vs central differences", worst < 1e-6,
          f"max relative error {worst:.2e} over 100 instances (<1e-6)")


# -------------------------------------------------------------------------- 4

def test_criterion_4_marginal_uniformity():
    # Two vertices with feature rows x_1 = (1), x_2 = (0): the joint
    # p(b | X, theta) = phi_{b1}(x_1) phi_{b2}(x_2) integrates to exactly
    # 1/4 under the weight prior for every b.  (With two nonzero feature
    # rows the blocks would correlate through the shared weight draw and
    # the average would exceed 1/4 on the diagonal memberships.)
    rng = np.random.default_rng(4)
    draws = 100_000
    w = rng.normal(0.0, 1.0, size=(draws, 2))
    logits = w - w.max(axis=1, keepdims=True)
    phi_active = np.exp(logits)
    phi_active /= phi_active.sum(axis=1, keepdims=True)  # vertex with x = 1
    phi_zero = np.full((draws, 2), 0.5)  # x = 0: uniform for every theta
    worst = 0.0
    ok = True
    for b1 in range(2):
        for b2 in range(2):
            values = phi_active[:, b1] * phi_zero[:, b2]
            err = abs(float(values.mean()) - 0.25)
            se = float(values.std(ddof=1)) / math.sqrt(draws)
            ok = ok and err < 3 * se
            worst = max(worst, err / se)
    check(4, "partition marginal is uniform", ok,
          f"all four memberships within {worst:.2f} s.e. of 0.25 (<3)")


# -------------------------------------------------------------------------- 5

def test_criterion_5_incremental_delta():
    rng = np.random.default_rng(5)
    net = random_multigraph(rng, 50, 150)
    assert 150 <= net.num_edges <= 280
    labels = rng.integers(0, 4, 50)
    state = BlockState(net, labels, 4)
    s_prev = description_length(net, state)
    worst = 0.0
    applied = 0
    for _ in range(10_000):
        i = int(rng.integers(0, 50))
        target = int(rng.integers(0, 4))
        delta = delta_description_length(state, i, target)
        if not math.isfinite(delta):
            continue
        apply_move(state, i, target)
        s_new = description_length(net, BlockState(net, state.b, 4))
        worst = max(worst, abs((s_new - s_prev) - delta))
        s_prev = s_new
        applied += 1
    check(5, "incremental delta equals recompute", worst < 1e-9 and applied > 5000,
          f"max |delta - recompute| = {worst:.2e} over {applied} applied moves (<1e-9)")


# -------------------------------------------------------------------------- 6

def test_criterion_6_partition_counts():
    mismatches = 0
    for m in range(31):
        for n in range(31):
            if count_partitions(m, n) != enumerate_partitions(m, n):
                mismatches += 1
    check(6, "partition counts vs enumeration", mismatches == 0,
          f"{mismatches} mismatches over 961 (m, n) pairs (exact equality)")


# -------------------------------------------------------------------------- 7

def test_criterion_7_microcanonical_normalisation():
    # Fixed constraints: one block, four degree-1 vertices, e = [[4]].
    labels = [0, 0, 0, 0]
    degree_seq = [1, 1, 1, 1]
    stubs = [v for v, k in enumerate(degree_seq) for _ in range(k)]
    by_graph = Counter()
    for matching in enumerate_matchings(stubs):
        edges = Counter()
        for u, v in matching:
            edges[(min(u, v), max(u, v))] += 1
        by_graph[tuple(sorted((u, v, m) for (u, v), m in edges.items()))] += 1

    prob_sum = Fraction(0)
    omega = None
    for canon, config_count in by_graph.items():
        net = network_from_edges(4, canon)
        state = BlockState(net, labels, 1)
        omega = exact_pairing_count(state)
        assert exact_graph_multiplicity(net) == config_count
        prob_sum += Fraction(config_count, omega)
    exact_ok = prob_sum == 1

    rng = np.random.default_rng(7)
    draws = 10_000
    freq = Counter()
    for _ in range(draws):
        edges = sample_microcanonical_graph(labels, np.array([[4]]), degree_seq, rng)
        freq[tuple(edges)] += 1
    p = 1.0 / omega
    se = math.sqrt(p * (1 - p) / draws)
    freq_ok = len(freq) == omega and all(
        abs(c / draws - p) < 3 * se for c in freq.values())
    worst = max(abs(c / draws - p) / se for c in freq.values())
    check(7, "microcanonical normalisation", exact_ok and freq_ok,
          f"sum Xi/Omega = {prob_sum} (exactly 1); sampler within {worst:.2f} s.e. of 1/{omega}")


# -------------------------------------------------------------------------- 8

def test_criterion_8_mala_sanity():
    # B=1, D=1, sigma=1 makes the objective exactly w^2/2: a standard Gaussian.
    ctx = ObjectiveContext(np.array([[1.0]]), np.array([[1.0]]), 1.0)
    rng = np.random.default_rng(8)
    h = 0.1
    w = np.zeros((1, 1))
    value, grad = objective_and_gradient(w, ctx)
    steps = 100_000
    trajectory = np.empty(steps)
    for t in range(steps):
        noise = rng.standard_normal((1, 1))
        prop = w - h * grad + math.sqrt(2 * h) * noise
        log_alpha = accept_log_prob(w, prop, ctx, h)
        if log_alpha >= 0.0 or rng.random() < math.exp(log_alpha):
            w = prop
            value, grad = objective_and_gradient(w, ctx)
        trajectory[t] = w[0, 0]
    mean_err = abs(trajectory.mean())
    var_err = abs(trajectory.var() - 1.0)

    feats = np.zeros((100, 1))
    feats[:50, 0] = 1.0
    targets = np.zeros((100, 2))
    targets[:50, 0] = 1.0
    targets[50:, 1] = 1.0
    sep_ctx = ObjectiveContext(feats, targets, 1.0)
    cfg = WeightChainConfig(iterations=4000, burn_in=0.0, thinning=1,
                            step_scale=40.0, seed=88)
    res = run_weight_chain(sep_ctx, cfg)
    window = cfg.iterations // 10
    early = float(res.accepted[:window].mean())
    late = float(res.accepted[-window:].mean())
    check(8, "MALA sanity", mean_err < 0.02 and var_err < 0.05 and late > early,
          f"|mean|={mean_err:.4f} (<0.02), |var-1|={var_err:.4f} (<0.05), "
          f"acceptance early {early:.3f} -> late {late:.3f}")


# -------------------------------------------------------------------------- 9

def test_criterion_9_synthetic_recovery():
    rng = np.random.default_rng(0)
    num_vertices, num_blocks, num_features = 300, 3, 6
    feats = np.zeros((num_vertices, num_features), dtype=np.int8)
    kinds = rng.integers(0, num_blocks, num_vertices)
    feats[np.arange(num_vertices), kinds] = 1
    feats[:, num_blocks:] = rng.random((num_vertices, num_features - num_blocks)) < 0.5
    planted_w = np.zeros((num_blocks, num_features))
    np.fill_diagonal(planted_w[:, :num_blocks], 5.0)
    affinity = np.full((num_blocks, num_blocks), 0.02)  # diagonal ratio 15 >= 10
    np.fill_diagonal(affinity, 0.3)
    spec = GeneratorSpec(num_vertices=num_vertices, weights=planted_w,
                         affinity=affinity, features=feats, seed=77)
    net, truth = generate(spec)
    planted = truth["memberships"]

    cfg = RunConfig(num_blocks=3, block_iters=300, theta_iters=3000,
                    step_scale=0.5, reduce_dim=3, repetitions=1, seed=123)
    report, artifacts = run_repetition(net, cfg, 0)

    inferred = artifacts.responsibilities.argmax(axis=1)
    aligned = align_labels(inferred, planted, 3)
    overlap = float((aligned == planted).mean())

    # inferred chain block a corresponds to planted block perm[a]
    perm = np.zeros(3, dtype=int)
    for a in range(3):
        members = aligned[inferred == a]
        perm[a] = np.bincount(members, minlength=3).argmax()
    posterior_mean = summarize_weights(artifacts.weight_result.samples).mean
    signs_ok = all(posterior_mean[a, perm[a]] > 0 for a in range(3))

    kept_ok = report.kept_features == [0, 1, 2]
    check(9, "synthetic ground-truth recovery",
          overlap >= 0.9 and signs_ok and kept_ok,
          f"overlap={overlap:.3f} (>=0.9), dominant-weight signs ok={signs_ok}, "
          f"kept={report.kept_features} (planted [0, 1, 2])")


# ------------------------------------------------------------------------- 10

def test_criterion_10_reduction_equals_naive_search():
    rng = np.random.default_rng(10)
    mismatches = 0
    compared = 0
    while compared < 200:
        num_blocks = int(rng.integers(1, 6))
        num_features = int(rng.integers(2, 12))
        summary = WeightSummary(
            mean=rng.normal(scale=2.0, size=(num_blocks, num_features)),
            std=np.abs(rng.normal(scale=0.7, size=(num_blocks, num_features))),
        )
        # The exact cutoff search is well-posed only up to the number of
        # features whose score is positive (zero-score features all tie).
        positives = int((feature_scores(summary, 1.0) > 0).sum())
        if positives == 0:
            continue
        target = int(rng.integers(1, positives + 1))
        result = reduce_dimension(summary, 1.0, target)
        kept, cutoff = naive_reduction(summary, 1.0, target)
        assert kept is not None
        compared += 1
        if result.kept.tolist() != kept or not math.isclose(result.cutoff, cutoff,
                                                            rel_tol=1e-12):
            mismatches += 1
    check(10, "reduction equals naive cutoff search", mismatches == 0,
          f"{mismatches} mismatches over {compared} random instances (exact set equality)")
