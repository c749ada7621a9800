import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from ffbm import (
    BlockState,
    GeneratorSpec,
    generate,
    network_from_edges,
    sample_memberships,
    sample_microcanonical_graph,
    sample_poisson_graph,
)
from ffbm.datagen import POISSON_MEAN_MAX

from conftest import random_multigraph


# ------------------------------------------------------------- block sampling

def test_memberships_uniform_under_zero_weights():
    rng = np.random.default_rng(0)
    feats = (rng.random((10_000, 3)) < 0.5).astype(float)
    draws = sample_memberships(feats, np.zeros((4, 3)), rng)
    counts = np.bincount(draws, minlength=4)
    assert chisquare(counts).pvalue > 0.01


def test_memberships_follow_dominant_weights():
    rng = np.random.default_rng(1)
    feats = np.eye(3)[rng.integers(0, 3, 5000)]
    weights = np.zeros((3, 3))
    np.fill_diagonal(weights, 5.0)
    draws = sample_memberships(feats, weights, rng)
    match = (draws == feats.argmax(axis=1)).mean()
    assert match > 0.95


def test_memberships_deterministic():
    feats = np.eye(2)[np.array([0, 1, 0, 1])]
    w = np.array([[2.0, 0.0], [0.0, 2.0]])
    a = sample_memberships(feats, w, np.random.default_rng(7))
    b = sample_memberships(feats, w, np.random.default_rng(7))
    assert np.array_equal(a, b)


# ------------------------------------------------------------- Poisson graphs

def test_poisson_zero_affinity_empty():
    rng = np.random.default_rng(2)
    edges = sample_poisson_graph(np.zeros(20, dtype=int), np.zeros((1, 1)), None, rng)
    assert edges == []


def test_poisson_rejects_asymmetric_affinity():
    with pytest.raises(ValueError):
        sample_poisson_graph(np.zeros(3, dtype=int), np.array([[1.0, 0.2], [0.1, 1.0]]),
                             None, np.random.default_rng(0))


def modularity(net, labels):
    state = BlockState(net, labels, int(max(labels)) + 1)
    two_e = 2.0 * net.num_edges
    return sum(state.e[r][r] / two_e - (state.e_row[r] / two_e) ** 2
               for r in range(state.B))


def test_poisson_rejects_means_numpy_cannot_draw():
    labels = np.zeros(4, dtype=int)
    with pytest.raises(ValueError, match="affinity too large"):
        sample_poisson_graph(labels, np.array([[1e19]]), None, np.random.default_rng(0))
    # Propensity products that overflow to inf against a zero affinity give NaN means.
    with pytest.raises(ValueError, match="affinity too large"):
        sample_poisson_graph(np.array([0, 1]), np.array([[0.0, 0.0], [0.0, 1.0]]),
                             np.array([1e200, 1e200]), np.random.default_rng(0))


def test_poisson_mean_bound_leaves_the_stream_unchanged():
    # Means at the bound are drawn as numpy draws them.
    labels = np.zeros(3, dtype=int)
    affinity = np.array([[POISSON_MEAN_MAX]])
    ours = sample_poisson_graph(labels, affinity, None, np.random.default_rng(2))
    iu, ju = np.triu_indices(3)
    means = np.full(len(iu), POISSON_MEAN_MAX)
    means[iu == ju] *= 0.5
    counts = np.random.default_rng(2).poisson(means)
    assert ours == [(int(iu[k]), int(ju[k]), int(counts[k])) for k in counts.nonzero()[0]]


def test_poisson_assortative_blocks_raise_modularity():
    rng = np.random.default_rng(3)
    labels = np.repeat([0, 1], 60)
    affinity = np.array([[0.3, 0.01], [0.01, 0.3]])
    edges = sample_poisson_graph(labels, affinity, None, rng)
    net = network_from_edges(120, edges)
    planted = modularity(net, labels)
    scrambled = modularity(net, rng.permutation(labels))
    assert planted > scrambled


def test_poisson_edge_count_concentrates():
    rng = np.random.default_rng(4)
    labels = np.repeat([0, 1, 2], 50)
    affinity = np.full((3, 3), 0.02)
    np.fill_diagonal(affinity, 0.2)
    prop = np.ones(150)
    expected = 0.0
    for i in range(150):
        for j in range(i, 150):
            mean = affinity[labels[i], labels[j]]
            expected += mean / 2.0 if i == j else mean
    edges = sample_poisson_graph(labels, affinity, prop, rng)
    total = sum(m for _, _, m in edges)
    assert abs(total - expected) < 4 * math.sqrt(expected)


# ------------------------------------------------- exact constrained placement

def test_microcanonical_forced_edge():
    rng = np.random.default_rng(5)
    for _ in range(10):
        edges = sample_microcanonical_graph([0, 0], np.array([[2]]), [1, 1], rng)
        assert edges == [(0, 1, 1)]


def test_microcanonical_uniform_over_matchings():
    rng = np.random.default_rng(6)
    counts = Counter()
    draws = 10_000
    for _ in range(draws):
        edges = sample_microcanonical_graph([0] * 4, np.array([[4]]), [1] * 4, rng)
        counts[tuple(edges)] += 1
    assert len(counts) == 3
    p = 1.0 / 3.0
    se = math.sqrt(p * (1 - p) / draws)
    for count in counts.values():
        assert abs(count / draws - p) < 3 * se


def test_microcanonical_reproduces_edge_counts():
    rng = np.random.default_rng(7)
    labels = [0, 0, 0, 1, 1, 2]
    k = [2, 3, 1, 2, 2, 2]
    e = np.array([
        [2, 2, 2],
        [2, 2, 0],
        [2, 0, 0],
    ])
    for _ in range(25):
        edges = sample_microcanonical_graph(labels, e, k, rng)
        net = network_from_edges(6, edges)
        state = BlockState(net, labels, 3)
        assert np.array_equal(np.array(state.e), e)
        assert net.degrees.tolist() == k


def _dict_merge_microcanonical(memberships, edge_counts, degrees, rng):
    """Reference: the sampler's stub pairing, its pairs merged in a dict keyed
    by (smaller, larger) endpoint and returned in key order."""
    memberships, degrees, e = np.asarray(memberships), np.asarray(degrees), np.asarray(edge_counts)
    stubs, cursors = [], []
    for r in range(e.shape[0]):
        members = np.nonzero(memberships == r)[0]
        lst = np.repeat(members, degrees[members])
        rng.shuffle(lst)
        stubs.append(lst)
        cursors.append(0)

    def take(r, count):
        cursors[r] += count
        return stubs[r][cursors[r] - count:cursors[r]]

    pairs = []
    for r in range(e.shape[0]):
        for s in range(r + 1, e.shape[0]):
            pairs.extend(zip(take(r, int(e[r][s])), take(s, int(e[r][s]))))
    for r in range(e.shape[0]):
        own = take(r, int(e[r][r]))
        pairs.extend(zip(own[0::2], own[1::2]))
    multiplicity = {}
    for u, v in pairs:
        key = (int(min(u, v)), int(max(u, v)))
        multiplicity[key] = multiplicity.get(key, 0) + 1
    return [(u, v, m) for (u, v), m in sorted(multiplicity.items())]


@pytest.mark.parametrize("seed", range(30))
def test_microcanonical_equals_the_dict_merge(seed):
    rng = np.random.default_rng(seed)
    num_vertices, num_blocks = int(rng.integers(2, 16)), int(rng.integers(1, 5))
    labels = rng.permutation(np.arange(num_vertices) % num_blocks)
    net = random_multigraph(rng, num_vertices, int(rng.integers(0, 30)))
    e = np.array(BlockState(net, labels.tolist(), num_blocks).e)
    got = sample_microcanonical_graph(labels, e, net.degrees, np.random.default_rng(seed + 100))
    assert got == _dict_merge_microcanonical(labels, e, net.degrees, np.random.default_rng(seed + 100))


def test_microcanonical_rejects_inconsistent_constraints():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        sample_microcanonical_graph([0, 0], np.array([[3]]), [1, 1], rng)  # odd diagonal
    with pytest.raises(ValueError):
        sample_microcanonical_graph([0, 0], np.array([[4]]), [1, 1], rng)  # degree mismatch


@pytest.mark.parametrize("edge_counts", [[[4, -1], [-1, 4]], [[2.5, 0.5], [0.5, 2.5]], [[2.0, 1.0], [1.0, 2.0]]],
                         ids=["negative", "fractional", "float"])
def test_microcanonical_rejects_edge_counts_that_are_not_nonnegative_integers(edge_counts):
    # Each block's half-edges add up (3 = 4 - 1 = 2.5 + 0.5), so only the
    # rule on the counts themselves can refuse these.
    with pytest.raises(ValueError, match="edge counts must be nonnegative integers"):
        sample_microcanonical_graph([0, 0, 0, 1, 1, 1], np.array(edge_counts), [1] * 6,
                                    np.random.default_rng(0))


# ------------------------------------------------------------------ generation

def test_generate_deterministic():
    spec = GeneratorSpec(num_vertices=40, weights=np.eye(2) * 4.0,
                         affinity=np.array([[0.3, 0.02], [0.02, 0.3]]),
                         feature_probs=np.array([0.5, 0.5]), seed=11)
    net_a, truth_a = generate(spec)
    net_b, truth_b = generate(spec)
    assert net_a.edges == net_b.edges
    assert np.array_equal(truth_a["memberships"], truth_b["memberships"])
    assert np.array_equal(net_a.features, net_b.features)


def test_generate_explicit_features_validated():
    with pytest.raises(ValueError):
        generate(GeneratorSpec(num_vertices=5, weights=np.eye(2),
                               affinity=np.eye(2), features=np.zeros((4, 2))))
    with pytest.raises(ValueError):
        GeneratorSpec(num_vertices=5, weights=np.eye(2), affinity=np.eye(3),
                      feature_probs=np.array([0.5, 0.5]))


def test_generator_spec_is_frozen_so_its_checks_hold():
    spec = GeneratorSpec(num_vertices=2, weights=np.eye(2), affinity=np.eye(2),
                         feature_probs=np.array([0.5, 0.5]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.features = np.zeros((1, 3))


@pytest.mark.parametrize("field, value", [
    pytest.param("num_vertices", -1, id="negative-num-vertices"),
    pytest.param("seed", -1, id="negative-seed"),
    pytest.param("weights", np.zeros((0, 2)), id="no-blocks"),
    pytest.param("weights", np.array([[np.nan, 0.0], [0.0, 1.0]]), id="nan-weight"),
    pytest.param("affinity", np.array([[0.1, np.inf], [np.inf, 0.1]]), id="infinite-affinity"),
    pytest.param("affinity", np.array([[0.1, 0.2], [0.3, 0.1]]), id="asymmetric-affinity"),
    pytest.param("affinity", -np.eye(2), id="negative-affinity"),
    pytest.param("feature_probs", np.array([0.5]), id="too-few-rates"),
    pytest.param("feature_probs", np.array([0.5, 1.5]), id="rate-above-one"),
    pytest.param("features", np.zeros((4, 2)), id="too-few-feature-rows"),
    pytest.param("features", np.zeros((5, 3)), id="too-many-feature-columns"),
    pytest.param("features", np.zeros(5), id="feature-vector"),
    pytest.param("propensities", np.ones(4), id="too-few-propensities"),
    pytest.param("propensities", np.array([1.0, 1.0, np.inf, 1.0, 1.0]), id="infinite-propensity"),
    pytest.param("propensities", np.array([1.0, 0.0, 1.0, 1.0, 1.0]), id="zero-propensity"),
])
def test_generator_spec_rejects_bad_values(field, value):
    valid = dict(num_vertices=5, weights=np.eye(2), affinity=np.full((2, 2), 0.1),
                 feature_probs=np.array([0.5, 0.5]), propensities=np.ones(5))
    GeneratorSpec(**valid)
    with pytest.raises(ValueError, match=field):
        GeneratorSpec(**{**valid, field: value})
