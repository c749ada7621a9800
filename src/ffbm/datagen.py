"""Synthetic instance generator for ground-truth recovery experiments.

Features are drawn (or supplied), block memberships follow the softmax
generator under planted weights, and the graph is drawn from a canonical
Poisson block model with planted affinities.  A separate exact sampler
places edges uniformly over the configurations compatible with explicit
(b, e, k) constraints, for likelihood-normalisation checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import check_labels, network_from_edges
from .softmax import class_probabilities

# The largest mean numpy's Poisson sampler takes: int64 max - 10 sqrt(int64 max).
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max) - 10.0 * float(np.iinfo(np.int64).max) ** 0.5


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Planted-model description.

    weights: planted B x D softmax weights.
    affinity: symmetric B x B expected edge propensity between blocks.
    feature_probs: per-column Bernoulli rates used when features is None.
    features: explicit binary feature matrix, overrides feature_probs.
    propensities: per-vertex positive degree multipliers, default all 1.

    Construction checks every value: N >= 0, at least one block, finite
    weights, a finite, nonnegative, symmetric affinity, an N x D features
    matrix or one rate in [0, 1] per feature column, N finite positive
    propensities and seed >= 0.  A spec is frozen, so the checks hold.
    """

    num_vertices: int
    weights: np.ndarray
    affinity: np.ndarray
    feature_probs: np.ndarray = None
    features: np.ndarray = None
    propensities: np.ndarray = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "affinity", np.asarray(self.affinity, dtype=np.float64))
        if self.num_vertices < 0:
            raise ValueError(f"num_vertices must be nonnegative, got {self.num_vertices}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.weights.ndim != 2 or self.weights.shape[0] < 1:
            raise ValueError("weights must be a B x D matrix with at least one block")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")
        b, d = self.weights.shape
        if self.affinity.shape != (b, b):
            raise ValueError("affinity must be square with one row per block")
        _check_affinity(self.affinity)
        if self.features is None and self.feature_probs is None:
            raise ValueError("provide either features or feature_probs")
        if self.features is not None and np.shape(self.features) != (self.num_vertices, d):
            raise ValueError(f"features must be a {self.num_vertices} x {d} matrix (one row per "
                             f"vertex, one column per weight column), got shape {np.shape(self.features)}")
        if self.feature_probs is not None:
            probs = np.asarray(self.feature_probs, dtype=np.float64)
            if probs.shape != (d,):
                raise ValueError(f"feature_probs must hold one rate per feature column ({d}), "
                                 f"got shape {probs.shape}")
            if not ((probs >= 0) & (probs <= 1)).all():
                raise ValueError("feature_probs entries must lie in [0, 1]")
        _degree_propensities(self.propensities, self.num_vertices)


def _check_affinity(affinity: np.ndarray) -> None:
    """The block model's rule for an affinity matrix: finite, nonnegative and symmetric."""
    if not np.isfinite(affinity).all():
        raise ValueError("affinity entries must be finite")
    if not np.allclose(affinity, affinity.T):
        raise ValueError("affinity matrix must be symmetric")
    if (affinity < 0).any():
        raise ValueError("affinity entries must be nonnegative")


def _degree_propensities(propensities, num_vertices: int) -> np.ndarray:
    """Per-vertex degree multipliers as floats: all 1 for None, else N finite positive values."""
    if propensities is None:
        return np.ones(num_vertices)
    propensities = np.asarray(propensities, dtype=np.float64)
    if propensities.shape != (num_vertices,):
        raise ValueError(f"propensities must hold one value per vertex ({num_vertices}), "
                         f"got shape {propensities.shape}")
    if not (np.isfinite(propensities) & (propensities > 0)).all():
        raise ValueError("degree propensities must be finite and positive")
    return propensities


def sample_memberships(features: np.ndarray, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw block labels independently per vertex from the softmax generator."""
    probs = class_probabilities(weights, features)
    thresholds = probs.cumsum(axis=1)
    u = rng.random((probs.shape[0], 1))
    return (thresholds > u).argmax(axis=1)


def sample_poisson_graph(memberships, affinity, propensities, rng: np.random.Generator):
    """Multigraph edges with Poisson multiplicities.

    The mean multiplicity between distinct i < j is
    propensity_i * propensity_j * affinity[b_i, b_j]; self-loops use half
    that mean.  Returns (u, v, multiplicity) triples for nonzero draws.
    A mean above POISSON_MEAN_MAX (or one that overflows), or a label that
    breaks ``graph.check_labels``, raises ValueError before any draw.
    """
    affinity = np.asarray(affinity, dtype=np.float64)
    _check_affinity(affinity)
    memberships = check_labels(memberships, len(affinity), "membership")
    n = len(memberships)
    propensities = _degree_propensities(propensities, n)

    iu, ju = np.triu_indices(n)
    with np.errstate(over="ignore", invalid="ignore"):  # the bound below catches inf and NaN
        means = propensities[iu] * propensities[ju] * affinity[memberships[iu], memberships[ju]]
        means[iu == ju] *= 0.5
    largest = means.max(initial=0.0)
    if not largest <= POISSON_MEAN_MAX:
        raise ValueError(
            f"affinity too large: the largest Poisson edge mean is {largest:.6g}, above "
            f"{POISSON_MEAN_MAX:.6g} (largest affinity entry {affinity.max():.6g})")
    counts = rng.poisson(means)
    nz = counts.nonzero()[0]
    return [(int(iu[k]), int(ju[k]), int(counts[k])) for k in nz]


def sample_microcanonical_graph(memberships, edge_counts, degrees, rng: np.random.Generator):
    """Uniform half-edge pairing subject to exact (b, e, k) constraints.

    Each vertex contributes its degree in stubs to its block; within every
    unordered block pair the reserved stubs are matched uniformly at random.
    The returned multigraph reproduces the edge-count matrix exactly.
    """
    degrees = np.asarray(degrees)
    e = np.asarray(edge_counts)
    num_blocks = e.shape[0]
    if e.shape != (num_blocks, num_blocks) or not np.array_equal(e, e.T):
        raise ValueError("edge-count matrix must be square and symmetric")
    if e.dtype.kind not in "iu" or (e < 0).any():
        raise ValueError("edge counts must be nonnegative integers")
    if (np.diag(e) % 2).any():
        raise ValueError("diagonal edge counts must be even (they count half-edges twice)")
    memberships = check_labels(memberships, num_blocks, "membership")

    for r in range(num_blocks):
        stub_total = int(degrees[memberships == r].sum())
        if stub_total != int(e[r].sum()):
            raise ValueError(
                f"block {r} has {stub_total} half-edges from degrees but {int(e[r].sum())} from edge counts"
            )

    # Shuffled stub lists per block, consumed in fixed partner segments:
    # ascending partner blocks first, own-block stubs last.
    stubs, cursors = [], []
    for r in range(num_blocks):
        members = np.nonzero(memberships == r)[0]
        lst = np.repeat(members, degrees[members])
        rng.shuffle(lst)
        stubs.append(lst)
        cursors.append(0)

    def take(r, count):
        lo = cursors[r]
        cursors[r] = lo + count
        return stubs[r][lo:cursors[r]]

    pairs = []
    for r in range(num_blocks):
        for s in range(r + 1, num_blocks):
            left = take(r, int(e[r][s]))
            right = take(s, int(e[r][s]))
            pairs.extend(zip(left.tolist(), right.tolist()))
    for r in range(num_blocks):
        own = take(r, int(e[r][r])).tolist()
        pairs.extend(zip(own[0::2], own[1::2]))
    return list(network_from_edges(len(memberships), pairs).edges)


def generate(spec: GeneratorSpec):
    """Draw a full synthetic instance.

    Returns the labelled network and a ground-truth dict holding the planted
    memberships, weights and affinity matrix.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.num_vertices
    if spec.features is not None:
        feats = np.asarray(spec.features)
    else:
        feats = (rng.random((n, spec.weights.shape[1])) < spec.feature_probs).astype(np.int8)

    memberships = sample_memberships(feats, spec.weights, rng)
    edges = sample_poisson_graph(memberships, spec.affinity, spec.propensities, rng)
    names = tuple(f"f{d}" for d in range(feats.shape[1]))
    net = network_from_edges(n, edges, feats, names)
    truth = {
        "memberships": memberships,
        "weights": spec.weights,
        "affinity": spec.affinity,
    }
    return net, truth
