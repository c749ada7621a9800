"""Labelled-network data model: undirected multigraph plus binary vertex features."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import length_hint

import numpy as np

from .sampling import check_integer, check_integers, check_real
from .tables import log_double_factorial_even, log_factorial


@dataclass(frozen=True, eq=False)
class LabelledNetwork:
    """Undirected multigraph with a binary feature matrix.

    Edges are stored as canonical (u, v, multiplicity) triples with u <= v,
    sorted and with repeated pairs merged; self-loops are allowed.  Degrees
    count half-edges: an edge of multiplicity m adds m to each endpoint, so a
    loop of multiplicity m adds 2m to its vertex.  The per-vertex neighbour
    lists live in ``half_edges``, one entry per half-edge.  input_sha256 maps
    the role of each file a network was read from ("edges", "features",
    "categorical_features") to the SHA-256 of its bytes; it is empty for a
    network built in memory.

    Instances are immutable after construction, safe to share between
    concurrently running samplers, and compare and hash by identity.
    """

    num_vertices: int
    edges: tuple  # ((u, v, mult), ...) with u <= v
    features: np.ndarray  # N x D, entries in {0, 1}
    feature_names: tuple
    input_sha256: dict = field(default_factory=dict, repr=False)

    degrees: np.ndarray = field(init=False, repr=False)
    num_edges: int = field(init=False)

    def __post_init__(self):
        n = check_integer("num_vertices", self.num_vertices, 0)
        feats = check_binary_features(self.features)
        if feats.ndim != 2 or feats.shape[0] != n:
            raise ValueError(f"feature matrix must have {n} rows, got shape {feats.shape}")
        if len(self.feature_names) != feats.shape[1]:
            raise ValueError("feature_names length must match feature columns")

        fields = np.asarray(self.edges, dtype=object) if len(self.edges) else np.empty((0, 3), dtype=object)
        if fields.shape[1:] != (3,):
            edge = next(edge for edge in self.edges if np.asarray(edge, dtype=object).shape != (3,))
            raise ValueError(f"edge {edge!r} is not (u, v, multiplicity) in integers")
        ends = np.sort(check_integers("edge endpoints", fields[:, :2], 0, n), axis=1)
        mults = check_integers("edge multiplicities", fields[:, 2], 1)
        merged = {}
        for u, v, m in zip(*ends.T.tolist(), mults.tolist()):
            merged[u, v] = merged.get((u, v), 0) + m
        edges = tuple((u, v, m) for (u, v), m in sorted(merged.items()))
        deg = np.zeros(n, dtype=np.int64)
        np.add.at(deg, ends, mults[:, None])

        object.__setattr__(self, "num_vertices", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "num_edges", int(mults.sum()))
        object.__setattr__(self, "degrees", deg)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @cached_property
    def half_edges(self) -> "HalfEdgeTable":
        """Lookup tables for drawing a uniform half-edge, built on first use."""
        return HalfEdgeTable(self)

    @cached_property
    def log_multiplicity(self) -> float:
        """Log count of half-edge pairings that produce exactly this multigraph.

        prod_i k_i! / (prod_{i<j} A_ij! prod_i A_ii!!) in log form, computed
        on first use; for a simple graph the denominator is 1.
        """
        total = 0.0
        for k in self.degrees:
            total += log_factorial(int(k))
        for u, v, m in self.edges:
            if u == v:
                total -= log_double_factorial_even(2 * m)
            else:
                total -= log_factorial(m)
        return total


class HalfEdgeTable:
    """Per-vertex half-edge lists: rows for the move kernel, flat arrays for drawing.

    ends[i] holds one entry per half-edge of vertex i, in the order of
    ``net.edges``: an edge (u, v, m) puts v m times in ends[u] and u m times
    in ends[v], so a loop of multiplicity m puts i 2m times in ends[i] and
    len(ends[i]) is vertex i's degree.  loops[i] is ends[i].count(i), vertex
    i's loop weight A_ii.

    flat lays the rows end to end in one int array, an isolated vertex's
    empty row standing as the single entry -1; row i starts at start[i] and
    has width[i] = max(degree[i], 1) entries.  So for u uniform in [0, 1),
    flat[start[i] + floor(u width[i])] is the far end of a uniform half-edge
    of i, or -1 if i has none, and a vectorised draw needs one gather.
    """

    __slots__ = ("num_vertices", "degree", "ends", "loops", "flat", "start", "width")

    def __init__(self, net: LabelledNetwork):
        self.num_vertices = int(net.num_vertices)
        self.degree = [int(x) for x in net.degrees]
        ends = [[] for _ in range(self.num_vertices)]
        for u, v, m in net.edges:
            ends[u].extend([v] * m)
            ends[v].extend([u] * m)
        self.ends = ends
        self.loops = [row.count(i) for i, row in enumerate(ends)]
        self.flat = np.fromiter(chain.from_iterable(row or (-1,) for row in ends), dtype=np.intp)
        self.width = np.maximum(net.degrees, 1).astype(np.intp)
        self.start = np.cumsum(self.width) - self.width


def network_from_edges(num_vertices, edges, features=None, feature_names=None,
                       input_sha256=None) -> LabelledNetwork:
    """Build a LabelledNetwork; features default to an empty N x 0 matrix, names to f0, f1, ...

    N >= 0, the endpoints in [0, N) and the multiplicities >= 1 are integers as
    ``sampling.check_integer`` reads them; anything else raises ValueError naming it.
    """
    num_vertices = check_integer("num_vertices", num_vertices, 0)
    if features is None:
        features = np.zeros((num_vertices, 0), dtype=np.int8)
    if feature_names is None:
        feature_names = tuple(f"f{d}" for d in range(np.asarray(features).shape[1]))
    edges = tuple((*e, 1) if length_hint(e) == 2 else e for e in edges)
    return LabelledNetwork(num_vertices, edges, features, feature_names, dict(input_sha256 or {}))


def check_binary_features(features) -> np.ndarray:
    """A copy of the feature matrix as int8 if every entry is 0 or 1, else ValueError."""
    if not np.isin(features, (0, 1)).all():
        raise ValueError("features must hold only 0 and 1")
    return np.array(features, dtype=np.int8)


def check_labels(labels, num_blocks: int, which: str) -> np.ndarray:
    """``sampling.check_integers`` of the labels in [0, num_blocks), named as ``which`` labels."""
    return check_integers(f"{which} labels", labels, 0, num_blocks)


@dataclass(frozen=True, eq=False)
class VertexSplit:
    """Random train/test partition of the vertex set; compares by identity."""

    train: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        overlap = set(self.train.tolist()) & set(self.test.tolist())
        if overlap:
            raise ValueError(f"train/test sets overlap: {sorted(overlap)[:5]}")


def check_train_fraction(fraction: float) -> float:
    """The split's range rule: the train fraction, as a float, is a real number in (0, 1)."""
    return check_real("train_fraction", fraction, 0.0, 1.0)


def split_vertices(num_vertices: int, fraction: float, seed) -> VertexSplit:
    """Uniform split with round-half-up train size round(fraction * N).

    Deterministic given the seed; train and test indices are returned sorted.
    """
    fraction = check_train_fraction(fraction)
    num_vertices = check_integer("num_vertices", num_vertices, 2)
    n_train = int(np.floor(fraction * num_vertices + 0.5))
    n_train = min(max(n_train, 1), num_vertices - 1)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(num_vertices)
    train = np.sort(perm[:n_train])
    test = np.sort(perm[n_train:])
    return VertexSplit(train=train, test=test)
