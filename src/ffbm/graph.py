"""Labelled-network data model: undirected multigraph plus binary vertex features."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

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
        n = self.num_vertices
        if n < 0:
            raise ValueError("num_vertices must be nonnegative")
        feats = np.asarray(self.features)
        if feats.ndim != 2 or feats.shape[0] != n:
            raise ValueError(f"feature matrix must have {n} rows, got shape {feats.shape}")
        if feats.size and not np.isin(feats, (0, 1)).all():
            raise ValueError("feature matrix entries must be 0 or 1")
        if len(self.feature_names) != feats.shape[1]:
            raise ValueError("feature_names length must match feature columns")

        merged = {}
        total = 0
        index = operator.index
        for edge in self.edges:
            try:
                u, v, m = edge
                u, v, m = index(u), index(v), index(m)
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} is not (u, v, multiplicity) in integers") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) endpoint outside [0, {n})")
            if m <= 0:
                raise ValueError(f"edge multiplicity must be positive, got {m}")
            key = (u, v) if u <= v else (v, u)
            merged[key] = merged.get(key, 0) + m
            total += m

        edges = tuple((u, v, m) for (u, v), m in sorted(merged.items()))
        deg = np.zeros(n, dtype=np.int64)
        for u, v, m in edges:
            deg[u] += m
            deg[v] += m

        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "features", feats.astype(np.int8))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "num_edges", total)
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
    """Build a LabelledNetwork; features default to an empty N x 0 matrix.

    An edge is (u, v) or (u, v, multiplicity), in integers (numpy's
    included); any other edge raises ValueError.
    """
    if features is None:
        features = np.zeros((num_vertices, 0), dtype=np.int8)
        feature_names = ()
    elif feature_names is None:
        feature_names = tuple(f"f{d}" for d in range(np.asarray(features).shape[1]))
    edges = tuple((*e, 1) if len(e) == 2 else e for e in edges)
    return LabelledNetwork(num_vertices, edges, features, feature_names, dict(input_sha256 or {}))


def check_labels(labels, num_blocks: int, which: str) -> np.ndarray:
    """The labels, any shape, as int64 if each is an integer in [0, num_blocks).

    An integer is what ``operator.index`` takes (not 1.0 or "1"); the first
    bad label raises ValueError naming it and the ``which`` partition."""
    array = np.asarray(labels)
    if array.dtype.kind not in "iu":
        array = np.asarray(labels, dtype=object)
        for x in array.flat:
            try:
                operator.index(x)
            except TypeError:
                raise ValueError(f"{which} partition has non-integer label {x!r}") from None
    outside = (array < 0) | (array >= num_blocks)
    if outside.any():
        raise ValueError(f"{which} partition has label {array[outside][0]} outside [0, {num_blocks})")
    return array.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class VertexSplit:
    """Random train/test partition of the vertex set; compares by identity."""

    train: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        overlap = set(self.train.tolist()) & set(self.test.tolist())
        if overlap:
            raise ValueError(f"train/test sets overlap: {sorted(overlap)[:5]}")


def check_train_fraction(fraction: float) -> None:
    """The split's range rule: the train fraction lies strictly inside (0, 1)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"train fraction must be in (0, 1), got {fraction}")


def split_vertices(num_vertices: int, fraction: float, seed) -> VertexSplit:
    """Uniform split with round-half-up train size round(fraction * N).

    Deterministic given the seed; train and test indices are returned sorted.
    """
    check_train_fraction(fraction)
    if num_vertices < 2:
        raise ValueError("need at least 2 vertices to split")
    n_train = int(np.floor(fraction * num_vertices + 0.5))
    n_train = min(max(n_train, 1), num_vertices - 1)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(num_vertices)
    train = np.sort(perm[:n_train])
    test = np.sort(perm[n_train:])
    return VertexSplit(train=train, test=test)
