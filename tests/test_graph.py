import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffbm import (
    BlockChainConfig,
    BlockState,
    GeneratorSpec,
    LabelledNetwork,
    ObjectiveContext,
    RunConfig,
    WeightChainConfig,
    align_labels,
    estimate_responsibilities,
    load_polbooks,
    network_from_edges,
    reduce_dimension,
    run_block_chain,
    run_weight_chain,
    sample_microcanonical_graph,
    sample_poisson_graph,
    split_vertices,
    summarize_weights,
)
from ffbm.graph import check_labels
from ffbm.pipeline import partition_stage

from conftest import random_multigraph


def test_degrees_path(path3):
    assert path3.degrees.tolist() == [1, 2, 1]


def test_degrees_self_loop():
    net = network_from_edges(1, [(0, 0)])
    assert net.degrees.tolist() == [2]


def test_degrees_parallel_edges():
    # Brute-force half-edge count: two parallel edges contribute two
    # half-edges at each endpoint.
    net = network_from_edges(2, [(0, 1), (0, 1)])
    half_edges = [0, 0]
    for u, v, m in net.edges:
        half_edges[u] += m
        half_edges[v] += m
    assert net.degrees.tolist() == half_edges == [2, 2]
    assert net.num_edges == 2


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 3)),
                min_size=0, max_size=30))
@settings(max_examples=60, deadline=None)
def test_handshake_lemma(edge_list):
    net = network_from_edges(8, edge_list)
    assert int(net.degrees.sum()) == 2 * net.num_edges


def test_edge_validation():
    with pytest.raises(ValueError):
        network_from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        network_from_edges(3, [(0, 1, 0)])
    with pytest.raises(ValueError):
        network_from_edges(2, [(0, 1)], features=np.array([[2]]), feature_names=("a",))
    # An edge is (u, v) or (u, v, multiplicity) in integers: a fourth entry
    # is not dropped, nor is a fractional multiplicity or endpoint kept.
    for edge in [(0, 1, 2, 9), (0,), (0, 1, 2.5), (0.0, 1), (0, np.float64(1.0), 1), (0, "1")]:
        with pytest.raises(ValueError, match="not \\(u, v, multiplicity\\) in integers"):
            network_from_edges(3, [edge])
    net = network_from_edges(3, [(np.int64(0), np.int32(2), np.uint8(2)), (1, np.int64(2))])
    assert net.edges == ((0, 2, 2), (1, 2, 1)) and net.num_edges == 3


# Each partition entry point, as (which, call): call(labels) hands the
# labels of a 4-vertex, 3-block partition to the entry point in the role
# that ``which`` names in the message.
_GOOD = [0, 1, 2, 1]
_ENTRY_POINTS = {
    "BlockState": ("block", lambda labels: BlockState(network_from_edges(4, [(0, 1), (2, 2)]), labels, 3)),
    "align_labels-sample": ("sample", lambda labels: align_labels(labels, _GOOD, 3)),
    "align_labels-reference": ("reference", lambda labels: align_labels(_GOOD, labels, 3)),
    "responsibilities-sample": (
        "sample", lambda labels: estimate_responsibilities([_GOOD, labels], _GOOD, 3)),
    "responsibilities-reference": (
        "reference", lambda labels: estimate_responsibilities([_GOOD, _GOOD], labels, 3)),
    "poisson": ("membership", lambda labels: sample_poisson_graph(
        labels, np.ones((3, 3)), None, np.random.default_rng(0))),
    "microcanonical": ("membership", lambda labels: sample_microcanonical_graph(
        labels, np.zeros((3, 3), dtype=np.int64), [0] * 4, np.random.default_rng(0))),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
@pytest.mark.parametrize("label, problem", [
    (-1, "label -1 outside [0, 3)"),
    (3, "label 3 outside [0, 3)"),
    (1.7, "non-integer label 1.7"),
    ("1", "non-integer label '1'"),
], ids=["negative", "B", "float", "string"])
def test_every_partition_entry_point_applies_the_label_rule(entry, label, problem):
    # One rule, one message: a label is an integer in [0, B).
    which, call = _ENTRY_POINTS[entry]
    labels = list(_GOOD)
    labels[2] = label
    forms = [labels, np.array(labels)] if isinstance(label, int) else [labels]
    for form in forms:
        with pytest.raises(ValueError, match=re.escape(f"{which} partition has {problem}")):
            call(form)
    call(_GOOD)
    call(np.array(_GOOD))


def test_label_rule_takes_integer_arrays_of_any_shape():
    for labels in ([], [[0, 2], [1, 1]], np.array([2, 0], dtype=np.uint8), np.array([1], dtype=np.int32)):
        checked = check_labels(labels, 3, "sample")
        assert checked.dtype == np.int64 and checked.tolist() == np.asarray(labels).tolist()
    for labels in (np.array([0.0]), [0, None]):
        with pytest.raises(ValueError, match="sample partition has non-integer label"):
            check_labels(labels, 3, "sample")
    with pytest.raises(ValueError, match=r"label 5 outside \[0, 3\)"):
        check_labels([[0, 5], [7, 1]], 3, "sample")


@pytest.mark.parametrize("derived", [{"degrees": np.array([1, 1])}, {"num_edges": 99}])
def test_derived_fields_are_not_constructor_options(derived):
    with pytest.raises(TypeError):
        LabelledNetwork(2, ((0, 1, 1),), np.zeros((2, 0)), (), **derived)


def test_records_over_arrays_compare_and_hash_by_identity():
    # Each record whose fields hold arrays, built twice with equal values.
    tiny = network_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    summary = summarize_weights([np.eye(2)])
    ctx = ObjectiveContext(np.eye(2), np.eye(2), 1.0)
    cfg = RunConfig(block_iters=4, block_burn_in=0.0, block_thinning=1, init_restarts=1)
    makers = [
        load_polbooks,
        lambda: split_vertices(10, 0.5, seed=1),
        lambda: summarize_weights([np.eye(2)]),
        lambda: reduce_dimension(summary, 1.0, 1),
        lambda: GeneratorSpec(num_vertices=2, weights=np.eye(2), affinity=np.eye(2),
                              features=np.eye(2, dtype=np.int8)),
        lambda: run_block_chain(tiny, 2, BlockChainConfig(iterations=4, burn_in=0.0, thinning=1,
                                                          init_restarts=1)),
        lambda: run_weight_chain(ctx, WeightChainConfig(iterations=4, burn_in=0.0, thinning=1)),
        lambda: partition_stage(tiny, cfg, 0),
    ]
    for a, b in ((make(), make()) for make in makers):
        assert a == a and a != b, type(a).__name__
        assert len({a, b, a}) == 2, type(a).__name__


def test_duplicate_edges_accumulate():
    net = network_from_edges(2, [(0, 1), (1, 0), (0, 1, 2)])
    assert net.edges == ((0, 1, 4),)
    assert net.num_edges == 4


def test_loop_weight():
    net = network_from_edges(2, [(0, 0, 2), (0, 1)])
    # A_ii, twice the loop multiplicity, is how often i appears in its own half-edge list.
    assert net.half_edges.ends[0].count(0) == 4
    assert net.half_edges.ends[1].count(1) == 0
    assert net.degrees.tolist() == [5, 1]


def test_split_sizes():
    split = split_vertices(10, 0.7, seed=0)
    assert len(split.train) == 7 and len(split.test) == 3


def test_split_two_vertices():
    split = split_vertices(2, 0.5, seed=1)
    assert len(split.train) == 1 and len(split.test) == 1


def test_split_deterministic():
    a = split_vertices(30, 0.6, seed=42)
    b = split_vertices(30, 0.6, seed=42)
    assert a.train.tolist() == b.train.tolist()
    assert a.test.tolist() == b.test.tolist()


@pytest.mark.parametrize("n,f", [(5, 0.3), (17, 0.7), (100, 0.5), (9, 0.999)])
def test_split_partitions_exactly(n, f):
    split = split_vertices(n, f, seed=3)
    union = sorted(split.train.tolist() + split.test.tolist())
    assert union == list(range(n))


@pytest.mark.parametrize("f", [0.0, 1.0, -0.2, 1.5])
def test_split_rejects_bad_fraction(f):
    with pytest.raises(ValueError):
        split_vertices(10, f, seed=0)


def test_random_multigraph_helper_consistency():
    rng = np.random.default_rng(5)
    net = random_multigraph(rng, 10, 25)
    assert int(net.degrees.sum()) == 2 * net.num_edges
