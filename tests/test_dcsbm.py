import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ffbm import (
    BlockState,
    apply_move,
    delta_description_length,
    description_length,
    log_graph_multiplicity,
    log_likelihood,
    log_prior_degrees,
    log_prior_edge_matrix,
    log_stub_pairings,
    network_from_edges,
)
from ffbm import load_polbooks
from ffbm.dcsbm import INFINITE_DELTA, merge_kernel, move_kernel
from ffbm.tables import _LOG_INT, log_count_partitions, log_double_factorial_even, log_factorial

from conftest import pair_deltas, random_multigraph


# ------------------------------------------------------------ state building

def test_build_state_path(path3):
    state = BlockState(path3, [0, 0, 1], 2)
    assert state.e == [[2, 1], [1, 0]]
    assert state.n == [2, 1]
    assert state.eta[0] == {1: 1, 2: 1}
    assert state.eta[1] == {1: 1}


def test_build_state_single_block(bowtie):
    state = BlockState(bowtie, [0] * 5, 1)
    assert state.e == [[2 * bowtie.num_edges]]


def test_build_state_empty_graph():
    net = network_from_edges(4, [])
    state = BlockState(net, [0, 1, 0, 1], 2)
    assert state.e == [[0, 0], [0, 0]]


def test_state_invariants_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        net = random_multigraph(rng, 12, 30)
        b = rng.integers(0, 4, 12)
        state = BlockState(net, b, 4)
        e = np.array(state.e)
        assert (e == e.T).all()
        assert e.sum() == 2 * net.num_edges
        assert sum(state.n) == 12
        for r in range(4):
            assert sum(state.eta[r].values()) == state.n[r]
            assert state.e_row[r] == e[r].sum()


# ------------------------------------------------------- configuration counts

def test_stub_pairings_examples():
    # one block, 2 half-edges: 2!/2!! = 1
    net = network_from_edges(2, [(0, 1)])
    assert math.isclose(log_stub_pairings(BlockState(net, [0, 0], 1)), 0.0, abs_tol=1e-12)
    # one block, 4 half-edges: 4!/(2^2 2!) = 3 perfect matchings
    net = network_from_edges(2, [(0, 1, 2)])
    assert math.isclose(log_stub_pairings(BlockState(net, [0, 0], 1)), math.log(3), rel_tol=1e-12)
    # single cross edge between two blocks: 1!1!/1! = 1
    net = network_from_edges(2, [(0, 1)])
    assert math.isclose(log_stub_pairings(BlockState(net, [0, 1], 2)), 0.0, abs_tol=1e-12)


def test_graph_multiplicity_examples(path3):
    assert math.isclose(log_graph_multiplicity(path3), math.log(2), rel_tol=1e-12)
    single = network_from_edges(2, [(0, 1)])
    assert math.isclose(log_graph_multiplicity(single), 0.0, abs_tol=1e-12)
    double = network_from_edges(2, [(0, 1, 2)])
    assert math.isclose(log_graph_multiplicity(double), math.log(2), rel_tol=1e-12)


def test_likelihood_examples():
    double = network_from_edges(2, [(0, 1, 2)])
    st = BlockState(double, [0, 0], 1)
    assert math.isclose(math.exp(log_likelihood(double, st)), 2 / 3, rel_tol=1e-12)
    single = network_from_edges(2, [(0, 1)])
    st = BlockState(single, [0, 0], 1)
    assert math.isclose(log_likelihood(single, st), 0.0, abs_tol=1e-12)


def test_likelihood_never_positive():
    rng = np.random.default_rng(1)
    for _ in range(20):
        net = random_multigraph(rng, 8, 14)
        b = rng.integers(0, 3, 8)
        assert log_likelihood(net, BlockState(net, b, 3)) <= 1e-12


# ----------------------------------------------------------------- the priors

def test_prior_edge_matrix_examples():
    assert log_prior_edge_matrix(1, 1) == 0.0
    assert math.isclose(log_prior_edge_matrix(2, 1), -math.log(3), rel_tol=1e-12)
    assert log_prior_edge_matrix(4, 0) == 0.0


def test_prior_degrees_single_vertex_block():
    # one vertex with a self-loop: eta = {2: 1}, q(2, 1) = 1 -> term 0
    net = network_from_edges(1, [(0, 0)])
    st = BlockState(net, [0], 1)
    assert math.isclose(log_prior_degrees(st), 0.0, abs_tol=1e-12)


def test_prior_degrees_pair_block():
    # two vertices, one edge: eta = {1: 2}, q(2, 2) = 2 -> 2!/(2! * 2) = 1/2
    net = network_from_edges(2, [(0, 1)])
    st = BlockState(net, [0, 0], 1)
    assert math.isclose(log_prior_degrees(st), -math.log(2), rel_tol=1e-12)


def test_prior_degrees_isolated_block():
    # all degree-0 vertices: n_r! / (n_r! q(0, n_r)) = 1
    net = network_from_edges(5, [(0, 1)])
    st = BlockState(net, [0, 0, 1, 1, 1], 2)
    lone = network_from_edges(3, [])
    lone_state = BlockState(lone, [0, 0, 0], 1)
    assert math.isclose(log_prior_degrees(lone_state), 0.0, abs_tol=1e-12)
    # the isolated block contributes exactly 0 to the total
    pair = network_from_edges(2, [(0, 1)])
    pair_state = BlockState(pair, [0, 0], 1)
    assert math.isclose(log_prior_degrees(st), log_prior_degrees(pair_state), rel_tol=1e-12)


# ------------------------------------------------------- description length

def test_description_length_positive_finite(bowtie):
    for labels in ([0] * 5, [0, 0, 1, 1, 1], [1, 0, 1, 0, 1]):
        s = description_length(bowtie, BlockState(bowtie, labels, 2))
        assert math.isfinite(s) and s > 0


def test_description_length_permutation_invariant():
    rng = np.random.default_rng(2)
    for _ in range(10):
        net = random_multigraph(rng, 10, 20)
        b = rng.integers(0, 3, 10)
        s0 = description_length(net, BlockState(net, b, 3))
        perm = rng.permutation(3)
        s1 = description_length(net, BlockState(net, perm[b], 3))
        assert math.isclose(s0, s1, rel_tol=1e-12)


def test_delta_noop_move(bowtie):
    state = BlockState(bowtie, [0, 0, 0, 1, 1], 2)
    assert delta_description_length(state, 0, 0) == 0.0


def test_delta_reverse_cancels(bowtie):
    state = BlockState(bowtie, [0, 0, 0, 1, 1], 2)
    fwd = delta_description_length(state, 1, 1)
    apply_move(state, 1, 1)
    back = delta_description_length(state, 1, 0)
    assert abs(fwd + back) < 1e-9


def test_delta_emptying_is_infinite(path3):
    state = BlockState(path3, [0, 0, 1], 2)
    assert delta_description_length(state, 2, 0) == INFINITE_DELTA


def test_delta_matches_full_recompute():
    # Oracle: rebuild the state from scratch and recompute S after each move.
    rng = np.random.default_rng(3)
    net = random_multigraph(rng, 20, 45)
    labels = rng.integers(0, 3, 20)
    state = BlockState(net, labels, 3)
    s_prev = description_length(net, state)
    applied = 0
    for _ in range(400):
        i = int(rng.integers(0, 20))
        s = int(rng.integers(0, 3))
        delta = delta_description_length(state, i, s)
        if not math.isfinite(delta):
            continue
        apply_move(state, i, s)
        rebuilt = BlockState(net, state.b, 3)
        s_new = description_length(net, rebuilt)
        assert abs((s_new - s_prev) - delta) < 1e-9
        s_prev = s_new
        applied += 1
    assert applied > 200


def _sequential_delta(state, i, r, s):
    """Oracle: the move delta as one left-to-right float sum, term by term.

    The order is the kernel's documented one; equal bits show that sharing
    the source block's terms across targets changed no rounding.
    """
    e, e_row, n, eta = state.e, state.e_row, state.n, state.eta
    ki = int(state.net.degrees[i])
    w, loops = edge_order_block_weights(state, i)
    delta = 0.0
    delta += log_factorial(e_row[r] - ki) - log_factorial(e_row[r])
    delta += log_factorial(e_row[s] + ki) - log_factorial(e_row[s])
    for (t, u), d in pair_deltas(r, s, w, loops).items():
        if d == 0:
            continue
        if t == u:
            delta -= log_double_factorial_even(e[t][u] + d) - log_double_factorial_even(e[t][u])
        else:
            delta -= log_factorial(e[t][u] + d) - log_factorial(e[t][u])
    delta += math.log(n[s] + 1) - math.log(n[r])
    delta += log_count_partitions(e_row[r] - ki, n[r] - 1) - log_count_partitions(e_row[r], n[r])
    delta += log_count_partitions(e_row[s] + ki, n[s] + 1) - log_count_partitions(e_row[s], n[s])
    delta += math.log(eta[r][ki]) - math.log(eta[s].get(ki, 0) + 1)
    return delta


@given(st.integers(2, 5).flatmap(lambda num_blocks: st.tuples(
    st.just(num_blocks),
    # Vertex 9 never gets an edge; (u, u) entries are loops and repeated
    # pairs are parallel edges.
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 3)), max_size=25),
    st.lists(st.integers(0, num_blocks - 1), min_size=10, max_size=10))))
@settings(max_examples=80, deadline=None)
def test_move_deltas_match_single_target_oracle_and_recompute(case):
    num_blocks, edges, labels = case
    net = network_from_edges(10, edges)
    state = BlockState(net, labels, num_blocks)
    s_before = description_length(net, state)
    visit, _ = move_kernel(state)
    targets = range(num_blocks)
    for i in range(10):
        r = state.b[i]
        if state.n[r] == 1:
            continue
        every = [math.nan] * num_blocks
        _, _, best = visit(i, r, targets, every)
        assert every[r] == 0.0
        # The first block of least delta, if that delta is negative.
        low = min(every)
        assert best == (every.index(low) if low < 0.0 else r)
        for s in targets:
            single = [math.nan] * num_blocks
            visit(i, r, (s,), single)
            assert single[s].hex() == every[s].hex()
            assert sum(math.isnan(x) for x in single) == num_blocks - 1
            if s != r:
                assert every[s].hex() == _sequential_delta(state, i, r, s).hex()
            moved = BlockState(state.net, state.b, state.B)
            apply_move(moved, i, s)
            assert abs(every[s] - (description_length(net, moved) - s_before)) <= 1e-9


def _merged_labels(labels, r, s):
    """The labels with block s joined to block r, numbered 0..B-2 in the order of the old labels."""
    number = {t: k for k, t in enumerate(sorted(set(labels) - {s}))}
    number[s] = number[r]
    return [number[x] for x in labels]


@given(st.integers(2, 5).flatmap(lambda num_blocks: st.tuples(
    st.just(num_blocks),
    # Vertex 9 never gets an edge; (u, u) entries are loops and repeated
    # pairs are parallel edges.  Vertices 0..B-1 open the blocks, so none is
    # empty.
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 3)), max_size=25),
    st.lists(st.integers(0, num_blocks - 1), min_size=10, max_size=10).map(
        lambda labels: list(range(num_blocks)) + labels[num_blocks:]))))
@example((2, [(0, 0, 2), (0, 1), (1, 2, 3), (2, 2)], [0, 0, 0, 0, 0, 0, 0, 0, 0, 1]))
@example((3, [(0, 1, 2), (1, 1), (3, 4), (5, 6)], [0, 1, 0, 1, 0, 1, 0, 1, 0, 2]))
@settings(max_examples=80, deadline=None)
def test_merge_deltas_match_fresh_description_lengths(case):
    # delta(r, s) is S after joining blocks r and s (B - 1 blocks, relabelled)
    # minus S before, terms of B alone included; with a cutoff at or above
    # its lower bound delta returns the bound, and below it the exact value.
    num_blocks, edges, labels = case
    net = network_from_edges(10, edges)
    state = BlockState(net, labels, num_blocks)
    before = description_length(net, state)
    rows, delta = merge_kernel(net, labels, num_blocks)
    for r in range(num_blocks):
        assert rows[r] == {s: x for s, x in enumerate(state.e[r]) if x}
        for s in range(num_blocks):
            if s == r:
                continue
            merged = _merged_labels(labels, r, s)
            after = description_length(net, BlockState(net, merged, num_blocks - 1))
            exact = delta(r, s)
            assert abs(exact - (after - before)) <= 1e-9
            bound = delta(r, s, -math.inf)
            assert bound <= exact
            assert delta(r, s, bound) == bound
            assert delta(r, s, math.nextafter(bound, math.inf)) == exact


@given(st.integers(2, 4).flatmap(lambda num_blocks: st.tuples(
    st.just(num_blocks),
    # Vertex 9 never gets an edge; (u, u) entries are loops, repeated pairs
    # are parallel edges, and multiplicities reach 3.
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 3)), max_size=25),
    # The labels skip one block, which stays empty.
    st.integers(0, num_blocks - 1),
    st.lists(st.integers(0, num_blocks - 2), min_size=10, max_size=10))))
@settings(max_examples=80, deadline=None)
def test_block_statistics_match_a_numpy_count(case):
    # BlockState's e, e_row, n and eta, and merge_kernel's rows with their
    # keys in the order of each key's first edge in net.edges, against
    # counts made with numpy alone.
    num_blocks, edges, empty, drawn = case
    labels = [x + (x >= empty) for x in drawn]
    net = network_from_edges(10, edges)
    b = np.array(labels)
    u, v, m = (np.array([edge[k] for edge in net.edges], dtype=np.int64) for k in range(3))
    e = np.zeros((num_blocks, num_blocks), dtype=np.int64)
    np.add.at(e, (b[u], b[v]), m)
    np.add.at(e, (b[v], b[u]), m)
    degree = np.bincount(np.concatenate([u, v]), weights=np.concatenate([m, m]), minlength=10).astype(np.int64)

    state = BlockState(net, labels, num_blocks)
    assert state.e == e.tolist()
    assert state.e_row == e.sum(axis=1).tolist()
    assert state.n == np.bincount(b, minlength=num_blocks).tolist()
    for r in range(num_blocks):
        degrees, counts = np.unique(degree[b == r], return_counts=True)
        assert state.eta[r] == dict(zip(degrees.tolist(), counts.tolist()))
    assert state.n[empty] == 0 and state.e_row[empty] == 0

    # Edge k reaches row b[u] at column b[v] at time 2k, then row b[v] at
    # column b[u] at time 2k + 1.
    time = np.argsort(np.concatenate([2 * np.arange(len(u)), 2 * np.arange(len(u)) + 1]), kind="stable")
    row_of, col_of = np.concatenate([b[u], b[v]])[time], np.concatenate([b[v], b[u]])[time]
    rows, _ = merge_kernel(net, labels, num_blocks)
    for r in range(num_blocks):
        cols, first = np.unique(col_of[row_of == r], return_index=True)
        keys = cols[np.argsort(first)].tolist()
        assert list(rows[r]) == keys
        assert rows[r] == {s: int(e[r, s]) for s in keys}
        assert sorted(keys) == np.flatnonzero(e[r]).tolist()


def test_merge_kernel_of_singletons_and_of_an_isolated_vertex():
    # From singletons every block row is a vertex's neighbour weights; an
    # isolated vertex's block has an empty row, and joining it to another
    # block changes only the degree prior and the terms of B.
    net = network_from_edges(4, [(0, 1), (1, 2, 2), (2, 2)])
    rows, delta = merge_kernel(net, [0, 1, 2, 3], 4)
    assert rows == [{1: 1}, {0: 1, 2: 2}, {1: 2, 2: 2}, {}]
    for r, s in ((0, 1), (1, 2), (3, 0), (2, 3)):
        merged = _merged_labels([0, 1, 2, 3], r, s)
        after = description_length(net, BlockState(net, merged, 3))
        before = description_length(net, BlockState(net, [0, 1, 2, 3], 4))
        assert abs(delta(r, s) - (after - before)) <= 1e-9


def test_apply_move_keeps_statistics_consistent():
    rng = np.random.default_rng(4)
    net = random_multigraph(rng, 15, 40)
    state = BlockState(net, rng.integers(0, 4, 15), 4)
    applied = 0
    for _ in range(300):
        i = int(rng.integers(0, 15))
        s = int(rng.integers(0, 4))
        if not math.isfinite(delta_description_length(state, i, s)):
            continue
        apply_move(state, i, s)
        applied += 1
        assert state.b[i] == s
        rebuilt = BlockState(net, state.b, 4)
        assert state.b == rebuilt.b
        assert state.e == rebuilt.e
        assert state.n == rebuilt.n
        assert state.e_row == rebuilt.e_row
        assert state.eta == rebuilt.eta
    assert applied > 100


def edge_order_block_weights(state, i):
    """Oracle: vertex i's block weights summed over net.edges in edge order, and A_ii."""
    w = {}
    loops = 0
    for u, v, m in state.net.edges:
        if u == v == i:
            loops += 2 * m
            w[state.b[i]] = w.get(state.b[i], 0) + 2 * m
        elif i in (u, v):
            t = state.b[v if u == i else u]
            w[t] = w.get(t, 0) + m
    return w, loops


@given(st.integers(1, 4).flatmap(lambda num_blocks: st.tuples(
    st.just(num_blocks),
    # Vertex 9 never gets an edge; (u, u) entries are loops, repeated pairs
    # are parallel edges, and multiplicities reach 3.
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 3)), max_size=30),
    st.lists(st.integers(0, num_blocks - 1), min_size=10, max_size=10))))
@example((3, [(0, 0, 2), (0, 1), (1, 0, 2), (2, 0), (0, 0), (3, 3, 3), (3, 4)],
          [0, 1, 0, 2, 2, 0, 1, 2, 0, 1]))
@settings(max_examples=100, deadline=None)
def test_neighbor_block_weights_follow_the_edge_order(case):
    # The order of w decides the order of every float sum over it, so the
    # items must come out in the order of their first edge, not just equal.
    num_blocks, edges, labels = case
    net = network_from_edges(10, edges)
    state = BlockState(net, labels, num_blocks)
    visit, _ = move_kernel(state)
    for i in range(10):
        w, loops, best = visit(i, state.b[i], (), None)
        expected, expected_loops = edge_order_block_weights(state, i)
        assert list(w.items()) == list(expected.items())
        assert loops == expected_loops
        assert best == state.b[i]
    assert visit(9, state.b[9], (), None) == ({}, 0, state.b[9])


@given(st.integers(2, 4).flatmap(lambda num_blocks: st.tuples(
    st.just(num_blocks),
    # Vertex 9 never gets an edge; (u, u) entries are loops and repeated
    # pairs are parallel edges.
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 3)), max_size=25),
    st.lists(st.integers(0, num_blocks - 1), min_size=10, max_size=10),
    st.integers(0, 2**32 - 1))))
@settings(max_examples=60, deadline=None)
def test_a_kernel_bound_before_moves_reads_as_a_fresh_one(case):
    # The kernel binds b, the rows of e, e_row, n, eta and the state's cache
    # of block weights once; moves must update them in place, so a kernel
    # bound before a run of 60 moves sees exactly what a kernel on a state
    # rebuilt from the final labels sees.  The rebuilt state has its own,
    # empty cache, so its kernel counts every w afresh.
    num_blocks, edges, labels, seed = case
    net = network_from_edges(10, edges)
    state = BlockState(net, labels, num_blocks)
    stale, _ = move_kernel(state)
    rng = random.Random(seed)
    for _ in range(60):
        # With 10 vertices in at most 4 blocks some block has two or more.
        i = rng.choice([v for v in range(10) if state.n[state.b[v]] > 1])
        apply_move(state, i, rng.choice([s for s in range(num_blocks) if s != state.b[i]]))
    fresh, _ = move_kernel(BlockState(net, state.b, num_blocks))
    targets = range(num_blocks)
    for i in range(10):
        r = state.b[i]
        old_out, new_out = [0.0] * num_blocks, [0.0] * num_blocks
        scored = targets if state.n[r] > 1 else ()
        old_w, old_loops, old_best = stale(i, r, scored, old_out)
        new_w, new_loops, new_best = fresh(i, r, scored, new_out)
        assert list(old_w.items()) == list(new_w.items())
        assert (old_loops, old_best) == (new_loops, new_best)
        assert [x.hex() for x in old_out] == [x.hex() for x in new_out]


def test_log_table_is_exact_and_sized_by_the_state():
    # The kernel reads log(n) for block sizes and histogram counts up to N
    # unchecked, so building a state must grow the table past N first.
    num_vertices = 2 * len(_LOG_INT) + 3
    BlockState(network_from_edges(num_vertices, []), [0] * num_vertices, 1)
    assert len(_LOG_INT) > num_vertices
    assert _LOG_INT[0] == -math.inf
    assert all(_LOG_INT[k].hex() == math.log(k).hex() for k in range(1, len(_LOG_INT)))


@pytest.mark.parametrize("i, target", [(0, -1), (0, 3), (-1, 0), (105, 0)])
def test_apply_move_rejects_a_vertex_or_target_out_of_range(i, target):
    state = BlockState(load_polbooks(), [k % 3 for k in range(105)], 3)
    before = BlockState(state.net, state.b, state.B)
    with pytest.raises(ValueError, match="outside"):
        apply_move(state, i, target)
    with pytest.raises(ValueError, match="outside"):
        delta_description_length(state, i, target)
    assert (state.b, state.e, state.e_row, state.n, state.eta) == \
        (before.b, before.e, before.e_row, before.n, before.eta)


# --------------------------------------- likelihood normalisation at tiny scale

def enumerate_matchings(stubs):
    """All perfect matchings of a list of labelled half-edges."""
    if not stubs:
        yield ()
        return
    first, rest = stubs[0], stubs[1:]
    for idx in range(len(rest)):
        remaining = rest[:idx] + rest[idx + 1:]
        for more in enumerate_matchings(remaining):
            yield ((first, rest[idx]),) + more


def exact_pairing_count(state):
    num = 1
    for r in range(state.B):
        num *= math.factorial(state.e_row[r])
    den = 1
    for r in range(state.B):
        m = state.e[r][r] // 2
        den *= 2**m * math.factorial(m)
        for s in range(r + 1, state.B):
            den *= math.factorial(state.e[r][s])
    assert num % den == 0
    return num // den


def exact_graph_multiplicity(net):
    num = 1
    for k in net.degrees:
        num *= math.factorial(int(k))
    den = 1
    for u, v, m in net.edges:
        den *= 2**m * math.factorial(m) if u == v else math.factorial(m)
    assert num % den == 0
    return num // den


@pytest.mark.parametrize("labels,degrees_seq", [
    ([0, 0, 0, 0], [1, 1, 1, 1]),   # 4 half-edges, one block
    ([0, 0], [2, 2]),               # parallel edges / loops, one block
    ([0, 0, 0], [2, 2, 2]),         # 6 half-edges, one block
    ([0, 1, 1], [2, 1, 1]),         # cross-block constraint
])
def test_likelihood_normalises(labels, degrees_seq):
    num_blocks = max(labels) + 1
    stubs = [v for v, k in enumerate(degrees_seq) for _ in range(k)]
    by_graph = Counter()
    by_edge_matrix = Counter()
    for matching in enumerate_matchings(stubs):
        edges = Counter()
        for u, v in matching:
            edges[(min(u, v), max(u, v))] += 1
        canon = tuple(sorted((u, v, m) for (u, v), m in edges.items()))
        e_key = _edge_matrix_key(canon, labels, num_blocks)
        by_graph[(e_key, canon)] += 1
        by_edge_matrix[e_key] += 1

    for e_key, total_configs in by_edge_matrix.items():
        probs = Fraction(0)
        for (key, canon), count in by_graph.items():
            if key != e_key:
                continue
            net = network_from_edges(len(labels), canon)
            state = BlockState(net, labels, num_blocks)
            omega = exact_pairing_count(state)
            xi = exact_graph_multiplicity(net)
            assert omega == total_configs
            assert xi == count
            assert math.isclose(log_likelihood(net, state), math.log(xi) - math.log(omega),
                                rel_tol=1e-12)
            probs += Fraction(xi, omega)
        assert probs == 1


def _edge_matrix_key(canon_edges, labels, num_blocks):
    e = [[0] * num_blocks for _ in range(num_blocks)]
    for u, v, m in canon_edges:
        r, s = labels[u], labels[v]
        if r == s:
            e[r][r] += 2 * m
        else:
            e[r][s] += m
            e[s][r] += m
    return tuple(tuple(row) for row in e)
