import hashlib
import inspect
import itertools
import math
import random
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from ffbm import (
    BlockChainConfig,
    BlockState,
    GeneratorSpec,
    align_labels,
    delta_description_length,
    description_length,
    estimate_responsibilities,
    generate,
    load_polbooks,
    mdl_partition,
    network_from_edges,
    run_block_chain,
)
from ffbm import block_chain
from ffbm import dcsbm
from ffbm.block_chain import (
    _descend,
    _min_cost_assignment,
    _proposal_draws,
    _proposal_probs,
    _sweeper,
)
from ffbm.dcsbm import apply_move, move_kernel
from ffbm.sampling import retained_indices

from conftest import neighbour_pairs, pair_deltas, two_cliques


# ------------------------------------------------------------- retained sets

def test_retained_indices_examples():
    idx = retained_indices(1000, 0.2, 5)
    assert len(idx) == 161 and idx[0] == 200 and idx[-1] == 1000
    assert retained_indices(10, 0.0, 1) == list(range(11))
    assert len(retained_indices(10000, 0.4, 10)) == 601


def test_retained_indices_validation():
    with pytest.raises(ValueError):
        retained_indices(0, 0.2, 5)
    with pytest.raises(ValueError):
        retained_indices(100, 1.0, 5)
    with pytest.raises(ValueError):
        retained_indices(100, 0.2, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        BlockChainConfig(smoothing=0.0)
    # A non-finite smoothing makes every scored move's log alpha NaN, so
    # the chain would never move.
    for smoothing in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"smoothing must be a real number in \(0, inf\)"):
            BlockChainConfig(smoothing=smoothing)
    with pytest.raises(ValueError):
        BlockChainConfig(burn_in=1.2)
    # The seed also seeds the sweeps' numpy generator, which takes no
    # negative seed.
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        BlockChainConfig(seed=-1)


# ----------------------------------------------------------------- proposals

def _block_weights(state, i):
    """Vertex i's block weights and loop weight, as a freshly bound move kernel reads them."""
    visit, _ = move_kernel(state)
    w, loops, _ = visit(i, state.b[i], (), None)
    return w, loops


def _swept_proposals(monkeypatch, state, rng, count, eps=1.0):
    """The (vertex, target) of each of ``count`` proposals as one sweep on
    the state decides them.  Every scored move is rejected (its delta reads
    +inf), so the state stays put and a proposal the sweep does not score is
    a null one; no block may be a singleton, or an emptying move would pass
    for a null one."""
    assert min(state.n) > 1
    vertices, targets = [], {}
    draws = block_chain._proposal_draws

    def recorded_draws(half_edges, rng, chunk):
        for draw in draws(half_edges, rng, chunk):
            vertices.append(draw[0])
            yield draw

    def rejecting_kernel(state):
        visit, move = dcsbm.move_kernel(state)

        def scored(i, r, asked, out):
            w, loops, best = visit(i, r, asked, out)
            (s,) = asked
            targets[len(vertices) - 1] = s
            out[s] = math.inf
            return w, loops, best

        return scored, move

    with monkeypatch.context() as patch:
        patch.setattr(block_chain, "_proposal_draws", recorded_draws)
        patch.setattr(block_chain, "move_kernel", rejecting_kernel)
        _, nulls, emptying, moved = _sweeper(state, rng, eps)(count, 0.0)
    assert len(vertices) == count and nulls == count - len(targets)
    assert emptying == moved == 0
    return [(i, targets.get(k, state.b[i])) for k, i in enumerate(vertices)]


def _propose(monkeypatch, state, rng, count, eps=1.0):
    """The swept proposals with their proposal probabilities both ways:
    (vertex, target, forward, reverse) each."""
    probs = _proposal_probs(state, eps)
    return [(i, s, *probs(i, state.b[i], s, *_block_weights(state, i)))
            for i, s in _swept_proposals(monkeypatch, state, rng, count, eps)]


def test_propose_single_block(bowtie, monkeypatch):
    state = BlockState(bowtie, [0] * 5, 1)
    for i, s, fwd, rev in _propose(monkeypatch, state, np.random.default_rng(0), 20):
        assert s == 0
        assert fwd == rev


def test_propose_huge_smoothing_is_uniform(bowtie, monkeypatch):
    # eps -> inf: p(s|t) -> 1/B, so the move probability is 1/(N B).
    state = BlockState(bowtie, [0, 0, 0, 1, 1], 2)
    for i, s, fwd, _ in _propose(monkeypatch, state, np.random.default_rng(1), 50, eps=1e12):
        assert math.isclose(math.log(fwd), -math.log(5 * 2), rel_tol=1e-6)


def test_propose_forward_probabilities_sum_to_one(bowtie):
    state = BlockState(bowtie, [0, 0, 0, 1, 1], 2)
    for i in range(5):
        r = state.b[i]
        w, loops = _block_weights(state, i)
        total = 0.0
        for s in range(2):
            fwd, _ = _proposal_probs(state, 1.0)(i, r, s, w, loops)
            total += fwd
        assert math.isclose(total, 1.0 / 5, rel_tol=1e-12)


def closed_form_proposal_probs(state, eps=1.0):
    """Independent evaluation of the neighbour-mixture proposal law:
    P(i, s) = (1/N) sum_t (w_t / k_i) (e_ts + eps) / (e_t + eps B)."""
    n_vert, num_blocks = len(state.b), state.B
    pairs = neighbour_pairs(state.net)
    probs = {}
    for i in range(n_vert):
        ki = int(state.net.degrees[i])
        if ki == 0:
            for s in range(num_blocks):
                probs[(i, s)] = 1.0 / (n_vert * num_blocks)
            continue
        w = Counter()
        for j, a in pairs[i]:
            w[state.b[j]] += a
        for s in range(num_blocks):
            p = sum(wt / ki * (state.e[t][s] + eps) / (state.e_row[t] + eps * num_blocks)
                    for t, wt in w.items())
            probs[(i, s)] = p / n_vert
    return probs


def test_propose_empirical_frequencies_match_closed_form(monkeypatch):
    # Monte Carlo on a 4-vertex two-block graph versus the closed form; the
    # targets are the ones the sweep picks from the chunked draws.
    net = network_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    state = BlockState(net, [0, 0, 1, 1], 2)
    expected = closed_form_proposal_probs(state)
    assert math.isclose(sum(expected.values()), 1.0, rel_tol=1e-12)
    draws = 100_000
    counts = Counter(_swept_proposals(monkeypatch, state, np.random.default_rng(2), draws))
    probs = _proposal_probs(state, 1.0)
    reported = {(i, s): probs(i, state.b[i], s, *_block_weights(state, i))[0] for i, s in counts}
    for key, p in expected.items():
        assert math.isclose(reported.get(key, p), p, rel_tol=1e-12)
        se = math.sqrt(p * (1 - p) / draws)
        assert abs(counts.get(key, 0) / draws - p) < 3.5 * se + 1e-4, (key, p)


def test_propose_reverse_matches_forward_of_reversed_state(bowtie):
    # log q(b' -> b) must equal what the proposer would report from b'.
    rng = random.Random(3)
    for _ in range(300):
        labels = [rng.randrange(2) for _ in range(5)]
        if len(set(labels)) < 2:
            continue
        state = BlockState(bowtie, labels, 2)
        i = rng.randrange(5)
        r = state.b[i]
        if state.n[r] == 1:
            continue
        s = 1 - r
        w, loops = _block_weights(state, i)
        fwd, rev = _proposal_probs(state, 1.0)(i, r, s, w, loops)
        moved = BlockState(state.net, state.b, state.B)
        apply_move(moved, i, s)
        w2, loops2 = _block_weights(moved, i)
        fwd2, rev2 = _proposal_probs(moved, 1.0)(i, s, r, w2, loops2)
        assert abs(math.log(rev) - math.log(fwd2)) < 1e-10
        assert abs(math.log(rev2) - math.log(fwd)) < 1e-10


def test_detailed_balance_spot_check(bowtie):
    rng = random.Random(4)
    checked = 0
    while checked < 200:
        labels = [rng.randrange(2) for _ in range(5)]
        if len(set(labels)) < 2:
            continue
        state = BlockState(bowtie, labels, 2)
        i = rng.randrange(5)
        r = state.b[i]
        if state.n[r] == 1:
            continue
        s = 1 - r
        delta = delta_description_length(state, i, s)
        w, loops = _block_weights(state, i)
        fwd, rev = _proposal_probs(state, 1.0)(i, r, s, w, loops)
        moved = BlockState(state.net, state.b, state.B)
        apply_move(moved, i, s)
        w2, loops2 = _block_weights(moved, i)
        fwd2, rev2 = _proposal_probs(moved, 1.0)(i, s, r, w2, loops2)
        log_acc_fwd = min(0.0, -delta + math.log(rev) - math.log(fwd))
        log_acc_rev = min(0.0, delta + math.log(rev2) - math.log(fwd2))
        lhs = -description_length(bowtie, state) + math.log(fwd) + log_acc_fwd
        rhs = -description_length(bowtie, moved) + math.log(fwd2) + log_acc_rev
        assert abs(lhs - rhs) < 1e-9
        checked += 1


def _scanned_target(state, j, u, eps):
    """The target of a draw with far end j and target uniform u, read off a
    bisect over the cumulative smoothed row of j's block."""
    num_blocks = state.B
    if j < 0:
        return int(u * num_blocks)
    t = state.b[j]
    cumulative = list(itertools.accumulate(x + eps for x in state.e[t]))
    return min(bisect_right(cumulative, u * (state.e_row[t] + eps * num_blocks)), num_blocks - 1)


def test_isolated_vertex_gets_a_uniform_target(monkeypatch):
    # Vertex 6 has no edge: its target is floor(u B), each block with
    # probability 1/B whatever the blocks' edge counts.
    net = network_from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 0, 3)])
    state = BlockState(net, [0, 0, 1, 1, 2, 2, 0], 3)
    draws = 70_000
    targets = Counter(s for i, s in
                      _swept_proposals(monkeypatch, state, np.random.default_rng(4), draws) if i == 6)
    total = sum(targets.values())
    assert abs(total / draws - 1 / 7) < 3.5 * math.sqrt(6 / 49 / draws)
    for s in range(3):
        assert abs(targets[s] / total - 1 / 3) < 3.5 * math.sqrt(2 / 9 / total), (s, targets)


def _loopy_network():
    """Loops (one with multiplicity 2), parallel edges and an isolated vertex (7)."""
    return network_from_edges(8, [(0, 1, 3), (0, 0), (1, 2), (2, 2, 2), (2, 3), (3, 4, 2),
                                  (4, 5), (5, 6), (6, 0), (1, 5), (3, 3)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chain_output_does_not_depend_on_the_chunk(monkeypatch, seed):
    # Loops (one with multiplicity 2), parallel edges and an isolated vertex
    # (7).  Proposal k reads doubles 4k to 4k+3 of the sweep generator
    # however they are chunked: one proposal per draw, a chunk that does not
    # divide a sweep and one chunk for the whole chain give the default's
    # S trace, samples and counts bit for bit.
    net = _loopy_network()
    cfg = BlockChainConfig(iterations=60, burn_in=0.0, thinning=1, seed=seed, init_restarts=1)
    runs = {}
    for chunk in (block_chain._CHUNK, 1, 7, cfg.iterations * net.num_vertices + 1):
        monkeypatch.setattr(block_chain, "_CHUNK", chunk)
        res = run_block_chain(net, 3, cfg)
        runs[chunk] = (res.s_trace.tobytes(), np.stack(res.samples).tobytes(),
                       res.null_proposals, res.emptying_rejections, res.accepted_moves)
    assert len(set(runs.values())) == 1
    assert runs[1][-1] > 20


def test_draw_move_rejects_an_empty_network():
    net = network_from_edges(0, [])
    with pytest.raises(ValueError, match="empty network"):
        _sweeper(BlockState(net, [], 1), np.random.default_rng(0), 1.0)(1, 0.0)
    with pytest.raises(ValueError, match="empty network"):
        _proposal_draws(net.half_edges, np.random.default_rng(0), 1)


def _pair_delta_proposal_probs(state, i, r, s, w, loops, ki, eps):
    """The proposal probabilities with the reverse move read through the pair-delta dict,
    as they were computed before the reverse was scored on the state directly."""
    e, e_row, num_blocks = state.e, state.e_row, state.B
    eps_b = eps * num_blocks
    scale = 1.0 / (state.net.num_vertices * ki)
    forward = 0.0
    for t, wt in w.items():
        forward += wt * (e[t][s] + eps) / (e_row[t] + eps_b)
    forward *= scale
    if s == r:
        return forward, forward
    deltas = pair_deltas(r, s, w, loops)
    w_post = w
    if loops:
        w_post = dict(w)
        w_post[r] = w_post.get(r, 0) - loops
        if w_post[r] == 0:
            del w_post[r]
        w_post[s] = w_post.get(s, 0) + loops
    reverse = 0.0
    for t, wt in w_post.items():
        key = (t, r) if t <= r else (r, t)
        e_tr = e[min(t, r)][max(t, r)] + deltas.get(key, 0)
        row = e_row[t]
        if t == r:
            row -= ki
        elif t == s:
            row += ki
        reverse += wt * (e_tr + eps) / (row + eps_b)
    reverse *= scale
    return forward, reverse


@given(st.integers(2, 5).flatmap(lambda num_blocks: st.tuples(
    st.just(num_blocks),
    # Vertex 9 never gets an edge; (u, u) entries are loops and repeated
    # pairs are parallel edges.
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 3)), max_size=25),
    st.lists(st.integers(0, num_blocks - 1), min_size=10, max_size=10),
    st.sampled_from([0.25, 1.0, 3.0]))))
@settings(max_examples=120, deadline=None)
def test_proposal_probs_match_the_pair_delta_formula_and_the_moved_state(case):
    num_blocks, edges, labels, eps = case
    net = network_from_edges(10, edges)
    state = BlockState(net, labels, num_blocks)
    for i in range(10):
        ki = net.half_edges.degree[i]
        r = state.b[i]
        w, loops = _block_weights(state, i)
        if ki == 0:
            # An isolated vertex draws its target uniformly, both ways.
            uniform = 1.0 / (10 * num_blocks)
            for s in range(num_blocks):
                assert _proposal_probs(state, eps)(i, r, s, w, loops) == (uniform, uniform)
            continue
        for s in range(num_blocks):
            fwd, rev = _proposal_probs(state, eps)(i, r, s, w, loops)
            old_fwd, old_rev = _pair_delta_proposal_probs(state, i, r, s, w, loops, ki, eps)
            assert fwd.hex() == old_fwd.hex() and rev.hex() == old_rev.hex()
            moved = BlockState(state.net, state.b, state.B)
            apply_move(moved, i, s)
            w2, loops2 = _block_weights(moved, i)
            fwd2, rev2 = _proposal_probs(moved, eps)(i, s, r, w2, loops2)
            assert math.isclose(rev, fwd2, rel_tol=1e-12)
            assert math.isclose(rev2, fwd, rel_tol=1e-12)


# ----------------------------------------------------------------- MH stepping

def test_mh_step_never_empties_blocks(bowtie):
    state = BlockState(bowtie, [0, 0, 0, 1, 1], 2)
    sweep = _sweeper(state, np.random.default_rng(5), 1.0)
    for _ in range(2000):
        sweep(1, 0.0)
        assert min(state.n) >= 1


def test_mh_step_accepts_noop():
    # With one block every proposal is the identity move and must be accepted.
    net = network_from_edges(3, [(0, 1), (1, 2)])
    state = BlockState(net, [0, 0, 0], 1)
    sweep = _sweeper(state, np.random.default_rng(6), 1.0)
    assert all(sweep(1, 0.0)[1:] == (1, 0, 0) for _ in range(50))


def test_degree_zero_vertices_move():
    net = network_from_edges(4, [(0, 1)])
    state = BlockState(net, [0, 0, 1, 1], 2)
    sweep = _sweeper(state, np.random.default_rng(7), 1.0)
    seen = set()
    for _ in range(500):
        sweep(1, 0.0)
        seen.add(tuple(state.b))
        assert min(state.n) >= 1
    assert len(seen) > 1  # isolated vertices do get reassigned


def _replay_steps(state, cfg, rng, count, s_now):
    """count one-proposal sweeps, each bound afresh to the state and drawing
    from rng, with the chunk set to one proposal.  Each proposal is first
    peeked at through ``_proposal_draws`` on a copy of rng, and its target
    read off ``_scanned_target``.  Returns the running S, with each accepted
    delta read from delta_description_length before the step, and the tally
    of outcomes: null, emptying, moved or rejected (by the acceptance test)."""
    assert block_chain._CHUNK == 1
    tally = Counter()
    peek = np.random.default_rng()
    for _ in range(count):
        peek.bit_generator.state = rng.bit_generator.state
        ((i, j, u, _),) = _proposal_draws(state.net.half_edges, peek, 1)
        s = _scanned_target(state, j, u, cfg.smoothing)
        r = state.b[i]
        emptying = s != r and state.n[r] == 1
        delta = 0.0 if s == r or emptying else delta_description_length(state, i, s)
        s_step, *outcome = _sweeper(state, rng, cfg.smoothing)(1, s_now)
        # Every proposal reads its four doubles, decided without an
        # acceptance draw or not.
        assert rng.bit_generator.state == peek.bit_generator.state
        moved = state.b[i] != r
        assert state.b[i] == (s if moved else r)
        if s == r:
            kind = "null"
        elif emptying:
            kind = "emptying"
        elif moved:
            kind = "moved"
            s_now += delta
        else:
            kind = "rejected"
        assert outcome == [kind == "null", kind == "emptying", kind == "moved"]
        assert s_step.hex() == s_now.hex()
        tally[kind] += 1
    return s_now, tally


def _same_state(a, b):
    return a.b == b.b and a.e == b.e and a.e_row == b.e_row and a.n == b.n and a.eta == b.eta


@pytest.mark.parametrize("seed", [0, 1])
def test_one_generator_across_sweeps_equals_a_fresh_generator_per_step(monkeypatch, seed):
    # The sweep binds b, e and e_row once; a stale reference after a move
    # would make its targets or deltas differ from a one-proposal sweep bound
    # afresh at every step.  The bound sweep draws default chunks and the
    # replay one proposal at a time, so this also checks the chunking.
    net = _loopy_network()
    swept = BlockState(net, [0, 0, 1, 1, 2, 2, 0, 1], 3)
    stepped = BlockState(swept.net, swept.b, swept.B)
    cfg = BlockChainConfig(iterations=10, seed=0)
    s0 = description_length(net, swept)
    sweep = _sweeper(swept, np.random.default_rng(seed), cfg.smoothing)
    s_swept = s0
    snapshots = []
    for _ in range(250):
        s_swept, *counts = sweep(8, s_swept)
        snapshots.append((BlockState(swept.net, swept.b, swept.B), s_swept, counts))
    monkeypatch.setattr(block_chain, "_CHUNK", 1)
    rng_m = np.random.default_rng(seed)
    s_stepped = s0
    moved = 0
    for snapshot, s_swept, (nulls, emptying, sweep_moved) in snapshots:
        s_stepped, tally = _replay_steps(stepped, cfg, rng_m, 8, s_stepped)
        assert (nulls, emptying, sweep_moved) == (tally["null"], tally["emptying"], tally["moved"])
        moved += sweep_moved
        assert _same_state(snapshot, stepped)
        assert s_swept.hex() == s_stepped.hex()
    assert moved > 50
    assert math.isclose(s_swept, description_length(net, swept), abs_tol=1e-9)


def test_chain_counts_match_a_one_step_replay(monkeypatch):
    # The three totals, with the replay's rejections by the acceptance test,
    # account for every one of the sweeps x N proposals; the moved count is
    # the number of label changes, and the running S matches bit for bit.
    net = two_cliques(5)
    cfg = BlockChainConfig(iterations=60, burn_in=0.0, thinning=1, seed=5, init_restarts=1)
    res = run_block_chain(net, 3, cfg)
    state = mdl_partition(net, 3, random.Random(cfg.seed), restarts=cfg.init_restarts)
    monkeypatch.setattr(block_chain, "_CHUNK", 1)
    s_end, tally = _replay_steps(state, cfg, np.random.default_rng(cfg.seed),
                                 cfg.iterations * net.num_vertices, description_length(net, state))
    counts = (res.null_proposals, res.emptying_rejections, res.accepted_moves)
    assert all(type(c) is int for c in counts)
    assert counts == (tally["null"], tally["emptying"], tally["moved"])
    assert sum(counts) + tally["rejected"] == cfg.iterations * net.num_vertices
    assert min(counts) > 0 and tally["rejected"] > 0
    assert state.b == res.samples[-1].tolist()
    assert s_end.hex() == float(res.s_trace[-1]).hex()


def test_single_block_chain_proposes_only_null_moves(bowtie):
    cfg = BlockChainConfig(iterations=20, burn_in=0.0, thinning=1, seed=3)
    res = run_block_chain(bowtie, 1, cfg)
    assert res.null_proposals == 20 * 5
    assert res.emptying_rejections == res.accepted_moves == 0


def test_sweep_counts_emptying_rejections(bowtie):
    # Vertex 4 alone in block 1: its proposals to block 0 would empty block 1.
    state = BlockState(bowtie, [0, 0, 0, 0, 1], 2)
    _, nulls, emptying, moved = _sweeper(state, np.random.default_rng(9), 1.0)(200, 0.0)
    assert emptying > 0 and nulls > 0
    assert nulls + emptying + moved <= 200
    assert min(state.n) >= 1


# ------------------------------------------- target table and Hastings bound

def _fresh_target_table(state, eps):
    """Oracle: per block t, the first B - 1 running sums of e_ts + eps and e_t + eps B."""
    return ([list(itertools.accumulate(x + eps for x in row[:-1])) for row in state.e],
            [row + eps * state.B for row in state.e_row])


# Vertex 9 never gets an edge; (u, u) entries are loops and repeated pairs
# are parallel edges.
_edge_lists = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 3)),
                       max_size=25)


@given(st.integers(1, 4).flatmap(lambda num_blocks: st.tuples(
    st.just(num_blocks), _edge_lists,
    st.lists(st.integers(0, num_blocks - 1), min_size=10, max_size=10),
    st.sampled_from([0.25, 1.0, 3.0]), st.integers(0, 2**32 - 1))))
@example((3, [(0, 0, 2), (0, 1), (1, 2, 3), (2, 2), (2, 3), (3, 4, 2), (4, 5), (5, 6), (6, 0),
              (1, 5), (3, 7), (7, 8, 2), (8, 8)], [0, 1, 2, 0, 1, 2, 0, 1, 2, 0], 1.0, 3))
@settings(max_examples=80, deadline=None)
def test_target_table_matches_a_fresh_build_after_every_move(case):
    # The sweep picks targets from a table it rebuilds when called and
    # refreshes after each accepted move, for the rows of r, s and the blocks
    # in w.  Swept one proposal per call, the table is compared after every
    # step with one built afresh from the state.
    num_blocks, edges, labels, eps, seed = case
    net = network_from_edges(10, edges)
    state = BlockState(net, labels, num_blocks)
    sweep = _sweeper(state, np.random.default_rng(seed), eps)
    table = inspect.getclosurevars(sweep).nonlocals
    for _ in range(200):
        sweep(1, 0.0)
        assert (table["sums"], table["totals"]) == _fresh_target_table(state, eps)


@given(st.integers(2, 4).flatmap(lambda num_blocks: st.tuples(
    st.just(num_blocks), _edge_lists,
    st.lists(st.integers(0, num_blocks - 1), min_size=10, max_size=10),
    st.sampled_from([1e-6, 1.0, 1e6]))))
@settings(max_examples=120, deadline=None)
def test_hastings_ratio_stays_below_the_bound(case):
    num_blocks, edges, labels, eps = case
    net = network_from_edges(10, edges)
    state = BlockState(net, labels, num_blocks)
    bound = block_chain._hastings_bound(state, eps)
    assert math.isfinite(bound)
    probs = _proposal_probs(state, eps)
    for i in range(10):
        r = state.b[i]
        w, loops = _block_weights(state, i)
        for s in range(num_blocks):
            if s != r:
                forward, reverse = probs(i, r, s, w, loops)
                assert math.log(reverse) - math.log(forward) < bound


def test_hastings_bound_is_infinite_where_rounding_is_not_relative(bowtie):
    # Huge smoothing makes every ratio 1/B; eps B overflows at 1e308, and
    # at 1e-310 the smallest proposal probability is subnormal.
    state = BlockState(bowtie, [0, 0, 0, 1, 1], 2)
    assert block_chain._hastings_bound(state, 1e300) == math.log(2) + 1e-6
    for eps in (1e-310, 1e308, math.inf):
        assert block_chain._hastings_bound(state, eps) == math.inf


def _counted_chain(net, num_blocks, cfg, patch_bound=False):
    """The chain's outputs and the number of proposal-law calls, with the
    Hastings bound patched to infinity if asked."""
    law = block_chain._proposal_probs
    calls = []

    def counted_law(state, eps):
        probs = law(state, eps)

        def counted(*args):
            calls.append(None)
            return probs(*args)

        return counted

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(block_chain, "_proposal_probs", counted_law)
        if patch_bound:
            patch.setattr(block_chain, "_hastings_bound", lambda state, eps: math.inf)
        res = run_block_chain(net, num_blocks, cfg)
    return (res.s_trace.tobytes(), np.stack(res.samples).tobytes(), res.null_proposals,
            res.emptying_rejections, res.accepted_moves), len(calls)


@pytest.mark.parametrize("network, cfg, skipped", [
    pytest.param(load_polbooks, BlockChainConfig(seed=1), 0.5, id="polbooks"),
    pytest.param(_loopy_network, BlockChainConfig(iterations=300, seed=2, init_restarts=1), 0.0,
                 id="loopy")])
def test_early_rejection_takes_the_full_tests_decisions(network, cfg, skipped):
    # With the bound patched to infinity every scored proposal computes its
    # proposal probabilities.  The default chain must give the same S trace,
    # samples and counts bit for bit; on polbooks it skips the proposal law
    # on more than half of its scored proposals.
    net = network()
    out, calls = _counted_chain(net, 3, cfg)
    full_out, full_calls = _counted_chain(net, 3, cfg, patch_bound=True)
    assert out == full_out
    assert full_calls == cfg.iterations * net.num_vertices - out[2] - out[3]
    assert calls < (1 - skipped) * full_calls


# ------------------------------------------------------ neighbour-block cache

def _counted_block_weights(state, i):
    """Oracle: vertex i's block weights counted afresh over ends[i] and b, as
    (block, weight) items in order of first appearance, and its loop weight."""
    ends = state.net.half_edges.ends[i]
    w = {}
    for j in ends:
        w[state.b[j]] = w.get(state.b[j], 0) + 1
    return list(w.items()), ends.count(i)


def _read_every_vertex(state):
    """Every vertex's (w items, loops) as the move kernel's visit returns them;
    reading leaves every vertex's w cached on the state."""
    visit, _ = move_kernel(state)
    read = []
    for i in range(len(state.b)):
        w, loops, _ = visit(i, state.b[i], (), None)
        read.append((list(w.items()), loops))
    return read


def _assert_matches_a_fresh_count(state):
    rebuilt = BlockState(state.net, state.b, state.B)
    assert (state.e, state.e_row, state.n, state.eta) == \
        (rebuilt.e, rebuilt.e_row, rebuilt.n, rebuilt.eta)
    assert _read_every_vertex(state) == \
        [_counted_block_weights(state, i) for i in range(len(state.b))]


def _random_move(state, rng):
    # With 10 vertices in at most 4 blocks some block has two or more.
    i = rng.choice([v for v in range(10) if state.n[state.b[v]] > 1])
    apply_move(state, i, rng.choice([s for s in range(state.B) if s != state.b[i]]))


@given(st.integers(2, 4).flatmap(lambda num_blocks: st.tuples(
    st.just(num_blocks),
    # Vertex 9 never gets an edge; (u, u) entries are loops, repeated pairs
    # are parallel edges, and multiplicities reach 3.
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 3)), max_size=25),
    st.lists(st.integers(0, num_blocks - 1), min_size=10, max_size=10),
    st.integers(0, 2**32 - 1))))
@example((3, [(0, 0, 2), (0, 1), (1, 1), (1, 2, 3), (2, 2), (3, 4), (4, 4, 3), (5, 6, 2), (6, 6),
              (7, 8), (8, 8, 2), (1, 2)], [0, 1, 2, 0, 1, 2, 0, 1, 2, 0], 5))
@settings(max_examples=80, deadline=None)
def test_cached_block_weights_match_a_fresh_count_after_moves(case):
    # The move kernel's visit returns the state's cached w of a vertex until a
    # move marks it stale.  After moves from apply_move, a chain's sweep and
    # the greedy descent, made while the other vertices' w are cached, every
    # vertex's w (items and order) and loop weight must equal a fresh count,
    # and the statistics a rebuilt state's.
    num_blocks, edges, labels, seed = case
    net = network_from_edges(10, edges)
    rng = random.Random(seed)
    state = BlockState(net, labels, num_blocks)
    for _ in range(30):
        _random_move(state, rng)
        _assert_matches_a_fresh_count(state)

    _sweeper(state, np.random.default_rng(seed), 1.0)(300, 0.0)
    _assert_matches_a_fresh_count(state)
    _descend(state, rng)
    _assert_matches_a_fresh_count(state)


# --------------------------------------------------------------- greedy init

def test_mdl_partition_single_block(bowtie):
    state = mdl_partition(bowtie, 1, random.Random(0))
    assert state.b == [0] * 5


def test_mdl_partition_deterministic(bowtie):
    a = mdl_partition(bowtie, 2, random.Random(9))
    b = mdl_partition(bowtie, 2, random.Random(9))
    assert a.b == b.b


def test_mdl_partition_rejects_too_many_blocks(path3):
    with pytest.raises(ValueError):
        mdl_partition(path3, 4, random.Random(0))


def test_clique_split_is_global_optimum():
    # Enumeration oracle on K3+K3: the clique split minimises S over all
    # two-block labellings.
    net = two_cliques(3)
    best, best_labels = math.inf, None
    for labels in itertools.product(range(2), repeat=6):
        if len(set(labels)) < 2:
            continue
        s = description_length(net, BlockState(net, list(labels), 2))
        if s < best:
            best, best_labels = s, labels
    assert best_labels in ((0, 0, 0, 1, 1, 1), (1, 1, 1, 0, 0, 0))


def test_mdl_partition_separates_cliques():
    net = two_cliques(5)
    state = mdl_partition(net, 2, random.Random(11))
    first, second = set(state.b[:5]), set(state.b[5:])
    assert len(first) == 1 and len(second) == 1 and first != second


def test_mdl_partition_with_a_block_per_vertex():
    state = mdl_partition(two_cliques(3), 6, random.Random(0))
    assert state.b == list(range(6))


def test_mdl_partition_places_isolated_vertices():
    # A block with no neighbour block merges into one drawn from rng; on a
    # network with no edge at all every block is such a block.
    net = network_from_edges(11, two_cliques(5).edges)
    state = mdl_partition(net, 2, random.Random(3))
    assert len(set(state.b[:5])) == len(set(state.b[5:10])) == 1 and state.b[0] != state.b[5]
    empty = network_from_edges(7, [])
    state = mdl_partition(empty, 3, random.Random(1))
    assert sorted(set(state.b)) == [0, 1, 2]
    assert state.b == mdl_partition(empty, 3, random.Random(1)).b


def test_merge_rounds_halve_then_merge_one_pair_and_go_dense_below_the_cap(monkeypatch):
    # Halving rounds while more than 2B blocks remain, then one merge a
    # round; a dense state is built only at or below 64 B blocks.
    merged_from, dense = [], []
    kernel, state_type = block_chain.merge_kernel, block_chain.BlockState

    def recorded_kernel(net, labels, num_blocks):
        merged_from.append(num_blocks)
        return kernel(net, labels, num_blocks)

    def recorded_state(net, labels, num_blocks):
        dense.append(num_blocks)
        return state_type(net, labels, num_blocks)

    monkeypatch.setattr(block_chain, "merge_kernel", recorded_kernel)
    monkeypatch.setattr(block_chain, "BlockState", recorded_state)
    mdl_partition(load_polbooks(), 3, random.Random(0))
    assert merged_from == [105, 52, 26, 13, 6, 5, 4]
    assert dense == [52, 26, 13, 6, 5, 4, 3]
    merged_from.clear()
    dense.clear()
    mdl_partition(_planted_network(), 2, random.Random(0))
    assert merged_from[:3] == [500, 250, 125] and merged_from[-1] == 3
    assert dense[0] == 125 <= block_chain._DENSE_CAP * 2 and dense[-1] == 2


def test_greedy_scores_the_blocks_of_a_vertex_s_neighbours(monkeypatch):
    # A vertex with half-edges is scored against the blocks of its w alone,
    # a vertex without (polbooks plus isolated vertex 105) against every block.
    polbooks = load_polbooks()
    net = network_from_edges(106, polbooks.edges)
    scored = []

    def recording_kernel(state):
        visit, move = dcsbm.move_kernel(state)

        def recorded(i, r, targets, out):
            out[:] = [None] * len(out)
            w, loops, best = visit(i, r, targets, out)
            scored.append((i, {s for s, delta in enumerate(out) if delta is not None}, set(w)))
            return w, loops, best

        return recorded, move

    monkeypatch.setattr(block_chain, "move_kernel", recording_kernel)
    mdl_partition(net, 3, random.Random(4), restarts=2)
    degree = net.half_edges.degree
    assert any(i == 105 for i, _, _ in scored)
    assert any(len(blocks) < 3 for _, _, blocks in scored)
    for i, asked, blocks in scored:
        assert asked == (blocks if degree[i] else {0, 1, 2})


@given(st.integers(2, 4).flatmap(lambda num_blocks: st.tuples(
    st.just(num_blocks),
    # Vertex 9 never gets an edge; (u, u) entries are loops, repeated pairs
    # are parallel edges, and multiplicities reach 3.
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 3)), max_size=25),
    st.integers(0, 2**32 - 1))))
@settings(max_examples=60, deadline=None)
def test_mdl_partition_ends_at_a_local_minimum_of_its_move_set(case):
    # No vertex that may leave its block lowers S by a move to a block of its
    # move set: its neighbours' blocks, or every block when it has no edges.
    num_blocks, edges, seed = case
    net = network_from_edges(10, edges)
    state = mdl_partition(net, num_blocks, random.Random(seed), restarts=2)
    for i in range(10):
        if state.n[state.b[i]] > 1:
            w, _ = _block_weights(state, i)
            for s in (w if net.half_edges.degree[i] else range(num_blocks)):
                assert delta_description_length(state, i, s) >= 0


def test_descent_ends_when_a_tie_rounds_below_zero_both_ways(monkeypatch):
    # A move whose delta S rounds below 0 from either side of a tie would take
    # its vertex back and forth forever.  Here vertex 0 always reads the
    # other block as best; the descent ends when a pass returns to labels it
    # has held.
    real, moves = block_chain.move_kernel, []

    def kernel(state):
        visit, move = real(state)

        def tied(i, r, targets, deltas):
            w, loops, best = visit(i, r, targets, deltas)
            if i == 0:
                moves.append(r)
                assert len(moves) < 100, "the descent does not end"
                best = 1 - r
            return w, loops, best

        return tied, move

    monkeypatch.setattr(block_chain, "move_kernel", kernel)
    net = network_from_edges(6, list(two_cliques(3).edges) + [(0, 3)])
    _descend(BlockState(net, [0, 0, 0, 1, 1, 1], 2), random.Random(0))
    assert moves[:2] == [0, 1]


# Greedy partitions recorded when the multilevel agglomerative run replaced
# the random-label restarts.  Both polbooks seeds reach the same labels.
_POLBOOKS_GREEDY = {
    1: "000100001111111111111111111120221111111111111111101001111102222200200022222222222222202222222222222222200",
    2: "000100001111111111111111111120221111111111111111101001111102222200200022222222222222202222222222222222200",
}
_PLANTED_GREEDY = (
    "01312031230122020012300310100303230322121120330301303301213000102131021200313112"
    "23031100101013010312231333123120310301231022011300113133301321122323113033200330"
    "32221200312310033110123033001321121320113301021131331002021222023303311120102330"
    "02203003300113223111031331203000313001133210132312002030013103133331303103221232"
    "30303223021010013210121013033211023211003220223113303131131310013011121203110132"
    "33100200121233030322312123301103132031203211001331330303031313301100333211311000"
    "10300321210131133303"
)


def _planted_network():
    spec = GeneratorSpec(num_vertices=500, weights=3.0 * np.eye(4),
                         affinity=np.full((4, 4), 0.008) + 0.032 * np.eye(4),
                         feature_probs=np.full(4, 0.5), seed=11)
    return generate(spec)[0]


@pytest.mark.parametrize("seed", sorted(_POLBOOKS_GREEDY))
def test_mdl_partition_pinned_polbooks(seed):
    state = mdl_partition(load_polbooks(), 3, random.Random(seed))
    assert "".join(map(str, state.b)) == _POLBOOKS_GREEDY[seed]


def test_mdl_partition_pinned_planted():
    state = mdl_partition(_planted_network(), 4, random.Random(3), restarts=2)
    assert "".join(map(str, state.b)) == _PLANTED_GREEDY


# ------------------------------------------------------------------ full runs

def test_run_block_chain_pinned_polbooks():
    # SHA-256 of the S trace's float64 bytes and of the retained partitions,
    # recorded when the multilevel agglomerative run became the initialiser;
    # the initial S is that initialiser's.
    res = run_block_chain(load_polbooks(), 3, BlockChainConfig(iterations=300, seed=11,
                                                               init_restarts=2))
    assert res.s_trace[0] == 1355.647820286306
    assert res.s_trace[-1] == 1346.1503893225035
    assert hashlib.sha256(res.s_trace.tobytes()).hexdigest() == (
        "d290240e4933c83a74bb368704dc2379a6c32ea7d99ea78cb862cff41e4a0a96")
    assert hashlib.sha256(np.stack(res.samples).astype(np.int64).tobytes()).hexdigest() == (
        "e966b21f00a6770d44e2d20fcb90d72da90dc6d81afb161942499d7466fcdd5b")


def test_run_block_chain_shapes(bowtie):
    cfg = BlockChainConfig(iterations=40, burn_in=0.2, thinning=4, seed=1)
    res = run_block_chain(bowtie, 2, cfg)
    assert res.retained == retained_indices(40, 0.2, 4)
    assert len(res.samples) == len(res.retained)
    assert res.s_trace.shape == (41,)
    assert np.isfinite(res.s_trace).all()
    assert all(len(s) == 5 for s in res.samples)


def test_run_block_chain_deterministic(bowtie):
    cfg = BlockChainConfig(iterations=30, burn_in=0.0, thinning=1, seed=21)
    a = run_block_chain(bowtie, 2, cfg)
    b = run_block_chain(bowtie, 2, cfg)
    assert np.array_equal(np.stack(a.samples), np.stack(b.samples))
    assert np.array_equal(a.s_trace, b.s_trace)


def _kernel_scoring(score):
    """A move_kernel whose visit reports score(delta) for every asked target,
    the vertex's own block included, and picks the best target from those
    values as the kernel does; moves are applied by the real kernel."""
    def kernel(state):
        visit, move = dcsbm.move_kernel(state)

        def scored(i, r, targets, out):
            w, loops, _ = visit(i, r, targets, out)
            best, low = r, 0.0
            for s in targets:
                out[s] = score(out[s])
                if out[s] < low:
                    best, low = s, out[s]
            return w, loops, best

        return scored, move

    return kernel


def _start_mixed(monkeypatch):
    """Start the chain from labels alternating over two blocks, so a guard
    test's premise does not depend on where the greedy initialiser ends."""
    monkeypatch.setattr(block_chain, "mdl_partition",
                        lambda net, num_blocks, rng, restarts: BlockState(
                            net, [i % 2 for i in range(net.num_vertices)], num_blocks))


def test_run_block_chain_rejects_drifting_deltas(monkeypatch):
    # Deltas 1e-3 off the truth pass every per-sweep check but leave the
    # accumulated S away from a fresh evaluation at the chain's end.
    _start_mixed(monkeypatch)
    monkeypatch.setattr(block_chain, "move_kernel", _kernel_scoring(lambda delta: delta + 1e-3))
    cfg = BlockChainConfig(iterations=20, burn_in=0.0, thinning=1, seed=2)
    with pytest.raises(ArithmeticError, match="fresh evaluation"):
        run_block_chain(two_cliques(5), 2, cfg)


def test_run_block_chain_names_the_non_finite_sweep(monkeypatch):
    # A delta of -inf is accepted and turns the running S into -inf.
    _start_mixed(monkeypatch)
    monkeypatch.setattr(block_chain, "move_kernel", _kernel_scoring(lambda delta: -math.inf))
    cfg = BlockChainConfig(iterations=20, burn_in=0.0, thinning=1, seed=2)
    with pytest.raises(ArithmeticError, match="sweep 1$"):
        run_block_chain(two_cliques(5), 2, cfg)


def test_burn_in_decreases_s_from_random_start():
    # From a random labelling of a strongly clustered graph the trace heads
    # downhill in expectation: the late-trace mean sits below the start.
    net = two_cliques(6)
    rng = random.Random(13)
    labels = [rng.randrange(2) for _ in range(11)] + [1]
    state = BlockState(net, labels, 2)
    s0 = description_length(net, state)
    trace = []
    s_now = s0
    sweep = _sweeper(state, np.random.default_rng(13), 1.0)
    for _ in range(300):
        s_now, *_ = sweep(net.num_vertices, s_now)
        trace.append(s_now)
    assert np.mean(trace[-50:]) < s0


# ------------------------------------------------------- the assignment solver

def _square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


def _score_form(overlap):
    """align_labels' cost: -(overlap * (B + 1) + [label kept])."""
    n = len(overlap)
    return [[-(o * (n + 1) + (r == c)) for c, o in enumerate(row)] for r, row in enumerate(overlap)]


def _scipy_columns(cost):
    rows, cols = linear_sum_assignment(np.array(cost, dtype=np.int64))
    assert rows.tolist() == list(range(len(cost)))
    return cols.tolist()


# Narrow entry ranges make ties the rule rather than the exception.
@given(st.integers(1, 8).flatmap(lambda n: st.one_of(
    _square(n, st.integers(-1, 1)),
    _square(n, st.integers(-6, 6)),
    _square(n, st.integers(0, 3)).map(_score_form))))
@example([[7]])
@example([[2] * 5 for _ in range(5)])
@example(_score_form([[0, 2], [2, 0]]))
@example(_score_form([[1, 1, 0], [1, 1, 0], [0, 0, 2]]))
@settings(max_examples=400, deadline=None)
def test_min_cost_assignment_matches_scipy(cost):
    assert _min_cost_assignment(cost) == _scipy_columns(cost)


def test_min_cost_assignment_examples():
    assert _min_cost_assignment([[7]]) == [0]
    # A constant matrix gives the identity.
    assert _min_cost_assignment([[2] * 5 for _ in range(5)]) == [0, 1, 2, 3, 4]
    # Labels 0, 0, 1, 1 against the reference 1, 1, 0, 0: the labels swap.
    assert _min_cost_assignment(_score_form([[0, 2], [2, 0]])) == [1, 0]
    # Equal overlaps: labels stay.
    assert _min_cost_assignment(_score_form([[1, 1], [1, 1]])) == [0, 1]


# ----------------------------------------------------------- label alignment

def test_align_labels_swap():
    sample = np.array([0, 0, 1, 1])
    reference = np.array([1, 1, 0, 0])
    assert align_labels(sample, reference, 2).tolist() == [1, 1, 0, 0]


def test_align_labels_identity_and_single_block():
    sample = np.array([0, 1, 0])
    assert align_labels(sample, sample, 2).tolist() == sample.tolist()
    ones = np.zeros(4, dtype=int)
    assert align_labels(ones, ones, 1).tolist() == [0, 0, 0, 0]


def test_align_labels_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(20):
        sample = rng.integers(0, 3, 12)
        reference = rng.integers(0, 3, 12)
        once = align_labels(sample, reference, 3)
        twice = align_labels(once, reference, 3)
        assert once.tolist() == twice.tolist()


# ------------------------------------------------------------ responsibilities

def test_responsibilities_identical_samples():
    samples = [np.array([0, 1, 1])] * 4
    ref = np.array([0, 1, 1])
    y = estimate_responsibilities(samples, ref, 2)
    assert np.array_equal(y, np.array([[1, 0], [0, 1], [0, 1]], dtype=float))


def test_responsibilities_disagreement():
    samples = [np.array([0, 0, 1]), np.array([1, 0, 1])]
    ref = np.array([0, 0, 1])
    y = estimate_responsibilities(samples, ref, 2)
    assert y[0].tolist() == [0.5, 0.5]
    assert y[1].tolist() == [1.0, 0.0]


def test_responsibilities_rows_stochastic(bowtie):
    cfg = BlockChainConfig(iterations=50, burn_in=0.2, thinning=2, seed=3)
    res = run_block_chain(bowtie, 2, cfg)
    y = estimate_responsibilities(res.samples, res.reference, 2)
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-9)
    assert (y >= 0).all()


def _scipy_alignment(sample, reference, num_blocks):
    """The alignment as SciPy solves it, one sample at a time."""
    overlap = np.zeros((num_blocks, num_blocks), dtype=np.int64)
    np.add.at(overlap, (sample, reference), 1)
    score = overlap * (num_blocks + 1) + np.eye(num_blocks, dtype=np.int64)
    rows, cols = linear_sum_assignment(-score)
    perm = np.empty(num_blocks, dtype=np.int64)
    perm[rows] = cols
    return perm[sample]


@given(st.integers(1, 6).flatmap(lambda num_blocks: st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(num_blocks),
    st.lists(st.integers(0, num_blocks - 1), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(0, num_blocks - 1), min_size=n, max_size=n),
             min_size=1, max_size=8)))))
@settings(max_examples=200, deadline=None)
def test_responsibilities_match_a_scipy_oracle(case):
    num_blocks, reference, samples = case
    reference = np.array(reference)
    samples = [np.array(sample) for sample in samples]
    counts = np.zeros((len(reference), num_blocks), dtype=np.int64)
    for sample in samples:
        aligned = _scipy_alignment(sample, reference, num_blocks)
        assert align_labels(sample, reference, num_blocks).tolist() == aligned.tolist()
        counts[np.arange(len(reference)), aligned] += 1
    expected = counts / len(samples)
    y = estimate_responsibilities(samples, reference, num_blocks)
    assert y.dtype == expected.dtype and y.shape == expected.shape
    assert y.tobytes() == expected.tobytes()


def test_responsibilities_empty_error():
    with pytest.raises(ValueError):
        estimate_responsibilities([], np.array([0, 1]), 2)


# --------------------------------------------- small exact-posterior cross-check

def enumerate_posterior(net, num_blocks):
    """pi(b) over labellings with no empty block, each folded onto its
    label-permutation orbit representative."""
    log_pi = {}
    for labels in itertools.product(range(num_blocks), repeat=net.num_vertices):
        if len(set(labels)) < num_blocks:
            continue
        state = BlockState(net, list(labels), num_blocks)
        log_pi[labels] = -description_length(net, state)
    peak = max(log_pi.values())
    z = sum(math.exp(v - peak) for v in log_pi.values())
    folded = Counter()
    for labels, v in log_pi.items():
        folded[fold_orbit(labels, num_blocks)] += math.exp(v - peak) / z
    return folded


def fold_orbit(labels, num_blocks):
    return min(tuple(perm[x] for x in labels)
               for perm in itertools.permutations(range(num_blocks)))


def test_chain_matches_enumerated_posterior(bowtie):
    truth = enumerate_posterior(bowtie, 2)
    cfg = BlockChainConfig(iterations=30000, burn_in=0.1, thinning=1, seed=17)
    res = run_block_chain(bowtie, 2, cfg)
    emp = Counter()
    for sample in res.samples:
        emp[fold_orbit(tuple(int(x) for x in sample), 2)] += 1
    total = sum(emp.values())
    tv = 0.5 * sum(abs(emp.get(k, 0) / total - truth.get(k, 0.0))
                   for k in set(emp) | set(truth))
    assert tv < 0.05, tv


def test_responsibilities_match_enumerated_marginals(bowtie):
    # Oracle: fold every enumerated labelling onto the chain's alignment
    # reference, then accumulate exact aligned marginals.
    cfg = BlockChainConfig(iterations=40000, burn_in=0.1, thinning=1, seed=23)
    res = run_block_chain(bowtie, 2, cfg)
    y = estimate_responsibilities(res.samples, res.reference, 2)

    log_pi = {}
    for labels in itertools.product(range(2), repeat=5):
        if len(set(labels)) < 2:
            continue
        state = BlockState(bowtie, list(labels), 2)
        log_pi[labels] = -description_length(bowtie, state)
    peak = max(log_pi.values())
    z = sum(math.exp(v - peak) for v in log_pi.values())
    exact = np.zeros((5, 2))
    for labels, v in log_pi.items():
        aligned = align_labels(np.array(labels), res.reference, 2)
        weight = math.exp(v - peak) / z
        for i, lab in enumerate(aligned):
            exact[i, lab] += weight
    assert np.abs(y - exact).max() < 0.025, np.abs(y - exact).max()
