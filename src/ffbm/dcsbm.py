"""Microcanonical degree-corrected SBM: likelihood, priors, description length.

The joint density of a multigraph A under a fixed partition b factorises as
p(A | k, e, b) * p(e | b) * p(k | e, b) * p(b | X), where the likelihood is a
ratio of half-edge pairing counts and the priors follow the standard
microcanonical construction; p(b | X) = B^-N, the product of the vertices'
uniform marginals, is not the joint law of b (log_partition_given_features).
The description length S(b) is the negative log of this joint, in nats.
Everything supports O(degree) incremental updates under single-vertex
moves, which is the performance core of the partition sampler.

Those updates have one implementation, ``move_kernel(state)``: it binds the
state's statistics and the shared tables once and returns a visit, which
reads a vertex's neighbour blocks and scores its moves, and a move, which
applies one.  The bound references stay valid because every move mutates
b, the rows of e, e_row, n, eta and the neighbour-block cache in place and
never rebinds them.  The greedy initialiser, the partition chain,
``delta_description_length`` and ``apply_move`` all go through it.  The
initialiser's block merges have one implementation too, ``merge_kernel``,
on the dict rows of ``block_counts``, the pass that builds a BlockState.

Conventions: the edge-count matrix e is symmetric with e[r][r] twice the
number of intra-block edges, so the half-edge count of block r is
e_r = sum_s e[r][s] and the (2m)!! terms apply verbatim.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import LabelledNetwork, check_labels
from .softmax import log_partition_given_features
from .tables import (
    LOG2,
    _LOG_FACT,
    _LOG_INT,
    _ROWS,
    log_count_partitions,
    log_double_factorial_even,
    log_factorial,
    log_integer,
    log_multiset,
)

INFINITE_DELTA = math.inf


class BlockState:
    """Partition of a network with the sufficient statistics kept in sync.

    Attributes:
        b: list of block labels in [0, B).
        B: fixed number of blocks.
        e: B x B symmetric edge-count matrix (diagonal doubled).
        e_row: half-edge count per block, e_row[r] = sum_s e[r][s].
        n: vertices per block.
        eta: per block, a dict degree -> number of vertices with that degree.
        block_weights: per vertex, the dict block -> half-edge weight that
            the move kernel's visit last built for it, or None when stale.

    Every move goes through a move kernel's move, which mutates b, the rows
    of e, e_row, n and the dicts of eta in place and never rebinds them, so
    a reference taken once (as move_kernel and the partition chain's
    proposal generator take them) stays valid across moves.  The same move
    marks stale the cached block weights of every vertex on the far end of
    one of the moved vertex's half-edges, itself included when it has a
    loop, so a cached entry always equals a fresh count.  The cache lives
    here rather than in a kernel because several kernels may be bound to
    one state, and a move through any of them must reach all of them.
    """

    __slots__ = ("net", "b", "B", "e", "e_row", "n", "eta", "block_weights")

    def __init__(self, net: LabelledNetwork, b, B: int):
        labels = check_labels(b, B, "block")
        if labels.shape != (net.num_vertices,):
            raise ValueError("partition length must equal the number of vertices")
        self.net, self.b, self.B = net, labels.tolist(), B
        rows, self.e_row, self.n, self.eta = block_counts(net, self.b, B)
        self.e = [[0] * B for _ in range(B)]
        for e_r, row in zip(self.e, rows):
            for s, x in row.items():
                e_r[s] = x
        self.block_weights = [None] * net.num_vertices

    def partition(self) -> np.ndarray:
        return np.array(self.b, dtype=np.int64)


def log_stub_pairings(state: BlockState) -> float:
    """Log count of half-edge pairings compatible with the block edge counts.

    This is prod_r e_r! / (prod_{r<s} e_rs! prod_r e_rr!!) in log form.
    """
    e, e_row, B = state.e, state.e_row, state.B
    total = 0.0
    for r in range(B):
        total += log_factorial(e_row[r])
        total -= log_double_factorial_even(e[r][r])
        for s in range(r + 1, B):
            total -= log_factorial(e[r][s])
    return total


def log_graph_multiplicity(net: LabelledNetwork) -> float:
    """Log count of half-edge pairings that produce exactly this multigraph.

    It depends on the network alone, so ``LabelledNetwork.log_multiplicity``
    computes it once per network.
    """
    return net.log_multiplicity


def log_likelihood(net: LabelledNetwork, state: BlockState) -> float:
    """log p(A | k, e, b); the state's statistics guarantee the constraints hold."""
    return log_graph_multiplicity(net) - log_stub_pairings(state)


def log_prior_edge_matrix(num_blocks: int, num_edges: int) -> float:
    """log p(e | b): uniform over histograms of E edges in B(B+1)/2 block-pair bins."""
    bins = num_blocks * (num_blocks + 1) // 2
    return -log_multiset(bins, num_edges)


def log_prior_degrees(state: BlockState) -> float:
    """log p(k | e, b) = sum_r log[ prod_j eta_j^r! / (n_r! q(e_r, n_r)) ]."""
    total = 0.0
    for r in range(state.B):
        for cnt in state.eta[r].values():
            total += log_factorial(cnt)
        total -= log_factorial(state.n[r])
        total -= log_count_partitions(state.e_row[r], state.n[r])
    return total


def description_length(net: LabelledNetwork, state: BlockState) -> float:
    """S(b): negative log joint of (A, e, k, b) given X, in nats."""
    value = -log_likelihood(net, state)
    value -= log_prior_edge_matrix(state.B, net.num_edges)
    value -= log_prior_degrees(state)
    value -= log_partition_given_features(net.num_vertices, state.B)
    return value


def move_kernel(state: BlockState):
    """Bind the state's statistics once; return (visit, move), its single-vertex move kernel.

    visit(i, r, targets, out) reads vertex i, which sits in block r: its
    half-edge weight towards each block, w, with blocks in the order their
    first half-edge appears in half_edges.ends[i] (every float sum over w
    follows that order), and its loop weight A_ii, half_edges.loops[i].  w
    is the state's cached dict for i when one is there; otherwise visit
    counts it in one pass over ends[i] and caches it.  Callers must not
    mutate the w it returns.  It then sets out[s] = S(b with b_i <- s) -
    S(b) for every s in targets (out[r] = 0.0) and returns (w, loops,
    best): best is the first target, in the order given, of least delta
    below 0, or r if none lowers S.  targets=None asks for i's neighbour
    blocks, the blocks of w in w's order, or for every block when i has no
    half-edges; the greedy initialiser's move set.  A vertex that is being
    scored must not be alone in r (n_r > 1); an empty targets only reads w
    and loops.

    Each target's delta is one left-to-right sum in a fixed order: the row
    factorials of r and s, the (r,r), (s,s) and (r,s) pair terms, the
    (r,t) and (s,t) pairs of each other block t in w's order, then the
    degree prior (n_r!, n_s!, q(e_r, n_r), q(e_s, n_s) and the degree
    histograms).  The source block's own terms are computed once per visit;
    the pair terms of a block t are computed for each target that needs
    them.  So a value is the same float whichever other targets are asked
    for.

    move(i, r, s, w, loops) moves vertex i from block r to block s != r,
    with w and loops as visit read them before the move: i's m_r non-loop
    half-edges into r leave e_rr (two ends each) for e_rs, its m_s
    half-edges into s move from e_rs to e_ss, its loops move from e_rr to
    e_ss, and each other block t's w_t half-edges move from e_rt to e_st.
    It then marks stale the cached w of every vertex in ends[i], i itself
    included when it has a loop.  It invalidates rather than updates them:
    an in-place update would reorder a dict, and with it every float sum
    over w.

    Both read b, the rows of e, e_row, n, eta's dicts and the cache of
    block weights through references taken here.  That is valid because
    move updates them in place and never rebinds them (see BlockState), and
    every move of the state must go through a kernel bound to it.  The
    log-factorial and log tables are read unchecked: block_counts sizes
    them.  Partition-count reads index the table's rows in place, as
    log_count_partitions does, and fall back to it (which grows the table)
    on a miss.
    """
    b, e, e_row, n, eta = state.b, state.e, state.e_row, state.n, state.eta
    cache = state.block_weights
    half_edges = state.net.half_edges
    ends, degree, loop_weight = half_edges.ends, half_edges.degree, half_edges.loops
    lf, logs, rows = _LOG_FACT, _LOG_INT, _ROWS
    lcp = log_count_partitions
    every_block = range(state.B)

    def visit(i, r, targets, out):
        w = cache[i]
        if w is None:
            w = {}
            for j in ends[i]:
                t = b[j]
                w[t] = w.get(t, 0) + 1
            cache[i] = w
        loops = loop_weight[i]
        best = r
        if targets is None:
            targets = w or every_block
        if not targets:
            return w, loops, best

        # Pairing count: log e_r! and the (r, r) term of the source block.
        ki = degree[i]
        e_r = e[r]
        row_r = e_row[r]
        n_r = n[r]
        m_r = w.get(r, 0) - loops
        source_row = lf[row_r - ki] - lf[row_r]
        d_rr = -2 * m_r - loops
        if d_rr:
            h_old = e_r[r] // 2
            h_new = (e_r[r] + d_rr) // 2
            source_diag = (h_new * LOG2 + lf[h_new]) - (h_old * LOG2 + lf[h_old])
        # Degree prior: -log p(k | e, b) contributes n_r!, q(e_r, n_r) and the
        # degree histogram factorials of the two affected blocks.
        log_n_r = logs[n_r]
        try:
            source_q = rows[n_r - 1][row_r - ki] - rows[n_r][row_r]
        except IndexError:
            source_q = lcp(row_r - ki, n_r - 1) - lcp(row_r, n_r)
        log_eta_r = logs[eta[r][ki]]

        low = 0.0
        for s in targets:
            if s == r:
                out[s] = 0.0
                continue
            e_s = e[s]
            row_s = e_row[s]
            m_s = w.get(s, 0)
            delta = source_row
            delta += lf[row_s + ki] - lf[row_s]
            if d_rr:
                delta -= source_diag
            d_ss = 2 * m_s + loops
            if d_ss:
                h_old = e_s[s] // 2
                h_new = (e_s[s] + d_ss) // 2
                delta -= (h_new * LOG2 + lf[h_new]) - (h_old * LOG2 + lf[h_old])
            d_rs = m_r - m_s
            if d_rs:
                old = e_r[s]
                delta -= lf[old + d_rs] - lf[old]
            for t, wt in w.items():
                if t == r or t == s:
                    continue
                old = e_r[t]
                delta -= lf[old - wt] - lf[old]
                old = e_s[t]
                delta -= lf[old + wt] - lf[old]
            n_s = n[s]
            delta += logs[n_s + 1] - log_n_r
            delta += source_q
            try:
                delta += rows[n_s + 1][row_s + ki] - rows[n_s][row_s]
            except IndexError:
                delta += lcp(row_s + ki, n_s + 1) - lcp(row_s, n_s)
            delta += log_eta_r - logs[eta[s].get(ki, 0) + 1]
            out[s] = delta
            if delta < low:
                best, low = s, delta
        return w, loops, best

    def move(i, r, s, w, loops):
        ki = degree[i]
        e_r, e_s = e[r], e[s]
        m_r = w.get(r, 0) - loops
        m_s = w.get(s, 0)
        e_r[r] -= 2 * m_r + loops
        e_s[s] += 2 * m_s + loops
        e_r[s] += m_r - m_s
        e_s[r] += m_r - m_s
        for t, wt in w.items():
            if t != r and t != s:
                e_r[t] -= wt
                e[t][r] -= wt
                e_s[t] += wt
                e[t][s] += wt
        e_row[r] -= ki
        e_row[s] += ki
        n[r] -= 1
        n[s] += 1
        cnt = eta[r][ki]
        if cnt == 1:
            del eta[r][ki]
        else:
            eta[r][ki] = cnt - 1
        eta[s][ki] = eta[s].get(ki, 0) + 1
        b[i] = s
        for j in ends[i]:
            cache[j] = None

    return visit, move


def block_counts(net: LabelledNetwork, labels, num_blocks: int):
    """(rows, e_row, n, eta) of labels in [0, num_blocks), counted in one O(N + E) pass.

    rows[r] maps each block s sharing a half-edge with r to e_rs (rows[r][r]
    = e_rr, doubled), keyed in the order of each key's first edge in
    net.edges; eta[r] maps each degree to the count of r's vertices with it.
    The pass also sizes the tables the kernels read unchecked, to 2E and N.
    """
    rows = [{} for _ in range(num_blocks)]
    for u, v, m in net.edges:
        r, s = labels[u], labels[v]
        row = rows[r]
        if r == s:
            row[r] = row.get(r, 0) + 2 * m
        else:
            row[s] = row.get(s, 0) + m
            rows[s][r] = rows[s].get(r, 0) + m
    e_row = [sum(row.values()) for row in rows]
    n = [0] * num_blocks
    eta = [{} for _ in range(num_blocks)]
    degree = net.half_edges.degree
    for i, r in enumerate(labels):
        n[r] += 1
        hist = eta[r]
        hist[degree[i]] = hist.get(degree[i], 0) + 1
    log_factorial(max(2 * net.num_edges, net.num_vertices))
    log_integer(net.num_vertices)
    return rows, e_row, n, eta


def merge_kernel(net: LabelledNetwork, labels, num_blocks: int):
    """Bind the block statistics of a partition once; return (rows, delta), its merge kernel.

    The statistics are ``block_counts``', with no B x B list, beside log
    q(e_r, n_r) per block.  There must be at least two blocks, none empty.

    delta(r, s, cutoff) is S(b with blocks r and s merged, B - 1 blocks) -
    S(b) for r != s, exactly: the pairing terms of r, s and their shared
    neighbour blocks, the degree prior of the two blocks, and the terms
    that depend on B alone (the edge-matrix prior and N log B), in that
    order.  The merged block's log q(e_r + e_s, n_r + n_s) is read only if
    the lower bound L = delta' - min(log q(e_r, n_r), log q(e_s, n_s)),
    where delta' is everything else, lies below cutoff; otherwise delta
    returns L, which is then at least cutoff.  L is a bound because q(m, n)
    does not decrease in either argument for n >= 1, so the merged count is
    at least the larger of the two; the exact value is summed as delta' +
    ((log q_merged - the larger) - the smaller), so in floats too it is
    never below L and a cutoff never changes which merge is least.
    """
    rows, e_row, n, eta = block_counts(net, labels, num_blocks)
    log_q = [log_count_partitions(e_row[r], n[r]) for r in range(num_blocks)]
    lf, lcp = _LOG_FACT, log_count_partitions
    # The edge-matrix prior's change, log C(a + E, E) - log C(a + B + E, E)
    # with a = B(B - 1)/2 - 1, as a sum of B logs: log_multiset would size
    # the log-factorial table to B^2/2 + E.
    base, num_edges = num_blocks * (num_blocks - 1) // 2 - 1, net.num_edges
    fewer_blocks = sum(math.log(base + j) - math.log(base + num_edges + j)
                       for j in range(1, num_blocks + 1))
    fewer_blocks += net.num_vertices * (log_integer(num_blocks - 1) - log_integer(num_blocks))

    def delta(r, s, cutoff=math.inf):
        e_r, e_s = rows[r], rows[s]
        row_r, row_s = e_row[r], e_row[s]
        value = lf[row_r + row_s] - lf[row_r] - lf[row_s]
        h_r, h_s, e_rs = e_r.get(r, 0) // 2, e_s.get(s, 0) // 2, e_r.get(s, 0)
        h_m = h_r + h_s + e_rs
        value -= (h_m * LOG2 + lf[h_m]) - (h_r * LOG2 + lf[h_r]) - (h_s * LOG2 + lf[h_s])
        value += lf[e_rs]
        small, large = (e_r, e_s) if len(e_r) <= len(e_s) else (e_s, e_r)
        for t, x in small.items():
            if t != r and t != s:
                y = large.get(t)
                if y:
                    value -= lf[x + y] - lf[x] - lf[y]
        n_r, n_s = n[r], n[s]
        value += lf[n_r + n_s] - lf[n_r] - lf[n_s]
        small, large = (eta[r], eta[s]) if len(eta[r]) <= len(eta[s]) else (eta[s], eta[r])
        for k, x in small.items():
            y = large.get(k)
            if y:
                value -= lf[x + y] - lf[x] - lf[y]
        value += fewer_blocks
        low, high = sorted((log_q[r], log_q[s]))
        bound = value - low
        if bound >= cutoff:
            return bound
        return value + ((lcp(row_r + row_s, n_r + n_s) - high) - low)

    return rows, delta


def _check_move(state: BlockState, i: int, target: int) -> None:
    if not 0 <= i < len(state.b):
        raise ValueError(f"vertex {i} outside [0, {len(state.b)})")
    if not 0 <= target < state.B:
        raise ValueError(f"target block {target} outside [0, {state.B})")


def delta_description_length(state: BlockState, i: int, target: int) -> float:
    """Incremental S(b with b_i <- target) - S(b).

    Touches only statistics incident to the source and target blocks; a move
    that would empty its source block is infinitely penalised (the sampler
    keeps B fixed).  A vertex outside [0, N) or a target outside [0, B)
    raises ValueError.
    """
    _check_move(state, i, target)
    r = state.b[i]
    if target == r:
        return 0.0
    if state.n[r] == 1:
        return INFINITE_DELTA
    visit, _ = move_kernel(state)
    out = [0.0] * state.B
    visit(i, r, (target,), out)
    return out[target]


def apply_move(state: BlockState, i: int, target: int) -> None:
    """Move vertex i to the target block, updating all statistics in place.

    A vertex outside [0, N) or a target outside [0, B) raises ValueError
    before anything is changed.
    """
    _check_move(state, i, target)
    r = state.b[i]
    if target == r:
        return
    visit, move = move_kernel(state)
    w, loops, _ = visit(i, r, (), None)
    move(i, r, target, w, loops)
