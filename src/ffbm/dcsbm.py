"""Microcanonical degree-corrected SBM: likelihood, priors, description length.

The joint density of a multigraph A under a fixed partition b factorises as
p(A | k, e, b) * p(e | b) * p(k | e, b) * p(b | X), where the likelihood is a
ratio of half-edge pairing counts and the priors follow the standard
microcanonical construction.  The description length S(b) is the negative
log of this joint, in nats.  Everything supports O(degree) incremental
updates under single-vertex moves, which is the performance core of the
partition sampler.

Conventions: the edge-count matrix e is symmetric with e[r][r] twice the
number of intra-block edges, so the half-edge count of block r is
e_r = sum_s e[r][s] and the (2m)!! terms apply verbatim.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import LabelledNetwork
from .softmax import log_partition_given_features
from .tables import (
    LOG2,
    _LOG_FACT,
    _ROWS,
    log_count_partitions,
    log_double_factorial_even,
    log_factorial,
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

    Moves mutate b, the rows of e, e_row, n and the dicts of eta in place and
    never rebind them, so a reference taken once (as the partition chain's
    proposal generator takes b, e and e_row) stays valid across moves.
    """

    __slots__ = ("net", "b", "B", "e", "e_row", "n", "eta")

    def __init__(self, net: LabelledNetwork, b, B: int):
        labels = [int(x) for x in b]
        if len(labels) != net.num_vertices:
            raise ValueError("partition length must equal the number of vertices")
        if any(x < 0 or x >= B for x in labels):
            bad = next(x for x in labels if x < 0 or x >= B)
            raise ValueError(f"block label {bad} outside [0, {B})")
        # The move-delta kernel reads the log-factorial table unchecked, and
        # no count it reads exceeds the 2E half-edges.
        log_factorial(2 * net.num_edges)
        self.net = net
        self.b = labels
        self.B = B
        e = [[0] * B for _ in range(B)]
        n = [0] * B
        eta = [{} for _ in range(B)]
        deg = net.degrees
        for i, r in enumerate(labels):
            n[r] += 1
            k = int(deg[i])
            eta[r][k] = eta[r].get(k, 0) + 1
        for u, v, m in net.edges:
            r, s = labels[u], labels[v]
            if r == s:  # includes every loop
                e[r][r] += 2 * m
            else:
                e[r][s] += m
                e[s][r] += m
        self.e = e
        self.e_row = [sum(row) for row in e]
        self.n = n
        self.eta = eta

    def copy(self) -> "BlockState":
        dup = object.__new__(BlockState)
        dup.net = self.net
        dup.b = list(self.b)
        dup.B = self.B
        dup.e = [row[:] for row in self.e]
        dup.e_row = list(self.e_row)
        dup.n = list(self.n)
        dup.eta = [dict(d) for d in self.eta]
        return dup

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

    prod_i k_i! / (prod_{i<j} A_ij! prod_i A_ii!!) in log form; for a simple
    graph the denominator is 1.
    """
    total = 0.0
    for k in net.degrees:
        total += log_factorial(int(k))
    for u, v, m in net.edges:
        if u == v:
            total -= log_double_factorial_even(2 * m)
        else:
            total -= log_factorial(m)
    return total


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


def _neighbor_block_weights(state: BlockState, i: int):
    """Half-edge weight of vertex i towards each block, and the loop weight A_ii.

    Blocks enter w in the order their first half-edge appears in
    half_edges.ends[i]; every float sum over w follows that order.
    """
    w = {}
    b = state.b
    ends = state.net.half_edges.ends[i]
    for j in ends:
        t = b[j]
        w[t] = w.get(t, 0) + 1
    return w, ends.count(i)


def _move_deltas(state: BlockState, i: int, r: int, w, loops, targets, out) -> None:
    """Set out[s] = S(b with b_i <- s) - S(b) for every s in targets; out[r] = 0.

    Vertex i sits in block r, which it must not empty (n_r > 1); w and loops
    come from _neighbor_block_weights.  The source block's terms are computed
    once.  Each target then adds its own terms and the shared ones in one
    fixed order (row factorials, the (r,r), (s,s) and (r,s) pair terms, the
    (r,t) and (s,t) pairs in w's order, then the degree prior), so a value
    is the same float whichever other targets are asked for.  Log-factorial
    reads are unchecked: BlockState sizes that table to 2E.  Partition-count
    reads index the table's rows in place, as log_count_partitions does, and
    fall back to it (which grows the table) on a miss.
    """
    lf = _LOG_FACT
    rows = _ROWS
    lcp = log_count_partitions
    log = math.log
    e, e_row, n, eta = state.e, state.e_row, state.n, state.eta
    ki = state.net.half_edges.degree[i]
    e_r = e[r]
    row_r = e_row[r]
    n_r = n[r]
    m_r = w.get(r, 0) - loops

    # Pairing count: log e_r! and the pair terms of r with every block but the target.
    source_row = lf[row_r - ki] - lf[row_r]
    d_rr = -2 * m_r - loops
    if d_rr:
        h_old = e_r[r] // 2
        h_new = (e_r[r] + d_rr) // 2
        source_diag = (h_new * LOG2 + lf[h_new]) - (h_old * LOG2 + lf[h_old])
    source_pairs = [(t, wt, lf[e_r[t] - wt] - lf[e_r[t]]) for t, wt in w.items() if t != r]
    # Degree prior: -log p(k | e, b) contributes n_r!, q(e_r, n_r) and the
    # degree histogram factorials of the two affected blocks.
    log_n_r = log(n_r)
    try:
        source_q = rows[n_r - 1][row_r - ki] - rows[n_r][row_r]
    except IndexError:
        source_q = lcp(row_r - ki, n_r - 1) - lcp(row_r, n_r)
    log_eta_r = log(eta[r][ki])

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
        for t, wt, source_term in source_pairs:
            if t == s:
                continue
            delta -= source_term
            old = e_s[t]
            delta -= lf[old + wt] - lf[old]
        n_s = n[s]
        delta += log(n_s + 1) - log_n_r
        delta += source_q
        try:
            delta += rows[n_s + 1][row_s + ki] - rows[n_s][row_s]
        except IndexError:
            delta += lcp(row_s + ki, n_s + 1) - lcp(row_s, n_s)
        delta += log_eta_r - log(eta[s].get(ki, 0) + 1)
        out[s] = delta


def delta_description_length(state: BlockState, i: int, target: int) -> float:
    """Incremental S(b with b_i <- target) - S(b).

    Touches only statistics incident to the source and target blocks; a move
    that would empty its source block is infinitely penalised (the sampler
    keeps B fixed).
    """
    r = state.b[i]
    if target == r:
        return 0.0
    if not 0 <= target < state.B:
        raise ValueError(f"target block {target} outside [0, {state.B})")
    if state.n[r] == 1:
        return INFINITE_DELTA
    w, loops = _neighbor_block_weights(state, i)
    out = [0.0] * state.B
    _move_deltas(state, i, r, w, loops, (target,), out)
    return out[target]


def apply_move(state: BlockState, i: int, target: int) -> None:
    """Move vertex i to the target block, updating all statistics in place."""
    r = state.b[i]
    if target == r:
        return
    w, loops = _neighbor_block_weights(state, i)
    _apply_move(state, i, r, target, w, loops)


def _apply_move(state: BlockState, i: int, r: int, s: int, w, loops) -> None:
    """Move vertex i from block r to block s != r; w and loops as read before the move.

    i's m_r non-loop half-edges into r leave e_rr (two ends each) for e_rs,
    its m_s half-edges into s move from e_rs to e_ss, its loops move from e_rr
    to e_ss, and each other block t's w_t half-edges move from e_rt to e_st.
    Every update is in place: b, the rows of e, e_row, n and eta's dicts are
    never rebound, which the chain's hoisted references rely on.
    """
    e, e_row, n, eta = state.e, state.e_row, state.n, state.eta
    ki = state.net.half_edges.degree[i]
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
    state.b[i] = s
