"""Metropolis-Hastings sampler over partitions, targeting exp(-S(b)).

One iteration is a sweep of N single-vertex moves.  The proposal picks a
vertex uniformly, then a random neighbour j, and proposes a target block s
with probability (e_{t s} + eps) / (e_t + eps B) where t is j's block; the
Hastings correction for this proposal is computed exactly.  Moves that
would empty a block are rejected so the block count stays fixed.

Each chain binds its state once.  ``_sweeper`` binds a stream of proposal
uniforms, drawn by ``_proposal_draws`` in numpy chunks of ``_CHUNK``
proposals from the chain's own ``np.random.Generator``, the state's move
kernel, ``dcsbm.move_kernel``, which scores and applies moves, and the
proposal law, ``_proposal_probs``; each sweep is then one loop over N
proposals that picks each target by bisection of a per-block table of
running sums, rejects emptying moves, scores the rest and applies the
accepted ones.  A move whose delta S alone rules out acceptance, under a
bound on the Hastings ratio, is rejected before its proposal probabilities
are computed.  It is the only code that draws, scores and decides a
partition-chain proposal.  Every proposal reads four doubles of the
generator, used or not, so the chain's output does not depend on the
chunk length.  The greedy initialiser, a multilevel agglomerative run, draws
from ``random.Random``, scores block merges through ``dcsbm.merge_kernel``
and a vertex against its neighbours' blocks through its own bound move
kernel.  The bound references stay valid because moves update the state's b,
e rows, e_row, n and eta in place and never rebind them.  Alignment reads
labels by BlockState's rule, ``graph.check_labels``.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, islice

import numpy as np

from .dcsbm import BlockState, description_length, merge_kernel, move_kernel
from .graph import LabelledNetwork, check_labels
from .sampling import check_retention, retained_indices


@dataclass
class BlockChainConfig:
    """Hyperparameters of the partition sampler."""

    iterations: int = 1000
    burn_in: float = 0.2
    thinning: int = 5
    smoothing: float = 1.0
    init_restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not (0 < self.smoothing < math.inf):
            raise ValueError(f"proposal smoothing must be positive and finite, got {self.smoothing}")
        if self.init_restarts < 1:
            raise ValueError("need at least one greedy restart")
        # Raises if the retained set would be empty or parameters are bad.
        check_retention(self.iterations, self.burn_in, self.thinning)


@dataclass(eq=False)
class BlockChainResult:
    samples: list  # retained partitions, np.ndarray each
    retained: list  # their iteration indices
    s_trace: np.ndarray  # S(b) after each iteration, incl. the initial state
    reference: np.ndarray  # greedy MDL initial partition (alignment reference)
    # Outcomes of the sweeps' proposals; the rest were rejected by the
    # acceptance test.
    null_proposals: int  # target equal to the vertex's own block
    emptying_rejections: int  # moves that would have emptied their block
    accepted_moves: int  # accepted moves that changed a label


def _proposal_probs(state: BlockState, eps: float):
    """Bind the state once; return probs(i, r, s, w, loops), the forward and
    reverse proposal probabilities of the move b_i: r -> s.

    w and loops are vertex i's block weights and loop weight as the move
    kernel's visit reads them.  Both probabilities include the 1/N vertex
    factor and the 1/k_i neighbour average so the values are genuine
    transition probabilities.  The reverse move is scored on the post-move
    counts, read off the current state: e_rr - 2 m_r - A_ii, e_rs + m_r - m_s
    and e_rt - w_t, where m_r counts i's non-loop half-edges into r and m_s
    those into s.  One pass over w accumulates both sums, each in the order
    of w.  A null move (s equal to r) is its own reverse.  An isolated
    vertex (k_i = 0) draws its target uniformly, so both probabilities are
    1/(N B).  The state's e and e_row are bound once, as the move kernel
    binds them.
    """
    e, e_row, B = state.e, state.e_row, state.B
    degree = state.net.half_edges.degree
    n_vert = state.net.num_vertices
    eps_b = eps * B

    def probs(i, r, s, w, loops):
        ki = degree[i]
        if ki == 0:
            uniform = 1.0 / (n_vert * B)
            return uniform, uniform
        scale = 1.0 / (n_vert * ki)
        # e is symmetric, so row s holds the forward terms' e_ts.  After the
        # move, i's loop half-edges count towards s instead of r; s's
        # reverse term comes last if w lacks s.
        e_r, e_s = e[r], e[s]
        m_r = w.get(r, 0) - loops
        m_s = w.get(s, 0)
        forward = reverse = 0.0
        for t, wt in w.items():
            row = e_row[t]
            forward += wt * (e_s[t] + eps) / (row + eps_b)
            if t == r:
                reverse += m_r * (e_r[r] - 2 * m_r - loops + eps) / (row - ki + eps_b)
            elif t == s:
                reverse += (wt + loops) * (e_r[s] + m_r - m_s + eps) / (row + ki + eps_b)
            else:
                reverse += wt * (e_r[t] - wt + eps) / (row + eps_b)
        forward *= scale
        if s == r:
            return forward, forward
        if loops and not m_s:
            reverse += loops * (e_r[s] + m_r + eps) / (e_row[s] + ki + eps_b)
        return forward, reverse * scale

    return probs


# Proposals drawn per numpy call.  The chain's output does not depend on it:
# proposal k reads doubles 4k to 4k+3 of the sweep generator, whatever the
# chunk, and nothing else reads that generator.
_CHUNK = 4096


def _proposal_draws(half_edges, rng: np.random.Generator, count: int):
    """The random part of ``count`` proposals: an iterator of (i, j, u, v) tuples.

    Proposal k reads doubles 4k to 4k+3 of ``rng.random``'s stream: vertex
    i = floor(u0 N), the far end j = ends[i][floor(u1 k_i)] of a uniform
    half-edge of i (-1 if i is isolated), the target uniform u = u2 and the
    acceptance uniform v = u3.  Raises ``ValueError`` on an empty network.

    The tuples zip memoryviews of the arrays, so each Python number is made
    as it is read and freed after its step, not held for the whole chunk.
    """
    n_vert = half_edges.num_vertices
    if not n_vert:
        raise ValueError("cannot draw a vertex from an empty network")
    u = rng.random((count, 4)).T.copy()
    i = (u[0] * n_vert).astype(np.intp)
    j = half_edges.flat[half_edges.start[i] + (u[1] * half_edges.width[i]).astype(np.intp)]
    return zip(memoryview(i), memoryview(j), memoryview(u[2]), memoryview(u[3]))


def _hastings_bound(state: BlockState, eps: float) -> float:
    """H > log q_reverse - log q_forward for every move on the state's network and B.

    Reverse ratios (e_tr + eps) / (e_t + eps B) are at most 1 and forward
    ones at least eps / (2E + eps B), so H = log((2E + eps B) / eps) plus a
    1e-6 margin for rounding (an isolated vertex's ratio is 1).  H is
    infinite, and no move is rejected early, if that ratio overflows or the
    least proposal probability is subnormal, where rounding is not relative.
    """
    total = 2 * state.net.num_edges + eps * state.B
    if not eps / total / max(state.net.num_vertices, 1) >= sys.float_info.min:
        return math.inf
    return math.log(total / eps) + 1e-6


def _sweeper(state: BlockState, rng: np.random.Generator, eps: float):
    """Bind a chain once; return sweep(count, s_now), which runs ``count``
    Metropolis-Hastings steps.

    The proposals' uniforms come from one stream of ``_proposal_draws``
    chunks of ``_CHUNK`` proposals on rng, shared by every call of sweep, and
    the moves are scored and applied by one ``move_kernel``.  The target of
    vertex i is floor(u B) if i is isolated; otherwise t is the block of the
    drawn neighbour j and s is the first block with u (e_t + eps B) below
    sum_{s' <= s} (e_ts' + eps), or B - 1.  ``bisect_right`` reads it off a
    table holding, per block t, the first B - 1 of those running sums
    (``accumulate`` gives a scan's floats) and e_t + eps B.  sweep rebuilds
    the table when called and, after each accepted move b_i: r -> s,
    refreshes the rows of r, s and the blocks in i's w, the only rows the
    move changes.

    A null proposal (s equal to i's block r) is accepted at once and a move
    that would empty r is rejected.  Any other gets its delta S from the
    kernel's visit.  If delta S > H (``_hastings_bound``) and v >= exp(H -
    delta S), it is rejected, as log alpha < H - delta S; otherwise it gets
    both proposal probabilities and is accepted if log alpha = -delta S +
    log q_reverse - log q_forward is nonnegative or v < exp(log alpha).
    Accepted deltas are added to s_now in step order.

    sweep returns (s_now, null proposals, emptying rejections, accepted real
    moves); the other count - sum(...) steps were rejected by the
    acceptance test.  The state's b, e and e_row are bound here: they stay
    valid for as long as the state is moved only through a move kernel,
    which mutates them in place.
    """
    half_edges = state.net.half_edges

    def chunks():
        while True:
            yield _proposal_draws(half_edges, rng, _CHUNK)

    draws = chain.from_iterable(chunks())
    visit, move = move_kernel(state)
    probs = _proposal_probs(state, eps)
    bound = _hastings_bound(state, eps)
    b, e, e_row, n, B = state.b, state.e, state.e_row, state.n, state.B
    eps_b = eps * B
    log, exp = math.log, math.exp
    out = [0.0] * B
    sums = [None] * B
    totals = [None] * B

    def refresh(blocks):
        for t in blocks:
            sums[t] = list(accumulate([x + eps for x in e[t][:-1]]))
            totals[t] = e_row[t] + eps_b

    def sweep(count, s_now):
        refresh(range(B))
        nulls = emptying = moved = 0
        for i, j, u, v in islice(draws, count):
            r = b[i]
            if j < 0:
                s = int(u * B)
            else:
                t = b[j]
                s = bisect_right(sums[t], u * totals[t])
            if s == r:
                nulls += 1
                continue
            if n[r] == 1:
                emptying += 1
                continue
            w, loops, _ = visit(i, r, (s,), out)
            delta = out[s]
            if delta > bound and v >= exp(bound - delta):
                continue
            forward, reverse = probs(i, r, s, w, loops)
            log_alpha = -delta + (log(reverse) - log(forward))
            if log_alpha >= 0.0 or v < exp(log_alpha):
                move(i, r, s, w, loops)
                refresh((r, s, *w))
                s_now += delta
                moved += 1
        return s_now, nulls, emptying, moved

    return sweep


# The multilevel initialiser's schedule.  While more than _ONE_MERGE * B
# blocks remain, a round merges them down to max(B, floor(_MERGE_RATIO *
# blocks)); from there each round merges one pair.  At or below _DENSE_CAP
# * B blocks a dense BlockState is built after each round for a descent pass.
_MERGE_RATIO = 0.5
_ONE_MERGE = 2
_DENSE_CAP = 64


def mdl_partition(net: LabelledNetwork, num_blocks: int, rng: random.Random,
                  restarts: int = BlockChainConfig.init_restarts) -> BlockState:
    """Greedy minimum-description-length partition with a fixed block count.

    Each restart is one ``_agglomerate`` run, from every vertex in its own
    block down to num_blocks blocks, drawing from rng; the restart of least
    S is returned (the first among equals).
    """
    n_vert = net.num_vertices
    if num_blocks < 1:
        raise ValueError("need at least one block")
    if num_blocks > n_vert:
        raise ValueError(f"cannot fill {num_blocks} blocks with {n_vert} vertices")
    if restarts < 1:
        raise ValueError("need at least one restart")
    if num_blocks == 1:
        return BlockState(net, [0] * n_vert, 1)

    best_state, best_s = None, math.inf
    for _ in range(restarts):
        state = _agglomerate(net, num_blocks, rng)
        s_val = description_length(net, state)
        if s_val < best_s:
            best_state, best_s = state, s_val
    return best_state


def _agglomerate(net: LabelledNetwork, num_blocks: int, rng: random.Random) -> BlockState:
    """One multilevel run (Peixoto, PRE 89 012804, arXiv 1310.4378) from singletons.

    Every vertex starts in its own block, and each round binds a
    ``merge_kernel`` on the current labels.  While more than _ONE_MERGE * B
    blocks remain, every block proposes a merge (``_block_merge``); the
    proposals are applied lowest delta S first, through union-find, until
    max(B, floor(_MERGE_RATIO * blocks)) remain.  Below that, the one pair
    of least delta S merges (``_pair_merge``).  Merged blocks are numbered
    in the order of their lowest old label.  After every round that leaves
    at most _DENSE_CAP * B blocks but more than B, a BlockState is built and
    one ``_descend`` pass moves the vertices with half-edges; at B the
    descent runs to its local minimum.
    """
    labels = list(range(net.num_vertices))
    blocks = net.num_vertices
    while blocks > num_blocks:
        rows, delta = merge_kernel(net, labels, blocks)
        if blocks > _ONE_MERGE * num_blocks:
            goal = max(num_blocks, int(_MERGE_RATIO * blocks))
            merges = sorted(_block_merge(r, rows[r], delta, blocks, rng) for r in range(blocks))
        else:
            goal = blocks - 1
            merges = [_pair_merge(delta, blocks)]
        labels = _merge_blocks(labels, blocks, merges, goal)
        blocks = goal
        if num_blocks < blocks <= _DENSE_CAP * num_blocks:
            state = BlockState(net, labels, blocks)
            _descend(state, rng, once=True)
            labels = state.b
    state = BlockState(net, labels, num_blocks)
    _descend(state, rng)
    return state


def _block_merge(r: int, row: dict, delta, blocks: int, rng: random.Random) -> tuple:
    """(delta S, r, s) of block r's proposed merge: the block s of least
    delta S among those its row shares a half-edge with, in the row's order
    (the first among equals), or one block drawn from rng if it shares none.
    Each candidate's cutoff is the best delta S so far."""
    best, low = -1, math.inf
    for s in row:
        if s != r:
            value = delta(r, s, low)
            if value < low:
                best, low = s, value
    if best < 0:
        best = rng.randrange(blocks - 1)
        best += best >= r
        low = delta(r, best)
    return low, r, best


def _pair_merge(delta, blocks: int) -> tuple:
    """(delta S, r, s) of the pair r < s of least delta S over all pairs.

    Pairs are scored in the order of their lower bounds (delta with cutoff
    -inf), each with the best delta S so far as its cutoff, and the search
    stops at the first bound that cannot win; so the merged log q is read
    only for a pair that may still win.
    """
    best = (math.inf, -1, -1)
    bounds = sorted((delta(r, s, -math.inf), r, s)
                    for r in range(blocks) for s in range(r + 1, blocks))
    for bound, r, s in bounds:
        if bound >= best[0]:
            break
        value = delta(r, s, best[0])
        if value < best[0]:
            best = (value, r, s)
    return best


def _merge_blocks(labels, blocks: int, merges, goal: int) -> list:
    """The labels after joining the (delta, r, s) merges in order, through
    union-find, until ``goal`` of the ``blocks`` blocks remain."""
    parent = list(range(blocks))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, r, s in merges:
        if blocks == goal:
            break
        r, s = find(r), find(s)
        if r != s:
            parent[max(r, s)] = min(r, s)
            blocks -= 1
    new = {}
    relabel = [new.setdefault(find(t), len(new)) for t in range(len(parent))]
    return [relabel[x] for x in labels]


def _descend(state: BlockState, rng: random.Random, once: bool = False) -> None:
    """Zero-temperature single-vertex descent of the state, drawing from rng.

    A visit scores vertex i, unless it is alone in its block, against its
    move set: the blocks of its w in w's order, or every block when i has
    no half-edges (the move kernel's targets=None).  i moves to the first
    block of least delta S below 0.  The first pass visits every vertex in
    shuffled order; with once, it visits only the vertices with half-edges
    and is the only pass.  Otherwise each later pass visits, sorted and then
    shuffled, the far ends of the half-edges of the vertices the previous
    pass moved, each once.  A pass that moves nothing is followed by a full
    pass unless it was one, and a full pass that moves nothing ends the
    descent, so no vertex that may leave its block can lower S within its
    move set.  A pass that ends at labels the descent has already held also
    ends it: S is a function of the labels, so the moves between summed to
    no change, and were ties whose delta S rounded below 0, which could
    otherwise repeat forever.  Labels are compared by the hash of their
    tuple.
    """
    visit, move = move_kernel(state)
    b, n = state.b, state.n
    half_edges = state.net.half_edges
    ends = half_edges.ends
    every = range(state.net.num_vertices)
    order = [i for i in every if half_edges.degree[i]] if once else list(every)
    full, held = True, {hash(tuple(b))}
    deltas = [0.0] * state.B
    while True:
        rng.shuffle(order)
        moved = []
        for i in order:
            r = b[i]
            if n[r] == 1:
                continue
            w, loops, best = visit(i, r, None, deltas)
            if best != r:
                move(i, r, best, w, loops)
                moved.append(i)
        if once:
            return
        if moved:
            labels = hash(tuple(b))
            if labels in held:
                return
            held.add(labels)
            order, full = sorted({j for i in moved for j in ends[i]}), False
        elif full:
            return
        else:
            order, full = list(every), True


def run_block_chain(net: LabelledNetwork, num_blocks: int, cfg: BlockChainConfig) -> BlockChainResult:
    """Run the partition sampler and return retained samples plus the S trace.

    cfg.seed seeds two streams: ``random.Random`` for the greedy initialiser
    and ``np.random.default_rng`` for the sweeps' proposal and acceptance
    uniforms.
    """
    rng = random.Random(cfg.seed)
    state = mdl_partition(net, num_blocks, rng, restarts=cfg.init_restarts)
    reference = state.partition()

    keep = retained_indices(cfg.iterations, cfg.burn_in, cfg.thinning)
    keep_set = frozenset(keep)

    s_now = description_length(net, state)
    trace = np.empty(cfg.iterations + 1)
    trace[0] = s_now
    samples = []
    if 0 in keep_set:
        samples.append(state.partition())

    n_vert = max(net.num_vertices, 1)
    sweep = _sweeper(state, np.random.default_rng(cfg.seed), cfg.smoothing)
    nulls = emptying = moved = 0
    for it in range(1, cfg.iterations + 1):
        s_now, sweep_nulls, sweep_emptying, sweep_moved = sweep(n_vert, s_now)
        nulls += sweep_nulls
        emptying += sweep_emptying
        moved += sweep_moved
        if not math.isfinite(s_now):
            raise ArithmeticError(f"description length became non-finite in sweep {it}")
        trace[it] = s_now
        if it in keep_set:
            samples.append(state.partition())

    # The running S is a sum of move deltas; a fresh evaluation catches any
    # drift (about 1e-12 in practice) and any bad table read in the kernel.
    fresh = description_length(net, state)
    if not abs(s_now - fresh) <= 1e-6:
        raise ArithmeticError(
            f"accumulated description length {s_now!r} differs from a fresh evaluation {fresh!r}")
    return BlockChainResult(samples=samples, retained=keep, s_trace=trace, reference=reference,
                            null_proposals=nulls, emptying_rejections=emptying,
                            accepted_moves=moved)


def _min_cost_assignment(cost) -> list:
    """Column of each row in a minimum-cost assignment of a square cost matrix.

    ``cost`` is a list of rows of Python ints.  This is SciPy's
    ``linear_sum_assignment`` (Crouse, "On implementing 2D rectangular
    assignment algorithms", IEEE TAES 52(4):1679, 2016): each row in turn
    grows a shortest augmenting path, scanning the unvisited columns from a
    list that starts in reverse order and loses a visited column by taking
    the last one into its slot.  Among columns at equal reduced cost it takes
    the first in that scan order, except that an unassigned column beats an
    assigned one.  The arithmetic is exact on ints, as SciPy's is in doubles
    on integers below 2**53, so both return the same assignment, ties
    included; a constant matrix gives the identity.
    """
    n = len(cost)
    u = [0] * n
    v = [0] * n
    col4row = [-1] * n
    row4col = [-1] * n
    path = [-1] * n
    for cur in range(n):
        remaining = list(range(n - 1, -1, -1))
        spc = [math.inf] * n  # shortest-path cost to each column
        rows_seen = []
        cols_seen = []
        min_val = 0
        i = cur
        while True:
            rows_seen.append(i)
            row = cost[i]
            base = min_val - u[i]
            lowest = math.inf
            index = -1
            for pos, j in enumerate(remaining):
                r = base + row[j] - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                c = spc[j]
                if c < lowest or (c == lowest and row4col[j] < 0):
                    lowest = c
                    index = pos
            min_val = lowest
            j = remaining[index]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] < 0:
                break
            i = row4col[j]

        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        while True:  # augment along the path from the sink back to row cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _align_samples(samples, reference, num_blocks: int) -> np.ndarray:
    """Each row of the S x N label array relabelled to best overlap the reference.

    All S contingency tables come from one bincount; each is then solved as
    an assignment on the score overlap * (B + 1) + [label kept], so overlap
    ties go to keeping labels fixed, then to the solver's scan order.
    """
    samples = check_labels(samples, num_blocks, "sample")
    reference = check_labels(reference, num_blocks, "reference")
    if reference.ndim != 1 or samples.ndim != 2 or samples.shape[1] != reference.shape[0]:
        raise ValueError("sample and reference partitions differ in length")
    num_samples = samples.shape[0]
    sample_index = np.arange(num_samples)[:, None]
    cells = (sample_index * num_blocks + samples) * num_blocks + reference
    tables = np.bincount(cells.ravel(), minlength=num_samples * num_blocks * num_blocks)
    tables = tables.reshape(num_samples, num_blocks, num_blocks)
    score = tables * (num_blocks + 1) + np.eye(num_blocks, dtype=np.int64)
    perms = np.array([_min_cost_assignment(cost) for cost in (-score).tolist()], dtype=np.int64)
    return perms[sample_index, samples]


def align_labels(sample: np.ndarray, reference: np.ndarray, num_blocks: int) -> np.ndarray:
    """Relabel a partition to best overlap the reference partition.

    Solves the optimal assignment on the B x B contingency table.  Overlap
    ties are broken towards keeping labels fixed (which makes alignment
    idempotent).  Remaining ties follow the solver's rule: sample labels are
    placed in increasing order, each by a shortest augmenting path whose
    scan over the reference labels starts from B-1 downwards and, among
    equally cheap labels, takes the first one scanned, preferring one that no
    sample label holds yet (``_min_cost_assignment``).  Either partition's
    labels must meet ``graph.check_labels``, or ``ValueError`` is raised.
    """
    return _align_samples([sample], reference, num_blocks)[0]


def estimate_responsibilities(samples, reference: np.ndarray, num_blocks: int) -> np.ndarray:
    """Posterior block-membership probabilities from aligned partition samples.

    Each sample is aligned to the reference partition before averaging the
    one-hot memberships, so label switching across samples cannot wash the
    estimate out towards uniform.  Bad labels raise ``ValueError``, as in
    ``align_labels``.
    """
    if len(samples) == 0:
        raise ValueError("need at least one retained sample")
    n_vert = len(reference)
    aligned = _align_samples(samples, reference, num_blocks)
    counts = np.bincount((np.arange(n_vert) * num_blocks + aligned).ravel(),
                         minlength=n_vert * num_blocks)
    return counts.reshape(n_vert, num_blocks) / len(samples)
