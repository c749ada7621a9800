import pytest

import ffbm.mala
from ffbm import network_from_edges


@pytest.fixture
def path3():
    """Path graph 0-1-2."""
    return network_from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def bowtie():
    """Two triangles sharing vertex 2: 5 vertices, 6 edges."""
    return network_from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def random_multigraph(rng, num_vertices, num_edges, loops=True):
    """Uniformly random endpoints with multiplicities; used across tests."""
    edges = []
    while len(edges) < num_edges:
        u = int(rng.integers(0, num_vertices))
        v = int(rng.integers(0, num_vertices))
        if not loops and u == v:
            continue
        edges.append((u, v, int(rng.integers(1, 3))))
    return network_from_edges(num_vertices, edges)


def neighbour_pairs(net):
    """Per vertex, (j, a_ij) pairs in the order of net.edges, where a_ij is the
    edge multiplicity for j != i and twice the loop multiplicity for j == i."""
    pairs = [[] for _ in range(net.num_vertices)]
    for u, v, m in net.edges:
        if u == v:
            pairs[u].append((u, 2 * m))
        else:
            pairs[u].append((v, m))
            pairs[v].append((u, m))
    return pairs


def pair_deltas(r, s, w, loops):
    """Changes to the upper-triangle entries of e when a vertex moves r -> s, r != s.

    Keys are (min(t,u), max(t,u)); diagonal entries carry the doubled count.
    w and loops are the vertex's block weights and loop weight before the move.
    """
    m_r = w.get(r, 0) - loops
    m_s = w.get(s, 0)
    deltas = {
        (r, r): -2 * m_r - loops,
        (s, s): 2 * m_s + loops,
        (r, s) if r < s else (s, r): m_r - m_s,
    }
    for t, wt in w.items():
        if t == r or t == s:
            continue
        deltas[(r, t) if r < t else (t, r)] = -wt
        deltas[(s, t) if s < t else (t, s)] = wt
    return deltas


def two_cliques(size):
    """Two disjoint complete graphs of the given size."""
    edges = []
    for base in (0, size):
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((base + i, base + j))
    return network_from_edges(2 * size, edges)


def objective_failing_at(monkeypatch, iteration, value, chain=0):
    """Make position `chain` of every stack read value as its objective at
    `iteration`: the initial draw at 0, else the proposal of that iteration.

    The initial draw's value is set where the stack reads it, the value
    half of mala's objective_halves on slot 0.  A proposal's value is set
    where the chains' MH tests read it, mala._decide, so it does not depend
    on how far ahead of its tests a chain computes.  Returns the sizes of
    the stacks whose initial draws were checked.
    """
    real_halves, real_decide, stacks = ffbm.mala.objective_halves, ffbm.mala._decide, []

    def halves(ctxs, states, grads):
        gradient, values = real_halves(ctxs, states, grads)

        def initial(first, stop):
            result = values(first, stop)
            if first == 0:
                stacks.append(len(ctxs))
                if iteration == 0:
                    result[chain] = value
            return result

        return gradient, initial

    def failing(labels, t, values, proposed, *tests):
        if 0 <= iteration - t - 1 < len(proposed) // len(labels):
            proposed[(iteration - t - 1) * len(labels) + chain] = value
        return real_decide(labels, t, values, proposed, *tests)

    monkeypatch.setattr(ffbm.mala, "objective_halves", halves)
    monkeypatch.setattr(ffbm.mala, "_decide", failing)
    return stacks
