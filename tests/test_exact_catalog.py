"""The resumable walk search against two independent references.

`reference_walk_catalog` is the breadth-first search the solver used before
the search became resumable: one pass pruned at a fixed cap, with a visited
set over every state.  The resumable search must give the same catalog,
entry for entry and usage vector included, at every budget from the lower
bound to the optimum, spend exactly its nodes in decide mode and no more in
optimum mode.

`euler_catalog` derives supports and lengths from Euler's theorem alone: a
support S (edges used once or twice) is a closed walk from the start exactly
when S is connected through the start vertex, and its shortest such walk has
length |S| + |D| for the smallest D inside S whose degree parities equal S's
(D being the edges used twice).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

import pytest

from cge.approx import approx_solve
from cge.cover import vertex_cover_2approx
from cge.errors import SearchBudgetExceeded
from cge.exact import (
    SearchConfig,
    _assign_robots,
    _edge_mask,
    _farthest_edge_bound,
    _Frontier,
    _NodeBudget,
    _traversal_lower_bound,
    _walk_catalog,
    exact_decide,
    exact_optimum,
)
from cge.graphs import ExplorationInstance

from conftest import random_connected_graph

UNLIMITED = 10**12


@dataclass
class RefCatalog:
    edges: list
    supports: list
    lengths: list
    usages: list  # per-edge usage tuples


def reference_walk_catalog(g, v_init, cap, cfg, nodes):
    """Breadth-first enumeration of closed-walk states up to length `cap`,
    verbatim from the search before it became resumable (`cfg` unused)."""
    edges = g.distinct_edges()
    m = len(edges)
    eidx = {e: i for i, e in enumerate(edges)}
    dist = g.bfs_distances(v_init)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]  # (neighbor, edge index)
    for (u, v), i in eidx.items():
        adj[u].append((v, i))
        adj[v].append((u, i))

    best: dict[int, tuple[int, int]] = {}  # support mask -> (length, usage int)
    n = g.n

    def encode(usage: int, v: int) -> int:
        return usage * n + v

    seen = {encode(0, v_init)}
    frontier = deque([(0, v_init, 0, 0)])  # (usage, vertex, length, support)
    best[0] = (0, 0)
    while frontier:
        usage, v, length, support = frontier.popleft()
        if length == cap:
            continue
        nodes.spend()
        for w, i in adj[v]:
            shift = 2 * i
            if (usage >> shift) & 3 == 2:
                continue
            nlen = length + 1
            if nlen + dist[w] > cap:
                continue
            nusage = usage + (1 << shift)
            state = encode(nusage, w)
            if state in seen:
                continue
            seen.add(state)
            nsupport = support | (1 << i)
            if w == v_init and nsupport not in best:
                best[nsupport] = (nlen, nusage)
            frontier.append((nusage, w, nlen, nsupport))

    order = sorted(best.items(), key=lambda kv: (kv[1][0], kv[0]))
    supports = [s for s, _ in order]
    lengths = [lv[0] for _, lv in order]
    usages = []
    for _, (_, usage) in order:
        usages.append(tuple((usage >> (2 * i)) & 3 for i in range(m)))
    return RefCatalog(edges=edges, supports=supports, lengths=lengths, usages=usages)


def entries(catalog, max_length):
    """(support, length, usage tuple) of every entry no longer than max_length."""
    m = len(catalog.edges)
    out = []
    for s, length, usage in zip(catalog.supports, catalog.lengths, catalog.usages):
        if length <= max_length:
            if isinstance(usage, int):
                usage = tuple(usage >> 2 * j & 3 for j in range(m))
            out.append((s, length, usage))
    return out


def lower_bound(inst):
    return max(_traversal_lower_bound(inst), _farthest_edge_bound(inst.graph, inst.v_init))


def spent(nodes):
    return UNLIMITED - nodes.left


def sample_instances(seed, count, n_max, m_max, m_min=5):
    """Seeded random connected instances with m_min <= m <= m_max edges and k
    in 1..3, half of them bipartite."""
    rng = random.Random(seed)
    out = {True: [], False: []}
    while min(len(v) for v in out.values()) < count // 2:
        g = random_connected_graph(rng, n_max=n_max, m_max=m_max)
        if g.num_edges < m_min:
            continue
        inst = ExplorationInstance(g, rng.randrange(g.n), rng.randint(1, 3))
        if len(out[g.is_bipartite()]) < count // 2:
            out[g.is_bipartite()].append(inst)
    return out[True] + out[False]


def case_id(inst):
    return f"n{inst.graph.n}-m{inst.graph.num_edges}-k{inst.k}"


CASES = sample_instances(seed=2024, count=80, n_max=8, m_max=10)


@pytest.mark.parametrize("inst", CASES, ids=case_id)
def test_resumed_catalog_matches_single_pass_bfs(inst):
    g, v = inst.graph, inst.v_init
    opt, _ = exact_optimum(inst)
    lb = lower_bound(inst)
    ub = approx_solve(inst, vertex_cover_2approx(g)).value
    assert lb <= opt <= ub
    ref = reference_walk_catalog(g, v, ub, None, _NodeBudget(UNLIMITED))

    frontier = _Frontier(g, v)
    opt_nodes = _NodeBudget(UNLIMITED)
    for budget in range(lb, opt + 1):
        catalog = _walk_catalog(g, v, budget, frontier, opt_nodes)
        assert entries(catalog, UNLIMITED) == entries(ref, budget), f"budget {budget}"
        _assign_robots(catalog, inst.k, budget, _edge_mask(g), opt_nodes)

    # decide mode: one fresh search per budget spends exactly the single pass's nodes
    for budget in {lb, opt}:
        new, old = _NodeBudget(UNLIMITED), _NodeBudget(UNLIMITED)
        _walk_catalog(g, v, budget, _Frontier(g, v), new)
        reference_walk_catalog(g, v, budget, None, old)
        assert spent(new) == spent(old)

    # optimum mode: the parent's spend was its cap-ub pass plus the same assignments
    ref_nodes = _NodeBudget(UNLIMITED)
    reference_walk_catalog(g, v, ub, None, ref_nodes)
    for budget in range(lb, opt + 1):
        _assign_robots(ref, inst.k, budget, _edge_mask(g), ref_nodes)
    assert spent(opt_nodes) <= spent(ref_nodes)
    assert exact_optimum(inst, SearchConfig(node_limit=spent(opt_nodes)))[0] == opt
    with pytest.raises(SearchBudgetExceeded):
        exact_optimum(inst, SearchConfig(node_limit=spent(opt_nodes) - 1))


@pytest.mark.parametrize("inst", CASES[::4], ids=case_id)
def test_decide_node_limit_is_the_single_pass_spend(inst):
    g, v = inst.graph, inst.v_init
    opt, _ = exact_optimum(inst)
    for budget in {lower_bound(inst), opt}:
        ref = _NodeBudget(UNLIMITED)
        catalog = reference_walk_catalog(g, v, budget, None, ref)
        _assign_robots(catalog, inst.k, budget, _edge_mask(g), ref)
        decided = inst.with_budget(budget)
        assert exact_decide(decided, SearchConfig(node_limit=spent(ref)))[0] == (budget == opt)
        with pytest.raises(SearchBudgetExceeded):
            exact_decide(decided, SearchConfig(node_limit=spent(ref) - 1))


def euler_catalog(g, v_init):
    """(support, shortest length) of every closed-walk support, sorted the way
    the catalog is; a submask loop over 3^m (support, doubled set) pairs."""
    edges = g.distinct_edges()
    m = len(edges)
    parity = [0] * (1 << m)  # vertex bitmask of odd degree, per edge subset
    for mask in range(1, 1 << m):
        low = mask & -mask
        u, w = edges[low.bit_length() - 1]
        parity[mask] = parity[mask ^ low] ^ (1 << u) ^ (1 << w)
    out = [(0, 0)]
    for support in range(1, 1 << m):
        reached, grown = 1 << v_init, True
        while grown:
            grown = False
            for j, (u, w) in enumerate(edges):
                if support >> j & 1 and (reached >> u & 1) != (reached >> w & 1):
                    reached |= (1 << u) | (1 << w)
                    grown = True
        if any(support >> j & 1 and not reached >> u & 1 for j, (u, _) in enumerate(edges)):
            continue
        best = m + 1
        doubled = support
        while True:  # every subset of the support, the support itself first
            if parity[doubled] == parity[support]:
                best = min(best, bin(doubled).count("1"))
            if doubled == 0:
                break
            doubled = (doubled - 1) & support
        out.append((support, bin(support).count("1") + best))
    return sorted(out, key=lambda e: (e[1], e[0]))


def test_catalog_matches_euler_theorem():
    """Every cap from 0 to 2m on one resumed search, against the closed form.

    m <= 9 bounds the submask loop at 3^9 = 19 683 pairs per graph, which
    keeps the 80 graphs under a second; each edge more triples it.
    """
    for inst in sample_instances(seed=77, count=80, n_max=8, m_max=9):
        g, v = inst.graph, inst.v_init
        expected = euler_catalog(g, v)
        frontier = _Frontier(g, v)
        for cap in range(2 * g.num_edges + 1):
            catalog = _walk_catalog(g, v, cap, frontier, _NodeBudget(UNLIMITED))
            got = list(zip(catalog.supports, catalog.lengths))
            assert got == [e for e in expected if e[1] <= cap], f"cap {cap}"
        assert len(expected) == len(catalog.supports)
