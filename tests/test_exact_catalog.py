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

`reference_assign_robots` is the robot assignment before the catalog kept a
bitset of covering entries per edge and the last robot took the first entry
in the AND of the uncovered edges' bitsets; the solver must spend exactly
its nodes and choose exactly its entries, and that first entry must be the
one a linear scan finds.  The solver's start budget, the Chinese-postman
bound, must dominate `reference_traversal_bound`, the start budget it
replaced, and for one robot equal the optimum, checked against a
minimum-weight matching from networkx.  Below the start budget the reference
finds no assignment, and deciding answers "no" without a node.

One robot runs `_first_tour` instead of the catalog.  Its walk must be the
reference pick at the optimum and above it, in decide mode too, its spend
at most the reference's, and its value CPP(G) on graphs past the catalog's
reach.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass

import pytest

from cge import exact
from cge.approx import approx_solve
from cge.cover import connect_cover, vertex_cover_2approx
from cge.errors import SearchBudgetExceeded
from cge.euler import solution_from_multisets, verify_solution
from cge.exact import (
    SearchConfig,
    _assign_robots,
    _farthest_edge_bound,
    _first_tour,
    _Frontier,
    _NodeBudget,
    _postman_bound,
    _walk_catalog,
    exact_decide,
    exact_optimum,
)
from cge.graphs import ExplorationInstance, Multigraph

from conftest import random_connected_graph, with_budget

UNLIMITED = 10**12


@dataclass
class RefCatalog:
    edges: list
    supports: list
    lengths: list
    usages: list  # per-edge usage tuples
    covers: list  # per edge, the bitset of the entries whose support holds it


def reference_walk_catalog(g, v_init, cap, cfg, nodes):
    """Breadth-first enumeration of closed-walk states up to length `cap`,
    verbatim from the search before it became resumable (`cfg` unused)."""
    edges = g.edges
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
    covers = [sum(1 << i for i, s in enumerate(supports) if s >> j & 1) for j in range(m)]
    return RefCatalog(edges=edges, supports=supports, lengths=lengths, usages=usages,
                      covers=covers)


def reference_assign_robots(catalog, k, budget, full_mask, nodes):
    """The robot assignment verbatim from before the per-edge bitsets: a
    fresh index per call, one call per last-robot walk."""
    usable = [i for i in range(len(catalog.supports)) if catalog.lengths[i] <= budget]
    reachable = 0
    for i in usable:
        reachable |= catalog.supports[i]
    if full_mask & ~reachable:
        return None
    by_edge: dict[int, list[int]] = {}
    m = len(catalog.covers)
    for e_bit in range(m):
        by_edge[e_bit] = [i for i in usable if catalog.supports[i] >> e_bit & 1]

    def recurse(covered: int, robots_left: int, chosen: list[int]):
        if covered == full_mask:
            return list(chosen)
        if robots_left == 0:
            return None
        nodes.spend()
        remaining = ~covered & full_mask
        lowest = (remaining & -remaining).bit_length() - 1
        for i in by_edge[lowest]:
            chosen.append(i)
            got = recurse(covered | catalog.supports[i], robots_left - 1, chosen)
            if got is not None:
                return got
            chosen.pop()
        return None

    return recurse(0, k, [])


def reference_traversal_bound(inst):
    """The solver's former start bound, verbatim: ceil(total forced
    traversals / k), where every independent vertex of a connected vertex
    cover costs its degree rounded up to even and cover-internal edges cost
    one each; rounded up to even when the graph is bipartite."""
    g = inst.graph
    vcp = connect_cover(g, vertex_cover_2approx(g), inst.v_init)
    cset = vcp.as_set()
    total = 0
    for (u, v) in g.edges:
        if u in cset and v in cset:
            total += 1
    for u in range(g.n):
        if u in cset:
            continue
        d = g.degree(u)
        total += d + (d % 2)
    lb = -(-total // inst.k)
    if g.is_bipartite() and lb % 2 == 1:
        lb += 1
    return lb


def entries(catalog, max_length):
    """(support, length, usage tuple) of every entry no longer than max_length."""
    m = len(catalog.covers)
    out = []
    for s, length, usage in zip(catalog.supports, catalog.lengths, catalog.usages):
        if length <= max_length:
            if isinstance(usage, int):
                usage = tuple(usage >> 2 * j & 3 for j in range(m))
            out.append((s, length, usage))
    return out


def all_edges_mask(g):
    """One bit per edge: every edge covered."""
    return (1 << g.num_edges) - 1


def lower_bound(inst):
    """The budget both entry points start at."""
    return max(_postman_bound(inst), _farthest_edge_bound(inst.graph, inst.v_init))


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
    assert reference_traversal_bound(inst) <= _postman_bound(inst)
    ref = reference_walk_catalog(g, v, ub, None, _NodeBudget(UNLIMITED))

    frontier = _Frontier(g, v)
    opt_nodes = _NodeBudget(UNLIMITED)
    for budget in range(lb, opt + 1):
        catalog = _walk_catalog(g, v, budget, frontier, opt_nodes)
        assert entries(catalog, UNLIMITED) == entries(ref, budget), f"budget {budget}"
        _assign_robots(catalog, inst.k, budget, all_edges_mask(g), opt_nodes)

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
        reference_assign_robots(ref, inst.k, budget, all_edges_mask(g), ref_nodes)
    assert spent(opt_nodes) <= spent(ref_nodes)
    if inst.k == 1:  # one robot runs the tour search instead of the catalog
        opt_nodes = _NodeBudget(UNLIMITED)
        assert _first_tour(g, v, range(lb, opt + 1), opt_nodes)[0] == opt
        assert spent(opt_nodes) <= spent(ref_nodes)
    assert exact_optimum(inst, SearchConfig(node_limit=spent(opt_nodes)))[0] == opt
    with pytest.raises(SearchBudgetExceeded):
        exact_optimum(inst, SearchConfig(node_limit=spent(opt_nodes) - 1))


@pytest.mark.parametrize("inst", CASES[::4], ids=case_id)
def test_decide_node_limit_is_the_single_pass_spend(inst):
    g, v = inst.graph, inst.v_init
    opt, _ = exact_optimum(inst)
    lb = lower_bound(inst)
    for budget in {lb, opt}:
        ref = _NodeBudget(UNLIMITED)
        catalog = reference_walk_catalog(g, v, budget, None, ref)
        reference_assign_robots(catalog, inst.k, budget, all_edges_mask(g), ref)
        limit = spent(ref)
        if inst.k == 1:  # the tour search tries every cap from the bound up
            tour = _NodeBudget(UNLIMITED)
            _first_tour(g, v, range(lb, budget + 1), tour)
            assert spent(tour) <= limit
            limit = spent(tour)
        decided = with_budget(inst, budget)
        assert exact_decide(decided, SearchConfig(node_limit=limit))[0] == (budget == opt)
        with pytest.raises(SearchBudgetExceeded):
            exact_decide(decided, SearchConfig(node_limit=limit - 1))


@pytest.mark.parametrize("inst", CASES, ids=case_id)
def test_assignment_spends_the_reference_nodes(inst):
    """From the former start bound to the optimum, on the resumed catalog and
    on one holding walks longer than every budget tried (the cut-off path)."""
    g, v = inst.graph, inst.v_init
    opt, _ = exact_optimum(inst)
    full = all_edges_mask(g)
    frontier = _Frontier(g, v)
    longer = reference_walk_catalog(g, v, opt + 2, None, _NodeBudget(UNLIMITED))
    start = max(reference_traversal_bound(inst), _farthest_edge_bound(g, v))
    for budget in range(min(start, lower_bound(inst)), opt + 1):
        catalog = _walk_catalog(g, v, budget, frontier, _NodeBudget(UNLIMITED))
        old = _NodeBudget(UNLIMITED)
        expected = reference_assign_robots(catalog, inst.k, budget, full, old)
        assert (expected is not None) == (budget == opt)
        for cat in (catalog, longer):
            new = _NodeBudget(UNLIMITED)
            assert _assign_robots(cat, inst.k, budget, full, new) == expected
            assert spent(new) == spent(old), f"budget {budget}"


@pytest.mark.parametrize("inst", CASES[::2], ids=case_id)
def test_edge_bitsets_answer_the_linear_scan(inst):
    """After every round `covers` is the transpose of `supports`, and for
    random budgets and uncovered sets the lowest usable entry in the AND of
    the uncovered edges' bitsets is the first entry a linear scan finds."""
    g, v = inst.graph, inst.v_init
    m = g.num_edges
    rng = random.Random(case_id(inst))
    frontier = _Frontier(g, v)
    for cap in range(2 * m + 1):
        catalog = _walk_catalog(g, v, cap, frontier, _NodeBudget(UNLIMITED))
        supports, lengths = catalog.supports, catalog.lengths
        assert catalog.covers == [sum(1 << i for i, s in enumerate(supports) if s >> j & 1)
                                  for j in range(m)], f"cap {cap}"
        for _ in range(30):
            budget = rng.randint(0, cap)
            density = rng.random()
            mask = sum(1 << j for j in range(m) if rng.random() < density) or 1 << rng.randrange(m)
            scan = next((i for i, (s, length) in enumerate(zip(supports, lengths))
                         if length <= budget and s & mask == mask), None)
            both = (1 << bisect_right(lengths, budget)) - 1
            for j in range(m):
                if mask >> j & 1:
                    both &= catalog.covers[j]
            lookup = (both & -both).bit_length() - 1 if both else None
            assert lookup == scan, f"cap {cap}, budget {budget}, mask {mask:b}"


@pytest.mark.parametrize("inst", CASES, ids=case_id)
def test_decide_below_the_lower_bound_is_a_no_without_a_search(inst):
    """Every budget below the shared start bound is a "no" under a one-node
    limit, and the reference search finds no assignment there either."""
    g, v = inst.graph, inst.v_init
    lb = lower_bound(inst)
    catalog = reference_walk_catalog(g, v, lb - 1, None, _NodeBudget(UNLIMITED))
    for budget in range(lb):
        assert exact_decide(with_budget(inst, budget), SearchConfig(node_limit=1)) == (False, None)
        ref = reference_assign_robots(catalog, inst.k, budget, all_edges_mask(g),
                                      _NodeBudget(UNLIMITED))
        assert ref is None, f"budget {budget}"


def test_one_vertex_graph_is_idle_at_every_budget():
    inst = ExplorationInstance(Multigraph(1), 0, 2)
    idle = solution_from_multisets(1, 0, (), 2)
    cfg = SearchConfig(node_limit=1)
    assert lower_bound(inst) == 0
    for budget in range(4):
        assert exact_decide(with_budget(inst, budget), cfg) == (True, idle)
    assert exact_optimum(inst, cfg) == (0, idle)


@pytest.mark.parametrize("inst", CASES[::8], ids=case_id)
def test_decide_far_above_twice_the_edges_stops_at_2m_rounds(inst, monkeypatch):
    """No walk state has potential above 2|E|, so deciding a budget far above
    it runs 2|E| rounds, at most (2m + 1)^2 bucket expansions, and answers
    as deciding 2|E| does; one round per unit of budget took O(budget^2)."""
    m = inst.graph.num_edges
    calls = 0
    expand = _Frontier.expand

    def counted(frontier, p, l, nodes):
        nonlocal calls
        calls += 1
        expand(frontier, p, l, nodes)

    monkeypatch.setattr(_Frontier, "expand", counted)
    at_2m = exact_decide(with_budget(inst, 2 * m))
    calls = 0
    assert exact_decide(with_budget(inst, 100 * m + 100)) == at_2m
    assert at_2m[0] and calls <= (2 * m + 1) ** 2


def networkx_postman(g):
    """CPP(G) = |E| plus a minimum-weight perfect matching of the odd-degree
    vertices under shortest-path distance."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph(g.edges)
    odd = [v for v in graph if graph.degree(v) % 2]
    dist = dict(nx.all_pairs_shortest_path_length(graph))
    pairs = nx.Graph()
    for i, u in enumerate(odd):
        for w in odd[i + 1:]:
            pairs.add_edge(u, w, weight=g.n - dist[u][w])  # heaviest = shortest
    matching = nx.max_weight_matching(pairs, maxcardinality=True)
    assert 2 * len(matching) == len(odd)
    return g.num_edges + sum(dist[u][w] for u, w in matching)


def test_single_robot_optimum_is_the_postman_tour():
    """k = 1: the optimum, and the start bound, equal CPP(G) on seeded
    graphs with 6 to 14 edges."""
    rng = random.Random(31)
    checked = 0
    while checked < 16:
        g = random_connected_graph(rng, n_max=9, m_max=14)
        if g.num_edges < 6:
            continue
        inst = ExplorationInstance(g, rng.randrange(g.n), 1)
        cpp = networkx_postman(g)
        assert _postman_bound(inst) == cpp
        assert exact_optimum(inst)[0] == cpp
        checked += 1


# perfbench's random_connected(Random(11), 12, 19) graph, whose one-robot
# tour tripped the catalog's 5 000 000-node limit
M19 = Multigraph(12, [
    (0, 2), (0, 9), (0, 10), (1, 6), (1, 7), (1, 11), (2, 5), (2, 6), (2, 10), (2, 11),
    (3, 6), (3, 8), (3, 10), (4, 7), (4, 10), (5, 7), (6, 8), (7, 9), (8, 9)])


def postman_cases():
    """The m = 19 graph from vertex 0, then 19 seeded graphs with 15 to 19
    edges from random starts, all with one robot."""
    rng = random.Random(19)
    out = [ExplorationInstance(M19, 0, 1)]
    while len(out) < 20:
        g = random_connected_graph(rng, n_max=12, m_max=19)
        if g.num_edges >= 15:
            out.append(ExplorationInstance(g, rng.randrange(g.n), 1))
    return out


def test_single_robot_tour_is_the_postman_tour_at_15_to_19_edges(monkeypatch):
    """k = 1 past the catalog's reach: the value equals CPP(G) from networkx
    and the walk verifies, on 20 graphs.  With the pairing
    limit at 0 the search starts at the weaker fallback bound, so on some
    graphs it proves whole caps empty first, and it must still return the
    same walk."""
    solved = []
    for inst in postman_cases():
        value, sol = exact_optimum(inst)
        assert value == networkx_postman(inst.graph)
        assert verify_solution(with_budget(inst, value), sol).ok
        solved.append((value, sol))
    monkeypatch.setattr(exact, "_PAIRING_LIMIT", 0)
    below = 0
    for inst, found in zip(postman_cases(), solved):
        below += lower_bound(inst) < found[0]
        assert exact_optimum(inst) == found
    assert below >= 2


def reference_decide(inst):
    """(answer, witness) of deciding inst.budget with the reference catalog
    capped at the budget and the reference assignment."""
    g, v, budget = inst.graph, inst.v_init, inst.budget
    catalog = reference_walk_catalog(g, v, budget, None, _NodeBudget(UNLIMITED))
    chosen = reference_assign_robots(catalog, inst.k, budget, all_edges_mask(g),
                                     _NodeBudget(UNLIMITED))
    if chosen is None:
        return False, None
    runs = ((Counter({e: u for e, u in zip(catalog.edges, catalog.usages[i]) if u}), 1)
            for i in chosen)
    return True, solution_from_multisets(g.n, v, runs, inst.k)


@pytest.mark.parametrize("inst", sample_instances(seed=26, count=100, n_max=8, m_max=11),
                         ids=case_id)
def test_decide_witness_above_the_optimum_is_the_reference_pick(inst):
    """Deciding the optimum, one above it and three above it returns the
    walks that the reference catalog capped at that budget and the reference
    assignment pick.  Above the optimum the catalog holds longer walks too;
    a search that tried only the budget itself could return a longer walk
    that comes first in position order."""
    opt, _ = exact_optimum(inst)
    for budget in (opt, opt + 1, opt + 3):
        decided = with_budget(inst, budget)
        assert exact_decide(decided) == reference_decide(decided), f"budget {budget}"


def test_postman_fallback_above_the_pairing_limit(monkeypatch):
    """Above `_PAIRING_LIMIT` odd vertices the T-join is bounded by half the
    nearest-odd-vertex distances, never above the exact pairing; a tree's
    T-join is all of its edges, whatever the limit."""
    # 18 odd leaves, each 2 from the next: the optimum is 2 per leaf
    star = ExplorationInstance(
        Multigraph(19, [(0, i) for i in range(1, 19)]), 0, 1)
    # a 5-vertex spine with 3 leaves per vertex: 18 odd vertices in groups of
    # three, so each group's third vertex pairs farther than its nearest
    leaves = [(i, 5 + 3 * i + j) for i in range(5) for j in range(3)]
    caterpillar = Multigraph(20, [(i, i + 1) for i in range(4)] + leaves)
    spine = ExplorationInstance(caterpillar, 0, 1)
    # the spine closed into a 5-cycle: every vertex odd, and not a tree
    closed = Multigraph(20, [(i, i + 1) for i in range(4)] + [(0, 4)] + leaves)
    ring = ExplorationInstance(closed, 0, 1)
    assert sum(caterpillar.degree(v) % 2 for v in range(caterpillar.n)) > exact._PAIRING_LIMIT
    assert sum(closed.degree(v) % 2 for v in range(closed.n)) == 20
    assert _postman_bound(star) == 36
    assert _postman_bound(spine) == 38  # CPP: 19 edges plus 19 of pairing
    assert _postman_bound(ring) == 30  # the fallback: 20 edges plus 10
    monkeypatch.setattr(exact, "_PAIRING_LIMIT", 10**6)
    assert _postman_bound(star) == 36
    assert _postman_bound(spine) == 38
    assert _postman_bound(ring) == 35  # CPP: 20 edges plus 15 of pairing
    # and below the limit the fallback never exceeds the exact pairing
    for inst in CASES:
        monkeypatch.setattr(exact, "_PAIRING_LIMIT", 10**6)
        paired = _postman_bound(inst)
        monkeypatch.setattr(exact, "_PAIRING_LIMIT", 0)
        assert _postman_bound(inst) <= paired


def euler_catalog(g, v_init):
    """(support, shortest length) of every closed-walk support, sorted the way
    the catalog is; a submask loop over 3^m (support, doubled set) pairs."""
    edges = g.edges
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
