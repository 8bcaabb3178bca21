"""Additive approximation solver.

The algorithm works on edge multisets rather than walks: make the degree of
every independent vertex even by duplicating one incident edge, deal the
independent-incident edges to the robots in balanced pairs, deal the
cover-internal edges one at a time, then give every robot a spanning tree of
the induced cover graph, fix the cover parities against that tree, and read
off an Eulerian cycle per robot.  The value exceeds the optimum by at most
twice the size of the connected cover actually used.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cover import VertexCover, connect_cover
from .errors import TreeNotSpanning
from .euler import Solution, solution_from_multisets
from .graphs import (
    EdgeMultiset,
    ExplorationInstance,
    Multigraph,
    multiset_degree,
    norm_edge,
)


@dataclass
class PartitionState:
    """Intermediate state of the balanced partition, exposed for testing."""

    e_ind: EdgeMultiset
    e_i: list[EdgeMultiset]
    pairs_dealt: int


def even_independent_degrees(g: Multigraph, vcp: VertexCover) -> EdgeMultiset:
    """All edges with an endpoint outside the cover, plus one duplicate per
    odd-degree independent vertex (the edge to its lowest-id neighbor).
    """
    cset = vcp.as_set()
    e_ind: Counter = Counter()
    for (u, v) in g.distinct_edges():
        if u not in cset or v not in cset:
            e_ind[(u, v)] += 1
    for u in range(g.n):
        if u in cset:
            continue
        if g.degree(u) % 2 == 1:
            e_ind[norm_edge(u, g.neighbors(u)[0])] += 1
    return e_ind


def partition_independent_edges(
    g: Multigraph, vcp: VertexCover, e_ind: EdgeMultiset, k: int
) -> PartitionState:
    """Deal the independent-incident edges in pairs, round-robin over robots.

    Pairs are extracted per independent vertex in ascending id, its incident
    multiset sorted by neighbor id; moving a pair atomically keeps the vertex's
    degree even in every robot multiset.  Pair j goes to robot j mod k.
    """
    cset = vcp.as_set()
    work = Counter(e_ind)
    e_i: list[Counter] = [Counter() for _ in range(k)]
    j = 0
    for u in range(g.n):
        if u in cset:
            continue
        incident: list[tuple[int, int]] = []
        for w in g.neighbors(u):
            e = norm_edge(u, w)
            incident.extend([e] * work[e])
        for idx in range(0, len(incident) - 1, 2):
            robot = j % k
            e_i[robot][incident[idx]] += 1
            e_i[robot][incident[idx + 1]] += 1
            work[incident[idx]] -= 1
            work[incident[idx + 1]] -= 1
            j += 1
    return PartitionState(e_ind=work, e_i=e_i, pairs_dealt=j)


def deal_cover_edges(g: Multigraph, vcp: VertexCover, state: PartitionState) -> None:
    """Deal each cover-internal edge to a currently smallest multiset.

    The schedule is the O(1)-per-step equivalent of minimum selection: with
    t = pairs mod k robots holding one extra pair, first deal to robots
    t..k-1, then repeatedly from k-1 down to 0.
    """
    k = len(state.e_i)
    cset = vcp.as_set()
    singles = [e for e in g.distinct_edges() if e[0] in cset and e[1] in cset]
    t = state.pairs_dealt % k
    order = list(range(t, k))
    idx = 0
    for e in singles:
        if idx == len(order):
            order = list(range(k - 1, -1, -1))
            idx = 0
        state.e_i[order[idx]][e] += 1
        idx += 1


def spanning_tree(g: Multigraph, vertices: set[int], root: int) -> EdgeMultiset:
    """BFS tree of the induced subgraph, rooted at `root`, ascending neighbors."""
    tree: Counter = Counter()
    seen = {root}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for w in g.neighbors(v):
            if w in vertices and w not in seen:
                seen.add(w)
                tree[norm_edge(v, w)] += 1
                queue.append(w)
    if seen != vertices:
        raise TreeNotSpanning(f"cover subgraph is not connected over {sorted(vertices)}")
    return tree


def make_vc_even_degree(
    tree: EdgeMultiset, e: EdgeMultiset, vcp: VertexCover
) -> EdgeMultiset:
    """Add at most |cover| tree edges so every degree becomes even.

    Processes the lowest-id leaf of the shrinking tree each iteration; a leaf
    with odd degree gets one extra copy of its tree edge before removal.  The
    parity of the last remaining vertex self-corrects because the number of
    odd-degree vertices in any multigraph is even.
    """
    cset = vcp.as_set()
    tree_adj: dict[int, set[int]] = {v: set() for v in cset}
    for (u, v), m in tree.items():
        if m:
            if u not in cset or v not in cset:
                raise TreeNotSpanning(f"tree edge {(u, v)} leaves the cover")
            tree_adj[u].add(v)
            tree_adj[v].add(u)
    if len(cset) > 1:
        comp = {min(cset)}
        stack = [min(cset)]
        while stack:
            v = stack.pop()
            for w in tree_adj[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        if comp != cset:
            raise TreeNotSpanning("tree does not span the cover")
    for edge, m in tree.items():
        if m and e[edge] < m:
            raise TreeNotSpanning(f"tree edge {edge} missing from the multiset")

    result = Counter(e)
    alive = set(cset)
    deg = {v: multiset_degree(result, v) for v in alive}
    while len(alive) >= 2:
        leaf = min(v for v in alive if len(tree_adj[v]) == 1)
        if deg[leaf] % 2 == 1:
            nbr = next(iter(tree_adj[leaf]))
            result[norm_edge(leaf, nbr)] += 1
            deg[leaf] += 1
            deg[nbr] += 1
        nbr = next(iter(tree_adj[leaf]))
        tree_adj[nbr].discard(leaf)
        del tree_adj[leaf]
        alive.discard(leaf)
    return result


def approx_solve(inst: ExplorationInstance, vc: VertexCover) -> Solution:
    """Run the full approximation pipeline and return a verified-shape solution."""
    g = inst.graph
    vcp = connect_cover(g, vc, inst.v_init)
    e_ind = even_independent_degrees(g, vcp)
    state = partition_independent_edges(g, vcp, e_ind, inst.k)
    deal_cover_edges(g, vcp, state)
    cset = vcp.as_set()
    tree = spanning_tree(g, cset, inst.v_init) if len(cset) > 1 else Counter()
    multisets = (make_vc_even_degree(tree, e_i + tree, vcp) for e_i in state.e_i)
    return solution_from_multisets(g.n, inst.v_init, multisets, inst.k)
