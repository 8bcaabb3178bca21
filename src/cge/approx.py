"""Additive approximation solver.

The algorithm works on edge multisets rather than walks: make the degree of
every independent vertex even by duplicating one incident edge, deal the
independent-incident edges to the robots in balanced pairs, deal the
cover-internal edges one at a time, then give every robot the one BFS tree of
the induced cover graph built per solve, fix the cover parities against that
tree in one children-first pass, and read off an Eulerian cycle per robot.
The fix is the tree's unique T-join, so it does not depend on where the tree
is rooted.  The value exceeds the optimum by at most twice the size of the
connected cover actually used.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain, cycle
from typing import NamedTuple

from .cover import VertexCover, connect_cover
from .errors import OddDegree, TreeNotSpanning
from .euler import Solution, solution_from_multisets
from .graphs import (
    EdgeMultiset,
    ExplorationInstance,
    Multigraph,
    norm_edge,
    odd_degree_vertices,
)


class PartitionState(NamedTuple):
    """Intermediate state of the balanced partition, exposed for testing.

    `e_i` holds only the robots dealt edges so far, always robots 0, 1, ...
    in order; the other robots of the k hold nothing.
    """

    e_i: list[EdgeMultiset]
    pairs_dealt: int
    k: int


def even_independent_degrees(g: Multigraph, vcp: VertexCover) -> EdgeMultiset:
    """All edges with an endpoint outside the cover, plus one duplicate per
    odd-degree independent vertex (the edge to its lowest-id neighbor).
    """
    cset = vcp.as_set()
    e_ind: Counter = Counter()
    for (u, v) in g.edges:
        if u not in cset or v not in cset:
            e_ind[(u, v)] += 1
    for u in range(g.n):
        if u not in cset and g.degree(u) % 2 == 1:
            e_ind[norm_edge(u, g.neighbors(u)[0])] += 1
    return e_ind


def partition_independent_edges(
    g: Multigraph, vcp: VertexCover, e_ind: EdgeMultiset, k: int
) -> PartitionState:
    """Deal the independent-incident edges in pairs, round-robin over robots.

    Pairs are extracted per independent vertex in ascending id, its incident
    multiset sorted by neighbor id; moving a pair atomically keeps the vertex's
    degree even in every robot multiset.  Pair j goes to robot j mod k, so
    the robots dealt a pair are the first min(k, pairs).
    """
    cset = vcp.as_set()
    e_i: list[Counter] = []
    j = 0
    for u in range(g.n):
        if u in cset:
            continue
        incident: list[tuple[int, int]] = []
        for w in g.neighbors(u):
            e = norm_edge(u, w)
            incident.extend([e] * e_ind[e])
        for idx in range(0, len(incident) - 1, 2):
            if j < k:
                e_i.append(Counter())
            robot = e_i[j % k]
            robot[incident[idx]] += 1
            robot[incident[idx + 1]] += 1
            j += 1
    return PartitionState(e_i=e_i, pairs_dealt=j, k=k)


def deal_cover_edges(g: Multigraph, vcp: VertexCover, state: PartitionState) -> None:
    """Deal each cover-internal edge to a currently smallest multiset.

    The schedule is the O(1)-per-step equivalent of minimum selection: with
    t = pairs mod k robots holding one extra pair, first deal to robots
    t..k-1, then repeatedly from k-1 down to 0.  Robot t is the first without
    a pair when pairs < k, so the robots holding edges stay a prefix, of
    length min(k, pairs + cover-internal edges).
    """
    k = state.k
    cset = vcp.as_set()
    singles = [e for e in g.edges if e[0] in cset and e[1] in cset]
    t = state.pairs_dealt % k
    robots = chain(range(t, k), cycle(range(k - 1, -1, -1)))
    for e, robot in zip(singles, robots):
        if robot == len(state.e_i):
            state.e_i.append(Counter())
        state.e_i[robot][e] += 1


def spanning_tree(g: Multigraph, vertices: set[int], root: int) -> dict[int, int]:
    """BFS tree of the induced subgraph from `root`, ascending neighbors, as
    each other vertex's parent in the order the BFS reaches them."""
    parent: dict[int, int] = {}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w in vertices and w not in parent and w != root:
                parent[w] = v
                queue.append(w)
    if parent.keys() | {root} != vertices:
        raise TreeNotSpanning(f"cover subgraph is not connected over {sorted(vertices)}")
    return parent


def make_vc_even_degree(
    parent: dict[int, int], e: EdgeMultiset, vcp: VertexCover
) -> EdgeMultiset:
    """Add at most |cover| - 1 tree edges so every degree becomes even.

    `parent` lists a spanning tree of the cover parents first, as
    `spanning_tree` gives it, and `e` holds its edges; every vertex outside
    the cover must have even degree in `e`.  The edge from v to its parent
    gets one extra copy exactly when v's subtree holds an odd number of
    odd-degree vertices: the tree's only T-join, whatever its root.  One pass
    over `e` and one over the tree, children first, cost O(|e| + |cover|).
    """
    cset = vcp.as_set()
    if len(parent) != len(cset) - 1:
        raise TreeNotSpanning(f"{len(parent)} tree edges cannot span {len(cset)} cover vertices")
    odd = set(odd_degree_vertices(e))
    if odd - cset:
        raise OddDegree(f"vertex {min(odd - cset)} outside the cover has odd degree")
    result = Counter(e)
    for v, p in reversed(parent.items()):
        if v in odd:
            result[norm_edge(v, p)] += 1
            odd ^= {p}
    return result


def approx_solve(inst: ExplorationInstance, vc: VertexCover) -> Solution:
    """Run the full approximation pipeline and return a verified-shape solution."""
    g = inst.graph
    vcp = connect_cover(g, vc, inst.v_init)
    state = partition_independent_edges(g, vcp, even_independent_degrees(g, vcp), inst.k)
    deal_cover_edges(g, vcp, state)
    parent = spanning_tree(g, vcp.as_set(), inst.v_init)
    tree = Counter(norm_edge(v, p) for v, p in parent.items())
    runs = ((make_vc_even_degree(parent, e_i + tree, vcp), 1) for e_i in state.e_i)
    idle = inst.k - len(state.e_i)
    if idle:
        # robots past the dealt prefix hold no edges: one run walks the fixed tree
        runs = chain(runs, [(make_vc_even_degree(parent, tree, vcp), idle)])
    return solution_from_multisets(g.n, inst.v_init, runs, inst.k)
