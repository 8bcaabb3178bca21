"""Additive approximation solver.

The algorithm works on edge multisets rather than walks: make the degree of
every independent vertex even by duplicating one incident edge, deal the
independent-incident edges to the robots in balanced pairs, deal the
cover-internal edges one at a time, then give every robot the one BFS tree of
the induced cover graph, fix the cover parities against that tree in one
children-first pass, and read off an Eulerian cycle per robot.  The tree's
tour lists, counts and odd-degree set are built once per solve, and each
robot adds only its own edges to them.  The fix is the tree's unique T-join,
so it does not depend on where the tree is rooted.  The value exceeds the
optimum by at most twice the size of the connected cover actually used.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain, cycle

from .cover import connect_cover
from .errors import OddDegree, TreeNotSpanning
from .euler import Solution, tour_walk
from .graphs import (
    EdgeMultiset,
    ExplorationInstance,
    Multigraph,
    norm_edge,
    odd_degree_vertices,
)


def even_independent_degrees(g: Multigraph, vcp: tuple[int, ...]) -> EdgeMultiset:
    """All edges with an endpoint outside the cover, plus one duplicate per
    odd-degree independent vertex (the edge to its lowest-id neighbor).
    """
    cset = set(vcp)
    e_ind: Counter = Counter()
    for (u, v) in g.edges:
        if u not in cset or v not in cset:
            e_ind[(u, v)] += 1
    for u in range(g.n):
        if u not in cset and g.degree(u) % 2 == 1:
            e_ind[norm_edge(u, g.neighbors(u)[0])] += 1
    return e_ind


def partition_independent_edges(
    g: Multigraph, vcp: tuple[int, ...], e_ind: EdgeMultiset, k: int
) -> tuple[list[EdgeMultiset], int]:
    """Deal the independent-incident edges in pairs, round-robin over robots.

    Pairs are extracted per independent vertex in ascending id, its incident
    multiset sorted by neighbor id; moving a pair atomically keeps the vertex's
    degree even in every robot multiset.  Pair j goes to robot j mod k, so
    the robots dealt a pair are the first min(k, pairs).  Returns the dealt
    robots' multisets, robots 0, 1, ... in order (the other robots of the k
    hold nothing), and the number of pairs dealt.
    """
    cset = set(vcp)
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
    return e_i, j


def deal_cover_edges(
    g: Multigraph, vcp: tuple[int, ...], e_i: list[EdgeMultiset], pairs: int, k: int
) -> None:
    """Deal each cover-internal edge to a currently smallest multiset of
    `e_i`, as `partition_independent_edges` left it after `pairs` pairs.

    The schedule is the O(1)-per-step equivalent of minimum selection: with
    t = pairs mod k robots holding one extra pair, first deal to robots
    t..k-1, then repeatedly from k-1 down to 0.  Robot t is the first without
    a pair when pairs < k, so the robots holding edges stay a prefix, of
    length min(k, pairs + cover-internal edges).
    """
    cset = set(vcp)
    singles = [e for e in g.edges if e[0] in cset and e[1] in cset]
    t = pairs % k
    robots = chain(range(t, k), cycle(range(k - 1, -1, -1)))
    for e, robot in zip(singles, robots):
        if robot == len(e_i):
            e_i.append(Counter())
        e_i[robot][e] += 1


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


def _fix_parities(parent: dict[int, int], odd: set[int], counts, cset: set[int]) -> None:
    """Add to `counts[v]` one copy of the edge from v to its parent exactly
    when v's subtree holds an odd number of the `odd` vertices, all in the
    tree `parent` lists parents first: the tree's only T-join, whatever its
    root.  `odd` is left holding the vertices still odd."""
    if not odd <= cset:
        raise OddDegree(f"vertex {min(odd - cset)} outside the cover has odd degree")
    for v, p in reversed(parent.items()):  # children first
        if v in odd:
            counts[v] += 1
            odd.remove(v)
            if p in odd:
                odd.remove(p)
            else:
                odd.add(p)


def make_vc_even_degree(
    parent: dict[int, int], e: EdgeMultiset, vcp: tuple[int, ...]
) -> EdgeMultiset:
    """Add at most |cover| - 1 tree edges so every degree becomes even.

    `parent` lists a spanning tree of the cover parents first, as
    `spanning_tree` gives it, and `e` holds its edges; every vertex outside
    the cover must have even degree in `e`.  The copies are `_fix_parities`'
    T-join, added children first.  One pass over `e` and one over the tree
    cost O(|e| + |cover|).
    """
    cset = set(vcp)
    if len(parent) != len(cset) - 1:
        raise TreeNotSpanning(f"{len(parent)} tree edges cannot span {len(cset)} cover vertices")
    fix = dict.fromkeys(parent, 0)
    _fix_parities(parent, set(odd_degree_vertices(e)), fix, cset)
    result = Counter(e)
    result.update((v, p) if v < p else (p, v) for v, p in reversed(parent.items()) if fix[v])
    return result


def approx_solve(inst: ExplorationInstance, vc: tuple[int, ...]) -> Solution:
    """Run the full approximation pipeline and return a verified-shape solution."""
    g = inst.graph
    vcp = connect_cover(g, vc, inst.v_init)
    cset = set(vcp)
    e_i, pairs = partition_independent_edges(g, vcp, even_independent_degrees(g, vcp), inst.k)
    deal_cover_edges(g, vcp, e_i, pairs, inst.k)
    parent = spanning_tree(g, cset, inst.v_init)
    # built once: the edge from tree vertex v to its parent has index v, and
    # every tree vertex lists its (tree neighbour, index) pairs descending
    ones = [int(v in parent) for v in range(g.n)]
    adj: dict[int, list[tuple[int, int]]] = {}
    for v, p in parent.items():
        adj.setdefault(v, []).append((p, v))
        adj.setdefault(p, []).append((v, v))
    tree_lists = [tuple(sorted(lst, reverse=True)) for lst in adj.values()]
    tree_odd = {v for v, lst in adj.items() if len(lst) & 1}
    for lst in adj.values():
        lst.clear()  # refilled per robot; every walk empties it

    def tour(dealt: EdgeMultiset):
        counts = ones.copy()
        for lst, tree_lst in zip(adj.values(), tree_lists):
            lst += tree_lst
        odd = set(tree_odd)
        grown = set()
        for (a, b), m in dealt.items():
            if parent.get(b) == a:
                counts[b] += m
            elif parent.get(a) == b:
                counts[a] += m
            else:  # a new entry, merged into both lists by the sort below
                adj.setdefault(a, []).append((b, len(counts)))
                adj.setdefault(b, []).append((a, len(counts)))
                counts.append(m)
                grown.update((a, b))
            if m & 1:
                odd ^= {a, b}
        for v in grown:
            adj[v].sort(reverse=True)
        _fix_parities(parent, odd, counts, cset)
        return tour_walk(adj, counts, odd, inst.v_init)

    runs = [(tour(robot), 1) for robot in e_i]
    if inst.k > len(e_i):
        # robots past the dealt prefix hold no edges: one run walks the fixed tree
        runs.append((tour({}), inst.k - len(e_i)))
    return Solution(tuple(runs))
