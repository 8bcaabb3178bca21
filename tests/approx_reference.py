"""The approximate path before the cover tree's tour lists were built once
per solve: verbatim copies for differential tests.

`approx_solve` copies the tree into every robot's `Counter`;
`make_vc_even_degree` re-reads that multiset's parities and copies it again;
`find_eulerian_cycle` sorts and lists the whole multiset for its walk.
`solution_from_multisets` is copied too, so that it calls this module's
`find_eulerian_cycle`.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterable

from cge.approx import (
    deal_cover_edges,
    even_independent_degrees,
    partition_independent_edges,
    spanning_tree,
)
from cge.cover import connect_cover
from cge.errors import NotEulerian, OddDegree, StartNotInGraph, TreeNotSpanning
from cge.euler import RobotCycle, Solution, _tour_lists
from cge.graphs import EdgeMultiset, ExplorationInstance, odd_degree_vertices

_NOT_EULERIAN = "edge multiset is not connected with all degrees even"


def find_eulerian_cycle(edges: EdgeMultiset, start: int) -> RobotCycle:
    """The closed walk from `start` that traverses every edge exactly its count.

    Hierholzer's algorithm with deterministic tie-breaking: from the current
    vertex the least-id neighbor with remaining multiplicity is consumed
    first.  An empty multiset yields the trivial walk (start,).  The support
    is read once, by `_tour_lists`; the walk then costs O(1) per traversal
    plus one pop per exhausted list entry.
    """
    adj, remaining, odd = _tour_lists(edges)
    if not adj:
        return RobotCycle((start,))
    if start not in adj:
        raise StartNotInGraph(f"start vertex {start} is not on an edge")
    if odd:
        raise NotEulerian(_NOT_EULERIAN)

    # `trail` holds the open walk up to, not including, the current vertex v
    trail: list[int] = []
    path: list[int] = []
    v = start
    while True:
        lst = adj[v]
        while lst:
            w, j = lst[-1]
            if remaining[j]:
                remaining[j] -= 1
                trail.append(v)
                v = w
                break
            # exhausted from either end; counts never grow back
            lst.pop()
        else:
            path.append(v)
            if not trail:
                break
            v = trail.pop()
    # with every degree even the walk closes at the start after using every
    # copy it can reach, so a copy left over lies outside start's component
    if any(remaining):
        raise NotEulerian(_NOT_EULERIAN)
    path.reverse()
    return RobotCycle(tuple(path))


def solution_from_multisets(
    n: int, start: int, runs: Iterable[tuple[EdgeMultiset, int]], k: int
) -> Solution:
    """One run per (multiset, count) pair: `count` consecutive robots take
    the multiset's Eulerian cycle from `start`, walked once.

    An empty multiset gives the trivial walk (start,); so do the robots left
    beyond the pairs' counts up to k, as one last run.  A walk through a
    vertex outside 0..n-1 raises ValueError.
    """
    idle = RobotCycle((start,))
    out = []
    robots = 0
    for ms, count in runs:
        rc = idle
        if any(ms.values()):
            rc = find_eulerian_cycle(ms, start)
            if min(rc.walk) < 0 or max(rc.walk) >= n:
                raise ValueError(f"walk leaves vertices 0..{n - 1}")
        out.append((rc, count))
        robots += count
    if robots < k:
        out.append((idle, k - robots))
    return Solution(tuple(out))


def make_vc_even_degree(
    parent: dict[int, int], e: EdgeMultiset, vcp: tuple[int, ...]
) -> EdgeMultiset:
    """Add at most |cover| - 1 tree edges so every degree becomes even.

    `parent` lists a spanning tree of the cover parents first, as
    `spanning_tree` gives it, and `e` holds its edges; every vertex outside
    the cover must have even degree in `e`.  The edge from v to its parent
    gets one extra copy exactly when v's subtree holds an odd number of
    odd-degree vertices: the tree's only T-join, whatever its root.  One pass
    over `e` and one over the tree, children first, cost O(|e| + |cover|).
    """
    cset = set(vcp)
    if len(parent) != len(cset) - 1:
        raise TreeNotSpanning(f"{len(parent)} tree edges cannot span {len(cset)} cover vertices")
    odd = set(odd_degree_vertices(e))
    if not odd <= cset:
        raise OddDegree(f"vertex {min(odd - cset)} outside the cover has odd degree")
    result = Counter(e)
    for v, p in reversed(parent.items()):
        if v in odd:
            result[(v, p) if v < p else (p, v)] += 1
            if p in odd:
                odd.remove(p)
            else:
                odd.add(p)
    return result


def approx_solve(inst: ExplorationInstance, vc: tuple[int, ...]) -> Solution:
    """Run the full approximation pipeline and return a verified-shape solution."""
    g = inst.graph
    vcp = connect_cover(g, vc, inst.v_init)
    e_is, pairs = partition_independent_edges(g, vcp, even_independent_degrees(g, vcp), inst.k)
    deal_cover_edges(g, vcp, e_is, pairs, inst.k)
    parent = spanning_tree(g, set(vcp), inst.v_init)
    # sorted, so the keys a robot's tour sorts arrive mostly in order
    tree = sorted([(v, p) if v < p else (p, v) for v, p in parent.items()])

    def fixed(e_i: EdgeMultiset) -> EdgeMultiset:
        # one copy of the dealt edges plus the tree's keys, made when the
        # robot's turn comes and dropped after its tour
        ms = Counter(e_i)
        ms.update(tree)
        return make_vc_even_degree(parent, ms, vcp)

    runs = ((fixed(e_i), 1) for e_i in e_is)
    idle = inst.k - len(e_is)
    if idle:
        # robots past the dealt prefix hold no edges: one run walks the fixed tree
        runs = chain(runs, [(make_vc_even_degree(parent, Counter(tree), vcp), idle)])
    return solution_from_multisets(g.n, inst.v_init, runs, inst.k)
