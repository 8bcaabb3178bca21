"""Eulerian tours and degree parities before the tour builder took one pass
over the sorted support: verbatim copies for differential tests.

`_neighbour_lists` appends (neighbour, edge key) pairs per vertex, and
`find_eulerian_cycle` walks them with a dict of remaining counts and a
pointer per vertex; both callers test parity with `odd_degree_vertices`,
which toggles a two-element set per odd edge.
"""

from __future__ import annotations

from cge.errors import NotEulerian, StartNotInGraph
from cge.euler import RobotCycle
from cge.graphs import Edge, EdgeMultiset


def odd_degree_vertices(edges: EdgeMultiset) -> list[int]:
    """Vertices of odd degree in the multiset, ascending."""
    # a copy of an edge adds one to the degree of each end and a loop two to
    # its vertex's, so only odd counts of non-loop edges flip a parity
    odd: set[int] = set()
    for (a, b), m in edges.items():
        if m > 0 and m % 2 and a != b:
            odd ^= {a, b}
    return sorted(odd)


def _neighbour_lists(edges: EdgeMultiset) -> dict[int, list[tuple[int, Edge]]]:
    """Ascending neighbour lists of the multiset's support; each entry carries
    its edge's key.  Counts at or below zero are absent.

    Keys must be normalized pairs (u < v): one pass over the sorted keys then
    appends every vertex's lesser neighbours before its greater ones, each
    group ascending.
    """
    adj: dict[int, list[tuple[int, Edge]]] = {}
    for e in sorted(edges):
        if edges[e] > 0:
            a, b = e
            if not a < b:
                raise ValueError(f"edge {e} is not a normalized pair")
            adj.setdefault(a, []).append((b, e))
            adj.setdefault(b, []).append((a, e))
    return adj


def closed_walk_faults(edges: EdgeMultiset, start: int) -> list[str]:
    """Why an edge multiset is not one robot's closed walk from `start`.

    A subset of "is empty", "is not connected", "misses the start vertex" and
    "has an odd degree", in that order; an empty list means the multiset is
    the traversal count of such a walk.
    """
    adj = _neighbour_lists(edges)
    if not adj:
        return ["is empty"]
    faults = []
    seen = {next(iter(adj))}
    todo = list(seen)
    while todo:
        for w, _ in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    if len(seen) != len(adj):
        faults.append("is not connected")
    if start not in adj:
        faults.append("misses the start vertex")
    if odd_degree_vertices(edges):
        faults.append("has an odd degree")
    return faults


_NOT_EULERIAN = "edge multiset is not connected with all degrees even"


def find_eulerian_cycle(edges: EdgeMultiset, start: int) -> RobotCycle:
    """The closed walk from `start` that traverses every edge exactly its count.

    Hierholzer's algorithm with deterministic tie-breaking: from the current
    vertex the least-id neighbor with remaining multiplicity is consumed
    first.  An empty multiset yields the trivial walk (start,).
    """
    adj = _neighbour_lists(edges)
    if not adj:
        return RobotCycle((start,))
    if start not in adj:
        raise StartNotInGraph(f"start vertex {start} is not on an edge")
    if odd_degree_vertices(edges):
        raise NotEulerian(_NOT_EULERIAN)

    remaining = dict(edges)
    ptr = dict.fromkeys(adj, 0)
    stack = [start]
    path: list[int] = []
    while stack:
        v = stack[-1]
        lst = adj[v]
        i = ptr[v]
        # advance past exhausted edges; pointers only move forward because
        # multiplicities never grow back
        while i < len(lst) and not remaining[lst[i][1]]:
            i += 1
        ptr[v] = i
        if i < len(lst):
            w, e = lst[i]
            remaining[e] -= 1
            stack.append(w)
        else:
            path.append(stack.pop())
    # with every degree even the walk closes at the start after using every
    # copy it can reach, so a copy left over lies outside start's component
    if max(remaining.values()) > 0:
        raise NotEulerian(_NOT_EULERIAN)
    path.reverse()
    return RobotCycle(tuple(path))
