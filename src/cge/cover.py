"""Vertex covers: the check, the factor-2 matching cover, and the connector
that makes a cover's induced subgraph connected and adds the start vertex.
A cover is the sorted tuple of its vertex ids.

The independent-vertex classes and the two graphs built from them serve only
the equation-system compiler; they live in `cge.fptilp.context`.
"""

from __future__ import annotations

from .errors import EmptyGraph, NotACover
from .graphs import Multigraph


def is_cover(g: Multigraph, vertices) -> bool:
    vs = set(vertices)
    return all(u in vs or v in vs for (u, v) in g.edges)


def vertex_cover_2approx(g: Multigraph) -> tuple[int, ...]:
    """Greedy maximal matching over edges in ascending (u, v) order; both
    endpoints of every matched edge enter the cover, sorted, giving the
    classic factor-2 guarantee.  Deterministic.
    """
    if g.n == 0:
        raise EmptyGraph("graph has no vertices")
    matched = [False] * g.n
    cover: list[int] = []
    for (u, v) in g.edges:
        if not matched[u] and not matched[v]:
            matched[u] = matched[v] = True
            cover.append(u)
            cover.append(v)
    return tuple(sorted(cover))


def connect_cover(g: Multigraph, vc: tuple[int, ...], v_init: int) -> tuple[int, ...]:
    """Augment a cover so its induced subgraph is connected and contains v_init.

    One ascending pass over the vertices outside the cover, with the cover's
    components in a union-find: a vertex adjacent to two or more components is
    added and they merge; the pass stops once one component is left.  Because
    the complement of a cover is independent, every pair of cover components
    is bridged by a single outside vertex, so a connected host graph always
    gets connected.  This is the cover the first qualifying vertex in id order
    would give, chosen again and again with the components recomputed each
    time: an outside vertex's neighbors all lie in the cover, so adding a
    connector only merges components, and a vertex that touched fewer than
    two components never touches two later.  Adds at most |vc| - 1 connectors
    plus v_init.
    """
    if not is_cover(g, vc):
        raise NotACover(f"{vc} is not a vertex cover")
    current = set(vc) | {v_init}
    comps = g.components(current)
    root = {v: comp[0] for comp in comps for v in comp}
    components = len(comps)

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for v in range(g.n):
        if components <= 1:
            break
        if v in current:
            continue
        touched = {find(w) for w in g.neighbors(v) if w in root}
        if len(touched) >= 2:
            current.add(v)
            root[v] = v
            for r in touched:
                root[r] = v
            components -= len(touched) - 1
    if components > 1:
        raise NotACover("cannot connect cover: host graph is disconnected")
    return tuple(sorted(current))
