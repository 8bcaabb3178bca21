"""The quotient graph and the bounded expansion as two separate loops, before
they shared one builder: verbatim copies for differential tests.
"""

from __future__ import annotations

from collections import Counter

from cge.cover import (
    EquivalenceClasses,
    ExpandedGraph,
    QuotientGraph,
    VertexCover,
    num_ver,
)
from cge.errors import TypeSpaceTooLarge
from cge.graphs import Multigraph


def build_equivalence_graph(g: Multigraph, vc: VertexCover, eq: EquivalenceClasses) -> QuotientGraph:
    """All cover-internal edges of the host plus one class vertex per class,
    wired to the class neighborhood; every multiplicity 1.
    """
    cset = vc.as_set()
    edges: dict[tuple[int, int], int] = {}
    for (u, v) in g.distinct_edges():
        if u in cset and v in cset:
            edges[(u, v)] = 1
    class_vertex = []
    nxt = g.n
    for cls in eq.classes:
        cv = nxt
        nxt += 1
        class_vertex.append(cv)
        for w in cls.neighborhood:
            edges[(min(cv, w), max(cv, w))] = 1
    return QuotientGraph(Multigraph(nxt, edges), tuple(class_vertex))


def build_gbar(
    g: Multigraph,
    vc: VertexCover,
    eq: EquivalenceClasses,
    max_cover: int = 6,
) -> ExpandedGraph:
    """Build the doubled expansion graph.

    The construction is exponential in the neighborhood sizes by design;
    `max_cover` refuses covers large enough to leave desk scale.
    """
    if len(vc) > max_cover:
        raise TypeSpaceTooLarge(
            f"cover of size {len(vc)} exceeds the expansion cap {max_cover}"
        )
    cset = vc.as_set()
    edges: Counter = Counter()
    for (u, v) in g.distinct_edges():
        if u in cset and v in cset:
            edges[(u, v)] = 2
    copies: list[tuple[int, ...]] = []
    nxt = g.n
    for cls in eq.classes:
        count = num_ver(len(cls.members), len(cls.neighborhood), len(vc))
        ids = tuple(range(nxt, nxt + count))
        nxt += count
        copies.append(ids)
        for cv in ids:
            for w in cls.neighborhood:
                edges[(min(cv, w), max(cv, w))] = 2
    return ExpandedGraph(Multigraph(nxt, edges), tuple(copies))
