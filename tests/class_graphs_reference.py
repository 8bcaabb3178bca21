"""The quotient graph and the bounded expansion as two separate loops, before
they shared one builder: copies for differential tests.  The graphs are
simple, so the expansion's edges carry no doubled count; the skeleton
enumeration takes each of them once or twice.

Both functions return the two records they returned then, defined here, and
read the classes as `eq.classes`: any object with that field will do.
"""

from __future__ import annotations

from typing import NamedTuple

from cge.errors import TypeSpaceTooLarge
from cge.fptilp.context import num_ver
from cge.graphs import Multigraph


class QuotientGraph(NamedTuple):
    """The simple graph with one fresh vertex per equivalence class."""

    graph: Multigraph
    class_vertex: tuple[int, ...]  # class index -> vertex id in `graph`


class ExpandedGraph(NamedTuple):
    """The bounded expansion: NumVer copies per class."""

    graph: Multigraph
    copies: tuple[tuple[int, ...], ...]  # class index -> copy vertex ids


def build_equivalence_graph(g: Multigraph, vc: tuple[int, ...], eq) -> QuotientGraph:
    """All cover-internal edges of the host plus one class vertex per class,
    wired to the class neighborhood.
    """
    cset = set(vc)
    edges: dict[tuple[int, int], int] = {}
    for (u, v) in g.edges:
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
    vc: tuple[int, ...],
    eq,
    max_cover: int = 6,
) -> ExpandedGraph:
    """Build the expansion graph.

    The construction is exponential in the neighborhood sizes by design;
    `max_cover` refuses covers large enough to leave desk scale.
    """
    if len(vc) > max_cover:
        raise TypeSpaceTooLarge(
            f"cover of size {len(vc)} exceeds the expansion cap {max_cover}"
        )
    cset = set(vc)
    edges: dict[tuple[int, int], int] = {}
    for (u, v) in g.edges:
        if u in cset and v in cset:
            edges[(u, v)] = 1
    copies: list[tuple[int, ...]] = []
    nxt = g.n
    for cls in eq.classes:
        count = num_ver(len(cls.members), len(cls.neighborhood), len(vc))
        ids = tuple(range(nxt, nxt + count))
        nxt += count
        copies.append(ids)
        for cv in ids:
            for w in cls.neighborhood:
                edges[(min(cv, w), max(cv, w))] = 1
    return ExpandedGraph(Multigraph(nxt, edges), tuple(copies))
