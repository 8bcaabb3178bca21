"""Vertex covers, the independent-set equivalence classes, and the two
derived graphs used by the parameterized machinery.

The quotient graph keeps one representative vertex per equivalence class of
independent vertices (vertices outside the cover with identical
neighborhoods).  The bounded expansion keeps NumVer copies per class, where

    NumVer(class) = min(|class|, 2^|neighborhood| + |cover|^2),

and doubles every edge.  Both constructions assign fresh vertex ids above the
host graph's range and record the mapping.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import EmptyGraph, NotACover, TypeSpaceTooLarge
from .graphs import Multigraph

MAX_COVER = 6  # largest cover the bounded expansion is built for


class VertexCover(NamedTuple):
    """A set of vertices touching every edge."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def as_set(self) -> set[int]:
        return set(self.vertices)


class EqClass(NamedTuple):
    neighborhood: tuple[int, ...]  # sorted, subset of the cover
    members: tuple[int, ...]  # sorted independent vertices


class EquivalenceClasses(NamedTuple):
    """Partition of the independent vertices by open neighborhood."""

    classes: tuple[EqClass, ...]

    def class_of(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for idx, cls in enumerate(self.classes):
            for u in cls.members:
                out[u] = idx
        return out

    def __len__(self) -> int:
        return len(self.classes)


def is_cover(g: Multigraph, vertices) -> bool:
    vs = set(vertices)
    return all(u in vs or v in vs for (u, v) in g.distinct_edges())


def vertex_cover_2approx(g: Multigraph) -> VertexCover:
    """Greedy maximal matching over edges in ascending (u, v) order; both
    endpoints of every matched edge enter the cover, giving the classic
    factor-2 guarantee.  Deterministic.
    """
    if g.n == 0:
        raise EmptyGraph("graph has no vertices")
    matched = [False] * g.n
    cover: list[int] = []
    for (u, v) in g.distinct_edges():
        if not matched[u] and not matched[v]:
            matched[u] = matched[v] = True
            cover.append(u)
            cover.append(v)
    return VertexCover(tuple(sorted(cover)))


def connect_cover(g: Multigraph, vc: VertexCover, v_init: int) -> VertexCover:
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
    if not is_cover(g, vc.vertices):
        raise NotACover(f"{vc.vertices} is not a vertex cover")
    current = set(vc.vertices) | {v_init}
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
    return VertexCover(tuple(sorted(current)))


def equivalence_classes(g: Multigraph, vc: VertexCover) -> EquivalenceClasses:
    """Group the vertices outside the cover by open neighborhood.

    Classes are sorted lexicographically by neighborhood.  The cover property
    guarantees every neighborhood is a subset of the cover.
    """
    if not is_cover(g, vc.vertices):
        raise NotACover(f"{vc.vertices} is not a vertex cover")
    cset = vc.as_set()
    groups: dict[tuple[int, ...], list[int]] = {}
    for u in range(g.n):
        if u in cset:
            continue
        nb = tuple(g.neighbors(u))
        groups.setdefault(nb, []).append(u)
    classes = tuple(
        EqClass(nb, tuple(sorted(members))) for nb, members in sorted(groups.items())
    )
    return EquivalenceClasses(classes)


class QuotientGraph(NamedTuple):
    """The simple graph with one fresh vertex per equivalence class."""

    graph: Multigraph
    class_vertex: tuple[int, ...]  # class index -> vertex id in `graph`


def _class_graph(
    g: Multigraph, vc: VertexCover, eq: EquivalenceClasses, counts: list[int], multiplicity: int
) -> tuple[Multigraph, tuple[tuple[int, ...], ...]]:
    """All cover-internal edges of the host plus `counts[i]` fresh vertices for
    class i, numbered from `g.n` upward and each wired to the class
    neighborhood; every edge gets `multiplicity`.
    """
    cset = vc.as_set()
    edges = {(u, v): multiplicity for (u, v) in g.distinct_edges() if u in cset and v in cset}
    ids = []
    nxt = g.n
    for cls, count in zip(eq.classes, counts):
        ids.append(tuple(range(nxt, nxt + count)))
        nxt += count
        for cv in ids[-1]:
            for w in cls.neighborhood:  # a host vertex, so below every fresh id
                edges[(w, cv)] = multiplicity
    return Multigraph(nxt, edges), tuple(ids)


def build_equivalence_graph(g: Multigraph, vc: VertexCover, eq: EquivalenceClasses) -> QuotientGraph:
    """All cover-internal edges of the host plus one class vertex per class,
    wired to the class neighborhood; every multiplicity 1.
    """
    graph, ids = _class_graph(g, vc, eq, [1] * len(eq), 1)
    return QuotientGraph(graph, tuple(cv for (cv,) in ids))


def num_ver(class_size: int, neighborhood_size: int, cover_size: int) -> int:
    """Number of copies the bounded expansion keeps for one class."""
    return min(class_size, 2 ** neighborhood_size + cover_size ** 2)


class ExpandedGraph(NamedTuple):
    """The bounded multigraph expansion: NumVer copies per class, edges doubled."""

    graph: Multigraph
    copies: tuple[tuple[int, ...], ...]  # class index -> copy vertex ids

    def class_of_copy(self) -> dict[int, int]:
        return {c: idx for idx, ids in enumerate(self.copies) for c in ids}


def build_gbar(g: Multigraph, vc: VertexCover, eq: EquivalenceClasses) -> ExpandedGraph:
    """Build the doubled expansion graph.

    The construction is exponential in the neighborhood sizes by design;
    `MAX_COVER` refuses covers large enough to leave desk scale.
    """
    if len(vc) > MAX_COVER:
        raise TypeSpaceTooLarge(
            f"cover of size {len(vc)} exceeds the expansion cap {MAX_COVER}"
        )
    counts = [num_ver(len(c.members), len(c.neighborhood), len(vc)) for c in eq.classes]
    return ExpandedGraph(*_class_graph(g, vc, eq, counts, 2))
