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

from collections import Counter
from dataclasses import dataclass

from .errors import EmptyGraph, NotACover, TypeSpaceTooLarge
from .graphs import Multigraph


@dataclass(frozen=True)
class VertexCover:
    """A set of vertices touching every edge.

    `connected` records whether this cover was validated as an augmented
    cover: induced subgraph connected and containing the start vertex.
    """

    vertices: tuple[int, ...]
    connected: bool = False

    def __contains__(self, v: int) -> bool:
        return v in set(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def as_set(self) -> set[int]:
        return set(self.vertices)


@dataclass(frozen=True)
class EqClass:
    neighborhood: tuple[int, ...]  # sorted, subset of the cover
    members: tuple[int, ...]  # sorted independent vertices


@dataclass(frozen=True)
class EquivalenceClasses:
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
    return VertexCover(tuple(sorted(cover)), connected=False)


def connect_cover(g: Multigraph, vc: VertexCover, v_init: int) -> VertexCover:
    """Augment a cover so its induced subgraph is connected and contains v_init.

    Repeatedly scans the vertices outside the current cover in ascending id;
    a vertex adjacent to two different components is added and the components
    merge.  Because the complement of a cover is independent, every pair of
    cover components is bridged by a single outside vertex, so the loop makes
    progress whenever the host graph is connected.  Adds at most |vc| - 1
    connectors plus v_init.
    """
    if not is_cover(g, vc.vertices):
        raise NotACover(f"{vc.vertices} is not a vertex cover")
    current = set(vc.vertices) | {v_init}
    while True:
        comps = g.components(current)
        if len(comps) <= 1:
            break
        comp_id = {v: i for i, comp in enumerate(comps) for v in comp}
        added = False
        for v in range(g.n):
            if v in current:
                continue
            touched = {comp_id[w] for w in g.neighbors(v) if w in comp_id}
            if len(touched) >= 2:
                current.add(v)
                added = True
                break
        if not added:  # host graph disconnected
            raise NotACover("cannot connect cover: host graph is disconnected")
    return VertexCover(tuple(sorted(current)), connected=True)


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


@dataclass(frozen=True)
class QuotientGraph:
    """The simple graph with one fresh vertex per equivalence class."""

    graph: Multigraph
    class_vertex: tuple[int, ...]  # class index -> vertex id in `graph`


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


def num_ver(class_size: int, neighborhood_size: int, cover_size: int) -> int:
    """Number of copies the bounded expansion keeps for one class."""
    return min(class_size, 2 ** neighborhood_size + cover_size ** 2)


@dataclass(frozen=True)
class ExpandedGraph:
    """The bounded multigraph expansion: NumVer copies per class, edges doubled."""

    graph: Multigraph
    copies: tuple[tuple[int, ...], ...]  # class index -> copy vertex ids

    def class_of_copy(self) -> dict[int, int]:
        return {c: idx for idx, ids in enumerate(self.copies) for c in ids}


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
