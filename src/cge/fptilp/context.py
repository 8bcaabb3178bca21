"""Shared construction context for the parameterized pipeline.

Bundles the instance with its connected cover, the independent-vertex
equivalence classes, the quotient graph, and the bounded expansion so the
type derivations and the equation builder agree on vertex ids and class
indexing.

The quotient graph keeps one representative vertex per equivalence class of
independent vertices (vertices outside the cover with identical
neighborhoods).  The bounded expansion keeps NumVer copies per class, where

    NumVer(class) = min(|class|, 2^|neighborhood| + |cover|^2).

Both are simple graphs.  The expansion's doubling is not stored: the skeleton
enumeration takes each of its edges once or twice.  Both constructions assign
fresh vertex ids above the host graph's range and record the mapping.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from ..errors import PreconditionViolated, TypeSpaceTooLarge
from ..graphs import ExplorationInstance, Multigraph

MAX_COVER = 6  # largest cover the bounded expansion is built for


class EqClass(NamedTuple):
    neighborhood: tuple[int, ...]  # sorted, subset of the cover
    members: tuple[int, ...]  # sorted independent vertices


def equivalence_classes(g: Multigraph, vc: tuple[int, ...]) -> tuple[EqClass, ...]:
    """Group the vertices outside the cover by open neighborhood.

    Classes are sorted lexicographically by neighborhood.  `vc` must be a
    cover, as `connect_cover` has checked, so every neighborhood is a subset
    of it.
    """
    cset = set(vc)
    groups: dict[tuple[int, ...], list[int]] = {}
    for u in range(g.n):
        if u in cset:
            continue
        nb = g.neighbors(u)
        groups.setdefault(nb, []).append(u)
    return tuple(
        EqClass(nb, tuple(sorted(members))) for nb, members in sorted(groups.items())
    )


def _class_graph(
    g: Multigraph, vc: tuple[int, ...], classes: tuple[EqClass, ...], counts: list[int]
) -> tuple[Multigraph, tuple[tuple[int, ...], ...]]:
    """All cover-internal edges of the host plus `counts[i]` fresh vertices for
    class i, numbered from `g.n` upward and each wired to the class
    neighborhood.

    The pairs come in the ascending order `Multigraph` keeps as given: each
    cover vertex's higher cover neighbours, then its copies, class by class.
    """
    cset = set(vc)
    ids = []
    copies: dict[int, list[int]] = {w: [] for w in cset}
    nxt = g.n
    for cls, count in zip(classes, counts):
        ids.append(tuple(range(nxt, nxt + count)))
        nxt += count
        for w in cls.neighborhood:
            copies[w] += ids[-1]
    edges = []
    for w in sorted(cset):
        edges += [(w, v) for v in g.neighbors(w) if v > w and v in cset]
        edges += [(w, c) for c in copies[w]]
    return Multigraph(nxt, edges), tuple(ids)


def build_equivalence_graph(
    g: Multigraph, vc: tuple[int, ...], classes: tuple[EqClass, ...]
) -> tuple[Multigraph, tuple[int, ...]]:
    """All cover-internal edges of the host plus one class vertex per class,
    wired to the class neighborhood; returns the graph and the class vertex
    of each class.
    """
    graph, ids = _class_graph(g, vc, classes, [1] * len(classes))
    return graph, tuple(cv for (cv,) in ids)


def num_ver(class_size: int, neighborhood_size: int, cover_size: int) -> int:
    """Number of copies the bounded expansion keeps for one class."""
    return min(class_size, 2 ** neighborhood_size + cover_size ** 2)


def build_gbar(
    g: Multigraph, vc: tuple[int, ...], classes: tuple[EqClass, ...]
) -> tuple[Multigraph, tuple[tuple[int, ...], ...]]:
    """Build the expansion graph; returns the graph and the copy vertices of
    each class.

    The construction is exponential in the neighborhood sizes by design;
    `MAX_COVER` refuses covers large enough to leave desk scale.
    """
    if len(vc) > MAX_COVER:
        raise TypeSpaceTooLarge(
            f"cover of size {len(vc)} exceeds the expansion cap {MAX_COVER}"
        )
    counts = [num_ver(len(c.members), len(c.neighborhood), len(vc)) for c in classes]
    return _class_graph(g, vc, classes, counts)


class _ContextFields(NamedTuple):
    instance: ExplorationInstance
    vcp: tuple[int, ...]
    classes: tuple[EqClass, ...]
    gstar: Multigraph  # the quotient graph
    class_vertex: tuple[int, ...]  # class index -> vertex id in `gstar`
    gbar: Multigraph  # the bounded expansion
    copies: tuple[tuple[int, ...], ...]  # class index -> copy vertex ids in `gbar`


class FptContext(_ContextFields):
    # no __slots__: the cached properties live in the instance __dict__

    @classmethod
    def build(cls, inst: ExplorationInstance, vcp: tuple[int, ...]) -> "FptContext":
        if inst.v_init not in vcp:
            raise PreconditionViolated("the cover must contain the start vertex")
        if inst.budget is None:
            raise PreconditionViolated("a budget is required to build the equations")
        g = inst.graph
        classes = equivalence_classes(g, vcp)
        return cls(inst, vcp, classes, *build_equivalence_graph(g, vcp, classes),
                   *build_gbar(g, vcp, classes))

    @property
    def g(self):
        return self.instance.graph

    @property
    def v_init(self) -> int:
        return self.instance.v_init

    @property
    def k(self) -> int:
        return self.instance.k

    @property
    def budget(self) -> int:
        return self.instance.budget

    @cached_property
    def cover_set(self) -> frozenset[int]:
        return frozenset(self.vcp)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        """The graph's edges, for membership tests."""
        return frozenset(self.g.edges)

    @cached_property
    def class_of(self) -> dict[int, int]:
        """Independent vertex -> class index."""
        return {u: idx for idx, cls in enumerate(self.classes) for u in cls.members}

    @cached_property
    def class_of_star_vertex(self) -> dict[int, int]:
        """Quotient-graph class vertex id -> class index."""
        return {cv: idx for idx, cv in enumerate(self.class_vertex)}

    @cached_property
    def class_of_copy(self) -> dict[int, int]:
        """Expansion copy vertex id -> class index."""
        return {c: idx for idx, ids in enumerate(self.copies) for c in ids}

    @cached_property
    def cycle_length_slots(self) -> tuple[int, ...]:
        """Cycle lengths tracked per robot type: 2..2|cover| without 4."""
        top = 2 * len(self.vcp)
        return tuple(j for j in range(2, top + 1) if j != 4)

    @property
    def max_cycle_length(self) -> int:
        return max(4, 2 * len(self.vcp))
