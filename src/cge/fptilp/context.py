"""Shared construction context for the parameterized pipeline.

Bundles the instance with its connected cover, the independent-vertex
equivalence classes, the quotient graph, and the bounded expansion so the
type derivations and the equation builder agree on vertex ids and class
indexing.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from ..cover import (
    EquivalenceClasses,
    ExpandedGraph,
    QuotientGraph,
    VertexCover,
    build_equivalence_graph,
    build_gbar,
    equivalence_classes,
)
from ..errors import PreconditionViolated
from ..graphs import ExplorationInstance


class _ContextFields(NamedTuple):
    instance: ExplorationInstance
    vcp: VertexCover
    eq: EquivalenceClasses
    gstar: QuotientGraph
    gbar: ExpandedGraph


class FptContext(_ContextFields):
    # no __slots__: the cached properties live in the instance __dict__

    @classmethod
    def build(cls, inst: ExplorationInstance, vcp: VertexCover) -> "FptContext":
        if inst.v_init not in vcp.as_set():
            raise PreconditionViolated("the cover must contain the start vertex")
        if inst.budget is None:
            raise PreconditionViolated("a budget is required to build the equations")
        eq = equivalence_classes(inst.graph, vcp)
        gstar = build_equivalence_graph(inst.graph, vcp, eq)
        gbar = build_gbar(inst.graph, vcp, eq)
        return cls(inst, vcp, eq, gstar, gbar)

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
        return frozenset(self.vcp.vertices)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        """The graph's edges, for membership tests."""
        return frozenset(self.g.edges)

    @cached_property
    def class_of(self) -> dict[int, int]:
        """Independent vertex -> class index."""
        return self.eq.class_of()

    @cached_property
    def class_of_star_vertex(self) -> dict[int, int]:
        """Quotient-graph class vertex id -> class index."""
        return {cv: idx for idx, cv in enumerate(self.gstar.class_vertex)}

    @cached_property
    def class_of_copy(self) -> dict[int, int]:
        """Expansion copy vertex id -> class index."""
        return self.gbar.class_of_copy()

    @cached_property
    def cycle_length_slots(self) -> tuple[int, ...]:
        """Cycle lengths tracked per robot type: 2..2|cover| without 4."""
        top = 2 * len(self.vcp)
        return tuple(j for j in range(2, top + 1) if j != 4)

    @property
    def max_cycle_length(self) -> int:
        return max(4, 2 * len(self.vcp))
