"""Eulerian cycles, robot walks, and full solution verification.

A robot cycle is a closed walk starting and ending at the start vertex; its
edge multiset records traversal counts.  A multiset is realizable as a robot
cycle exactly when its spanned multigraph is connected, contains the start
vertex, and has all degrees even; the conversion in both directions lives
here.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import NotEulerian, StartNotInGraph
from .graphs import (
    EdgeMultiset,
    ExplorationInstance,
    Multigraph,
    graph_of_multiset,
    norm_edge,
    walk_edges,
)


@dataclass(frozen=True)
class RobotCycle:
    """A closed walk (v_0, ..., v_l) with v_0 = v_l; length counts traversals."""

    walk: tuple[int, ...]

    def __post_init__(self):
        if len(self.walk) == 0:
            raise ValueError("walk must contain at least the start vertex")
        if self.walk[0] != self.walk[-1]:
            raise ValueError("walk must start and end at the same vertex")

    @property
    def start(self) -> int:
        return self.walk[0]

    @property
    def length(self) -> int:
        return len(self.walk) - 1

    def edge_multiset(self) -> EdgeMultiset:
        return walk_edges(self.walk)


def cycle_to_graph(rc: RobotCycle, n: int | None = None) -> Multigraph:
    """The multigraph whose edge multiplicities are the walk's traversal counts.

    The walk is an Eulerian cycle of the result.
    """
    if n is None:
        n = max(rc.walk) + 1
    return Multigraph.from_counter(n, rc.edge_multiset())


def has_eulerian_cycle(g: Multigraph) -> bool:
    """True iff the non-isolated part is connected and every degree is even.

    The empty graph qualifies.
    """
    if any(g.degree(v) % 2 for v in range(g.n)):
        return False
    return g.is_connected()


def find_eulerian_cycle(g: Multigraph, start: int) -> RobotCycle:
    """Hierholzer's algorithm with deterministic tie-breaking.

    From the current vertex the least-id neighbor with remaining multiplicity
    is consumed first.  An empty graph yields the trivial walk (start,).
    """
    if not (0 <= start < g.n):
        raise StartNotInGraph(f"start vertex {start} out of range")
    if g.num_edges == 0:
        return RobotCycle((start,))
    if g.degree(start) == 0:
        raise StartNotInGraph(f"start vertex {start} is isolated")
    if not has_eulerian_cycle(g):
        raise NotEulerian("graph is not connected with all degrees even")

    remaining = {e: m for e, m in g.edge_items()}
    nbrs = {v: g.neighbors(v) for v in g.active_vertices()}
    ptr = {v: 0 for v in nbrs}

    stack = [start]
    path: list[int] = []
    while stack:
        v = stack[-1]
        lst = nbrs.get(v, ())
        i = ptr.get(v, 0)
        # advance past exhausted neighbors; pointers only move forward because
        # multiplicities never grow back
        while i < len(lst) and remaining.get(norm_edge(v, lst[i]), 0) == 0:
            i += 1
        ptr[v] = i
        if i < len(lst):
            w = lst[i]
            remaining[norm_edge(v, w)] -= 1
            stack.append(w)
        else:
            path.append(stack.pop())
    path.reverse()
    return RobotCycle(tuple(path))


@dataclass(frozen=True)
class Solution:
    """k robot cycles; value is the longest walk length."""

    cycles: tuple[RobotCycle, ...]

    @property
    def k(self) -> int:
        return len(self.cycles)

    @cached_property
    def multisets(self) -> tuple[EdgeMultiset, ...]:
        return tuple(rc.edge_multiset() for rc in self.cycles)

    @property
    def value(self) -> int:
        return max(rc.length for rc in self.cycles)


def solution_from_multisets(
    n: int, start: int, multisets: Iterable[EdgeMultiset], k: int
) -> Solution:
    """One robot per multiset, walked as its Eulerian cycle from `start`.

    Empty multisets, and robots beyond the given multisets up to k, stay idle
    at `start`; they share one trivial walk and build no graph.  Robots given
    the same multiset object share one `RobotCycle`: Hierholzer's walk is a
    function of the multiset and `start` alone, so walking it once per object
    gives every robot the walk it would get on its own.  A memo entry keeps a
    weak reference to its multiset: a multiset freed after its walk (as a
    generator's are) and a later one given the same `id` are told apart,
    and no multiset outlives its producer's use of it.
    """
    idle = RobotCycle((start,))
    walked: dict[int, tuple[weakref.ref, RobotCycle]] = {}
    cycles = []
    for ms in multisets:
        entry = walked.get(id(ms))
        if entry is None or entry[0]() is not ms:
            rc = idle
            if any(ms.values()):
                rc = find_eulerian_cycle(graph_of_multiset(n, ms), start)
            entry = walked[id(ms)] = (weakref.ref(ms), rc)
        cycles.append(entry[1])
    cycles.extend([idle] * (k - len(cycles)))
    return Solution(tuple(cycles))


@dataclass(frozen=True)
class RobotReport:
    index: int
    starts_at_init: bool
    ends_at_init: bool
    adjacency_ok: bool
    length: int

    @property
    def ok(self) -> bool:
        return self.starts_at_init and self.ends_at_init and self.adjacency_ok


@dataclass(frozen=True)
class VerificationReport:
    robot_reports: tuple[RobotReport, ...]
    uncovered: tuple[tuple[int, int], ...]
    value: int
    budget_ok: bool | None  # None when the instance carries no budget
    robot_count_ok: bool

    @property
    def coverage_ok(self) -> bool:
        return not self.uncovered

    @cached_property
    def ok(self) -> bool:
        """Every check passed; computed once, as `lines()` and callers both read it."""
        return (
            self.robot_count_ok
            and all(r.ok for r in self.robot_reports)
            and self.coverage_ok
            and (self.budget_ok is not False)
        )

    def lines(self) -> list[str]:
        out = []
        for r in self.robot_reports:
            out.append(
                f"robot {r.index + 1}: start={'ok' if r.starts_at_init else 'BAD'}"
                f" end={'ok' if r.ends_at_init else 'BAD'}"
                f" edges={'ok' if r.adjacency_ok else 'BAD'}"
                f" length={r.length}"
            )
        if not self.robot_count_ok:
            out.append("robot count: BAD")
        if self.uncovered:
            missing = " ".join(f"{u}-{v}" for u, v in self.uncovered)
            out.append(f"uncovered: {missing}")
        else:
            out.append("uncovered: none")
        out.append(f"value {self.value}")
        if self.budget_ok is not None:
            out.append(f"budget: {'ok' if self.budget_ok else 'exceeded'}")
        out.append(f"result: {'ok' if self.ok else 'FAIL'}")
        return out


def verify_solution(inst: ExplorationInstance, sol: Solution) -> VerificationReport:
    """Check every solution condition; failures are report entries, not errors.

    Robots that share one `RobotCycle` object share its checks: the step set,
    the on-graph test, the start and end flags and the length depend on the
    walk alone, and a walk's edges count once toward coverage however many
    robots take it.  Each robot still gets its own report under its own index.
    """
    g = inst.graph
    graph_edges = set(g.distinct_edges())
    covered: set = set()
    checked: dict[int, tuple[bool, bool, bool, int]] = {}  # sol.cycles keeps each id alive
    reports = []
    for i, rc in enumerate(sol.cycles):
        flags = checked.get(id(rc))
        if flags is None:
            # a step is an edge of the graph iff its normalized pair is one;
            # this rejects self-loops and out-of-range vertices without raising
            steps = {(a, b) if a < b else (b, a) for a, b in zip(rc.walk, rc.walk[1:])}
            on_graph = steps & graph_edges
            covered |= on_graph
            flags = checked[id(rc)] = (
                rc.walk[0] == inst.v_init,
                rc.walk[-1] == inst.v_init,
                len(on_graph) == len(steps),
                rc.length,
            )
        reports.append(RobotReport(i, *flags))
    uncovered = tuple(e for e in g.distinct_edges() if e not in covered)
    value = max((rc.length for rc in sol.cycles), default=0)
    budget_ok = None if inst.budget is None else value <= inst.budget
    return VerificationReport(
        robot_reports=tuple(reports),
        uncovered=uncovered,
        value=value,
        budget_ok=budget_ok,
        robot_count_ok=len(sol.cycles) == inst.k,
    )
