"""Eulerian cycles, robot walks, and full solution verification.

A robot cycle is a closed walk starting and ending at the start vertex; its
edge multiset records traversal counts.  A multiset is realizable as a robot
cycle exactly when its spanned multigraph is connected, contains the start
vertex, and has all degrees even; the conversion in both directions lives
here.

A tour and the fault test read a multiset once, in `_tour_lists`: one pass
over the sorted support gives the neighbour lists, the counts and the degree
parities together, so a tour costs a sort plus O(1) per edge copy.  The walk
itself, `tour_walk`, takes lists built any way; the approximate solver
builds its cover tree's lists once and adds each robot's own edges.

A solution is a sequence of runs, each a walk and the number of consecutive
robots that take it.  Walking, verifying and reporting cost one step per run;
only the per-robot text lines, written by `robot_lines`, cost one per robot.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .errors import NotEulerian, StartNotInGraph
from .graphs import EdgeMultiset, ExplorationInstance, walk_edges


class _RobotCycleFields(NamedTuple):
    walk: tuple[int, ...]


class RobotCycle(_RobotCycleFields):
    """A closed walk (v_0, ..., v_l) with v_0 = v_l; length counts traversals."""

    __slots__ = ()

    def __new__(cls, walk: tuple[int, ...]):
        if len(walk) == 0:
            raise ValueError("walk must contain at least the start vertex")
        if walk[0] != walk[-1]:
            raise ValueError("walk must start and end at the same vertex")
        return super().__new__(cls, walk)

    @property
    def length(self) -> int:
        return len(self.walk) - 1

    def edge_multiset(self) -> EdgeMultiset:
        return walk_edges(self.walk)


def _tour_lists(
    edges: EdgeMultiset,
) -> tuple[dict[int, list[tuple[int, int]]], list[int], bool]:
    """The multiset's support in the form a tour walks, built in one pass.

    Returns (adj, counts, odd).  `counts[j]` is the multiplicity of the j-th
    support edge; `adj[v]` lists v's (neighbour, edge index) pairs in
    descending neighbour order, so its least neighbour is at the end, where
    a walk pops it; `odd` tells whether some degree is odd.  Counts at or
    below zero are absent.

    Keys must be normalized pairs (u < v): one pass over the keys sorted
    descending appends every vertex's greater neighbours before its lesser
    ones, each group descending.  The same pass lists the endpoints of the
    odd-count edges; a vertex is odd when it occurs there an odd number of
    times, which a sort and one comparison of the entries at even positions
    with those at odd positions tell.  A
    key that is not a normalized pair raises ValueError naming the least
    such key, before anything else is checked.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    counts: list[int] = []
    ends: list[int] = []  # both endpoints of every odd-count edge
    bad = None
    for e in sorted(edges, reverse=True):
        m = edges[e]
        if m > 0:
            a, b = e
            if not a < b:
                bad = e  # the last one met is the least
            j = len(counts)
            counts.append(m)
            if a in adj:
                adj[a].append((b, j))
            else:
                adj[a] = [(b, j)]
            if b in adj:
                adj[b].append((a, j))
            else:
                adj[b] = [(a, j)]
            if m & 1:
                ends += e
    if bad is not None:
        raise ValueError(f"edge {bad} is not a normalized pair")
    # sorted, the list pairs up equal neighbours exactly when every vertex
    # occurs an even number of times
    ends.sort()
    return adj, counts, ends[::2] != ends[1::2]


def closed_walk_faults(edges: EdgeMultiset, start: int) -> list[str]:
    """Why an edge multiset is not one robot's closed walk from `start`.

    A subset of "is empty", "is not connected", "misses the start vertex" and
    "has an odd degree", in that order; an empty list means the multiset is
    the traversal count of such a walk.
    """
    adj, _, odd = _tour_lists(edges)
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
    if odd:
        faults.append("has an odd degree")
    return faults


_NOT_EULERIAN = "edge multiset is not connected with all degrees even"


def find_eulerian_cycle(edges: EdgeMultiset, start: int) -> RobotCycle:
    """The closed walk from `start` that traverses every edge exactly its
    count: the multiset's `_tour_lists`, walked by `tour_walk`."""
    return tour_walk(*_tour_lists(edges), start)


def tour_walk(adj: dict, remaining: list[int], odd: object, start: int) -> RobotCycle:
    """Hierholzer's algorithm over tour lists as `_tour_lists` gives them,
    with deterministic tie-breaking: from the current vertex the least-id
    neighbor with remaining count is consumed first.  `odd` is true when
    some degree is odd; no lists yield the trivial walk (start,).  A walk
    that returns has emptied every list, at O(1) per traversal and one pop
    per exhausted list entry."""
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


class Solution(NamedTuple):
    """k robot cycles as runs: each run is a walk and the number of
    consecutive robots, at least one, that take it.  The value is the longest
    walk length.
    """

    runs: tuple[tuple[RobotCycle, int], ...]

    @property
    def value(self) -> int:
        return max(rc.length for rc, _ in self.runs)


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


_CHUNK = 1 << 14  # robot lines per joined piece


def robot_lines(first: int, count: int, body: str) -> Iterator[str]:
    """The lines `robot i: <body>` for i = first + 1 .. first + count.

    They come newline-joined in pieces of at most `_CHUNK` lines, so a run of
    a million robots never holds a million line objects at once.
    """
    end = first + count + 1
    between = f": {body}\nrobot "  # the text between two robot numbers
    for lo in range(first + 1, end, _CHUNK):
        numbers = between.join(map(str, range(lo, min(lo + _CHUNK, end))))
        yield f"robot {numbers}: {body}"


class RobotReport(NamedTuple):
    """The checks of one run: robots index .. index + count - 1 (0-based)
    take the same walk, so they share every flag."""

    index: int
    count: int
    starts_at_init: bool
    ends_at_init: bool
    adjacency_ok: bool
    length: int

    @property
    def ok(self) -> bool:
        return self.starts_at_init and self.ends_at_init and self.adjacency_ok


class _VerificationFields(NamedTuple):
    run_reports: tuple[RobotReport, ...]
    uncovered: tuple[tuple[int, int], ...]
    value: int
    budget_ok: bool | None  # None when the instance carries no budget
    robot_count_ok: bool


class VerificationReport(_VerificationFields):
    # no __slots__: the cached `ok` lives in the instance __dict__

    @property
    def coverage_ok(self) -> bool:
        return not self.uncovered

    @cached_property
    def ok(self) -> bool:
        """Every check passed; computed once, as `text()` and callers both read it."""
        return (
            self.robot_count_ok
            and all(r.ok for r in self.run_reports)
            and self.coverage_ok
            and (self.budget_ok is not False)
        )

    def text(self) -> Iterator[str]:
        """The report as `verify` prints it, in pieces to write as they come:
        one line per robot, written run by run, then the summary lines."""
        for r in self.run_reports:
            body = (
                f"start={'ok' if r.starts_at_init else 'BAD'}"
                f" end={'ok' if r.ends_at_init else 'BAD'}"
                f" edges={'ok' if r.adjacency_ok else 'BAD'}"
                f" length={r.length}"
            )
            for piece in robot_lines(r.index, r.count, body):
                yield piece + "\n"
        if not self.robot_count_ok:
            yield "robot count: BAD\n"
        if self.uncovered:
            missing = " ".join(f"{u}-{v}" for u, v in self.uncovered)
            yield f"uncovered: {missing}\n"
        else:
            yield "uncovered: none\n"
        yield f"value {self.value}\n"
        if self.budget_ok is not None:
            yield f"budget: {'ok' if self.budget_ok else 'exceeded'}\n"
        yield f"result: {'ok' if self.ok else 'FAIL'}\n"


def verify_solution(inst: ExplorationInstance, sol: Solution) -> VerificationReport:
    """Check every solution condition; failures are report entries, not errors.

    Each run's walk is tested once: the step set, the on-graph test, the
    start and end flags and the length depend on the walk alone, and a
    walk's edges count once toward coverage however many robots take it.
    """
    g = inst.graph
    graph_edges = set(g.edges)
    covered: set = set()
    reports = []
    robots = 0
    for rc, count in sol.runs:
        # a step is an edge of the graph iff its normalized pair is one;
        # this rejects self-loops and out-of-range vertices without raising
        steps = {(a, b) if a < b else (b, a) for a, b in zip(rc.walk, rc.walk[1:])}
        on_graph = steps & graph_edges
        covered |= on_graph
        reports.append(
            RobotReport(
                robots,
                count,
                rc.walk[0] == inst.v_init,
                rc.walk[-1] == inst.v_init,
                len(on_graph) == len(steps),
                rc.length,
            )
        )
        robots += count
    uncovered = tuple(e for e in g.edges if e not in covered)
    value = max((r.length for r in reports), default=0)
    budget_ok = None if inst.budget is None else value <= inst.budget
    return VerificationReport(
        run_reports=tuple(reports),
        uncovered=uncovered,
        value=value,
        budget_ok=budget_ok,
        robot_count_ok=robots == inst.k,
    )
