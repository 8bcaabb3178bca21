"""Skeleton-plus-cycles encoding of a robot's edge multiset.

A robot multiset (connected, even, containing the start vertex, per-edge
multiplicity at most 2) decomposes into a pair: a skeleton that carries the
connectivity and covers the same cover vertices, and a multiset of cycles
holding the remaining edges.  All but few cycles have length 4; cycles of
other lengths are simple.  Cycles are stored rotated to begin at a cover
vertex so every independent occurrence sits strictly inside the sequence.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, NamedTuple

from ..errors import OddDegree, PreconditionViolated
from ..euler import Solution, closed_walk_faults
from ..graphs import (
    EdgeMultiset,
    incidence,
    multiset_vertices,
    norm_edge,
    odd_degree_vertices,
    walk_edges,
)
from .context import FptContext

Cycle = tuple[int, ...]


class ValidPair(NamedTuple):
    """Skeleton edge multiset plus cycle multiset; together they rebuild the source."""

    cc: tuple[tuple[int, int], ...]  # sorted multiset expansion
    cycles: tuple[Cycle, ...]  # sorted canonical cycles

    def cc_counter(self) -> EdgeMultiset:
        return Counter(self.cc)


def canonical_cycle(cycle: Cycle, anchor_vertices) -> Cycle:
    """Least sequence over all rotations starting at an anchor vertex, in
    both directions.  The anchor set is the vertex cover (every cycle in a
    covered graph meets it), which keeps independent occurrences away from
    the sequence ends.
    """
    core = list(cycle[:-1])
    ln = len(core)
    best = None
    for seq in (core, core[::-1]):
        for p in range(ln):
            if seq[p] not in anchor_vertices:
                continue
            cand = tuple(seq[p:] + seq[:p] + [seq[p]])
            if best is None or cand < best:
                best = cand
    if best is None:
        raise PreconditionViolated(f"cycle {cycle} avoids the cover")
    return best


def freeze_multiset(edges: EdgeMultiset) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for e in sorted(edges):
        out.extend([e] * edges[e])
    return tuple(out)


def extract_cycle_cover(
    edges: EdgeMultiset, vc: set[int] | frozenset[int]
) -> list[Cycle]:
    """Partition an all-even edge multiset into cycles, few of them non-4.

    While more than 2|vc|^2 edges remain, two equal neighbor pairs around
    independent vertices are guaranteed by counting; they close a length-4
    cycle which is removed.  The remainder is peeled into simple cycles, at
    most |vc|^2 of them.  Deterministic: pairs and walks scan ascending ids.
    """
    odd = odd_degree_vertices(edges)
    if odd:
        raise OddDegree(f"vertex {odd[0]} has odd degree")
    work = +Counter(edges)
    limit = 2 * len(vc) ** 2
    cycles: list[Cycle] = []
    left = sum(work.values())  # edges not yet in a cycle

    while left > limit:
        found = _find_pigeonhole_square(work, vc)
        if found is None:
            break  # cannot happen by the counting argument; fall through safely
        cycles.append(canonical_cycle(found, vc))
        work.subtract(walk_edges(found))
        left -= 4

    while left > 0:
        cyc = _peel_simple_cycle(work)
        cycles.append(canonical_cycle(cyc, vc))
        work.subtract(walk_edges(cyc))
        left -= len(cyc) - 1

    return sorted(cycles)


def _find_pigeonhole_square(work: EdgeMultiset, vc) -> Cycle | None:
    """Two independent vertices sharing an incident neighbor pair close a
    4-cycle (u, v, u', v', u).  Pairs are formed per vertex over the sorted
    incident multiset, consecutively.
    """
    seen: dict[tuple[int, int], tuple[int, int, int]] = {}
    for u, nbrs in sorted(incidence(work).items()):
        if u in vc:
            continue
        for i in range(0, len(nbrs) - 1, 2):
            v, vp = nbrs[i], nbrs[i + 1]
            key = (v, vp) if v <= vp else (vp, v)
            if key in seen:
                u0, v0, vp0 = seen[key]
                if u0 != u:
                    return (u0, v0, u, vp0, u0)
            else:
                seen[key] = (u, v, vp)
    return None


def _least_trail(
    edges: EdgeMultiset, start: int
) -> Iterator[tuple[list[int], Cycle | None]]:
    """Walk from `start`, always to the least neighbour over an edge copy
    not used yet, and cut each loop out of the path as soon as it closes.

    After every step yields the path (a simple path from `start` to the
    current vertex) and the loop just cut out, or None.  Ends at a vertex
    with no copy left.
    """
    adj = incidence(edges)
    path = [start]
    pos = {start: 0}
    while adj.get(path[-1]):
        cur = path[-1]
        x = adj[cur].pop(0)
        adj[x].remove(cur)
        loop = None
        if x in pos:
            loop = tuple(path[pos[x]:]) + (x,)
            for y in path[pos[x] + 1:]:
                del pos[y]
            del path[pos[x] + 1:]
        else:
            pos[x] = len(path)
            path.append(x)
        yield path, loop


def _peel_simple_cycle(work: EdgeMultiset) -> Cycle:
    """Walk from the lowest active vertex along least available neighbors
    until a vertex repeats; the enclosed portion is a simple cycle.
    """
    start = min(multiset_vertices(work))
    path = [start]
    for path, loop in _least_trail(work, start):
        if loop:
            return loop
    raise OddDegree(f"stuck at vertex {path[-1]}; degrees not all even")


def decompose_valid_pair(ctx: FptContext, source: EdgeMultiset) -> ValidPair:
    """Constructive decomposition of a robot multiset into a valid pair.

    Stage 1 drops, per class, all but one vertex of each distinct
    set-neighborhood; stage 2 repairs cover parities with simple paths drawn
    from the unused edges; the remainder splits into cycles.
    """
    src = +Counter(source)
    vc = ctx.cover_set
    graph_edges = ctx.edge_set
    if any(e not in graph_edges for e in src):
        raise PreconditionViolated("source uses a non-edge")
    if any(m > 2 for m in src.values()):
        raise PreconditionViolated("source multiplicities must be at most 2")
    faults = closed_walk_faults(src, ctx.v_init)
    if faults:
        raise PreconditionViolated(f"source {faults[0]}")

    h = Counter(src)

    # stage 1: per class, keep the least member of each distinct set-neighborhood.
    # Only the members the source touches have one; the incidence lists are
    # ascending, so dropping repeated copies leaves the sorted set.
    seen_nbhd: set[tuple[int, tuple[int, ...]]] = set()
    for u, nbrs in sorted(incidence(src).items()):
        if u in vc:
            continue
        key = (ctx.class_of[u], tuple(dict.fromkeys(nbrs)))
        if key in seen_nbhd:
            for w in key[1]:
                del h[norm_edge(u, w)]
        else:
            seen_nbhd.add(key)

    # stage 2: fix odd cover degrees with simple paths from the leftovers
    while True:
        odd = [v for v in odd_degree_vertices(h) if v in vc]
        if not odd:
            break
        h.update(walk_edges(_repair_path(src - h, odd[0], odd)))

    cc = +h
    remainder = src - cc
    cycles = extract_cycle_cover(remainder, vc)
    pair = ValidPair(cc=freeze_multiset(cc), cycles=tuple(sorted(cycles)))
    return pair


def pair_source(ctx: FptContext, multiset: EdgeMultiset) -> EdgeMultiset:
    """The multiset a robot's valid pair decomposes: its own edges with each
    multiplicity m cut to 2 - m % 2, or for an idle robot the doubled lowest
    edge at the start vertex.  Removing pairs of copies keeps the support and
    every degree's parity, so the cut walk still covers the robot's edges,
    and it is no longer, so it still fits the budget.
    """
    if multiset:
        return Counter({e: 2 - m % 2 for e, m in multiset.items()})
    e0 = min(e for e in ctx.g.edges if ctx.v_init in e)
    return Counter({e0: 2})


def solution_pairs(ctx: FptContext, sol: Solution) -> list[tuple[ValidPair, int]]:
    """The valid pair of every run of a solution with its robot count, in
    run order: each run's walk is decomposed once."""
    return [
        (decompose_valid_pair(ctx, pair_source(ctx, rc.edge_multiset())), count)
        for rc, count in sol.runs
    ]


def _repair_path(leftovers: EdgeMultiset, v: int, odd: list[int]) -> list[int]:
    """Simple path through the unused edges from the odd cover vertex v to
    another one of `odd`, along the least-neighbour trail.

    The trail's endpoint always has an unused incident edge while it is not
    a stopping vertex, because total degrees are even.
    """
    for path, _ in _least_trail(leftovers, v):
        if path[-1] != v and path[-1] in odd:
            return path
    raise PreconditionViolated("parity repair ran out of edges")
