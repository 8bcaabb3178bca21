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
from dataclasses import dataclass

from ..errors import OddDegree, PreconditionViolated
from ..euler import Solution
from ..graphs import (
    EdgeMultiset,
    Multigraph,
    graph_of_multiset,
    multiset_degree,
    multiset_vertices,
    norm_edge,
    walk_edges,
)
from .context import FptContext

Cycle = tuple[int, ...]
cycle_edges = walk_edges


@dataclass(frozen=True)
class ValidPair:
    """Skeleton edge multiset plus cycle multiset; together they rebuild the source."""

    cc: tuple[tuple[int, int], ...]  # sorted multiset expansion
    cycles: tuple[Cycle, ...]  # sorted canonical cycles

    def cc_counter(self) -> EdgeMultiset:
        return Counter(self.cc)

    def union_counter(self) -> EdgeMultiset:
        total = Counter(self.cc)
        for cyc in self.cycles:
            total += cycle_edges(cyc)
        return total


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


def extract_cycle_cover(g: Multigraph, vc: set[int] | frozenset[int]) -> list[Cycle]:
    """Partition an all-even edge multiset into cycles, few of them non-4.

    While more than 2|vc|^2 edges remain, two equal neighbor pairs around
    independent vertices are guaranteed by counting; they close a length-4
    cycle which is removed.  The remainder is peeled into simple cycles, at
    most |vc|^2 of them.  Deterministic: pairs and walks scan ascending ids.
    """
    for v in range(g.n):
        if g.degree(v) % 2:
            raise OddDegree(f"vertex {v} has odd degree")
    work = g.edge_counter()
    limit = 2 * len(vc) ** 2
    cycles: list[Cycle] = []

    def total() -> int:
        return sum(work.values())

    while total() > limit:
        found = _find_pigeonhole_square(g.n, work, vc)
        if found is None:
            break  # cannot happen by the counting argument; fall through safely
        cycles.append(canonical_cycle(found, vc))
        for i in range(4):
            work[norm_edge(found[i], found[i + 1])] -= 1

    while total() > 0:
        cyc = _peel_simple_cycle(g.n, work)
        cycles.append(canonical_cycle(cyc, vc))
        for i in range(len(cyc) - 1):
            work[norm_edge(cyc[i], cyc[i + 1])] -= 1

    return sorted(cycles)


def _find_pigeonhole_square(n: int, work: EdgeMultiset, vc) -> Cycle | None:
    """Two independent vertices sharing an incident neighbor pair close a
    4-cycle (u, v, u', v', u).  Pairs are formed per vertex over the sorted
    incident multiset, consecutively.
    """
    seen: dict[tuple[int, int], tuple[int, int, int]] = {}
    for u in range(n):
        if u in vc:
            continue
        incident: list[int] = []
        for (a, b), m in sorted(work.items()):
            if m and (a == u or b == u):
                incident.extend([a if b == u else b] * m)
        for i in range(0, len(incident) - 1, 2):
            v, vp = incident[i], incident[i + 1]
            key = (v, vp) if v <= vp else (vp, v)
            if key in seen:
                u0, v0, vp0 = seen[key]
                if u0 != u:
                    return (u0, v0, u, vp0, u0)
            else:
                seen[key] = (u, v, vp)
    return None


def _peel_simple_cycle(n: int, work: EdgeMultiset) -> Cycle:
    """Walk from the lowest active vertex along least available neighbors
    until a vertex repeats; the enclosed portion is a simple cycle.
    """
    adj: dict[int, Counter] = {}
    for (a, b), m in work.items():
        if m:
            adj.setdefault(a, Counter())[b] += m
            adj.setdefault(b, Counter())[a] += m
    start = min(adj)
    path = [start]
    pos = {start: 0}
    used: Counter = Counter()
    while True:
        cur = path[-1]
        nxt = None
        for w in sorted(adj.get(cur, ())):
            e = norm_edge(cur, w)
            if work[e] - used[e] > 0:
                nxt = w
                break
        if nxt is None:
            raise OddDegree(f"stuck at vertex {cur}; degrees not all even")
        used[norm_edge(cur, nxt)] += 1
        if nxt in pos:
            cycle = path[pos[nxt]:] + [nxt]
            return tuple(cycle)
        pos[nxt] = len(path)
        path.append(nxt)


def check_valid_pair(
    ctx: FptContext, pair: ValidPair, source: EdgeMultiset
) -> list[str]:
    """Return the violated conditions (empty list when the pair is valid)."""
    problems: list[str] = []
    cc = pair.cc_counter()
    g = ctx.g
    vc = ctx.cover_set

    graph_cc = graph_of_multiset(g.n, cc)
    per_class: Counter = Counter()
    for v in multiset_vertices(cc):
        if v not in vc:
            cls = ctx.class_of.get(v)
            if cls is None:
                problems.append("skeleton uses a vertex outside graph and cover")
            else:
                per_class[cls] += 1
    for cls, count in per_class.items():
        if count > len(ctx.gbar.copies[cls]):
            problems.append(f"class {cls} exceeds its copy budget in the skeleton")
    if any(m > 2 for m in cc.values()):
        problems.append("skeleton edge multiplicity exceeds 2")

    if cc:
        if not graph_cc.is_connected():
            problems.append("skeleton is not connected")
        if graph_cc.degree(ctx.v_init) == 0:
            problems.append("skeleton misses the start vertex")
        if any(graph_cc.degree(v) % 2 for v in range(g.n)):
            problems.append("skeleton has an odd degree")
    else:
        problems.append("skeleton is empty")

    if (multiset_vertices(cc) & vc) != (multiset_vertices(source) & vc):
        problems.append("skeleton covers different cover vertices than the source")

    non4 = [c for c in pair.cycles if len(c) - 1 != 4]
    if len(non4) > 2 * len(vc) ** 2:
        problems.append("too many cycles of length other than 4")
    for c in non4:
        if len(set(c[:-1])) != len(c) - 1:
            problems.append(f"non-4 cycle {c} is not simple")
    for c in pair.cycles:
        for i in range(len(c) - 1):
            if not g.has_edge(c[i], c[i + 1]):
                problems.append(f"cycle {c} uses a non-edge")
                break

    if pair.union_counter() != +Counter(source):
        problems.append("skeleton plus cycles do not rebuild the source multiset")
    return problems


def decompose_valid_pair(ctx: FptContext, source: EdgeMultiset) -> ValidPair:
    """Constructive decomposition of a robot multiset into a valid pair.

    Stage 1 drops, per class, all but one vertex of each distinct
    set-neighborhood; stage 2 repairs cover parities with simple paths drawn
    from the unused edges; the remainder splits into cycles.
    """
    src = +Counter(source)
    g = ctx.g
    vc = ctx.cover_set
    graph_src = graph_of_multiset(g.n, src)
    if not src:
        raise PreconditionViolated("source multiset is empty")
    if any(m > 2 for m in src.values()):
        raise PreconditionViolated("source multiplicities must be at most 2")
    if any(e not in g.edge_counter() for e in src):
        raise PreconditionViolated("source uses a non-edge")
    if any(graph_src.degree(v) % 2 for v in range(g.n)):
        raise PreconditionViolated("source has an odd degree")
    if not graph_src.is_connected():
        raise PreconditionViolated("source is not connected")
    if graph_src.degree(ctx.v_init) == 0:
        raise PreconditionViolated("source misses the start vertex")

    h = Counter(src)

    # stage 1: per class, keep the least member of each distinct set-neighborhood
    for cls in ctx.eq.classes:
        seen_nbhd: set[tuple[int, ...]] = set()
        for u in cls.members:
            nbhd = tuple(
                w for w in cls.neighborhood if h.get(norm_edge(u, w), 0) > 0
            )
            if not nbhd:
                continue
            if nbhd in seen_nbhd:
                for w in nbhd:
                    del h[norm_edge(u, w)]
            else:
                seen_nbhd.add(nbhd)

    # stage 2: fix odd cover degrees with simple paths from the leftovers
    def odd_cover_vertices() -> list[int]:
        return sorted(v for v in vc if multiset_degree(h, v) % 2)

    while True:
        odd = odd_cover_vertices()
        if not odd:
            break
        v = odd[0]
        leftovers = src - h
        trail = _trail_to_odd_cover(ctx, leftovers, h, v)
        simple = _simplify_path(trail)
        for a, b in zip(simple, simple[1:]):
            h[norm_edge(a, b)] += 1

    cc = +h
    remainder = src - cc
    cycles = extract_cycle_cover(graph_of_multiset(g.n, remainder), vc)
    pair = ValidPair(cc=freeze_multiset(cc), cycles=tuple(sorted(cycles)))
    return pair


def pair_source(ctx: FptContext, multiset: EdgeMultiset) -> EdgeMultiset:
    """The multiset a robot's valid pair decomposes: its own edges, or for an
    idle robot the doubled lowest edge at the start vertex.
    """
    if multiset:
        return multiset
    e0 = min(e for e in ctx.g.distinct_edges() if ctx.v_init in e)
    return Counter({e0: 2})


def solution_pairs(ctx: FptContext, sol: Solution) -> list[ValidPair]:
    """The valid pair of every robot of a solution, in robot order."""
    return [decompose_valid_pair(ctx, pair_source(ctx, ms)) for ms in sol.multisets]


def _trail_to_odd_cover(
    ctx: FptContext, leftovers: EdgeMultiset, h: EdgeMultiset, v: int
) -> list[int]:
    """Trail through the unused edges from an odd cover vertex to another.

    The endpoint always has an unused incident edge while it is not a
    stopping vertex, because total degrees are even.
    """
    vc = ctx.cover_set
    avail = Counter(leftovers)
    trail = [v]
    cur = v
    while True:
        nxt = None
        for (a, b) in sorted(avail):
            if avail[(a, b)] and cur in (a, b):
                nxt = b if a == cur else a
                break
        if nxt is None:
            raise PreconditionViolated("parity repair ran out of edges")
        avail[norm_edge(cur, nxt)] -= 1
        trail.append(nxt)
        cur = nxt
        if cur in vc and cur != v and multiset_degree(h, cur) % 2 == 1:
            return trail


def _simplify_path(trail: list[int]) -> list[int]:
    """Cut out loops so the path becomes simple while keeping the endpoints."""
    simple: list[int] = []
    pos: dict[int, int] = {}
    for x in trail:
        if x in pos:
            cut = pos[x]
            for y in simple[cut + 1:]:
                del pos[y]
            simple = simple[: cut + 1]
        else:
            pos[x] = len(simple)
            simple.append(x)
    return simple
