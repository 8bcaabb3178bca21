"""The compiler's graph walks before they shared one incidence map and one
least-neighbour walk: verbatim copies for differential tests.

`extract_cycle_cover` and `decompose_valid_pair` call the square search,
the cycle peeling and the parity-repair trail below; `_even_subgraph_masks`
grows a union-find forest and runs one DFS per chord, and
`_enumerate_quotient_cycles` runs a simple-cycle search and a closed-4-walk
search from every cover vertex.
"""

from __future__ import annotations

from collections import Counter

from cge.errors import OddDegree, PreconditionViolated
from cge.euler import closed_walk_faults
from cge.fptilp.context import FptContext
from cge.fptilp.pairs import Cycle, ValidPair, canonical_cycle, freeze_multiset
from cge.graphs import EdgeMultiset, norm_edge, odd_degree_vertices

from conftest import multiset_degree


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
        for i in range(4):
            work[norm_edge(found[i], found[i + 1])] -= 1
        left -= 4

    while left > 0:
        cyc = _peel_simple_cycle(work)
        cycles.append(canonical_cycle(cyc, vc))
        for i in range(len(cyc) - 1):
            work[norm_edge(cyc[i], cyc[i + 1])] -= 1
        left -= len(cyc) - 1

    return sorted(cycles)


def _find_pigeonhole_square(work: EdgeMultiset, vc) -> Cycle | None:
    """Two independent vertices sharing an incident neighbor pair close a
    4-cycle (u, v, u', v', u).  Pairs are formed per vertex over the sorted
    incident multiset, consecutively.
    """
    incident: dict[int, list[int]] = {}
    for (a, b), m in sorted(work.items()):
        if m:
            incident.setdefault(a, []).extend([b] * m)
            incident.setdefault(b, []).extend([a] * m)
    seen: dict[tuple[int, int], tuple[int, int, int]] = {}
    for u, nbrs in sorted(incident.items()):
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


def _peel_simple_cycle(work: EdgeMultiset) -> Cycle:
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


def decompose_valid_pair(ctx: FptContext, source: EdgeMultiset) -> ValidPair:
    """Constructive decomposition of a robot multiset into a valid pair.

    Stage 1 drops, per class, all but one vertex of each distinct
    set-neighborhood; stage 2 repairs cover parities with simple paths drawn
    from the unused edges; the remainder splits into cycles.
    """
    src = +Counter(source)
    vc = ctx.cover_set
    graph_edges = set(ctx.g.edges)
    if any(e not in graph_edges for e in src):
        raise PreconditionViolated("source uses a non-edge")
    if any(m > 2 for m in src.values()):
        raise PreconditionViolated("source multiplicities must be at most 2")
    faults = closed_walk_faults(src, ctx.v_init)
    if faults:
        raise PreconditionViolated(f"source {faults[0]}")

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
    while True:
        odd = [v for v in odd_degree_vertices(h) if v in vc]
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
    cycles = extract_cycle_cover(remainder, vc)
    pair = ValidPair(cc=freeze_multiset(cc), cycles=tuple(sorted(cycles)))
    return pair


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


def _even_subgraph_masks(edges: list[tuple[int, int]]) -> list[int]:
    """All subsets of the distinct edges whose subgraph has even degrees,
    generated as the span of the fundamental cycles of a spanning forest.
    """
    index = {e: i for i, e in enumerate(edges)}
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj: dict[int, list[tuple[int, int]]] = {}
    tree_edges: set[tuple[int, int]] = set()
    basis: list[int] = []
    for (u, v) in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree_edges.add((u, v))
            adj.setdefault(u, []).append((v, index[(u, v)]))
            adj.setdefault(v, []).append((u, index[(u, v)]))
    for (u, v) in edges:
        if (u, v) in tree_edges:
            continue
        # tree path u -> v plus the chord forms a fundamental cycle
        prev: dict[int, tuple[int, int] | None] = {u: None}
        stack = [u]
        while stack:
            x = stack.pop()
            if x == v:
                break
            for y, ei in adj.get(x, ()):
                if y not in prev:
                    prev[y] = (x, ei)
                    stack.append(y)
        mask = 1 << index[(u, v)]
        x = v
        while prev[x] is not None:
            px, ei = prev[x]
            mask |= 1 << ei
            x = px
        basis.append(mask)
    masks = {0}
    for b in basis:
        masks |= {m ^ b for m in masks}
    return sorted(masks)


def _enumerate_quotient_cycles(ctx: FptContext) -> list[Cycle]:
    """Canonical cycles in the quotient graph: simple cycles of length up to
    max(4, 2|cover|) plus all closed walks of length exactly 4.

    Distinct same-class vertices of the host graph collapse onto one quotient
    vertex, so a quotient cycle may legitimately reuse an edge up to four
    times (two independent vertices doubled toward the same cover vertex map
    to a length-4 walk bouncing on one quotient edge).
    """
    gs = ctx.gstar.graph
    max_len = ctx.max_cycle_length
    found: set[Cycle] = set()

    def extend_simple(start: int, walk: list[int], on_path: set[int]):
        cur = walk[-1]
        for w in gs.neighbors(cur):
            if w == start and len(walk) >= 2:
                found.add(canonical_cycle(tuple(walk) + (start,), ctx.cover_set))
            if w in on_path or len(walk) == max_len:
                continue
            on_path.add(w)
            walk.append(w)
            extend_simple(start, walk, on_path)
            walk.pop()
            on_path.discard(w)

    def extend_walk4(start: int, walk: list[int]):
        cur = walk[-1]
        if len(walk) == 5:
            if cur == start:
                found.add(canonical_cycle(tuple(walk), ctx.cover_set))
            return
        for w in gs.neighbors(cur):
            walk.append(w)
            extend_walk4(start, walk)
            walk.pop()

    for s in sorted(ctx.cover_set):
        extend_simple(s, [s], {s})
        extend_walk4(s, [s])
    return sorted(found)
