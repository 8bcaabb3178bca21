"""Finite type abstractions indexing the equation system's variables.

A vertex type pairs an equivalence class with a set of even neighbor
multisets whose union covers the class neighborhood.  A robot type is a
skeleton inside the bounded expansion together with an allocation of its
class-copy neighborhoods to vertex types and the per-length counts of its
non-4 cycles.  A cycle type is a quotient-graph cycle with an allocation of
its independent positions to vertex types, attached to a host robot type
sharing a cover vertex with it.

Derivation (from a concrete decomposition) and enumeration are kept
structurally aligned so every derived type is a member of the enumerated
space.  Copies or positions with identical surroundings are interchangeable;
allocations are stored sorted inside those groups to collapse the symmetry.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from ..errors import NotIndependent, PreconditionViolated, TypeSpaceTooLarge
from ..graphs import EdgeMultiset, graph_of_multiset, multiset_vertices, relabel_multiset
from .context import FptContext
from .pairs import Cycle, ValidPair, canonical_cycle, freeze_multiset

NeiSub = tuple[int, ...]  # sorted multiset of cover vertices


@dataclass(frozen=True, order=True)
class VertexType:
    class_id: int
    nei_subsets: tuple[NeiSub, ...]


@dataclass(frozen=True, order=True)
class RobotType:
    cc: tuple[tuple[int, int], ...]  # sorted multiset expansion over expansion ids
    alloc: tuple[tuple[int, VertexType], ...]  # (copy id, vertex type), by copy id
    num_of_cyc: tuple[int, ...]  # counts per context.cycle_length_slots

    def cc_counter(self) -> EdgeMultiset:
        return Counter(self.cc)


@dataclass(frozen=True, order=True)
class CycleType:
    cycle: Cycle  # canonical cycle in the quotient graph
    pa_alloc: tuple[tuple[NeiSub, VertexType], ...]  # (pair, vertex type), sorted
    robot_type: RobotType

    @property
    def length(self) -> int:
        return len(self.cycle) - 1


@dataclass(frozen=True)
class TypeSpace:
    vertex_types: tuple[VertexType, ...]
    robot_types: tuple[RobotType, ...]
    cycle_types: tuple[CycleType, ...]

    def indexes(self):
        ver = {t: i for i, t in enumerate(self.vertex_types)}
        rob = {t: i for i, t in enumerate(self.robot_types)}
        cyc = {t: i for i, t in enumerate(self.cycle_types)}
        return ver, rob, cyc

    @property
    def total(self) -> int:
        return len(self.vertex_types) + len(self.robot_types) + len(self.cycle_types)


def robot_bud(ctx: FptContext, rt: RobotType) -> int:
    """Budget consumed by the skeleton and the non-4 cycles of the type."""
    return len(rt.cc) + sum(
        n * j for n, j in zip(rt.num_of_cyc, ctx.cycle_length_slots)
    )


def robot_cycbud(ctx: FptContext, rt: RobotType) -> int:
    """Budget left for length-4 cycles, rounded down to a multiple of 4."""
    return ((ctx.budget - robot_bud(ctx, rt)) // 4) * 4


def copy_neighborhoods(ctx: FptContext, cc: EdgeMultiset) -> dict[int, NeiSub]:
    """Neighbor multiset of every class copy present in a skeleton."""
    out: dict[int, Counter] = {}
    for (a, b), m in cc.items():
        if not m:
            continue
        for v, w in ((a, b), (b, a)):
            if v in ctx.class_of_copy:
                out.setdefault(v, Counter())[w] += m
    return {
        v: tuple(sorted(cnt.elements())) for v, cnt in out.items()
    }


def robot_alloc_counts(ctx: FptContext, rt: RobotType) -> Counter:
    """(vertex type, neighbor multiset) -> how often the robot type allocates it."""
    nbhds = copy_neighborhoods(ctx, rt.cc_counter())
    return Counter((vt, nbhds[copy]) for copy, vt in rt.alloc)


def cycle_alloc_counts(ct: CycleType) -> Counter:
    """(vertex type, neighbor pair) -> how often the cycle type allocates it."""
    return Counter((vt, ns) for ns, vt in ct.pa_alloc)


def _sorted_group_alloc(
    entries: list[tuple[int, NeiSub, int, VertexType]]
) -> tuple[tuple[int, VertexType], ...]:
    """Normalize an allocation: inside each (class, neighborhood) group the
    assigned types are sorted and re-attached to the copies in ascending id.
    Swapping copies with identical neighborhoods leaves the skeleton
    unchanged, so this quotient is sound.
    """
    groups: dict[tuple[int, NeiSub], list[tuple[int, VertexType]]] = {}
    for copy, nbhd, cls, vt in entries:
        groups.setdefault((cls, nbhd), []).append((copy, vt))
    alloc: list[tuple[int, VertexType]] = []
    for (_, _), members in groups.items():
        copies = sorted(c for c, _ in members)
        types = sorted((vt for _, vt in members))
        alloc.extend(zip(copies, types))
    return tuple(sorted(alloc))


# ---------------------------------------------------------------------------
# derivation from a concrete decomposition


def derive_vertex_type(
    ctx: FptContext, u: int, pairs: Iterable[ValidPair]
) -> VertexType:
    """Collect the neighbor multisets covering u across all robots: its
    skeleton neighborhoods plus the before/after pairs of its cycle
    occurrences.
    """
    if u in ctx.cover_set:
        raise NotIndependent(f"vertex {u} belongs to the cover")
    cls = ctx.class_of[u]
    subs: set[NeiSub] = set()
    for pair in pairs:
        cc = pair.cc_counter()
        nbrs: Counter = Counter()
        for (a, b), m in cc.items():
            if a == u:
                nbrs[b] += m
            elif b == u:
                nbrs[a] += m
        if nbrs:
            subs.add(tuple(sorted(nbrs.elements())))
        for cyc in pair.cycles:
            for i in range(1, len(cyc) - 1):
                if cyc[i] == u:
                    subs.add(tuple(sorted((cyc[i - 1], cyc[i + 1]))))
    return VertexType(class_id=cls, nei_subsets=tuple(sorted(subs)))


def relabel_skeleton(
    ctx: FptContext, cc: EdgeMultiset
) -> tuple[EdgeMultiset, dict[int, int]]:
    """Map a skeleton over original vertices into the bounded expansion.

    Per class, present members in ascending id take the class copies in
    ascending id; cover vertices stay fixed.
    """
    members_present: dict[int, list[int]] = {}
    for v in sorted(multiset_vertices(cc)):
        if v not in ctx.cover_set:
            members_present.setdefault(ctx.class_of[v], []).append(v)
    mapping: dict[int, int] = {}
    for cls_idx, members in members_present.items():
        copies = ctx.gbar.copies[cls_idx]
        if len(members) > len(copies):
            raise PreconditionViolated(
                f"class {cls_idx} exceeds its copy budget during relabeling"
            )
        for member, copy in zip(members, copies):
            mapping[member] = copy
    return relabel_multiset(cc, mapping), mapping


def derive_robot_type(
    ctx: FptContext, i: int, pairs: list[ValidPair]
) -> RobotType:
    pair = pairs[i]
    cc_bar, mapping = relabel_skeleton(ctx, pair.cc_counter())
    nbhds = copy_neighborhoods(ctx, cc_bar)
    entries = []
    for member, copy in mapping.items():
        vt = derive_vertex_type(ctx, member, pairs)
        entries.append((copy, nbhds[copy], ctx.class_of[member], vt))
    alloc = _sorted_group_alloc(entries)
    counts = Counter(len(cyc) - 1 for cyc in pair.cycles)
    num_of_cyc = tuple(counts.get(j, 0) for j in ctx.cycle_length_slots)
    return RobotType(cc=freeze_multiset(cc_bar), alloc=alloc, num_of_cyc=num_of_cyc)


def quotient_cycle(ctx: FptContext, cycle: Cycle) -> Cycle:
    """Replace independent vertices by their class vertex and canonicalize."""
    mapped = tuple(
        ctx.gstar.class_vertex[ctx.class_of[v]] if v not in ctx.cover_set else v
        for v in cycle
    )
    return canonical_cycle(mapped, ctx.cover_set)


def derive_cycle_type(
    ctx: FptContext, i: int, cycle: Cycle, pairs: list[ValidPair]
) -> CycleType:
    host = derive_robot_type(ctx, i, pairs)
    mapped = quotient_cycle(ctx, cycle)
    pa_entries: list[tuple[NeiSub, VertexType]] = []
    for pos in range(1, len(cycle) - 1):
        v = cycle[pos]
        if v in ctx.cover_set:
            continue
        ns = tuple(sorted((cycle[pos - 1], cycle[pos + 1])))
        pa_entries.append((ns, derive_vertex_type(ctx, v, pairs)))
    return CycleType(
        cycle=mapped, pa_alloc=tuple(sorted(pa_entries)), robot_type=host
    )


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _even_submultisets(neighborhood: tuple[int, ...]) -> list[NeiSub]:
    """Nonempty even-size sub-multisets of the doubled neighborhood."""
    out = []
    for mults in itertools.product((0, 1, 2), repeat=len(neighborhood)):
        size = sum(mults)
        if size > 0 and size % 2 == 0:
            sub: list[int] = []
            for w, m in zip(neighborhood, mults):
                sub.extend([w] * m)
            out.append(tuple(sub))
    return sorted(out)


def _enumerate_vertex_types(ctx: FptContext) -> list[VertexType]:
    types = []
    for cls_idx, cls in enumerate(ctx.eq.classes):
        options = _even_submultisets(cls.neighborhood)
        needed = set(cls.neighborhood)
        for r in range(1, len(options) + 1):
            for combo in itertools.combinations(options, r):
                union = set()
                for sub in combo:
                    union.update(sub)
                if needed <= union:
                    types.append(VertexType(cls_idx, tuple(sorted(combo))))
    return sorted(types)


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


def _enumerate_skeletons(ctx: FptContext) -> list[EdgeMultiset]:
    """Connected even submultisets of the expansion containing the start,
    within the budget.  Single-copy edges must form an even subgraph; doubled
    edges are free, so candidates are (even subset) + (disjoint doubles).
    """
    edges = ctx.gbar.graph.distinct_edges()
    budget = ctx.budget
    out: list[EdgeMultiset] = []
    even_masks = [m for m in _even_subgraph_masks(edges) if bin(m).count("1") <= budget]
    n_edges = len(edges)
    for s1 in even_masks:
        single = [i for i in range(n_edges) if s1 >> i & 1]
        rest = [i for i in range(n_edges) if not s1 >> i & 1]
        max_doubles = (budget - len(single)) // 2
        for r in range(0, min(len(rest), max_doubles) + 1):
            for doubles in itertools.combinations(rest, r):
                cc: Counter = Counter()
                for i in single:
                    cc[edges[i]] = 1
                for i in doubles:
                    cc[edges[i]] = 2
                if not cc:
                    continue
                graph = graph_of_multiset(ctx.gbar.graph.n, cc)
                if graph.degree(ctx.v_init) == 0 or not graph.is_connected():
                    continue
                out.append(cc)
    return out


def _allocations(
    groups: dict[tuple[int, NeiSub], list], vertex_types: list[VertexType]
) -> list[tuple]:
    """Every allocation of labelled slots to vertex types.

    `groups` maps (class, neighbor multiset) to the labels of its slots (copy
    ids or neighbor pairs).  A slot takes a type of its class that wants its
    multiset; slots of one group are interchangeable, so each group draws its
    types as a multiset and attaches them in label order.  Allocations are
    sorted (label, type) tuples.
    """
    per_group = []
    for (cls, nbhd), labels in sorted(groups.items()):
        candidates = [
            vt for vt in vertex_types if vt.class_id == cls and nbhd in vt.nei_subsets
        ]
        per_group.append(
            [
                tuple(zip(labels, chosen))
                for chosen in itertools.combinations_with_replacement(
                    candidates, len(labels)
                )
            ]
        )
    return [
        tuple(sorted(itertools.chain.from_iterable(combo)))
        for combo in itertools.product(*per_group)
    ]


def _num_of_cyc_vectors(ctx: FptContext, spare: int) -> list[tuple[int, ...]]:
    """Count vectors for the non-4 cycle lengths within the spare budget."""
    cap = 2 * len(ctx.vcp) ** 2
    slots = ctx.cycle_length_slots
    vectors: list[tuple[int, ...]] = []

    def rec(idx: int, left: int, acc: list[int]):
        if idx == len(slots):
            vectors.append(tuple(acc))
            return
        j = slots[idx]
        for count in range(0, min(cap, left // j) + 1):
            acc.append(count)
            rec(idx + 1, left - count * j, acc)
            acc.pop()

    rec(0, spare, [])
    return vectors


def _enumerate_robot_types(
    ctx: FptContext, vertex_types: list[VertexType], max_types: int
) -> list[RobotType]:
    out = []
    for cc in _enumerate_skeletons(ctx):
        cc_frozen = freeze_multiset(cc)
        spare = ctx.budget - len(cc_frozen)
        if spare < 0:
            continue
        groups: dict[tuple[int, NeiSub], list[int]] = {}
        for copy, nbhd in sorted(copy_neighborhoods(ctx, cc).items()):
            groups.setdefault((ctx.class_of_copy[copy], nbhd), []).append(copy)
        allocs = _allocations(groups, vertex_types)
        vectors = _num_of_cyc_vectors(ctx, spare)
        for alloc in allocs:
            for vec in vectors:
                out.append(RobotType(cc=cc_frozen, alloc=alloc, num_of_cyc=vec))
                if len(out) > max_types:
                    raise TypeSpaceTooLarge(
                        f"more than {max_types} robot types; shrink the instance"
                    )
    return sorted(out)


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


def _pa_groups(ctx: FptContext, cycle: Cycle) -> dict[tuple[int, NeiSub], list[NeiSub]]:
    """(class, neighbor pair) -> one slot per class-vertex position of the cycle."""
    groups: dict[tuple[int, NeiSub], list[NeiSub]] = {}
    for pos in range(1, len(cycle) - 1):
        cls = ctx.class_of_star_vertex.get(cycle[pos])
        if cls is not None:
            ns = tuple(sorted((cycle[pos - 1], cycle[pos + 1])))
            groups.setdefault((cls, ns), []).append(ns)
    return groups


def _enumerate_cycle_types(
    ctx: FptContext,
    robot_types: list[RobotType],
    vertex_types: list[VertexType],
    max_types: int,
) -> list[CycleType]:
    out = []
    cover_verts_of_rob = [
        (rt, multiset_vertices(rt.cc_counter()) & ctx.cover_set) for rt in robot_types
    ]
    for cycle in _enumerate_quotient_cycles(ctx):
        cyc_cover = set(cycle) & ctx.cover_set
        pa_options = _allocations(_pa_groups(ctx, cycle), vertex_types)
        if not pa_options:
            continue
        for rt, rt_cover in cover_verts_of_rob:
            if not (rt_cover & cyc_cover):
                continue
            for pa in pa_options:
                out.append(CycleType(cycle=cycle, pa_alloc=pa, robot_type=rt))
                if len(out) > max_types:
                    raise TypeSpaceTooLarge(
                        f"more than {max_types} cycle types; shrink the instance"
                    )
    return sorted(out)


def enumerate_type_space(ctx: FptContext, max_types: int = 200_000) -> TypeSpace:
    """Exhaustive, budget-aware type enumeration behind hard desk-scale guards.

    Covers of size at most 2 and at most 3 classes are accepted; beyond that
    the space is out of desk scale by construction.  Robot types whose fixed
    budget share already exceeds the instance budget are omitted: any
    satisfying assignment forces their variables to zero.
    """
    if len(ctx.vcp) > 2 or len(ctx.eq) > 3:
        raise TypeSpaceTooLarge(
            f"cover size {len(ctx.vcp)} / {len(ctx.eq)} classes exceed the "
            "enumeration guard (cover <= 2, classes <= 3)"
        )
    if ctx.g.num_edges == 0:
        raise PreconditionViolated("the equation system needs at least one edge")
    vertex_types = _enumerate_vertex_types(ctx)
    robot_types = _enumerate_robot_types(ctx, vertex_types, max_types)
    cycle_types = _enumerate_cycle_types(ctx, robot_types, vertex_types, max_types)
    space = TypeSpace(
        vertex_types=tuple(vertex_types),
        robot_types=tuple(robot_types),
        cycle_types=tuple(cycle_types),
    )
    if space.total > max_types:
        raise TypeSpaceTooLarge(f"{space.total} types exceed the cap {max_types}")
    return space
