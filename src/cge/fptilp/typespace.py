"""Finite type abstractions indexing the equation system's variables.

A vertex type pairs an equivalence class with a set of even neighbor
multisets whose union covers the class neighborhood.  A robot type is a
skeleton inside the bounded expansion together with an allocation of its
class-copy neighborhoods to vertex types and the per-length counts of its
non-4 cycles.  A cycle type is a quotient-graph cycle with an allocation of
its independent positions to vertex types, and names its host robot type, one
sharing a cover vertex with it, by index in the sorted robot-type table.

Derivation (from a concrete decomposition) and enumeration are kept
structurally aligned so every derived type is a member of the enumerated
space.  Copies or positions with identical surroundings are interchangeable;
allocations are stored sorted inside those groups to collapse the symmetry.

Derivation makes one pass over a solution's valid pairs, one pair per run of
robots that share a walk: every vertex type comes out of that pass, and
robot and cycle types read them from its map.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

from ..errors import PreconditionViolated, TypeSpaceTooLarge
from ..euler import closed_walk_faults
from ..graphs import (
    EdgeMultiset,
    incidence,
    multiset_vertices,
    norm_edge,
    relabel_multiset,
)
from .context import FptContext
from .pairs import Cycle, ValidPair, canonical_cycle, freeze_multiset

NeiSub = tuple[int, ...]  # sorted multiset of cover vertices

MAX_TYPES = 200_000  # cap on all types of one space: vertex, robot and cycle together

# Types compare and hash as their field tuples, so a sorted type table is the
# canonical variable order of the equation system.


class VertexType(NamedTuple):
    class_id: int
    nei_subsets: tuple[NeiSub, ...]


class RobotType(NamedTuple):
    cc: tuple[tuple[int, int], ...]  # sorted multiset expansion over expansion ids
    alloc: tuple[tuple[int, VertexType], ...]  # (copy id, vertex type), by copy id
    num_of_cyc: tuple[int, ...]  # counts per context.cycle_length_slots

    def cc_counter(self) -> EdgeMultiset:
        return Counter(self.cc)


class CycleType(NamedTuple):
    cycle: Cycle  # canonical cycle in the quotient graph
    pa_alloc: tuple[tuple[NeiSub, VertexType], ...]  # (pair, vertex type), sorted
    host: int  # index of the host robot type in TypeSpace.robot_types

    @property
    def length(self) -> int:
        return len(self.cycle) - 1


class TypeSpace(NamedTuple):
    vertex_types: tuple[VertexType, ...]
    robot_types: tuple[RobotType, ...]
    cycle_types: tuple[CycleType, ...]

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
    return {
        v: tuple(nbrs) for v, nbrs in incidence(cc).items() if v in ctx.class_of_copy
    }


def cycle_alloc_counts(ct: CycleType) -> Counter:
    """(vertex type, neighbor pair) -> how often the cycle type allocates it."""
    return Counter((vt, ns) for ns, vt in ct.pa_alloc)


def skeleton_slots(
    ctx: FptContext, cc: EdgeMultiset
) -> dict[tuple[int, NeiSub], list[int]]:
    """(class, neighbor multiset) -> the skeleton's class copies, ascending."""
    slots: dict[tuple[int, NeiSub], list[int]] = {}
    for copy, nbhd in sorted(copy_neighborhoods(ctx, cc).items()):
        slots.setdefault((ctx.class_of_copy[copy], nbhd), []).append(copy)
    return slots


def _neighbour_pairs(cycle: Cycle) -> Iterator[tuple[int, NeiSub]]:
    """(position, sorted pair of its two neighbours) for every inner position
    of a cycle."""
    for pos in range(1, len(cycle) - 1):
        yield pos, tuple(sorted((cycle[pos - 1], cycle[pos + 1])))


def cycle_slots(ctx: FptContext, cycle: Cycle) -> dict[tuple[int, NeiSub], list[int]]:
    """(class, neighbor pair) -> the quotient cycle's class positions, ascending."""
    slots: dict[tuple[int, NeiSub], list[int]] = {}
    for pos, ns in _neighbour_pairs(cycle):
        cls = ctx.class_of_star_vertex.get(cycle[pos])
        if cls is not None:
            slots.setdefault((cls, ns), []).append(pos)
    return slots


# ---------------------------------------------------------------------------
# derivation from a concrete decomposition


def derive_vertex_types(
    ctx: FptContext, pairs: Iterable[ValidPair]
) -> dict[int, VertexType]:
    """The type of every independent vertex, ascending: the neighbor
    multisets covering it across all robots, that is its skeleton
    neighborhoods plus the before/after pairs of its cycle occurrences.

    One pass over the pairs; a pair that several robots share need only be
    passed once.
    """
    subs: dict[int, set[NeiSub]] = {
        u: set() for u in range(ctx.g.n) if u not in ctx.cover_set
    }
    for pair in pairs:
        for v, nbrs in incidence(pair.cc_counter()).items():
            if v in subs:
                subs[v].add(tuple(nbrs))
        for cyc in pair.cycles:
            for pos, ns in _neighbour_pairs(cyc):
                if cyc[pos] in subs:
                    subs[cyc[pos]].add(ns)
    return {
        u: VertexType(class_id=ctx.class_of[u], nei_subsets=tuple(sorted(s)))
        for u, s in subs.items()
    }


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
        copies = ctx.copies[cls_idx]
        if len(members) > len(copies):
            raise PreconditionViolated(
                f"class {cls_idx} exceeds its copy budget during relabeling"
            )
        for member, copy in zip(members, copies):
            mapping[member] = copy
    return relabel_multiset(cc, mapping), mapping


def derive_robot_type(
    ctx: FptContext, pair: ValidPair, vtypes: dict[int, VertexType]
) -> RobotType:
    """The type of a robot with this valid pair; `vtypes` holds the vertex
    types of `derive_vertex_types`."""
    cc_bar, mapping = relabel_skeleton(ctx, pair.cc_counter())
    type_of = {copy: vtypes[member] for member, copy in mapping.items()}
    # copies of one slot group are interchangeable: their types are sorted
    alloc = tuple(sorted(
        slot
        for copies in skeleton_slots(ctx, cc_bar).values()
        for slot in zip(copies, sorted(type_of[c] for c in copies))
    ))
    counts = Counter(len(cyc) - 1 for cyc in pair.cycles)
    num_of_cyc = tuple(counts.get(j, 0) for j in ctx.cycle_length_slots)
    return RobotType(cc=freeze_multiset(cc_bar), alloc=alloc, num_of_cyc=num_of_cyc)


def quotient_cycle(ctx: FptContext, cycle: Cycle) -> Cycle:
    """Replace independent vertices by their class vertex and canonicalize."""
    mapped = tuple(
        ctx.class_vertex[ctx.class_of[v]] if v not in ctx.cover_set else v
        for v in cycle
    )
    return canonical_cycle(mapped, ctx.cover_set)


def derive_cycle_type(
    ctx: FptContext, host: int, cycle: Cycle, vtypes: dict[int, VertexType]
) -> CycleType:
    """The type of one of a robot's cycles; `host` is the index of that
    robot's type in the robot-type table, `vtypes` as for robot types."""
    mapped = quotient_cycle(ctx, cycle)
    pa_entries = [
        (ns, vtypes[cycle[pos]])
        for pos, ns in _neighbour_pairs(cycle)
        if cycle[pos] not in ctx.cover_set
    ]
    return CycleType(cycle=mapped, pa_alloc=tuple(sorted(pa_entries)), host=host)


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
    for cls_idx, cls in enumerate(ctx.classes):
        options = _even_submultisets(cls.neighborhood)
        needed = set(cls.neighborhood)
        for r in range(1, len(options) + 1):
            for combo in itertools.combinations(options, r):
                if needed <= set().union(*combo):
                    types.append(VertexType(cls_idx, combo))
    return sorted(types)


def _past_cap(kind: str) -> TypeSpaceTooLarge:
    """The one cap on the types of all kinds together, passed counting `kind`."""
    return TypeSpaceTooLarge(
        f"more than {MAX_TYPES} types once the {kind} types are counted; shrink the instance"
    )


def _records(record: type, fixed: tuple, last: Iterable) -> Iterator:
    """One `record` per item of `last`, each led by the fields `fixed`.  The
    columns are zipped straight into the tuple type, at about a third of the
    cost of a keyword constructor per record."""
    columns = map(itertools.repeat, fixed)
    return map(tuple.__new__, itertools.repeat(record), zip(*columns, last))


def _even_subgraph_masks(edges: tuple[tuple[int, int], ...]) -> list[int]:
    """All subsets of the edges whose subgraph has even degrees,
    generated as the span of the fundamental cycles of a spanning forest.

    path[v] is the mask of the forest path from v's root to v, so edge
    (u, v) closes the cycle path[u] ^ path[v] ^ its own bit, which is empty
    for a forest edge.
    """
    bit = {e: 1 << i for i, e in enumerate(edges)}
    adj = incidence(Counter(edges))
    path: dict[int, int] = {}
    for root in adj:
        if root in path:
            continue
        path[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in path:
                    path[y] = path[x] ^ bit[norm_edge(x, y)]
                    stack.append(y)
    masks = {0}
    for (u, v), b in bit.items():
        cycle = path[u] ^ path[v] ^ b
        if cycle:
            masks |= {m ^ cycle for m in masks}
    return sorted(masks)


def _enumerate_skeletons(ctx: FptContext) -> Iterator[EdgeMultiset]:
    """Yield the connected even submultisets of the expansion containing the
    start, within the budget, taking every edge of the simple expansion graph
    once or twice.  Single-copy edges must form an even subgraph; doubled
    edges are free: an even subset plus disjoint doubles."""
    edges = ctx.gbar.edges
    budget = ctx.budget
    # Every skeleton has at most `budget` edges: the filter keeps at most
    # `budget` single edges, and the doubles are capped at the rest halved.
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
                if not closed_walk_faults(cc, ctx.v_init):
                    yield cc


def _allocations(
    groups: dict[tuple[int, NeiSub], list], vertex_types: list[VertexType]
) -> Iterator[tuple]:
    """A generator of every allocation of labelled slots to vertex types.

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
    return (
        tuple(sorted(itertools.chain.from_iterable(combo)))
        for combo in itertools.product(*per_group)
    )


def _num_of_cyc_vectors(ctx: FptContext, spare: int) -> list[tuple[int, ...]]:
    """Count vectors for the non-4 cycle lengths, in lexicographic order:
    at most 2|cover|^2 cycles of each length, within the spare budget."""
    cap = 2 * len(ctx.vcp) ** 2
    slots = ctx.cycle_length_slots
    return [
        vec
        for vec in itertools.product(*(range(min(cap, spare // j) + 1) for j in slots))
        if sum(n * j for n, j in zip(vec, slots)) <= spare
    ]


def _enumerate_robot_types(ctx: FptContext, vertex_types: list[VertexType]) -> list[RobotType]:
    out = []
    room = MAX_TYPES - len(vertex_types)  # robot types within the cap
    for cc in _enumerate_skeletons(ctx):
        cc_frozen = freeze_multiset(cc)
        vectors = _num_of_cyc_vectors(ctx, ctx.budget - len(cc_frozen))
        for alloc in _allocations(skeleton_slots(ctx, cc), vertex_types):
            out += _records(RobotType, (cc_frozen, alloc), vectors)
            if len(out) > room:
                raise _past_cap("robot")
    return sorted(out)


def _enumerate_quotient_cycles(ctx: FptContext) -> list[Cycle]:
    """Canonical cycles in the quotient graph: simple cycles of length up to
    max(4, 2|cover|) plus all closed walks of length exactly 4.

    Distinct same-class vertices of the host graph collapse onto one quotient
    vertex, so a quotient cycle may legitimately reuse an edge up to four
    times (two independent vertices doubled toward the same cover vertex map
    to a length-4 walk bouncing on one quotient edge).
    """
    gs = ctx.gstar
    max_len = ctx.max_cycle_length
    found: set[Cycle] = set()
    # a simple walk keeps growing up to max_len vertices, any walk up to 4
    stack = [((s,), True) for s in sorted(ctx.cover_set)]
    while stack:
        walk, simple = stack.pop()
        for w in gs.neighbors(walk[-1]):
            if w == walk[0] and (simple and len(walk) >= 2 or len(walk) == 4):
                found.add(canonical_cycle(walk + (w,), ctx.cover_set))
            still = simple and w not in walk
            if len(walk) < (max_len if still else 4):
                stack.append((walk + (w,), still))
    return sorted(found)


def _enumerate_cycle_types(
    ctx: FptContext,
    robot_types: list[RobotType],
    vertex_types: list[VertexType],
) -> list[CycleType]:
    """Cycle types in canonical order: the loops run over ascending cycles,
    allocations and host indices, and `robot_types` is sorted."""
    out = []
    room = MAX_TYPES - len(vertex_types) - len(robot_types)  # cycle types within the cap
    # `cc` leads the sort key, so the robot types of one skeleton are a range
    skeletons = []  # (cover vertices of a skeleton, its robot-type indices)
    first = 0
    for cc, same in itertools.groupby(robot_types, attrgetter("cc")):
        end = first + sum(1 for _ in same)
        skeletons.append((ctx.cover_set.intersection(itertools.chain(*cc)), range(first, end)))
        first = end
    for cycle in _enumerate_quotient_cycles(ctx):
        cyc_cover = ctx.cover_set.intersection(cycle)
        hosts = [ri for cover, rng in skeletons if not cover.isdisjoint(cyc_cover) for ri in rng]
        # every position of a slot group is labelled with its neighbor pair
        labels = {
            key: [key[1]] * len(poss) for key, poss in cycle_slots(ctx, cycle).items()
        }
        for pa in sorted(_allocations(labels, vertex_types)):
            out += _records(CycleType, (cycle, pa), hosts)
            if len(out) > room:
                raise _past_cap("cycle")
    return out


def enumerate_type_space(ctx: FptContext) -> TypeSpace:
    """Exhaustive, budget-aware type enumeration behind hard desk-scale guards.

    Covers of size at most 2 and at most 3 classes are accepted; beyond that
    the space is out of desk scale by construction.  Vertex, robot and cycle
    types count against one running total as they are built, which trips
    `MAX_TYPES` at once.  Robot types whose fixed budget share exceeds the
    instance budget are omitted: satisfying assignments zero their variables.
    """
    if len(ctx.vcp) > 2 or len(ctx.classes) > 3:
        raise TypeSpaceTooLarge(
            f"cover size {len(ctx.vcp)} / {len(ctx.classes)} classes exceed the "
            "enumeration guard (cover <= 2, classes <= 3)"
        )
    if ctx.g.num_edges == 0:
        raise PreconditionViolated("the equation system needs at least one edge")
    vertex_types = _enumerate_vertex_types(ctx)
    if len(vertex_types) > MAX_TYPES:
        raise _past_cap("vertex")
    robot_types = _enumerate_robot_types(ctx, vertex_types)
    cycle_types = _enumerate_cycle_types(ctx, robot_types, vertex_types)
    return TypeSpace(
        vertex_types=tuple(vertex_types),
        robot_types=tuple(robot_types),
        cycle_types=tuple(cycle_types),
    )
