"""The solution-to-witness direction as it was when it worked per robot:
verbatim copies for differential tests.

`solution_pairs` decomposes every robot's multiset through the per-robot
`Solution.multisets` view, and `derive_vertex_type` rescans every robot's
pair once per vertex, once per skeleton copy and once per cycle position.
`Solution` keeps the per-robot views the program no longer has; pass it a
solution's runs.  `NotIndependent` stands in for the error class of the same
name that only `derive_vertex_type` raised.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple

from cge.errors import CgeError
from cge.euler import RobotCycle
from cge.fptilp.context import FptContext
from cge.fptilp.pairs import (
    Cycle,
    ValidPair,
    decompose_valid_pair,
    freeze_multiset,
    pair_source,
)
from cge.fptilp.system import _position, variable_names
from cge.fptilp.typespace import (
    CycleType,
    NeiSub,
    RobotType,
    TypeSpace,
    VertexType,
    quotient_cycle,
    relabel_skeleton,
    skeleton_slots,
)
from cge.graphs import EdgeMultiset, incidence


class NotIndependent(CgeError):
    pass


class Solution(NamedTuple):
    """k robot cycles as runs: each run is a walk and the number of
    consecutive robots, at least one, that take it.  The value is the longest
    walk length.
    """

    runs: tuple[tuple[RobotCycle, int], ...]

    @property
    def k(self) -> int:
        return sum(count for _, count in self.runs)

    @property
    def value(self) -> int:
        return max(rc.length for rc, _ in self.runs)

    @property
    def cycles(self) -> tuple[RobotCycle, ...]:
        """Every robot's cycle in robot order, built on each access: O(k)."""
        return tuple(rc for rc, count in self.runs for _ in range(count))

    @property
    def multisets(self) -> tuple[EdgeMultiset, ...]:
        """Every robot's own edge multiset in robot order, built on each access: O(k)."""
        return tuple(rc.edge_multiset() for rc in self.cycles)


def solution_pairs(ctx: FptContext, sol: Solution) -> list[ValidPair]:
    """The valid pair of every robot of a solution, in robot order."""
    return [decompose_valid_pair(ctx, pair_source(ctx, ms)) for ms in sol.multisets]


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
        nbrs = incidence(pair.cc_counter()).get(u)
        if nbrs:
            subs.add(tuple(nbrs))
        for cyc in pair.cycles:
            for i in range(1, len(cyc) - 1):
                if cyc[i] == u:
                    subs.add(tuple(sorted((cyc[i - 1], cyc[i + 1]))))
    return VertexType(class_id=cls, nei_subsets=tuple(sorted(subs)))


def derive_robot_type(
    ctx: FptContext, i: int, pairs: list[ValidPair]
) -> RobotType:
    pair = pairs[i]
    cc_bar, mapping = relabel_skeleton(ctx, pair.cc_counter())
    type_of = {
        copy: derive_vertex_type(ctx, member, pairs) for member, copy in mapping.items()
    }
    # copies of one slot group are interchangeable: their types are sorted
    alloc = tuple(sorted(
        slot
        for copies in skeleton_slots(ctx, cc_bar).values()
        for slot in zip(copies, sorted(type_of[c] for c in copies))
    ))
    counts = Counter(len(cyc) - 1 for cyc in pair.cycles)
    num_of_cyc = tuple(counts.get(j, 0) for j in ctx.cycle_length_slots)
    return RobotType(cc=freeze_multiset(cc_bar), alloc=alloc, num_of_cyc=num_of_cyc)


def derive_cycle_type(
    ctx: FptContext, host: int, cycle: Cycle, pairs: list[ValidPair]
) -> CycleType:
    """The type of one of a robot's cycles; `host` is the index of that
    robot's type in the robot-type table."""
    mapped = quotient_cycle(ctx, cycle)
    pa_entries: list[tuple[NeiSub, VertexType]] = []
    for pos in range(1, len(cycle) - 1):
        v = cycle[pos]
        if v in ctx.cover_set:
            continue
        ns = tuple(sorted((cycle[pos - 1], cycle[pos + 1])))
        pa_entries.append((ns, derive_vertex_type(ctx, v, pairs)))
    return CycleType(cycle=mapped, pa_alloc=tuple(sorted(pa_entries)), host=host)


def witness_from_solution(
    ctx: FptContext, types: TypeSpace, pairs: list[ValidPair]
) -> dict[str, int]:
    """Count the derived types of a concrete decomposition per robot."""
    rob_base = len(types.vertex_types)
    cyc_base = rob_base + len(types.robot_types)
    counts = [0] * (types.total)
    for u in sorted(set(range(ctx.g.n)) - set(ctx.cover_set)):
        vt = derive_vertex_type(ctx, u, pairs)
        missing = f"derived vertex type of {u} missing from the space"
        counts[_position(types.vertex_types, vt, missing)] += 1
    for i, pair in enumerate(pairs):
        rt = derive_robot_type(ctx, i, pairs)
        missing = f"derived robot type of robot {i} missing from the space"
        ri = _position(types.robot_types, rt, missing)
        counts[rob_base + ri] += 1
        for cyc in pair.cycles:
            ct = derive_cycle_type(ctx, ri, cyc, pairs)
            missing = f"derived cycle type of robot {i} missing from the space"
            counts[cyc_base + _position(types.cycle_types, ct, missing)] += 1
    names = variable_names(types)
    return dict(zip(names, counts))
