"""The assignment-to-walks direction as it was when it worked per robot:
verbatim copies for differential tests.

`_robot_types_per_robot` lists the robot type of every robot, and
`reconstruct_solution` relabels one skeleton per robot, with one
copy-neighbourhood pass each, and returns one edge multiset per robot in
robot order.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable

from cge.errors import InfeasibleAllocation
from cge.graphs import EdgeMultiset, relabel_multiset, walk_edges
from cge.fptilp.context import FptContext
from cge.fptilp.system import IlpSystem, check_assignment, type_counts
from cge.fptilp.typespace import (
    CycleType,
    NeiSub,
    RobotType,
    TypeSpace,
    VertexType,
    copy_neighborhoods,
    cycle_slots,
)


def _members_by_type(
    ctx: FptContext, types: TypeSpace, ver_counts: list[int]
) -> dict[VertexType, list[int]]:
    """The class members of every vertex type, ascending: inside a class the
    members take the types in canonical order."""
    by_type: dict[VertexType, list[int]] = {}
    for cls_idx, cls in enumerate(ctx.classes):
        pool: list[VertexType] = []
        for vt, count in zip(types.vertex_types, ver_counts):
            if vt.class_id == cls_idx:
                pool.extend([vt] * count)
        if len(pool) != len(cls.members):
            raise InfeasibleAllocation(
                f"class {cls_idx}: {len(pool)} vertex types for {len(cls.members)} members"
            )
        for member, vt in zip(cls.members, pool):
            by_type.setdefault(vt, []).append(member)
    return by_type


def _robot_types_per_robot(
    ctx: FptContext, rob_counts: list[int]
) -> list[int]:
    """The robot type index of every robot, in ascending type order."""
    pool: list[int] = []
    for ri, count in enumerate(rob_counts):
        pool.extend([ri] * count)
    if len(pool) != ctx.k:
        raise InfeasibleAllocation(f"{len(pool)} robot types for {ctx.k} robots")
    return pool


def _member_cursors(
    ctx: FptContext, by_type: dict[VertexType, list[int]]
) -> Callable[[VertexType, NeiSub], int]:
    """`pick(vt, ns)` hands out the members of type vt round-robin, one
    cursor per (vt, ns)."""
    turns: Counter = Counter()

    def pick(vt: VertexType, ns: NeiSub) -> int:
        population = by_type.get(vt) or ctx.classes[vt.class_id].members
        q = turns[(vt, ns)]
        turns[(vt, ns)] = q + 1
        return population[q % len(population)]

    return pick


def _transform_skeleton(
    ctx: FptContext, rt: RobotType, pick: Callable[[VertexType, NeiSub], int]
) -> EdgeMultiset:
    """Replace every class copy of the skeleton by a member of its type."""
    cc = rt.cc_counter()
    nbhds = copy_neighborhoods(ctx, cc)
    replace = {copy: pick(vt, nbhds[copy]) for copy, vt in rt.alloc}
    return relabel_multiset(cc, replace)


def _transform_cycle(
    ctx: FptContext, ct: CycleType, pick: Callable[[VertexType, NeiSub], int]
) -> EdgeMultiset:
    """Replace every class vertex of a cycle instance by a member of its type."""
    # inside each (class, pair) group the positions take types in canonical order
    group_types: dict[tuple[int, NeiSub], list[VertexType]] = {}
    for ns, vt in ct.pa_alloc:
        group_types.setdefault((vt.class_id, ns), []).append(vt)
    walk = list(ct.cycle)
    for key, positions in sorted(cycle_slots(ctx, ct.cycle).items()):
        vts = group_types.get(key, [])
        if len(vts) != len(positions):
            raise InfeasibleAllocation(f"allocation arity mismatch at {key}")
        for pos, vt in zip(positions, vts):
            walk[pos] = pick(vt, key[1])
    return walk_edges(walk)


def _allocate_cycles_to_robots(
    ctx: FptContext,
    types: TypeSpace,
    cyc_counts: list[int],
    robot_of: list[int],
) -> dict[tuple[int, int], int]:
    """(cycle type index, instance) -> robot, respecting the exact non-4
    counts and balancing length-4 cycles within each robot type.
    """
    out: dict[tuple[int, int], int] = {}
    robots_by_type: dict[int, list[int]] = {}
    for i, ri in enumerate(robot_of):
        robots_by_type.setdefault(ri, []).append(i)
    # (host, cycle length) -> (cycle type index, instance), ascending
    hosted: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for ci, count in enumerate(cyc_counts):
        if count:
            ct = types.cycle_types[ci]
            hosted.setdefault((ct.host, ct.length), []).extend(
                (ci, inst) for inst in range(1, count + 1)
            )
    for ri, robots in robots_by_type.items():
        rt = types.robot_types[ri]
        for slot, j in enumerate(ctx.cycle_length_slots):
            instances = hosted.get((ri, j), [])
            need = rt.num_of_cyc[slot]
            if len(instances) != need * len(robots):
                raise InfeasibleAllocation(
                    f"length-{j} cycle count {len(instances)} does not split into "
                    f"{need} per robot over {len(robots)} robots"
                )
            for q, inst in enumerate(instances):
                out[inst] = robots[q // need] if need else robots[0]
        for q, inst in enumerate(hosted.get((ri, 4), [])):
            out[inst] = robots[q % len(robots)]
    return out


def reconstruct_solution(
    ctx: FptContext,
    types: TypeSpace,
    system: IlpSystem,
    assignment: dict[str, int],
) -> list[EdgeMultiset]:
    """Turn a satisfying assignment into k edge multisets meeting the
    feasibility conditions with value at most the budget.
    """
    ok, violated = check_assignment(system, assignment)
    if not ok:
        raise InfeasibleAllocation(f"assignment violates constraints {violated}")
    ver_counts, rob_counts, cyc_counts = type_counts(types, assignment)
    pick = _member_cursors(ctx, _members_by_type(ctx, types, ver_counts))
    robot_of = _robot_types_per_robot(ctx, rob_counts)
    cycle_owner = _allocate_cycles_to_robots(ctx, types, cyc_counts, robot_of)
    # cycle instances draw members before the skeletons do
    cycles: list[tuple[int, EdgeMultiset]] = []
    for ci, ct in enumerate(types.cycle_types):
        for inst in range(1, cyc_counts[ci] + 1):
            owner = cycle_owner.get((ci, inst))
            if owner is None:
                raise InfeasibleAllocation(
                    f"cycle instance {(ci, inst)} was never allocated"
                )
            cycles.append((owner, _transform_cycle(ctx, ct, pick)))
    multisets = [
        _transform_skeleton(ctx, types.robot_types[ri], pick) for ri in robot_of
    ]
    for owner, edges in cycles:
        multisets[owner] += edges
    return multisets
