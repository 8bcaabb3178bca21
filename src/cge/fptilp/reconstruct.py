"""Rebuilding robot edge multisets from a satisfying assignment.

Every step that the existence proofs leave arbitrary is fixed to ascending
canonical order: class members take vertex types in canonical type order,
robots take robot types likewise, allocation tokens are consumed round-robin
so every populated vertex receives at least one, and length-4 cycles spread
over same-type robots with counts differing by at most one.
"""

from __future__ import annotations

from collections import Counter

from ..errors import InfeasibleAllocation
from ..graphs import EdgeMultiset, relabel_multiset, walk_edges
from .context import FptContext
from .system import IlpAssignment, IlpSystem, check_assignment, type_counts
from .typespace import (
    CycleType,
    RobotType,
    TypeSpace,
    VertexType,
    copy_neighborhoods,
    cycle_alloc_counts,
    robot_alloc_counts,
)

Token = tuple  # ("rob", robot, t) or ("cyc", cycle type index, instance, t)


def _vertex_types_per_member(
    ctx: FptContext, types: TypeSpace, ver_counts: list[int]
) -> dict[int, VertexType]:
    chosen: dict[int, VertexType] = {}
    for cls_idx, cls in enumerate(ctx.eq.classes):
        pool: list[VertexType] = []
        for vt, count in zip(types.vertex_types, ver_counts):
            if vt.class_id == cls_idx:
                pool.extend([vt] * count)
        if len(pool) != len(cls.members):
            raise InfeasibleAllocation(
                f"class {cls_idx}: {len(pool)} vertex types for {len(cls.members)} members"
            )
        for member, vt in zip(cls.members, pool):
            chosen[member] = vt
    return chosen


def _robot_types_per_robot(
    ctx: FptContext, types: TypeSpace, rob_counts: list[int]
) -> list[RobotType]:
    pool: list[RobotType] = []
    for rt, count in zip(types.robot_types, rob_counts):
        pool.extend([rt] * count)
    if len(pool) != ctx.k:
        raise InfeasibleAllocation(f"{len(pool)} robot types for {ctx.k} robots")
    return pool


def _token_pools(
    ctx: FptContext,
    types: TypeSpace,
    cyc_counts: list[int],
    robot_of: list[RobotType],
) -> dict[tuple[VertexType, tuple], list[Token]]:
    """All allocation tokens per (vertex type, neighbor multiset).

    A robot allocating a multiset r times contributes tokens (rob, i, 1..r);
    instance j of a cycle type allocating it r times contributes
    (cyc, index, j, 1..r).  Robot tokens come first, each group in ascending
    order.
    """
    pools: dict[tuple[VertexType, tuple], list[Token]] = {}
    for i, rt in enumerate(robot_of):
        for key, r in sorted(robot_alloc_counts(ctx, rt).items()):
            for t in range(1, r + 1):
                pools.setdefault(key, []).append(("rob", i, t))
    for ci, (ct, count) in enumerate(zip(types.cycle_types, cyc_counts)):
        if not count:
            continue
        for key, r in sorted(cycle_alloc_counts(ct).items()):
            for j in range(1, count + 1):
                for t in range(1, r + 1):
                    pools.setdefault(key, []).append(("cyc", ci, j, t))
    return pools


def _sub_alloc(
    ctx: FptContext,
    member_type: dict[int, VertexType],
    pools: dict[tuple[VertexType, tuple], list[Token]],
) -> dict[tuple[VertexType, tuple], dict[Token, int]]:
    """Assign every token a target vertex, round-robin over the population of
    the vertex type so each populated vertex gets one of every multiset it
    expects; empty populations fall back to the whole class.
    """
    by_type: dict[VertexType, list[int]] = {}
    for member in sorted(member_type):
        by_type.setdefault(member_type[member], []).append(member)
    out: dict[tuple[VertexType, tuple], dict[Token, int]] = {}
    for (vt, ns), tokens in sorted(pools.items()):
        targets = by_type.get(vt) or list(ctx.eq.classes[vt.class_id].members)
        mapping: dict[Token, int] = {}
        for q, token in enumerate(sorted(tokens)):
            mapping[token] = targets[q % len(targets)]
        out[(vt, ns)] = mapping
    return out


def _transform_skeleton(
    ctx: FptContext,
    i: int,
    rt: RobotType,
    sub_alloc,
) -> EdgeMultiset:
    """Replace every class copy of the skeleton by its allocated vertex."""
    cc = rt.cc_counter()
    nbhds = copy_neighborhoods(ctx, cc)
    alloc_of = dict(rt.alloc)
    groups: dict[tuple[VertexType, tuple], list[int]] = {}
    for copy in sorted(nbhds):
        vt = alloc_of[copy]
        groups.setdefault((vt, nbhds[copy]), []).append(copy)
    replace: dict[int, int] = {}
    for key, copies in groups.items():
        mapping = sub_alloc.get(key)
        if mapping is None:
            raise InfeasibleAllocation(f"no tokens for {key}")
        for t, copy in enumerate(sorted(copies), start=1):
            token = ("rob", i, t)
            if token not in mapping:
                raise InfeasibleAllocation(f"token {token} missing for {key}")
            replace[copy] = mapping[token]
    return relabel_multiset(cc, replace)


def _transform_cycle(
    ctx: FptContext,
    ci: int,
    ct: CycleType,
    j: int,
    sub_alloc,
) -> EdgeMultiset:
    """Replace every class vertex of a cycle instance by its allocated vertex."""
    cyc = ct.cycle
    positions = [
        pos
        for pos in range(1, len(cyc) - 1)
        if cyc[pos] in ctx.class_of_star_vertex
    ]
    # expand the stored multiset allocation to positions: inside each
    # (class, pair) group positions take types in canonical order
    per_group_types: dict[tuple[int, tuple], list[VertexType]] = {}
    for ns, vt in sorted(ct.pa_alloc):
        per_group_types.setdefault((vt.class_id, ns), []).append(vt)
    group_pos: dict[tuple[int, tuple], list[int]] = {}
    for pos in positions:
        cls = ctx.class_of_star_vertex[cyc[pos]]
        ns = tuple(sorted((cyc[pos - 1], cyc[pos + 1])))
        group_pos.setdefault((cls, ns), []).append(pos)
    replace_at: dict[int, int] = {}
    for key, poss in sorted(group_pos.items()):
        vts = per_group_types.get(key, [])
        if len(vts) != len(poss):
            raise InfeasibleAllocation(f"allocation arity mismatch at {key}")
        t_counter: Counter = Counter()
        for pos, vt in zip(sorted(poss), vts):
            ns = key[1]
            t_counter[(vt, ns)] += 1
            token = ("cyc", ci, j, t_counter[(vt, ns)])
            mapping = sub_alloc.get((vt, ns))
            if mapping is None or token not in mapping:
                raise InfeasibleAllocation(f"token {token} missing for {(vt, ns)}")
            replace_at[pos] = mapping[token]
    walk = list(cyc)
    for pos, vertex in replace_at.items():
        walk[pos] = vertex
    return walk_edges(walk)


def _allocate_cycles_to_robots(
    ctx: FptContext,
    types: TypeSpace,
    cyc_counts: list[int],
    robot_of: list[RobotType],
) -> dict[tuple[int, int], int]:
    """(cycle type index, instance) -> robot, respecting the exact non-4
    counts and balancing length-4 cycles within each robot type.
    """
    out: dict[tuple[int, int], int] = {}
    robots_by_type: dict[RobotType, list[int]] = {}
    for i, rt in enumerate(robot_of):
        robots_by_type.setdefault(rt, []).append(i)
    rob_index = {rt: i for i, rt in enumerate(types.robot_types)}
    for rt, robots in sorted(
        robots_by_type.items(), key=lambda kv: rob_index[kv[0]]
    ):
        hosted = [
            (ci, ct)
            for ci, ct in enumerate(types.cycle_types)
            if ct.robot_type == rt and cyc_counts[ci] > 0
        ]
        for slot, j in enumerate(ctx.cycle_length_slots):
            instances = [
                (ci, inst)
                for ci, ct in hosted
                if ct.length == j
                for inst in range(1, cyc_counts[ci] + 1)
            ]
            need = rt.num_of_cyc[slot]
            if len(instances) != need * len(robots):
                raise InfeasibleAllocation(
                    f"length-{j} cycle count {len(instances)} does not split into "
                    f"{need} per robot over {len(robots)} robots"
                )
            for q, inst in enumerate(instances):
                out[inst] = robots[q // need] if need else robots[0]
        quads = [
            (ci, inst)
            for ci, ct in hosted
            if ct.length == 4
            for inst in range(1, cyc_counts[ci] + 1)
        ]
        for q, inst in enumerate(quads):
            out[inst] = robots[q % len(robots)]
    return out


def reconstruct_solution(
    ctx: FptContext,
    types: TypeSpace,
    system: IlpSystem,
    assignment: IlpAssignment,
) -> list[EdgeMultiset]:
    """Turn a satisfying assignment into k edge multisets meeting the
    feasibility conditions with value at most the budget.
    """
    ok, violated = check_assignment(system, assignment)
    if not ok:
        raise InfeasibleAllocation(f"assignment violates constraints {violated}")
    ver_counts, rob_counts, cyc_counts = type_counts(types, assignment)
    member_type = _vertex_types_per_member(ctx, types, ver_counts)
    robot_of = _robot_types_per_robot(ctx, types, rob_counts)
    pools = _token_pools(ctx, types, cyc_counts, robot_of)
    sub_alloc = _sub_alloc(ctx, member_type, pools)

    multisets = [
        _transform_skeleton(ctx, i, rt, sub_alloc) for i, rt in enumerate(robot_of)
    ]
    cycle_owner = _allocate_cycles_to_robots(ctx, types, cyc_counts, robot_of)
    for ci, ct in enumerate(types.cycle_types):
        for inst in range(1, cyc_counts[ci] + 1):
            owner = cycle_owner.get((ci, inst))
            if owner is None:
                raise InfeasibleAllocation(
                    f"cycle instance {(ci, inst)} was never allocated"
                )
            multisets[owner] += _transform_cycle(ctx, ci, ct, inst, sub_alloc)
    return multisets
