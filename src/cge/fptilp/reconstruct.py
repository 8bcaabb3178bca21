"""Rebuilding robot edge multisets from a satisfying assignment.

`check_assignment` is the only proof reconstruction needs: the checked rows
fix every count the drawing below relies on, so nothing is re-proved here.
Every step the existence proofs leave arbitrary is fixed to ascending
canonical order: class members take vertex types in canonical type order and
robots take robot types likewise.  Each (vertex type, neighbor multiset) has
one cursor over the members of that type, ascending (the whole class when the
type has none), which hands them out round-robin so every populated vertex
receives at least one of each multiset it expects.  Cycle instances draw
first, by (cycle type, instance), then robot skeletons by robot; a skeleton's
slots draw in ascending copy order, a cycle's by (class, neighbour pair), then
ascending position.  Each instance goes to a robot of its host type as it
draws: the instances of a tracked length go to the type's robots in blocks of
`num_of_cyc`, in instance order, and length-4 instances go round-robin.

The robots of one type are a range of robot numbers.  Each type in use builds
its skeleton and copy neighbourhoods once, and each cycle type in use its slot
layout; a robot only draws its members and relabels the skeleton.
Consecutive robots with equal multisets form one run.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from itertools import accumulate

from ..errors import InfeasibleAllocation, TooLarge
from ..graphs import EdgeMultiset, relabel_multiset, walk_edges
from .context import FptContext
from .system import IlpSystem, check_assignment, type_counts
from .typespace import (
    NeiSub,
    TypeSpace,
    VertexType,
    copy_neighborhoods,
    cycle_slots,
)

# cycle instances a reconstruction may draw; eq6 bounds the length-4 ones only by
# the budget.  Of the order of `cli.MAX_ROBOTS`: each adds 2+ vertices to a line
MAX_CYCLE_INSTANCES = 10_000_000


def _member_cursors(
    ctx: FptContext, types: TypeSpace, ver_counts: list[int]
) -> Callable[[VertexType, NeiSub], int]:
    """`pick(vt, ns)` hands out the members of type vt round-robin, one
    cursor per (vt, ns).  Inside a class the members, ascending, take the
    types in canonical order; a type with none draws from the whole class."""
    members: dict[VertexType, tuple[int, ...]] = {}
    taken: Counter = Counter()  # class -> members its earlier types took
    for vt, count in zip(types.vertex_types, ver_counts):
        cls_members, first = ctx.classes[vt.class_id].members, taken[vt.class_id]
        members[vt] = cls_members[first:first + count] or cls_members
        taken[vt.class_id] = first + count
    turns: Counter = Counter()

    def pick(vt: VertexType, ns: NeiSub) -> int:
        population = members[vt]
        q = turns[(vt, ns)]
        turns[(vt, ns)] = q + 1
        return population[q % len(population)]

    return pick


def reconstruct_solution(
    ctx: FptContext, types: TypeSpace, system: IlpSystem, assignment: dict[str, int]
) -> list[tuple[EdgeMultiset, int]]:
    """Turn a satisfying assignment into runs of (edge multiset, robot
    count), in robot order and with counts summing to k, whose robots meet
    the feasibility conditions with value at most the budget."""
    ok, violated = check_assignment(system, assignment)
    if not ok:
        raise InfeasibleAllocation(f"assignment violates constraints {violated}")
    ver_counts, rob_counts, cyc_counts = type_counts(types, assignment)
    instances = sum(cyc_counts)
    if instances > MAX_CYCLE_INSTANCES:
        raise TooLarge(
            f"reconstruction needs {instances} cycle instances, limit {MAX_CYCLE_INSTANCES}")
    # The checked rows leave no case open.  eq1 reads sum(x_rob) = k, so the
    # robot ranges number robots 0 to k - 1; eq2 reads sum(x_ver) = |class|
    # for each class, so the slices of a class's types split its members.
    pick = _member_cursors(ctx, types, ver_counts)
    robots_by_type = {
        ri: range(end - count, end)
        for ri, (count, end) in enumerate(zip(rob_counts, accumulate(rob_counts)))
        if count
    }
    # Cycle instances draw members before the skeletons do, and each goes to
    # a robot as it draws.  Counted per (host type, length) in (cycle type,
    # instance) order, the q-th instance goes to the host's robot q // n_j
    # for a tracked length j, n_j being the host's num_of_cyc entry, and to
    # its robot q mod r for length 4, r being its robot count.  eq6 reads
    # -cycbud * x_rob + 4 * (length-4 instances) <= 0 and eq5 reads
    # -n_j * x_rob + (length-j instances) = 0, so a type without robots
    # hosts no instance and a tracked length has exactly n_j per robot.
    slot_of = {j: s for s, j in enumerate(ctx.cycle_length_slots)}
    placed: Counter = Counter()  # (host, length) -> instances placed so far
    cycles_of: dict[int, list[EdgeMultiset]] = {}  # robot -> its cycles, in draw order
    for ct, count in zip(types.cycle_types, cyc_counts):
        if not count:
            continue
        # inside each (class, pair) group the positions take types in canonical order
        group_types: dict[tuple[int, NeiSub], list[VertexType]] = {}
        for ns, vt in ct.pa_alloc:
            group_types.setdefault((vt.class_id, ns), []).append(vt)
        layout = [
            (pos, vt, key[1])
            for key, positions in sorted(cycle_slots(ctx, ct.cycle).items())
            for pos, vt in zip(positions, group_types[key])
        ]
        robots = robots_by_type[ct.host]
        spread = ct.length == 4
        need = 0 if spread else types.robot_types[ct.host].num_of_cyc[slot_of[ct.length]]
        first = placed[(ct.host, ct.length)]
        placed[(ct.host, ct.length)] = first + count
        for q in range(first, first + count):
            walk = list(ct.cycle)
            for pos, vt, ns in layout:
                walk[pos] = pick(vt, ns)
            owner = robots[q % len(robots)] if spread else robots[q // need]
            cycles_of.setdefault(owner, []).append(walk_edges(walk))
    runs: list[tuple[EdgeMultiset, int]] = []
    for ri, robots in robots_by_type.items():
        rt = types.robot_types[ri]
        cc = rt.cc_counter()
        nbhds = copy_neighborhoods(ctx, cc)
        slots = [(copy, vt, nbhds[copy]) for copy, vt in rt.alloc]
        for robot in robots:
            ms = relabel_multiset(cc, {copy: pick(vt, ns) for copy, vt, ns in slots})
            for edges in cycles_of.get(robot, ()):
                ms += edges
            if runs and runs[-1][0] == ms:
                runs[-1] = (ms, runs[-1][1] + 1)
            else:
                runs.append((ms, 1))
    return runs
