"""Reconstruction from every satisfying assignment of small systems.

The equation structure prunes the enumeration: class and robot counts are
compositions forced by the two equality groups, and cycle counts are tied to
their host robot counts, so the candidate space stays tiny.  Each satisfying
assignment must reconstruct into feasible multisets within the budget.
"""

import itertools

import pytest

from cge.cover import VertexCover, connect_cover
from cge.euler import solution_from_multisets, verify_solution
from cge.fptilp.context import FptContext
from cge.fptilp.reconstruct import reconstruct_solution
from cge.fptilp.system import IlpAssignment, build_ilp_system, check_assignment
from cge.fptilp.typespace import enumerate_type_space, robot_bud, robot_cycbud
from cge.graphs import ExplorationInstance, Multigraph

from conftest import feasibility_conditions_hold, robot_multisets


def compositions(total, parts):
    """All vectors of `parts` non-negative ints summing to `total`."""
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def satisfying_assignments(ctx, types, system, cap=100_000):
    """Enumerate assignments satisfying the system, via its equality groups."""
    names = system.variables
    n_ver = len(types.vertex_types)
    n_rob = len(types.robot_types)
    ver_groups = []
    for cls_idx, cls in enumerate(ctx.eq.classes):
        idxs = [i for i, vt in enumerate(types.vertex_types) if vt.class_id == cls_idx]
        ver_groups.append((idxs, len(cls.members)))
    ver_parts = []
    for idxs, total in ver_groups:
        ver_parts.append([(idxs, combo) for combo in compositions(total, len(idxs))])

    hosted: dict[int, list[int]] = {ri: [] for ri in range(n_rob)}
    for ci, ct in enumerate(types.cycle_types):
        hosted[ct.host].append(ci)

    count = 0
    for rob_combo in compositions(ctx.k, n_rob):
        # per active robot type, cycle counts per length are forced sums
        cyc_parts: list[list[tuple[list[int], tuple]]] = []
        feasible = True
        for ri, x_rob in enumerate(rob_combo):
            rt = types.robot_types[ri]
            for slot, j in enumerate(ctx.cycle_length_slots):
                idxs = [ci for ci in hosted[ri] if types.cycle_types[ci].length == j]
                need = rt.num_of_cyc[slot] * x_rob
                combos = compositions(need, len(idxs))
                if not combos:
                    feasible = False
                    break
                cyc_parts.append([(idxs, c) for c in combos])
            if not feasible:
                break
            idxs4 = [ci for ci in hosted[ri] if types.cycle_types[ci].length == 4]
            max4 = (x_rob * robot_cycbud(ctx, rt)) // 4
            quad_combos = []
            for total in range(max4 + 1):
                quad_combos.extend(compositions(total, len(idxs4)))
            if not idxs4:
                quad_combos = [()]
            cyc_parts.append([(idxs4, c) for c in quad_combos])
        if not feasible:
            continue
        for ver_choice in itertools.product(*ver_parts):
            for cyc_choice in itertools.product(*cyc_parts):
                values = dict.fromkeys(names, 0)
                for idxs, combo in ver_choice:
                    for i, v in zip(idxs, combo):
                        values[f"x_ver_{i}"] = v
                for ri, x_rob in enumerate(rob_combo):
                    values[f"x_rob_{ri}"] = x_rob
                for idxs, combo in cyc_choice:
                    for ci, v in zip(idxs, combo):
                        values[f"x_cyc_{ci}"] = v
                count += 1
                assert count <= cap, "assignment enumeration exceeded the cap"
                assignment = IlpAssignment(tuple((n, values[n]) for n in names))
                ok, _ = check_assignment(system, assignment)
                if ok:
                    yield assignment


CASES = [
    ("single-edge-k2", Multigraph(2, [(0, 1)]), 0, 2, 2, (0, 1)),
    ("single-edge-k3-slack", Multigraph(2, [(0, 1)]), 0, 3, 4, (0, 1)),
    ("path3-k1", Multigraph(3, [(0, 1), (1, 2)]), 1, 1, 4, (1,)),
    ("path3-k1-slack", Multigraph(3, [(0, 1), (1, 2)]), 1, 1, 6, (1,)),
    ("star2-single-cover", Multigraph(3, [(0, 1), (0, 2)]), 0, 1, 4, (0,)),
    ("star2-k2-slack", Multigraph(3, [(0, 1), (0, 2)]), 0, 2, 6, (0,)),
    ("triangle-k1", Multigraph(3, [(0, 1), (0, 2), (1, 2)]), 0, 1, 3, (0, 1)),
]


@pytest.mark.parametrize("name,g,v_init,k,budget,cover", CASES)
def test_every_satisfying_assignment_reconstructs(name, g, v_init, k, budget, cover):
    inst = ExplorationInstance(g, v_init, k, budget)
    vcp = connect_cover(g, VertexCover(cover), v_init)
    ctx = FptContext.build(inst, vcp)
    types = enumerate_type_space(ctx)
    system = build_ilp_system(ctx, types)
    found = 0
    for assignment in satisfying_assignments(ctx, types, system):
        runs = reconstruct_solution(ctx, types, system, assignment)
        multisets = robot_multisets(runs)
        assert feasibility_conditions_hold(inst, multisets, budget), (
            name,
            assignment.values,
            [dict(m) for m in multisets],
        )
        sol = solution_from_multisets(g.n, v_init, runs, k)
        report = verify_solution(inst, sol)
        assert report.ok, name
        found += 1
    assert found > 0, f"{name}: no satisfying assignments found"
