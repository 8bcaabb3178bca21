import random
from collections import Counter

import pytest

from cge.cover import VertexCover, connect_cover, vertex_cover_2approx
from cge.errors import InfeasibleAllocation
from cge.euler import solution_from_multisets, verify_solution
from cge.exact import exact_optimum
from cge.fptilp import (
    FptContext,
    IlpAssignment,
    build_ilp_system,
    check_assignment,
    enumerate_type_space,
    reconstruct_solution,
    solution_pairs,
    witness_from_solution,
)
from cge.fptilp.system import type_counts
from cge.graphs import ExplorationInstance, Multigraph

from conftest import feasibility_conditions_hold, random_connected_graph


def pipeline(g, v_init, k, budget, cover=None):
    inst = ExplorationInstance(g, v_init, k, budget)
    vcp = connect_cover(g, cover or vertex_cover_2approx(g), v_init)
    ctx = FptContext.build(inst, vcp)
    types = enumerate_type_space(ctx)
    system = build_ilp_system(ctx, types)
    return inst, ctx, types, system


class TestReconstruct:
    def test_single_robot_round_trip(self):
        g = Multigraph.from_pairs(2, [(0, 1)])
        inst, ctx, types, system = pipeline(g, 0, 1, 2, cover=VertexCover((0, 1)))
        opt, sol = exact_optimum(inst)
        witness = witness_from_solution(ctx, types, solution_pairs(ctx, sol))
        multisets = reconstruct_solution(ctx, types, system, witness)
        assert multisets == [Counter({(0, 1): 2})]

    def test_rejects_unsatisfying_assignment(self):
        g = Multigraph.from_pairs(2, [(0, 1)])
        inst, ctx, types, system = pipeline(g, 0, 1, 2, cover=VertexCover((0, 1)))
        zero = IlpAssignment(tuple((n, 0) for n in system.variables))
        with pytest.raises(InfeasibleAllocation):
            reconstruct_solution(ctx, types, system, zero)

    def test_balanced_four_cycle_split(self):
        """Two robots of one type hosting two length-4 cycle instances get
        one each.
        """
        g = Multigraph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        inst, ctx, types, system = pipeline(
            g, 0, 2, 6, cover=VertexCover((0, 1))
        )
        chosen_rob = None
        chosen_cyc = None
        for ri, rt in enumerate(types.robot_types):
            if len(rt.cc) != 2 or ctx.v_init not in {v for e in rt.cc for v in e}:
                continue
            for ci, ct in enumerate(types.cycle_types):
                if ct.robot_type != rt or ct.length != 4:
                    continue
                counts = Counter()
                for ns, vt in ct.pa_alloc:
                    counts[(vt, ns)] += 1
                if all(rt.num_of_cyc[s] == 0 for s in range(len(rt.num_of_cyc))):
                    chosen_rob, chosen_cyc = ri, ci
                    break
            if chosen_cyc is not None:
                break
        assert chosen_cyc is not None
        values = {n: 0 for n in system.variables}
        values[f"x_rob_{chosen_rob}"] = 2
        values[f"x_cyc_{chosen_cyc}"] = 2
        # vertex types: give every class member the type the cycle allocates
        ct = types.cycle_types[chosen_cyc]
        rt = types.robot_types[chosen_rob]
        assignment = IlpAssignment(tuple(values.items()))
        owners = Counter()
        from cge.fptilp.reconstruct import _allocate_cycles_to_robots

        robot_of = [rt, rt]
        alloc = _allocate_cycles_to_robots(
            ctx, types, type_counts(types, assignment)[2], robot_of
        )
        for (ci, inst_idx), robot in alloc.items():
            owners[robot] += 1
        assert sorted(owners.values()) == [1, 1]

    def test_hand_built_assignment_with_cycle_coverage(self):
        """A satisfying assignment never derived from a solution: one robot
        whose skeleton doubles one leaf edge and whose single 2-cycle covers
        the other leaf through the class vertex.
        """
        g = Multigraph.from_pairs(3, [(0, 1), (1, 2)])
        inst, ctx, types, system = pipeline(g, 1, 1, 4, cover=VertexCover((1,)))
        vt = types.vertex_types[0]
        copies = ctx.gbar.copies[0]
        slot2 = ctx.cycle_length_slots.index(2)
        ri = next(
            i
            for i, rt in enumerate(types.robot_types)
            if rt.cc == ((1, copies[0]), (1, copies[0]))
            and rt.num_of_cyc[slot2] == 1
            and sum(rt.num_of_cyc) == 1
        )
        rt = types.robot_types[ri]
        star_vertex = ctx.gstar.class_vertex[0]
        ci = next(
            i
            for i, ct in enumerate(types.cycle_types)
            if ct.robot_type == rt and ct.cycle == (1, star_vertex, 1)
        )
        values = {n: 0 for n in system.variables}
        values["x_ver_0"] = 2
        values[f"x_rob_{ri}"] = 1
        values[f"x_cyc_{ci}"] = 1
        assignment = IlpAssignment(tuple(values.items()))
        ok, violated = check_assignment(system, assignment)
        assert ok, [system.constraints[i] for i in violated]
        multisets = reconstruct_solution(ctx, types, system, assignment)
        assert multisets == [Counter({(0, 1): 2, (1, 2): 2})]
        assert feasibility_conditions_hold(inst, multisets, 4)

    def test_round_trip_on_corpus(self):
        rng = random.Random(6100)
        done = 0
        while done < 12:
            g = random_connected_graph(rng, n_max=5, m_max=6)
            v_init = rng.randrange(g.n)
            vcp = connect_cover(g, vertex_cover_2approx(g), v_init)
            classes = {
                tuple(g.neighbors(u))
                for u in range(g.n)
                if u not in vcp.as_set()
            }
            if len(vcp) > 2 or len(classes) > 3:
                continue
            k = rng.randint(1, 2)
            inst = ExplorationInstance(g, v_init, k)
            opt, sol = exact_optimum(inst)
            inst = inst.with_budget(opt)
            ctx = FptContext.build(inst, vcp)
            types = enumerate_type_space(ctx)
            system = build_ilp_system(ctx, types)
            witness = witness_from_solution(ctx, types, solution_pairs(ctx, sol))
            ok, violated = check_assignment(system, witness)
            assert ok, [system.constraints[i] for i in violated]
            multisets = reconstruct_solution(ctx, types, system, witness)
            assert feasibility_conditions_hold(inst, multisets, opt)
            sol = solution_from_multisets(g.n, v_init, multisets, k)
            report = verify_solution(inst, sol)
            assert report.ok
            assert report.value <= opt
            done += 1
