import random
from collections import Counter
from pathlib import Path

import pytest

from cge.cover import connect_cover, vertex_cover_2approx
from cge.errors import DomainMismatch
from cge.exact import exact_optimum
from cge.fptilp.context import FptContext
from cge.fptilp.pairs import decompose_valid_pair, solution_pairs
from cge.fptilp.system import (
    build_ilp_system,
    check_assignment,
    export_ilp,
    format_assignment,
    parse_assignment,
    parse_ilp,
    witness_from_solution,
)
from cge.fptilp.typespace import enumerate_type_space
from cge.graphs import ExplorationInstance, Multigraph

from conftest import term_pairs

GOLDEN = Path(__file__).parent / "data" / "path3.ilp"


def build_all(g, v_init, k, budget, cover=None):
    inst = ExplorationInstance(g, v_init, k, budget)
    vcp = connect_cover(g, cover or vertex_cover_2approx(g), v_init)
    ctx = FptContext.build(inst, vcp)
    types = enumerate_type_space(ctx)
    system = build_ilp_system(ctx, types)
    return ctx, types, system


class TestBuildSystem:
    def test_eq1_sums_robot_types_to_k(self):
        g = Multigraph(2, [(0, 1)])
        ctx, types, system = build_all(g, 0, 1, 2, cover=(0, 1))
        eq1 = [c for c in system.constraints if c.tag == "eq1"]
        assert len(eq1) == 1
        assert eq1[0].relation == "=" and eq1[0].rhs == 1
        assert all(coef == 1 for coef, _ in term_pairs(eq1[0].terms))
        assert len(term_pairs(eq1[0].terms)) == len(types.robot_types)

    def test_eq2_rhs_is_class_size(self):
        g = Multigraph(3, [(0, 1), (1, 2)])
        ctx, types, system = build_all(g, 1, 1, 4, cover=(1,))
        eq2 = [c for c in system.constraints if c.tag == "eq2"]
        assert len(eq2) == 1
        assert eq2[0].rhs == 2

    def test_eq4_covers_internal_edge(self):
        g = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
        ctx, types, system = build_all(g, 0, 1, 4, cover=(0, 1))
        eq4 = [c for c in system.constraints if c.tag == "eq4"]
        assert len(eq4) == 1
        assert eq4[0].relation == ">=" and eq4[0].rhs == 1
        assert eq4[0].terms  # someone can carry the cover edge

    def test_constraint_group_counts(self):
        g = Multigraph(3, [(0, 1), (1, 2)])
        ctx, types, system = build_all(g, 1, 2, 4, cover=(1,))
        tags = [c.tag for c in system.constraints]
        assert tags.count("eq1") == 1
        assert tags.count("eq2") == len(ctx.classes)
        assert tags.count("eq3") == sum(
            len(vt.nei_subsets) for vt in types.vertex_types
        )
        assert tags.count("eq5") == len(types.robot_types) * len(
            ctx.cycle_length_slots
        )
        assert tags.count("eq6") == len(types.robot_types)


class TestWitness:
    def test_all_zero_fails_eq1(self):
        g = Multigraph(2, [(0, 1)])
        ctx, types, system = build_all(g, 0, 1, 2, cover=(0, 1))
        zero = dict.fromkeys(system.variables, 0)
        ok, violated = check_assignment(system, zero)
        assert not ok
        assert any(system.constraints[i].tag == "eq1" for i in violated)

    def test_domain_mismatch_rejected(self):
        g = Multigraph(2, [(0, 1)])
        ctx, types, system = build_all(g, 0, 1, 2, cover=(0, 1))
        bad = {"x_nothing": 1}
        with pytest.raises(DomainMismatch):
            check_assignment(system, bad)

    def test_single_robot_witness(self):
        g = Multigraph(2, [(0, 1)])
        inst = ExplorationInstance(g, 0, 1, 2)
        ctx, types, system = build_all(g, 0, 1, 2, cover=(0, 1))
        opt, sol = exact_optimum(inst)
        assert opt == 2
        witness = witness_from_solution(ctx, types, solution_pairs(ctx, sol), system.variables)
        ok, violated = check_assignment(system, witness)
        assert ok, violated
        rob_values = [v for n, v in witness.items() if n.startswith("x_rob_")]
        assert sum(rob_values) == 1

    def test_two_identical_robots_count_two(self):
        g = Multigraph(2, [(0, 1)])
        inst = ExplorationInstance(g, 0, 2, 2)
        vcp = (0, 1)
        ctx = FptContext.build(inst, connect_cover(g, vcp, 0))
        types = enumerate_type_space(ctx)
        system = build_ilp_system(ctx, types)
        source = Counter({(0, 1): 2})
        pairs = [(decompose_valid_pair(ctx, source), 1) for _ in range(2)]
        witness = witness_from_solution(ctx, types, pairs, system.variables)
        assert max(witness.values()) == 2
        ok, _ = check_assignment(system, witness)
        assert ok

    def test_path3_oracle_witness_satisfies(self):
        g = Multigraph(3, [(0, 1), (1, 2)])
        inst = ExplorationInstance(g, 1, 1, 4)
        opt, sol = exact_optimum(inst)
        assert opt == 4
        ctx, types, system = build_all(g, 1, 1, 4, cover=(1,))
        witness = witness_from_solution(ctx, types, solution_pairs(ctx, sol), system.variables)
        ok, violated = check_assignment(system, witness)
        assert ok, [system.constraints[i] for i in violated]

    def test_perturbed_equality_fails(self):
        g = Multigraph(3, [(0, 1), (1, 2)])
        inst = ExplorationInstance(g, 1, 1, 4)
        opt, sol = exact_optimum(inst)
        ctx, types, system = build_all(g, 1, 1, 4, cover=(1,))
        witness = witness_from_solution(ctx, types, solution_pairs(ctx, sol), system.variables)
        bumped = dict(witness)
        target = next(n for n, v in bumped.items() if n.startswith("x_ver_") and v)
        bumped[target] += 1
        ok, violated = check_assignment(system, bumped)
        assert not ok


class TestExport:
    def test_empty_system(self):
        from cge.fptilp.system import IlpSystem

        assert export_ilp(IlpSystem((), ())) == "ilp 0 0\n"

    def test_simple_constraint_shape(self):
        from cge.fptilp.system import Constraint, IlpSystem

        system = IlpSystem(
            ("x_rob_0",), (Constraint("eq1", ((1, 0, 1),), "=", 2),)
        )
        assert export_ilp(system) == "ilp 1 1\nvar x_rob_0\nc eq1 : 1 x_rob_0 = 2\n"

    def test_round_trip_bytes(self):
        g = Multigraph(3, [(0, 1), (1, 2)])
        _, _, system = build_all(g, 1, 1, 4, cover=(1,))
        text = export_ilp(system)
        assert export_ilp(parse_ilp(text)) == text

    def test_golden_file(self):
        g = Multigraph(3, [(0, 1), (1, 2)])
        _, _, system = build_all(g, 1, 1, 4, cover=(1,))
        assert export_ilp(system) == GOLDEN.read_text()

    def test_assignment_round_trip(self):
        g = Multigraph(2, [(0, 1)])
        inst = ExplorationInstance(g, 0, 1, 2)
        ctx, types, system = build_all(g, 0, 1, 2, cover=(0, 1))
        opt, sol = exact_optimum(inst)
        witness = witness_from_solution(ctx, types, solution_pairs(ctx, sol), system.variables)
        text = format_assignment(witness)
        assert format_assignment(parse_assignment(text)) == text
