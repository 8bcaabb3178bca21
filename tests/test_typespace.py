import random

import pytest

from cge import cover
from cge.cover import VertexCover, connect_cover, vertex_cover_2approx
from cge.errors import PreconditionViolated, TypeSpaceTooLarge
from cge.exact import exact_optimum
from cge.fptilp.context import FptContext
from cge.fptilp.pairs import ValidPair, decompose_valid_pair, solution_pairs
from cge.fptilp import typespace
from cge.fptilp.typespace import (
    derive_cycle_type,
    derive_robot_type,
    derive_vertex_types,
    enumerate_type_space,
    robot_bud,
)
from cge.graphs import ExplorationInstance, Multigraph
from cge.textio import parse_instance

from conftest import random_connected_graph, with_budget
from corpus import CORPUS, corpus_cover


def make_ctx(g, v_init, k, budget, cover=None):
    inst = ExplorationInstance(g, v_init, k, budget)
    vcp = connect_cover(g, cover or vertex_cover_2approx(g), v_init)
    return FptContext.build(inst, vcp)


def path3_ctx(k=1, budget=4):
    g = Multigraph(3, [(0, 1), (1, 2)])
    return make_ctx(g, 1, k, budget, cover=VertexCover((1,)))


class TestDeriveVertexType:
    def test_skeleton_only_occurrence(self):
        ctx = path3_ctx()
        pair = ValidPair(cc=((0, 1), (0, 1), (1, 2), (1, 2)), cycles=())
        vt = derive_vertex_types(ctx, [pair])[0]
        assert vt.class_id == 0
        assert vt.nei_subsets == ((1, 1),)

    def test_cycle_only_occurrence(self):
        ctx = path3_ctx()
        pair = ValidPair(cc=((0, 1), (0, 1)), cycles=((1, 2, 1),))
        vt = derive_vertex_types(ctx, [pair])[2]
        assert vt.nei_subsets == ((1, 1),)

    def test_rejects_cover_vertex(self):
        ctx = path3_ctx()
        assert sorted(derive_vertex_types(ctx, [])) == [0, 2]  # not the cover vertex 1

    def test_three_robot_scenario_around_one_vertex(self, monkeypatch):
        """Independent vertex 0 adjacent to cover path 1..8; one robot covers
        it with neighborhood {1,6,8,8}, one with two cycles through {3,4} and
        {7,8}, one with {2,2,5,6}: four neighbor multisets, verbatim.
        """
        pairs = [(0, w) for w in range(1, 9)]
        pairs += [(i, i + 1) for i in range(1, 8)]
        g = Multigraph(9, pairs)
        monkeypatch.setattr(cover, "MAX_COVER", 8)
        ctx = make_ctx(g, 1, 3, 40, cover=VertexCover(tuple(range(1, 9))))
        red = ValidPair(
            cc=(
                (0, 1), (0, 6), (0, 8), (0, 8),
                (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
            ),
            cycles=(),
        )
        blue = ValidPair(
            cc=((1, 2), (1, 2)),
            cycles=((3, 0, 4, 3), (7, 0, 8, 7)),
        )
        green = ValidPair(
            cc=((0, 2), (0, 2), (0, 5), (0, 6), (5, 6), (1, 2), (1, 2)),
            cycles=(),
        )
        vt = derive_vertex_types(ctx, [red, blue, green])[0]
        assert vt.nei_subsets == (
            (1, 6, 8, 8),
            (2, 2, 5, 6),
            (3, 4),
            (7, 8),
        )


class TestDeriveRobotType:
    def test_double_edge_at_start(self):
        g = Multigraph(2, [(0, 1)])
        ctx = make_ctx(g, 0, 1, 2, cover=VertexCover((0, 1)))
        pair = ValidPair(cc=((0, 1), (0, 1)), cycles=())
        rt = derive_robot_type(ctx, pair, derive_vertex_types(ctx, [pair]))
        assert rt.cc == ((0, 1), (0, 1))
        assert rt.alloc == ()
        assert all(n == 0 for n in rt.num_of_cyc)

    def test_triangle_cycle_counts(self):
        g = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
        ctx = make_ctx(g, 0, 1, 8, cover=VertexCover((0, 1, 2)))
        pair = ValidPair(
            cc=((0, 1), (0, 1)), cycles=((0, 1, 2, 0),)
        )
        rt = derive_robot_type(ctx, pair, derive_vertex_types(ctx, [pair]))
        # slots are lengths 2..6 without 4; the triangle sits in slot for 3
        slots = ctx.cycle_length_slots
        assert rt.num_of_cyc[slots.index(3)] == 1
        assert sum(rt.num_of_cyc) == 1

    def test_allocation_domain_has_doubled_pair(self):
        """A skeleton whose class copy is doubled toward one cover vertex
        must allocate the pair (copy, {1, 1}).
        """
        g = Multigraph(3, [(1, 0), (1, 2)])  # center 1
        ctx = make_ctx(g, 1, 1, 6, cover=VertexCover((1,)))
        pair = ValidPair(cc=((0, 1), (0, 1)), cycles=())
        rt = derive_robot_type(ctx, pair, derive_vertex_types(ctx, [pair]))
        assert len(rt.alloc) == 1
        copy, vt = rt.alloc[0]
        assert copy in ctx.gbar.copies[0]
        assert vt.class_id == 0

    def test_relabel_into_expansion_ids(self):
        ctx = path3_ctx(budget=8)
        pair = ValidPair(
            cc=((0, 1), (0, 1), (1, 2), (1, 2)), cycles=()
        )
        rt = derive_robot_type(ctx, pair, derive_vertex_types(ctx, [pair]))
        copies = ctx.gbar.copies[0]
        assert rt.cc == (
            (1, copies[0]), (1, copies[0]), (1, copies[1]), (1, copies[1])
        )


class TestDeriveCycleType:
    def test_two_cycle_through_independent(self):
        ctx = path3_ctx()
        pair = ValidPair(cc=((0, 1), (0, 1)), cycles=((1, 2, 1),))
        ct = derive_cycle_type(ctx, 0, (1, 2, 1), derive_vertex_types(ctx, [pair]))
        star_vertex = ctx.gstar.class_vertex[0]
        assert ct.cycle == (1, star_vertex, 1)
        assert len(ct.pa_alloc) == 1
        assert ct.pa_alloc[0][0] == (1, 1)

    def test_cover_only_cycle_has_empty_alloc(self):
        g = Multigraph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        ctx = make_ctx(g, 0, 1, 10, cover=VertexCover((0, 1, 2)))
        pair = ValidPair(
            cc=((0, 3), (0, 3)), cycles=((0, 1, 2, 0),)
        )
        ct = derive_cycle_type(ctx, 0, (0, 1, 2, 0), derive_vertex_types(ctx, [pair]))
        assert ct.pa_alloc == ()
        assert ct.cycle == (0, 1, 2, 0)


class TestEnumerate:
    def test_path_single_vertex_type(self):
        ctx = path3_ctx()
        space = enumerate_type_space(ctx)
        assert len(space.vertex_types) == 1
        assert space.vertex_types[0].nei_subsets == ((1, 1),)

    def test_no_independents_no_vertex_types(self):
        g = Multigraph(2, [(0, 1)])
        ctx = make_ctx(g, 0, 1, 2, cover=VertexCover((0, 1)))
        space = enumerate_type_space(ctx)
        assert space.vertex_types == ()
        assert all(ct.pa_alloc == () for ct in space.cycle_types)

    def test_doubled_edge_robot_type_present(self):
        g = Multigraph(2, [(0, 1)])
        ctx = make_ctx(g, 0, 1, 2, cover=VertexCover((0, 1)))
        space = enumerate_type_space(ctx)
        ccs = {rt.cc for rt in space.robot_types}
        assert ((0, 1), (0, 1)) in ccs
        assert all(robot_bud(ctx, rt) <= ctx.budget for rt in space.robot_types)

    def test_guard_rejects_large_cover(self):
        g = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        ctx = make_ctx(g, 0, 1, 8)  # connected cover of a 4-cycle has size 3
        with pytest.raises(TypeSpaceTooLarge):
            enumerate_type_space(ctx)

    def test_star5_counts_every_kind_against_one_cap(self, monkeypatch):
        """star5-k1 holds 1 vertex, 171 robot and 855 cycle types, 1027 in
        all: the cap trips at the kind whose count passes it."""
        inst = parse_instance((CORPUS / "star5-k1.cge").read_text()).payload
        ctx = FptContext.build(inst, corpus_cover(inst))
        for cap, kind in ((100, "robot"), (1000, "cycle"), (1026, "cycle")):
            monkeypatch.setattr(typespace, "MAX_TYPES", cap)
            with pytest.raises(TypeSpaceTooLarge) as exc:
                enumerate_type_space(ctx)
            assert str(exc.value) == (
                f"more than {cap} types once the {kind} types are counted; "
                "shrink the instance"
            )
        monkeypatch.setattr(typespace, "MAX_TYPES", 1027)
        assert tuple(map(len, enumerate_type_space(ctx))) == (1, 171, 855)

    def test_rejects_edgeless(self):
        g = Multigraph(1)
        inst = ExplorationInstance(g, 0, 1, 0)
        ctx = FptContext.build(inst, VertexCover((0,)))
        with pytest.raises(PreconditionViolated):
            enumerate_type_space(ctx)


class TestTypeClosure:
    """Every type derived from a decomposed oracle solution is enumerated."""

    def test_collapsed_square_on_single_cover_vertex(self):
        """With a size-1 cover, the square through two equivalent leaves maps
        to a quotient walk bouncing twice on one edge; it must be enumerated.
        """
        g = Multigraph(4, [(0, 1), (0, 2), (0, 3)])
        inst = ExplorationInstance(g, 0, 1)
        opt, sol = exact_optimum(inst)
        vcp = connect_cover(g, VertexCover((0,)), 0)
        ctx = FptContext.build(with_budget(inst, opt), vcp)
        pair = decompose_valid_pair(ctx, sol.runs[0][0].edge_multiset())
        assert (0, 2, 0, 3, 0) in pair.cycles
        space = enumerate_type_space(ctx)
        vtypes = derive_vertex_types(ctx, [pair])
        host = space.robot_types.index(derive_robot_type(ctx, pair, vtypes))
        ct = derive_cycle_type(ctx, host, (0, 2, 0, 3, 0), vtypes)
        star_vertex = ctx.gstar.class_vertex[0]
        assert ct.cycle == (0, star_vertex, 0, star_vertex, 0)
        assert ct in set(space.cycle_types)

    @pytest.mark.parametrize("seed", range(10))
    def test_derived_types_are_members(self, seed):
        rng = random.Random(4000 + seed)
        while True:
            g = random_connected_graph(rng, n_max=5, m_max=6)
            v_init = rng.randrange(g.n)
            vcp = connect_cover(g, vertex_cover_2approx(g), v_init)
            eq_count = len({tuple(g.neighbors(u)) for u in range(g.n) if u not in vcp.as_set()})
            if len(vcp) <= 2 and eq_count <= 3:
                break
        k = rng.randint(1, 2)
        inst = ExplorationInstance(g, v_init, k)
        opt, sol = exact_optimum(inst)
        ctx = FptContext.build(with_budget(inst, opt), vcp)
        space = enumerate_type_space(ctx)
        ver_set = set(space.vertex_types)
        rob_set = set(space.robot_types)
        cyc_set = set(space.cycle_types)
        runs = solution_pairs(ctx, sol)
        vtypes = derive_vertex_types(ctx, [pair for pair, _ in runs])
        for u in range(g.n):
            if u not in ctx.cover_set:
                assert vtypes[u] in ver_set
        for pair, _ in runs:
            rt = derive_robot_type(ctx, pair, vtypes)
            assert rt in rob_set
            host = space.robot_types.index(rt)
            for cyc in pair.cycles:
                assert derive_cycle_type(ctx, host, cyc, vtypes) in cyc_set
