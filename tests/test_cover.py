import random

import pytest

from cge.cover import (
    VertexCover,
    build_equivalence_graph,
    build_gbar,
    connect_cover,
    equivalence_classes,
    num_ver,
    vertex_cover_2approx,
)
from cge.errors import EmptyGraph, NotACover, TypeSpaceTooLarge
from cge.graphs import Multigraph

from conftest import brute_force_min_vertex_cover, edge_items, induced, random_connected_graph


def path3():
    return Multigraph.from_pairs(3, [(0, 1), (1, 2)])


def triangle():
    return Multigraph.from_pairs(3, [(0, 1), (0, 2), (1, 2)])


def star(leaves):
    return Multigraph.from_pairs(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def c4():
    return Multigraph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


class TestTwoApprox:
    def test_single_edge_keeps_both_endpoints(self):
        g = Multigraph.from_pairs(2, [(0, 1)])
        assert vertex_cover_2approx(g).vertices == (0, 1)

    def test_triangle(self):
        assert vertex_cover_2approx(triangle()).vertices == (0, 1)

    def test_star_cover_property(self):
        g = star(4)
        vc = vertex_cover_2approx(g)
        assert vc.vertices == (0, 1)
        cs = set(vc.vertices)
        assert all(u in cs or v in cs for u, v in g.distinct_edges())

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraph):
            vertex_cover_2approx(Multigraph(0))

    def test_factor_two_against_bruteforce(self):
        rng = random.Random(421)
        for _ in range(60):
            g = random_connected_graph(rng, n_max=8, m_max=12)
            vc = vertex_cover_2approx(g)
            cs = set(vc.vertices)
            assert all(u in cs or v in cs for u, v in g.distinct_edges())
            assert len(vc) <= 2 * brute_force_min_vertex_cover(g)


class TestConnectCover:
    def test_path_forced_connector(self):
        vc = connect_cover(path3(), VertexCover((0, 2)), 0)
        assert vc.vertices == (0, 1, 2)

    def test_triangle_identity(self):
        vc = connect_cover(triangle(), VertexCover((0, 1)), 0)
        assert vc.vertices == (0, 1)

    def test_star_adds_only_v_init(self):
        vc = connect_cover(star(3), VertexCover((0,)), 2)
        assert vc.vertices == (0, 2)

    def test_rejects_non_cover(self):
        with pytest.raises(NotACover):
            connect_cover(triangle(), VertexCover((2,)), 0)

    def test_random_properties(self):
        rng = random.Random(7)
        for _ in range(80):
            g = random_connected_graph(rng, n_max=8, m_max=12)
            base = vertex_cover_2approx(g)
            v_init = rng.randrange(g.n)
            vcp = connect_cover(g, base, v_init)
            assert v_init in vcp.as_set()
            assert set(base.vertices) <= vcp.as_set()
            assert len(vcp) <= 2 * max(1, len(base))
            sub = induced(g, vcp.as_set())
            assert len(sub.components(vcp.as_set())) == 1


def multi_round_connect(g, vc, v_init):
    """The multi-round loop `connect_cover` replaced: recompute the components
    of the current set, add the first outside vertex (in id order) adjacent to
    two of them, and start over."""
    current = set(vc.vertices) | {v_init}
    while True:
        comps = g.components(current)
        if len(comps) <= 1:
            return tuple(sorted(current))
        comp_id = {v: i for i, comp in enumerate(comps) for v in comp}
        for v in range(g.n):
            if v not in current and len({comp_id[w] for w in g.neighbors(v) if w in comp_id}) >= 2:
                current.add(v)
                break
        else:
            raise NotACover("cannot connect cover: host graph is disconnected")


def random_minimal_cover(rng, g):
    """Drop vertices in random order while the rest still covers every edge;
    such covers leave many components for the connectors to join."""
    cover = set(range(g.n))
    order = list(range(g.n))
    rng.shuffle(order)
    for v in order:
        if all(w in cover for w in g.neighbors(v)):
            cover.discard(v)
    return VertexCover(tuple(sorted(cover)))


class TestConnectCoverMatchesMultiRound:
    def check(self, g, vc, v_init):
        vcp = connect_cover(g, vc, v_init)
        assert vcp.vertices == multi_round_connect(g, vc, v_init)

    def test_seeded_connected_graphs(self):
        rng = random.Random(8123)
        for _ in range(300):
            g = random_connected_graph(rng, n_max=rng.choice((8, 20, 40)), m_max=60)
            cover = rng.choice((vertex_cover_2approx(g), random_minimal_cover(rng, g)))
            self.check(g, cover, rng.randrange(g.n))

    def test_sparse_trees(self):
        rng = random.Random(8124)
        for _ in range(40):
            n = rng.randint(50, 150)
            g = random_connected_graph(rng, n_max=n, m_max=n - 1)
            self.check(g, random_minimal_cover(rng, g), rng.randrange(g.n))

    def test_covers_padded_with_extra_vertices(self):
        rng = random.Random(8125)
        for _ in range(200):
            g = random_connected_graph(rng, n_max=25, m_max=40)
            cover = set(random_minimal_cover(rng, g).vertices)
            cover |= set(rng.sample(range(g.n), rng.randint(1, g.n)))
            self.check(g, VertexCover(tuple(sorted(cover))), rng.randrange(g.n))

    def test_v_init_outside_the_cover(self):
        rng = random.Random(8126)
        checked = 0
        for _ in range(200):
            g = random_connected_graph(rng, n_max=25, m_max=40)
            cover = random_minimal_cover(rng, g)
            outside = sorted(set(range(g.n)) - set(cover.vertices))
            if outside:
                self.check(g, cover, rng.choice(outside))
                checked += 1
        assert checked >= 150

    def test_disconnected_host_is_not_connectable(self):
        g = Multigraph.from_pairs(5, [(0, 1), (1, 2), (3, 4)])
        for cover in ((1, 3), (0, 2, 3), (1, 4)):
            with pytest.raises(NotACover):
                connect_cover(g, VertexCover(cover), 0)
            with pytest.raises(NotACover):
                multi_round_connect(g, VertexCover(cover), 0)


class TestEquivalenceClasses:
    def test_path_single_class(self):
        eq = equivalence_classes(path3(), VertexCover((1,)))
        assert len(eq) == 1
        assert eq.classes[0].neighborhood == (1,)
        assert eq.classes[0].members == (0, 2)

    def test_c4_single_class(self):
        eq = equivalence_classes(c4(), VertexCover((0, 2)))
        assert len(eq) == 1
        assert eq.classes[0].neighborhood == (0, 2)
        assert eq.classes[0].members == (1, 3)

    def test_star_with_enlarged_cover(self):
        eq = equivalence_classes(star(3), VertexCover((0, 1)))
        assert len(eq) == 1
        assert eq.classes[0].neighborhood == (0,)
        assert eq.classes[0].members == (2, 3)

    def test_partition_and_equivalence_laws(self):
        rng = random.Random(99)
        for _ in range(40):
            g = random_connected_graph(rng, n_max=8, m_max=12)
            vcp = connect_cover(g, vertex_cover_2approx(g), 0)
            eq = equivalence_classes(g, vcp)
            members = [u for cls in eq.classes for u in cls.members]
            assert sorted(members) == sorted(set(range(g.n)) - vcp.as_set())
            neighborhoods = [cls.neighborhood for cls in eq.classes]
            assert len(set(neighborhoods)) == len(neighborhoods)
            for cls in eq.classes:
                for u in cls.members:
                    assert tuple(g.neighbors(u)) == cls.neighborhood


class TestQuotientGraph:
    def test_path(self):
        g = path3()
        vcp = VertexCover((1,))
        eq = equivalence_classes(g, vcp)
        res = build_equivalence_graph(g, vcp, eq)
        assert res.class_vertex == (3,)
        assert edge_items(res.graph) == [((1, 3), 1)]

    def test_c4(self):
        g = c4()
        vcp = VertexCover((0, 2))
        eq = equivalence_classes(g, vcp)
        res = build_equivalence_graph(g, vcp, eq)
        assert res.class_vertex == (4,)
        assert edge_items(res.graph) == [((0, 4), 1), ((2, 4), 1)]

    def test_vertex_count_identity(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_connected_graph(rng)
            vcp = connect_cover(g, vertex_cover_2approx(g), 0)
            eq = equivalence_classes(g, vcp)
            res = build_equivalence_graph(g, vcp, eq)
            active = {v for e in res.graph.distinct_edges() for v in e}
            if res.graph.num_edges:
                assert active <= (vcp.as_set() | set(res.class_vertex))
            assert res.graph.n == g.n + len(eq)


class TestExpandedGraph:
    def test_path_two_copies(self):
        g = path3()
        vcp = VertexCover((1,))
        eq = equivalence_classes(g, vcp)
        res = build_gbar(g, vcp, eq)
        assert res.copies == ((3, 4),)
        assert edge_items(res.graph) == [((1, 3), 2), ((1, 4), 2)]

    def test_c4_two_copies(self):
        g = c4()
        vcp = VertexCover((0, 2))
        eq = equivalence_classes(g, vcp)
        res = build_gbar(g, vcp, eq)
        assert res.copies == ((4, 5),)
        assert res.graph.num_distinct_edges == 4
        assert all(m == 2 for _, m in edge_items(res.graph))

    def test_num_ver_formula(self):
        assert num_ver(10, 2, 2) == 8
        assert num_ver(2, 1, 1) == 2
        assert num_ver(2, 2, 2) == 2

    def test_cap_guard(self):
        g = star(6)
        vcp = VertexCover(tuple(range(7)))
        eq = equivalence_classes(g, vcp)
        with pytest.raises(TypeSpaceTooLarge):
            build_gbar(g, vcp, eq)

    def test_all_multiplicities_two(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_connected_graph(rng, n_max=6, m_max=8)
            vcp = connect_cover(g, vertex_cover_2approx(g), 0)
            if len(vcp) > 6:
                continue
            eq = equivalence_classes(g, vcp)
            res = build_gbar(g, vcp, eq)
            assert all(m == 2 for _, m in edge_items(res.graph))
