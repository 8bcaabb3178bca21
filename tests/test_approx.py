import random
from collections import Counter

import pytest

from cge.approx import (
    approx_solve,
    deal_cover_edges,
    even_independent_degrees,
    make_vc_even_degree,
    partition_independent_edges,
    spanning_tree,
)
from cge.cover import VertexCover, connect_cover, vertex_cover_2approx
from cge.errors import OddDegree, TreeNotSpanning
from cge.euler import verify_solution
from cge.exact import exact_optimum
from cge.graphs import ExplorationInstance, Multigraph, norm_edge

import approx_reference as reference
from conftest import has_edge, multiset_degree, random_connected_graph, robot_cycles


def star(leaves):
    return Multigraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def tree_edges(parent):
    return Counter(norm_edge(v, p) for v, p in parent.items())


def rerooted(parent, vertices, root):
    """The same tree as a parent map rooted at `root`, in BFS order."""
    tree = Multigraph(max(vertices) + 1, dict(tree_edges(parent)))
    return spanning_tree(tree, vertices, root)


def lowest_leaf_reference(tree, e, vcp):
    """The former parity fix: remove the lowest-id leaf of the shrinking tree,
    adding one copy of its tree edge first if its degree is odd."""
    cset = vcp.as_set()
    tree_adj = {v: set() for v in cset}
    for (u, v), m in tree.items():
        if m:
            tree_adj[u].add(v)
            tree_adj[v].add(u)
    result = Counter(e)
    alive = set(cset)
    deg = {v: multiset_degree(result, v) for v in alive}
    while len(alive) >= 2:
        leaf = min(v for v in alive if len(tree_adj[v]) == 1)
        nbr = next(iter(tree_adj[leaf]))
        if deg[leaf] % 2 == 1:
            result[norm_edge(leaf, nbr)] += 1
            deg[leaf] += 1
            deg[nbr] += 1
        tree_adj[nbr].discard(leaf)
        del tree_adj[leaf]
        alive.discard(leaf)
    return result


def random_tree_case(rng):
    """A random cover with a random spanning tree (attachment to any earlier
    vertex, a path or a star), as a parent map rooted at the first cover
    vertex, and a multiset containing the tree in which every vertex outside
    the cover has even degree."""
    n = rng.randint(1, 30)
    labels = rng.sample(range(n + 8), n + rng.randint(0, 8))
    cover, outside = labels[:n], labels[n:]
    shape = rng.choice(("attach", "path", "star"))
    parent = {}
    for i in range(1, n):
        other = {"attach": rng.choice(cover[:i]), "path": cover[i - 1], "star": cover[0]}
        parent[cover[i]] = other[shape]
    e = tree_edges(parent)
    for _ in range(rng.randint(0, 3 * n)):
        u = rng.choice(cover)
        w = rng.choice(cover + outside)
        if w != u:
            e[norm_edge(u, w)] += rng.randint(1, 2)
    for w in outside:
        if multiset_degree(e, w) % 2:
            e[norm_edge(w, rng.choice(cover))] += 1
    return parent, e, VertexCover(tuple(cover))


class TestEvenIndependentDegrees:
    def test_path_both_ends_duplicated(self):
        g = Multigraph(3, [(0, 1), (1, 2)])
        e_ind = even_independent_degrees(g, VertexCover((1,)))
        assert e_ind == Counter({(0, 1): 2, (1, 2): 2})

    def test_c4_no_duplicates(self):
        g = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        e_ind = even_independent_degrees(g, VertexCover((0, 2)))
        assert e_ind == Counter({(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})

    def test_star_three_duplicates(self):
        e_ind = even_independent_degrees(star(3), VertexCover((0,)))
        assert sum(e_ind.values()) == 6
        assert all(m == 2 for m in e_ind.values())


class TestPartition:
    def test_pair_parity_per_robot(self):
        rng = random.Random(31)
        for _ in range(60):
            g = random_connected_graph(rng)
            k = rng.randint(1, 3)
            vcp = connect_cover(g, vertex_cover_2approx(g), 0)
            e_ind = even_independent_degrees(g, vcp)
            state = partition_independent_edges(g, vcp, e_ind, k)
            assert sum(state.e_i, Counter()) == e_ind
            cset = vcp.as_set()
            for ms in state.e_i:
                for u in range(g.n):
                    if u not in cset:
                        assert multiset_degree(ms, u) % 2 == 0

    def test_balance_within_two(self):
        rng = random.Random(32)
        for _ in range(60):
            g = random_connected_graph(rng)
            k = rng.randint(1, 3)
            vcp = connect_cover(g, vertex_cover_2approx(g), 0)
            e_ind = even_independent_degrees(g, vcp)
            state = partition_independent_edges(g, vcp, e_ind, k)
            deal_cover_edges(g, vcp, state)
            # robots past the dealt prefix hold no edges
            padded = state.e_i + [Counter()] * (k - len(state.e_i))
            sizes = [sum(ms.values()) for ms in padded]
            assert max(sizes) - min(sizes) <= 2


class TestSpanningTree:
    def test_parents_come_before_children(self):
        rng = random.Random(39)
        for _ in range(60):
            g = random_connected_graph(rng, n_max=12, m_max=24)
            start = rng.randrange(g.n)
            cset = connect_cover(g, vertex_cover_2approx(g), start).as_set()
            parent = spanning_tree(g, cset, start)
            # every cover vertex but the root has one parent, adjacent to it
            # and reached before it
            assert set(parent) == cset - {start}
            reached = {start}
            for v, p in parent.items():
                assert p in reached and has_edge(g, v, p)
                reached.add(v)

    def test_one_vertex_cover_has_no_edges(self):
        assert spanning_tree(star(3), {0}, 0) == {}

    def test_rejects_disconnected_cover(self):
        g = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(TreeNotSpanning):
            spanning_tree(g, {0, 1, 3}, 0)


class TestMakeVcEvenDegree:
    def test_single_edge_tree_fixes_odd(self):
        e = Counter({(0, 1): 1})  # both endpoints odd
        out = make_vc_even_degree({1: 0}, e, VertexCover((0, 1)))
        assert out == Counter({(0, 1): 2})

    def test_identity_when_even(self):
        e = Counter({(0, 1): 2})
        out = make_vc_even_degree({1: 0}, e, VertexCover((0, 1)))
        assert out == e

    def test_path_tree_trace(self):
        # degrees: 0 odd, 1 even, 2 odd; rooted at 0, the subtrees of 1 and 2
        # each hold one odd vertex, so both tree edges get a copy
        e = Counter({(0, 1): 1, (1, 2): 1})
        out = make_vc_even_degree({1: 0, 2: 1}, e, VertexCover((0, 1, 2)))
        assert out == Counter({(0, 1): 2, (1, 2): 2})
        assert out - e == Counter({(0, 1): 1, (1, 2): 1})

    def test_adds_at_most_cover_size(self):
        rng = random.Random(40)
        for _ in range(60):
            g = random_connected_graph(rng)
            vcp = connect_cover(g, vertex_cover_2approx(g), 0)
            cset = vcp.as_set()
            parent = spanning_tree(g, cset, 0)
            e = tree_edges(parent)
            for (u, v) in g.edges:
                if u in cset and v in cset and rng.random() < 0.5:
                    e[(u, v)] += 1
            out = make_vc_even_degree(parent, e, vcp)
            assert sum(out.values()) - sum(e.values()) <= len(vcp)
            for v in cset:
                assert multiset_degree(out, v) % 2 == 0

    def test_rejects_non_spanning_tree(self):
        with pytest.raises(TreeNotSpanning):
            make_vc_even_degree({}, Counter({(0, 1): 1}), VertexCover((0, 1)))
        e = Counter({(0, 1): 1, (1, 2): 1, (2, 3): 2})
        with pytest.raises(TreeNotSpanning, match="2 tree edges cannot span 4"):
            make_vc_even_degree({1: 0, 2: 1}, e, VertexCover((0, 1, 2, 3)))

    def test_rejects_odd_vertex_outside_cover(self):
        e = Counter({(0, 1): 1, (1, 2): 1, (0, 3): 1})
        with pytest.raises(OddDegree, match="vertex 3"):
            make_vc_even_degree({1: 0, 2: 1}, e, VertexCover((0, 1, 2)))

    def test_matches_lowest_leaf_elimination_on_random_trees(self):
        rng = random.Random(41)
        for _ in range(300):
            parent, e, vcp = random_tree_case(rng)
            out = make_vc_even_degree(parent, e, vcp)
            ref = lowest_leaf_reference(tree_edges(parent), e, vcp)
            assert list(out.items()) == list(ref.items())

    def test_matches_lowest_leaf_elimination_on_robot_multisets(self):
        cases = 0
        for parent, e, vcp in robot_multiset_cases():
            out = make_vc_even_degree(parent, e, vcp)
            ref = lowest_leaf_reference(tree_edges(parent), e, vcp)
            assert list(out.items()) == list(ref.items())
            cases += 1
        assert cases >= 200

    def test_any_root_gives_the_fix_of_the_tree_counter(self):
        # a tree has one T-join, so the parent map may be rooted anywhere
        rng = random.Random(41)
        cases = [random_tree_case(rng) for _ in range(300)] + list(robot_multiset_cases())
        for parent, e, vcp in cases:
            ref = reference.make_vc_even_degree(tree_edges(parent), e, vcp)
            for root in vcp.vertices:
                out = make_vc_even_degree(rerooted(parent, vcp.as_set(), root), e, vcp)
                assert list(out.items()) == list(ref.items())


def robot_multiset_cases():
    """(parent map, robot multiset plus tree, cover) as `approx_solve` fixes
    them, over seeded graphs and robot counts."""
    rng = random.Random(42)
    for _ in range(90):
        g = random_connected_graph(rng, n_max=12, m_max=24)
        start = rng.randrange(g.n)
        vcp = connect_cover(g, vertex_cover_2approx(g), start)
        state = partition_independent_edges(
            g, vcp, even_independent_degrees(g, vcp), rng.randint(1, 4)
        )
        deal_cover_edges(g, vcp, state)
        parent = spanning_tree(g, vcp.as_set(), start)
        for e_i in state.e_i:
            yield parent, e_i + tree_edges(parent), vcp


class TestApproxSolve:
    def test_star_optimal(self):
        inst = ExplorationInstance(star(3), 0, 1)
        sol = approx_solve(inst, VertexCover((0,)))
        assert verify_solution(inst, sol).ok
        assert sol.value == 6

    def test_single_edge_two_robots(self):
        g = Multigraph(2, [(0, 1)])
        inst = ExplorationInstance(g, 0, 2)
        sol = approx_solve(inst, VertexCover((0,)))
        assert verify_solution(inst, sol).ok
        assert sol.value == 2
        lengths = sorted(rc.length for rc in robot_cycles(sol))
        assert lengths == [0, 2]

    def test_nine_vertex_staged_trace(self):
        """Three-robot run over a 9-vertex graph with an enlarged cover:
        after the full pipeline each robot graph is connected, even, contains
        the start, and the union covers everything.
        """
        g = Multigraph(
            9,
            [
                (0, 1), (1, 2), (0, 3), (1, 4), (2, 5),
                (3, 4), (4, 5), (3, 6), (4, 7), (5, 8), (6, 7),
            ],
        )
        inst = ExplorationInstance(g, 8, 3)
        vc = vertex_cover_2approx(g)
        vcp = connect_cover(g, vc, 8)
        e_ind = even_independent_degrees(g, vcp)
        cset = vcp.as_set()
        for u in range(g.n):
            if u not in cset:
                assert multiset_degree(e_ind, u) % 2 == 0
        state = partition_independent_edges(g, vcp, e_ind, 3)
        deal_cover_edges(g, vcp, state)
        covered = set()
        for ms in state.e_i:
            covered |= {e for e, c in ms.items() if c}
        cover_internal = {
            e for e in g.edges if e[0] in cset and e[1] in cset
        }
        assert covered | cover_internal >= set(g.edges)
        sol = approx_solve(inst, vc)
        assert verify_solution(inst, sol).ok

    def test_bound_against_oracle(self):
        rng = random.Random(55)
        for _ in range(40):
            g = random_connected_graph(rng, n_max=6, m_max=8)
            k = rng.randint(1, 3)
            inst = ExplorationInstance(g, rng.randrange(g.n), k)
            vc = vertex_cover_2approx(g)
            sol = approx_solve(inst, vc)
            assert verify_solution(inst, sol).ok
            vcp = connect_cover(g, vc, inst.v_init)
            opt, _ = exact_optimum(inst)
            assert sol.value <= opt + 2 * len(vcp)

    def test_nonempty_robot_graphs_contain_start(self):
        rng = random.Random(66)
        for _ in range(40):
            g = random_connected_graph(rng)
            k = rng.randint(1, 3)
            inst = ExplorationInstance(g, rng.randrange(g.n), k)
            sol = approx_solve(inst, vertex_cover_2approx(g))
            for rc in robot_cycles(sol):
                if rc.length:
                    assert rc.walk[0] == inst.v_init
                    verts = set(rc.walk)
                    assert inst.v_init in verts
