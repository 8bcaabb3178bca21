import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cge.errors import NotEulerian, StartNotInGraph
from cge.euler import (
    RobotCycle,
    Solution,
    cycle_to_graph,
    find_eulerian_cycle,
    has_eulerian_cycle,
    solution_from_multisets,
    verify_solution,
)
from cge.graphs import ExplorationInstance, Multigraph

from conftest import random_even_multigraph


def star3_instance(k=1):
    g = Multigraph.from_pairs(4, [(0, 1), (0, 2), (0, 3)])
    return ExplorationInstance(g, 0, k)


class TestCycleToGraph:
    def test_double_edge(self):
        g = cycle_to_graph(RobotCycle((0, 1, 0)))
        assert g.edge_items() == [((0, 1), 2)]

    def test_triangle(self):
        g = cycle_to_graph(RobotCycle((0, 1, 2, 0)))
        assert g.edge_items() == [((0, 1), 1), ((0, 2), 1), ((1, 2), 1)]

    def test_multi_revisit_walk(self):
        # a walk revisiting the start twice: traversal counts are multiplicities
        g = cycle_to_graph(RobotCycle((0, 1, 2, 0, 2, 1, 0)))
        assert g.edge_items() == [((0, 1), 2), ((0, 2), 2), ((1, 2), 2)]

    def test_walk_is_eulerian_in_own_graph(self):
        rc = RobotCycle((0, 3, 1, 0, 2, 1, 3, 0))
        g = cycle_to_graph(rc)
        assert has_eulerian_cycle(g)


class TestHasEulerianCycle:
    def test_double_edge(self):
        assert has_eulerian_cycle(Multigraph(2, {(0, 1): 2}))

    def test_path_odd_degrees(self):
        assert not has_eulerian_cycle(Multigraph.from_pairs(3, [(0, 1), (1, 2)]))

    def test_disjoint_triangles(self):
        g = Multigraph.from_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not has_eulerian_cycle(g)

    def test_empty(self):
        assert has_eulerian_cycle(Multigraph(3))


class TestFindEulerianCycle:
    def test_double_edge(self):
        g = Multigraph(2, {(0, 1): 2})
        assert find_eulerian_cycle(g, 0).walk == (0, 1, 0)

    def test_triangle_ascending_rule(self):
        g = Multigraph.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
        assert find_eulerian_cycle(g, 0).walk == (0, 1, 2, 0)

    def test_empty_graph_trivial_walk(self):
        assert find_eulerian_cycle(Multigraph(2), 1).walk == (1,)

    def test_rejects_non_eulerian(self):
        with pytest.raises(NotEulerian):
            find_eulerian_cycle(Multigraph.from_pairs(3, [(0, 1), (1, 2)]), 0)

    def test_rejects_isolated_start(self):
        with pytest.raises(StartNotInGraph):
            find_eulerian_cycle(Multigraph(3, {(0, 1): 2}), 2)

    def test_round_trip_on_chorded_cycle(self):
        g = Multigraph(5, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 0): 1, (0, 2): 2})
        rc = find_eulerian_cycle(g, 0)
        assert cycle_to_graph(rc, 5) == g

    def test_corpus_edge_exactness(self):
        rng = random.Random(2024)
        for _ in range(500):
            g = random_even_multigraph(rng)
            start = g.active_vertices()[0] if g.active_vertices() else 0
            rc = find_eulerian_cycle(g, start)
            assert rc.walk[0] == rc.walk[-1] == start
            assert rc.edge_multiset() == g.edge_counter()

    def test_agrees_with_predicate(self):
        rng = random.Random(77)
        for _ in range(150):
            g = random_even_multigraph(rng, n_max=6, total_max=14)
            # damage half of them by removing one copy of an edge
            if rng.random() < 0.5 and g.num_edges:
                e = rng.choice(g.distinct_edges())
                cnt = g.edge_counter()
                cnt[e] -= 1
                g = Multigraph.from_counter(g.n, cnt)
            start = g.active_vertices()[0] if g.active_vertices() else 0
            try:
                find_eulerian_cycle(g, start)
                found = True
            except NotEulerian:
                found = False
            assert found == has_eulerian_cycle(g)


@given(st.lists(st.integers(0, 4), min_size=0, max_size=12))
@settings(max_examples=200)
def test_round_trip_property(steps):
    """Any closed walk reproduces its own traversal counts after re-extraction."""
    walk = [0]
    for s in steps:
        walk.append((walk[-1] + 1 + s) % 6)
    if walk[-1] != walk[0]:
        walk.append(walk[0])
    rc = RobotCycle(tuple(walk))
    g = cycle_to_graph(rc, 6)
    back = find_eulerian_cycle(g, rc.start)
    assert cycle_to_graph(back, 6) == g


class TestVerify:
    def test_star_single_robot_ok(self):
        inst = star3_instance()
        sol = Solution((RobotCycle((0, 1, 0, 2, 0, 3, 0)),))
        report = verify_solution(inst, sol)
        assert report.ok
        assert report.value == 6

    def test_missing_leaf_detected(self):
        inst = star3_instance()
        sol = Solution((RobotCycle((0, 1, 0, 2, 0)),))
        report = verify_solution(inst, sol)
        assert not report.ok
        assert report.uncovered == ((0, 3),)

    def test_triangle_with_idle_robot(self):
        g = Multigraph.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
        inst = ExplorationInstance(g, 0, 2)
        sol = Solution((RobotCycle((0, 1, 2, 0)), RobotCycle((0,))))
        report = verify_solution(inst, sol)
        assert report.ok
        assert report.value == 3

    def test_budget_violation(self):
        inst = star3_instance().with_budget(4)
        sol = Solution((RobotCycle((0, 1, 0, 2, 0, 3, 0)),))
        report = verify_solution(inst, sol)
        assert report.budget_ok is False
        assert not report.ok

    def test_wrong_start_detected(self):
        inst = star3_instance()
        sol = Solution((RobotCycle((1, 0, 1)),))
        report = verify_solution(inst, sol)
        assert not report.ok
        assert not report.robot_reports[0].starts_at_init

    def test_self_loop_step_is_reported_not_raised(self):
        inst = star3_instance()
        sol = Solution((RobotCycle((0, 0)), RobotCycle((0, 1, 0, 2, 0, 3, 0))))
        report = verify_solution(inst, sol)
        assert not report.ok
        assert not report.robot_reports[0].adjacency_ok
        assert report.robot_reports[1].ok
        assert report.uncovered == ()


class TestSolutionFromMultisets:
    def test_idle_robots_pad_to_k_and_share_one_walk(self):
        g = Multigraph.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
        sol = solution_from_multisets(3, 0, [Counter(), g.edge_counter()], 4)
        assert [rc.walk for rc in sol.cycles] == [(0,), (0, 1, 2, 0), (0,), (0,)]
        assert sol.cycles[0] is sol.cycles[2] is sol.cycles[3]
