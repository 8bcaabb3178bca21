import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cge.errors import NotEulerian, StartNotInGraph
from cge.euler import (
    RobotCycle,
    Solution,
    closed_walk_faults,
    find_eulerian_cycle,
    solution_from_multisets,
    verify_solution,
)
from cge.graphs import ExplorationInstance, Multigraph, walk_edges

from conftest import random_even_multigraph, robot_cycles, with_budget


def star3_instance(k=1):
    g = Multigraph.from_pairs(4, [(0, 1), (0, 2), (0, 3)])
    return ExplorationInstance(g, 0, k)


class TestCycleToGraph:
    """A walk's traversal counts are the multiset its Eulerian cycle walks."""

    def test_double_edge(self):
        assert RobotCycle((0, 1, 0)).edge_multiset() == Counter({(0, 1): 2})

    def test_triangle(self):
        ms = RobotCycle((0, 1, 2, 0)).edge_multiset()
        assert ms == Counter({(0, 1): 1, (0, 2): 1, (1, 2): 1})

    def test_multi_revisit_walk(self):
        # a walk revisiting the start twice: traversal counts are multiplicities
        ms = RobotCycle((0, 1, 2, 0, 2, 1, 0)).edge_multiset()
        assert ms == Counter({(0, 1): 2, (0, 2): 2, (1, 2): 2})

    def test_walk_is_eulerian_in_own_graph(self):
        rc = RobotCycle((0, 3, 1, 0, 2, 1, 3, 0))
        assert closed_walk_faults(rc.edge_multiset(), rc.walk[0]) == []


class TestHasEulerianCycle:
    """`closed_walk_faults`: the start, parity and connectivity test on multisets."""

    def test_double_edge(self):
        assert closed_walk_faults(Counter({(0, 1): 2}), 1) == []

    def test_path_odd_degrees(self):
        faults = closed_walk_faults(Counter({(0, 1): 1, (1, 2): 1}), 0)
        assert faults == ["has an odd degree"]

    def test_disjoint_triangles(self):
        ms = walk_edges((0, 1, 2, 0)) + walk_edges((3, 4, 5, 3))
        assert closed_walk_faults(ms, 0) == ["is not connected"]
        faults = closed_walk_faults(ms, 6)
        assert faults == ["is not connected", "misses the start vertex"]

    def test_empty(self):
        assert closed_walk_faults(Counter({(0, 1): 0}), 0) == ["is empty"]

    def test_every_fault_at_once(self):
        ms = Counter({(0, 1): 1, (1, 2): 1, (3, 4): 2})
        assert closed_walk_faults(ms, 5) == [
            "is not connected",
            "misses the start vertex",
            "has an odd degree",
        ]


class TestFindEulerianCycle:
    def test_double_edge(self):
        assert find_eulerian_cycle(Counter({(0, 1): 2}), 0).walk == (0, 1, 0)

    def test_triangle_ascending_rule(self):
        ms = Counter({(0, 1): 1, (0, 2): 1, (1, 2): 1})
        assert find_eulerian_cycle(ms, 0).walk == (0, 1, 2, 0)

    def test_empty_graph_trivial_walk(self):
        assert find_eulerian_cycle(Counter(), 1).walk == (1,)

    def test_rejects_non_eulerian(self):
        with pytest.raises(NotEulerian):
            find_eulerian_cycle(Counter({(0, 1): 1, (1, 2): 1}), 0)

    def test_rejects_isolated_start(self):
        with pytest.raises(StartNotInGraph):
            find_eulerian_cycle(Counter({(0, 1): 2}), 2)

    def test_rejects_unnormalized_pair(self):
        with pytest.raises(ValueError):
            find_eulerian_cycle(Counter({(1, 0): 2}), 0)

    def test_round_trip_on_chorded_cycle(self):
        ms = Counter({(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1, (0, 2): 2})
        rc = find_eulerian_cycle(ms, 0)
        assert rc.edge_multiset() == ms

    def test_corpus_edge_exactness(self):
        rng = random.Random(2024)
        for _ in range(500):
            g = random_even_multigraph(rng)
            start = g.distinct_edges()[0][0]
            rc = find_eulerian_cycle(g.edge_counter(), start)
            assert rc.walk[0] == rc.walk[-1] == start
            assert rc.edge_multiset() == g.edge_counter()

    def test_agrees_with_networkx(self):
        """Accept/reject equals networkx's Eulerian test plus "start is touched"."""
        nx = pytest.importorskip("networkx")
        rng = random.Random(77)
        verdicts = Counter()
        for trial in range(600):
            ms = random_even_multigraph(rng, n_max=7, total_max=16).edge_counter()
            # damage every other one: drop one copy of an edge or add a stray one
            if trial % 2:
                if rng.random() < 0.5:
                    ms[rng.choice(sorted(ms))] -= 1
                    ms = +ms
                else:
                    u, v = sorted(rng.sample(range(9), 2))
                    ms[(u, v)] += rng.randint(1, 2)
            touched = sorted({v for e in ms for v in e})
            if touched and rng.random() < 0.8:
                start = rng.choice(touched)
            else:
                start = rng.randrange(9)
            oracle = nx.MultiGraph()
            oracle.add_edges_from(e for e, m in ms.items() for _ in range(m))
            expected = start in oracle and nx.is_eulerian(oracle)
            try:
                rc = find_eulerian_cycle(ms, start)
            except (NotEulerian, StartNotInGraph):
                assert not expected, (ms, start)
                verdicts[False] += 1
                continue
            if ms:
                assert expected, (ms, start)
                assert rc.walk[0] == rc.walk[-1] == start
                assert rc.edge_multiset() == ms
                verdicts[True] += 1
        assert verdicts[True] > 200 and verdicts[False] > 200, verdicts

    def test_rejections_are_those_of_the_full_check(self):
        """Parity is checked before the walk and connectivity after it, by
        the copies left unused; the error and its message are what the full
        check, `closed_walk_faults`, calls for."""
        rng = random.Random(78)
        kinds = Counter()
        for trial in range(600):
            ms = random_even_multigraph(rng, n_max=7, total_max=16).edge_counter()
            if trial % 4 == 1:  # an odd degree
                ms[rng.choice(sorted(ms))] -= 1
            elif trial % 4 == 2:  # another component, even
                ms[(10, 11)] += 2
            elif trial % 4 == 3:  # both
                ms[(10, 11)] += 1
            start = rng.choice(sorted({v for e in +ms for v in e} | {rng.randrange(12)}))
            faults = closed_walk_faults(ms, start)
            expected = None
            if "misses the start vertex" in faults:
                expected = (StartNotInGraph, f"start vertex {start} is not on an edge")
            elif faults and faults != ["is empty"]:
                expected = (NotEulerian, "edge multiset is not connected with all degrees even")
            try:
                find_eulerian_cycle(ms, start)
                got = None
            except (NotEulerian, StartNotInGraph) as exc:
                got = (type(exc), str(exc))
            assert got == expected, (ms, start, faults)
            kinds[tuple(faults)] += 1
        assert kinds[("is not connected",)] > 50, kinds
        assert kinds[("has an odd degree",)] > 50, kinds
        assert kinds[()] > 50, kinds


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
    back = find_eulerian_cycle(rc.edge_multiset(), rc.walk[0])
    assert back.edge_multiset() == rc.edge_multiset()


class TestVerify:
    def test_star_single_robot_ok(self):
        inst = star3_instance()
        sol = Solution(((RobotCycle((0, 1, 0, 2, 0, 3, 0)), 1),))
        report = verify_solution(inst, sol)
        assert report.ok
        assert report.value == 6

    def test_missing_leaf_detected(self):
        inst = star3_instance()
        sol = Solution(((RobotCycle((0, 1, 0, 2, 0)), 1),))
        report = verify_solution(inst, sol)
        assert not report.ok
        assert report.uncovered == ((0, 3),)

    def test_triangle_with_idle_robot(self):
        g = Multigraph.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
        inst = ExplorationInstance(g, 0, 2)
        sol = Solution(((RobotCycle((0, 1, 2, 0)), 1), (RobotCycle((0,)), 1)))
        report = verify_solution(inst, sol)
        assert report.ok
        assert report.value == 3

    def test_budget_violation(self):
        inst = with_budget(star3_instance(), 4)
        sol = Solution(((RobotCycle((0, 1, 0, 2, 0, 3, 0)), 1),))
        report = verify_solution(inst, sol)
        assert report.budget_ok is False
        assert not report.ok

    def test_wrong_start_detected(self):
        inst = star3_instance()
        sol = Solution(((RobotCycle((1, 0, 1)), 1),))
        report = verify_solution(inst, sol)
        assert not report.ok
        assert not report.run_reports[0].starts_at_init

    def test_self_loop_step_is_reported_not_raised(self):
        inst = star3_instance()
        sol = Solution(((RobotCycle((0, 0)), 1), (RobotCycle((0, 1, 0, 2, 0, 3, 0)), 1)))
        report = verify_solution(inst, sol)
        assert not report.ok
        assert not report.run_reports[0].adjacency_ok
        assert report.run_reports[1].ok
        assert report.uncovered == ()


class TestSolutionFromMultisets:
    def test_idle_robots_pad_to_k_and_share_one_walk(self):
        g = Multigraph.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
        sol = solution_from_multisets(3, 0, [(Counter(), 1), (g.edge_counter(), 1)], 4)
        cycles = robot_cycles(sol)
        assert [rc.walk for rc in cycles] == [(0,), (0, 1, 2, 0), (0,), (0,)]
        assert cycles[0] is cycles[2] is cycles[3]

    def test_vertex_outside_the_graph_is_refused(self):
        with pytest.raises(ValueError):
            solution_from_multisets(3, 0, [(Counter({(0, 3): 2}), 1)], 1)
