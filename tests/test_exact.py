import itertools
import random
from collections import Counter

import pytest

from cge.errors import SearchBudgetExceeded
from cge.euler import verify_solution
from cge.exact import SearchConfig, exact_decide, exact_optimum
from cge.graphs import ExplorationInstance, Multigraph

from conftest import (
    feasibility_conditions_hold,
    random_connected_graph,
    robot_cycles,
    with_budget,
)


def star(leaves):
    return Multigraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def cycle(n):
    return Multigraph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Multigraph(n, [(i, i + 1) for i in range(n - 1)])


def triangle():
    return Multigraph(3, [(0, 1), (0, 2), (1, 2)])


class TestDecide:
    def test_triangle_budget_three(self):
        inst = ExplorationInstance(triangle(), 0, 1, budget=3)
        yes, witness = exact_decide(inst)
        assert yes
        assert robot_cycles(witness)[0].walk == (0, 1, 2, 0)
        assert verify_solution(inst, witness).ok

    def test_triangle_budget_two(self):
        inst = ExplorationInstance(triangle(), 0, 1, budget=2)
        yes, witness = exact_decide(inst)
        assert not yes and witness is None

    def test_budget_zero_empty_graph(self):
        inst = ExplorationInstance(Multigraph(1), 0, 2, budget=0)
        yes, witness = exact_decide(inst)
        assert yes
        assert all(rc.walk == (0,) for rc in robot_cycles(witness))

    def test_node_limit_raises(self):
        g = cycle(6)
        inst = ExplorationInstance(g, 0, 2, budget=8)
        with pytest.raises(SearchBudgetExceeded):
            exact_decide(inst, SearchConfig(node_limit=3))

    def test_witness_verifies_within_budget(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_connected_graph(rng, n_max=6, m_max=8)
            inst = ExplorationInstance(g, rng.randrange(g.n), rng.randint(1, 3))
            opt, _ = exact_optimum(inst)
            yes, witness = exact_decide(with_budget(inst, opt))
            assert yes
            report = verify_solution(with_budget(inst, opt), witness)
            assert report.ok


class TestOptimum:
    def test_star_closed_form(self):
        for leaves in range(1, 6):
            for k in range(1, 4):
                inst = ExplorationInstance(star(leaves), 0, k)
                opt, sol = exact_optimum(inst)
                assert opt == 2 * -(-leaves // k)
                assert verify_solution(inst, sol).ok

    def test_cycle_closed_form(self):
        for n in range(3, 7):
            inst = ExplorationInstance(cycle(n), 0, 1)
            opt, _ = exact_optimum(inst)
            assert opt == n

    def test_path_closed_form(self):
        for n in range(2, 6):
            inst = ExplorationInstance(path(n), 0, 1)
            opt, _ = exact_optimum(inst)
            assert opt == 2 * (n - 1)

    def test_path3_two_robots(self):
        inst = ExplorationInstance(path(3), 0, 2)
        opt, _ = exact_optimum(inst)
        assert opt == 4

    def test_witness_optimality(self):
        rng = random.Random(4)
        for _ in range(30):
            g = random_connected_graph(rng, n_max=6, m_max=8)
            inst = ExplorationInstance(g, rng.randrange(g.n), rng.randint(1, 3))
            opt, sol = exact_optimum(inst)
            assert verify_solution(with_budget(inst, opt), sol).ok
            if opt > 0:
                yes, _ = exact_decide(with_budget(inst, opt - 1))
                assert not yes

    def test_deterministic(self):
        g = random_connected_graph(random.Random(123), n_max=6, m_max=8)
        inst = ExplorationInstance(g, 0, 2)
        first = exact_optimum(inst)
        second = exact_optimum(inst)
        assert first[0] == second[0]
        assert [rc.walk for rc in robot_cycles(first[1])] == [
            rc.walk for rc in robot_cycles(second[1])
        ]


def enumerate_multiset_tuples(g, k, budget):
    """Independent cross-check: all per-robot multiplicity vectors in {0,1,2}
    with size <= budget, combined as sorted k-tuples.
    """
    edges = g.edges
    singles = []
    for vec in itertools.product((0, 1, 2), repeat=len(edges)):
        if sum(vec) <= budget:
            singles.append(vec)
    return itertools.combinations_with_replacement(range(len(singles)), k), singles, edges


class TestCrossCheck:
    """The oracle agrees with direct enumeration of the feasibility conditions."""

    @pytest.mark.parametrize("seed", range(12))
    def test_agreement_small(self, seed):
        rng = random.Random(900 + seed)
        g = random_connected_graph(rng, n_max=4, m_max=5)
        k = rng.randint(1, 2)
        v_init = rng.randrange(g.n)
        self._check_all_budgets(g, v_init, k)

    def test_agreement_three_robots(self):
        g = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
        self._check_all_budgets(g, 0, 3)

    @staticmethod
    def _check_all_budgets(g, v_init, k):
        inst = ExplorationInstance(g, v_init, k)
        for budget in range(0, 2 * g.num_edges + 1):
            combos, singles, edges = enumerate_multiset_tuples(g, k, budget)
            expected = False
            for combo in combos:
                multisets = [
                    Counter({edges[i]: singles[c][i] for i in range(len(edges)) if singles[c][i]})
                    for c in combo
                ]
                if feasibility_conditions_hold(inst, multisets, budget):
                    expected = True
                    break
            got, _ = exact_decide(with_budget(inst, budget))
            assert got == expected, f"budget {budget}: oracle {got}, enumeration {expected}"
