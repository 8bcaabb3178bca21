"""Robots with equal walks share the work on them.

`approx_solve` hands every robot without edges of its own one multiset
object, `solution_from_multisets` walks each distinct multiset object once,
`format_solution` renders each distinct cycle object once, `parse_solution`
builds one cycle per distinct walk and `verify_solution` checks each distinct
cycle object once.  Each check here compares with a per-robot reference that
shares nothing.
"""

import itertools
import random
from collections import Counter

import pytest

from cge.approx import approx_solve
from cge.cover import vertex_cover_2approx
from cge.euler import RobotCycle, Solution, solution_from_multisets, verify_solution
from cge.graphs import ExplorationInstance, Multigraph, walk_edges
from cge.textio import format_solution, parse_solution


def naive_format(sol):
    lines = [f"value {max(len(rc.walk) - 1 for rc in sol.cycles)}"]
    for i, rc in enumerate(sol.cycles, start=1):
        lines.append(f"robot {i}: " + " ".join(str(v) for v in rc.walk))
    return "\n".join(lines) + "\n"


def naive_parse(text):
    robot_lines = [line.split() for line in text.splitlines() if line.startswith("robot ")]
    return Solution(tuple(RobotCycle(tuple(int(t) for t in parts[2:])) for parts in robot_lines))


def naive_verify_lines(inst, sol):
    edges = set(inst.graph.distinct_edges())
    covered = set()
    lines = []
    ok = len(sol.cycles) == inst.k
    for i, rc in enumerate(sol.cycles, start=1):
        steps = [tuple(sorted(step)) for step in zip(rc.walk, rc.walk[1:])]
        covered.update(s for s in steps if s in edges)
        flags = (rc.walk[0] == inst.v_init, rc.walk[-1] == inst.v_init,
                 all(s in edges for s in steps))
        ok = ok and all(flags)
        start, end, adj = ("ok" if f else "BAD" for f in flags)
        lines.append(f"robot {i}: start={start} end={end} edges={adj} length={len(rc.walk) - 1}")
    if len(sol.cycles) != inst.k:
        lines.append("robot count: BAD")
    missing = [f"{u}-{v}" for u, v in sorted(edges - covered)]
    lines.append(f"uncovered: {' '.join(missing) if missing else 'none'}")
    value = max(len(rc.walk) - 1 for rc in sol.cycles)
    lines.append(f"value {value}")
    if inst.budget is not None:
        lines.append(f"budget: {'ok' if value <= inst.budget else 'exceeded'}")
        ok = ok and value <= inst.budget
    lines.append(f"result: {'ok' if ok and not missing else 'FAIL'}")
    return lines


SHAPES = {
    "k4": (4, list(itertools.combinations(range(4), 2))),
    "k33": (6, [(a, b) for a in range(3) for b in range(3, 6)]),
    "star5": (6, [(0, leaf) for leaf in range(1, 6)]),
}


def wide_instances(seed):
    """Each shape under a seeded labeling, start vertex and robot count."""
    rng = random.Random(seed)
    for name, (n, pairs) in SHAPES.items():
        label = list(range(n))
        rng.shuffle(label)
        g = Multigraph.from_pairs(n, [(label[a], label[b]) for a, b in pairs])
        yield name, ExplorationInstance(g, rng.randrange(n), rng.randint(200, 2_000))


def mixed_solution(rng, inst, sol):
    """The approximate solution's cycles plus bad walks (wrong start or end,
    a step off the graph, a self-loop), and copies of good walks as separate
    objects, shuffled; a wrong sharing key would mix up their reports."""
    g, s = inst.graph, inst.v_init
    w = g.neighbors(s)[0]
    bad = [RobotCycle((w, s, w)), RobotCycle((s, g.n, s)), RobotCycle((s, s)),
           RobotCycle((s, w, s, w, s))]
    copies = [RobotCycle(rc.walk) for rc in rng.sample(sol.cycles, 20)]
    cycles = list(sol.cycles) + bad * 5 + copies
    rng.shuffle(cycles)
    return Solution(tuple(cycles))


@pytest.mark.parametrize("seed", range(3))
def test_text_and_verify_equal_per_robot_reference(seed):
    rng = random.Random(seed)
    for name, inst in wide_instances(seed):
        sol = approx_solve(inst, vertex_cover_2approx(inst.graph))
        assert len({id(rc) for rc in sol.cycles}) < len(sol.cycles) // 10
        for candidate in (sol, mixed_solution(rng, inst, sol)):
            text = format_solution(candidate)
            assert text == naive_format(candidate), name
            parsed = parse_solution(text)
            assert parsed == naive_parse(text), name
            assert len({id(rc) for rc in parsed.cycles}) == len({rc.walk for rc in parsed.cycles})
            for budget in (None, sol.value - 1):
                checked = inst.with_budget(budget)
                assert verify_solution(checked, candidate).lines() == naive_verify_lines(
                    checked, candidate
                ), name
                assert verify_solution(checked, parsed).lines() == naive_verify_lines(
                    checked, parsed
                ), name


def test_single_edge_idle_robots_share_one_cycle():
    g = Multigraph.from_pairs(2, [(0, 1)])
    sol = approx_solve(ExplorationInstance(g, 0, 10_000), vertex_cover_2approx(g))
    assert sol.cycles[0].walk == (0, 1, 0)  # the robot dealt the edge itself
    idle = sol.cycles[1]
    assert idle.walk == (0, 1, 0)
    assert all(rc is idle for rc in sol.cycles[1:])


def test_fresh_multisets_each_get_their_own_walk():
    # a generator's Counters die once walked; a new Counter at a freed one's
    # address must be walked on its own, not given the freed one's walk
    g = Multigraph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    walks = [(0, 1, 0), (0, 2, 0), (0, 1, 2, 0), (0, 3, 0), (0, 1, 2, 0, 3, 0)] * 40
    sol = solution_from_multisets(g.n, 0, (Counter(walk_edges(w)) for w in walks), 250)
    assert [rc.walk for rc in sol.cycles] == walks + [(0,)] * 50
