"""The approximate path with the cover tree's tour lists built once per solve
against the per-robot `Counter` path it replaced.

`approx_solve` must write the bytes that the verbatim copies in
approx_reference.py write, on seeded connected graphs and trees of 2 to 60
vertices, robot counts from 1 to 40 with random starts, the 2-approximate
cover and covers padded with random extra vertices, one-vertex covers (no
tree edges) and solves with idle robots.  About 1.7 s on a 2-vCPU host.
"""

import random

from cge.approx import approx_solve
from cge.cover import connect_cover, vertex_cover_2approx
from cge.graphs import ExplorationInstance, Multigraph
from cge.textio import format_solution

import approx_reference as reference
from conftest import random_connected_graph

ROBOTS = (1, 2, 3, 5, 8, 13, 40)


def _cases(rng):
    """(instance, cover, label) triples: a tree, a graph, each with the
    2-approximate cover and with a padded one, then a star solved from its
    centre with the centre alone as the cover."""
    n = rng.randint(2, 60)
    tree = Multigraph(n, [(rng.randrange(v), v) for v in range(1, n)])
    graph = random_connected_graph(rng, n_max=60, m_max=rng.randint(60, 180))
    for graph in (tree, graph):
        inst = ExplorationInstance(graph, rng.randrange(graph.n), rng.choice(ROBOTS))
        vc = vertex_cover_2approx(graph)
        yield inst, vc, "2-approximate"
        extra = rng.sample(range(graph.n), rng.randint(1, graph.n))
        yield inst, tuple(sorted(set(vc) | set(extra))), "padded"
    n = rng.randint(2, 60)
    centre = rng.randrange(n)
    star = Multigraph(n, [(min(centre, v), max(centre, v)) for v in range(n) if v != centre])
    yield ExplorationInstance(star, centre, rng.choice(ROBOTS)), (centre,), "star"


def test_same_bytes_as_the_per_robot_counter_path():
    rng = random.Random(35)
    seen = {"2-approximate": 0, "padded": 0, "star": 0, "one-vertex cover": 0, "idle": 0}
    for _ in range(320):
        for inst, vc, label in _cases(rng):
            sol = approx_solve(inst, vc)
            assert format_solution(sol) == format_solution(reference.approx_solve(inst, vc))
            seen[label] += 1
            seen["one-vertex cover"] += len(connect_cover(inst.graph, vc, inst.v_init)) == 1
            seen["idle"] += sol.runs[-1][0].length > 0 and len(sol.runs) < inst.k
    assert sum(seen.values()) - seen["one-vertex cover"] - seen["idle"] >= 1500
    assert min(seen.values()) >= 100, seen
