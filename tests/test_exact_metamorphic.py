"""Relations the exact optimum must keep, on seeded desk graphs with one to
three robots.

- A seeded relabeling of the vertices, the start mapped along, leaves the
  value unchanged.  Searches that trip the node limit are counted and left
  out of the comparison.
- One more robot never raises the value.
- The value is at least ceil(CPP / k), with CPP, the Chinese-postman tour
  length, from networkx; one robot walks exactly CPP.
- Subdividing every edge at most doubles the value: each robot's walk of
  the original graph, walked through the midpoints, still covers every edge.

The relabeling and the postman length come from `test_approx_metamorphic`,
which needs networkx, so without it the whole file is skipped.
"""

import random

import pytest

from cge.errors import SearchBudgetExceeded
from cge.exact import SearchConfig, exact_optimum
from cge.graphs import ExplorationInstance, Multigraph

from conftest import random_connected_graph

pytest.importorskip("networkx")
from test_approx_metamorphic import postman, relabeled  # noqa: E402

# a cap on each search, so a slow graph counts as a trip instead of running on
NODES = SearchConfig(node_limit=20_000)


def optimum(inst):
    """The optimum, or None when the search trips the node limit."""
    try:
        found = exact_optimum(inst, NODES)
    except SearchBudgetExceeded:
        return None
    assert found is not None, f"no solution up to 2|E| on {inst}"
    return found[0]


def desk_instances(seed, count, n_max=9, m_max=12):
    """`count` seeded graphs, each with a random start and k from 1 to 3."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_connected_graph(rng, n_max=n_max, m_max=m_max)
        yield rng, g, rng.randrange(g.n)


def test_relabeling_keeps_the_value():
    compared = trips = 0
    for rng, g, start in desk_instances(21, 200):
        for k in (1, 2, 3):
            inst = ExplorationInstance(g, start, k)
            values = optimum(inst), optimum(relabeled(inst, rng))
            if None in values:
                trips += 1
                continue
            assert values[0] == values[1], (g, start, k)
            compared += 1
    print(f"\ncompared {compared}, node-limit trips {trips}")
    assert compared >= 570
    assert trips <= 30


def test_one_more_robot_never_raises_the_value():
    for _, g, start in desk_instances(22, 200):
        values = [optimum(ExplorationInstance(g, start, k)) for k in (1, 2, 3)]
        for fewer, more in zip(values, values[1:]):
            if fewer is not None and more is not None:
                assert more <= fewer, (g, start, values)


def test_value_is_at_least_the_postman_share():
    for _, g, start in desk_instances(23, 200):
        cpp = postman(g)
        for k in (1, 2, 3):
            value = optimum(ExplorationInstance(g, start, k))
            if value is None:
                continue
            assert value >= -(-cpp // k), (g, start, k)
            if k == 1:
                assert value == cpp, (g, start)


def subdivided(g):
    """Every edge (u, v) becomes u - m - v through a fresh midpoint m."""
    edges = []
    for mid, (u, v) in enumerate(g.edges, start=g.n):
        edges += [(u, mid), (v, mid)]
    return Multigraph(g.n + g.num_edges, edges)


def test_subdividing_every_edge_at_most_doubles_the_value():
    checked = 0
    for _, g, start in desk_instances(24, 100, n_max=8, m_max=10):
        for k in (1, 2, 3):
            value = optimum(ExplorationInstance(g, start, k))
            split = optimum(ExplorationInstance(subdivided(g), start, k))
            if value is None or split is None:
                continue
            assert split <= 2 * value, (g, start, k)
            checked += 1
    assert checked >= 290
