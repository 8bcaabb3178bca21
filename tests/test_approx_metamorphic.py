"""Relations the approximate solver must keep under a relabeling of the
vertices, on seeded graphs of 2 to 2000 vertices.

Each graph is relabeled by a seeded permutation, with the start mapped
along.  On the relabeled instance `solve-approx`'s solution must verify, its
value must be at least ceil(CPP / k) with CPP, the Chinese-postman tour
length, from networkx, and where the exact optimum is known (n <= 9) its
value must be at most that optimum plus 2|VC'|, VC' the connected cover the
solver uses.  The bytes may differ from the unrelabeled solve, since ties
break by vertex id.
"""

import random

import pytest

from cge.approx import approx_solve
from cge.cover import connect_cover, vertex_cover_2approx
from cge.euler import verify_solution
from cge.exact import exact_optimum
from cge.graphs import ExplorationInstance, Multigraph

from conftest import random_connected_graph

nx = pytest.importorskip("networkx")


def relabeled(inst, rng):
    """The instance with vertex v renamed perm[v] for a seeded permutation."""
    perm = list(range(inst.graph.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in inst.graph.edges]
    return ExplorationInstance(Multigraph(inst.graph.n, edges), perm[inst.v_init], inst.k)


def postman(g):
    """CPP(G): |E| plus a minimum-weight perfect matching of the odd-degree
    vertices under shortest-path distance, with a BFS from each odd vertex."""
    graph = nx.Graph(g.edges)
    odd = [v for v in graph if graph.degree(v) % 2]
    dist = {u: nx.single_source_shortest_path_length(graph, u) for u in odd}
    pairs = nx.Graph()
    for i, u in enumerate(odd):
        for w in odd[i + 1:]:
            pairs.add_edge(u, w, weight=g.n - dist[u][w])  # heaviest = shortest
    matching = nx.max_weight_matching(pairs, maxcardinality=True)
    assert 2 * len(matching) == len(odd)
    return g.num_edges + sum(dist[u][w] for u, w in matching)


def ring_with_chords(rng, n, chords):
    """A cycle through all n vertices in random order plus random chords,
    so at most 2 * chords vertices have odd degree."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i - 1], order[i]))) for i in range(n)}
    while len(edges) < n + chords:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Multigraph(n, sorted(edges))


def check(inst, rng):
    """Solve the relabeled instance; return its value and connected cover size."""
    moved = relabeled(inst, rng)
    vc = vertex_cover_2approx(moved.graph)
    sol = approx_solve(moved, vc)
    assert verify_solution(moved, sol).ok
    assert sol.value * inst.k >= postman(inst.graph)
    return sol.value, len(connect_cover(moved.graph, vc, moved.v_init))


def test_relabeled_desk_graphs_stay_within_2_cover_of_the_optimum():
    rng = random.Random(14)
    for _ in range(200):
        g = random_connected_graph(rng, n_max=9, m_max=11)
        inst = ExplorationInstance(g, rng.randrange(g.n), rng.randint(1, 3))
        value, cover = check(inst, rng)
        assert value <= exact_optimum(inst)[0] + 2 * cover


def test_relabeled_graphs_stay_above_the_postman_bound():
    rng = random.Random(40)
    for _ in range(30):
        g = random_connected_graph(rng, n_max=40, m_max=100)
        check(ExplorationInstance(g, rng.randrange(g.n), rng.choice((1, 2, 3, 5, 8))), rng)


def test_relabeled_large_graphs_stay_above_the_postman_bound():
    """Up to 2000 vertices, with few odd vertices so that networkx's
    matching stays small."""
    rng = random.Random(2000)
    for n in (12, 50, 200, 500, 1000, 2000):
        for k in (1, 2, 8):
            check(ExplorationInstance(ring_with_chords(rng, n, rng.randint(0, 6)),
                                      rng.randrange(n), k), rng)
