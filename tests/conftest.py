"""Shared generators and brute-force oracles for the test suite.

Random corpora use fixed seeds so every run sees the same instances.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
from collections import Counter

# Importing `cge` below must not leave bytecode under src/: a cached checkout
# starts faster than a clean one.  Subprocesses inherit the setting.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from cge.euler import closed_walk_faults  # noqa: E402
from cge.graphs import (  # noqa: E402
    ExplorationInstance,
    Multigraph,
    multiset_vertices,
    norm_edge,
    odd_degree_vertices,
    walk_edges,
)


# Helpers that only the tests need; the program itself never reads these.


def robot_cycles(sol) -> tuple:
    """Every robot's cycle in robot order, one object per run: O(k)."""
    return tuple(rc for rc, count in sol.runs for _ in range(count))


def robot_multisets(runs) -> list[Counter]:
    """Every robot's edge multiset in robot order, from (multiset, count)
    runs: O(k)."""
    return [ms for ms, count in runs for _ in range(count)]


def multiset_degree(edges: Counter, v: int) -> int:
    return sum(m for (a, b), m in edges.items() if m and (a == v or b == v))


def has_edge(g: Multigraph, u: int, v: int) -> bool:
    return norm_edge(u, v) in g.edges


def with_budget(inst: ExplorationInstance, budget: int | None) -> ExplorationInstance:
    return ExplorationInstance(inst.graph, inst.v_init, inst.k, budget)


def random_connected_graph(rng: random.Random, n_max: int = 7, m_max: int = 10) -> Multigraph:
    """Random connected simple graph: random spanning tree plus extra edges."""
    n = rng.randint(2, n_max)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        edges.add(norm_edge(order[i], rng.choice(order[:i])))
    possible = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    rng.shuffle(possible)
    extra = rng.randint(0, max(0, min(len(possible), m_max - len(edges))))
    for e in possible[:extra]:
        edges.add(e)
    if len(edges) > m_max:
        return random_connected_graph(rng, n_max, m_max)
    return Multigraph(n, {e: 1 for e in edges})


def random_even_multiset(
    rng: random.Random, n_max: int = 8, total_max: int = 24
) -> tuple[Multigraph, Counter]:
    """Random connected simple graph and an edge multiset over all of its
    edges with every degree even.

    Start from a random connected simple graph with multiplicities in {1, 2},
    then pair up odd-degree vertices and toggle multiplicities 1 <-> 2 along a
    connecting path; toggling flips exactly the endpoint parities and never
    removes support edges, so the graph is the multiset's support.
    """
    while True:
        base = random_connected_graph(rng, n_max, m_max=total_max // 2)
        mult = Counter({e: rng.choice((1, 2)) for e in base.edges})
        deg = Counter()
        for (u, v), m in mult.items():
            deg[u] += m
            deg[v] += m
        odd = sorted(v for v in range(base.n) if deg[v] % 2)
        rng.shuffle(odd)
        dist_cache = {}
        for a, b in zip(odd[0::2], odd[1::2]):
            # shortest path a -> b in the support graph
            if a not in dist_cache:
                dist_cache[a] = _bfs_parents(base, a)
            parents = dist_cache[a]
            path = [b]
            while path[-1] != a:
                path.append(parents[path[-1]])
            for u, v in zip(path, path[1:]):
                e = norm_edge(u, v)
                mult[e] = 3 - mult[e]
        if sum(mult.values()) <= total_max and not odd_degree_vertices(mult):
            return base, mult


def _bfs_parents(g: Multigraph, source: int) -> dict[int, int]:
    parents = {source: source}
    queue = [source]
    while queue:
        v = queue.pop(0)
        for w in g.neighbors(v):
            if w not in parents:
                parents[w] = v
                queue.append(w)
    return parents


def brute_force_min_vertex_cover(g: Multigraph) -> int:
    """Exact vertex cover number by subset enumeration (n <= 8)."""
    edges = g.edges
    for size in range(g.n + 1):
        for cand in itertools.combinations(range(g.n), size):
            cs = set(cand)
            if all(u in cs or v in cs for u, v in edges):
                return size
    return g.n


def feasibility_conditions_hold(
    inst: ExplorationInstance, multisets: list[Counter], budget: int
) -> bool:
    """Declarative feasibility check: each robot
    multiset spans a connected graph containing the start vertex with all
    degrees even (empty multisets pass vacuously), the union covers every
    edge, and no multiset exceeds the budget.
    """
    g = inst.graph
    graph_edges = set(g.edges)
    covered = set()
    for ms in multisets:
        support = {e for e, c in ms.items() if c}
        if any(e not in graph_edges for e in support):
            return False
        covered |= support
        if sum(ms.values()) > budget:
            return False
        if not support:
            continue
        if odd_degree_vertices(ms):
            return False
        sub = Multigraph(g.n, support)
        if len(sub.components({v for e in support for v in e})) != 1:
            return False
        if sub.degree(inst.v_init) == 0:
            return False
    return covered == graph_edges


def pair_union(pair) -> Counter:
    """A valid pair's skeleton plus all its cycles, as one edge multiset."""
    total = Counter(pair.cc)
    for cyc in pair.cycles:
        total += walk_edges(cyc)
    return total


def check_valid_pair(ctx, pair, source: Counter) -> list[str]:
    """Return the violated conditions (empty list when the pair is valid)."""
    problems: list[str] = []
    cc = pair.cc_counter()
    g = ctx.g
    vc = ctx.cover_set

    per_class: Counter = Counter()
    for v in multiset_vertices(cc):
        if v not in vc:
            cls = ctx.class_of.get(v)
            if cls is None:
                problems.append("skeleton uses a vertex outside graph and cover")
            else:
                per_class[cls] += 1
    for cls, count in per_class.items():
        if count > len(ctx.gbar.copies[cls]):
            problems.append(f"class {cls} exceeds its copy budget in the skeleton")
    if any(m > 2 for m in cc.values()):
        problems.append("skeleton edge multiplicity exceeds 2")

    problems.extend(f"skeleton {f}" for f in closed_walk_faults(cc, ctx.v_init))

    if (multiset_vertices(cc) & vc) != (multiset_vertices(source) & vc):
        problems.append("skeleton covers different cover vertices than the source")

    non4 = [c for c in pair.cycles if len(c) - 1 != 4]
    if len(non4) > 2 * len(vc) ** 2:
        problems.append("too many cycles of length other than 4")
    for c in non4:
        if len(set(c[:-1])) != len(c) - 1:
            problems.append(f"non-4 cycle {c} is not simple")
    for c in pair.cycles:
        for i in range(len(c) - 1):
            if not has_edge(g, c[i], c[i + 1]):
                problems.append(f"cycle {c} uses a non-edge")
                break

    if pair_union(pair) != +Counter(source):
        problems.append("skeleton plus cycles do not rebuild the source multiset")
    return problems
