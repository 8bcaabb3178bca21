"""The compiler's graph walks agree with their earlier copies.

`graph_walks_reference` keeps the square search, cycle peeling, parity-repair
trail, loop cutting, even-subgraph span and quotient-cycle search as they
were before they shared `graphs.incidence` and one least-neighbour walk.
Seeded inputs drive both versions; each test also counts how often the
rarer branches ran (parity repair, a loop cut out of a repair path, a
pigeonhole square), prints the counts (`pytest -s`) and asserts a floor, so
a generator change that stops reaching a branch fails loudly.
"""

import random
from collections import Counter
from types import SimpleNamespace

import pytest

import graph_walks_reference as ref
from cge.cover import connect_cover
from cge.errors import CgeError
from cge.fptilp import pairs, typespace
from cge.fptilp.context import FptContext
from cge.fptilp.pairs import decompose_valid_pair, extract_cycle_cover
from cge.graphs import ExplorationInstance, Multigraph, incidence, norm_edge

from conftest import random_even_multiset


def covered_graph(rng, c, n_ind_max=5, p_cover=0.4, nbhd_max=3):
    """A connected simple graph whose vertices 0..c-1 form a connected
    vertex cover: a random tree on the cover plus random cover chords, and
    independent vertices on random cover neighbourhoods."""
    edges = set()
    for a in range(1, c):
        edges.add((rng.randrange(a), a))
    for a in range(c):
        for b in range(a + 1, c):
            if rng.random() < p_cover:
                edges.add((a, b))
    n = c + rng.randint(1, n_ind_max)
    for u in range(c, n):
        for a in rng.sample(range(c), rng.randint(1, min(c, nbhd_max))):
            edges.add((a, u))
    return Multigraph(n, edges)


def context(g, start, c):
    inst = ExplorationInstance(g, start, 1, budget=2 * g.num_edges)
    return FptContext.build(inst, connect_cover(g, tuple(range(c)), start))


def closed_walk(rng, g, start, steps):
    """A random closed walk from `start` using each edge at most twice, as a
    multiset, or None when the walk home would use an edge a third time."""
    used = Counter()
    cur = start
    for _ in range(steps):
        options = [w for w in g.neighbors(cur) if used[norm_edge(cur, w)] < 2]
        if not options:
            break
        w = rng.choice(options)
        used[norm_edge(cur, w)] += 1
        cur = w
    dist = g.bfs_distances(start)
    while cur != start:
        w = min(w for w in g.neighbors(cur) if dist[w] == dist[cur] - 1)
        used[norm_edge(cur, w)] += 1
        cur = w
    if not used or max(used.values()) > 2:
        return None
    return used


@pytest.fixture
def branches(monkeypatch):
    """Counts of the reference's rarer branches, taken by wrapping its helpers."""
    counts = Counter()

    def count(name, hit):
        inner = getattr(ref, name)

        def wrapped(*args):
            out = inner(*args)
            counts[name] += hit(args, out)
            return out

        monkeypatch.setattr(ref, name, wrapped)

    count("_trail_to_odd_cover", lambda args, out: 1)
    count("_simplify_path", lambda args, out: out != args[0])
    count("_find_pigeonhole_square", lambda args, out: out is not None)
    return counts


def outcome(f, *args):
    try:
        return f(*args)
    except CgeError as exc:  # both versions must fail alike
        return type(exc), str(exc)


def test_incidence_lists_every_copy_in_ascending_order():
    rng = random.Random(3)
    for _ in range(300):
        g, ms = random_even_multiset(rng, n_max=8, total_max=20)
        items = sorted(ms.items())
        rng.shuffle(items)
        ms = Counter(dict(items))
        adj = incidence(ms)
        for v in range(g.n):
            want = sorted(
                w for (a, b), m in ms.items() if v in (a, b) for w in [a + b - v] * m
            )
            assert adj.get(v, []) == want
    assert incidence(Counter({(0, 1): 0, (1, 2): 2})) == {1: [2, 2], 2: [1, 1]}


def test_decompositions_match_the_reference(branches):
    rng = random.Random(2024)
    draws = 0
    for _ in range(4000):
        c = rng.randint(1, 3)
        g = covered_graph(rng, c)
        start = rng.randrange(c)
        source = closed_walk(rng, g, start, rng.randint(1, 16))
        if source is None:
            continue
        draws += 1
        ctx = context(g, start, c)
        assert decompose_valid_pair(ctx, source) == ref.decompose_valid_pair(ctx, source)
    print(f"\n{draws} walks: parity repair {branches['_trail_to_odd_cover']}, "
          f"loop cut {branches['_simplify_path']}, "
          f"square {branches['_find_pigeonhole_square']}")
    assert draws >= 3500
    assert branches["_trail_to_odd_cover"] >= 60
    assert branches["_simplify_path"] >= 12
    assert branches["_find_pigeonhole_square"] >= 600


def test_repair_paths_match_the_reference(branches):
    """Random splits of an even multigraph into kept edges h and leftovers;
    the repair runs from the least odd cover vertex of h."""
    rng = random.Random(99)
    runs = 0
    for _ in range(3000):
        g, ms = random_even_multiset(rng, n_max=8, total_max=22)
        h, leftovers = Counter(), Counter()
        for e, m in sorted(ms.items()):
            kept = rng.randint(0, m)
            h[e], leftovers[e] = kept, m - kept
        vc = set(rng.sample(range(g.n), rng.randint(1, g.n)))
        odd = [v for v in sorted(vc) if sum(h[e] for e in h if v in e) % 2]
        if not odd:
            continue
        runs += 1
        old = outcome(lambda: ref._simplify_path(ref._trail_to_odd_cover(
            SimpleNamespace(cover_set=frozenset(vc)), +leftovers, h, odd[0])))
        assert outcome(pairs._repair_path, +leftovers, odd[0], odd) == old
    print(f"\n{runs} repairs: loop cut {branches['_simplify_path']}")
    assert runs >= 1500
    assert branches["_simplify_path"] >= 200


def test_cycle_covers_match_the_reference(branches):
    rng = random.Random(5)
    for _ in range(1500):
        g, work = random_even_multiset(rng, n_max=8, total_max=24)
        vc = set(rng.sample(range(g.n), rng.randint(1, min(3, g.n))))
        assert pairs._peel_simple_cycle(Counter(work)) == ref._peel_simple_cycle(Counter(work))
        assert (next(pairs._pigeonhole_squares(Counter(work), vc), None)
                == ref._find_pigeonhole_square(Counter(work), vc))
        assert outcome(extract_cycle_cover, work, vc) == outcome(
            ref.extract_cycle_cover, work, vc)
    print(f"\nsquares {branches['_find_pigeonhole_square']}")
    assert branches["_find_pigeonhole_square"] >= 300


def test_square_runs_match_the_reference(branches):
    """Many squares per cover: each search after the first starts from the
    incidence map the last one left, so long runs of squares must still
    come out as the reference's fresh searches find them."""
    rng = random.Random(12)
    longest = 0
    for trial in range(240):
        if trial % 3:
            c = rng.randint(1, 3)
            g = covered_graph(rng, c, n_ind_max=rng.choice([8, 30, 90]))
            work = closed_walk(rng, g, rng.randrange(c), rng.randint(10, 300))
            if work is None:
                continue
            vc = set(range(c))
        else:  # a vertex set that need not cover the multiset
            g, work = random_even_multiset(rng, n_max=14, total_max=70)
            vc = set(rng.sample(range(g.n), rng.randint(1, 2)))
        before = branches["_find_pigeonhole_square"]
        assert outcome(extract_cycle_cover, work, vc) == outcome(
            ref.extract_cycle_cover, work, vc)
        longest = max(longest, branches["_find_pigeonhole_square"] - before)
    print(f"\nsquares {branches['_find_pigeonhole_square']}, longest run {longest}")
    assert branches["_find_pigeonhole_square"] >= 1200
    assert longest >= 40


@pytest.mark.parametrize("c", range(2, 7))
def test_quotient_cycles_match_the_reference(c):
    rng = random.Random(100 + c)
    lengths = set()
    for _ in range(30):
        g = covered_graph(rng, c, p_cover=0.3)
        ctx = context(g, rng.randrange(c), c)
        cycles = typespace._enumerate_quotient_cycles(ctx)
        assert cycles == ref._enumerate_quotient_cycles(ctx)
        lengths.update(len(cyc) - 1 for cyc in cycles)
    assert {2, 3, 4} <= lengths and max(lengths) >= min(2 * c, 9)


@pytest.mark.parametrize("c", range(2, 7))
def test_even_subgraph_masks_match_the_reference(c):
    rng = random.Random(200 + c)
    checked = 0
    for _ in range(20):
        g = covered_graph(rng, c, n_ind_max=5, p_cover=0.3)
        ctx = context(g, rng.randrange(c), c)
        for graph in (g, ctx.gstar, ctx.gbar):
            edges = graph.edges
            components = len([comp for comp in graph.components() if len(comp) > 1])
            if len(edges) - len({v for e in edges for v in e}) + components > 12:
                continue
            checked += 1
            assert typespace._even_subgraph_masks(edges) == ref._even_subgraph_masks(edges)
    assert checked >= 20


def test_even_subgraph_masks_of_forests_and_disjoint_cycles():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 9)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(rng.sample(pool, min(len(pool), rng.randint(0, 11))))
        assert typespace._even_subgraph_masks(edges) == ref._even_subgraph_masks(edges)
