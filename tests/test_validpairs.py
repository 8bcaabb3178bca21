import random
from collections import Counter

import pytest

from cge.cover import connect_cover, vertex_cover_2approx
from cge.errors import OddDegree, PreconditionViolated
from cge.fptilp import pairs
from cge.fptilp.context import FptContext
from cge.fptilp.pairs import ValidPair, decompose_valid_pair, extract_cycle_cover
from cge.graphs import ExplorationInstance, Multigraph, walk_edges

from conftest import check_valid_pair, random_even_multiset


def make_ctx(g, v_init, k, budget, cover=None):
    inst = ExplorationInstance(g, v_init, k, budget)
    vcp = connect_cover(g, cover or vertex_cover_2approx(g), v_init)
    return FptContext.build(inst, vcp)


C4_CHORD = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
WALK_PROBLEMS = {
    "skeleton is empty",
    "skeleton is not connected",
    "skeleton misses the start vertex",
    "skeleton has an odd degree",
}


def even_cover_multiset(rng: random.Random) -> tuple[Counter, set[int]]:
    """An all-even edge multiset in which every edge touches a cover of 1 to
    4 vertices and no multiplicity is above 2."""
    cover_size = rng.randint(1, 4)
    vc = list(range(cover_size))
    outside = range(cover_size, cover_size + rng.randint(1, 14))
    ms = Counter()
    for i, u in enumerate(vc):
        for v in vc[i + 1:]:
            ms[(u, v)] = rng.choice((0, 0, 1, 2))
    for u in outside:
        for w in vc:
            ms[(w, u)] = rng.choice((0, 1, 2, 2))

    def toggle(e):  # one copy more or fewer, staying within 0..2
        ms[e] += 1 if ms[e] in (0, 1) and rng.random() < 0.5 or ms[e] == 0 else -1

    for u in outside:
        if sum(m for (w, x), m in ms.items() if x == u) % 2:
            toggle((rng.choice(vc), u))
    odd = [w for w in vc if sum(m for e, m in ms.items() if w in e) % 2]
    for a, b in zip(odd[::2], odd[1::2]):  # an even number of them
        toggle((a, b))
    return +ms, set(vc)


class TestExtractCycleCover:
    def test_empty(self):
        assert extract_cycle_cover(Counter(), {0}) == []

    def test_c4_single_cycle(self):
        ms = Counter({(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})
        cycles = extract_cycle_cover(ms, {0, 2})
        assert len(cycles) == 1
        assert walk_edges(cycles[0]) == ms

    def test_rejects_odd_degrees(self):
        with pytest.raises(OddDegree):
            extract_cycle_cover(Counter({(0, 1): 1, (1, 2): 1}), {1})

    def test_pigeonhole_square(self):
        # complete bipartite core {0,1} x {2,3} plus three doubled spokes to
        # push the edge count beyond 2 |cover|^2 = 8
        edges = Counter()
        for u in (2, 3):
            edges[(0, u)] = 1
            edges[(1, u)] = 1
        for u in (4, 5, 6):
            edges[(0, u)] = 2
            edges[(1, u)] = 2
        cycles = extract_cycle_cover(edges, {0, 1})
        union = Counter()
        for c in cycles:
            union += walk_edges(c)
        assert union == edges
        # the two degree-2 independents close the pigeonhole square
        assert (0, 2, 1, 3, 0) in cycles
        non4 = [c for c in cycles if len(c) - 1 != 4]
        assert len(non4) <= 2 * 4

    def test_square_search_never_runs_dry_under_the_precondition(self, monkeypatch):
        """Every edge touches the cover and no multiplicity is above 2: the
        search finds a square whenever more than 2|vc|^2 edges remain, so the
        fall-through after it never runs."""
        search = pairs._pigeonhole_squares
        dry = []

        def watched(work, vc):
            yield from search(work, vc)
            # reached only when asked for one more square than the search has
            dry.append((dict(+work), sorted(vc)))

        monkeypatch.setattr(pairs, "_pigeonhole_squares", watched)
        rng = random.Random(36)
        searched = 0
        for _ in range(3000):
            ms, vc = even_cover_multiset(rng)
            assert max(ms.values(), default=0) <= 2
            assert all(u in vc or v in vc for u, v in ms)
            cycles = extract_cycle_cover(ms, vc)
            assert sum((walk_edges(c) for c in cycles), Counter()) == +ms
            searched += sum(ms.values()) > 2 * len(vc) ** 2
        assert not dry, dry[:3]
        assert searched >= 1000

    def test_partition_and_bounds_on_corpus(self):
        rng = random.Random(17)
        for _ in range(200):
            g, ms = random_even_multiset(rng, n_max=7, total_max=18)
            vc = set(vertex_cover_2approx(g))
            cycles = extract_cycle_cover(ms, vc)
            union = Counter()
            for c in cycles:
                union += walk_edges(c)
                assert c[0] == c[-1]
                assert c[0] in vc
            assert union == ms
            non4 = [c for c in cycles if len(c) - 1 != 4]
            assert len(non4) <= 2 * len(vc) ** 2
            for c in non4:
                assert len(set(c[:-1])) == len(c) - 1


class TestDecompose:
    def test_double_edge(self):
        g = Multigraph(2, [(0, 1)])
        ctx = make_ctx(g, 0, 1, 2, cover=(0,))
        source = Counter({(0, 1): 2})
        pair = decompose_valid_pair(ctx, source)
        assert pair.cc == ((0, 1), (0, 1))
        assert pair.cycles == ()
        assert check_valid_pair(ctx, pair, source) == []

    def test_triangle_all_in_skeleton(self):
        g = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
        ctx = make_ctx(g, 0, 1, 3, cover=(0, 1))
        source = Counter({(0, 1): 1, (0, 2): 1, (1, 2): 1})
        pair = decompose_valid_pair(ctx, source)
        assert Counter(pair.cc) == source
        assert pair.cycles == ()
        assert check_valid_pair(ctx, pair, source) == []

    def test_duplicate_class_members_collapse(self):
        # two equivalent leaves doubled at the single cover vertex: one stays
        # in the skeleton, the other peels off as a 2-cycle
        g = Multigraph(3, [(0, 1), (0, 2)])
        ctx = make_ctx(g, 0, 1, 4, cover=(0,))
        source = Counter({(0, 1): 2, (0, 2): 2})
        pair = decompose_valid_pair(ctx, source)
        assert check_valid_pair(ctx, pair, source) == []
        assert Counter(pair.cc) == Counter({(0, 1): 2})
        assert pair.cycles == ((0, 2, 0),)

    def test_rejects_disconnected(self):
        ctx = make_ctx(C4_CHORD, 0, 1, 8)
        with pytest.raises(PreconditionViolated):
            decompose_valid_pair(ctx, Counter({(0, 1): 2, (2, 3): 2}))

    @pytest.mark.parametrize(
        "source, problem",
        [
            (Counter({(0, 1): 1, (1, 2): 1}), "has an odd degree"),
            (Counter({(1, 2): 2}), "misses the start vertex"),
            (Counter(), "is empty"),
            (Counter({(1, 3): 2}), "uses a non-edge"),
        ],
    )
    def test_rejects_a_source_that_is_no_robot_walk(self, source, problem):
        ctx = make_ctx(C4_CHORD, 0, 1, 8)
        with pytest.raises(PreconditionViolated, match=f"source {problem}"):
            decompose_valid_pair(ctx, source)


    def test_random_even_sources(self):
        """Decomposition rebuilds the source exactly on 200 random inputs."""
        rng = random.Random(23)
        done = 0
        while done < 200:
            # g is connected and is the support of the multiset
            g, source = random_even_multiset(rng, n_max=6, total_max=16)
            v_init = 0
            vcp = connect_cover(g, vertex_cover_2approx(g), v_init)
            inst = ExplorationInstance(g, v_init, 1, 2 * sum(source.values()))
            ctx = FptContext.build(inst, vcp)
            pair = decompose_valid_pair(ctx, source)
            assert check_valid_pair(ctx, pair, source) == [], (
                check_valid_pair(ctx, pair, source), source
            )
            done += 1


class TestCheckValidPair:
    @pytest.mark.parametrize(
        "cc, problem",
        [
            ((), "skeleton is empty"),
            (((0, 1), (0, 1), (2, 3), (2, 3)), "skeleton is not connected"),
            (((1, 2), (1, 2)), "skeleton misses the start vertex"),
            (((0, 1), (1, 2)), "skeleton has an odd degree"),
        ],
    )
    def test_reports_a_skeleton_that_is_no_robot_walk(self, cc, problem):
        ctx = make_ctx(C4_CHORD, 0, 1, 8)
        problems = check_valid_pair(ctx, ValidPair(cc=cc, cycles=()), Counter(cc))
        assert [p for p in problems if p in WALK_PROBLEMS] == [problem]
