import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cge import graphs
from cge.cli import main
from cge.errors import NotConnected, SelfLoop
from cge.graphs import ExplorationInstance, Multigraph, norm_edge, odd_degree_vertices
from cge.textio import InstanceDocument, _parse_instance_lines, format_instance, parse_instance

import instance_text_reference
from corpus import BUILDABLE, CORPUS


class TestMultigraph:
    def test_normalization_and_repeats_refused(self):
        g = Multigraph(3, [(1, 0), (2, 1)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.degree(1) == 2
        assert g.num_edges == 2
        with pytest.raises(ValueError):
            Multigraph(2, [(0, 1), (1, 0)])

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoop):
            Multigraph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        for pair in ((0, 5), (-1, 0), (2, 1)):
            with pytest.raises(ValueError):
                Multigraph(2, [pair])

    def test_reads_a_generator_once(self):
        reads = []

        def pairs():
            for e in ((2, 3), (0, 1), (1, 2)):
                reads.append(e)
                yield e

        g = Multigraph(4, pairs())
        assert reads == [(2, 3), (0, 1), (1, 2)]
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_dict_argument_is_read_by_its_keys(self):
        pairs = [(3, 0), (1, 2), (0, 1)]
        assert Multigraph(4, {e: 1 for e in pairs}) == Multigraph(4, pairs)

    def test_neighbors_sorted(self):
        g = Multigraph(4, [(2, 0), (2, 3), (1, 2)])
        assert g.neighbors(2) == (0, 1, 3)

    def test_edges_and_neighbors_match_a_sorted_reference(self):
        rng = random.Random(28)
        for _ in range(200):
            n = rng.randint(1, 12)
            pairs = [(u, v) for u in range(n) for v in range(n) if u < v and rng.random() < 0.4]
            pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
            rng.shuffle(pairs)
            g = Multigraph(n, pairs)
            assert g.edges == tuple(sorted({norm_edge(u, v) for u, v in pairs}))
            adj = {v: set() for v in range(n)}
            for u, v in pairs:
                adj[u].add(v)
                adj[v].add(u)
            for v in range(n):
                assert g.neighbors(v) == tuple(sorted(adj[v]))
                assert g.degree(v) == len(adj[v])

    def test_bad_pairs_raise_as_the_old_constructor_did(self):
        """Loops, repeats in either orientation and out-of-range ends raise
        the exception and message the per-pair constructor raised: a loop
        first, in the order given, then the least bad pair."""
        rng = random.Random(30)
        outcomes = Counter()
        for _ in range(400):
            n = rng.randint(0, 6)
            pairs = [(rng.randint(-1, n), rng.randint(-1, n)) for _ in range(rng.randint(0, 8))]
            try:
                expected = instance_text_reference.multigraph_parts(n, pairs)
            except (SelfLoop, ValueError) as exc:
                expected = type(exc), str(exc)
            try:
                g = Multigraph(n, pairs)
                got = g.edges, tuple(map(g.neighbors, range(n)))
            except (SelfLoop, ValueError) as exc:
                got = type(exc), str(exc)
            assert got == expected, (n, pairs)
            outcomes[got[0] if isinstance(got[0], type) else "ok"] += 1
        assert outcomes[SelfLoop] and outcomes[ValueError] and outcomes["ok"]

    def test_ascending_pairs_are_kept_as_given(self):
        pairs = ((0, 1), (0, 3), (1, 2), (2, 3))
        g = Multigraph(4, pairs)
        assert g.edges is pairs
        assert list(map(g.neighbors, range(4))) == [(1, 3), (0, 2), (1, 3), (0, 2)]
        # pairs in order but not as tuples are read pair by pair
        assert Multigraph(4, [list(e) for e in pairs]).edges == pairs

    def test_ascending_pairs_with_a_fault_raise_as_the_old_constructor_did(self):
        """Pairs in ascending order up to one fault (a repeat, a reversed or
        looped pair, an end out of range, a pair out of order) give the
        edges or the exception and message of the per-pair constructor."""
        rng = random.Random(33)
        faults = Counter()
        for _ in range(300):
            n = rng.randint(2, 7)
            draws = range(rng.randint(1, 9))
            pairs = sorted({tuple(sorted(rng.sample(range(n), 2))) for _ in draws})
            i = rng.randrange(len(pairs))
            u, v = pairs[i]
            fault = rng.choice(["repeat", "reverse", "loop", "high", "low", "swap", "none"])
            if fault == "repeat":
                pairs.insert(i, (u, v))
            elif fault == "reverse":
                pairs[i] = (v, u)
            elif fault == "loop":
                pairs[i] = (u, u)
            elif fault == "high":
                pairs[-1] = (pairs[-1][0], n)
            elif fault == "low":
                pairs[0] = (-1, pairs[0][1])
            elif fault == "swap" and len(pairs) > 1:
                pairs[i - 1], pairs[i] = pairs[i], pairs[i - 1]
            pairs = tuple(pairs)
            try:
                expected = instance_text_reference.multigraph_parts(n, pairs)
            except (SelfLoop, ValueError) as exc:
                expected = type(exc), str(exc)
            try:
                g = Multigraph(n, pairs)
                got = g.edges, tuple(map(g.neighbors, range(n)))
            except (SelfLoop, ValueError) as exc:
                got = type(exc), str(exc)
            assert got == expected, (n, pairs)
            faults[fault, got[0] if isinstance(got[0], type) else "ok"] += 1
        assert faults["none", "ok"] and faults["loop", SelfLoop] and faults["high", ValueError]

    def test_components_with_isolated_member(self):
        g = Multigraph(4, [(0, 1)])
        assert g.components({0, 1, 3}) == [[0, 1], [3]]

    def test_bipartite(self):
        even = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        odd = Multigraph(3, [(0, 1), (1, 2), (0, 2)])
        assert even.is_bipartite()
        assert not odd.is_bipartite()


class TestInstance:
    def test_rejects_disconnected(self):
        g = Multigraph(4, [(0, 1), (2, 3)])
        with pytest.raises(NotConnected):
            ExplorationInstance(g, 0, 1)

    def test_rejects_unreachable_isolated_vertex(self):
        g = Multigraph(3, {(0, 1): 1})
        with pytest.raises(NotConnected):
            ExplorationInstance(g, 0, 1)

    def test_rejects_multigraph_input(self):
        # a repeated edge never reaches the instance: the graph refuses it
        with pytest.raises(ValueError):
            ExplorationInstance(Multigraph(2, [(0, 1), (0, 1)]), 0, 1)

    def test_single_vertex_ok(self):
        inst = ExplorationInstance(Multigraph(1), 0, 1)
        assert inst.budget is None


@st.composite
def small_instances(draw):
    n = draw(st.integers(2, 6))
    extra = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8))
    edges = {(i - 1, i) for i in range(1, n)}  # path backbone keeps it connected
    for u, v in extra:
        if u < n and v < n and u != v:
            edges.add(norm_edge(u, v))
    k = draw(st.integers(1, 3))
    v_init = draw(st.integers(0, n - 1))
    budget = draw(st.one_of(st.none(), st.integers(0, 30)))
    return ExplorationInstance(Multigraph(n, {e: 1 for e in edges}), v_init, k, budget)


@given(small_instances())
@settings(max_examples=150)
def test_instance_text_round_trip(inst):
    doc = InstanceDocument("cge", inst)
    text = format_instance(doc)
    back = parse_instance(text)
    assert format_instance(back) == text
    assert back.payload.graph == inst.graph
    assert (back.payload.v_init, back.payload.k, back.payload.budget) == (
        inst.v_init,
        inst.k,
        inst.budget,
    )


@given(st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(-2, 5)))
@settings(max_examples=300)
def test_odd_degree_vertices_sum_the_degrees(counts):
    """Parity by flips equals parity of the summed degrees: a loop adds two to
    its vertex, and counts at or below zero add nothing."""
    deg = Counter()
    for (a, b), m in counts.items():
        if m > 0:
            deg[a] += m
            deg[b] += m
    assert odd_degree_vertices(Counter(counts)) == sorted(v for v, d in deg.items() if d % 2)


def test_no_graph_the_program_builds_takes_the_sort_path(monkeypatch, tmp_path, capsys):
    """Every graph `build-ilp` builds for a buildable corpus instance (the
    instance, its quotient graph and its expansion), every tree `reduce-bin
    --to-cge` builds and every graph the line reader builds (guard-c4 lists
    edge 0-3 last) gets strictly ascending pairs, which `Multigraph` keeps as
    given."""
    accepted = []
    simple_edges = graphs._simple_edges

    def spy(pairs, n):
        accepted.append(simple_edges(pairs, n))
        return accepted[-1]

    monkeypatch.setattr(graphs, "_simple_edges", spy)
    for path in BUILDABLE:
        assert main(["build-ilp", str(path), "-o", str(tmp_path / "system.ilp")]) == 0
    for path in sorted(CORPUS.glob("*.binpack")):
        assert main(["reduce-bin", str(path), "--to-cge"]) == 0
    for path in sorted(CORPUS.glob("*.cge")):
        _parse_instance_lines(path.read_text(encoding="utf-8"))
    capsys.readouterr()
    # each instance, its quotient graph and its expansion
    assert len(accepted) >= 3 * len(BUILDABLE)
    assert all(accepted)
