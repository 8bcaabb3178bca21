from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cge.errors import NotConnected, SelfLoop
from cge.graphs import ExplorationInstance, Multigraph, norm_edge, odd_degree_vertices
from cge.textio import InstanceDocument, format_instance, parse_instance


class TestMultigraph:
    def test_normalization_and_multiplicity(self):
        g = Multigraph.from_pairs(3, [(1, 0), (0, 1), (1, 2)])
        assert g.multiplicity(0, 1) == 2
        assert g.multiplicity(1, 2) == 1
        assert g.degree(1) == 3
        assert g.num_edges == 3

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoop):
            Multigraph(2, {(1, 1): 1})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Multigraph(2, {(0, 5): 1})

    def test_neighbors_sorted(self):
        g = Multigraph.from_pairs(4, [(2, 0), (2, 3), (1, 2)])
        assert g.neighbors(2) == [0, 1, 3]

    def test_components_with_isolated_member(self):
        g = Multigraph.from_pairs(4, [(0, 1)])
        assert g.components({0, 1, 3}) == [[0, 1], [3]]

    def test_bipartite(self):
        even = Multigraph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        odd = Multigraph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
        assert even.is_bipartite()
        assert not odd.is_bipartite()


class TestInstance:
    def test_rejects_disconnected(self):
        g = Multigraph.from_pairs(4, [(0, 1), (2, 3)])
        with pytest.raises(NotConnected):
            ExplorationInstance(g, 0, 1)

    def test_rejects_unreachable_isolated_vertex(self):
        g = Multigraph(3, {(0, 1): 1})
        with pytest.raises(NotConnected):
            ExplorationInstance(g, 0, 1)

    def test_rejects_multigraph_input(self):
        g = Multigraph(2, {(0, 1): 2})
        with pytest.raises(ValueError):
            ExplorationInstance(g, 0, 1)

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
