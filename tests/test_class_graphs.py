"""The shared class-graph builder agrees with the two loops it replaced.

`class_graphs_reference` keeps `build_equivalence_graph` and `build_gbar` as
they were.  Seeded hosts with covers of 1 to 6 vertices (ids shuffled, so
cover and independent ids interleave) drive both versions; independent
vertices draw their neighbourhoods from a few templates, so classes have
several members and the expansion keeps more than one copy, sometimes fewer
than the class has members.  The graphs must be equal down to their edge
tuples, and the guard above `cover.MAX_COVER` must
raise the same message as the reference's `max_cover` parameter.
"""

import random

import pytest

import class_graphs_reference as ref
from cge import cover
from cge.cover import (
    VertexCover,
    build_equivalence_graph,
    build_gbar,
    equivalence_classes,
    num_ver,
)
from cge.errors import TypeSpaceTooLarge
from cge.graphs import Multigraph


def random_host(rng: random.Random, cover_size: int):
    """A host graph whose vertices outside a `cover_size` cover are independent."""
    independent = rng.randint(0, 12)
    ids = list(range(cover_size + independent))
    rng.shuffle(ids)
    cover, outside = sorted(ids[:cover_size]), ids[cover_size:]
    edges = [
        (u, v)
        for i, u in enumerate(cover)
        for v in cover[i + 1:]
        if rng.random() < 0.5
    ]
    templates = [
        rng.sample(cover, rng.randint(0, min(cover_size, 3))) for _ in range(rng.randint(1, 3))
    ]
    for u in outside:
        edges += [(u, w) for w in rng.choice(templates)]
    return Multigraph(len(ids), edges), VertexCover(tuple(cover))


def assert_same_graph(new: Multigraph, old: Multigraph):
    assert new == old
    assert new.n == old.n
    assert new.edges == old.edges


def test_builders_agree_with_the_separate_loops():
    rng = random.Random(16)
    several_copies = fewer_copies = 0
    for cover_size in range(1, 7):
        for _ in range(60):
            g, vc = random_host(rng, cover_size)
            eq = equivalence_classes(g, vc)

            new_q, old_q = build_equivalence_graph(g, vc, eq), ref.build_equivalence_graph(g, vc, eq)
            assert new_q == old_q
            assert new_q.class_vertex == old_q.class_vertex
            assert_same_graph(new_q.graph, old_q.graph)

            new_x, old_x = build_gbar(g, vc, eq), ref.build_gbar(g, vc, eq)
            assert new_x == old_x
            assert new_x.copies == old_x.copies
            assert_same_graph(new_x.graph, old_x.graph)

            for cls in eq.classes:
                copies = num_ver(len(cls.members), len(cls.neighborhood), len(vc))
                several_copies += copies > 1
                fewer_copies += copies < len(cls.members)
    print(f"classes with several copies: {several_copies}, with fewer copies than members: "
          f"{fewer_copies}")
    assert several_copies >= 200
    assert fewer_copies >= 20


@pytest.mark.parametrize("max_cover", range(0, 7))
def test_guard_above_max_cover_is_unchanged(max_cover, monkeypatch):
    monkeypatch.setattr(cover, "MAX_COVER", max_cover)
    rng = random.Random(max_cover)
    g, vc = random_host(rng, max_cover + 1)
    eq = equivalence_classes(g, vc)
    with pytest.raises(TypeSpaceTooLarge) as new:
        build_gbar(g, vc, eq)
    with pytest.raises(TypeSpaceTooLarge) as old:
        ref.build_gbar(g, vc, eq, max_cover=max_cover)
    assert str(new.value) == str(old.value)
    assert str(new.value) == (
        f"cover of size {max_cover + 1} exceeds the expansion cap {max_cover}"
    )
