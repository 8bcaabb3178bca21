"""The one-pass tour builder against the per-dict code it replaced.

`find_eulerian_cycle`, `closed_walk_faults` and `odd_degree_vertices` must
give the walks, fault lists and odd vertices that the verbatim copies in
euler_reference.py give, and raise the same exception types with the same
messages, on seeded multisets of 1 to about 2000 edge copies and on the
edge cases below.
"""

import random
from collections import Counter

import pytest

from cge.euler import RobotCycle, closed_walk_faults, find_eulerian_cycle
from cge.graphs import odd_degree_vertices

import euler_reference as reference


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _same(ms, start):
    """Compare all three readers on one multiset; return the walk outcome."""
    walk = _outcome(find_eulerian_cycle, ms, start)
    assert walk == _outcome(reference.find_eulerian_cycle, ms, start)
    assert _outcome(closed_walk_faults, ms, start) == _outcome(
        reference.closed_walk_faults, ms, start)
    assert _outcome(odd_degree_vertices, ms) == _outcome(reference.odd_degree_vertices, ms)
    return walk


def _toggle(ms, e):
    """Flip the parity of e's count and keep it in 1..4: 1<->2, 3<->4."""
    ms[e] += 1 if ms[e] % 2 else -1


def _seeded_multiset(rng, copies, even, first=0):
    """About `copies` edge copies with multiplicities 1-4 on a connected
    support over vertices first, first + 1, ...; all degrees even if `even`.

    The support is a random attachment tree plus extra edges.  Parities are
    fixed along the tree, deepest vertex first, by `_toggle`, which never
    empties an edge.
    """
    m = max(1, round(copies / 2.5))
    n = max(2, min(m + 1, round(m / 1.5) + 1))
    parent = {v: rng.randrange(v) for v in range(1, n)}
    support = {(p, v) for v, p in parent.items()}
    while len(support) < m and len(support) < n * (n - 1) // 2:
        u, v = sorted(rng.sample(range(n), 2))
        support.add((u, v))
    ms = Counter({e: rng.randint(1, 4) for e in sorted(support)})
    if even:
        odd = set(reference.odd_degree_vertices(ms))
        for v in range(n - 1, 0, -1):
            if v in odd:
                _toggle(ms, (parent[v], v))
                odd ^= {v, parent[v]}
    return Counter({(a + first, b + first): c for (a, b), c in ms.items()})


def _start(rng, ms):
    touched = sorted({v for e, c in ms.items() if c > 0 for v in e})
    if touched and rng.random() < 0.85:
        return rng.choice(touched)
    return rng.randrange(max(touched, default=0) + 3)


@pytest.mark.parametrize("seed", range(40))
def test_seeded_multisets_walk_as_the_reference_does(seed):
    rng = random.Random(seed)
    walks = 0
    for _ in range(12):
        copies = round(2 ** rng.uniform(0, 11))  # 1 to 2048 copies
        kind = rng.choice(["even", "even", "odd", "disconnected", "damaged"])
        ms = _seeded_multiset(rng, copies, even=kind != "odd")
        if kind == "disconnected":
            top = max(v for e in ms for v in e)
            ms.update(_seeded_multiset(rng, rng.randint(2, 40), True, first=top + 1))
        elif kind == "damaged":
            e = rng.choice(sorted(ms))
            ms[e] += rng.choice([-1, 1])
        if rng.random() < 0.2:  # keys that every reader must skip
            u, v = sorted(rng.sample(range(60), 2))
            ms[(u, v)] = rng.choice([0, -1, -2])
            ms[(v, u)] = 0
        walk = _same(ms, _start(rng, ms))
        walks += isinstance(walk, RobotCycle) and walk.length > 0
    assert walks  # every seed walks at least one multiset in full


@pytest.mark.parametrize(
    "counts, start",
    [
        ({}, 0),  # empty: the trivial walk
        ({(0, 1): 0, (1, 2): -3}, 4),  # only counts at or below zero
        ({(0, 1): 2}, 5),  # start off the support
        ({(0, 1): 1, (1, 2): 1}, 0),  # odd degrees
        ({(0, 1): 1, (1, 2): 1}, 7),  # odd degrees, start off the support
        ({(0, 1): 2, (2, 3): 2}, 0),  # disconnected
        ({(0, 1): 2, (2, 3): 2}, 2),
        ({(0, 1): 1, (1, 2): 1, (0, 2): 1, (3, 4): 1}, 0),  # disconnected and odd
        ({(1, 0): 2}, 0),  # a key that is not a normalized pair
        ({(3, 1): 1, (2, 1): 1, (0, 1): 2}, 0),  # the least bad key is named
        ({(1, 1): 2}, 1),  # a loop is not a normalized pair
        ({(1, 0): 1}, 9),  # ValueError comes before the start test
        ({(1, 0): 0, (0, 1): 2}, 0),  # a bad key with no copies is skipped
        ({(0, 1): 0}, 9),  # the trivial walk comes before the start test
        ({(0, 1): 1}, 9),  # the start test comes before the parity test
        ({(0, 1): 2, (1, 2): 0, (2, 3): -1}, 1),  # zero and negative counts
        ({(0, 1): 4, (0, 2): 3, (1, 2): 1}, 2),
        ({(0, 3): 1, (1, 3): 1, (0, 1): 1, (3, 5): 2, (2, 5): 2}, 5),
    ],
)
def test_edge_cases_walk_as_the_reference_does(counts, start):
    _same(Counter(counts), start)
