"""The fixed instance corpus for the equation-system acceptance criteria.

Only graphs admitting a connected cover of size at most 2 containing the
start vertex qualify (stars, double stars, and shared-leaf variants); cycles
of length 4 and up already need three cover vertices to stay connected.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from cge.cover import connect_cover, vertex_cover_2approx
from cge.fptilp.context import FptContext
from cge.fptilp.system import build_ilp_system
from cge.fptilp.typespace import enumerate_type_space
from cge.graphs import ExplorationInstance, Multigraph

from conftest import with_budget

CORPUS = Path(__file__).parent / "data" / "corpus"
# guard-* files trip the type-space guard by design: no system to solve
BUILDABLE = sorted(
    p for p in CORPUS.glob("*.cge") if not p.name.startswith("guard-")
)


def _inst(n, edges, v_init, k):
    return ExplorationInstance(Multigraph(n, edges), v_init, k)


def _star(leaves):
    return (leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def _double_star(left_leaves, right_leaves, shared):
    """Adjacent centers 0 and 1; `shared` vertices see both centers."""
    n = 2 + left_leaves + right_leaves + shared
    edges = [(0, 1)]
    nxt = 2
    for _ in range(left_leaves):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(right_leaves):
        edges.append((1, nxt))
        nxt += 1
    for _ in range(shared):
        edges.append((0, nxt))
        edges.append((1, nxt))
        nxt += 1
    return (n, edges)


def corpus_instances() -> list[tuple[str, ExplorationInstance]]:
    single = (2, [(0, 1)])
    path3 = (3, [(0, 1), (1, 2)])
    triangle = _double_star(0, 0, 1)  # centers plus one shared leaf
    entries = [
        ("single-edge-k1", _inst(*single, 0, 1)),
        ("single-edge-k2", _inst(*single, 0, 2)),
        ("single-edge-k3", _inst(*single, 0, 3)),
        ("path3-mid-k1", _inst(*path3, 1, 1)),
        ("path3-mid-k2", _inst(*path3, 1, 2)),
        ("path3-end-k1", _inst(*path3, 0, 1)),
        ("star2-k1", _inst(*_star(2), 0, 1)),
        ("star2-k2", _inst(*_star(2), 0, 2)),
        ("star3-k1", _inst(*_star(3), 0, 1)),
        ("star3-k2", _inst(*_star(3), 0, 2)),
        ("star3-k3", _inst(*_star(3), 0, 3)),
        ("star4-k1", _inst(*_star(4), 0, 1)),
        ("star4-k2", _inst(*_star(4), 0, 2)),
        ("star5-k1", _inst(*_star(5), 0, 1)),
        ("star5-k2", _inst(*_star(5), 0, 2)),
        ("star5-k3", _inst(*_star(5), 0, 3)),
        ("triangle-k1", _inst(*triangle, 0, 1)),
        ("triangle-k2", _inst(*triangle, 0, 2)),
        ("dstar-1-1-0-k1", _inst(*_double_star(1, 1, 0), 0, 1)),
        ("dstar-1-1-0-k2", _inst(*_double_star(1, 1, 0), 0, 2)),
        ("dstar-2-1-0-k1", _inst(*_double_star(2, 1, 0), 0, 1)),
        ("dstar-2-1-0-k2", _inst(*_double_star(2, 1, 0), 1, 2)),
        ("dstar-2-2-0-k1", _inst(*_double_star(2, 2, 0), 0, 1)),
        ("dstar-1-0-1-k1", _inst(*_double_star(1, 0, 1), 0, 1)),
        ("dstar-1-0-1-k2", _inst(*_double_star(1, 0, 1), 0, 2)),
        ("dstar-1-1-1-k1", _inst(*_double_star(1, 1, 1), 0, 1)),
        ("dstar-1-1-1-k2", _inst(*_double_star(1, 1, 1), 1, 2)),
        ("dstar-0-0-2-k1", _inst(*_double_star(0, 0, 2), 0, 1)),
        ("dstar-0-0-2-k2", _inst(*_double_star(0, 0, 2), 0, 2)),
        ("dstar-2-0-1-k1", _inst(*_double_star(2, 0, 1), 0, 1)),
    ]
    return entries


def corpus_cover(inst: ExplorationInstance):
    return connect_cover(inst.graph, vertex_cover_2approx(inst.graph), inst.v_init)


def budgeted_system(inst, vcp, budget):
    ctx = FptContext.build(with_budget(inst, budget), vcp)
    types = enumerate_type_space(ctx)
    return ctx, types, build_ilp_system(ctx, types)


def random_instances(seed, count):
    """`count` distinct instances: stars with 1-5 leaves and double stars with
    up to two private leaves per center (or one shared leaf alone), k in 1..3,
    a random start center."""
    rng = random.Random(seed)
    out = {}
    while len(out) < count:
        k = rng.randint(1, 3)
        if rng.random() < 0.4:
            leaves = rng.randint(1, 5)
            name, (n, edges) = f"star{leaves}", _star(leaves)
            start, cover = 0, (0,)
        else:
            shared = rng.randint(0, 1)
            left = 0 if shared else rng.randint(0, 2)
            right = 0 if shared else rng.randint(0, 2)
            name = f"dstar-{left}-{right}-{shared}"
            n, edges = _double_star(left, right, shared)
            start, cover = rng.randint(0, 1), (0, 1)
        case = f"{name}-k{k}-s{start}"
        out[case] = pytest.param(n, edges, start, k, cover, id=case)
    return list(out.values())
