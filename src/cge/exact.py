"""Exact minimum-budget solver for desk-scale instances.

The search enumerates closed walks from the start vertex, then assigns them
robot by robot.

A walk state is a current vertex plus a per-edge usage vector; since a
state's length is the sum of its usages, permutations of the same traversal
collapse into one state.  Per-edge usage is capped at 2, which loses no
solutions because any multiset can shed double copies pairwise without
breaking parity, connectivity, or coverage.  A state at the start vertex is a
complete robot walk whose multiset is exactly the edges it used.

States are expanded in rounds of potential p = length + dist, where dist is
the BFS distance from the current vertex back to the start: p is the length
of the shortest closed walk through the state.  A step never lowers p, so the
states that can lie on a walk of length <= c are exactly those of potential
<= c, and raising the cap by one runs one more round.  A `_Frontier` holds
the states not expanded yet, so each budget resumes where the last one
stopped: the optimum search explores walks only up to the optimum.

Each state carries its breadth-first discovery rank, so a support is kept
with the walk a plain breadth-first search capped at any budget would
complete first: minimum length, then smallest rank.  The catalog, usage
vectors included, does not depend on how the caps were raised.

One search node is one expanded walk state or one robot-assignment step.
A search capped at c expands the states a breadth-first search pruned at c
expands, so deciding a budget spends the same nodes either way, and the
optimum search pays for the rounds up to the optimum only.

Robots are assigned walks in non-decreasing catalog order to kill
permutation symmetry.  Pruning uses only multiplicity caps, coverage counts,
and remaining-budget reachability; closed walks may have odd length in
non-bipartite graphs and no parity assumption is made.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cover import connect_cover, vertex_cover_2approx
from .errors import SearchBudgetExceeded
from .euler import Solution, solution_from_multisets
from .graphs import ExplorationInstance, Multigraph


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the exact search.

    max_budget caps the optimum search; when no budget up to it has a
    solution the answer is a proven "no".  node_limit bounds the search
    nodes: one node is one expanded walk state or one robot-assignment step.
    Exhausting it raises SearchBudgetExceeded (answer unknown, not "no").
    """

    max_budget: int | None = None
    node_limit: int = 5_000_000


@dataclass
class _Catalog:
    """All realizable robot walks up to a length cap.

    supports[i] is a bitmask of distinct edges covered, lengths[i] the walk
    length, usages[i] the per-edge usage packed 2 bits per edge (edge j in
    bits 2j, 2j+1).  Entries are sorted by (length, support mask); index 0 is
    always the empty walk.
    """

    edges: list[tuple[int, int]]
    supports: list[int]
    lengths: list[int]
    usages: list[int]


class _NodeBudget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise SearchBudgetExceeded("search node limit exhausted")


class _Frontier:
    """The walk search between two caps: the states not expanded yet and the
    catalog of the rounds run so far.

    A state packs `usage << vbits | vertex`.  pending[(p, l)] maps each
    state of potential p and length l to its rank: the smallest
    `parent_rank * base + position` over its parents, `position` being the
    step's index in the parent vertex's adjacency list and `base` the largest
    degree.  Ranks order the states of one length as a breadth-first search
    discovers them.  A child never equals a state already expanded (it is
    longer than every expanded state of its potential), so no visited set is
    kept.  steps[v] lists, in adjacency order, (high usage bit of the edge,
    state delta, potential delta, position).
    """

    __slots__ = ("steps", "vbits", "vmask", "base", "low", "rounds", "pending",
                 "found", "catalog")

    def __init__(self, g: Multigraph, v_init: int):
        edges = g.distinct_edges()
        dist = g.bfs_distances(v_init)
        vbits = (g.n - 1).bit_length()
        steps: list[list[tuple[int, int, int, int]]] = [[] for _ in range(g.n)]
        for i, (u, v) in enumerate(edges):
            unit = 1 << (2 * i + vbits)
            for a, b in ((u, v), (v, u)):
                pos = len(steps[a])
                steps[a].append((unit << 1, unit + b - a, 1 + dist[b] - dist[a], pos))
        self.steps = steps
        self.vbits = vbits
        self.vmask = (1 << vbits) - 1
        self.base = max(map(len, steps))
        self.low = (4 ** len(edges) - 1) // 3  # the low bit of every usage field
        self.rounds = 0
        self.pending: dict[tuple[int, int], dict[int, int]] = {(0, 0): {v_init: 0}}
        self.found = {0}  # supports in the catalog, one bit per used edge at 2j
        self.catalog = _Catalog(edges, [0], [0], [0])

    def expand(self, p: int, l: int, nodes: _NodeBudget) -> None:
        bucket = self.pending.pop((p, l), None)
        if not bucket:
            return
        nodes.spend(len(bucket))
        pending, steps, vmask, base = self.pending, self.steps, self.vmask, self.base
        outs = [pending.setdefault((p + dp, l + 1), {}) for dp in range(3)]
        for state, rank in bucket.items():
            parent = rank * base
            for high, delta, dp, pos in steps[state & vmask]:
                if state & high:
                    continue
                child = state + delta
                out = outs[dp]
                r = parent + pos
                if r < out.setdefault(child, r):
                    out[child] = r

    def record(self, p: int) -> None:
        """Add the walks of length p: per new support, the one of least rank."""
        best: dict[int, tuple[int, int]] = {}  # spread support -> (rank, usage)
        for state, rank in self.pending.get((p, p), {}).items():
            usage = state >> self.vbits
            spread = (usage | usage >> 1) & self.low
            if spread in self.found:
                continue
            old = best.get(spread)
            if old is None or rank < old[0]:
                best[spread] = (rank, usage)
        cat = self.catalog
        for spread in sorted(best):  # the same order as the compact supports
            self.found.add(spread)
            cat.supports.append(int(f"{spread:b}"[::-2][::-1], 2))  # bits 0, 2, 4, ...
            cat.lengths.append(p)
            cat.usages.append(best[spread][1])


def _walk_catalog(
    g: Multigraph, v_init: int, cap: int, frontier: _Frontier, nodes: _NodeBudget
) -> _Catalog:
    """Extend `frontier`'s catalog to every walk of length <= `cap`.

    Round p expands the start-vertex states of length p - 1 (all their
    children have potential p + 1), then the other states of potential p in
    increasing length, and records the start-vertex states of length p.  After
    round c the expanded states are the ones a breadth-first search pruned at
    c expands, so a single call spends exactly its nodes.  `g` and `v_init`
    are the ones `frontier` was built for; the node budget stays the fifth
    positional argument, where perfbench/tracing.py reads it.
    """
    while frontier.rounds < cap:
        p = frontier.rounds = frontier.rounds + 1
        frontier.expand(p - 1, p - 1, nodes)
        for l in range(p):
            frontier.expand(p, l, nodes)
        frontier.record(p)
    return frontier.catalog


def _assign_robots(
    catalog: _Catalog, k: int, budget: int, full_mask: int, nodes: _NodeBudget
) -> list[int] | None:
    """Assign catalog walks to robots so every edge is covered.

    Each recursion level commits one robot to an entry covering the lowest
    uncovered edge, which fixes the level order for any fixed entry set and
    avoids permutation blowup.  Returns chosen entry indices (possibly fewer
    than k; the rest stay at the start vertex), or None.
    """
    usable = [i for i in range(len(catalog.supports)) if catalog.lengths[i] <= budget]
    reachable = 0
    for i in usable:
        reachable |= catalog.supports[i]
    if full_mask & ~reachable:
        return None
    by_edge: dict[int, list[int]] = {}
    m = len(catalog.edges)
    for e_bit in range(m):
        by_edge[e_bit] = [i for i in usable if catalog.supports[i] >> e_bit & 1]

    def recurse(covered: int, robots_left: int, chosen: list[int]):
        if covered == full_mask:
            return list(chosen)
        if robots_left == 0:
            return None
        nodes.spend()
        remaining = ~covered & full_mask
        lowest = (remaining & -remaining).bit_length() - 1
        for i in by_edge[lowest]:
            chosen.append(i)
            got = recurse(covered | catalog.supports[i], robots_left - 1, chosen)
            if got is not None:
                return got
            chosen.pop()
        return None

    return recurse(0, k, [])


def _solution_from_entries(
    inst: ExplorationInstance, catalog: _Catalog, entries: list[int]
) -> Solution:
    edges = catalog.edges
    multisets = (
        Counter({e: u for j, e in enumerate(edges) if (u := catalog.usages[i] >> 2 * j & 3)})
        for i in entries
    )
    return solution_from_multisets(inst.graph.n, inst.v_init, multisets, inst.k)


def _edge_mask(g: Multigraph) -> int:
    return (1 << g.num_distinct_edges) - 1


def _farthest_edge_bound(g: Multigraph, v_init: int) -> int:
    """Minimum budget needed to cover the hardest single edge."""
    dist = g.bfs_distances(v_init)
    bound = 0
    for (u, v) in g.distinct_edges():
        bound = max(bound, dist[u] + 1 + dist[v], dist[v] + 1 + dist[u])
    return bound


def _traversal_lower_bound(inst: ExplorationInstance) -> int:
    """ceil(total forced traversals / k): every independent vertex needs even
    degree per robot, so its incident edges cost the parity-corrected count;
    cover-internal edges cost one each.  Rounded up to even when the graph is
    bipartite (every closed walk is even there).
    """
    g = inst.graph
    vcp = connect_cover(g, vertex_cover_2approx(g), inst.v_init)
    cset = vcp.as_set()
    total = 0
    for (u, v) in g.distinct_edges():
        if u in cset and v in cset:
            total += 1
    for u in range(g.n):
        if u in cset:
            continue
        d = g.degree(u)
        total += d + (d % 2)
    lb = -(-total // inst.k)
    if g.is_bipartite() and lb % 2 == 1:
        lb += 1
    return lb


def exact_decide(
    inst: ExplorationInstance, cfg: SearchConfig = SearchConfig()
) -> tuple[bool, Solution | None]:
    """Decide whether a solution of value <= inst.budget exists.

    Returns (True, witness) or (False, None).  Raises SearchBudgetExceeded
    when the node limit is hit before an answer is certain.
    """
    if inst.budget is None:
        raise ValueError("exact_decide requires an instance with a budget")
    g = inst.graph
    budget = inst.budget
    if g.num_edges == 0:
        return True, solution_from_multisets(g.n, inst.v_init, (), inst.k)
    if _farthest_edge_bound(g, inst.v_init) > budget:
        return False, None
    nodes = _NodeBudget(cfg.node_limit)
    catalog = _walk_catalog(g, inst.v_init, budget, _Frontier(g, inst.v_init), nodes)
    entries = _assign_robots(catalog, inst.k, budget, _edge_mask(g), nodes)
    if entries is None:
        return False, None
    return True, _solution_from_entries(inst, catalog, entries)


def exact_optimum(
    inst: ExplorationInstance, cfg: SearchConfig = SearchConfig()
) -> tuple[int, Solution] | None:
    """Smallest budget with a solution, plus a witness.

    Tries budgets upward from the lower bound, extending one walk search a
    round at a time, and stops at the first that has a solution.  Budget
    2|E| always has one: a single robot walks every edge twice.  Returns None
    when cfg.max_budget is below the optimum (a proven "no" within it).
    """
    g = inst.graph
    if g.num_edges == 0:
        return 0, solution_from_multisets(g.n, inst.v_init, (), inst.k)
    lb = max(_traversal_lower_bound(inst), _farthest_edge_bound(g, inst.v_init))
    ceiling = 2 * g.num_distinct_edges
    if cfg.max_budget is not None:
        ceiling = min(ceiling, cfg.max_budget)
    frontier = _Frontier(g, inst.v_init)
    nodes = _NodeBudget(cfg.node_limit)
    full = _edge_mask(g)
    for budget in range(lb, ceiling + 1):
        catalog = _walk_catalog(g, inst.v_init, budget, frontier, nodes)
        entries = _assign_robots(catalog, inst.k, budget, full, nodes)
        if entries is not None:
            return budget, _solution_from_entries(inst, catalog, entries)
    return None
