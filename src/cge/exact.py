"""Exact minimum-budget solver for desk-scale instances.

The primary search enumerates closed walks from the start vertex robot by
robot.  Walk prefixes are explored breadth-first over (vertex, edge-usage)
states, so permutations of the same traversal collapse; a state with the
start vertex is a complete robot walk whose multiset is exactly the edges it
used.  Per-edge usage is capped at 2, which loses no solutions because any
multiset can shed double copies pairwise without breaking parity,
connectivity, or coverage.  Robots are assigned walks in non-decreasing
catalog order to kill permutation symmetry.

Pruning uses only multiplicity caps, coverage counts, and remaining-budget
reachability (distance back to the start vertex); closed walks may have odd
length in non-bipartite graphs and no parity assumption is made.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .approx import approx_solve
from .cover import connect_cover, vertex_cover_2approx
from .errors import SearchBudgetExceeded
from .euler import Solution, solution_from_multisets
from .graphs import ExplorationInstance, Multigraph


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the exact search.

    max_budget caps the optimum search; the node limit aborts with
    SearchBudgetExceeded (answer unknown, not "no").
    """

    max_budget: int | None = None
    node_limit: int = 5_000_000


@dataclass
class _Catalog:
    """All realizable robot walks up to a length cap.

    supports[i] is a bitmask of distinct edges covered, lengths[i] the walk
    length, usages[i] the per-edge usage vector.  Entries are sorted by
    (length, support mask); index 0 is always the empty walk.
    """

    edges: list[tuple[int, int]]
    supports: list[int]
    lengths: list[int]
    usages: list[tuple[int, ...]]


class _NodeBudget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise SearchBudgetExceeded("search node limit exhausted")


def _walk_catalog(
    g: Multigraph, v_init: int, cap: int, cfg: SearchConfig, nodes: _NodeBudget
) -> _Catalog:
    """Breadth-first enumeration of closed-walk states up to length `cap`.

    A state packs the per-edge usage vector (2 bits per edge, each capped at
    2 because instance graphs are simple) and the current vertex.  BFS order
    means the first time a support mask is completed at the start vertex, it
    is completed with minimum length; longer realizations of the same
    coverage are dominated and dropped.  Nothing reads `cfg`; it keeps the
    node budget the fifth positional argument, where perfbench/tracing.py
    reads it.
    """
    edges = g.distinct_edges()
    m = len(edges)
    eidx = {e: i for i, e in enumerate(edges)}
    dist = g.bfs_distances(v_init)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]  # (neighbor, edge index)
    for (u, v), i in eidx.items():
        adj[u].append((v, i))
        adj[v].append((u, i))

    best: dict[int, tuple[int, int]] = {}  # support mask -> (length, usage int)
    n = g.n

    def encode(usage: int, v: int) -> int:
        return usage * n + v

    seen = {encode(0, v_init)}
    frontier = deque([(0, v_init, 0, 0)])  # (usage, vertex, length, support)
    best[0] = (0, 0)
    while frontier:
        usage, v, length, support = frontier.popleft()
        if length == cap:
            continue
        nodes.spend()
        for w, i in adj[v]:
            shift = 2 * i
            if (usage >> shift) & 3 == 2:
                continue
            nlen = length + 1
            if nlen + dist[w] > cap:
                continue
            nusage = usage + (1 << shift)
            state = encode(nusage, w)
            if state in seen:
                continue
            seen.add(state)
            nsupport = support | (1 << i)
            if w == v_init and nsupport not in best:
                best[nsupport] = (nlen, nusage)
            frontier.append((nusage, w, nlen, nsupport))

    order = sorted(best.items(), key=lambda kv: (kv[1][0], kv[0]))
    supports = [s for s, _ in order]
    lengths = [lv[0] for _, lv in order]
    usages = []
    for _, (_, usage) in order:
        usages.append(tuple((usage >> (2 * i)) & 3 for i in range(m)))
    return _Catalog(edges=edges, supports=supports, lengths=lengths, usages=usages)


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
    multisets = (
        Counter({e: u for e, u in zip(catalog.edges, catalog.usages[i]) if u})
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
    catalog = _walk_catalog(g, inst.v_init, budget, cfg, nodes)
    entries = _assign_robots(catalog, inst.k, budget, _edge_mask(g), nodes)
    if entries is None:
        return False, None
    return True, _solution_from_entries(inst, catalog, entries)


def exact_optimum(
    inst: ExplorationInstance, cfg: SearchConfig = SearchConfig()
) -> tuple[int, Solution]:
    """Smallest budget with a solution, plus a witness.

    Iterates candidate budgets upward from the lower bound; the walk catalog
    is shared across the iterations.  The approximation value serves as the
    default ceiling, which is always sufficient.
    """
    g = inst.graph
    if g.num_edges == 0:
        return 0, solution_from_multisets(g.n, inst.v_init, (), inst.k)
    lb = max(_traversal_lower_bound(inst), _farthest_edge_bound(g, inst.v_init))
    ub = approx_solve(inst, vertex_cover_2approx(g)).value
    if cfg.max_budget is not None:
        ub = min(ub, cfg.max_budget)
    if ub < lb:
        raise SearchBudgetExceeded(
            f"budget ceiling {ub} below the lower bound {lb}; result unknown"
        )
    nodes = _NodeBudget(cfg.node_limit)
    catalog = _walk_catalog(g, inst.v_init, ub, cfg, nodes)
    full = _edge_mask(g)
    for budget in range(lb, ub + 1):
        entries = _assign_robots(catalog, inst.k, budget, full, nodes)
        if entries is not None:
            return budget, _solution_from_entries(inst, catalog, entries)
    raise SearchBudgetExceeded(f"no solution within ceiling {ub}; result unknown")
