"""Exact minimum-budget solver for desk-scale instances.

With two or more robots the search enumerates closed walks from the start
vertex, then assigns them robot by robot.  One robot needs one closed walk
through every edge, which a depth-first search finds without the catalog
(below).

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

With two or more robots one search node is one expanded walk state or one
robot-assignment step.  A search capped at c expands the states a
breadth-first search pruned at c expands, so deciding a budget spends the
same nodes either way, and the optimum search pays for the rounds up to the
optimum only.

Each robot in turn takes a walk covering the lowest edge still uncovered, so
a set of walks is tried in one order only; no order between the robots'
walks is enforced otherwise.  The catalog keeps, per edge, the bitset of the
walks that cover it, so the last robot's candidates are the AND of the
bitsets of the edges still uncovered and the first of them ends the search.
Pruning uses only coverage and remaining-budget reachability; closed walks
may have odd length in non-bipartite graphs and no parity assumption is
made.

Both entry points start at one bound, the larger of the Chinese-postman
bound and the farthest-edge bound: together the robots walk a connected even
multigraph through every edge, so at least CPP(G) edges, and the longest
walk is at least ceil(CPP(G) / k).  The optimum search starts there, and
deciding a budget below it answers "no" without a search.

One robot (`_first_tour`) returns the walk the catalog would: the assignment
takes the first entry whose support holds every edge, and all such entries
share that support, so it is the one of least length and, among those, of
least rank.  A rank is sum(pos_i * base^(L - i)) over the L steps with every
position below base, so over one length L ranks order walks as their
step-position sequences order lexicographically.  A depth-first search that
steps in adjacency-position order therefore meets that walk first among the
closed walks through every edge, once its cap is the least with one.  The
caps run upward from the start bound, in decide mode too: capped at a larger
budget alone, the search could meet a longer walk first.  A child is pruned
when its length plus h exceeds the cap, h = max(dist, |X| + |T|/2), X being
the edges not used yet and T the odd-degree vertices of X, symmetric
difference {vertex, start}.  h is admissible: the rest of the walk runs from
the vertex to the start and holds X, so it has at least dist edges, and the
edges it adds to X must make its odd set {vertex, start}, which takes at
least |T|/2 of them.  One node is one state pushed, and a state whose
subtree failed is not pushed again under the same cap.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import NamedTuple

from .errors import SearchBudgetExceeded
from .euler import Solution, solution_from_multisets
from .graphs import ExplorationInstance, Multigraph


class SearchConfig(NamedTuple):
    """Knobs for the exact search.

    max_budget caps the optimum search; when no budget up to it has a
    solution the answer is a proven "no".  node_limit bounds the search
    nodes: one node is one expanded walk state or one robot-assignment step,
    and with one robot one walk state pushed by the tour search.
    Exhausting it raises SearchBudgetExceeded (answer unknown, not "no").
    """

    max_budget: int | None = None
    node_limit: int = 5_000_000


class _NodeBudget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise SearchBudgetExceeded("search node limit exhausted")


def _step_table(g: Multigraph, v_init: int):
    """The vertex bits of a state and, per vertex in adjacency order, (high
    usage bit of the edge, state delta, potential delta, position) of each
    step."""
    dist = g.bfs_distances(v_init)
    vbits = (g.n - 1).bit_length()
    steps: list[list[tuple[int, int, int, int]]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        unit = 1 << (2 * i + vbits)
        for a, b in ((u, v), (v, u)):
            pos = len(steps[a])
            steps[a].append((unit << 1, unit + b - a, 1 + dist[b] - dist[a], pos))
    return vbits, steps


class _Frontier:
    """The walk search between two caps: the states not expanded yet and the
    catalog of the rounds run so far.

    The catalog holds every realizable robot walk up to the last cap.
    supports[i] is a bitmask of the edges covered, lengths[i] the walk
    length, usages[i] the per-edge usage packed 2 bits per edge (edge j in
    bits 2j, 2j+1).  Entries are sorted by (length, support mask); index 0 is
    always the empty walk.  Bit i of covers[j] is set when supports[i] holds
    edge j.

    A state packs `usage << vbits | vertex`.  pending[(p, l)] maps each
    state of potential p and length l to its rank: the smallest
    `parent_rank * base + position` over its parents, `position` being the
    step's index in the parent vertex's adjacency list and `base` the largest
    degree.  Ranks order the states of one length as a breadth-first search
    discovers them.  A child never equals a state already expanded (it is
    longer than every expanded state of its potential), so no visited set is
    kept.  steps is `_step_table`'s.
    """

    __slots__ = ("steps", "vbits", "vmask", "base", "low", "rounds", "pending", "found",
                 "supports", "lengths", "usages", "covers")

    def __init__(self, g: Multigraph, v_init: int):
        vbits, steps = _step_table(g, v_init)
        self.steps = steps
        self.vbits = vbits
        self.vmask = (1 << vbits) - 1
        self.base = max(map(len, steps))
        self.low = (4 ** g.num_edges - 1) // 3  # the low bit of every usage field
        self.rounds = 0
        self.pending: dict[tuple[int, int], dict[int, int]] = {(0, 0): {v_init: 0}}
        self.found = {0}  # supports in the catalog, one bit per used edge at 2j
        self.supports = [0]
        self.lengths = [0]
        self.usages = [0]
        self.covers = [0] * g.num_edges

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
        if not best:
            return
        new = sorted(best)  # the same order as the compact supports
        self.found.update(new)
        m, first = len(self.covers), len(self.supports)
        rows = [f"{spread:0{2 * m}b}"[1::2] for spread in new]  # m digits, edge 0 last
        self.supports += [int(row, 2) for row in rows]
        self.lengths += [p] * len(new)
        self.usages += [best[spread][1] for spread in new]
        columns = "".join(reversed(rows))  # column m-1-j: edge j's bits, last entry first
        for j in range(m):
            self.covers[j] |= int(columns[m - 1 - j::m], 2) << first


def _walk_catalog(
    g: Multigraph, v_init: int, cap: int, frontier: _Frontier, nodes: _NodeBudget
) -> _Frontier:
    """Extend `frontier`'s catalog to every walk of length <= `cap` and return
    the frontier, which is the catalog.

    Round p expands the start-vertex states of length p - 1 (all their
    children have potential p + 1), then the other states of potential p in
    increasing length, and records the start-vertex states of length p.  After
    round c the expanded states are the ones a breadth-first search pruned at
    c expands, so a single call spends exactly its nodes.  `g` and `v_init`
    are the ones `frontier` was built for; the node budget stays the fifth
    positional argument, where perfbench/tracing.py reads it.

    No round runs past 2|E|.  A state's once-used edges join the start to
    its vertex, so its length is at most 2|E| minus its distance home and
    its potential at most 2|E|: later rounds would find every bucket empty
    but the start state of length 2|E|, which walks every edge twice and
    has no step left.
    """
    while frontier.rounds < min(cap, 2 * g.num_edges):
        p = frontier.rounds = frontier.rounds + 1
        frontier.expand(p - 1, p - 1, nodes)
        for l in range(p):
            frontier.expand(p, l, nodes)
        frontier.record(p)
    return frontier


def _assign_robots(
    catalog: _Frontier, k: int, budget: int, full_mask: int, nodes: _NodeBudget
) -> list[int] | None:
    """Assign catalog walks of length <= `budget` to robots so every edge is
    covered.

    Each recursion level spends one node and commits one robot to an entry
    covering the lowest uncovered edge, in index order; the last robot's
    first entry covering every uncovered edge ends the search.  Entries are
    sorted by length, so one mask cuts the usable prefix from each of
    `catalog.covers`.  Returns chosen entry indices (possibly fewer than k;
    the rest stay at the start vertex), or None.
    """
    supports = catalog.supports
    usable = (1 << bisect_right(catalog.lengths, budget)) - 1
    covers = [c & usable for c in catalog.covers]
    if not all(covers):
        return None

    def recurse(covered: int, robots_left: int, chosen: list[int]):
        if covered == full_mask:
            return list(chosen)
        if robots_left == 0:
            return None
        nodes.spend()
        remaining = ~covered & full_mask
        lowest = (remaining & -remaining).bit_length() - 1
        candidates = covers[lowest]
        if robots_left == 1:  # only the entries covering every uncovered edge
            for j in range(lowest + 1, len(covers)):
                if remaining >> j & 1:
                    candidates &= covers[j]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            chosen.append(i)
            got = recurse(covered | supports[i], robots_left - 1, chosen)
            if got is not None:
                return got
            chosen.pop()
        return None

    return recurse(0, k, [])


def _first_tour(
    g: Multigraph, v_init: int, caps, nodes: _NodeBudget
) -> tuple[int, int] | None:
    """The first of the ascending `caps` at which one robot has a closed walk
    through every edge, with the usage vector of the first such walk in
    adjacency-position order, or None.

    A depth-first search over the `_Frontier` states with one explicit
    stack, since walks reach 2|E| steps.  A frame carries its state, length,
    potential (length + dist), T as a vertex bitmask and c = length + |X| +
    |T|/2, so the pruning bound h is max(potential, c) - length.  A step
    over an unused edge keeps c and T; a step that doubles an edge toggles
    both of its ends in T and adds 0, 1 or 2 to c.  c equals the length
    exactly at a walk through every edge back at the start.
    """
    vbits, steps = _step_table(g, v_init)
    vmask = (1 << vbits) - 1
    odd = 0
    for u, w in g.edges:
        odd ^= 1 << u | 1 << w
    root = g.num_edges + odd.bit_count() // 2
    for cap in caps:
        nodes.spend()
        if root == 0:
            return cap, 0
        dead: set[int] = set()
        stack = [(v_init, 0, 0, root, odd, iter(steps[v_init]))]
        while stack:
            state, length, p, c, t, it = stack[-1]
            for high, delta, dp, _ in it:
                if state & high or p + dp > cap:
                    continue
                child = state + delta
                nc, nt = c, t
                if state & high >> 1:  # the step doubles the edge
                    v, w = state & vmask, child & vmask
                    nc += 2 - (t >> v & 1) - (t >> w & 1)
                    nt ^= 1 << v | 1 << w
                if nc > cap or child in dead:
                    continue
                nodes.spend()
                if nc == length + 1:
                    return cap, child >> vbits
                stack.append((child, length + 1, p + dp, nc, nt, iter(steps[child & vmask])))
                break
            else:
                dead.add(state)
                stack.pop()
    return None


def _solution_from_usages(inst: ExplorationInstance, usages) -> Solution:
    edges = inst.graph.edges
    multisets = (
        Counter({e: u for j, e in enumerate(edges) if (u := usage >> 2 * j & 3)})
        for usage in usages
    )
    runs = ((ms, 1) for ms in multisets)
    return solution_from_multisets(inst.graph.n, inst.v_init, runs, inst.k)


def _farthest_edge_bound(g: Multigraph, v_init: int) -> int:
    """Minimum budget needed to cover the hardest single edge."""
    dist = g.bfs_distances(v_init)
    return max((dist[u] + 1 + dist[v] for u, v in g.edges), default=0)


_PAIRING_LIMIT = 16  # odd vertices paired exactly; at 16 the DP takes about 8 ms


def _min_pairing(dist: list[list[int]]) -> int:
    """Least total distance of a perfect pairing of the t vertices of `dist`.

    A DP over the set of unpaired vertices that always pairs the lowest one:
    O(2^t * t).
    """
    best = {0: 0}

    def cost(mask: int) -> int:
        if mask not in best:
            low = (mask & -mask).bit_length() - 1
            rest, row = mask ^ 1 << low, dist[low]
            best[mask] = min(row[j] + cost(rest ^ 1 << j)
                             for j in range(low + 1, len(dist)) if rest >> j & 1)
        return best[mask]

    return cost((1 << len(dist)) - 1)


def _postman_bound(inst: ExplorationInstance) -> int:
    """ceil(CPP(G) / k), CPP(G) = |E| plus a minimum T-join on the odd-degree
    vertices T (Edmonds & Johnson, "Matching, Euler tours and the Chinese
    postman", Math. Programming 5, 1973).

    The robots' walks together form a connected even multigraph holding
    every edge, so they traverse at least CPP(G) edges.  A minimum T-join
    is a minimum pairing of T by BFS distance.  Above `_PAIRING_LIMIT` odd
    vertices the bound takes half the sum of each odd vertex's distance to
    its nearest other odd vertex instead, which every pairing pays at least.
    Rounded up to even when the graph is bipartite (every closed walk is
    even there).  A tree's T-join is all of its edges, since every edge cuts
    off an odd number of odd vertices, so a tree needs no distances.
    """
    g = inst.graph
    if g.num_edges == g.n - 1:  # the instance graph is connected: a tree
        join = g.num_edges
    else:
        odd = [v for v in range(g.n) if g.degree(v) % 2]
        dist = [[row[w] for w in odd] for row in map(g.bfs_distances, odd)]
        if len(odd) <= _PAIRING_LIMIT:
            join = _min_pairing(dist)
        else:
            nearest = (min(d for j, d in enumerate(row) if j != i)
                       for i, row in enumerate(dist))
            join = -(-sum(nearest) // 2)
    lb = -(-(g.num_edges + join) // inst.k)
    if g.is_bipartite() and lb % 2 == 1:
        lb += 1
    return lb


def _search(
    inst: ExplorationInstance, cfg: SearchConfig, budgets
) -> tuple[int, Solution] | None:
    """The first of the ascending `budgets` at which the robots can cover
    every edge, with a witness, or None.  One robot takes the tour search's
    walk; more robots extend one walk search a round at a time across the
    budgets.  Either runs under one node limit.
    """
    g = inst.graph
    nodes = _NodeBudget(cfg.node_limit)
    if inst.k == 1:
        found = _first_tour(g, inst.v_init, budgets, nodes)
        if found is None:
            return None
        budget, usage = found
        return budget, _solution_from_usages(inst, (usage,))
    frontier = _Frontier(g, inst.v_init)
    full = (1 << g.num_edges) - 1
    for budget in budgets:
        catalog = _walk_catalog(g, inst.v_init, budget, frontier, nodes)
        entries = _assign_robots(catalog, inst.k, budget, full, nodes)
        if entries is not None:
            usages = (catalog.usages[i] for i in entries)
            return budget, _solution_from_usages(inst, usages)
    return None


def _lower_bound(inst: ExplorationInstance) -> int:
    """The least budget worth searching: the larger of the Chinese-postman
    bound and the farthest-edge bound.  No budget below it has a solution."""
    return max(_postman_bound(inst), _farthest_edge_bound(inst.graph, inst.v_init))


def exact_decide(
    inst: ExplorationInstance, cfg: SearchConfig = SearchConfig()
) -> tuple[bool, Solution | None]:
    """Decide whether a solution of value <= inst.budget exists.

    Returns (True, witness) or (False, None); a budget below `_lower_bound`
    is a "no" without a search.  Raises SearchBudgetExceeded when the node
    limit is hit before an answer is certain.
    """
    if inst.budget is None:
        raise ValueError("exact_decide requires an instance with a budget")
    lb = _lower_bound(inst)
    if inst.budget < lb:
        return False, None
    # one robot's tour search runs every cap up to the budget: at the budget
    # alone it could find a longer walk that comes first in position order
    found = _search(inst, cfg, range(lb if inst.k == 1 else inst.budget, inst.budget + 1))
    return (False, None) if found is None else (True, found[1])


def exact_optimum(
    inst: ExplorationInstance, cfg: SearchConfig = SearchConfig()
) -> tuple[int, Solution] | None:
    """Smallest budget with a solution, plus a witness.

    Tries budgets upward from `_lower_bound` and stops at the first that
    has a solution.  Budget
    2|E| always has one: a single robot walks every edge twice.  Returns
    None when cfg.max_budget is below the optimum (a proven "no" within it).
    """
    ceiling = 2 * inst.graph.num_edges
    if cfg.max_budget is not None:
        ceiling = min(ceiling, cfg.max_budget)
    return _search(inst, cfg, range(_lower_bound(inst), ceiling + 1))
