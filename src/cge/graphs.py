"""The simple graph and the exploration problem statement.

Vertices are dense integers 0..n-1.  A graph is simple: its edges are the
distinct unordered pairs (u, v) with u < v, kept once in ascending order, and
self-loops are rejected.  Edge multisets, such as a robot's walk or the
expansion's doubled skeletons, are `Counter`s over those pairs.  Instances of
Multigraph are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import islice, starmap
from operator import itemgetter, lt
from typing import Iterable, Mapping, NamedTuple

from .errors import NotConnected, SelfLoop

Edge = tuple[int, int]
EdgeMultiset = Counter  # Counter[Edge]


def norm_edge(u: int, v: int) -> Edge:
    """Normalize an unordered pair to (min, max)."""
    if u == v:
        raise SelfLoop(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _simple_edges(pairs: tuple, n: int) -> bool:
    """Whether `pairs` is strictly ascending tuples (u, v) with
    0 <= u < v < n, checked by loops in C with no Python call per pair."""
    try:
        return not pairs or (
            type(pairs[0]) is tuple
            and all(starmap(lt, pairs))
            and all(map(lt, pairs, islice(pairs, 1, None)))
            and pairs[0][0] >= 0
            and max(map(itemgetter(1), pairs)) < n
        )
    except TypeError:  # not pairs of comparable numbers
        return False


class Multigraph:
    """Undirected simple graph over vertices 0..n-1.

    The name predates the rule that every edge appears once; it stays because
    perfbench/workloads.py imports it.  `edges` is the ascending tuple of
    normalized pairs and `neighbors(v)` the ascending tuple of v's neighbours,
    both built once from the constructor's pairs.

    Pairs that already are the `edges` of a graph, strictly ascending tuples
    (u, v) with 0 <= u < v < n, are taken as given: `_simple_edges` checks
    them with loops in C, and only the adjacency is built per pair.  Any
    other input is normalized, sorted and checked pair by pair.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        """Read `edges` (any iterable of pairs; a dict by its keys) once.

        Raises SelfLoop on a loop and ValueError on a repeated or
        out-of-range edge.
        """
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        pairs = tuple(edges)
        if not _simple_edges(pairs, n):
            # each pair is compared once; only a loop reaches norm_edge, which
            # raises SelfLoop for the first loop in the order given
            pairs = tuple(sorted([
                (u, v) if u < v else (v, u) if v < u else norm_edge(u, v) for u, v in pairs
            ]))
            prev = None
            for e in pairs:
                if e[0] < 0 or e[1] >= n:
                    raise ValueError(f"edge {e} out of range for n={n}")
                if e == prev:
                    raise ValueError(f"repeated edge {e}; graphs are simple")
                prev = e
        self.edges = pairs
        # sorted pairs list every (a, x) with a < x before every (x, b), so
        # each neighbour list comes out ascending without a sort of its own
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(map(tuple, adj))

    # -- queries ---------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors in ascending order."""
        return self._adj[v]

    def components(self, vertices: Iterable[int] | None = None) -> list[list[int]]:
        """Connected components of the subgraph induced by `vertices` (default: all).

        Isolated members of `vertices` form singleton components.  Components are
        listed by ascending smallest member, each sorted.
        """
        verts = sorted(set(vertices)) if vertices is not None else list(range(self.n))
        vset = set(verts)
        seen: set[int] = set()
        out: list[list[int]] = []
        for s in verts:
            if s in seen:
                continue
            comp = {s}
            queue = deque([s])
            while queue:
                v = queue.popleft()
                for w in self._adj[v]:
                    if w in vset and w not in comp:
                        comp.add(w)
                        queue.append(w)
            seen |= comp
            out.append(sorted(comp))
        return out

    def bfs_distances(self, source: int) -> list[int]:
        """Hop distances from source; unreachable vertices get -1."""
        dist = [-1] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in self._adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    def is_bipartite(self) -> bool:
        """Whether the parity of BFS depth in each component 2-colours every edge."""
        side = [0] * self.n
        for comp in self.components():
            dist = self.bfs_distances(comp[0])
            for v in comp:
                side[v] = dist[v] % 2
        return all(side[u] != side[v] for u, v in self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multigraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Multigraph(n={self.n}, edges={self.edges})"


def walk_edges(walk) -> EdgeMultiset:
    """Traversal counts of the consecutive steps of a vertex sequence."""
    return Counter(norm_edge(a, b) for a, b in zip(walk, walk[1:]))


def relabel_multiset(edges: EdgeMultiset, mapping: Mapping[int, int]) -> EdgeMultiset:
    """The multiset with every endpoint passed through `mapping` (unmapped
    vertices stay fixed)."""
    out: Counter = Counter()
    for (a, b), m in edges.items():
        if m:
            out[norm_edge(mapping.get(a, a), mapping.get(b, b))] += m
    return out


def incidence(edges: EdgeMultiset) -> dict[int, list[int]]:
    """Each vertex's neighbours in the multiset, one entry per edge copy.

    Every list is ascending: sorted normalized edges list each (a, x) with
    a < x before each (x, b).
    """
    adj: dict[int, list[int]] = {}
    for (a, b), m in sorted(edges.items()):
        if m > 0:
            adj.setdefault(a, []).extend([b] * m)
            adj.setdefault(b, []).extend([a] * m)
    return adj


def odd_degree_vertices(edges: EdgeMultiset) -> list[int]:
    """Vertices of odd degree in the multiset, ascending.

    One pass over the counts: a copy of an edge adds one to the degree of
    each end and a loop two to its vertex's, so only odd counts of non-loop
    edges flip a parity, and each flip adds its vertex to the odd set or
    removes it, allocating nothing per edge.
    """
    odd: set[int] = set()
    for (a, b), m in edges.items():
        if m % 2 and m > 0 and a != b:
            if a in odd:
                odd.remove(a)
            else:
                odd.add(a)
            if b in odd:
                odd.remove(b)
            else:
                odd.add(b)
    return sorted(odd)


def multiset_vertices(edges: EdgeMultiset) -> set[int]:
    """Endpoints of the edges in the multiset (the graph's vertex set)."""
    verts: set[int] = set()
    for (a, b), m in edges.items():
        if m:
            verts.add(a)
            verts.add(b)
    return verts


class _InstanceFields(NamedTuple):
    graph: Multigraph
    v_init: int
    k: int
    budget: int | None = None


class ExplorationInstance(_InstanceFields):
    """A collective exploration task: k robots at v_init must jointly traverse
    every edge of a connected simple graph and return, minimizing the longest
    closed walk.  `budget` turns the optimization task into a decision task.
    """

    __slots__ = ()

    def __new__(cls, graph: Multigraph, v_init: int, k: int, budget: int | None = None):
        if not (0 <= v_init < graph.n):
            raise ValueError(f"v_init {v_init} out of range")
        if k < 1:
            raise ValueError("robot count must be at least 1")
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        # every vertex must be reachable, not merely the edge-bearing ones
        if -1 in graph.bfs_distances(v_init):
            raise NotConnected("instance graph is not connected")
        return super().__new__(cls, graph, v_init, k, budget)
