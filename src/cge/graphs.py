"""Multigraph representation and the exploration problem statement.

Vertices are dense integers 0..n-1.  Edges are stored as a mapping from the
unordered pair (u, v) with u < v to a positive multiplicity; self-loops are
rejected.  Instances of Multigraph are immutable after construction and safe
to share across threads.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Iterable, Mapping, NamedTuple

from .errors import NotConnected, SelfLoop

Edge = tuple[int, int]
EdgeMultiset = Counter  # Counter[Edge]


def norm_edge(u: int, v: int) -> Edge:
    """Normalize an unordered pair to (min, max)."""
    if u == v:
        raise SelfLoop(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Multigraph:
    """Undirected multigraph over vertices 0..n-1 without self-loops."""

    __slots__ = ("n", "_edges", "_adj")

    def __init__(self, n: int, edges: Mapping[Edge, int] | None = None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        store: dict[Edge, int] = {}
        if edges:
            for (u, v), mult in edges.items():
                e = norm_edge(u, v)
                if not (0 <= e[0] and e[1] < n):
                    raise ValueError(f"edge {e} out of range for n={n}")
                if mult <= 0:
                    raise ValueError(f"multiplicity of {e} must be positive, got {mult}")
                store[e] = store.get(e, 0) + mult
        self._edges = store
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n)}
        for (u, v), mult in store.items():
            adj[u].append((v, mult))
            adj[v].append((u, mult))
        for v in adj:
            adj[v].sort()
        self._adj = adj

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Multigraph":
        """Build from an iterable of (u, v) pairs; repeats raise the multiplicity."""
        cnt: Counter = Counter(norm_edge(u, v) for u, v in pairs)
        return cls(n, cnt)

    # -- queries ---------------------------------------------------------

    def multiplicity(self, u: int, v: int) -> int:
        return self._edges.get(norm_edge(u, v), 0)

    def distinct_edges(self) -> list[Edge]:
        return sorted(self._edges)

    def edge_counter(self) -> EdgeMultiset:
        return Counter(self._edges)

    @property
    def num_edges(self) -> int:
        """Total edge count including repetitions."""
        return sum(self._edges.values())

    @property
    def num_distinct_edges(self) -> int:
        return len(self._edges)

    def degree(self, v: int) -> int:
        return sum(m for _, m in self._adj[v])

    def neighbors(self, v: int) -> list[int]:
        """Distinct neighbors in ascending order."""
        return [w for w, _ in self._adj[v]]

    def is_simple(self) -> bool:
        return all(m == 1 for m in self._edges.values())

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
                for w, _ in self._adj[v]:
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
            for w, _ in self._adj[v]:
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
        return all(side[u] != side[v] for u, v in self._edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multigraph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self._edges.items()))))

    def __repr__(self):
        return f"Multigraph(n={self.n}, edges={dict(sorted(self._edges.items()))})"


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
    """Vertices of odd degree in the multiset, ascending."""
    # a copy of an edge adds one to the degree of each end and a loop two to
    # its vertex's, so only odd counts of non-loop edges flip a parity
    odd: set[int] = set()
    for (a, b), m in edges.items():
        if m > 0 and m % 2 and a != b:
            odd ^= {a, b}
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
        if not graph.is_simple():
            raise ValueError("instance graph must be simple")
        # every vertex must be reachable, not merely the edge-bearing ones
        if -1 in graph.bfs_distances(v_init):
            raise NotConnected("instance graph is not connected")
        return super().__new__(cls, graph, v_init, k, budget)
