"""Multigraph representation and the exploration problem statement.

Vertices are dense integers 0..n-1.  Edges are stored as a mapping from the
unordered pair (u, v) with u < v to a positive multiplicity; self-loops are
rejected.  Instances of Multigraph are immutable after construction and safe
to share across threads.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Mapping

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

    @classmethod
    def from_counter(cls, n: int, edges: EdgeMultiset) -> "Multigraph":
        return cls(n, {norm_edge(u, v): m for (u, v), m in edges.items() if m})

    # -- queries ---------------------------------------------------------

    def multiplicity(self, u: int, v: int) -> int:
        return self._edges.get(norm_edge(u, v), 0)

    def has_edge(self, u: int, v: int) -> bool:
        return self.multiplicity(u, v) > 0

    def edge_items(self) -> list[tuple[Edge, int]]:
        """Distinct edges with multiplicities, in ascending (u, v) order."""
        return sorted(self._edges.items())

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

    def active_vertices(self) -> list[int]:
        """Vertices with degree > 0, ascending."""
        return [v for v in range(self.n) if self._adj[v]]

    def is_simple(self) -> bool:
        return all(m == 1 for m in self._edges.values())

    def is_connected(self) -> bool:
        """Connectivity of the subgraph induced by non-isolated vertices.

        The empty graph (no edges) counts as connected.
        """
        active = self.active_vertices()
        if not active:
            return True
        return len(self._component_of(active[0])) == len(active)

    def _component_of(self, start: int) -> set[int]:
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w, _ in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

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

    def induced(self, vertices: Iterable[int]) -> "Multigraph":
        """Induced submultigraph; keeps the original vertex ids and carrier size."""
        vset = set(vertices)
        edges = {e: m for e, m in self._edges.items() if e[0] in vset and e[1] in vset}
        return Multigraph(self.n, edges)

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
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] >= 0 or not self._adj[s]:
                continue
            color[s] = 0
            queue = deque([s])
            while queue:
                v = queue.popleft()
                for w, _ in self._adj[v]:
                    if color[w] < 0:
                        color[w] = 1 - color[v]
                        queue.append(w)
                    elif color[w] == color[v]:
                        return False
        return True

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


def graph_of_multiset(n: int, edges: EdgeMultiset) -> Multigraph:
    """The multigraph spanned by an edge multiset (carrier size n)."""
    return Multigraph.from_counter(n, edges)


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


def multiset_degree(edges: EdgeMultiset, v: int) -> int:
    return sum(m for (a, b), m in edges.items() if m and (a == v or b == v))


def multiset_vertices(edges: EdgeMultiset) -> set[int]:
    """Endpoints of the edges in the multiset (the graph's vertex set)."""
    verts: set[int] = set()
    for (a, b), m in edges.items():
        if m:
            verts.add(a)
            verts.add(b)
    return verts


@dataclass(frozen=True)
class ExplorationInstance:
    """A collective exploration task: k robots at v_init must jointly traverse
    every edge of a connected simple graph and return, minimizing the longest
    closed walk.  `budget` turns the optimization task into a decision task.
    """

    graph: Multigraph
    v_init: int
    k: int
    budget: int | None = None

    def __post_init__(self):
        g = self.graph
        if not (0 <= self.v_init < g.n):
            raise ValueError(f"v_init {self.v_init} out of range")
        if self.k < 1:
            raise ValueError("robot count must be at least 1")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be non-negative")
        if not g.is_simple():
            raise ValueError("instance graph must be simple")
        # every vertex must be reachable, not merely the edge-bearing ones
        if g.n > 0:
            comp = g._component_of(self.v_init)
            if len(comp) != g.n:
                raise NotConnected("instance graph is not connected")

    def with_budget(self, budget: int | None) -> "ExplorationInstance":
        return ExplorationInstance(self.graph, self.v_init, self.k, budget)
