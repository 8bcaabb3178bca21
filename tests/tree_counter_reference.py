"""The spanning tree and parity fix before the fix read a BFS parent map:
verbatim copies for differential tests.

`spanning_tree` returns the BFS tree as an edge `Counter`, and
`make_vc_even_degree` re-validates that tree, rebuilds its adjacency and
re-roots it at the lowest cover vertex on every call.
"""

from __future__ import annotations

from collections import Counter, deque

from cge.errors import OddDegree, TreeNotSpanning
from cge.graphs import EdgeMultiset, Multigraph, norm_edge


def spanning_tree(g: Multigraph, vertices: set[int], root: int) -> EdgeMultiset:
    """BFS tree of the induced subgraph, rooted at `root`, ascending neighbors."""
    tree: Counter = Counter()
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w in vertices and w not in seen:
                seen.add(w)
                tree[norm_edge(v, w)] += 1
                queue.append(w)
    if seen != vertices:
        raise TreeNotSpanning(f"cover subgraph is not connected over {sorted(vertices)}")
    return tree


def make_vc_even_degree(
    tree: EdgeMultiset, e: EdgeMultiset, vcp: tuple[int, ...]
) -> EdgeMultiset:
    """Add at most |cover| - 1 tree edges so every degree becomes even.

    `tree` must be a spanning tree of the cover contained in `e`, and every
    vertex outside the cover must have even degree in `e`, so the odd cover
    vertices are even in number.  Rooted at the lowest cover vertex, the edge
    from v to its parent gets one extra copy exactly when v's subtree holds an
    odd number of odd-degree vertices: the only fix that uses each tree edge
    at most once.  One traversal of the tree, one pass over `e` and one pass
    over the cover, children before parents, cost O(|e| + |cover|).
    """
    cset = set(vcp)
    edges = [edge for edge, m in tree.items() if m]
    if len(edges) != len(cset) - 1:
        raise TreeNotSpanning(f"{len(edges)} tree edges cannot span {len(cset)} cover vertices")
    tree_adj: dict[int, list[int]] = {v: [] for v in cset}
    for (u, v) in edges:
        if u not in cset or v not in cset:
            raise TreeNotSpanning(f"tree edge {(u, v)} leaves the cover")
        if e[(u, v)] < tree[(u, v)]:
            raise TreeNotSpanning(f"tree edge {(u, v)} missing from the multiset")
        tree_adj[u].append(v)
        tree_adj[v].append(u)
    root = min(cset)
    parent = {root: root}
    order = [root]
    for v in order:
        for w in tree_adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    if len(order) != len(cset):
        raise TreeNotSpanning("tree does not span the cover")

    odd: set[int] = set()
    for (u, v), m in e.items():
        if m % 2:
            odd ^= {u, v}
    if odd - cset:
        raise OddDegree(f"vertex {min(odd - cset)} outside the cover has odd degree")
    result = Counter(e)
    for v in order[:0:-1]:  # every vertex but the root, children first
        if v in odd:
            result[norm_edge(v, parent[v])] += 1
            odd ^= {parent[v]}
    return result
