"""The instance reader before it checked the text in bulk and read edge
lines inline: verbatim copies for differential tests.

`parse_instance` strips comments and checks every line for ASCII and '_'
one line at a time, reads every directive through `_int_field`, and builds
the graph with `Multigraph`.  `multigraph_parts` is the body of the old
`Multigraph` constructor: it returns the sorted edges and the neighbour
tuples, or raises what the constructor raised.
"""

from __future__ import annotations

from typing import Iterable

from cge.errors import NotConnected, ParseError, SelfLoop
from cge.graphs import Edge, ExplorationInstance, Multigraph
from cge.hardness import BinPackingInstance


def norm_edge(u: int, v: int) -> Edge:
    """Normalize an unordered pair to (min, max)."""
    if u == v:
        raise SelfLoop(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def multigraph_parts(n: int, edges: Iterable[Edge] = ()):
    """Read `edges` (any iterable of pairs; a dict by its keys) once.

    Raises SelfLoop on a loop and ValueError on a repeated or
    out-of-range edge.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    sorted_edges = tuple(sorted(norm_edge(u, v) for u, v in edges))
    # sorted pairs list every (a, x) with a < x before every (x, b), so
    # each neighbour list comes out ascending without a sort of its own
    adj: list[list[int]] = [[] for _ in range(n)]
    prev = None
    for e in sorted_edges:
        u, v = e
        if u < 0 or v >= n:
            raise ValueError(f"edge {e} out of range for n={n}")
        if e == prev:
            raise ValueError(f"repeated edge {e}; graphs are simple")
        adj[u].append(v)
        adj[v].append(u)
        prev = e
    return sorted_edges, tuple(map(tuple, adj))


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            if not line.isascii() or "_" in line:
                raise ParseError(lineno, "only ASCII without '_' is allowed")
            yield lineno, line


def parse_instance(text: str) -> ExplorationInstance | BinPackingInstance:
    lines = list(_meaningful_lines(text))
    if not lines:
        raise ParseError(1, "empty input")
    first_no, first = lines[0]
    head = first.split()
    if head[0] == "cge":
        if head != ["cge", "1"]:
            raise ParseError(first_no, "expected header 'cge 1'")
        return _parse_cge(lines[1:])
    if head[0] == "binpack":
        if head != ["binpack", "1"]:
            raise ParseError(first_no, "expected header 'binpack 1'")
        return _parse_binpack(lines[1:])
    raise ParseError(first_no, f"unknown format {head[0]!r}")


def _int_field(lineno: int, parts: list[str], arity: int) -> list[int]:
    if len(parts) != arity + 1:
        raise ParseError(lineno, f"expected {arity} argument(s) for {parts[0]!r}")
    try:
        return [int(p) for p in parts[1:]]
    except ValueError:
        raise ParseError(lineno, f"non-integer argument in {parts!r}")


def _set_scalar(scalars: dict[str, int], lineno: int, parts: list[str]) -> None:
    if parts[0] in scalars:
        raise ParseError(lineno, f"repeated {parts[0]!r}")
    (scalars[parts[0]],) = _int_field(lineno, parts, 1)


def _require(scalars: dict[str, int], names: tuple[str, ...], lineno: int) -> None:
    for name in names:
        if name not in scalars:
            raise ParseError(lineno, f"missing {name!r}")


def _parse_cge(lines) -> ExplorationInstance:
    scalars: dict[str, int] = {}
    edges: dict[tuple[int, int], int] = {}
    last_line = 1
    for lineno, line in lines:
        last_line = lineno
        parts = line.split()
        if parts[0] in ("nodes", "init", "robots", "budget"):
            _set_scalar(scalars, lineno, parts)
        elif parts[0] == "edge":
            u, v = _int_field(lineno, parts, 2)
            n = scalars.get("nodes")
            if n is None:
                raise ParseError(lineno, "'nodes' must come before edges")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(lineno, f"edge ({u}, {v}) out of range")
            if u == v:
                raise ParseError(lineno, f"self-loop at {u}")
            e = norm_edge(u, v)
            if e in edges:
                raise ParseError(lineno, f"duplicate edge {e}; input graphs are simple")
            edges[e] = 1
        else:
            raise ParseError(lineno, f"unknown directive {parts[0]!r}")
    _require(scalars, ("nodes", "init", "robots"), last_line)
    n = scalars["nodes"]
    # a connected graph has at most one vertex more than it has edges;
    # checking first keeps a huge 'nodes' from allocating adjacency
    if n > len(edges) + 1:
        raise ParseError(last_line, f"{n} nodes cannot be connected by {len(edges)} edges")
    try:
        graph = Multigraph(n, edges)
        return ExplorationInstance(
            graph, scalars["init"], scalars["robots"], scalars.get("budget")
        )
    except (ValueError, NotConnected) as exc:
        raise ParseError(last_line, str(exc))


def _parse_binpack(lines) -> BinPackingInstance:
    scalars: dict[str, int] = {}
    sizes: list[int] = []
    last_line = 1
    for lineno, line in lines:
        last_line = lineno
        parts = line.split()
        if parts[0] in ("capacity", "bins", "exact"):
            _set_scalar(scalars, lineno, parts)
            if scalars.get("exact", 0) not in (0, 1):
                raise ParseError(lineno, "exact must be 0 or 1")
        elif parts[0] == "item":
            (s,) = _int_field(lineno, parts, 1)
            sizes.append(s)
        else:
            raise ParseError(lineno, f"unknown directive {parts[0]!r}")
    _require(scalars, ("capacity", "bins", "exact"), last_line)
    try:
        return BinPackingInstance(
            tuple(sizes), scalars["capacity"], scalars["bins"], bool(scalars["exact"])
        )
    except ValueError as exc:
        raise ParseError(last_line, str(exc))
