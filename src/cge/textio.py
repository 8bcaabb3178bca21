"""Line-oriented text formats for instances and solutions.

Exploration instances:

    cge 1
    nodes <n>
    init <v>
    robots <k>
    budget <B>        # optional
    edge <u> <v>      # one line per edge; duplicates rejected

Bin-packing instances:

    binpack 1
    capacity <B>
    bins <k>
    exact 0|1
    item <s>          # one line per item, in order

Solutions:

    value <v>
    robot <i>: <v0> <v1> ... <v0>   # one line per robot

'#' starts a comment; blank lines are ignored; LF line endings.  Integers
are ASCII digits with an optional sign: a line holding any other character
outside ASCII, or a '_', is rejected, so int() never reads a digit the
formatter would not write.  Scalar directives appear at most once.  Parsing
and formatting round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotConnected, ParseError
from .euler import RobotCycle, Solution
from .graphs import ExplorationInstance, Multigraph, norm_edge
from .hardness import BinPackingInstance


@dataclass(frozen=True)
class InstanceDocument:
    kind: str  # "cge" | "binpack"
    payload: object


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            if not line.isascii() or "_" in line:
                raise ParseError(lineno, "only ASCII without '_' is allowed")
            yield lineno, line


def parse_instance(text: str) -> InstanceDocument:
    lines = list(_meaningful_lines(text))
    if not lines:
        raise ParseError(1, "empty input")
    first_no, first = lines[0]
    head = first.split()
    if head[0] == "cge":
        if head != ["cge", "1"]:
            raise ParseError(first_no, "expected header 'cge 1'")
        return InstanceDocument("cge", _parse_cge(lines[1:]))
    if head[0] == "binpack":
        if head != ["binpack", "1"]:
            raise ParseError(first_no, "expected header 'binpack 1'")
        return InstanceDocument("binpack", _parse_binpack(lines[1:]))
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


def format_instance(doc: InstanceDocument) -> str:
    if doc.kind == "cge":
        inst: ExplorationInstance = doc.payload
        lines = [
            "cge 1",
            f"nodes {inst.graph.n}",
            f"init {inst.v_init}",
            f"robots {inst.k}",
        ]
        if inst.budget is not None:
            lines.append(f"budget {inst.budget}")
        for (u, v) in inst.graph.distinct_edges():
            lines.append(f"edge {u} {v}")
        return "\n".join(lines) + "\n"
    if doc.kind == "binpack":
        bp: BinPackingInstance = doc.payload
        lines = [
            "binpack 1",
            f"capacity {bp.capacity}",
            f"bins {bp.bins}",
            f"exact {int(bp.exact)}",
        ]
        lines.extend(f"item {s}" for s in bp.sizes)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown document kind {doc.kind!r}")


def format_solution(sol: Solution) -> str:
    lines = [f"value {sol.value}"]
    for i, rc in enumerate(sol.cycles, start=1):
        lines.append(f"robot {i}: " + " ".join(str(v) for v in rc.walk))
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> Solution:
    cycles = []
    value_seen = False
    for lineno, line in _meaningful_lines(text):
        parts = line.split()
        if parts[0] == "value":
            if value_seen:
                raise ParseError(lineno, "repeated 'value'")
            _int_field(lineno, parts, 1)
            value_seen = True
        elif parts[0] == "robot":
            if len(parts) < 3 or not parts[1].endswith(":"):
                raise ParseError(lineno, "expected 'robot <i>: v0 v1 ... v0'")
            try:
                walk = tuple(int(p) for p in parts[2:])
            except ValueError:
                raise ParseError(lineno, "non-integer vertex in walk")
            try:
                cycles.append(RobotCycle(walk))
            except ValueError as exc:
                raise ParseError(lineno, str(exc))
        else:
            raise ParseError(lineno, f"unknown directive {parts[0]!r}")
    if not value_seen:
        raise ParseError(1, "missing 'value'")
    if not cycles:
        raise ParseError(1, "missing robot walks")
    return Solution(tuple(cycles))
