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
    robot <i>: <v0> <v1> ... <v0>   # one line per robot, i = 1, 2, ... in order

Consecutive robot lines with the same walk text form one run of the parsed
solution, and each run's walk is written out once when formatting.  The
parser reads a run's first two lines through the line grammar.  Once the
second has shown the run to go on, each later line that is exactly what
`format_solution` writes for the run's next robot, `robot <i>: <walk>` and
"\n", is compared as text in blocks of such lines and not parsed.  So
parsing costs two grammar steps per run, and one per line written
otherwise, plus a text compare per robot; a run of one robot costs no
compare.  A solution file is read in pieces, so its text is never held
whole.

'#' starts a comment; blank lines are ignored; LF line endings.  Integers
are ASCII digits with an optional sign: a line holding any other character
outside ASCII, or a '_', is rejected, so int() never reads a digit the
formatter would not write.  Scalar directives appear at most once.  Parsing
and formatting round-trip exactly.

An instance text exactly as `format_instance` writes one, the form of every
generated or converted instance, is read in bulk and its edges are checked
once.  The text is split once and must equal its own rendering; each edge
end is read by a look-up among the names of the vertices 0..n-1, which also
checks its digits and range; and the pairs go to `Multigraph`, whose check
in C of strictly ascending (u, v) with u < v lets it keep them as its edges.
A text that fails any of these steps, or that the line reader would refuse,
is read again by the line reader, which alone words errors, so every
result and error is the line reader's.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterator, NamedTuple, TextIO

from .errors import CgeError, NotConnected, ParseError
from .euler import RobotCycle, Solution, robot_lines
from .graphs import ExplorationInstance, Multigraph
from .hardness import BinPackingInstance


class InstanceDocument(NamedTuple):
    kind: str  # "cge" | "binpack"
    payload: object


# the characters at which str.splitlines ends a line; "\r\n" ends one line
_LINE_END = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
_BLOCK = 1 << 10  # most robot lines compared at once
_PIECE = 1 << 16  # characters read from a solution file at a time


def _meaningful_lines(text: str) -> list[tuple[int, str]]:
    """The (line number, line) pairs of the text's non-blank lines, each
    without its comment and surrounding whitespace.  Raises ParseError at
    the first whose meaningful part holds a character outside ASCII or a
    '_' (a comment may hold either)."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            if not line.isascii() or "_" in line:
                raise ParseError(lineno, "only ASCII without '_' is allowed")
            lines.append((lineno, line))
    return lines


def parse_instance(text: str) -> InstanceDocument:
    """The instance in `text`: read in bulk when it is exactly as
    `format_instance` writes an exploration instance with edges, else by
    the line reader, which alone words errors."""
    inst = _read_in_bulk(text)
    return _parse_instance_lines(text) if inst is None else InstanceDocument("cge", inst)


def _read_in_bulk(text: str) -> ExplorationInstance | None:
    """The instance of a text exactly as `format_instance` writes one with
    edges, or None for any other text and any the line reader refuses."""
    start = text.find("\nedge ") + 1
    try:
        n, v_init, k, *budget = scalars = list(map(int, text[:start].split()[3::2]))
    except ValueError:
        return None
    ends = text[start:].replace("edge ", "").split()
    m = len(ends) // 2
    # a 'nodes' count no m edges can connect is refused by the line reader,
    # before anything is allocated per vertex
    if len(budget) > 1 or 2 * m != len(ends) or not 0 < n <= m + 1:
        return None
    if _cge_form(len(budget), m) % (*scalars, *ends) != text:
        return None
    # each end is looked up among the names format_instance writes, which
    # checks its digits and range as it reads it
    vertex = {str(v): v for v in range(n)}
    nums = map(vertex.__getitem__, ends)
    try:
        pairs = tuple(zip(nums, nums))
        graph = Multigraph(n, pairs)
        # the graph keeps the pairs as given only if they were its edges
        if graph.edges == pairs:
            return ExplorationInstance(graph, v_init, k, *budget)
    except (KeyError, ValueError, CgeError):
        pass
    return None


def _parse_instance_lines(text: str) -> InstanceDocument:
    """The line reader behind `parse_instance`: it reads each text the bulk
    read does not accept, and words the error."""
    lines = _meaningful_lines(text)
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


def _parse_cge(lines: list[tuple[int, str]]) -> ExplorationInstance:
    scalars: dict[str, int] = {}
    edges: dict[tuple[int, int], int] = {}
    for lineno, line in lines:
        parts = line.split()
        if parts[0] == "edge":
            u, v = _int_field(lineno, parts, 2)
            n = scalars.get("nodes")
            if n is None:
                raise ParseError(lineno, "'nodes' must come before edges")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(lineno, f"edge ({u}, {v}) out of range")
            if u == v:
                raise ParseError(lineno, f"self-loop at {u}")
            e = (u, v) if u < v else (v, u)
            if e in edges:
                raise ParseError(lineno, f"duplicate edge {e}; input graphs are simple")
            edges[e] = 1
        elif parts[0] in ("nodes", "init", "robots", "budget"):
            _set_scalar(scalars, lineno, parts)
        else:
            raise ParseError(lineno, f"unknown directive {parts[0]!r}")
    last_line = lines[-1][0] if lines else 1
    _require(scalars, ("nodes", "init", "robots"), last_line)
    n = scalars["nodes"]
    # a connected graph has at most one vertex more than it has edges;
    # checking first keeps a huge 'nodes' from allocating adjacency
    if n > len(edges) + 1:
        raise ParseError(last_line, f"{n} nodes cannot be connected by {len(edges)} edges")
    try:
        graph = Multigraph(n, sorted(edges))
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


def _cge_form(budgets: int, m: int) -> str:
    """The text of an exploration instance with `budgets` budget lines and
    m edges, with a %s for each number."""
    head = "cge 1\nnodes %s\ninit %s\nrobots %s\n" + "budget %s\n" * budgets
    return head + "edge %s %s\n" * m


def format_instance(doc: InstanceDocument) -> str:
    if doc.kind == "cge":
        inst: ExplorationInstance = doc.payload
        g = inst.graph
        budget = () if inst.budget is None else (inst.budget,)
        return _cge_form(len(budget), g.num_edges) % (
            g.n, inst.v_init, inst.k, *budget, *chain.from_iterable(g.edges)
        )
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
    pieces = [f"value {sol.value}"]
    first = 0
    for rc, count in sol.runs:
        pieces.extend(robot_lines(first, count, " ".join(map(str, rc.walk))))
        first += count
    pieces.append("")  # the text's last "\n", without a second copy of it
    return "\n".join(pieces)


def parse_solution(source: str | TextIO) -> Solution:
    """The solution in `source`, its text or a text file.

    A file is read in pieces that each end with a "\n", so no line is split
    between pieces and the whole text is never held at once.
    """
    cycles: list[RobotCycle] = []
    counts: list[int] = []  # robots per run, parallel to `cycles`
    robots = 0
    last = None  # walk text of the last robot line
    value_seen = False
    lineno = 0
    for text in (source,) if isinstance(source, str) else _pieces(source):
        pos = 0
        while pos < len(text):
            start = pos
            end = text.find("\n", start)
            if end < 0:
                end = len(text)
            raw = text[start:end]
            pos = end + 1
            # only a line with a character that is not printable can hold a
            # line end other than "\n"
            if not raw.isprintable():
                eol = _LINE_END.search(raw)
                if eol:
                    if raw[eol.start():] != "\r":  # not the "\r" of a "\r\n"
                        pos = start + eol.end()
                    raw = raw[: eol.start()]
            lineno += 1
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if not line.isascii() or "_" in line:
                raise ParseError(lineno, "only ASCII without '_' is allowed")
            parts = line.split(None, 2)
            if parts[0] == "value":
                if value_seen:
                    raise ParseError(lineno, "repeated 'value'")
                _int_field(lineno, line.split(), 1)
                value_seen = True
            elif parts[0] == "robot":
                robots += 1
                label = f"{robots}:"  # exactly what format_solution writes
                if len(parts) < 3 or parts[1] != label:
                    raise ParseError(lineno, f"expected 'robot {label} v0 v1 ... v0'")
                if parts[2] == last:
                    counts[-1] += 1
                    more, pos = _same_walk_lines(text, pos, robots, last)
                    robots += more
                    counts[-1] += more
                    lineno += more
                else:
                    try:
                        walk = tuple(map(int, parts[2].split()))
                    except ValueError:
                        raise ParseError(lineno, "non-integer vertex in walk")
                    try:
                        cycles.append(RobotCycle(walk))
                    except ValueError as exc:
                        raise ParseError(lineno, str(exc))
                    counts.append(1)
                    last = parts[2]
            else:
                raise ParseError(lineno, f"unknown directive {parts[0]!r}")
    if not value_seen:
        raise ParseError(1, "missing 'value'")
    if not cycles:
        raise ParseError(1, "missing robot walks")
    return Solution(tuple(zip(cycles, counts)))


def _pieces(fh: TextIO) -> Iterator[str]:
    while piece := fh.read(_PIECE):
        yield piece + fh.readline()


def _same_walk_lines(text: str, pos: int, robots: int, body: str) -> tuple[int, int]:
    """How many lines from `pos` are exactly `robot i: <body>` followed by
    "\n", for i = robots + 1, robots + 2, ..., and the position after them.

    Such a line is what `format_solution` writes for one more robot of the
    run; the grammar would read it as that, so it is compared, not parsed.
    Blocks of lines double while they match and halve when one fails.  A
    block is built only if its last line is where it would be were every
    line of the block as long, so a block that runs past the run's end is
    rarely built; where the robot numbers gain a digit, blocks shrink.
    """
    count, step = 0, 1
    while step:
        first = robots + count
        last = f"robot {first + step}: {body}\n"
        if text.startswith(last, pos + (step - 1) * len(last)) and text.startswith(
            block := "\n".join(robot_lines(first, step, body)) + "\n", pos
        ):
            pos += len(block)
            count += step
            step = min(2 * step, _BLOCK)
        else:
            step //= 2
    return count, pos
