"""Linear equation system over the type variables, plus witness counting.

Variables are named x_ver_<i>, x_rob_<i>, x_cyc_<i> in canonical type order,
vertex variables first, then robot, then cycle variables.  Constraint groups,
emitted in this order:

  eq1  robot types sum to the robot count
  eq2  per class, vertex types sum to the class size
  eq3  per vertex type, then per neighbor multiset of that type, allocations
       from robots and cycles cover the type's population
  eq4  per cover-internal edge, in ascending edge order, some skeleton or
       cycle carries it
  eq5  per robot type, then per non-4 cycle length, cycle counts match the
       type exactly
  eq6  per robot type, length-4 cycles fit the leftover budget

All coefficients are integers; the count-times-variable products are linear
because the counts are fixed by the type.  A row holds its terms as runs
(coefficient, first variable, count): `count` consecutive variables from
`first` on, each with that coefficient.  The runs are maximal, so no run has
the coefficient of the run before it and starts where that one ends, and a
row has exactly one form.  Every row lists its terms in ascending variable
order by construction: the builder opens each row with its vertex or robot
term, then makes one pass over the robot types and one over the cycle types,
each in index order.  Both passes go a group at a time: the types of one
skeleton or one cycle are consecutive, and so are those of one allocation
inside them, so each group joins each of its eq4 rows (skeleton, cycle) or
eq3 rows (allocation) as one run and counts its terms once.  The text forms
are rendered, parsed and checked a row or a chunk of rows at a time (see
"text formats" below), and no text is compared with a whole second
rendering.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator
from itertools import chain, groupby
from operator import attrgetter
from typing import NamedTuple

from ..errors import DomainMismatch, ParseError
from ..graphs import walk_edges
from .context import FptContext
from .pairs import ValidPair
from .typespace import (
    TypeSpace,
    copy_neighborhoods,
    cycle_alloc_counts,
    derive_cycle_type,
    derive_robot_type,
    derive_vertex_types,
    robot_cycbud,
)

RELATIONS = ("<=", "=", ">=")

_CHUNK = 1 << 16  # bytes of assignment text read at once, up to the next newline
_NOT_VAR = re.compile(r"\n(?!var )")  # the end of a run of var lines


class Constraint(NamedTuple):
    tag: str
    terms: tuple[tuple[int, int, int], ...]  # runs (coefficient, first variable, count)
    relation: str
    rhs: int

    def evaluate(self, values: list[int]) -> bool:
        lhs = sum(
            c * values[i] if n == 1 else c * sum(values[i:i + n]) for c, i, n in self.terms
        )
        if self.relation == "<=":
            return lhs <= self.rhs
        if self.relation == ">=":
            return lhs >= self.rhs
        return lhs == self.rhs


class IlpSystem(NamedTuple):
    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]


def variable_names(types: TypeSpace) -> tuple[str, ...]:
    names = [f"x_ver_{i}" for i in range(len(types.vertex_types))]
    names += [f"x_rob_{i}" for i in range(len(types.robot_types))]
    names += [f"x_cyc_{i}" for i in range(len(types.cycle_types))]
    return tuple(names)


def type_counts(
    types: TypeSpace, assignment: dict[str, int]
) -> tuple[list[int], list[int], list[int]]:
    """The assignment's vertex-, robot- and cycle-type counts, each list in
    canonical type order.  The assignment names the system's variables in
    order, as `check_assignment` requires."""
    counts = list(assignment.values())
    n_ver, n_rob = len(types.vertex_types), len(types.robot_types)
    return counts[:n_ver], counts[n_ver:n_ver + n_rob], counts[n_ver + n_rob:]


def _append_run(row: list[tuple[int, int, int]], coef: int, first: int, n: int) -> None:
    """Append `n` terms with coefficient `coef` from variable `first` on,
    merged into the row's last run where that run has the same coefficient
    and ends at `first`."""
    if row:
        c, i, m = row[-1]
        if c == coef and i + m == first:
            row[-1] = (c, i, m + n)
            return
    row.append((coef, first, n))


def build_ilp_system(ctx: FptContext, types: TypeSpace) -> IlpSystem:
    n_ver, n_rob = len(types.vertex_types), len(types.robot_types)
    rob_base, cyc_base = n_ver, n_ver + n_rob
    # Rows are keyed by what they count.  Vertex terms go in first, then the
    # robot pass and the cycle pass append in index order, so every row stays
    # in ascending variable order.  Every allocation key names a multiset its
    # vertex type wants, and every cycle length is a tracked slot or 4.
    eq2: list[list[tuple[int, int, int]]] = [[] for _ in ctx.classes]
    eq3: dict[tuple, list[tuple[int, int, int]]] = {}
    for vi, vt in enumerate(types.vertex_types):
        _append_run(eq2[vt.class_id], 1, vi, 1)
        for ns in vt.nei_subsets:
            eq3[(vt, ns)] = [(-1, vi, 1)]
    eq4: dict[tuple[int, int], list[tuple[int, int, int]]] = {
        e: []
        for e in ctx.g.edges
        if e[0] in ctx.cover_set and e[1] in ctx.cover_set
    }
    # per robot type: its eq5 row of each tracked length, then its eq6 row
    eq56: list[list[list[tuple[int, int, int]]]] = []
    row_of_length = {j: s for s, j in enumerate(ctx.cycle_length_slots)}
    row_of_length[4] = len(ctx.cycle_length_slots)

    # The robot types of one skeleton are consecutive, since `cc` leads their
    # sort key, and so are those of one (skeleton, allocation) inside them:
    # a skeleton joins each of its eq4 rows as one run, an allocation each of
    # its eq3 rows.
    var = rob_base
    for cc, same_cc in groupby(types.robot_types, attrgetter("cc")):
        same_cc = tuple(same_cc)
        for e in set(cc):
            if e in eq4:
                _append_run(eq4[e], 1, var, len(same_cc))
        nbhds = copy_neighborhoods(ctx, Counter(cc))
        for alloc, same in groupby(same_cc, attrgetter("alloc")):
            same = tuple(same)
            for key, count in Counter((vt, nbhds[copy]) for copy, vt in alloc).items():
                _append_run(eq3[key], count, var, len(same))
            for rt in same:
                rows = [[(-n, var, 1)] if n else [] for n in rt.num_of_cyc]
                cycbud = robot_cycbud(ctx, rt)
                rows.append([(-cycbud, var, 1)] if cycbud else [])
                eq56.append(rows)
                var += 1

    # The types of one cycle are consecutive, and inside them the hosts of
    # one (cycle, allocation): a cycle joins each of its eq4 rows as one run,
    # a pair each of its eq3 rows.  Each host's own eq5 or eq6 row gets one
    # term.
    first = cyc_base
    for cycle, same_cycle in groupby(types.cycle_types, attrgetter("cycle")):
        same_cycle = tuple(same_cycle)
        for e in walk_edges(cycle):
            if e in eq4:
                _append_run(eq4[e], 1, first, len(same_cycle))
        length = len(cycle) - 1
        row, coef = row_of_length[length], 4 if length == 4 else 1
        for _, pair in groupby(same_cycle, attrgetter("pa_alloc")):
            pair = tuple(pair)
            for key, count in cycle_alloc_counts(pair[0]).items():
                _append_run(eq3[key], count, first, len(pair))
            # the hosts of a pair differ, so only its first type can extend
            # the run that its host's row ends with
            _append_run(eq56[pair[0].host][row], coef, first, 1)
            for var, (_, _, host) in enumerate(pair[1:], first + 1):
                eq56[host][row].append((coef, var, 1))
            first += len(pair)

    eq1 = ((1, rob_base, n_rob),) if n_rob else ()
    constraints = [Constraint("eq1", eq1, "=", ctx.k)]
    for terms, cls in zip(eq2, ctx.classes):
        constraints.append(Constraint("eq2", tuple(terms), "=", len(cls.members)))
    constraints += [Constraint("eq3", tuple(terms), ">=", 0) for terms in eq3.values()]
    constraints += [Constraint("eq4", tuple(terms), ">=", 1) for terms in eq4.values()]
    for rows in eq56:
        constraints += [Constraint("eq5", tuple(terms), "=", 0) for terms in rows[:-1]]
    constraints += [Constraint("eq6", tuple(rows[-1]), "<=", 0) for rows in eq56]
    return IlpSystem(variable_names(types), tuple(constraints))


def check_assignment(
    system: IlpSystem, assignment: dict[str, int]
) -> tuple[bool, list[int]]:
    """Evaluate every constraint of an assignment that names the system's
    variables in order; returns (ok, violated constraint indices)."""
    if tuple(assignment) != system.variables:
        raise DomainMismatch("assignment domain differs from the system variables")
    values = list(assignment.values())
    if min(values, default=0) < 0:
        raise DomainMismatch("assignment values must be non-negative")
    violated = [
        idx for idx, c in enumerate(system.constraints) if not c.evaluate(values)
    ]
    return not violated, violated


def _position(table: tuple, item, missing: str) -> int:
    """Index of `item` in a canonical, strictly increasing type table."""
    i = bisect_left(table, item)
    if i == len(table) or table[i] != item:
        raise DomainMismatch(missing)
    return i


def witness_from_solution(
    ctx: FptContext,
    types: TypeSpace,
    runs: list[tuple[ValidPair, int]],
    names: tuple[str, ...],
) -> dict[str, int]:
    """Count the derived types of a concrete decomposition given as runs of
    (valid pair, robot count): a run's robot and cycle types count once per
    robot.  A type missing from the space is reported at the run's first
    robot.  `names` are the variables of the space's system, as
    `variable_names` gives them."""
    rob_base = len(types.vertex_types)
    cyc_base = rob_base + len(types.robot_types)
    counts = [0] * (types.total)
    vtypes = derive_vertex_types(ctx, (pair for pair, _ in runs))
    for u, vt in vtypes.items():
        missing = f"derived vertex type of {u} missing from the space"
        counts[_position(types.vertex_types, vt, missing)] += 1
    first = 0  # index of the run's first robot
    for pair, count in runs:
        rt = derive_robot_type(ctx, pair, vtypes)
        missing = f"derived robot type of robot {first} missing from the space"
        ri = _position(types.robot_types, rt, missing)
        counts[rob_base + ri] += count
        for cyc in pair.cycles:
            ct = derive_cycle_type(ctx, ri, cyc, vtypes)
            missing = f"derived cycle type of robot {first} missing from the space"
            counts[cyc_base + _position(types.cycle_types, ct, missing)] += count
        first += count
    return dict(zip(names, counts))


# ---------------------------------------------------------------------------
# text formats
#
# Each format has one rendering.  The exporters join its pieces; the parsers
# read their input leniently and accept a piece only if it equals the
# rendering of what was read from it, so they never hold a second copy of the
# text.  `parse_ilp` reads one line at a time.  `parse_assignment` reads whole
# lines about `_CHUNK` bytes at a time and holds one chunk and its rendering;
# a text it does not accept that way is read again one line at a time, which
# words the error.  The comparison rejects stray whitespace, signs, leading
# zeros, '_' separators, non-ASCII digits, wrong header counts and a missing
# final newline alike, so the parsers check only what a rendering cannot
# show.  A line that cannot be read raises at once.  A line that was read but
# differs from its rendering raises once the whole text is read, after the
# header, which holds the counts: the error names the first line at which the
# text differs from the rendering of all that was read.
# Nothing loops to a declared count.


def _row(c: Constraint, names: tuple[str, ...]) -> str:
    """A constraint line without its newline; a run of more than one term
    is one join over a slice of the names."""
    terms = " + ".join(
        f"{coef} {names[first]}" if n == 1
        else f"{coef} " + f" + {coef} ".join(names[first:first + n])
        for coef, first, n in c.terms
    )
    if terms:
        return f"c {c.tag} : {terms} {c.relation} {c.rhs}"
    return f"c {c.tag} : {c.relation} {c.rhs}"


def _ilp_pieces(system: IlpSystem) -> Iterator[str]:
    """The export in pieces that each end with a newline: the header line,
    all var lines at once, then one constraint line at a time."""
    names = system.variables
    yield f"ilp {len(names)} {len(system.constraints)}\n"
    if names:
        yield "var " + "\nvar ".join(names) + "\n"
    for c in system.constraints:
        yield f"{_row(c, names)}\n"


def export_ilp(system: IlpSystem) -> str:
    """Deterministic text form; re-parsing reproduces the bytes exactly."""
    return "".join(_ilp_pieces(system))


def is_export(system: IlpSystem, text: str) -> bool:
    """Whether `text` equals `export_ilp(system)`, compared a piece at a time
    as the pieces are rendered."""
    pos = 0
    for piece in _ilp_pieces(system):
        if not text.startswith(piece, pos):
            return False
        pos += len(piece)
    return pos == len(text)


def _after_header(text: str) -> int:
    """The position of the text's second line; its length if it has one
    line."""
    return text.find("\n") + 1 or len(text)


def _lines(text: str, start: int, no: int) -> Iterator[tuple[int, str]]:
    """(number, line) of each line from position `start` on, numbered from
    `no`, without its newline.  What follows the last newline is a line only
    if it is not empty."""
    end = text.find("\n", start)
    while end >= 0:
        yield no, text[start:end]
        no, start = no + 1, end + 1
        end = text.find("\n", start)
    if start < len(text):
        yield no, text[start:]


def _check_rendered(text: str, header: str, first_bad: int | None) -> None:
    """Raise ParseError at the first line of `text` that differs from the
    rendering: the header, the line `first_bad` or the missing final
    newline."""
    if not text.startswith(f"{header}\n") and text != header:
        raise ParseError(1, "line is not in exported form")
    if first_bad is not None:
        raise ParseError(first_bad, "line is not in exported form")
    if text and not text.endswith("\n"):
        raise ParseError(text.count("\n") + 1, "missing final newline")


def parse_ilp(text: str) -> IlpSystem:
    names, start = _var_names(text)
    var_index = _var_index(names)
    names = tuple(var_index)
    constraints = []
    first_bad = None
    for no, line in _lines(text, start, len(names) + 2):
        tag, _, rest = line[2:].partition(" : ")
        tokens = rest.split()
        # the first relation token ends the terms, so a term cannot name a
        # variable that is called like a relation
        rel = min((tokens.index(r) for r in RELATIONS if r in tokens), default=len(tokens))
        if rel + 2 > len(tokens):
            raise ParseError(no, "expected '<rel> <rhs>' after the terms")
        runs = []
        run_coef, first, n, after = None, None, 0, None  # the open run and its end
        try:
            rhs = int(tokens[rel + 1])
            # as many coefficients as names: a coefficient left over after
            # the last name is not read, so only the rendering rejects it
            term_names = tokens[1:rel:3]
            for coef, i in zip(
                map(int, tokens[0:3 * len(term_names):3]),
                map(var_index.__getitem__, term_names),
            ):
                if i == after and coef == run_coef:
                    n += 1
                else:
                    if n:
                        runs.append((run_coef, first, n))
                    run_coef, first, n = coef, i, 1
                after = i + 1
        except ValueError:
            raise ParseError(no, "non-integer coefficient or right-hand side")
        except KeyError as exc:
            raise ParseError(no, f"unknown variable {exc.args[0]!r}")
        if n:
            runs.append((run_coef, first, n))
        c = Constraint(tag, tuple(runs), tokens[rel], rhs)
        if first_bad is None and _row(c, names) != line:
            first_bad = no
        constraints.append(c)
    _check_rendered(text, f"ilp {len(names)} {len(constraints)}", first_bad)
    return IlpSystem(names, tuple(constraints))


def _var_names(text: str) -> tuple[list[str], int]:
    """The names on the var lines that follow the header, and the position
    of the line after them."""
    start = _after_header(text)
    if not text.startswith("var ", start):
        return [], start
    found = _NOT_VAR.search(text, start)
    end = found.start() if found else len(text)
    return text[start + 4:end].split("\nvar "), end + 1


def _var_index(names: list[str]) -> dict[str, int]:
    """Name -> index of the variables named on the var lines, which begin
    at line 2.

    The names split back from their join only if none is empty or holds
    whitespace, so the names are checked one by one only to name the first
    bad one."""
    # checked before the dict exists, so that it and the split copy of the
    # names are never held at once
    well_formed = " ".join(names).split() == names
    var_index = dict(zip(names, range(len(names))))
    if not well_formed or len(var_index) != len(names):
        seen = set()
        for no, name in enumerate(names, 2):
            if name.split() != [name]:
                raise ParseError(no, "expected a 'var <name>' line")
            if name in seen:
                raise ParseError(no, f"duplicate variable {name!r}")
            seen.add(name)
    return var_index


def format_assignment(assignment: dict[str, int]) -> str:
    # one format over all the values holds no string per line
    n = len(assignment)
    return ("assign %s\n" + "%s %s\n" * n) % (n, *chain.from_iterable(assignment.items()))


def parse_assignment(text: str) -> dict[str, int]:
    """Read the text a chunk of whole lines at a time: a chunk is accepted
    when it equals the rendering of its tokens read as names and values.  A
    text with a chunk that is not, or with a name given twice, is read again
    line by line, which words the error."""
    values: dict[str, int] = {}
    count = 0
    start = _after_header(text)
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        chunk = text[start:end]
        tokens = chunk.split()
        try:
            tokens[1::2] = map(int, tokens[1::2])
        except ValueError:
            return _parse_assignment_lines(text)
        if len(tokens) % 2 or "%s %s\n" * (len(tokens) // 2) % tuple(tokens) != chunk:
            return _parse_assignment_lines(text)
        values.update(zip(tokens[0::2], tokens[1::2]))
        count += len(tokens) // 2
        start = end
    if len(values) != count:
        return _parse_assignment_lines(text)
    _check_rendered(text, f"assign {count}", None)
    return values


def _parse_assignment_lines(text: str) -> dict[str, int]:
    """The line reader behind `parse_assignment`: it reads each text that
    the chunk reader does not accept, and words the error."""
    values: dict[str, int] = {}
    first_bad = None
    for no, line in _lines(text, _after_header(text), 2):
        try:
            name, token = line.split()
            value = int(token)
        except ValueError:
            raise ParseError(no, "expected '<name> <value>' with an integer value")
        if name in values:
            raise ParseError(no, f"duplicate variable {name!r}")
        values[name] = value
        if first_bad is None and line != f"{name} {value}":
            first_bad = no
    _check_rendered(text, f"assign {len(values)}", first_bad)
    return values
