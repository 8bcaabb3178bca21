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
because the counts are fixed by the type.  Every row lists its terms in
ascending variable order by construction: the builder opens each row with its
vertex or robot term, then makes one pass over the robot types and one over
the cycle types, each in index order.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import zip_longest
from typing import NamedTuple

from ..errors import DomainMismatch, ParseError
from ..graphs import walk_edges
from .context import FptContext
from .pairs import ValidPair
from .typespace import (
    TypeSpace,
    cycle_alloc_counts,
    derive_cycle_type,
    derive_robot_type,
    derive_vertex_types,
    robot_alloc_counts,
    robot_cycbud,
)

RELATIONS = ("<=", "=", ">=")


class Constraint(NamedTuple):
    tag: str
    terms: tuple[tuple[int, int], ...]  # (coefficient, variable index)
    relation: str
    rhs: int

    def evaluate(self, values: list[int]) -> bool:
        lhs = sum(c * values[i] for c, i in self.terms)
        if self.relation == "<=":
            return lhs <= self.rhs
        if self.relation == ">=":
            return lhs >= self.rhs
        return lhs == self.rhs


class IlpSystem(NamedTuple):
    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]


class IlpAssignment(NamedTuple):
    values: tuple[tuple[str, int], ...]  # (variable, value), in variable order

    def as_dict(self) -> dict[str, int]:
        return dict(self.values)


def variable_names(types: TypeSpace) -> tuple[str, ...]:
    names = [f"x_ver_{i}" for i in range(len(types.vertex_types))]
    names += [f"x_rob_{i}" for i in range(len(types.robot_types))]
    names += [f"x_cyc_{i}" for i in range(len(types.cycle_types))]
    return tuple(names)


def type_counts(
    types: TypeSpace, assignment: IlpAssignment
) -> tuple[list[int], list[int], list[int]]:
    """The assignment's vertex-, robot- and cycle-type counts, each list in
    canonical type order."""
    value = assignment.as_dict()
    counts = [value[name] for name in variable_names(types)]
    n_ver, n_rob = len(types.vertex_types), len(types.robot_types)
    return counts[:n_ver], counts[n_ver:n_ver + n_rob], counts[n_ver + n_rob:]


def build_ilp_system(ctx: FptContext, types: TypeSpace) -> IlpSystem:
    n_ver, n_rob = len(types.vertex_types), len(types.robot_types)
    rob_base, cyc_base = n_ver, n_ver + n_rob
    # Rows are keyed by what they count.  Vertex terms go in first, then the
    # robot pass and the cycle pass append in index order, so every row stays
    # in ascending variable order.  Every allocation key names a multiset its
    # vertex type wants, and every cycle length is a tracked slot or 4.
    eq2: list[list[tuple[int, int]]] = [[] for _ in ctx.eq.classes]
    eq3: dict[tuple, list[tuple[int, int]]] = {}
    for vi, vt in enumerate(types.vertex_types):
        eq2[vt.class_id].append((1, vi))
        for ns in vt.nei_subsets:
            eq3[(vt, ns)] = [(-1, vi)]
    eq4: dict[tuple[int, int], list[tuple[int, int]]] = {
        e: []
        for e in ctx.g.edges
        if e[0] in ctx.cover_set and e[1] in ctx.cover_set
    }
    by_length: dict[tuple[int, int], list[tuple[int, int]]] = {}

    for ri, rt in enumerate(types.robot_types):
        var = rob_base + ri
        for key, count in robot_alloc_counts(ctx, rt).items():
            eq3[key].append((count, var))
        for e in set(rt.cc):
            if e in eq4:
                eq4[e].append((1, var))
        for n, j in zip(rt.num_of_cyc, ctx.cycle_length_slots):
            by_length[(ri, j)] = [(-n, var)] if n else []
        cycbud = robot_cycbud(ctx, rt)
        by_length[(ri, 4)] = [(-cycbud, var)] if cycbud else []

    # The hosts of one (cycle, allocation) are consecutive cycle types with
    # the same eq3 and eq4 terms and the same length, so those are worked
    # out once per pair.
    pair = None
    for ci, ct in enumerate(types.cycle_types):
        var = cyc_base + ci
        if (ct.cycle, ct.pa_alloc) != pair:
            pair = (ct.cycle, ct.pa_alloc)
            rows = [(eq3[key], count) for key, count in cycle_alloc_counts(ct).items()]
            rows += [(eq4[e], 1) for e in walk_edges(ct.cycle) if e in eq4]
            length = ct.length
            coef = 4 if length == 4 else 1
        for row, count in rows:
            row.append((count, var))
        by_length[(ct.host, length)].append((coef, var))

    eq1 = tuple((1, rob_base + ri) for ri in range(n_rob))
    constraints = [Constraint("eq1", eq1, "=", ctx.k)]
    for terms, cls in zip(eq2, ctx.eq.classes):
        constraints.append(Constraint("eq2", tuple(terms), "=", len(cls.members)))
    constraints += [Constraint("eq3", tuple(terms), ">=", 0) for terms in eq3.values()]
    constraints += [Constraint("eq4", tuple(terms), ">=", 1) for terms in eq4.values()]
    for ri in range(n_rob):
        for j in ctx.cycle_length_slots:
            constraints.append(Constraint("eq5", tuple(by_length[(ri, j)]), "=", 0))
    for ri in range(n_rob):
        constraints.append(Constraint("eq6", tuple(by_length[(ri, 4)]), "<=", 0))
    return IlpSystem(variable_names(types), tuple(constraints))


def check_assignment(
    system: IlpSystem, assignment: IlpAssignment
) -> tuple[bool, list[int]]:
    """Evaluate every constraint; returns (ok, violated constraint indices)."""
    if tuple(name for name, _ in assignment.values) != system.variables:
        raise DomainMismatch("assignment domain differs from the system variables")
    values = [value for _, value in assignment.values]
    if any(v < 0 for v in values):
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
    ctx: FptContext, types: TypeSpace, runs: list[tuple[ValidPair, int]]
) -> IlpAssignment:
    """Count the derived types of a concrete decomposition given as runs of
    (valid pair, robot count): a run's robot and cycle types count once per
    robot.  A type missing from the space is reported at the run's first
    robot."""
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
    names = variable_names(types)
    return IlpAssignment(tuple(zip(names, counts)))


# ---------------------------------------------------------------------------
# text formats
#
# Each format has one line generator.  The exporter joins its lines; the
# parser reads its input leniently, renders what it read and accepts the text
# only if it equals that rendering line for line.  The comparison rejects
# stray whitespace, signs, leading zeros, '_' separators, non-ASCII digits,
# wrong header counts and a missing final newline alike, so the parsers check
# only what a rendering cannot show.  Nothing loops to a declared count.


def _ilp_lines(system: IlpSystem) -> list[str]:
    """The exported text split at its newlines, so the last item is empty."""
    names = system.variables
    lines = [f"ilp {len(names)} {len(system.constraints)}"]
    lines += [f"var {name}" for name in names]
    for c in system.constraints:
        terms = " + ".join(f"{coef} {names[i]}" for coef, i in c.terms)
        if terms:
            lines.append(f"c {c.tag} : {terms} {c.relation} {c.rhs}")
        else:
            lines.append(f"c {c.tag} : {c.relation} {c.rhs}")
    lines.append("")
    return lines


def _assignment_lines(assignment: IlpAssignment) -> list[str]:
    """The formatted text split at its newlines, so the last item is empty."""
    lines = [f"assign {len(assignment.values)}"]
    lines += [f"{name} {value}" for name, value in assignment.values]
    lines.append("")
    return lines


def _body(lines: list[str]) -> list[str]:
    """The lines after the header, without the empty remainder after a final
    newline."""
    return lines[1:-1] if lines[-1] == "" else lines[1:]


def _check_exported(lines: list[str], exported: list[str]) -> None:
    """Raise ParseError at the first line that differs from the export."""
    if lines != exported:
        for no, (line, want) in enumerate(zip_longest(lines, exported), 1):
            if line != want:
                if want == "":  # the text ends on the line before
                    raise ParseError(no - 1, "missing final newline")
                raise ParseError(no, "line is not in exported form")


def export_ilp(system: IlpSystem) -> str:
    """Deterministic text form; re-parsing reproduces the bytes exactly."""
    return "\n".join(_ilp_lines(system))


def parse_ilp(text: str) -> IlpSystem:
    lines = text.split("\n")
    body = _body(lines)
    var_index = _var_index(body)
    n_var = len(var_index)
    constraints = []
    for no, line in enumerate(body[n_var:], n_var + 2):
        tag, _, rest = line[2:].partition(" : ")
        tokens = rest.split()
        # the first relation token ends the terms, so a term cannot name a
        # variable that is called like a relation
        rel = min((tokens.index(r) for r in RELATIONS if r in tokens), default=len(tokens))
        if rel + 2 > len(tokens):
            raise ParseError(no, "expected '<rel> <rhs>' after the terms")
        try:
            rhs = int(tokens[rel + 1])
            # as many coefficients as names: a coefficient left over after
            # the last name is not read, so only the rendering rejects it
            term_names = tokens[1:rel:3]
            terms = tuple(zip(
                map(int, tokens[0:3 * len(term_names):3]),
                map(var_index.__getitem__, term_names),
            ))
        except ValueError:
            raise ParseError(no, "non-integer coefficient or right-hand side")
        except KeyError as exc:
            raise ParseError(no, f"unknown variable {exc.args[0]!r}")
        constraints.append(Constraint(tag, terms, tokens[rel], rhs))
    system = IlpSystem(tuple(var_index), tuple(constraints))
    _check_exported(lines, _ilp_lines(system))
    return system


def _var_index(body: list[str]) -> dict[str, int]:
    """Name -> index of the variables on the var lines that open `body`.

    The names split back from their join only if none is empty or holds
    whitespace, so the lines are checked one by one only to name the first
    bad one."""
    n_var = next(
        (i for i, line in enumerate(body) if not line.startswith("var ")), len(body)
    )
    names = [line[4:] for line in body[:n_var]]
    var_index = dict(zip(names, range(n_var)))
    if len(var_index) != n_var or " ".join(names).split() != names:
        seen = set()
        for no, name in enumerate(names, 2):
            if name.split() != [name]:
                raise ParseError(no, "expected a 'var <name>' line")
            if name in seen:
                raise ParseError(no, f"duplicate variable {name!r}")
            seen.add(name)
    return var_index


def format_assignment(assignment: IlpAssignment) -> str:
    return "\n".join(_assignment_lines(assignment))


def parse_assignment(text: str) -> IlpAssignment:
    lines = text.split("\n")
    values: dict[str, int] = {}
    for no, line in enumerate(_body(lines), 2):
        try:
            name, token = line.split()
            value = int(token)
        except ValueError:
            raise ParseError(no, "expected '<name> <value>' with an integer value")
        if name in values:
            raise ParseError(no, f"duplicate variable {name!r}")
        values[name] = value
    assignment = IlpAssignment(tuple(values.items()))
    _check_exported(lines, _assignment_lines(assignment))
    return assignment
