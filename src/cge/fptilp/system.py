"""Linear equation system over the type variables, plus witness counting.

Variables are named x_ver_<i>, x_rob_<i>, x_cyc_<i> in canonical type order.
Constraint groups:

  eq1  robot types sum to the robot count
  eq2  per class, vertex types sum to the class size
  eq3  per (vertex type, neighbor multiset), allocations from cycles and
       robots cover the type's population
  eq4  per cover-internal edge, some skeleton or cycle carries it
  eq5  per robot type and non-4 length, cycle counts match the type exactly
  eq6  per robot type, length-4 cycles fit the leftover budget

All coefficients are integers; the count-times-variable products are linear
because the counts are fixed by the type.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DomainMismatch, ParseError
from .context import FptContext
from .pairs import ValidPair, cycle_edges
from .typespace import (
    TypeSpace,
    cycle_alloc_counts,
    derive_cycle_type,
    derive_robot_type,
    derive_vertex_type,
    robot_alloc_counts,
    robot_cycbud,
)

RELATIONS = ("<=", "=", ">=")


@dataclass(frozen=True)
class Constraint:
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


@dataclass(frozen=True)
class IlpSystem:
    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]

    @property
    def num_variables(self) -> int:
        return len(self.variables)


@dataclass(frozen=True)
class IlpAssignment:
    values: tuple[tuple[str, int], ...]  # (variable, value), in variable order

    def as_dict(self) -> dict[str, int]:
        return dict(self.values)


def variable_names(types: TypeSpace) -> tuple[str, ...]:
    names = [f"x_ver_{i}" for i in range(len(types.vertex_types))]
    names += [f"x_rob_{i}" for i in range(len(types.robot_types))]
    names += [f"x_cyc_{i}" for i in range(len(types.cycle_types))]
    return tuple(names)


def _rob_var(types: TypeSpace, i: int) -> int:
    return len(types.vertex_types) + i


def _cyc_var(types: TypeSpace, i: int) -> int:
    return len(types.vertex_types) + len(types.robot_types) + i


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
    constraints: list[Constraint] = []
    rob_counts = [robot_alloc_counts(ctx, rt) for rt in types.robot_types]
    cyc_counts = [cycle_alloc_counts(ct) for ct in types.cycle_types]

    # eq1: one robot type per robot
    constraints.append(
        Constraint(
            "eq1",
            tuple((1, _rob_var(types, i)) for i in range(len(types.robot_types))),
            "=",
            ctx.k,
        )
    )

    # eq2: one vertex type per class member
    for cls_idx, cls in enumerate(ctx.eq.classes):
        terms = tuple(
            (1, i)
            for i, vt in enumerate(types.vertex_types)
            if vt.class_id == cls_idx
        )
        constraints.append(Constraint("eq2", terms, "=", len(cls.members)))

    # eq3: enough allocations of every wanted neighbor multiset
    for vi, vt in enumerate(types.vertex_types):
        for ns in vt.nei_subsets:
            terms: list[tuple[int, int]] = []
            for ci, ct in enumerate(types.cycle_types):
                count = cyc_counts[ci].get((vt, ns), 0)
                if count:
                    terms.append((count, _cyc_var(types, ci)))
            for ri in range(len(types.robot_types)):
                count = rob_counts[ri].get((vt, ns), 0)
                if count:
                    terms.append((count, _rob_var(types, ri)))
            terms.append((-1, vi))
            terms.sort(key=lambda t: t[1])
            constraints.append(Constraint("eq3", tuple(terms), ">=", 0))

    # eq4: cover-internal edges are carried by someone
    cover_edges = [
        e
        for e in ctx.g.distinct_edges()
        if e[0] in ctx.cover_set and e[1] in ctx.cover_set
    ]
    for e in cover_edges:
        terms = []
        for ci, ct in enumerate(types.cycle_types):
            if cycle_edges(ct.cycle).get(e, 0):
                terms.append((1, _cyc_var(types, ci)))
        for ri, rt in enumerate(types.robot_types):
            if rt.cc_counter().get(e, 0):
                terms.append((1, _rob_var(types, ri)))
        terms.sort(key=lambda t: t[1])
        constraints.append(Constraint("eq4", tuple(terms), ">=", 1))

    # eq5: exact non-4 cycle counts per robot type
    hosted: dict[int, list[int]] = {i: [] for i in range(len(types.robot_types))}
    rob_index = {rt: i for i, rt in enumerate(types.robot_types)}
    for ci, ct in enumerate(types.cycle_types):
        hosted[rob_index[ct.robot_type]].append(ci)
    for ri, rt in enumerate(types.robot_types):
        for slot, j in enumerate(ctx.cycle_length_slots):
            terms = [
                (1, _cyc_var(types, ci))
                for ci in hosted[ri]
                if types.cycle_types[ci].length == j
            ]
            if rt.num_of_cyc[slot]:
                terms.append((-rt.num_of_cyc[slot], _rob_var(types, ri)))
            terms.sort(key=lambda t: t[1])
            constraints.append(Constraint("eq5", tuple(terms), "=", 0))

    # eq6: length-4 cycles within the leftover budget
    for ri, rt in enumerate(types.robot_types):
        terms = [
            (4, _cyc_var(types, ci))
            for ci in hosted[ri]
            if types.cycle_types[ci].length == 4
        ]
        cycbud = robot_cycbud(ctx, rt)
        if cycbud:
            terms.append((-cycbud, _rob_var(types, ri)))
        terms.sort(key=lambda t: t[1])
        constraints.append(Constraint("eq6", tuple(terms), "<=", 0))

    return IlpSystem(variable_names(types), tuple(constraints))


def check_assignment(
    system: IlpSystem, assignment: IlpAssignment
) -> tuple[bool, list[int]]:
    """Evaluate every constraint; returns (ok, violated constraint indices)."""
    values_map = assignment.as_dict()
    if tuple(values_map) != system.variables:
        raise DomainMismatch("assignment domain differs from the system variables")
    if any(v < 0 for v in values_map.values()):
        raise DomainMismatch("assignment values must be non-negative")
    values = [values_map[name] for name in system.variables]
    violated = [
        idx for idx, c in enumerate(system.constraints) if not c.evaluate(values)
    ]
    return not violated, violated


def witness_from_solution(
    ctx: FptContext, types: TypeSpace, pairs: list[ValidPair]
) -> IlpAssignment:
    """Count the derived types of a concrete decomposition per robot."""
    ver_idx, rob_idx, cyc_idx = types.indexes()
    counts = [0] * (types.total)
    for u in sorted(set(range(ctx.g.n)) - set(ctx.cover_set)):
        vt = derive_vertex_type(ctx, u, pairs)
        if vt not in ver_idx:
            raise DomainMismatch(f"derived vertex type of {u} missing from the space")
        counts[ver_idx[vt]] += 1
    for i in range(len(pairs)):
        rt = derive_robot_type(ctx, i, pairs)
        if rt not in rob_idx:
            raise DomainMismatch(f"derived robot type of robot {i} missing from the space")
        counts[_rob_var(types, rob_idx[rt])] += 1
        for cyc in pairs[i].cycles:
            ct = derive_cycle_type(ctx, i, cyc, pairs)
            if ct not in cyc_idx:
                raise DomainMismatch(
                    f"derived cycle type of robot {i} missing from the space"
                )
            counts[_cyc_var(types, cyc_idx[ct])] += 1
    names = variable_names(types)
    return IlpAssignment(tuple(zip(names, counts)))


# ---------------------------------------------------------------------------
# text formats


def _constraint_line(c: Constraint, variables: tuple[str, ...]) -> str:
    parts = " + ".join(f"{coef} {variables[i]}" for coef, i in c.terms)
    if parts:
        return f"c {c.tag} : {parts} {c.relation} {c.rhs}"
    return f"c {c.tag} : {c.relation} {c.rhs}"


def export_ilp(system: IlpSystem) -> str:
    """Deterministic text form; re-parsing reproduces the bytes exactly."""
    lines = [f"ilp {system.num_variables} {len(system.constraints)}"]
    for name in system.variables:
        lines.append(f"var {name}")
    for c in system.constraints:
        lines.append(_constraint_line(c, system.variables))
    return "\n".join(lines) + "\n"


def _exported_lines(text: str, usage: str) -> tuple[list[str], list[int]]:
    """Split an exported text into lines and read its header counts.

    The two parsers below accept only what their formatter writes:
    LF-terminated lines, each equal to the rendering of what was read from
    it.  That one comparison per line rejects stray whitespace, signs,
    leading zeros, '_' separators and non-ASCII digits alike.
    """
    lines = text.split("\n")
    if lines.pop() != "":
        raise ParseError(len(lines) + 1, "missing final newline")
    keyword, *fields = usage.split()
    head = lines[0].split(" ") if lines else []
    try:
        counts = [int(tok) for tok in head[1:]]
    except ValueError:
        counts = []
    if (
        len(counts) != len(fields)
        or " ".join([keyword, *map(str, counts)]) != lines[0]
        or min(counts, default=0) < 0
    ):
        raise ParseError(1, f"expected header '{usage}' with non-negative counts")
    return lines, counts


def parse_ilp(text: str) -> IlpSystem:
    lines, (num_vars, num_cons) = _exported_lines(text, "ilp <numvars> <numconstraints>")
    variables: list[str] = []
    var_index: dict[str, int] = {}
    idx = 1
    for _ in range(num_vars):
        line = lines[idx] if idx < len(lines) else ""
        name = line[4:]
        if not line.startswith("var ") or name.split() != [name]:
            raise ParseError(idx + 1, "expected a 'var <name>' line")
        if name in var_index:
            raise ParseError(idx + 1, f"duplicate variable {name!r}")
        var_index[name] = len(variables)
        variables.append(name)
        idx += 1
    names = tuple(variables)
    constraints = []
    for _ in range(num_cons):
        if idx >= len(lines):
            raise ParseError(idx + 1, "missing constraint line")
        line = lines[idx]
        idx += 1
        if not line.startswith("c "):
            raise ParseError(idx, "expected a 'c <tag> : ...' line")
        try:
            header, body = line[2:].split(" : ", 1)
        except ValueError:
            raise ParseError(idx, "missing ' : ' separator")
        tokens = body.split()
        rel_pos = next(
            (p for p, tok in enumerate(tokens) if tok in RELATIONS), None
        )
        if rel_pos is None or rel_pos != len(tokens) - 2:
            raise ParseError(idx, "expected '<rel> <rhs>' at the end")
        relation = tokens[rel_pos]
        try:
            rhs = int(tokens[-1])
        except ValueError:
            raise ParseError(idx, "non-integer right-hand side")
        term_tokens = tokens[:rel_pos]
        terms = []
        pos = 0
        while pos < len(term_tokens):
            if terms:
                if term_tokens[pos] != "+":
                    raise ParseError(idx, "expected '+' between terms")
                pos += 1
            if pos + 1 >= len(term_tokens):
                raise ParseError(idx, "dangling term")
            try:
                coef = int(term_tokens[pos])
            except ValueError:
                raise ParseError(idx, f"non-integer coefficient {term_tokens[pos]!r}")
            name = term_tokens[pos + 1]
            if name not in var_index:
                raise ParseError(idx, f"unknown variable {name!r}")
            terms.append((coef, var_index[name]))
            pos += 2
        c = Constraint(header, tuple(terms), relation, rhs)
        if _constraint_line(c, names) != line:
            raise ParseError(idx, "constraint is not in exported form")
        constraints.append(c)
    if idx < len(lines):
        raise ParseError(idx + 1, "text after the last declared constraint")
    return IlpSystem(names, tuple(constraints))


def format_assignment(assignment: IlpAssignment) -> str:
    lines = [f"assign {len(assignment.values)}"]
    for name, value in assignment.values:
        lines.append(f"{name} {value}")
    return "\n".join(lines) + "\n"


def parse_assignment(text: str) -> IlpAssignment:
    lines, (count,) = _exported_lines(text, "assign <numvars>")
    values = []
    for i in range(1, count + 1):
        if i >= len(lines):
            raise ParseError(i + 1, "missing assignment line")
        parts = lines[i].split()
        if len(parts) != 2:
            raise ParseError(i + 1, "expected '<name> <value>'")
        try:
            value = int(parts[1])
        except ValueError:
            raise ParseError(i + 1, "non-integer value")
        if lines[i] != f"{parts[0]} {value}":
            raise ParseError(i + 1, "value is not in exported form")
        values.append((parts[0], value))
    if count + 1 < len(lines):
        raise ParseError(count + 2, "text after the last declared value")
    return IlpAssignment(tuple(values))
