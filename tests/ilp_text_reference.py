"""The equation-system and assignment parsers as they were before they
compared their input with the exporters' rendering, kept verbatim as the
reference for the differential tests in test_grammars.py.

They check the exported form with hand-written rules: header counts read
first, `+` separators, dangling terms, the position of the relation, and a
rendering of each constraint line.
"""

from __future__ import annotations

from cge.errors import ParseError
from cge.fptilp.system import RELATIONS, Constraint, IlpSystem


def _constraint_line(c: Constraint, variables: tuple[str, ...]) -> str:
    parts = " + ".join(f"{coef} {variables[i]}" for coef, i in c.terms)
    if parts:
        return f"c {c.tag} : {parts} {c.relation} {c.rhs}"
    return f"c {c.tag} : {c.relation} {c.rhs}"


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


def parse_assignment(text: str) -> dict[str, int]:
    lines, (count,) = _exported_lines(text, "assign <numvars>")
    values = []
    seen: set[str] = set()
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
        if parts[0] in seen:
            raise ParseError(i + 1, f"duplicate variable {parts[0]!r}")
        seen.add(parts[0])
        values.append((parts[0], value))
    if count + 1 < len(lines):
        raise ParseError(count + 2, "text after the last declared value")
    return dict(values)
