"""The four text grammars are total: every input either raises ParseError
or round-trips.

Instance and solution texts may carry comments and blank lines, so for them
formatting is a fixed point; equation-system and assignment texts have one
exported form and re-export byte for byte.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cge.approx import approx_solve
from cge.cover import vertex_cover_2approx
from cge.errors import ParseError
from cge.fptilp import (
    IlpAssignment,
    export_ilp,
    format_assignment,
    parse_assignment,
    parse_ilp,
)
from cge.textio import format_instance, format_solution, parse_instance, parse_solution

DATA = Path(__file__).parent / "data"
INSTANCE_TEXTS = [p.read_text() for p in sorted((DATA / "corpus").iterdir())]
ILP_TEXT = (DATA / "path3.ilp").read_text()
SOLUTION_TEXTS = [
    format_solution(approx_solve(doc.payload, vertex_cover_2approx(doc.payload.graph)))
    for doc in map(parse_instance, INSTANCE_TEXTS[:8])
    if doc.kind == "cge"
]
ASSIGNMENT_TEXT = format_assignment(
    IlpAssignment(tuple((n, i % 3) for i, n in enumerate(parse_ilp(ILP_TEXT).variables)))
)

TRIANGLE = "cge 1\nnodes 3\ninit 0\nrobots 1\nedge 0 1\nedge 0 2\nedge 1 2\n"
BINPACK = "binpack 1\ncapacity 2\nbins 2\nexact 1\nitem 2\nitem 2\n"


INSTANCE_REJECTS = {
    "arabic-indic-digit": TRIANGLE.replace("nodes 3", "nodes ٣"),
    "underscored-int": TRIANGLE.replace("robots 1", "robots 1_0"),
    "fullwidth-digit": TRIANGLE.replace("edge 1 2", "edge 1 ２"),
    "repeated-nodes": TRIANGLE + "nodes 3\n",
    "repeated-init": TRIANGLE + "init 1\n",
    "repeated-robots": TRIANGLE + "robots 2\n",
    "repeated-budget": TRIANGLE.replace("robots 1\n", "robots 1\nbudget 4\nbudget 5\n"),
    "repeated-capacity": BINPACK + "capacity 2\n",
    "repeated-bins": BINPACK + "bins 2\n",
    "repeated-exact": BINPACK + "exact 1\n",
    "nodes-beyond-edges": "cge 1\nnodes 3000000\ninit 0\nrobots 1\nedge 0 1\n",
    "disconnected": "cge 1\nnodes 4\ninit 0\nrobots 1\nedge 0 1\nedge 0 2\nedge 1 2\n",
    "no-robots": TRIANGLE.replace("robots 1", "robots 0"),
    "init-out-of-range": TRIANGLE.replace("init 0", "init 3"),
    "negative-budget": TRIANGLE.replace("robots 1\n", "robots 1\nbudget -1\n"),
}
SOLUTION_REJECTS = {
    "repeated-value": "value 2\nvalue 2\nrobot 1: 0 1 0\n",
    "underscored-vertex": "value 2\nrobot 1: 0 1_0 0\n",
    "arabic-indic-vertex": "value 2\nrobot 1: 0 ١ 0\n",
    "arabic-indic-value": "value ٢\nrobot 1: 0 1 0\n",
}
ILP_REJECTS = {
    "negative-vars": "ilp -1 0\n",
    "negative-constraints": "ilp 0 -1\n",
    "leading-zero-count": "ilp 01 0\nvar x\n",
    "duplicate-var": "ilp 2 0\nvar x\nvar x\n",
    "extra-constraint": "ilp 1 1\nvar x\nc eq1 : 1 x = 2\nc eq1 : 1 x = 2\n",
    "extra-blank-line": "ilp 1 0\nvar x\n\n",
    "missing-final-newline": "ilp 1 1\nvar x\nc eq1 : 1 x = 2",
    "underscored-coefficient": "ilp 1 1\nvar x\nc eq1 : 1_0 x = 2\n",
    "arabic-indic-coefficient": "ilp 1 1\nvar x\nc eq1 : ٣ x = 2\n",
    "plus-signed-coefficient": "ilp 1 1\nvar x\nc eq1 : +1 x = 2\n",
    "double-space": "ilp 1 1\nvar x\nc eq1 :  1 x = 2\n",
}
ASSIGNMENT_REJECTS = {
    "negative-count": "assign -1\n",
    "extra-value": "assign 1\nx 1\ny 2\n",
    "underscored-value": "assign 1\nx 1_0\n",
    "arabic-indic-value": "assign 1\nx ٣\n",
    "double-space": "assign 1\nx  1\n",
    "missing-final-newline": "assign 1\nx 1",
}


@pytest.mark.parametrize(
    "parse, text",
    [
        *((parse_instance, t) for t in INSTANCE_REJECTS.values()),
        *((parse_solution, t) for t in SOLUTION_REJECTS.values()),
        *((parse_ilp, t) for t in ILP_REJECTS.values()),
        *((parse_assignment, t) for t in ASSIGNMENT_REJECTS.values()),
    ],
    ids=[
        *(f"instance-{k}" for k in INSTANCE_REJECTS),
        *(f"solution-{k}" for k in SOLUTION_REJECTS),
        *(f"ilp-{k}" for k in ILP_REJECTS),
        *(f"assignment-{k}" for k in ASSIGNMENT_REJECTS),
    ],
)
def test_rejected(parse, text):
    with pytest.raises(ParseError):
        parse(text)


ALPHABET = "0123456789 -+_#:\n\t\rx٣２ebcdginoprstuv<=>"


@st.composite
def mutated(draw, texts):
    """A seed text after one to three character or line edits."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        edit = draw(st.sampled_from(["insert", "delete", "replace", "line"]))
        if edit == "line":
            lines = text.split("\n")
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = draw(st.sampled_from([[], [lines[k]] * 2]))
            text = "\n".join(lines)
            continue
        new = draw(st.text(alphabet=ALPHABET, min_size=1, max_size=4))
        if edit == "insert":
            text = text[:i] + new + text[i:]
        elif edit == "delete":
            text = text[:i] + text[j:]
        else:
            text = text[:i] + new + text[j:]
    return text


def _fixed_point(parse, fmt, text):
    try:
        once = fmt(parse(text))
    except ParseError:
        return
    assert fmt(parse(once)) == once


def _byte_exact(parse, fmt, text):
    try:
        parsed = parse(text)
    except ParseError:
        return
    assert fmt(parsed) == text


@given(mutated(INSTANCE_TEXTS))
@settings(max_examples=300, deadline=None)
def test_mutated_instances_parse_or_reach_a_fixed_point(text):
    _fixed_point(parse_instance, format_instance, text)


@given(mutated(SOLUTION_TEXTS))
@settings(max_examples=200, deadline=None)
def test_mutated_solutions_parse_or_reach_a_fixed_point(text):
    _fixed_point(parse_solution, format_solution, text)


@given(mutated([ILP_TEXT]))
@settings(max_examples=300, deadline=None)
def test_mutated_ilp_texts_parse_or_reexport_exactly(text):
    _byte_exact(parse_ilp, export_ilp, text)


@given(mutated([ASSIGNMENT_TEXT]))
@settings(max_examples=200, deadline=None)
def test_mutated_assignments_parse_or_reexport_exactly(text):
    _byte_exact(parse_assignment, format_assignment, text)
