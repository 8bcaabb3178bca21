"""The four text grammars are total: every input either raises ParseError
or round-trips.

Instance and solution texts may carry comments and blank lines, so for them
formatting is a fixed point; equation-system and assignment texts have one
exported form and re-export byte for byte.  Those two parsers accept a text
exactly when it equals the export of what was read from it; they must accept
and read the same texts as the rule-by-rule parsers in ilp_text_reference.py.
The instance reader must read every text as the line-by-line reader in
instance_text_reference.py does, or raise ParseError at the same line with
the same message.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cge.approx import approx_solve
from cge.cover import vertex_cover_2approx
from cge.errors import ParseError
from cge.fptilp import system as system_module
from cge.fptilp.context import FptContext
from cge.fptilp.system import (
    IlpSystem,
    build_ilp_system,
    export_ilp,
    format_assignment,
    is_export,
    parse_assignment,
    parse_ilp,
)
from cge.fptilp.typespace import enumerate_type_space
from cge.graphs import ExplorationInstance
from cge.textio import format_instance, format_solution, parse_instance, parse_solution

import ilp_text_reference as reference
import instance_text_reference
from conftest import term_pairs
from corpus import corpus_cover
from reject_texts import (
    ASSIGNMENT_REJECTS,
    BINPACK,
    ILP_REJECTS,
    INSTANCE_REJECTS,
    SOLUTION_REJECTS,
    TRIANGLE,
)

DATA = Path(__file__).parent / "data"
INSTANCE_TEXTS = [p.read_text() for p in sorted((DATA / "corpus").iterdir())]
ILP_TEXT = (DATA / "path3.ilp").read_text()
SOLUTION_TEXTS = [
    format_solution(approx_solve(inst, vertex_cover_2approx(inst.graph)))
    for inst in map(parse_instance, INSTANCE_TEXTS[:8])
    if isinstance(inst, ExplorationInstance)
]
STAR5_K3 = parse_instance((DATA / "corpus" / "star5-k3.cge").read_text())
STAR5_K3_CTX = FptContext.build(STAR5_K3, corpus_cover(STAR5_K3))
CORPUS_ILP_TEXT = export_ilp(
    build_ilp_system(STAR5_K3_CTX, enumerate_type_space(STAR5_K3_CTX))
)
ASSIGNMENT_TEXT = format_assignment(
    {n: i % 3 for i, n in enumerate(parse_ilp(ILP_TEXT).variables)}
)


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


def _held(result):
    """What a parse result holds, for comparison: `==` ignores the order of
    a dict's items and the class of a named tuple, so both are spelled out."""
    return list(result.items()) if isinstance(result, dict) else (type(result), result)


def _outcome(parse, text):
    try:
        return _held(parse(text))
    except ParseError:
        return ParseError


def _parse_ilp_pairs(text: str) -> IlpSystem:
    """parse_ilp with every row's runs expanded to the (coefficient,
    variable) pairs that the reference parser reads."""
    system = parse_ilp(text)
    return system._replace(constraints=tuple(
        c._replace(terms=term_pairs(c.terms)) for c in system.constraints
    ))


@given(mutated([ILP_TEXT, CORPUS_ILP_TEXT]))
@settings(max_examples=400, deadline=None)
def test_mutated_ilp_texts_parse_as_the_reference_does(text):
    assert _outcome(_parse_ilp_pairs, text) == _outcome(reference.parse_ilp, text)


@given(mutated([ASSIGNMENT_TEXT]))
@settings(max_examples=400, deadline=None)
def test_mutated_assignments_parse_as_the_reference_does(text):
    assert _outcome(parse_assignment, text) == _outcome(reference.parse_assignment, text)


def _read(parse, text):
    try:
        return _held(parse(text))
    except ParseError as exc:
        return exc.line, exc.message


# texts whose lines fall on both sides of a chunk boundary once the chunk is
# a few bytes long
CHUNK_TEXTS = {
    "name-in-two-chunks": "assign 4\nx 1\ny 2\nz 3\nx 4\n",
    "bad-value-opens-a-later-chunk": "assign 4\nx 1\ny 2\nz 03\nw 4\n",
    "last-chunk-without-final-newline": "assign 3\nx 1\ny 2\nz 3",
    "crlf-line": "assign 3\nx 1\ny 2\r\nz 3\n",
    "line-longer-than-a-chunk": "assign 2\n" + "x" * 40 + " 12345678901234567890\ny 2\n",
}


@pytest.mark.parametrize("chunk", [1, 4, 6, 9])
@pytest.mark.parametrize(
    "text",
    [ASSIGNMENT_TEXT, *CHUNK_TEXTS.values(), *ASSIGNMENT_REJECTS.values()],
    ids=["exported", *CHUNK_TEXTS, *(f"reject-{k}" for k in ASSIGNMENT_REJECTS)],
)
def test_assignment_chunks_read_as_the_line_reader_does(monkeypatch, chunk, text):
    """The chunked assignment reader accepts, reads and rejects what the
    line reader does, with the same line and message, and as the reference
    parser does, wherever the chunk boundaries fall."""
    monkeypatch.setattr(system_module, "_CHUNK", chunk)
    assert _read(parse_assignment, text) == _read(system_module._parse_assignment_lines, text)
    assert _outcome(parse_assignment, text) == _outcome(reference.parse_assignment, text)


@given(mutated([ASSIGNMENT_TEXT]), st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_mutated_assignments_read_by_small_chunks_as_by_lines(text, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(system_module, "_CHUNK", chunk)
        assert _read(parse_assignment, text) == _read(system_module._parse_assignment_lines, text)
        assert _outcome(parse_assignment, text) == _outcome(reference.parse_assignment, text)


@pytest.mark.parametrize("chunk", [1, 6, 1 << 16])
def test_exported_assignments_need_no_line_reader(monkeypatch, chunk):
    """An exported text is read chunk by chunk alone."""
    def refuse(text):
        raise AssertionError("an exported assignment fell back to the line reader")

    monkeypatch.setattr(system_module, "_CHUNK", chunk)
    monkeypatch.setattr(system_module, "_parse_assignment_lines", refuse)
    long_line = CHUNK_TEXTS["line-longer-than-a-chunk"]
    for text in (ASSIGNMENT_TEXT, long_line, "assign 0\n"):
        assert format_assignment(parse_assignment(text)) == text


@given(mutated(INSTANCE_TEXTS + [TRIANGLE, BINPACK]))
@settings(max_examples=600, deadline=None)
def test_mutated_instances_parse_as_the_reference_does(text):
    assert _read(parse_instance, text) == _read(instance_text_reference.parse_instance, text)


_LINE_ENDS = ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize(
    "text",
    [
        TRIANGLE.replace("init 0", "init 0  # start at vertex \u0660, n\u00e4chst_e"),
        "# \u00fcber_graph\n" + TRIANGLE,
        TRIANGLE + "# trailing \u2603 comment_\n",
        TRIANGLE.replace("robots 1", "robots 1_0"),
        TRIANGLE.replace("edge 1 2", "edge 1 2 _"),
        TRIANGLE.replace("init 0", "init 0 # ok_") + "edge 1_2\n",
        TRIANGLE.replace("edge 0 1", "edge 0 \u00fc # fine_"),
        TRIANGLE.replace("edge 0 2", "#edge 0 2 \u00fc"),
        *(TRIANGLE.replace("\n", end) for end in _LINE_ENDS),
        TRIANGLE.replace("\n", "\r\n").replace("init 0", "init 0 # \u00e9_"),
        "cge 1\nnodes 3\u2028init 0 # a comment\u2028robots 1\nedge 0 1\nedge 0 2\n",
        TRIANGLE.replace("edge 0 1", "edge +0 1"),
        TRIANGLE.replace("edge 0 2", "edge -0 2"),
        TRIANGLE.replace("edge 0 2", "edge +3 2"),
        TRIANGLE.replace("edge 0 2", "edge \u0663 2"),
        TRIANGLE.replace("nodes 3", "nodes +3"),
        TRIANGLE.replace("edge 0 1", "edge\t0\t1"),
        "\n\n" + TRIANGLE.replace("\n", "\n  \n\t\n"),
        "\n  \ncge 1\n\n",
        TRIANGLE.replace("edge 1 2", "\u00a0edge 1 2\u3000"),
        "cge 1\nedge 0 1\nnodes 2\ninit 0\nrobots 1\n",
        TRIANGLE + "edge 1 0\n",
        TRIANGLE + "edge 2 0 # again\n",
        TRIANGLE + "edge 1 1\n",
        TRIANGLE + "edge 1\n",
        TRIANGLE + "edge 1 2 3\n",
        TRIANGLE + "edge 1 x\n",
        TRIANGLE + "edge 0 3\n",
        TRIANGLE + "edge -1 2\n",
        TRIANGLE.replace("nodes 3", "nodes -1"),
        TRIANGLE.replace("edge 1 2\n", ""),
        "cge 1\nnodes 1\ninit 0\nrobots 1\n",
        "cge 2\n",
        "",
        "   \n# only a comment \u00fc\n",
        BINPACK.replace("bins 2", "bins 2 # two_ \u00fc"),
        BINPACK.replace("\n", "\r\n"),
        BINPACK + "item 1_0\n",
    ],
)
def test_edge_case_instance_texts_parse_as_the_reference_does(text):
    assert _read(parse_instance, text) == _read(instance_text_reference.parse_instance, text)


@pytest.mark.parametrize(
    "text",
    [
        "ilp 1 1\nvar =\nc eq1 : 1 = = 2\n",  # a term may not be named like a relation
        "ilp 1 0\nvar =\n",
        "ilp 1 1\nvar +\nc eq1 : 1 + + 2 + = 2\n",
        "ilp 1 1\nvar x\nc a b : 1 x = 2\n",  # the tag is everything before ' : '
        "ilp 1 1\nvar x\nc  : 1 x = 2\n",
        "ilp 1 1\nvar x\nc a : : 1 x = 2\n",
        "ilp 0 1\nc eq1 : = 0\n",
        "ilp 1 1\nvar 5\nc eq1 : 5 5 = 5\n",
        "ilp 1 1\nvar x\nc eq1 : -1 x = -2\n",
        "ilp 1 1\nvar x\nc eq1 : 1 x >= = 2\n",
        "ilp 1 1\nvar x\nc eq1 : 1 x 1 x = 2\n",
        "ilp 1 2\nvar x\nc eq1 : 1 x = 2\nvar y\n",
        "ilp 0 0",
        "",
    ],
)
def test_edge_case_ilp_texts_parse_as_the_reference_does(text):
    assert _outcome(_parse_ilp_pairs, text) == _outcome(reference.parse_ilp, text)


def test_parsers_do_not_call_the_traced_exporters(monkeypatch):
    """A parser, or the check that reconstruct makes of its system text, that
    called export_ilp or format_assignment would add spans to the per-layer
    trace counts of every command that parses."""
    def refuse(*args):
        raise AssertionError("a parser called a traced exporter")

    monkeypatch.setattr(system_module, "export_ilp", refuse)
    monkeypatch.setattr(system_module, "format_assignment", refuse)
    assert parse_ilp(ILP_TEXT).variables[0] == "x_ver_0"
    assert len(parse_ilp(CORPUS_ILP_TEXT).variables) == 121
    assert list(parse_assignment(ASSIGNMENT_TEXT).items())[1] == ("x_rob_0", 1)
    assert is_export(parse_ilp(CORPUS_ILP_TEXT), CORPUS_ILP_TEXT)


@pytest.mark.parametrize(
    "text, line",
    [
        ("ilp 2 1\nvar x\nc eq1 : 1 x = 2\n", 1),
        ("ilp 1 2\nvar x\nc eq1 : 1 x = 2\n", 1),
        ("ilp 1 1\nvar x\nc eq1 :  1 x = 2\n", 3),
        ("ilp 2 2\nvar x\nvar y\nc eq1 : 1 x = 2\nc eq2 : 1 x  + 1 y = 2\n", 5),
        ("ilp 1 1\nvar x\nc eq1 : 1 y = 2\n", 3),
        ("ilp 1 1\nvar x\nc eq1 : 1 x = 2", 3),
        ("ilp 0 0", 1),
        ("assign 2\nx 1\n", 1),
        ("assign 1\nx 01\n", 2),
    ],
)
def test_parse_errors_name_the_first_differing_line(text, line):
    parse = parse_assignment if text.startswith("assign") else parse_ilp
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line == line
