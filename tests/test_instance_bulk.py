"""`parse_instance` reads a text exactly as `format_instance` writes an
exploration instance with edges in bulk, and sends every other text to its
line reader.  Either way it must give what the line-by-line reader in
instance_text_reference.py gives: the same instance, or ParseError at the
same line with the same message.
"""

import random
from pathlib import Path

import pytest

from cge import textio
from cge.errors import ParseError
from cge.textio import format_instance, parse_instance

import instance_text_reference as reference

CORPUS = Path(__file__).parent / "data" / "corpus"
TRIANGLE = "cge 1\nnodes 3\ninit 0\nrobots 1\nedge 0 1\nedge 0 2\nedge 1 2\n"
# CI's ring: its last two edges come after edges they sort before
RING = (
    "cge 1\nnodes 2000\ninit 1000\nrobots 3\n"
    + "".join(f"edge {i} {i + 1}\n" for i in range(1999))
    + "edge 0 1999\nedge 500 1500\n"
)

DECLINED = {
    "unsorted-ring": RING,
    "unsorted": TRIANGLE.replace("edge 0 1\nedge 0 2\n", "edge 0 2\nedge 0 1\n"),
    "reversed-pair": TRIANGLE.replace("edge 0 2", "edge 2 0"),
    "reversed-last-pair": TRIANGLE.replace("edge 1 2", "edge 2 1"),
    "repeated-edge": TRIANGLE + "edge 1 2\n",
    "repeated-reversed-edge": TRIANGLE.replace("edge 0 2", "edge 1 0"),
    "self-loop": TRIANGLE + "edge 2 2\n",
    "self-loop-first": TRIANGLE.replace("edge 0 1", "edge 0 0"),
    "vertex-out-of-range": TRIANGLE + "edge 2 3\n",
    "negative-vertex": TRIANGLE.replace("edge 0 1", "edge -1 1"),
    "leading-zero": TRIANGLE.replace("edge 1 2", "edge 01 2"),
    "plus-sign": TRIANGLE.replace("edge 1 2", "edge +1 2"),
    "minus-zero": TRIANGLE.replace("edge 0 2", "edge -0 2"),
    "trailing-comment": TRIANGLE.replace("edge 0 2\n", "edge 0 2 # note\n"),
    "comment-line": TRIANGLE.replace("edge 0 2\n", "edge 0 2\n# note\n"),
    "blank-line": TRIANGLE.replace("edge 0 2\n", "edge 0 2\n\n"),
    "scalar-after-edges": TRIANGLE.replace("robots 1\n", "") + "robots 1\n",
    "budget-after-edges": TRIANGLE + "budget 4\n",
    "crlf": TRIANGLE.replace("\n", "\r\n"),
    "crlf-in-edges": TRIANGLE.replace("edge 0 2\n", "edge 0 2\r\n"),
    "vertical-tab": TRIANGLE.replace("\n", "\x0b"),
    "vertical-tab-in-edges": TRIANGLE.replace("edge 0 2\n", "edge 0 2\x0b"),
    "file-separator": TRIANGLE.replace("\n", "\x1c"),
    "file-separator-in-edges": TRIANGLE.replace("edge 0 2\n", "edge 0 2\x1c"),
    "tab": TRIANGLE.replace("edge 0 2", "edge 0\t2"),
    "double-space": TRIANGLE.replace("edge 0 2", "edge  0 2"),
    "no-final-newline": TRIANGLE[:-1],
    "leading-blank-line": "\n" + TRIANGLE,
    "head-comment": TRIANGLE.replace("init 0", "init 0 # start"),
    "two-budgets": TRIANGLE.replace("robots 1\n", "robots 1\nbudget 4\nbudget 5\n"),
    "too-sparse": "cge 1\nnodes 3000000\ninit 0\nrobots 1\nedge 0 1\n",
    "disconnected": "cge 1\nnodes 4\ninit 0\nrobots 1\nedge 0 1\nedge 0 2\nedge 1 2\n",
    "init-out-of-range": TRIANGLE.replace("init 0", "init 3"),
    "no-robots": TRIANGLE.replace("robots 1", "robots 0"),
    "negative-budget": TRIANGLE.replace("robots 1\n", "robots 1\nbudget -1\n"),
    "underscored-end": TRIANGLE.replace("edge 1 2", "edge 1 2_0"),
    "arabic-indic-end": TRIANGLE.replace("edge 1 2", "edge 1 ٢"),
    "arabic-indic-nodes": TRIANGLE.replace("nodes 3", "nodes ٣"),
}


def outcome(parse, text):
    try:
        inst = parse(text)
        return type(inst), inst  # `==` on named tuples ignores their class
    except ParseError as exc:
        return exc.line, exc.message


def canonical_texts():
    """Instances shaped like the approx-scale workload's: random attachment
    trees plus distinct extra edges, m = 3n, and trees, up to 2000
    vertices; with and without a budget."""
    rng = random.Random(33)
    texts = []
    for n, m in ((2, 1), (100, 300), (400, 1200), (800, 799), (2000, 6000)):
        order = list(range(n))
        rng.shuffle(order)
        edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
        while len(edges) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        budget = f"budget {rng.randrange(10**12)}\n" if n % 400 else ""
        texts.append(
            f"cge 1\nnodes {n}\ninit {rng.randrange(n)}\nrobots {rng.randint(1, 8)}\n{budget}"
            + "".join(f"edge {u} {v}\n" for u, v in sorted(edges))
        )
    return texts


CORPUS_TEXTS = {p.name: p.read_text() for p in sorted(CORPUS.glob("*.cge"))}


@pytest.mark.parametrize("name", sorted(DECLINED))
def test_other_texts_go_to_the_line_reader(monkeypatch, name):
    text = DECLINED[name]
    calls = []
    lines = textio._parse_instance_lines

    def recorded(text):
        calls.append(text)
        return lines(text)

    monkeypatch.setattr(textio, "_parse_instance_lines", recorded)
    assert outcome(parse_instance, text) == outcome(reference.parse_instance, text)
    assert calls == [text]


def test_canonical_texts_need_no_line_reader(monkeypatch):
    def refuse(text):
        raise AssertionError("a canonical instance text fell back to the line reader")

    expected = {}
    texts = [t for t in CORPUS_TEXTS.values() if format_instance(parse_instance(t)) == t]
    assert len(texts) == len(CORPUS_TEXTS) - 1 == 30  # guard-c4 lists 0-3 last
    texts += canonical_texts()
    for text in texts:
        expected[text] = reference.parse_instance(text)
    monkeypatch.setattr(textio, "_parse_instance_lines", refuse)
    for text in texts:
        inst = parse_instance(text)
        assert (type(inst), inst) == (type(expected[text]), expected[text])
        assert format_instance(inst) == text


def test_a_bulk_read_graph_is_the_line_readers():
    """The graph read in bulk answers every query as the one the line
    reader builds."""
    for text in canonical_texts()[:3]:
        bulk = parse_instance(text).graph
        lines = textio._parse_instance_lines(text).graph
        assert bulk.edges == lines.edges
        assert [bulk.neighbors(v) for v in range(bulk.n)] == [
            lines.neighbors(v) for v in range(lines.n)
        ]
