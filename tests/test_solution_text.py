"""`parse_solution` compares the lines that add one robot to a run that has
gone on for two lines with the text `format_solution` writes for them, and
reads every other line through the line grammar.  It must accept the texts, build the runs and raise
the errors (line number and message) of the per-line parser kept in
solution_text_reference.py, whether it reads the text or a file in pieces.
"""

import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cge import textio
from cge.errors import ParseError
from cge.euler import RobotCycle, Solution
from cge.textio import format_solution, parse_solution

import solution_text_reference as reference

# every line end of str.splitlines
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
WALKS = ["0 1 0", "0 2 0", "0 1 2 0", "2 0 2", "0"]
# a robot line for robot i taking walk w that is not what format_solution
# writes, and what the grammar makes of it
BROKEN_LINES = [
    "robot {i}: {w} # note",  # a comment
    "robot {i}: {w}   ",  # trailing spaces
    "  robot {i}: {w}",  # leading spaces
    "robot {i}:\t{w}",  # another blank after the label
    "robot {i}:  {w}",  # a wider gap after the label, same walk text
    "robot {i}: {w2}",  # a wider gap inside the walk, other walk text
    "robot {i}: {w1f}",  # \x1f is a blank to the grammar but ends no line
    "robot {j}: {w}",  # the next robot's label
    "robot {h}: {w}",  # the previous robot's label
    "robot {i} {w}",  # no colon
    "robot 0{i}: {w}",  # a leading zero
    "robot +{i}: {w}",  # a sign
]


def outcome(parse, source):
    try:
        return parse(source)
    except ParseError as exc:
        return exc.line, exc.message


def assert_reads_as_reference(text, piece=None):
    expected = outcome(reference.parse_solution, text)
    assert outcome(parse_solution, text) == expected
    with mock.patch.object(textio, "_PIECE", piece or textio._PIECE):
        assert outcome(parse_solution, text) == expected
        assert outcome(parse_solution, io.StringIO(text)) == expected
    return expected


@st.composite
def solution_texts(draw):
    out = []
    robots = 0
    walk = draw(st.sampled_from(WALKS))

    def add(line):
        # mostly "\n", as format_solution writes, and now and then any line end
        sep = draw(st.sampled_from(SEPARATORS)) if draw(st.integers(0, 5)) == 0 else "\n"
        out.append(line + sep)

    if draw(st.integers(0, 9)):
        add(f"value {draw(st.integers(-2, 20))}")
    for kind in draw(st.lists(st.sampled_from(
        ["run", "run", "run", "broken", "broken", "value", "blank", "comment", "junk"]
    ), max_size=10)):
        if kind == "run":
            if draw(st.booleans()):
                walk = draw(st.sampled_from(WALKS))
            for _ in range(draw(st.integers(1, 40))):
                robots += 1
                add(f"robot {robots}: {walk}")
        elif kind == "broken":
            robots += 1
            add(draw(st.sampled_from(BROKEN_LINES)).format(
                i=robots, j=robots + 1, h=robots - 1, w=walk,
                w2=walk.replace(" ", "  "), w1f=walk.replace(" ", "\x1f"),
            ))
        elif kind == "value":
            add(f"value {draw(st.integers(0, 20))}")
        elif kind == "blank":
            add(draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == "comment":
            add(f"# robot {robots + 1}: {walk}")
        else:
            add(draw(st.text(alphabet="robtvalue012 :#_+-\t\x1f\x0b\xe9", max_size=16)))
    text = "".join(out)
    if out and draw(st.booleans()):
        text = text.rstrip("".join(SEPARATORS))  # no line end after the last line
    return text


@settings(max_examples=500, deadline=None)
@given(solution_texts(), st.integers(1, 64))
def test_parser_reads_what_the_per_line_parser_reads(text, piece):
    assert_reads_as_reference(text, piece)


@pytest.mark.parametrize("sep", SEPARATORS)
@pytest.mark.parametrize("broken", range(len(BROKEN_LINES)))
def test_every_line_end_and_every_broken_line_inside_a_run(sep, broken):
    lines = ["value 2"] + [f"robot {i}: 0 1 0" for i in range(1, 41)]
    lines[20] = BROKEN_LINES[broken].format(
        i=20, j=21, h=19, w="0 1 0", w2="0  1  0", w1f="0\x1f1\x1f0"
    )
    text = "\n".join(lines[:30]) + sep + "\n".join(lines[30:]) + "\n"
    assert_reads_as_reference(text)
    assert_reads_as_reference(text, piece=5)


def test_runs_longer_than_a_block_and_a_piece_round_trip():
    sol = Solution(tuple(
        (RobotCycle(walk), count)
        for walk, count in [((0, 1, 0), 3000), ((0, 2, 0), 1), ((0, 1, 0), 2500), ((0,), 1030)]
    ))
    text = format_solution(sol)
    assert assert_reads_as_reference(text) == sol
    assert assert_reads_as_reference(text, piece=1000) == sol
    # a run broken once in the middle of a hundred
    broken = text.replace("robot 2000: 0 1 0\n", "robot 2000: 0 1 0 \n")
    assert assert_reads_as_reference(broken) == sol


def runs_text(*runs):
    """A solution text as `format_solution` writes it, from (walk, robot
    count) pairs."""
    return format_solution(Solution(tuple((RobotCycle(walk), count) for walk, count in runs)))


# robots where the numbers gain a digit or a hundred, and two on either side
HUNDREDS = [b + d for b in (100, 1000, 10000) for d in range(-2, 3)]


@pytest.mark.parametrize("robot", HUNDREDS)
def test_runs_that_start_or_end_near_a_hundred(robot):
    for text in (
        # the first run ends at `robot`, the second starts there
        runs_text(((0, 1, 0), robot), ((0, 2, 0), 150), ((0, 1, 0), 3)),
        runs_text(((0, 1, 0), robot - 1), ((0, 2, 0), 150)),
        # a run from robot 3 that ends there, and one of a single robot
        runs_text(((0, 1, 0), 2), ((0, 2, 0), robot - 2), ((0,), 1)),
    ):
        sol = reference.parse_solution(text)
        for piece in (None, 7, 1000):
            assert assert_reads_as_reference(text, piece) == sol


@pytest.mark.parametrize("robot", HUNDREDS)
def test_every_broken_line_near_a_hundred(robot):
    lines = runs_text(((0, 1, 0), robot + 120)).splitlines()
    for broken in BROKEN_LINES:
        text = "\n".join([*lines[:robot], broken.format(
            i=robot, j=robot + 1, h=robot - 1, w="0 1 0", w2="0  1  0", w1f="0\x1f1\x1f0"
        ), *lines[robot + 1:]]) + "\n"
        assert_reads_as_reference(text)
        assert_reads_as_reference(text, piece=7)


OPEN = "walk must start and end at the same vertex"


@pytest.mark.parametrize("text, line", [
    ("value 1\nrobot 1: 0 1\n", 2),  # the first run
    ("value 2\nrobot 1: 0 1 0\nrobot 2: 0 2 0\nrobot 3: 0 2\n", 4),  # a later run
    # right after a run of equal lines, which the reader compares as text
    ("value 2\n" + "".join(f"robot {i}: 0 1 0\n" for i in range(1, 6)) + "robot 6: 0 1 0 1\n", 7),
], ids=["first-run", "later-run", "after-equal-lines"])
def test_an_open_walk_is_rejected_at_its_line(text, line):
    assert assert_reads_as_reference(text) == (line, OPEN)
    assert assert_reads_as_reference(text, piece=5) == (line, OPEN)


class CountedText(str):
    """A text that counts the searches for a line's end: one per line the
    grammar reads."""

    searches = 0

    def find(self, *args):
        type(self).searches += 1
        return super().find(*args)


def test_lines_of_an_open_run_skip_the_grammar():
    text = CountedText("value 2\n" + "".join(f"robot {i}: 0 1 0\n" for i in range(1, 5001)))
    sol = parse_solution(text)
    assert [(rc.walk, count) for rc, count in sol.runs] == [((0, 1, 0), 5000)]
    assert CountedText.searches == 3  # the value line, robot 1 and robot 2


@pytest.mark.parametrize("robots", [5000, 5001, 5050, 5099, 5100])
def test_lines_matched_inside_a_hundred_skip_the_grammar(robots):
    """The run ends inside or at the end of a hundred: its lines in the
    hundred that differs are matched one by one, not parsed."""
    CountedText.searches = 0
    text = CountedText(runs_text(((0, 1, 0), robots), ((0, 2, 0), 1)))
    sol = parse_solution(text)
    assert [(rc.walk, count) for rc, count in sol.runs] == [((0, 1, 0), robots), ((0, 2, 0), 1)]
    assert CountedText.searches == 4  # the value line, robots 1 and 2, the last robot


@pytest.mark.parametrize("token", ["+1", "01", "-0", "+0", "001", "1"])
def test_walk_vertices_read_as_int_reads_them(token):
    for text in (
        f"value 2\nrobot 1: 0 {token} 0\n",
        f"value 2\nrobot 1: {token} 2 {token}\nrobot 2: {token} 2 {token}\n",
        f"value 2\nrobot 1: 0 1 0\nrobot 2: 0 {token} 0\nrobot 3: 0 {token} 0\n",
    ):
        assert assert_reads_as_reference(text) == reference.parse_solution(text)
