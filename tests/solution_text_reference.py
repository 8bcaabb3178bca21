"""The solution parser before it compared repeated robot lines as text:
verbatim copies for differential tests.

`parse_solution` reads every line of `str.splitlines()` through the line
grammar, one robot at a time, and merges consecutive robot lines with equal
walk text into one run.
"""

from __future__ import annotations

from cge.errors import ParseError
from cge.euler import RobotCycle, Solution
from cge.textio import _int_field


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            if not line.isascii() or "_" in line:
                raise ParseError(lineno, "only ASCII without '_' is allowed")
            yield lineno, line


def parse_solution(text: str) -> Solution:
    cycles: list[RobotCycle] = []
    counts: list[int] = []  # robots per run, parallel to `cycles`
    robots = 0
    last = None  # walk text of the last robot line
    value_seen = False
    for lineno, line in _meaningful_lines(text):
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
                continue
            try:
                walk = tuple(int(p) for p in parts[2].split())
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
