"""Independent checks of cge output, written without any cge code.

Every function returns a list of problems; an empty list means the output
passed.  The parsers here are deliberately separate from `cge.textio`, so a
bug shared by the program's formatter and parser cannot hide a wrong answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    n: int
    init: int
    k: int
    budget: int | None
    edges: frozenset[tuple[int, int]]


def edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def format_instance(inst: Instance) -> str:
    lines = ["cge 1", f"nodes {inst.n}", f"init {inst.init}", f"robots {inst.k}"]
    if inst.budget is not None:
        lines.append(f"budget {inst.budget}")
    lines += [f"edge {u} {v}" for u, v in sorted(inst.edges)]
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    fields: dict[str, int] = {}
    edges = set()
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts or parts == ["cge", "1"]:
            continue
        if parts[0] == "edge":
            edges.add(edge(int(parts[1]), int(parts[2])))
        else:
            fields[parts[0]] = int(parts[1])
    return Instance(
        fields["nodes"], fields["init"], fields["robots"], fields.get("budget"),
        frozenset(edges),
    )


def parse_solution(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """(declared value, robot walks) of a solution text; raises ValueError."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("value "):
        raise ValueError("solution does not start with a 'value' line")
    value = int(lines[0][6:])
    walks = []
    for i, line in enumerate(lines[1:], start=1):
        head, _, body = line.partition(": ")
        if head != f"robot {i}":
            raise ValueError(f"line {i + 1} is not 'robot {i}: ...'")
        walks.append(tuple(int(v) for v in body.split()))
    return value, walks


def solution_problems(inst: Instance, text: str, budget: int | None = None) -> list[str]:
    """Check a solution text against the instance.

    Each walk starts and ends at `init` and steps only along edges, the walks
    together cover every edge, there are exactly k of them, the declared value
    is the longest walk, and the value is within `budget` when one is given.
    """
    try:
        value, walks = parse_solution(text)
    except ValueError as exc:
        return [f"unparsable solution: {exc}"]
    problems = []
    if len(walks) != inst.k:
        problems.append(f"{len(walks)} robots, expected {inst.k}")
    covered = set()
    longest = 0
    for i, walk in enumerate(walks, start=1):
        if not walk or walk[0] != inst.init or walk[-1] != inst.init:
            problems.append(f"robot {i} does not start and end at {inst.init}")
            continue
        steps = [edge(a, b) for a, b in zip(walk, walk[1:])]
        bad = [s for s in steps if s not in inst.edges]
        if bad:
            problems.append(f"robot {i} steps along non-edge {bad[0]}")
        covered.update(steps)
        longest = max(longest, len(steps))
    missing = inst.edges - covered
    if missing:
        problems.append(f"{len(missing)} edges uncovered, e.g. {min(missing)}")
    if value != longest:
        problems.append(f"declared value {value}, longest walk {longest}")
    if budget is not None and value > budget:
        problems.append(f"value {value} exceeds budget {budget}")
    return problems


def solution_value(text: str) -> int:
    return int(text.split("\n", 1)[0].split()[1])


def verify_report_problems(inst: Instance, solution_text: str, report: str) -> list[str]:
    """The report of `cge verify` on a solution this checker accepted."""
    lines = report.splitlines()
    value = solution_value(solution_text)
    expected_tail = ["uncovered: none", f"value {value}"]
    if inst.budget is not None:
        expected_tail.append("budget: ok")
    expected_tail.append("result: ok")
    problems = []
    if lines[-len(expected_tail):] != expected_tail:
        problems.append(f"verify report ends {lines[-len(expected_tail):]}")
    robot_lines = [l for l in lines if l.startswith("robot ")]
    if len(robot_lines) != inst.k or any("BAD" in l for l in robot_lines):
        problems.append("verify report has missing or BAD robot lines")
    return problems


def tree_optimum(near_leaves: int, far_leaves: int, k: int) -> int:
    """Optimum of a star (far_leaves = -1) or a double star without shared
    leaves, started at a center: `near_leaves` hang off the start center and
    `far_leaves` off the other one.

    On a tree every robot walks each edge it uses exactly twice, so a robot
    taking x near leaves and y far leaves costs 2x, plus 2 + 2y if it crosses
    the center edge.  Some robot must cross it when the far center exists.
    """
    if far_leaves < 0:
        return 2 * -(-near_leaves // k)
    best = None
    for far in itertools.product(range(far_leaves + 1), repeat=k):
        if sum(far) != far_leaves:
            continue
        for crosses in itertools.product((False, True), repeat=k):
            if not any(crosses) or any(y and not c for y, c in zip(far, crosses)):
                continue
            base = [2 + 2 * y if c else 0 for y, c in zip(far, crosses)]
            # deal the near leaves greedily to the lightest robot
            loads = sorted(base)
            for _ in range(near_leaves):
                loads[0] += 2
                loads.sort()
            if best is None or loads[-1] < best:
                best = loads[-1]
    return best


def packable(sizes: tuple[int, ...], capacity: int, bins: int) -> bool:
    """Exact bin packing by trying every item-to-bin map."""
    for assignment in itertools.product(range(bins), repeat=len(sizes)):
        loads = [0] * bins
        for size, b in zip(sizes, assignment):
            loads[b] += size
        if all(load == capacity for load in loads):
            return True
    return False
