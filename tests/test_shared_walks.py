"""Robots that take one walk form one run, and each run costs one walk.

A `Solution` is runs of (walk, robot count).  `partition_independent_edges`
and `deal_cover_edges` keep only the prefix of robots dealt edges,
`approx_solve` adds one run for the robots past it, `solution_from_multisets`
walks each (multiset, count) pair once, `format_solution` renders each run's
walk once, `parse_solution` merges consecutive equal walk lines into one run
and `verify_solution` checks each run once.  Each check here compares
stdout-level bytes with verbatim copies of the per-robot code those replaced:
k `Counter`s in the partition, one `RobotCycle` slot per robot, memos keyed
by object id or walk text, and (from `approx_reference`) a spanning tree
re-rooted for every robot's parity fix.
"""

import itertools
import random
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import pytest

from cge.approx import (
    approx_solve,
    deal_cover_edges,
    even_independent_degrees,
    partition_independent_edges,
)
from cge.cover import connect_cover, vertex_cover_2approx
from cge.errors import ParseError
from cge.euler import (
    RobotCycle,
    Solution,
    find_eulerian_cycle,
    solution_from_multisets,
    verify_solution,
)
from cge.graphs import ExplorationInstance, Multigraph, norm_edge, walk_edges
from cge.textio import _int_field, _meaningful_lines, format_solution, parse_solution

from approx_reference import make_vc_even_degree, spanning_tree
from conftest import random_connected_graph, robot_cycles, with_budget

# ---------------------------------------------------------------------------
# Per-robot reference: the code the runs replaced, kept verbatim apart from
# the names of the per-robot records it builds.


@dataclass
class RefPartitionState:
    e_ind: Counter
    e_i: list
    pairs_dealt: int


@dataclass(frozen=True)
class RefSolution:
    cycles: tuple

    @property
    def value(self) -> int:
        return max(rc.length for rc in self.cycles)


def reference_partition_independent_edges(g, vcp, e_ind, k):
    cset = vcp.as_set()
    work = Counter(e_ind)
    e_i: list[Counter] = [Counter() for _ in range(k)]
    j = 0
    for u in range(g.n):
        if u in cset:
            continue
        incident: list[tuple[int, int]] = []
        for w in g.neighbors(u):
            e = norm_edge(u, w)
            incident.extend([e] * work[e])
        for idx in range(0, len(incident) - 1, 2):
            robot = j % k
            e_i[robot][incident[idx]] += 1
            e_i[robot][incident[idx + 1]] += 1
            work[incident[idx]] -= 1
            work[incident[idx + 1]] -= 1
            j += 1
    return RefPartitionState(e_ind=work, e_i=e_i, pairs_dealt=j)


def reference_deal_cover_edges(g, vcp, state):
    k = len(state.e_i)
    cset = vcp.as_set()
    singles = [e for e in g.edges if e[0] in cset and e[1] in cset]
    t = state.pairs_dealt % k
    order = list(range(t, k))
    idx = 0
    for e in singles:
        if idx == len(order):
            order = list(range(k - 1, -1, -1))
            idx = 0
        state.e_i[order[idx]][e] += 1
        idx += 1


def reference_solution_from_multisets(n, start, multisets: Iterable, k):
    idle = RobotCycle((start,))
    walked: dict[int, tuple[weakref.ref, RobotCycle]] = {}
    cycles = []
    for ms in multisets:
        entry = walked.get(id(ms))
        if entry is None or entry[0]() is not ms:
            rc = idle
            if any(ms.values()):
                rc = find_eulerian_cycle(ms, start)
                if min(rc.walk) < 0 or max(rc.walk) >= n:
                    raise ValueError(f"walk leaves vertices 0..{n - 1}")
            entry = walked[id(ms)] = (weakref.ref(ms), rc)
        cycles.append(entry[1])
    cycles.extend([idle] * (k - len(cycles)))
    return RefSolution(tuple(cycles))


def reference_approx_solve(inst, vc):
    g = inst.graph
    vcp = connect_cover(g, vc, inst.v_init)
    e_ind = even_independent_degrees(g, vcp)
    state = reference_partition_independent_edges(g, vcp, e_ind, inst.k)
    reference_deal_cover_edges(g, vcp, state)
    cset = vcp.as_set()
    tree = spanning_tree(g, cset, inst.v_init) if len(cset) > 1 else Counter()
    idle = make_vc_even_degree(tree, tree, vcp) if not all(state.e_i) else None
    multisets = (
        make_vc_even_degree(tree, e_i + tree, vcp) if e_i else idle for e_i in state.e_i
    )
    return reference_solution_from_multisets(g.n, inst.v_init, multisets, inst.k)


def reference_format_solution(sol):
    lines = [f"value {sol.value}"]
    rendered: dict[int, str] = {}  # sol.cycles keeps each id alive
    for i, rc in enumerate(sol.cycles, start=1):
        walk = rendered.get(id(rc))
        if walk is None:
            walk = rendered[id(rc)] = " ".join(map(str, rc.walk))
        lines.append(f"robot {i}: {walk}")
    del rendered  # the lines hold every walk now; free the copies before joining
    return "\n".join(lines) + "\n"


def reference_parse_solution(text):
    cycles = []
    walks: dict[str, RobotCycle] = {}  # walk text after a checked label -> its cycle
    value_seen = False
    for lineno, line in _meaningful_lines(text):
        parts = line.split(None, 2)
        if parts[0] == "value":
            if value_seen:
                raise ParseError(lineno, "repeated 'value'")
            _int_field(lineno, line.split(), 1)
            value_seen = True
        elif parts[0] == "robot":
            label = f"{len(cycles) + 1}:"  # exactly what format_solution writes
            if len(parts) < 3 or parts[1] != label:
                raise ParseError(lineno, f"expected 'robot {label} v0 v1 ... v0'")
            rc = walks.get(parts[2])
            if rc is None:
                try:
                    walk = tuple(int(p) for p in parts[2].split())
                except ValueError:
                    raise ParseError(lineno, "non-integer vertex in walk")
                try:
                    rc = walks[parts[2]] = RobotCycle(walk)
                except ValueError as exc:
                    raise ParseError(lineno, str(exc))
            cycles.append(rc)
        else:
            raise ParseError(lineno, f"unknown directive {parts[0]!r}")
    if not value_seen:
        raise ParseError(1, "missing 'value'")
    if not cycles:
        raise ParseError(1, "missing robot walks")
    return RefSolution(tuple(cycles))


@dataclass(frozen=True)
class RefRobotReport:
    index: int
    starts_at_init: bool
    ends_at_init: bool
    adjacency_ok: bool
    length: int

    @property
    def ok(self) -> bool:
        return self.starts_at_init and self.ends_at_init and self.adjacency_ok


@dataclass(frozen=True)
class RefVerificationReport:
    robot_reports: tuple
    uncovered: tuple
    value: int
    budget_ok: bool | None
    robot_count_ok: bool

    @property
    def coverage_ok(self) -> bool:
        return not self.uncovered

    @cached_property
    def ok(self) -> bool:
        return (
            self.robot_count_ok
            and all(r.ok for r in self.robot_reports)
            and self.coverage_ok
            and (self.budget_ok is not False)
        )

    def lines(self) -> list[str]:
        out = []
        for r in self.robot_reports:
            out.append(
                f"robot {r.index + 1}: start={'ok' if r.starts_at_init else 'BAD'}"
                f" end={'ok' if r.ends_at_init else 'BAD'}"
                f" edges={'ok' if r.adjacency_ok else 'BAD'}"
                f" length={r.length}"
            )
        if not self.robot_count_ok:
            out.append("robot count: BAD")
        if self.uncovered:
            missing = " ".join(f"{u}-{v}" for u, v in self.uncovered)
            out.append(f"uncovered: {missing}")
        else:
            out.append("uncovered: none")
        out.append(f"value {self.value}")
        if self.budget_ok is not None:
            out.append(f"budget: {'ok' if self.budget_ok else 'exceeded'}")
        out.append(f"result: {'ok' if self.ok else 'FAIL'}")
        return out


def reference_verify_solution(inst, sol):
    g = inst.graph
    graph_edges = set(g.edges)
    covered: set = set()
    checked: dict[int, tuple[bool, bool, bool, int]] = {}  # sol.cycles keeps each id alive
    reports = []
    for i, rc in enumerate(sol.cycles):
        flags = checked.get(id(rc))
        if flags is None:
            steps = {(a, b) if a < b else (b, a) for a, b in zip(rc.walk, rc.walk[1:])}
            on_graph = steps & graph_edges
            covered |= on_graph
            flags = checked[id(rc)] = (
                rc.walk[0] == inst.v_init,
                rc.walk[-1] == inst.v_init,
                len(on_graph) == len(steps),
                rc.length,
            )
        reports.append(RefRobotReport(i, *flags))
    uncovered = tuple(e for e in g.edges if e not in covered)
    value = max((rc.length for rc in sol.cycles), default=0)
    budget_ok = None if inst.budget is None else value <= inst.budget
    return RefVerificationReport(
        robot_reports=tuple(reports),
        uncovered=uncovered,
        value=value,
        budget_ok=budget_ok,
        robot_count_ok=len(sol.cycles) == inst.k,
    )


def reference_verify_text(inst, sol):
    """What `cge verify` printed with the per-robot report."""
    return "\n".join(reference_verify_solution(inst, sol).lines()) + "\n"


# ---------------------------------------------------------------------------

SHAPES = {
    "k4": (4, list(itertools.combinations(range(4), 2))),
    "k33": (6, [(a, b) for a in range(3) for b in range(3, 6)]),
    "star5": (6, [(0, leaf) for leaf in range(1, 6)]),
}


def seeded_graphs(seed):
    """Each shape under a seeded labeling and start vertex, then three
    seeded random graphs."""
    rng = random.Random(seed)
    for name, (n, pairs) in SHAPES.items():
        label = list(range(n))
        rng.shuffle(label)
        g = Multigraph(n, [(label[a], label[b]) for a, b in pairs])
        yield name, g, rng.randrange(n)
    for i in range(3):
        g = random_connected_graph(rng, n_max=9, m_max=14)
        yield f"random-{i}", g, rng.randrange(g.n)


def pieces(g, start):
    """Pairs plus cover-internal edges: the robots past this many get no
    edges of their own from the partition."""
    vcp = connect_cover(g, vertex_cover_2approx(g), start)
    cset = vcp.as_set()
    pairs = partition_independent_edges(g, vcp, even_independent_degrees(g, vcp), 1)
    return pairs.pairs_dealt + sum(u in cset and v in cset for u, v in g.edges)


def robot_counts(g, start):
    p = pieces(g, start)
    return sorted({1, p - 1, p, p + 1, 1500} - {0})


def instances(seed):
    for name, g, start in seeded_graphs(seed):
        for k in robot_counts(g, start):
            yield f"{name}-k{k}", ExplorationInstance(g, start, k)


def runs_of(cycles):
    """Runs of consecutive robots given one cycle object; equal walks in
    distinct objects stay in distinct runs, as a caller may build them."""
    groups = [list(grp) for _, grp in itertools.groupby(cycles, key=id)]
    return Solution(tuple((grp[0], len(grp)) for grp in groups))


def mixed_cycles(rng, inst, cycles):
    """The approximate solution's cycles plus bad walks (wrong start or end,
    a step off the graph, a self-loop), and copies of good walks as separate
    objects, shuffled."""
    g, s = inst.graph, inst.v_init
    w = g.neighbors(s)[0]
    bad = [RobotCycle((w, s, w)), RobotCycle((s, g.n, s)), RobotCycle((s, s)),
           RobotCycle((s, w, s, w, s))]
    copies = [RobotCycle(rc.walk) for rc in rng.sample(cycles, min(20, len(cycles)))]
    mixed = list(cycles) + bad * 5 + copies
    rng.shuffle(mixed)
    return tuple(mixed)


@pytest.mark.parametrize("seed", range(3))
def test_approx_equals_per_robot_reference(seed):
    for name, inst in instances(seed):
        g, k = inst.graph, inst.k
        vc = vertex_cover_2approx(g)
        vcp = connect_cover(g, vc, inst.v_init)
        e_ind = even_independent_degrees(g, vcp)
        state = partition_independent_edges(g, vcp, e_ind, k)
        deal_cover_edges(g, vcp, state)
        ref = reference_partition_independent_edges(g, vcp, e_ind, k)
        reference_deal_cover_edges(g, vcp, ref)
        assert len(state.e_i) == min(k, pieces(g, inst.v_init)), name
        assert state.e_i + [Counter()] * (k - len(state.e_i)) == ref.e_i, name
        assert state.pairs_dealt == ref.pairs_dealt, name

        sol = approx_solve(inst, vc)
        assert len(sol.runs) <= len(state.e_i) + 1, name
        assert format_solution(sol) == reference_format_solution(
            reference_approx_solve(inst, vc)
        ), name


@pytest.mark.parametrize("seed", range(3))
def test_text_and_verify_equal_per_robot_reference(seed):
    rng = random.Random(seed)
    for name, inst in instances(seed):
        cycles = robot_cycles(approx_solve(inst, vertex_cover_2approx(inst.graph)))
        for robots in (cycles, mixed_cycles(rng, inst, cycles)):
            candidate = runs_of(robots)
            text = format_solution(candidate)
            assert text == reference_format_solution(RefSolution(robots)), name
            parsed = parse_solution(text)
            assert format_solution(parsed) == text, name
            ref_parsed = reference_parse_solution(text)
            assert robot_cycles(parsed) == ref_parsed.cycles, name
            # one run per maximal group of equal consecutive walks
            assert len(parsed.runs) == len(list(itertools.groupby(rc.walk for rc in robots)))
            for budget in (None, candidate.value - 1):
                checked = with_budget(inst, budget)
                expected = reference_verify_text(checked, RefSolution(robots))
                assert "".join(verify_solution(checked, candidate).text()) == expected, name
                assert "".join(verify_solution(checked, parsed).text()) == reference_verify_text(
                    checked, ref_parsed
                ), name
        wrong_count = with_budget(inst, None)
        short = runs_of(cycles[:-1])
        assert "".join(verify_solution(wrong_count, short).text()) == reference_verify_text(
            wrong_count, RefSolution(cycles[:-1])
        ), name


def test_single_edge_idle_robots_share_one_cycle():
    g = Multigraph(2, [(0, 1)])
    sol = approx_solve(ExplorationInstance(g, 0, 10_000), vertex_cover_2approx(g))
    assert [(rc.walk, count) for rc, count in sol.runs] == [((0, 1, 0), 1), ((0, 1, 0), 9_999)]
    cycles = robot_cycles(sol)
    assert cycles[0].walk == (0, 1, 0)  # the robot dealt the edge itself
    idle = cycles[1]
    assert idle.walk == (0, 1, 0)
    assert all(rc is idle for rc in cycles[1:])
    parsed = parse_solution(format_solution(sol))
    assert [(rc.walk, count) for rc, count in parsed.runs] == [((0, 1, 0), 10_000)]


def test_fresh_multisets_each_get_their_own_walk():
    # each (multiset, count) pair is walked on its own: a generator's Counters
    # die once walked, and nothing may hand a later pair an earlier walk
    g = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    walks = [(0, 1, 0), (0, 2, 0), (0, 1, 2, 0), (0, 3, 0), (0, 1, 2, 0, 3, 0)] * 40
    sol = solution_from_multisets(g.n, 0, ((Counter(walk_edges(w)), 1) for w in walks), 250)
    assert [rc.walk for rc in robot_cycles(sol)] == walks + [(0,)] * 50
    assert sol.runs[-1] == (RobotCycle((0,)), 50)
