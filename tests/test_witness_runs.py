"""The witness works once per run and agrees with the per-robot reference.

`witness_reference` keeps the per-robot derivation verbatim.  Both versions
must give the same assignment, or fail with the same error, on the exact
solutions of the corpus, on its approximate solutions that verify, and on
seeded solutions whose runs hold several robots and repeat a walk in runs
that are not adjacent.  Decomposition runs once per run, not per robot.

Decomposed solutions of these small instances never place an independent
vertex between a greater and a lesser neighbour on a cycle, so random pairs,
which do, check the three derivations on their own.
"""

import itertools
import random

import pytest

import witness_reference as ref
from cge.approx import approx_solve
from cge.cover import vertex_cover_2approx
from cge.errors import CgeError, TypeSpaceTooLarge
from cge.euler import RobotCycle, Solution, solution_from_multisets, verify_solution
from cge.exact import exact_optimum
from cge.fptilp import pairs
from cge.fptilp.context import FptContext
from cge.fptilp.pairs import ValidPair, canonical_cycle, freeze_multiset, solution_pairs
from cge.fptilp.reconstruct import reconstruct_solution
from cge.fptilp.system import check_assignment, variable_names, witness_from_solution
from cge.fptilp.typespace import derive_cycle_type, derive_robot_type, derive_vertex_types
from cge.graphs import ExplorationInstance, Multigraph
from cge.textio import parse_instance

from corpus import BUILDABLE, budgeted_system, corpus_cover, random_instances


def outcome(fn):
    """What fn() returns, or its error's class and message."""
    try:
        return fn()
    except CgeError as exc:
        return type(exc).__name__, str(exc)


def assert_same_witness(ctx, types, sol):
    new = outcome(lambda: witness_from_solution(
        ctx, types, solution_pairs(ctx, sol), variable_names(types)
    ))
    old = outcome(
        lambda: ref.witness_from_solution(
            ctx, types, ref.solution_pairs(ctx, ref.Solution(sol.runs))
        )
    )
    assert new == old
    if isinstance(new, dict):  # `==` on dicts ignores the order of their items
        assert list(new.items()) == list(old.items())
    return new


def test_decompose_runs_once_per_run(monkeypatch):
    g = Multigraph(3, [(0, 1), (0, 2)])
    inst = ExplorationInstance(g, 0, 1000, 4)
    ctx, types, system = budgeted_system(inst, (0,), 4)
    sol = Solution(((RobotCycle((0, 1, 0)), 500), (RobotCycle((0, 2, 0)), 500)))
    assert verify_solution(inst, sol).ok
    calls = []
    decompose = pairs.decompose_valid_pair

    def counted(*args):
        calls.append(args)
        return decompose(*args)

    monkeypatch.setattr(pairs, "decompose_valid_pair", counted)
    witness = witness_from_solution(ctx, types, solution_pairs(ctx, sol), system.variables)
    assert len(calls) == 2
    assert check_assignment(system, witness)[0]
    assert sum(v for name, v in witness.items() if name.startswith("x_rob_")) == 1000


@pytest.mark.parametrize("path", BUILDABLE, ids=lambda p: p.stem)
def test_corpus_solutions_match_reference(path):
    """The exact solution at the optimum, and the approximate one at the
    file's budget when it verifies there, as `derive-witness` requires."""
    inst = parse_instance(path.read_text())
    vcp = corpus_cover(inst)
    opt, exact = exact_optimum(inst)
    ctx, types, system = budgeted_system(inst, vcp, opt)
    witness = assert_same_witness(ctx, types, exact)
    assert check_assignment(system, witness)[0]

    approx = approx_solve(inst, vertex_cover_2approx(inst.graph))
    if verify_solution(inst, approx).ok:
        ctx, types, _ = budgeted_system(inst, vcp, inst.budget)
        assert_same_witness(ctx, types, approx)


def test_approx_solutions_that_verify_are_compared():
    verified = 0
    for path in BUILDABLE:
        inst = parse_instance(path.read_text())
        verified += verify_solution(inst, approx_solve(inst, vertex_cover_2approx(inst.graph))).ok
    assert verified >= 10


def shuffled_runs(rng, sol, start):
    """Every walk of `sol` plus the idle walk, twice over in a shuffled
    order, each run taken by 1 to 3 robots."""
    walks = [rc for rc, _ in sol.runs] + [RobotCycle((start,))]
    order = walks + walks
    rng.shuffle(order)
    return Solution(tuple((rc, rng.randint(1, 3)) for rc in order))


def test_seeded_runs_match_reference():
    rng = random.Random(1701)
    apart = several = 0
    for param in random_instances(1701, 24):
        n, edges, start, k, cover = param.values
        g = Multigraph(n, edges)
        opt, exact = exact_optimum(ExplorationInstance(g, start, k))
        sol = shuffled_runs(rng, exact, start)
        robots = sum(count for _, count in sol.runs)
        inst = ExplorationInstance(g, start, robots, opt)
        ctx, types, system = budgeted_system(inst, cover, opt)
        witness = assert_same_witness(ctx, types, sol)
        assert check_assignment(system, witness)[0], param.id

        per_robot = ref.solution_pairs(ctx, ref.Solution(sol.runs))
        vtypes = derive_vertex_types(ctx, per_robot)
        for u in range(n):
            if u in ctx.cover_set:
                assert u not in vtypes
                with pytest.raises(ref.NotIndependent):
                    ref.derive_vertex_type(ctx, u, per_robot)
            else:
                assert vtypes[u] == ref.derive_vertex_type(ctx, u, per_robot)

        walks = [rc for rc, _ in sol.runs]
        several += any(count > 1 for _, count in sol.runs)
        apart += any(rc in walks[i + 2:] for i, rc in enumerate(walks))
    assert several >= 20 and apart >= 20


def test_missing_type_names_the_first_robot_of_its_run():
    """A walk above the budget has no robot type; the error names the run's
    first robot, as the per-robot version named that robot."""
    g = Multigraph(3, [(0, 1), (0, 2)])
    inst = ExplorationInstance(g, 0, 5, 2)
    ctx, types, _ = budgeted_system(inst, (0,), 2)
    sol = Solution(((RobotCycle((0, 1, 0)), 3), (RobotCycle((0, 1, 0, 2, 0)), 2)))
    assert assert_same_witness(ctx, types, sol) == (
        "DomainMismatch", "derived robot type of robot 3 missing from the space"
    )


def random_closed_walk(rng, g, start):
    """A random closed walk from `start` with 2 to 8 steps."""
    while True:
        walk = [start, rng.choice(g.neighbors(start))]
        while walk[-1] != start and len(walk) <= 8:
            walk.append(rng.choice(g.neighbors(walk[-1])))
        if walk[-1] == start:
            return tuple(walk)


def random_pairs(rng, ctx):
    """One to four pairs: a doubled random subset of the edges at the start
    as the skeleton, and up to three random canonical cycles.  Derivation
    does not check that a pair is valid."""
    g, cover = ctx.g, sorted(ctx.cover_set)
    at_start = [e for e in g.edges if ctx.v_init in e]
    out = []
    for _ in range(rng.randint(1, 4)):
        cc = {e: 2 for e in rng.sample(at_start, rng.randint(1, len(at_start)))}
        cycles = tuple(sorted(
            canonical_cycle(random_closed_walk(rng, g, rng.choice(cover)), ctx.cover_set)
            for _ in range(rng.randint(0, 3))
        ))
        out.append(ValidPair(freeze_multiset(cc), cycles))
    return out


def test_random_samplederive_as_reference():
    rng = random.Random(17)
    descending = 0
    for param in random_instances(1717, 30):
        n, edges, start, k, cover = param.values
        inst = ExplorationInstance(Multigraph(n, edges), start, k, 8)
        ctx = FptContext.build(inst, cover)
        for _ in range(5):
            sample = random_pairs(rng, ctx)
            vtypes = derive_vertex_types(ctx, sample)
            for u in range(n):
                if u not in ctx.cover_set:
                    assert vtypes[u] == ref.derive_vertex_type(ctx, u, sample)
            for i, pair in enumerate(sample):
                assert outcome(lambda: derive_robot_type(ctx, pair, vtypes)) == outcome(
                    lambda: ref.derive_robot_type(ctx, i, sample)
                )
                for cyc in pair.cycles:
                    assert derive_cycle_type(ctx, i, cyc, vtypes) == ref.derive_cycle_type(
                        ctx, i, cyc, sample
                    )
                    descending += any(
                        cyc[pos] not in ctx.cover_set and cyc[pos - 1] > cyc[pos + 1]
                        for pos in range(1, len(cyc) - 1)
                    )
    assert descending >= 20


def connected_graphs(n):
    """Every connected simple graph on vertices 0..n-1, labelled."""
    pairs = list(itertools.combinations(range(n), 2))
    for size in range(n - 1, len(pairs) + 1):
        for edges in itertools.combinations(pairs, size):
            g = Multigraph(n, edges)
            if len(g.components()) == 1:
                yield g


def test_approx_solutions_of_small_graphs_round_trip():
    """Every connected graph on 2 to 4 vertices, every start, 1 to 3 robots,
    budget the approximate value: the approximate solution derives a
    satisfying witness, and the witness rebuilds a solution that verifies.
    Some approximate walks take an edge three or more times; their pairs
    decompose the walk with each multiplicity cut to 1 or 2."""
    built = heavy = 0
    for n in range(2, 5):
        for g, start, k in itertools.product(connected_graphs(n), range(n), range(1, 4)):
            sol = approx_solve(ExplorationInstance(g, start, k), vertex_cover_2approx(g))
            inst = ExplorationInstance(g, start, k, sol.value)
            try:
                ctx, types, system = budgeted_system(inst, corpus_cover(inst), sol.value)
            except TypeSpaceTooLarge:
                continue
            built += 1
            heavy += any(m > 2 for rc, _ in sol.runs for m in rc.edge_multiset().values())
            witness = witness_from_solution(ctx, types, solution_pairs(ctx, sol), system.variables)
            assert check_assignment(system, witness)[0], (g, start, k)
            runs = reconstruct_solution(ctx, types, system, witness)
            rebuilt = solution_from_multisets(n, start, runs, k)
            assert verify_solution(inst, rebuilt).ok, (g, start, k)
    assert (built, heavy) == (108, 18)
