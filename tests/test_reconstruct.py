import random
from collections import Counter

import pytest

from cge import euler
from cge.approx import approx_solve
from cge.cover import connect_cover, vertex_cover_2approx
from cge.errors import InfeasibleAllocation
from cge.euler import solution_from_multisets, verify_solution
from cge.exact import exact_optimum
from cge.fptilp import reconstruct
from cge.fptilp.context import FptContext
from cge.fptilp.pairs import solution_pairs
from cge.fptilp.reconstruct import reconstruct_solution
from cge.fptilp.system import (
    IlpSystem,
    build_ilp_system,
    check_assignment,
    format_assignment,
    parse_assignment,
    type_counts,
    witness_from_solution,
)
from cge.fptilp.typespace import (
    CycleType,
    RobotType,
    TypeSpace,
    VertexType,
    copy_neighborhoods,
    cycle_alloc_counts,
    enumerate_type_space,
)
from cge.graphs import (
    EdgeMultiset,
    ExplorationInstance,
    Multigraph,
    relabel_multiset,
    walk_edges,
)
from cge.textio import parse_instance, parse_solution

import reconstruct_reference as per_robot
from conftest import (
    feasibility_conditions_hold,
    random_connected_graph,
    robot_alloc_counts,
    robot_multisets,
    with_budget,
)
from corpus import BUILDABLE, budgeted_system, corpus_cover, random_instances
from test_robot_guard import run_cli, star


def pipeline(g, v_init, k, budget, cover=None):
    inst = ExplorationInstance(g, v_init, k, budget)
    vcp = connect_cover(g, cover or vertex_cover_2approx(g), v_init)
    ctx = FptContext.build(inst, vcp)
    types = enumerate_type_space(ctx)
    system = build_ilp_system(ctx, types)
    return inst, ctx, types, system


def star_witness():
    """A 9-vertex star with 2 robots, budget 8 and cover {0}, and the witness
    of its approximate solution: one robot type, 2 length-2 and 2 length-4
    cycle instances."""
    g = Multigraph(9, [(0, i) for i in range(1, 9)])
    inst, ctx, types, system = pipeline(g, 0, 2, 8, cover=(0,))
    sol = approx_solve(inst, (0,))
    return inst, ctx, types, system, witness_from_solution(
        ctx, types, solution_pairs(ctx, sol), system.variables
    )


class TestReconstruct:
    def test_single_robot_round_trip(self):
        g = Multigraph(2, [(0, 1)])
        inst, ctx, types, system = pipeline(g, 0, 1, 2, cover=(0, 1))
        opt, sol = exact_optimum(inst)
        witness = witness_from_solution(ctx, types, solution_pairs(ctx, sol), system.variables)
        multisets = robot_multisets(reconstruct_solution(ctx, types, system, witness))
        assert multisets == [Counter({(0, 1): 2})]

    def test_rejects_unsatisfying_assignment(self):
        g = Multigraph(2, [(0, 1)])
        inst, ctx, types, system = pipeline(g, 0, 1, 2, cover=(0, 1))
        zero = dict.fromkeys(system.variables, 0)
        with pytest.raises(InfeasibleAllocation):
            reconstruct_solution(ctx, types, system, zero)

    def test_balanced_four_cycle_split(self):
        """Two robots of one type share two length-2 and two length-4 cycle
        instances one of each: the length-2 instances go in blocks of the
        type's count, the length-4 ones round-robin.
        """
        inst, ctx, types, system, witness = star_witness()
        assert check_assignment(system, witness)[0]
        _, rob_counts, cyc_counts = type_counts(types, witness)
        assert rob_counts[1] == 2 == sum(rob_counts)
        lengths = {types.cycle_types[ci].length: count
                   for ci, count in enumerate(cyc_counts) if count}
        assert lengths == {2: 2, 4: 2}
        # leaves 1 and 2 go to the 2-cycles, 3 to 6 to the 4-cycles and 7
        # and 8 to the skeletons, each in robot order
        multisets = robot_multisets(reconstruct_solution(ctx, types, system, witness))
        assert multisets == [Counter({(0, v): 2 for v in leaves})
                             for leaves in ((1, 3, 4, 7), (2, 5, 6, 8))]
        assert feasibility_conditions_hold(inst, multisets, 8)

    def test_tracked_length_instances_go_in_blocks(self):
        """Two robots of a type with two 2-cycles each take the type's four
        2-cycle instances in blocks of two, not round-robin."""
        inst, ctx, types, system, _ = star_witness()
        ri = next(i for i, rt in enumerate(types.robot_types)
                  if len(rt.cc) == 4 and rt.num_of_cyc == (2,))
        ci = next(i for i, ct in enumerate(types.cycle_types)
                  if ct.host == ri and ct.length == 2)
        values = {n: 0 for n in system.variables}
        values.update({"x_ver_0": 8, f"x_rob_{ri}": 2, f"x_cyc_{ci}": 4})
        assert check_assignment(system, values)[0]
        # leaves 1 to 4 go to the 2-cycles, 5 to 8 to the skeletons
        multisets = robot_multisets(reconstruct_solution(ctx, types, system, values))
        assert multisets == [Counter({(0, v): 2 for v in leaves})
                             for leaves in ((1, 2, 5, 6), (3, 4, 7, 8))]
        assert feasibility_conditions_hold(inst, multisets, 8)

    def test_unplaceable_instances_fail_the_check(self):
        """A cycle instance hosted at a robot type without robots, one
        instance of a tracked length too many and one length-4 instance too
        many are refused by the checked rows (eq5, eq5 and eq6), never with
        a KeyError or an IndexError from placing them."""
        inst, ctx, types, system, witness = star_witness()
        _, rob_counts, cyc_counts = type_counts(types, witness)
        idle = next(ci for ci, ct in enumerate(types.cycle_types)
                    if ct.length == 2 and not rob_counts[ct.host])
        used = {types.cycle_types[ci].length: ci for ci, count in enumerate(cyc_counts) if count}
        for ci, tag in ((idle, "eq5"), (used[2], "eq5"), (used[4], "eq6")):
            name = f"x_cyc_{ci}"
            changed = {n: v + (n == name) for n, v in witness.items()}
            violated = check_assignment(system, changed)[1]
            assert tag in {system.constraints[i].tag for i in violated}, name
            with pytest.raises(InfeasibleAllocation):
                reconstruct_solution(ctx, types, system, changed)

    def test_hand_built_assignment_with_cycle_coverage(self):
        """A satisfying assignment never derived from a solution: one robot
        whose skeleton doubles one leaf edge and whose single 2-cycle covers
        the other leaf through the class vertex.
        """
        g = Multigraph(3, [(0, 1), (1, 2)])
        inst, ctx, types, system = pipeline(g, 1, 1, 4, cover=(1,))
        vt = types.vertex_types[0]
        copies = ctx.copies[0]
        slot2 = ctx.cycle_length_slots.index(2)
        ri = next(
            i
            for i, rt in enumerate(types.robot_types)
            if rt.cc == ((1, copies[0]), (1, copies[0]))
            and rt.num_of_cyc[slot2] == 1
            and sum(rt.num_of_cyc) == 1
        )
        star_vertex = ctx.class_vertex[0]
        ci = next(
            i
            for i, ct in enumerate(types.cycle_types)
            if ct.host == ri and ct.cycle == (1, star_vertex, 1)
        )
        values = {n: 0 for n in system.variables}
        values["x_ver_0"] = 2
        values[f"x_rob_{ri}"] = 1
        values[f"x_cyc_{ci}"] = 1
        ok, violated = check_assignment(system, values)
        assert ok, [system.constraints[i] for i in violated]
        multisets = robot_multisets(reconstruct_solution(ctx, types, system, values))
        assert multisets == [Counter({(0, 1): 2, (1, 2): 2})]
        assert feasibility_conditions_hold(inst, multisets, 4)

    def test_round_trip_on_corpus(self):
        rng = random.Random(6100)
        done = 0
        while done < 12:
            g = random_connected_graph(rng, n_max=5, m_max=6)
            v_init = rng.randrange(g.n)
            vcp = connect_cover(g, vertex_cover_2approx(g), v_init)
            classes = {
                tuple(g.neighbors(u))
                for u in range(g.n)
                if u not in vcp
            }
            if len(vcp) > 2 or len(classes) > 3:
                continue
            k = rng.randint(1, 2)
            inst = ExplorationInstance(g, v_init, k)
            opt, sol = exact_optimum(inst)
            inst = with_budget(inst, opt)
            ctx = FptContext.build(inst, vcp)
            types = enumerate_type_space(ctx)
            system = build_ilp_system(ctx, types)
            witness = witness_from_solution(ctx, types, solution_pairs(ctx, sol), system.variables)
            ok, violated = check_assignment(system, witness)
            assert ok, [system.constraints[i] for i in violated]
            runs = reconstruct_solution(ctx, types, system, witness)
            multisets = robot_multisets(runs)
            assert feasibility_conditions_hold(inst, multisets, opt)
            sol = solution_from_multisets(g.n, v_init, runs, k)
            report = verify_solution(inst, sol)
            assert report.ok
            assert report.value <= opt
            done += 1


# ---------------------------------------------------------------------------
# reconstruct_solution against the token-based reference
#
# The functions from `Token` down to `reference_reconstruct_solution` are the
# reconstruction exactly as it was written before the member cursors: every
# allocated slot became a tuple token, the tokens of one (vertex type,
# neighbor multiset) were pooled and sorted ("cyc" before "rob"), and the
# q-th token took the q-th member round-robin.  The cursors must rebuild the
# same multisets, robot for robot.

Token = tuple  # ("rob", robot, t) or ("cyc", cycle type index, instance, t)


def _vertex_types_per_member(
    ctx: FptContext, types: TypeSpace, ver_counts: list[int]
) -> dict[int, VertexType]:
    chosen: dict[int, VertexType] = {}
    for cls_idx, cls in enumerate(ctx.classes):
        pool: list[VertexType] = []
        for vt, count in zip(types.vertex_types, ver_counts):
            if vt.class_id == cls_idx:
                pool.extend([vt] * count)
        if len(pool) != len(cls.members):
            raise InfeasibleAllocation(
                f"class {cls_idx}: {len(pool)} vertex types for {len(cls.members)} members"
            )
        for member, vt in zip(cls.members, pool):
            chosen[member] = vt
    return chosen


def _robot_types_per_robot(
    ctx: FptContext, rob_counts: list[int]
) -> list[int]:
    """The robot type index of every robot, in ascending type order."""
    pool: list[int] = []
    for ri, count in enumerate(rob_counts):
        pool.extend([ri] * count)
    if len(pool) != ctx.k:
        raise InfeasibleAllocation(f"{len(pool)} robot types for {ctx.k} robots")
    return pool


def _token_pools(
    ctx: FptContext,
    types: TypeSpace,
    cyc_counts: list[int],
    robot_of: list[int],
) -> dict[tuple[VertexType, tuple], list[Token]]:
    """All allocation tokens per (vertex type, neighbor multiset).

    A robot allocating a multiset r times contributes tokens (rob, i, 1..r);
    instance j of a cycle type allocating it r times contributes
    (cyc, index, j, 1..r).  Robot tokens come first, each group in ascending
    order.
    """
    pools: dict[tuple[VertexType, tuple], list[Token]] = {}
    for i, ri in enumerate(robot_of):
        for key, r in sorted(robot_alloc_counts(ctx, types.robot_types[ri]).items()):
            for t in range(1, r + 1):
                pools.setdefault(key, []).append(("rob", i, t))
    for ci, (ct, count) in enumerate(zip(types.cycle_types, cyc_counts)):
        if not count:
            continue
        for key, r in sorted(cycle_alloc_counts(ct).items()):
            for j in range(1, count + 1):
                for t in range(1, r + 1):
                    pools.setdefault(key, []).append(("cyc", ci, j, t))
    return pools


def _sub_alloc(
    ctx: FptContext,
    member_type: dict[int, VertexType],
    pools: dict[tuple[VertexType, tuple], list[Token]],
) -> dict[tuple[VertexType, tuple], dict[Token, int]]:
    """Assign every token a target vertex, round-robin over the population of
    the vertex type so each populated vertex gets one of every multiset it
    expects; empty populations fall back to the whole class.
    """
    by_type: dict[VertexType, list[int]] = {}
    for member in sorted(member_type):
        by_type.setdefault(member_type[member], []).append(member)
    out: dict[tuple[VertexType, tuple], dict[Token, int]] = {}
    for (vt, ns), tokens in sorted(pools.items()):
        targets = by_type.get(vt) or list(ctx.classes[vt.class_id].members)
        mapping: dict[Token, int] = {}
        for q, token in enumerate(sorted(tokens)):
            mapping[token] = targets[q % len(targets)]
        out[(vt, ns)] = mapping
    return out


def _transform_skeleton(
    ctx: FptContext,
    i: int,
    rt: RobotType,
    sub_alloc,
) -> EdgeMultiset:
    """Replace every class copy of the skeleton by its allocated vertex."""
    cc = rt.cc_counter()
    nbhds = copy_neighborhoods(ctx, cc)
    alloc_of = dict(rt.alloc)
    groups: dict[tuple[VertexType, tuple], list[int]] = {}
    for copy in sorted(nbhds):
        vt = alloc_of[copy]
        groups.setdefault((vt, nbhds[copy]), []).append(copy)
    replace: dict[int, int] = {}
    for key, copies in groups.items():
        mapping = sub_alloc.get(key)
        if mapping is None:
            raise InfeasibleAllocation(f"no tokens for {key}")
        for t, copy in enumerate(sorted(copies), start=1):
            token = ("rob", i, t)
            if token not in mapping:
                raise InfeasibleAllocation(f"token {token} missing for {key}")
            replace[copy] = mapping[token]
    return relabel_multiset(cc, replace)


def _transform_cycle(
    ctx: FptContext,
    ci: int,
    ct: CycleType,
    j: int,
    sub_alloc,
) -> EdgeMultiset:
    """Replace every class vertex of a cycle instance by its allocated vertex."""
    cyc = ct.cycle
    positions = [
        pos
        for pos in range(1, len(cyc) - 1)
        if cyc[pos] in ctx.class_of_star_vertex
    ]
    # expand the stored multiset allocation to positions: inside each
    # (class, pair) group positions take types in canonical order
    per_group_types: dict[tuple[int, tuple], list[VertexType]] = {}
    for ns, vt in sorted(ct.pa_alloc):
        per_group_types.setdefault((vt.class_id, ns), []).append(vt)
    group_pos: dict[tuple[int, tuple], list[int]] = {}
    for pos in positions:
        cls = ctx.class_of_star_vertex[cyc[pos]]
        ns = tuple(sorted((cyc[pos - 1], cyc[pos + 1])))
        group_pos.setdefault((cls, ns), []).append(pos)
    replace_at: dict[int, int] = {}
    for key, poss in sorted(group_pos.items()):
        vts = per_group_types.get(key, [])
        if len(vts) != len(poss):
            raise InfeasibleAllocation(f"allocation arity mismatch at {key}")
        t_counter: Counter = Counter()
        for pos, vt in zip(sorted(poss), vts):
            ns = key[1]
            t_counter[(vt, ns)] += 1
            token = ("cyc", ci, j, t_counter[(vt, ns)])
            mapping = sub_alloc.get((vt, ns))
            if mapping is None or token not in mapping:
                raise InfeasibleAllocation(f"token {token} missing for {(vt, ns)}")
            replace_at[pos] = mapping[token]
    walk = list(cyc)
    for pos, vertex in replace_at.items():
        walk[pos] = vertex
    return walk_edges(walk)


def reference_reconstruct_solution(
    ctx: FptContext,
    types: TypeSpace,
    system: IlpSystem,
    assignment: dict[str, int],
) -> list[EdgeMultiset]:
    """Turn a satisfying assignment into k edge multisets meeting the
    feasibility conditions with value at most the budget.
    """
    ok, violated = check_assignment(system, assignment)
    if not ok:
        raise InfeasibleAllocation(f"assignment violates constraints {violated}")
    ver_counts, rob_counts, cyc_counts = type_counts(types, assignment)
    member_type = _vertex_types_per_member(ctx, types, ver_counts)
    robot_of = _robot_types_per_robot(ctx, rob_counts)
    pools = _token_pools(ctx, types, cyc_counts, robot_of)
    sub_alloc = _sub_alloc(ctx, member_type, pools)

    multisets = [
        _transform_skeleton(ctx, i, types.robot_types[ri], sub_alloc)
        for i, ri in enumerate(robot_of)
    ]
    cycle_owner = per_robot._allocate_cycles_to_robots(ctx, types, cyc_counts, robot_of)
    for ci, ct in enumerate(types.cycle_types):
        for inst in range(1, cyc_counts[ci] + 1):
            owner = cycle_owner.get((ci, inst))
            if owner is None:
                raise InfeasibleAllocation(
                    f"cycle instance {(ci, inst)} was never allocated"
                )
            multisets[owner] += _transform_cycle(ctx, ci, ct, inst, sub_alloc)
    return multisets


# HiGHS needs up to 14 s on the largest slack system (187 062 variables); the
# systems above this size are left to test_milp_oracle at the optimum
MAX_MILP_VARIABLES = 30_000


def assert_runs_match_per_robot(runs, ctx, types, system, assignment):
    """The runs expand robot by robot to the per-robot reconstruction, and
    every run is maximal: no two consecutive runs hold equal multisets."""
    expected = per_robot.reconstruct_solution(ctx, types, system, assignment)
    assert robot_multisets(runs) == expected
    assert all(count > 0 for _, count in runs)
    assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))


def assert_matches_reference(inst, ctx, types, system, assignment):
    """Both reconstructions agree, and the result is a verified solution
    within the system's budget."""
    runs = reconstruct_solution(ctx, types, system, assignment)
    multisets = robot_multisets(runs)
    assert multisets == reference_reconstruct_solution(ctx, types, system, assignment)
    assert_runs_match_per_robot(runs, ctx, types, system, assignment)
    g = inst.graph
    report = verify_solution(
        with_budget(inst, ctx.budget),
        solution_from_multisets(g.n, inst.v_init, runs, inst.k),
    )
    assert report.ok
    assert report.value <= ctx.budget


def corpus_instance(path):
    inst = parse_instance(path.read_text())
    return inst, corpus_cover(inst)


def random_instance(n, edges, start, k, cover):
    inst = ExplorationInstance(Multigraph(n, edges), start, k)
    return inst, cover


@pytest.mark.parametrize("path", BUILDABLE, ids=lambda p: p.stem)
def test_witness_matches_reference(path):
    """The witness of an exact solution at the optimum (about 2 s in all)."""
    inst, vcp = corpus_instance(path)
    opt, sol = exact_optimum(inst)
    ctx, types, system = budgeted_system(inst, vcp, opt)
    witness = witness_from_solution(ctx, types, solution_pairs(ctx, sol), system.variables)
    assert_matches_reference(inst, ctx, types, system, witness)


MILP_CASES = [
    pytest.param(corpus_instance, (p,), id=p.stem) for p in BUILDABLE
] + [
    pytest.param(random_instance, prm.values, id=prm.id)
    for prm in random_instances(2917, 10)
]


@pytest.mark.parametrize("slack", [0, 1])
@pytest.mark.parametrize("make,args", MILP_CASES)
def test_milp_assignment_matches_reference(make, args, slack):
    """HiGHS's own assignment at the optimum and one above it, which no
    derived witness reaches (about 4 s in all with scipy; skipped without)."""
    pytest.importorskip("scipy.optimize")
    from test_milp_oracle import solve

    inst, vcp = make(*args)
    opt, _ = exact_optimum(inst)
    ctx, types, system = budgeted_system(inst, vcp, opt + slack)
    if len(system.variables) > MAX_MILP_VARIABLES:
        pytest.skip(f"{len(system.variables)} variables exceed {MAX_MILP_VARIABLES}")
    values = solve(system)
    assert values is not None, f"infeasible at budget {opt + slack}"
    assignment = dict(zip(system.variables, values))
    assert_matches_reference(inst, ctx, types, system, assignment)


@pytest.mark.parametrize("path", BUILDABLE, ids=lambda p: p.stem)
def test_approx_witness_matches_reference(path):
    """The witness of the approximate solution at the file's budget, where
    that solution verifies; elsewhere only the budget check fails."""
    inst, vcp = corpus_instance(path)
    sol = approx_solve(inst, vertex_cover_2approx(inst.graph))
    checked = verify_solution(inst, sol)
    if not checked.ok:
        assert checked.budget_ok is False
        assert verify_solution(with_budget(inst, None), sol).ok
        return
    ctx, types, system = budgeted_system(inst, vcp, inst.budget)
    witness = witness_from_solution(ctx, types, solution_pairs(ctx, sol), system.variables)
    assert check_assignment(system, witness)[0]
    assert_matches_reference(inst, ctx, types, system, witness)


def population_instance(seed):
    """A seeded instance and a solution of it whose vertex types have at
    most 3 members, often 2 or 3, so that robots of one type draw differing
    members in turn.

    Odd seeds give a star with 3 leaves, whose leaves form one type and whose
    robots carry 2-cycles; even seeds give two adjacent centres sharing 2 or 3
    leaves, whose leaves split into types by the walks through them.  Every
    robot walks at most 4 edges and the walks cover the graph.
    """
    rng = random.Random(seed)
    while True:
        k = rng.randint(3, 6)
        if seed % 2:
            n, centres = 4, (0,)
            edges = [(0, 1), (0, 2), (0, 3)]
            shapes = [(0, "v", 0), (0, "v", 0, "w", 0), (0,)]
        else:
            n, centres = 2 + rng.randint(2, 3), (0, 1)
            edges = [(0, 1)] + [(c, v) for v in range(2, n) for c in (0, 1)]
            shapes = [(0, "v", 0), (0, "v", 1, 0), (0, 1, "v", 1, 0), (0, 1, 0),
                      (0, "v", 1, "w", 0)]
        leaves = range(len(centres), n)
        walks = []
        for _ in range(k):
            v, w = rng.sample(leaves, 2)
            shape = rng.choice(shapes)
            walks.append(tuple({"v": v, "w": w}.get(x, x) for x in shape))
        g = Multigraph(n, edges)
        if {e for walk in walks for e in walk_edges(walk)} == set(g.edges):
            break
    budget = max(len(walk) - 1 for walk in walks)
    inst = ExplorationInstance(g, 0, k, budget)
    sol = solution_from_multisets(n, 0, [(walk_edges(walk), 1) for walk in walks], k)
    return inst, centres, sol


POPULATION_SEEDS = range(12)


@pytest.mark.parametrize("seed", POPULATION_SEEDS)
def test_small_populations_match_reference(seed):
    inst, cover, sol = population_instance(seed)
    vcp = connect_cover(inst.graph, cover, inst.v_init)
    ctx, types, system = budgeted_system(inst, vcp, inst.budget)
    witness = witness_from_solution(ctx, types, solution_pairs(ctx, sol), system.variables)
    assert check_assignment(system, witness)[0]
    assert_matches_reference(inst, ctx, types, system, witness)


def test_small_populations_both_differ_and_repeat():
    """The seeds above rebuild robots of one type that share a run, robots
    whose multisets differ, and equal multisets with another run between."""
    shared = differ = apart = False
    for seed in POPULATION_SEEDS:
        inst, cover, sol = population_instance(seed)
        vcp = connect_cover(inst.graph, cover, inst.v_init)
        ctx, types, system = budgeted_system(inst, vcp, inst.budget)
        witness = witness_from_solution(ctx, types, solution_pairs(ctx, sol), system.variables)
        runs = reconstruct_solution(ctx, types, system, witness)
        shared |= any(count > 1 for _, count in runs)
        differ |= len(runs) > 1
        apart |= any(a == b for i, (a, _) in enumerate(runs) for b, _ in runs[i + 2:])
    assert shared and differ and apart


def test_walks_once_per_run_and_builds_each_skeleton_once(tmp_path, monkeypatch):
    """A 1000-robot star rebuilds as 2 runs: 2 Eulerian walks, and one
    copy-neighbourhood pass per robot type in use."""
    ilp, assign, inst = star(tmp_path, 1000)
    in_use = sum(
        1 for name, value in parse_assignment(assign.read_text()).items()
        if name.startswith("x_rob_") and value
    )
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(euler, "find_eulerian_cycle")
    counted(reconstruct, "copy_neighborhoods")
    code, out, err = run_cli("reconstruct", ilp, assign, inst)
    assert code == 0, err
    assert len(parse_solution(out).runs) == 2
    assert calls == {"find_eulerian_cycle": 2, "copy_neighborhoods": in_use}


def test_unsatisfying_assignment_is_a_no_through_the_cli(tmp_path):
    """A well-formed assignment that fails the check prints one line and
    exits 1; the check inside `reconstruct_solution` is the one that runs."""
    ilp, assign, inst = star(tmp_path, 2)
    zero = dict.fromkeys(parse_assignment(assign.read_text()), 0)
    assign.write_text(format_assignment(zero))
    assert run_cli("reconstruct", ilp, assign, inst) == (
        1, "assignment does not satisfy the system\n", "")


def test_cycle_instance_guard_trips_through_the_cli(tmp_path, monkeypatch):
    """The 9-vertex star's witness holds 4 cycle instances: at a limit of 4
    `reconstruct` rebuilds it, at 3 it exits 3 before drawing any."""
    inst = tmp_path / "star.cge"
    inst.write_text("cge 1\nnodes 9\ninit 0\nrobots 2\nbudget 8\n"
                    + "".join(f"edge 0 {i}\n" for i in range(1, 9)))
    sol, ilp, assign = (tmp_path / f"star.{ext}" for ext in ("sol", "ilp", "assign"))
    sol.write_text(run_cli("solve-approx", inst, "--vc", 0)[1])
    assert run_cli("derive-witness", inst, sol, "-o", assign, "--vc", 0)[0] == 0
    assert run_cli("build-ilp", inst, "-o", ilp, "--vc", 0)[0] == 0
    monkeypatch.setattr(reconstruct, "MAX_CYCLE_INSTANCES", 4)
    code, out, err = run_cli("reconstruct", ilp, assign, inst, "--vc", 0)
    assert (code, err) == (0, "") and len(parse_solution(out).runs) == 2
    monkeypatch.setattr(reconstruct, "MAX_CYCLE_INSTANCES", 3)
    assert run_cli("reconstruct", ilp, assign, inst, "--vc", 0) == (
        3, "", "resource guard: reconstruction needs 4 cycle instances, limit 3\n")
