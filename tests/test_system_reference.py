"""The equation-system builder and the host relation against naive scans.

Seeded random stars and double stars (cover at most 2) at budget = exact
optimum, optimum + 1 and optimum + 2.  Every eq3 to eq6 row is recomputed
here by scanning all robot and cycle types per row, the way the equations
are defined, and compared term for term with the built system.  The hosts of
every (cycle, allocation) are exactly the robot types whose skeleton shares
a cover vertex with the cycle, and the three type tables are strictly
increasing, which the witness lookup relies on.  At the optimum, the witness
of the exact solution must satisfy the system and reconstruct into a
verified solution.
"""

import pytest

from cge.euler import solution_from_multisets, verify_solution
from cge.exact import exact_optimum
from cge.fptilp.context import FptContext
from cge.fptilp.pairs import solution_pairs
from cge.fptilp.reconstruct import reconstruct_solution
from cge.fptilp.system import build_ilp_system, check_assignment, witness_from_solution
from cge.fptilp.typespace import cycle_alloc_counts, enumerate_type_space, robot_cycbud
from cge.graphs import ExplorationInstance, Multigraph, walk_edges

from conftest import robot_alloc_counts, term_pairs
from corpus import random_instances


def naive_rows(ctx, types):
    """eq3..eq6 rows, each by a full scan of the type space."""
    n_ver, n_rob = len(types.vertex_types), len(types.robot_types)
    rob_allocs = [robot_alloc_counts(ctx, rt) for rt in types.robot_types]
    cyc_allocs = [cycle_alloc_counts(ct) for ct in types.cycle_types]
    rows = {"eq3": [], "eq4": [], "eq5": [], "eq6": []}
    for vi, vt in enumerate(types.vertex_types):
        for ns in vt.nei_subsets:
            terms = [(-1, vi)]
            terms += [(a[(vt, ns)], n_ver + ri) for ri, a in enumerate(rob_allocs) if a[(vt, ns)]]
            terms += [
                (a[(vt, ns)], n_ver + n_rob + ci) for ci, a in enumerate(cyc_allocs) if a[(vt, ns)]
            ]
            rows["eq3"].append(terms)
    for e in ctx.g.edges:
        if e[0] in ctx.cover_set and e[1] in ctx.cover_set:
            terms = [(1, n_ver + ri) for ri, rt in enumerate(types.robot_types) if e in rt.cc]
            terms += [
                (1, n_ver + n_rob + ci)
                for ci, ct in enumerate(types.cycle_types)
                if e in walk_edges(ct.cycle)
            ]
            rows["eq4"].append(terms)
    for ri, rt in enumerate(types.robot_types):
        hosted = [(ci, ct.length) for ci, ct in enumerate(types.cycle_types) if ct.host == ri]
        for slot, j in enumerate(ctx.cycle_length_slots):
            terms = [(-rt.num_of_cyc[slot], n_ver + ri)] if rt.num_of_cyc[slot] else []
            terms += [(1, n_ver + n_rob + ci) for ci, length in hosted if length == j]
            rows["eq5"].append(terms)
        cycbud = robot_cycbud(ctx, rt)
        terms = [(-cycbud, n_ver + ri)] if cycbud else []
        terms += [(4, n_ver + n_rob + ci) for ci, length in hosted if length == 4]
        rows["eq6"].append(terms)
    return rows


def built_system(g, start, k, budget, cover):
    ctx = FptContext.build(ExplorationInstance(g, start, k, budget), cover)
    types = enumerate_type_space(ctx)
    return ctx, types, build_ilp_system(ctx, types)


def assert_matches_naive_scans(ctx, types, system):
    hosts = {}
    for ct in types.cycle_types:
        hosts.setdefault((ct.cycle, ct.pa_alloc), []).append(ct.host)
    for (cycle, _), found in hosts.items():
        assert found == [
            ri
            for ri, rt in enumerate(types.robot_types)
            if {v for e in rt.cc for v in e} & set(cycle) & ctx.cover_set
        ]
    for table in (types.vertex_types, types.robot_types, types.cycle_types):
        assert all(a < b for a, b in zip(table, table[1:]))
    for tag, rows in naive_rows(ctx, types).items():
        built = [list(term_pairs(c.terms)) for c in system.constraints if c.tag == tag]
        assert built == rows, tag


@pytest.mark.parametrize("n,edges,start,k,cover", random_instances(7309, 30))
def test_builder_and_host_table_match_naive_scans(n, edges, start, k, cover):
    g = Multigraph(n, edges)
    opt, sol = exact_optimum(ExplorationInstance(g, start, k))
    # above the optimum, one skeleton can carry several allocations and
    # cycle-count vectors, whose robot types join the rows as runs
    for budget in (opt + 1, opt + 2):
        assert_matches_naive_scans(*built_system(g, start, k, budget, cover))
    ctx, types, system = built_system(g, start, k, opt, cover)
    assert_matches_naive_scans(ctx, types, system)

    witness = witness_from_solution(ctx, types, solution_pairs(ctx, sol), system.variables)
    ok, violated = check_assignment(system, witness)
    assert ok, [system.constraints[i] for i in violated]
    runs = reconstruct_solution(ctx, types, system, witness)
    inst = ExplorationInstance(g, start, k, opt)
    report = verify_solution(inst, solution_from_multisets(n, start, runs, k))
    assert report.ok
    assert report.value <= opt
