"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary.  Every tolerance is exact; zero violations are allowed anywhere.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import time
from pathlib import Path

import pytest

from cge.approx import approx_solve
from cge.cli import main as cli_main
from cge.cover import connect_cover, vertex_cover_2approx
from cge.euler import find_eulerian_cycle, solution_from_multisets, verify_solution
from cge.exact import exact_decide, exact_optimum
from cge.fptilp.context import FptContext
from cge.fptilp.pairs import pair_source, solution_pairs
from cge.fptilp.reconstruct import reconstruct_solution
from cge.fptilp.system import build_ilp_system, check_assignment, witness_from_solution
from cge.fptilp.typespace import enumerate_type_space
from cge.graphs import ExplorationInstance, Multigraph
from cge.hardness import BinPackingInstance, bin_to_rob, binpacking_to_exact, brute_binpacking

from conftest import (
    check_valid_pair,
    feasibility_conditions_hold,
    random_connected_graph,
    random_even_multiset,
    robot_multisets,
    with_budget,
)
from corpus import corpus_cover, corpus_instances

DATA = Path(__file__).parent / "data"
CORPUS_DIR = DATA / "corpus"
CLI_DIGESTS = DATA / "cli_digests.json"


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def star(leaves):
    return Multigraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_criterion_1_closed_forms():
    """Closed-form oracle agreement on stars, cycles, and paths."""
    t0 = time.time()
    for leaves in range(1, 6):
        for k in range(1, 4):
            opt, sol = exact_optimum(ExplorationInstance(star(leaves), 0, k))
            assert opt == 2 * -(-leaves // k), (leaves, k)
    for n in range(3, 7):
        g = Multigraph(n, [(i, (i + 1) % n) for i in range(n)])
        opt, _ = exact_optimum(ExplorationInstance(g, 0, 1))
        assert opt == n
    for n in range(2, 6):
        g = Multigraph(n, [(i, i + 1) for i in range(n - 1)])
        opt, _ = exact_optimum(ExplorationInstance(g, 0, 1))
        assert opt == 2 * (n - 1)
    elapsed = time.time() - t0
    assert elapsed < 10
    report(1, f"stars/cycles/paths match closed forms exactly ({elapsed:.1f}s)")


def test_criterion_2_approximation_bound():
    """Additive bound over >= 300 random instances, zero violations."""
    t0 = time.time()
    rng = random.Random(20240)
    checked = 0
    for _ in range(300):
        g = random_connected_graph(rng, n_max=7, m_max=10)
        k = rng.randint(1, 3)
        inst = ExplorationInstance(g, rng.randrange(g.n), k)
        vc = vertex_cover_2approx(g)
        sol = approx_solve(inst, vc)
        assert verify_solution(inst, sol).ok
        vcp = connect_cover(g, vc, inst.v_init)
        opt, _ = exact_optimum(inst)
        assert sol.value <= opt + 2 * len(vcp), (sol.value, opt, len(vcp))
        checked += 1
    elapsed = time.time() - t0
    assert checked >= 300
    assert elapsed < 120
    report(2, f"{checked} instances within optimum + 2|cover'| ({elapsed:.1f}s)")


def test_criterion_3_eulerian_exactness():
    """500 random even multigraphs: every edge used exactly its multiplicity."""
    rng = random.Random(2024)
    for _ in range(500):
        g, ms = random_even_multiset(rng, n_max=8, total_max=24)
        start = g.edges[0][0]
        rc = find_eulerian_cycle(ms, start)
        assert rc.walk[0] == rc.walk[-1] == start
        assert rc.edge_multiset() == ms
    report(3, "500 even multigraphs traversed edge-exactly")


def test_criterion_4_hardness_equivalence():
    """Exact bin packing answers equal tree-exploration answers, exhaustively."""
    t0 = time.time()
    checked = 0
    for n_items in range(1, 4):
        for sizes in itertools.product((1, 2, 3), repeat=n_items):
            total = sum(sizes)
            for k in (1, 2):
                if total % k:
                    continue
                inst = BinPackingInstance(tuple(sizes), total // k, k, exact=True)
                expected = brute_binpacking(inst)
                got, witness = exact_decide(bin_to_rob(inst))
                assert got == expected, (sizes, k)
                if got:
                    rob = bin_to_rob(inst)
                    assert verify_solution(rob, witness).ok
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    report(4, f"{checked} exact instances agree with the tree reduction ({elapsed:.1f}s)")


def test_criterion_5_reduction_chain():
    """Padding to exact semantics preserves yes answers, exhaustively."""
    checked = 0
    for n_items in range(1, 5):
        for sizes in itertools.product(range(1, 5), repeat=n_items):
            total = sum(sizes)
            for k in range(1, 4):
                for capacity in range(1, 13):
                    if not (total <= capacity * k <= 12):
                        continue
                    plain = BinPackingInstance(tuple(sizes), capacity, k)
                    assert brute_binpacking(plain) == brute_binpacking(
                        binpacking_to_exact(plain)
                    ), (sizes, capacity, k)
                    checked += 1
    report(5, f"{checked} padded instances keep their answers")


@pytest.fixture(scope="module")
def corpus_artifacts():
    """Oracle solutions, contexts, systems, and witnesses for the corpus."""
    artifacts = []
    for name, inst in corpus_instances():
        vcp = corpus_cover(inst)
        opt, sol = exact_optimum(inst)
        budgeted = with_budget(inst, opt)
        ctx = FptContext.build(budgeted, vcp)
        types = enumerate_type_space(ctx)
        system = build_ilp_system(ctx, types)
        pairs = solution_pairs(ctx, sol)
        for (rc, _), (pair, _) in zip(sol.runs, pairs):
            source = pair_source(ctx, rc.edge_multiset())
            assert check_valid_pair(ctx, pair, source) == [], name
        artifacts.append((name, budgeted, ctx, types, system, pairs, opt))
    return artifacts


def test_criterion_6_forward_direction(corpus_artifacts):
    """Witness counting satisfies the equation system on all 30 instances."""
    assert len(corpus_artifacts) == 30
    for name, inst, ctx, types, system, pairs, opt in corpus_artifacts:
        assert len(ctx.vcp) <= 2 and inst.graph.n <= 6, name
        witness = witness_from_solution(ctx, types, pairs, system.variables)
        ok, violated = check_assignment(system, witness)
        assert ok, (name, [system.constraints[i] for i in violated])
    report(6, "30 corpus witnesses satisfy their systems")


def test_criterion_7_backward_direction(corpus_artifacts):
    """Reconstruction from each witness yields feasible multisets within budget."""
    for name, inst, ctx, types, system, pairs, opt in corpus_artifacts:
        witness = witness_from_solution(ctx, types, pairs, system.variables)
        runs = reconstruct_solution(ctx, types, system, witness)
        multisets = robot_multisets(runs)
        assert feasibility_conditions_hold(inst, multisets, opt), name
        rebuilt = solution_from_multisets(inst.graph.n, inst.v_init, runs, inst.k)
        rep = verify_solution(inst, rebuilt)
        assert rep.ok and rebuilt.value <= opt, name
    report(7, "30 reconstructions verify within budget")


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_digests(tmp_path):
    """Run every command twice on every corpus file, assert the two runs agree,
    and return the sha256 of each stdout and each -o file, keyed by the
    command line with paths reduced to file names.
    """
    cge_files = sorted(CORPUS_DIR.glob("*.cge"))
    bp_files = sorted(CORPUS_DIR.glob("*.binpack"))
    assert len(cge_files) == 31 and len(bp_files) == 3
    digests = {}

    def pin(key, data):
        digests[key] = hashlib.sha256(
            data if isinstance(data, bytes) else data.encode("utf-8")
        ).hexdigest()

    def twice(*argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second, argv
        pin(" ".join(Path(a).name for a in argv), first[1])
        return first

    guard = CORPUS_DIR / "guard-c4.cge"
    for f in cge_files:
        if f == guard:
            continue
        code, solve_out, _ = twice("solve-exact", str(f))
        assert code == 0
        twice("solve-approx", str(f))
        sol_file = tmp_path / (f.stem + ".sol")
        sol_file.write_text(solve_out.split("\n", 1)[1] if solve_out.startswith("yes") else solve_out)
        code, _, _ = twice("verify", str(f), str(sol_file))
        assert code == 0
        ilp_file = tmp_path / (f.stem + ".ilp")
        code, _, _ = twice("build-ilp", str(f), "-o", str(ilp_file))
        assert code == 0
        ilp_first = ilp_file.read_bytes()
        twice("build-ilp", str(f), "-o", str(ilp_file))
        assert ilp_file.read_bytes() == ilp_first
        pin(ilp_file.name, ilp_first)
        assign_file = tmp_path / (f.stem + ".assign")
        code, _, _ = twice("derive-witness", str(f), str(sol_file), "-o", str(assign_file))
        assert code == 0
        assign_first = assign_file.read_bytes()
        twice("derive-witness", str(f), str(sol_file), "-o", str(assign_file))
        assert assign_file.read_bytes() == assign_first
        pin(assign_file.name, assign_first)
        code, _, _ = twice("check-witness", str(ilp_file), str(assign_file))
        assert code == 0
        code, _, _ = twice("reconstruct", str(ilp_file), str(assign_file), str(f))
        assert code == 0
    for f in bp_files:
        twice("reduce-bin", str(f), "--to-exact")
        twice("reduce-bin", str(f), "--to-cge")
    code, _, err = twice("build-ilp", str(guard), "-o", str(tmp_path / "guard.ilp"))
    assert code == 3
    return digests


def test_criterion_8_cli_determinism(tmp_path):
    """Byte-identical output on double runs of every command, every corpus file,
    equal to the pinned digests in data/cli_digests.json; the type-space guard
    trips with exit code 3 on the size-3-cover instance.
    """
    digests = cli_digests(tmp_path)
    pinned = json.loads(CLI_DIGESTS.read_text(encoding="utf-8"))
    changed = sorted(k for k in digests.keys() | pinned.keys() if digests.get(k) != pinned.get(k))
    assert not changed, f"{len(changed)} outputs differ from the pinned digests: {changed[:10]}"
    report(8, f"all commands byte-stable twice and equal to {len(pinned)} pinned digests; "
              "guard instance exits 3")
