import io
import contextlib
from pathlib import Path

import pytest

from cge.cli import main
from cge.errors import ParseError
from cge.euler import solution_from_multisets
from cge.graphs import walk_edges
from cge.textio import (
    InstanceDocument,
    format_instance,
    format_solution,
    parse_instance,
    parse_solution,
)

TRIANGLE = "cge 1\nnodes 3\ninit 0\nrobots 1\nedge 0 1\nedge 0 2\nedge 1 2\n"
SINGLE_EDGE = "cge 1\nnodes 2\ninit 0\nrobots 1\nedge 0 1\n"
PATH3_BUDGET = "cge 1\nnodes 3\ninit 1\nrobots 1\nbudget 4\nedge 0 1\nedge 1 2\n"
C4_BUDGET = "cge 1\nnodes 4\ninit 0\nrobots 1\nbudget 4\nedge 0 1\nedge 1 2\nedge 2 3\nedge 0 3\n"
BINPACK = "binpack 1\ncapacity 2\nbins 2\nexact 1\nitem 2\nitem 2\n"


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


class TestParsing:
    def test_single_edge(self):
        doc = parse_instance(SINGLE_EDGE)
        assert doc.kind == "cge"
        inst = doc.payload
        assert inst.graph.n == 2 and inst.k == 1 and inst.budget is None

    def test_missing_init(self):
        with pytest.raises(ParseError):
            parse_instance("cge 1\nnodes 2\nrobots 1\nedge 0 1\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("cge 1\nnodes 2\ninit 0\nrobots 1\nedge 0 1\nedge 1 0\n")

    def test_binpack(self):
        doc = parse_instance(BINPACK)
        assert doc.kind == "binpack"
        assert doc.payload.sizes == (2, 2)
        assert doc.payload.exact

    def test_round_trip_identity(self):
        for text in (TRIANGLE, SINGLE_EDGE, PATH3_BUDGET, BINPACK):
            doc = parse_instance(text)
            assert format_instance(doc) == text
            assert format_instance(parse_instance(format_instance(doc))) == text

    def test_comments_ignored(self):
        doc = parse_instance("# hello\ncge 1\nnodes 2\ninit 0 # start\nrobots 1\nedge 0 1\n")
        assert doc.payload.graph.num_edges == 1


class TestSolutionFormat:
    def test_trivial_robot_line(self):
        sol = solution_from_multisets(3, 0, [walk_edges((0, 1, 2, 0))], 2)
        text = format_solution(sol)
        assert text == "value 3\nrobot 1: 0 1 2 0\nrobot 2: 0\n"
        assert format_solution(parse_solution(text)) == text


class TestCommands:
    def test_solve_approx_star(self, tmp_path):
        f = tmp_path / "star.cge"
        f.write_text("cge 1\nnodes 4\ninit 0\nrobots 1\nedge 0 1\nedge 0 2\nedge 0 3\n")
        code, out = run_cli("solve-approx", str(f))
        assert code == 0
        assert out.startswith("value 6\n")

    def test_solve_exact_triangle(self, tmp_path):
        f = tmp_path / "tri.cge"
        f.write_text(TRIANGLE)
        code, out = run_cli("solve-exact", str(f))
        assert code == 0
        assert out == "value 3\nrobot 1: 0 1 2 0\n"

    def test_solve_exact_decide_no(self, tmp_path):
        f = tmp_path / "tri.cge"
        f.write_text(TRIANGLE.replace("robots 1\n", "robots 1\nbudget 2\n"))
        code, out = run_cli("solve-exact", str(f))
        assert code == 1
        assert out == "no\n"

    def test_solve_exact_max_budget_below_lower_bound_is_no(self, tmp_path):
        f = tmp_path / "tri.cge"
        f.write_text(TRIANGLE)
        assert run_cli("solve-exact", str(f), "--max-budget", "2") == (1, "no\n")
        assert run_cli("solve-exact", str(f), "--max-budget", "0") == (1, "no\n")

    def test_solve_exact_every_budget_up_to_max_fails_is_no(self, tmp_path):
        # lower bound 4, optimum 5: budget 4 is searched and fails
        f = tmp_path / "tri-leaf.cge"
        f.write_text("cge 1\nnodes 4\ninit 0\nrobots 1\nedge 0 1\nedge 0 2\nedge 1 2\nedge 2 3\n")
        assert run_cli("solve-exact", str(f), "--max-budget", "4") == (1, "no\n")
        code, out = run_cli("solve-exact", str(f), "--max-budget", "5")
        assert code == 0 and out.startswith("value 5\n")
        assert run_cli("solve-exact", str(f)) == (code, out)

    def test_solve_exact_node_limit_trip_exits_3(self, tmp_path):
        f = tmp_path / "tri.cge"
        f.write_text(TRIANGLE)
        assert run_cli("solve-exact", str(f), "--node-limit", "1") == (3, "")

    @pytest.mark.parametrize(
        "flags", [("--max-budget", "-1"), ("--node-limit", "0"), ("--node-limit", "-5")]
    )
    def test_solve_exact_bad_search_limits_are_usage_errors(self, tmp_path, flags):
        f = tmp_path / "tri.cge"
        f.write_text(TRIANGLE)
        assert run_cli("solve-exact", str(f), *flags) == (2, "")

    def test_verify_reads_each_robot_report_once(self, tmp_path, monkeypatch):
        import cge.euler

        calls = []
        original = cge.euler.RobotReport.ok
        monkeypatch.setattr(
            cge.euler.RobotReport, "ok", property(lambda r: calls.append(r) or original.fget(r))
        )
        inst = tmp_path / "tri.cge"
        inst.write_text(TRIANGLE.replace("robots 1\n", "robots 5\n"))
        sol = tmp_path / "tri.sol"
        sol.write_text(run_cli("solve-exact", str(inst))[1])
        code, out = run_cli("verify", str(inst), str(sol))
        assert code == 0 and out.endswith("result: ok\n")
        assert sorted(r.index for r in calls) == [0, 1, 2, 3, 4]

    def test_verify_roundtrip(self, tmp_path):
        inst = tmp_path / "tri.cge"
        inst.write_text(TRIANGLE)
        code, out = run_cli("solve-exact", str(inst))
        sol = tmp_path / "tri.sol"
        sol.write_text(out)
        code, out = run_cli("verify", str(inst), str(sol))
        assert code == 0
        assert "result: ok" in out

    def test_verify_detects_gap(self, tmp_path):
        inst = tmp_path / "tri.cge"
        inst.write_text(TRIANGLE)
        sol = tmp_path / "bad.sol"
        sol.write_text("value 2\nrobot 1: 0 1 0\n")
        code, out = run_cli("verify", str(inst), str(sol))
        assert code == 1
        assert "uncovered" in out

    def test_reduce_bin_to_cge(self, tmp_path):
        f = tmp_path / "bp.binpack"
        f.write_text(BINPACK)
        code, out = run_cli("reduce-bin", str(f), "--to-cge")
        assert code == 0
        assert "nodes 5" in out and "budget 4" in out

    def test_reduce_bin_immediate_no(self, tmp_path):
        f = tmp_path / "bp.binpack"
        f.write_text("binpack 1\ncapacity 2\nbins 2\nexact 0\nitem 5\n")
        code, out = run_cli("reduce-bin", str(f), "--to-exact")
        assert code == 1

    def test_parse_error_exit_code(self, tmp_path):
        f = tmp_path / "broken.cge"
        f.write_text("cge 1\nnodes 2\nrobots 1\n")
        code, _ = run_cli("solve-approx", str(f))
        assert code == 2

    def test_ilp_pipeline(self, tmp_path):
        inst = tmp_path / "path3.cge"
        inst.write_text(PATH3_BUDGET)
        ilp = tmp_path / "out.ilp"
        code, _ = run_cli("build-ilp", str(inst), "-o", str(ilp))
        assert code == 0
        code, out = run_cli("solve-exact", str(inst))
        assert code == 0 and out.startswith("yes\n")
        sol = tmp_path / "path3.sol"
        sol.write_text(out.split("\n", 1)[1])
        assign = tmp_path / "path3.assign"
        code, out = run_cli("derive-witness", str(inst), str(sol), "-o", str(assign))
        assert code == 0
        code, out = run_cli("check-witness", str(ilp), str(assign))
        assert code == 0 and out == "satisfied\n"
        code, out = run_cli("reconstruct", str(ilp), str(assign), str(inst))
        assert code == 0
        rebuilt = parse_solution(out)
        assert rebuilt.value <= 4
        code2, out2 = run_cli("verify", str(inst), str(sol))
        assert code2 == 0

    def test_assignment_naming_a_variable_twice_is_a_usage_error(self, tmp_path):
        inst = Path(__file__).parent / "data" / "corpus" / "star2-k1.cge"
        ilp = tmp_path / "star2.ilp"
        assert run_cli("build-ilp", str(inst), "-o", str(ilp))[0] == 0
        code, out = run_cli("solve-exact", str(inst))
        assert code == 0
        sol = tmp_path / "star2.sol"
        sol.write_text(out.split("\n", 1)[1])
        assign = tmp_path / "star2.assign"
        assert run_cli("derive-witness", str(inst), str(sol), "-o", str(assign))[0] == 0
        header, body = assign.read_text().split("\n", 1)
        assert header == "assign 31"
        assign.write_text("assign 32\nx_ver_0 7\n" + body)
        assert run_cli("check-witness", str(ilp), str(assign)) == (2, "")
        assert run_cli("reconstruct", str(ilp), str(assign), str(inst)) == (2, "")

    @pytest.mark.parametrize(
        "walks",
        [
            ["0 1 0"],  # edge 0-2 uncovered
            ["0 1 0 1 0 2 0"],  # over budget
            ["0 1 0 2 0", "0 1 0"],  # two robots for 'robots 1'
            ["1 0 2 0 1"],  # starts away from the start vertex
        ],
    )
    def test_derive_witness_refuses_a_failing_solution(self, tmp_path, walks):
        inst = Path(__file__).parent / "data" / "corpus" / "star2-k1.cge"
        sol = tmp_path / "bad.sol"
        value = max(len(w.split()) - 1 for w in walks)
        robots = "".join(f"robot {i}: {w}\n" for i, w in enumerate(walks, start=1))
        sol.write_text(f"value {value}\n{robots}")
        assert run_cli("verify", str(inst), str(sol))[0] == 1
        assign = tmp_path / "bad.assign"
        code, out = run_cli("derive-witness", str(inst), str(sol), "-o", str(assign))
        assert (code, out) == (1, "solution fails verification\n")
        assert not assign.exists()

    def test_type_guard_exit_code(self, tmp_path):
        inst = tmp_path / "c4.cge"
        inst.write_text(C4_BUDGET)
        ilp = tmp_path / "c4.ilp"
        code, _ = run_cli("build-ilp", str(inst), "-o", str(ilp))
        assert code == 3

    def test_vc_out_of_range_is_a_usage_error(self, tmp_path):
        inst = tmp_path / "path3.cge"
        inst.write_text(PATH3_BUDGET)
        assert run_cli("solve-approx", str(inst), "--vc", "1,99") == (2, "")
        ilp = tmp_path / "out.ilp"
        assert run_cli("build-ilp", str(inst), "-o", str(ilp), "--vc=-1,1") == (2, "")

    def test_verify_self_loop_walk_is_a_violation(self, tmp_path):
        inst = tmp_path / "tri.cge"
        inst.write_text(TRIANGLE)
        sol = tmp_path / "loop.sol"
        sol.write_text("value 1\nrobot 1: 0 0\n")
        code, out = run_cli("verify", str(inst), str(sol))
        assert code == 1
        assert out.startswith("robot 1: start=ok end=ok edges=BAD length=1\n")
        assert out.endswith("result: FAIL\n")

    def test_determinism_two_runs(self, tmp_path):
        inst = tmp_path / "tri.cge"
        inst.write_text(TRIANGLE)
        first = run_cli("solve-exact", str(inst))
        second = run_cli("solve-exact", str(inst))
        assert first == second
        a1 = run_cli("solve-approx", str(inst))
        a2 = run_cli("solve-approx", str(inst))
        assert a1 == a2
