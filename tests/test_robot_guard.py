"""The commands that write one line per robot refuse robot counts past
`cli.MAX_ROBOTS` (exit 3) before they build anything.

The subprocess size fails at once without the guard (`solve-approx` cannot
allocate its per-robot tables); the boundary is checked against a lowered
limit, so no test ever writes a large solution.  `verify` has no cap: it
reports the robots its solution file lists, so a huge count in the instance
is only a count mismatch.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cge import cli
from cge.cli import EXIT_GUARD, EXIT_OK, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def star(tmp_path, robots):
    """A 3-vertex star with `robots` robots, its equation system and the
    witness of its approximate solution: the three inputs of `reconstruct`."""
    inst = tmp_path / f"star{robots}.cge"
    inst.write_text(f"cge 1\nnodes 3\ninit 0\nrobots {robots}\nbudget 4\nedge 0 1\nedge 0 2\n")
    sol, ilp, assign = (tmp_path / f"star{robots}.{ext}" for ext in ("sol", "ilp", "assign"))
    sol.write_text(run_cli("solve-approx", inst)[1])
    assert run_cli("derive-witness", inst, sol, "-o", assign)[0] == EXIT_OK
    assert run_cli("build-ilp", inst, "-o", ilp)[0] == EXIT_OK
    return ilp, assign, inst


def test_a_trillion_robots_exit_3_without_traceback(tmp_path):
    f = tmp_path / "wide.cge"
    f.write_text("cge 1\nnodes 2\ninit 0\nrobots 1000000000000\nedge 0 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "cge.cli", "solve-approx", str(f)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        "resource guard: solution needs 1000000000000 robot lines, limit 10000000\n"
    )


def test_verify_of_a_trillion_robots_is_a_count_mismatch(tmp_path):
    inst = tmp_path / "wide.cge"
    inst.write_text("cge 1\nnodes 2\ninit 0\nrobots 1000000000000\nedge 0 1\n")
    sol = tmp_path / "one.sol"
    sol.write_text("value 2\nrobot 1: 0 1 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "cge.cli", "verify", str(inst), str(sol)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == (
        "robot 1: start=ok end=ok edges=ok length=2\n"
        "robot count: BAD\n"
        "uncovered: none\n"
        "value 2\n"
        "result: FAIL\n"
    )


@pytest.mark.parametrize("command", ["solve-approx", "solve-exact"])
def test_solvers_stop_one_robot_past_the_cap(tmp_path, monkeypatch, command):
    monkeypatch.setattr(cli, "MAX_ROBOTS", 3)
    for robots, code in ((3, EXIT_OK), (4, EXIT_GUARD)):
        f = tmp_path / f"edge{robots}.cge"
        f.write_text(f"cge 1\nnodes 2\ninit 0\nrobots {robots}\nedge 0 1\n")
        got, out, err = run_cli(command, f)
        assert got == code, err
        if code == EXIT_GUARD:
            assert (out, err) == ("", "resource guard: solution needs 4 robot lines, limit 3\n")
        else:
            assert out.count("robot ") == 3


def test_reconstruct_stops_one_robot_past_the_cap(tmp_path, monkeypatch):
    at_cap, past_cap = star(tmp_path, 3), star(tmp_path, 4)
    monkeypatch.setattr(cli, "MAX_ROBOTS", 3)
    code, out, err = run_cli("reconstruct", *at_cap)
    assert code == EXIT_OK, err
    assert out.count("robot ") == 3
    code, out, err = run_cli("reconstruct", *past_cap)
    assert (code, out) == (EXIT_GUARD, "")
    assert err == "resource guard: solution needs 4 robot lines, limit 3\n"
