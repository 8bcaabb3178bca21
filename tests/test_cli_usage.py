"""`cge` builds only the named subcommand's parser; its bytes must not move.

`reference_parser` is the eight-subcommand parser exactly as it was written
before the command table: every call built all eight subparsers.  Each argv
below runs through `main` twice in this process, once as it is and once with
`build_parser` swapped for the reference, and both runs must give the same
exit code, stdout and stderr.  Comparing in process keeps the test exact on
every Python version, whose argparse wording differs between releases.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cge import cli
from cge.cli import (
    cmd_build_ilp,
    cmd_check_witness,
    cmd_derive_witness,
    cmd_reconstruct,
    cmd_reduce_bin,
    cmd_solve_approx,
    cmd_solve_exact,
    cmd_verify,
    main,
)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "corpus"
STAR = str(CORPUS / "star2-k1.cge")
BINPACK = str(CORPUS / "bp-plain-1.binpack")


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cge",
        description="Solvers, verifiers and reductions for collective graph exploration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-approx", help="additive-approximation solver")
    p.add_argument("instance")
    p.add_argument("--vc", help="comma-separated cover vertices (default: 2-approx)")
    p.set_defaults(func=cmd_solve_approx)

    p = sub.add_parser("solve-exact", help="exact search: optimum, or decide if budgeted")
    p.add_argument("instance")
    p.add_argument("--max-budget", type=int, default=None,
                   help="largest budget the optimum search tries; 'no' if none suffices")
    p.add_argument("--node-limit", type=int, default=5_000_000,
                   help="search nodes before giving up (exit 3); a node is one expanded "
                        "walk state or one robot-assignment step")
    p.set_defaults(func=cmd_solve_exact)

    p = sub.add_parser("verify", help="check a solution file against an instance")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce-bin", help="bin packing reductions")
    p.add_argument("instance")
    p.add_argument("--to-exact", action="store_true")
    p.add_argument("--to-cge", action="store_true")
    p.set_defaults(func=cmd_reduce_bin)

    p = sub.add_parser("build-ilp", help="compile the instance to equation-system text")
    p.add_argument("instance")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--vc")
    p.set_defaults(func=cmd_build_ilp)

    p = sub.add_parser("derive-witness", help="count types of a solution into an assignment")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--vc")
    p.set_defaults(func=cmd_derive_witness)

    p = sub.add_parser("check-witness", help="evaluate an assignment against exported equations")
    p.add_argument("ilp")
    p.add_argument("assignment")
    p.set_defaults(func=cmd_check_witness)

    p = sub.add_parser("reconstruct", help="rebuild robot walks from a satisfying assignment")
    p.add_argument("ilp")
    p.add_argument("assignment")
    p.add_argument("instance")
    p.add_argument("--vc")
    p.set_defaults(func=cmd_reconstruct)

    return parser


COMMANDS = ("solve-approx", "solve-exact", "verify", "reduce-bin",
            "build-ilp", "derive-witness", "check-witness", "reconstruct")

USAGE_CASES = (
    [[], ["-h"], ["--help"], ["-h", "solve-approx"]]
    + [[name, "-h"] for name in COMMANDS]
    + [
        ["bogus"],
        ["solve-ex", "x"],
        ["SOLVE-APPROX", "x"],
        ["--vc", "0", "solve-approx", "x"],
        ["--bogus"],
        ["--", "solve-approx", "x"],
        ["solve-approx"],
        ["verify", "x"],
        ["reconstruct", "a", "b"],
        ["build-ilp", "x"],
        ["solve-exact", "x", "--bogus"],
        ["solve-exact", "x", "--node-limit", "abc"],
        ["solve-exact", "x", "--max-budget"],
        ["solve-approx", "x", "--vc"],
        ["verify", "a", "b", "c"],
        ["solve-approx", "x", "solve-exact"],
        ["solve-approx", "x", "-h"],
        ["reduce-bin", "x", "--to-exact", "--help"],
        ["derive-witness", "a", "b", "-o"],
        ["check-witness", "a", "b", "--vc", "0"],
    ]
)


def valid_cases(tmp: Path) -> list[list[str]]:
    """Argvs that parse, at least one per command; files land in `tmp`, in run order."""
    sol, ilp, asg = str(tmp / "star.sol"), str(tmp / "star.ilp"), str(tmp / "star.asg")
    return [
        ["solve-approx", STAR, "--vc", "0"],
        ["solve-exact", STAR],
        ["solve-exact", STAR, "--max-budget", "9", "--node-limit", "1000"],
        ["verify", STAR, sol],
        ["reduce-bin", BINPACK, "--to-cge"],
        ["build-ilp", STAR, "-o", ilp, "--vc", "0"],
        ["derive-witness", STAR, sol, "--output", asg, "--vc", "0"],
        ["check-witness", ilp, asg],
        ["reconstruct", ilp, asg, STAR, "--vc", "0"],
    ]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_both(monkeypatch, argv: list[str]) -> tuple[tuple, tuple]:
    now = run(argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", lambda command=None: reference_parser())
        before = run(argv)
    return now, before


@pytest.mark.parametrize("argv", USAGE_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_help_and_usage_bytes(monkeypatch, argv):
    now, before = run_both(monkeypatch, argv)
    assert now == before
    assert now[0] in (0, 2)


def test_valid_argv_same_output_and_namespace(monkeypatch, tmp_path):
    (tmp_path / "star.sol").write_text("value 4\nrobot 1: 0 1 0 2 0\n", encoding="utf-8")
    for argv in valid_cases(tmp_path):
        now, before = run_both(monkeypatch, argv)
        assert now == before, argv
        assert now[0] == 0, (argv, now)
        got = vars(cli.build_parser(argv[0]).parse_args(argv))
        want = vars(reference_parser().parse_args(argv))
        assert got.pop("func") is want.pop("func")
        assert got == want, argv


def _module_run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "cge.cli", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )


def test_argv_none_reads_sys_argv():
    proc = _module_run("solve-approx", "tests/data/corpus/star2-k1.cge")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(["solve-approx", STAR])[1]
    proc = _module_run()
    assert proc.returncode == 2
    assert "the following arguments are required: command" in proc.stderr
