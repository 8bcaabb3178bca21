"""`cge` reads a well-formed argv from its command table and builds the
eight-subcommand argparse parser for anything else; its bytes must not move.

`reference_parser` is the eight-subcommand parser exactly as it was written
before the command table: every call built all eight subparsers.  Each argv
below runs through `main` twice in this process, once as it is and once with
the table's fast path turned off and `build_parser` swapped for the
reference, and both runs must give the same exit code, stdout and stderr.
The fast path must decline every argv that argparse words help or an error
for, and must give argparse's namespace for every argv it accepts.
Comparing in process keeps the test exact on every Python version, whose
argparse wording differs between releases.
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
from hypothesis import given, settings
from hypothesis import strategies as st

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


# argvs in spellings the fast path leaves to argparse, which accepts all but
# the ambiguous "--to"
DECLINED_CASES = [
    ["solve-exact", "{star}", "--node-limit=7"],
    ["solve-exact", "{star}", "--node", "7"],
    ["build-ilp", "{star}", "-o{ilp}"],
    ["solve-exact", "{star}", "--max-budget", "-1"],
    ["solve-approx", "--", "{star}"],
    ["reduce-bin", "{binpack}", "--to"],
]


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
        m.setattr(cli, "_parse_argv", lambda argv: None)
        m.setattr(cli, "build_parser", reference_parser)
        before = run(argv)
    return now, before


def reference_namespace(argv: list[str]) -> dict:
    return vars(reference_parser().parse_args(argv))


@pytest.mark.parametrize("argv", USAGE_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_help_and_usage_bytes(monkeypatch, argv):
    assert cli._parse_argv(argv) is None
    now, before = run_both(monkeypatch, argv)
    assert now == before
    assert now[0] in (0, 2)


def test_valid_argv_same_output_and_namespace(monkeypatch, tmp_path):
    (tmp_path / "star.sol").write_text("value 4\nrobot 1: 0 1 0 2 0\n", encoding="utf-8")
    for argv in valid_cases(tmp_path):
        now, before = run_both(monkeypatch, argv)
        assert now == before, argv
        assert now[0] == 0, (argv, now)
        want = reference_namespace(argv)
        assert vars(cli._parse_argv(argv)) == want, argv
        got = vars(cli.build_parser().parse_args(argv))
        assert got.pop("func") is want.pop("func")
        assert got == want, argv


@pytest.mark.parametrize("argv", DECLINED_CASES, ids=" ".join)
def test_other_spellings_go_to_argparse(monkeypatch, tmp_path, argv):
    argv = [a.format(star=STAR, binpack=BINPACK, ilp=tmp_path / "star.ilp") for a in argv]
    assert cli._parse_argv(argv) is None
    now, before = run_both(monkeypatch, argv)
    assert now == before
    assert now[0] in (0, 2), now


def test_specs_hold_only_what_the_fast_path_reads():
    for _, _, specs in cli.COMMANDS.values():
        for flags, kwargs in specs:
            assert set(kwargs) <= {"help", "type", "default", "action", "required"}, flags
            assert kwargs.get("action", "store_true") == "store_true", flags
            # argparse runs `type` over a string default; the fast path does not
            assert not isinstance(kwargs.get("default"), str), flags
            if flags[0].startswith("-"):
                assert any(f.startswith("--") for f in flags), flags


VALUES = ("x", "0", "7", "1,2", "", "-1", " 5", "5_0")


def _token_alphabet(name: str) -> list[str]:
    """Command names, every flag of command `name` in its exact, "=",
    abbreviated and attached forms, argparse's special tokens, and values
    that argparse and `int` read in ways of their own."""
    tokens = set(COMMANDS) | {"--", "-", "-h"} | set(VALUES)
    for flags, _ in cli.COMMANDS[name][2]:
        for flag in flags:
            if flag.startswith("-"):
                tokens |= {flag, flag + "=3", flag[:4], flag + "7"}
    return sorted(tokens)


@st.composite
def near_valid_argvs(draw) -> list[str]:
    """A command with its positionals and a random subset of its options in
    random order, then up to three tokens inserted, replaced or deleted."""
    name = draw(st.sampled_from(COMMANDS))
    pieces = []
    for flags, kwargs in cli.COMMANDS[name][2]:
        if not flags[0].startswith("-"):
            pieces.append([draw(st.sampled_from(VALUES))])
        elif kwargs.get("required") or draw(st.booleans()):
            flag = draw(st.sampled_from(flags))
            value = [] if "action" in kwargs else [draw(st.sampled_from(VALUES))]
            pieces.append([flag, *value])
    argv = [name] + [token for piece in draw(st.permutations(pieces)) for token in piece]
    edits = st.tuples(st.integers(0, 12), st.sampled_from(("insert", "replace", "delete")),
                      st.sampled_from(_token_alphabet(name)))
    for at, op, token in draw(st.lists(edits, max_size=3)):
        at %= len(argv) + 1
        if op == "insert":
            argv.insert(at, token)
        elif at < len(argv):
            argv[at:at + 1] = [token] if op == "replace" else []
    return argv


@settings(max_examples=300, deadline=None)
@given(near_valid_argvs())
def test_accepted_argv_parses_as_argparse_parses_it(argv):
    got = cli._parse_argv(argv)
    if got is not None:
        with contextlib.redirect_stderr(io.StringIO()):
            assert vars(got) == reference_namespace(argv), argv


def _python_run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )


def test_argv_none_reads_sys_argv():
    proc = _python_run("-m", "cge.cli", "solve-approx", "tests/data/corpus/star2-k1.cge")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(["solve-approx", STAR])[1]
    proc = _python_run("-m", "cge.cli")
    assert proc.returncode == 2
    assert "the following arguments are required: command" in proc.stderr


def test_well_formed_call_imports_no_argparse():
    proc = _python_run("-c", (
        "import sys; from cge.cli import main; "
        "main(['solve-approx', 'tests/data/corpus/star2-k1.cge']); "
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
