"""Batch command-line front-end.

Commands read instance files, run the requested computation, and print
deterministic text.  Exit codes: 0 ok/yes, 1 no/violation, 2 usage or parse
error, 3 resource guard tripped (search, type-space, reduction size, robot
count or cycle-instance limits).

`COMMANDS` describes each subcommand once.  A well-formed argv is read
straight from it, without argparse; anything else (help, a usage error, an
abbreviation or another spelling argparse allows) goes to the eight-subcommand
argparse parser, the only code that words help and errors.
`tests/test_cli_usage.py` pins both to the parser as first written: the same
namespaces, and the same help and usage bytes.

Only the commands that compile equation systems use `cge.fptilp`, so its
five submodules are registered at import and run on first use (see
`_lazy_import`); the handlers call them through the `fpt_*` module handles,
since a `from` import would run the module at once.  The other layers,
`exact` included, are imported as usual: `solve-exact` runs on small
instances, where deferring its compile would only move it into the command.

`main` runs every command with the cyclic garbage collector paused and
gives the caller's setting back on every exit, a raised `SystemExit`
included, so code that calls `main` in process keeps its own collector.
`main` runs no collection itself: no command leaves a reference cycle, so
reference counts free everything a command made.
"""

from __future__ import annotations

import gc
import importlib.util
import sys
from types import ModuleType, SimpleNamespace

from .approx import approx_solve
from .cover import connect_cover, vertex_cover_2approx
from .errors import (
    CgeError,
    ImmediateNo,
    InfeasibleAllocation,
    ParseError,
    SearchBudgetExceeded,
    TooLarge,
    TypeSpaceTooLarge,
)
from .exact import SearchConfig, exact_decide, exact_optimum
from .euler import Solution, solution_from_multisets, verify_solution
from .graphs import ExplorationInstance
from .hardness import bin_to_rob, binpacking_to_exact
from .textio import format_instance, format_solution, parse_instance, parse_solution


def _lazy_import(name: str) -> ModuleType:
    """Module `name`, registered in `sys.modules` now and run on the first
    read of one of its attributes (the standard library's `LazyLoader`
    recipe).  A module imported before is returned as it is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    # bound on its package too, as an import statement would bind it
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)
    return module


# the equation-system compiler: only build-ilp, derive-witness, check-witness
# and reconstruct run it
fpt_context = _lazy_import("cge.fptilp.context")
fpt_pairs = _lazy_import("cge.fptilp.pairs")
fpt_typespace = _lazy_import("cge.fptilp.typespace")
fpt_system = _lazy_import("cge.fptilp.system")
fpt_reconstruct = _lazy_import("cge.fptilp.reconstruct")

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

# robots a solve or reconstruct may write: one text line, about 20 bytes, each.
# verify needs no cap: it reports the robots its solution file lists, so its
# work and output are bounded by that file, whatever count the instance holds
MAX_ROBOTS = 10_000_000


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read_solution(path: str) -> Solution:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_solution(fh)


def _load(path: str, kind: str):
    inst = parse_instance(_read(path))
    if isinstance(inst, ExplorationInstance) != (kind == "cge"):
        raise ParseError(1, f"{path}: expected a '{kind}' instance")
    return inst


def _load_robots(path: str) -> ExplorationInstance:
    """A 'cge' instance whose solution text, one line per robot, stays
    within `MAX_ROBOTS` lines."""
    inst = _load(path, "cge")
    if inst.k > MAX_ROBOTS:
        raise TooLarge(f"solution needs {inst.k} robot lines, limit {MAX_ROBOTS}")
    return inst


def _cover_from_arg(inst: ExplorationInstance, arg: str | None) -> tuple[int, ...]:
    if arg is None:
        return vertex_cover_2approx(inst.graph)
    try:
        vertices = tuple(sorted({int(p) for p in arg.split(",") if p}))
    except ValueError:
        raise CgeError(f"bad --vc value {arg!r}")
    n = inst.graph.n
    if any(not 0 <= v < n for v in vertices):
        raise CgeError(f"--vc vertices must lie in 0..{n - 1}, got {arg!r}")
    return vertices


def _fpt_pipeline(inst: ExplorationInstance, vc_arg: str | None):
    if inst.budget is None:
        raise ParseError(1, "instance needs a 'budget' line for equation building")
    vcp = connect_cover(inst.graph, _cover_from_arg(inst, vc_arg), inst.v_init)
    ctx = fpt_context.FptContext.build(inst, vcp)
    types = fpt_typespace.enumerate_type_space(ctx)
    system = fpt_system.build_ilp_system(ctx, types)
    return ctx, types, system


def cmd_solve_approx(args) -> int:
    inst = _load_robots(args.instance)
    sol = approx_solve(inst, _cover_from_arg(inst, args.vc))
    sys.stdout.write(format_solution(sol))
    return EXIT_OK


def cmd_solve_exact(args) -> int:
    if args.max_budget is not None and args.max_budget < 0:
        raise CgeError(f"--max-budget must be non-negative, got {args.max_budget}")
    if args.node_limit < 1:
        raise CgeError(f"--node-limit must be positive, got {args.node_limit}")
    inst = _load_robots(args.instance)
    cfg = SearchConfig(max_budget=args.max_budget, node_limit=args.node_limit)
    if inst.budget is not None:
        yes, witness = exact_decide(inst, cfg)
        if not yes:
            sys.stdout.write("no\n")
            return EXIT_NO
        sys.stdout.write("yes\n")
        sys.stdout.write(format_solution(witness))
        return EXIT_OK
    found = exact_optimum(inst, cfg)
    if found is None:
        sys.stdout.write("no\n")
        return EXIT_NO
    sys.stdout.write(format_solution(found[1]))
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _load(args.instance, "cge")
    sol = _read_solution(args.solution)
    report = verify_solution(inst, sol)
    sys.stdout.writelines(report.text())
    return EXIT_OK if report.ok else EXIT_NO


def cmd_reduce_bin(args) -> int:
    bp = _load(args.instance, "binpack")
    if args.to_exact == args.to_cge:
        raise CgeError("choose --to-exact or --to-cge")
    if args.to_exact:
        bp = binpacking_to_exact(bp)
        sys.stdout.write(format_instance(bp))
        return EXIT_OK
    if not bp.exact:
        bp = binpacking_to_exact(bp)
    inst = bin_to_rob(bp)
    sys.stdout.write(format_instance(inst))
    return EXIT_OK


def cmd_build_ilp(args) -> int:
    inst = _load(args.instance, "cge")
    ctx, types, system = _fpt_pipeline(inst, args.vc)
    _write(args.output, fpt_system.export_ilp(system))
    sys.stdout.write(
        f"ilp written: {len(system.variables)} variables, "
        f"{len(system.constraints)} constraints\n"
    )
    return EXIT_OK


def cmd_derive_witness(args) -> int:
    inst = _load(args.instance, "cge")
    sol = _read_solution(args.solution)
    if not verify_solution(inst, sol).ok:
        sys.stdout.write("solution fails verification\n")
        return EXIT_NO
    ctx, types, system = _fpt_pipeline(inst, args.vc)
    witness = fpt_system.witness_from_solution(
        ctx, types, fpt_pairs.solution_pairs(ctx, sol), system.variables
    )
    ok, violated = fpt_system.check_assignment(system, witness)
    _write(args.output, fpt_system.format_assignment(witness))
    if not ok:
        sys.stdout.write(f"witness written but violates {len(violated)} constraints\n")
        return EXIT_NO
    sys.stdout.write("witness written and satisfies the system\n")
    return EXIT_OK


def cmd_check_witness(args) -> int:
    system = fpt_system.parse_ilp(_read(args.ilp))
    assignment = fpt_system.parse_assignment(_read(args.assignment))
    ok, violated = fpt_system.check_assignment(system, assignment)
    if ok:
        sys.stdout.write("satisfied\n")
        return EXIT_OK
    for idx in violated:
        c = system.constraints[idx]
        sys.stdout.write(f"violated {c.tag} (constraint {idx})\n")
    return EXIT_NO


def cmd_reconstruct(args) -> int:
    inst = _load_robots(args.instance)
    system_text = _read(args.ilp)
    assignment = fpt_system.parse_assignment(_read(args.assignment))
    ctx, types, system = _fpt_pipeline(inst, args.vc)
    if not fpt_system.is_export(system, system_text):
        raise ParseError(1, "ilp file does not match the instance's equation system")
    try:
        runs = fpt_reconstruct.reconstruct_solution(ctx, types, system, assignment)
    except InfeasibleAllocation:
        sys.stdout.write("assignment does not satisfy the system\n")
        return EXIT_NO
    sol = solution_from_multisets(inst.graph.n, inst.v_init, runs, inst.k)
    sys.stdout.write(format_solution(sol))
    return EXIT_OK


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


# name -> (help, handler, argument specs); the one description of each command.
COMMANDS = {
    "solve-approx": ("additive-approximation solver", cmd_solve_approx, (
        _arg("instance"),
        _arg("--vc", help="comma-separated cover vertices (default: 2-approx)"),
    )),
    "solve-exact": ("exact search: optimum, or decide if budgeted", cmd_solve_exact, (
        _arg("instance"),
        _arg("--max-budget", type=int, default=None,
             help="largest budget the optimum search tries; 'no' if none suffices"),
        _arg("--node-limit", type=int, default=SearchConfig().node_limit,
             help="search nodes before giving up (exit 3); a node is one expanded "
                  "walk state or one robot-assignment step"),
    )),
    "verify": ("check a solution file against an instance", cmd_verify, (
        _arg("instance"),
        _arg("solution"),
    )),
    "reduce-bin": ("bin packing reductions", cmd_reduce_bin, (
        _arg("instance"),
        _arg("--to-exact", action="store_true"),
        _arg("--to-cge", action="store_true"),
    )),
    "build-ilp": ("compile the instance to equation-system text", cmd_build_ilp, (
        _arg("instance"),
        _arg("-o", "--output", required=True),
        _arg("--vc"),
    )),
    "derive-witness": ("count types of a solution into an assignment", cmd_derive_witness, (
        _arg("instance"),
        _arg("solution"),
        _arg("-o", "--output", required=True),
        _arg("--vc"),
    )),
    "check-witness": ("evaluate an assignment against exported equations", cmd_check_witness, (
        _arg("ilp"),
        _arg("assignment"),
    )),
    "reconstruct": ("rebuild robot walks from a satisfying assignment", cmd_reconstruct, (
        _arg("ilp"),
        _arg("assignment"),
        _arg("instance"),
        _arg("--vc"),
    )),
}


def _parse_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a well-formed `argv`, read straight from
    `COMMANDS`; None for any other argv.  Well-formed means: a command name,
    then that command's flags written exactly, each valued one followed by a
    value that does not start with "-" and that its `type` converts, every
    positional once and every required option.  Help, abbreviations,
    "--flag=value", "-oFILE", "--" and negative numbers all give None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, specs = COMMANDS[argv[0]]
    values = {"command": argv[0], "func": func}
    options, positionals, required = {}, [], set()
    for flags, kwargs in specs:
        if not flags[0].startswith("-"):
            positionals.append(flags[0])
            continue
        # argparse's dest: the first long flag, "-" turned into "_"
        dest = next(f for f in flags if f.startswith("--"))[2:].replace("-", "_")
        switch = kwargs.get("action") == "store_true"
        values[dest] = False if switch else kwargs.get("default")
        for flag in flags:
            options[flag] = dest, switch, kwargs.get("type")
        if kwargs.get("required"):
            required.add(dest)
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        if token not in options:
            return None
        dest, switch, convert = options[token]
        required.discard(dest)
        if switch:
            values[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            values[dest] = value if convert is None else convert(value)
        except ValueError:
            return None
    if required or len(given) != len(positionals):
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def build_parser():
    """The `cge` argparse parser with every subcommand."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cge",
        description="Solvers, verifiers and reductions for collective graph exploration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, specs) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in specs:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    # the cyclic collector's passes cost a command time and free nothing:
    # no command leaves a reference cycle, so reference counts free it all
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(sys.argv[1:] if argv is None else argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str]) -> int:
    args = _parse_argv(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ImmediateNo as exc:
        sys.stdout.write(f"no: {exc}\n")
        return EXIT_NO
    except (SearchBudgetExceeded, TypeSpaceTooLarge, TooLarge) as exc:
        sys.stderr.write(f"resource guard: {exc}\n")
        return EXIT_GUARD
    except (CgeError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
