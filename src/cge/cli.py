"""Batch command-line front-end.

Commands read instance files, run the requested computation, and print
deterministic text.  Exit codes: 0 ok/yes, 1 no/violation, 2 usage or parse
error, 3 resource guard tripped (search or type-space limits).
"""

from __future__ import annotations

import argparse
import sys

from .approx import approx_solve
from .cover import VertexCover, connect_cover, vertex_cover_2approx
from .errors import (
    CgeError,
    ImmediateNo,
    ParseError,
    SearchBudgetExceeded,
    TypeSpaceTooLarge,
)
from .exact import SearchConfig, exact_decide, exact_optimum
from .euler import solution_from_multisets, verify_solution
from .fptilp import (
    FptContext,
    build_ilp_system,
    check_assignment,
    enumerate_type_space,
    export_ilp,
    format_assignment,
    parse_assignment,
    parse_ilp,
    reconstruct_solution,
    solution_pairs,
    witness_from_solution,
)
from .graphs import ExplorationInstance
from .hardness import bin_to_rob, binpacking_to_exact
from .textio import (
    InstanceDocument,
    format_instance,
    format_solution,
    parse_instance,
    parse_solution,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _load(path: str, kind: str):
    doc = parse_instance(_read(path))
    if doc.kind != kind:
        raise ParseError(1, f"{path}: expected a '{kind}' instance")
    return doc.payload


def _cover_from_arg(inst: ExplorationInstance, arg: str | None) -> VertexCover:
    if arg is None:
        return vertex_cover_2approx(inst.graph)
    try:
        vertices = tuple(sorted({int(p) for p in arg.split(",") if p}))
    except ValueError:
        raise ParseError(1, f"bad --vc value {arg!r}")
    n = inst.graph.n
    if any(not 0 <= v < n for v in vertices):
        raise ParseError(1, f"--vc vertices must lie in 0..{n - 1}, got {arg!r}")
    return VertexCover(vertices)


def _fpt_pipeline(inst: ExplorationInstance, vc_arg: str | None):
    if inst.budget is None:
        raise ParseError(1, "instance needs a 'budget' line for equation building")
    vcp = connect_cover(inst.graph, _cover_from_arg(inst, vc_arg), inst.v_init)
    ctx = FptContext.build(inst, vcp)
    types = enumerate_type_space(ctx)
    system = build_ilp_system(ctx, types)
    return ctx, types, system


def cmd_solve_approx(args) -> int:
    inst = _load(args.instance, "cge")
    sol = approx_solve(inst, _cover_from_arg(inst, args.vc))
    sys.stdout.write(format_solution(sol))
    return EXIT_OK


def cmd_solve_exact(args) -> int:
    if args.max_budget is not None and args.max_budget < 0:
        raise ParseError(1, f"--max-budget must be non-negative, got {args.max_budget}")
    if args.node_limit < 1:
        raise ParseError(1, f"--node-limit must be positive, got {args.node_limit}")
    inst = _load(args.instance, "cge")
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
    sol = parse_solution(_read(args.solution))
    report = verify_solution(inst, sol)
    sys.stdout.write("\n".join(report.lines()) + "\n")
    return EXIT_OK if report.ok else EXIT_NO


def cmd_reduce_bin(args) -> int:
    bp = _load(args.instance, "binpack")
    if args.to_exact:
        bp = binpacking_to_exact(bp)
        sys.stdout.write(format_instance(InstanceDocument("binpack", bp)))
        return EXIT_OK
    if args.to_cge:
        if not bp.exact:
            bp = binpacking_to_exact(bp)
        inst = bin_to_rob(bp)
        sys.stdout.write(format_instance(InstanceDocument("cge", inst)))
        return EXIT_OK
    raise ParseError(1, "choose --to-exact or --to-cge")


def cmd_build_ilp(args) -> int:
    inst = _load(args.instance, "cge")
    ctx, types, system = _fpt_pipeline(inst, args.vc)
    _write(args.output, export_ilp(system))
    sys.stdout.write(
        f"ilp written: {len(system.variables)} variables, "
        f"{len(system.constraints)} constraints\n"
    )
    return EXIT_OK


def cmd_derive_witness(args) -> int:
    inst = _load(args.instance, "cge")
    sol = parse_solution(_read(args.solution))
    if not verify_solution(inst, sol).ok:
        sys.stdout.write("solution fails verification\n")
        return EXIT_NO
    ctx, types, system = _fpt_pipeline(inst, args.vc)
    witness = witness_from_solution(ctx, types, solution_pairs(ctx, sol))
    ok, violated = check_assignment(system, witness)
    _write(args.output, format_assignment(witness))
    if not ok:
        sys.stdout.write(f"witness written but violates {len(violated)} constraints\n")
        return EXIT_NO
    sys.stdout.write("witness written and satisfies the system\n")
    return EXIT_OK


def cmd_check_witness(args) -> int:
    system = parse_ilp(_read(args.ilp))
    assignment = parse_assignment(_read(args.assignment))
    ok, violated = check_assignment(system, assignment)
    if ok:
        sys.stdout.write("satisfied\n")
        return EXIT_OK
    for idx in violated:
        c = system.constraints[idx]
        sys.stdout.write(f"violated {c.tag} (constraint {idx})\n")
    return EXIT_NO


def cmd_reconstruct(args) -> int:
    inst = _load(args.instance, "cge")
    system_text = _read(args.ilp)
    assignment = parse_assignment(_read(args.assignment))
    ctx, types, system = _fpt_pipeline(inst, args.vc)
    if export_ilp(system) != system_text:
        raise ParseError(1, "ilp file does not match the instance's equation system")
    ok, _ = check_assignment(system, assignment)
    if not ok:
        sys.stdout.write("assignment does not satisfy the system\n")
        return EXIT_NO
    multisets = reconstruct_solution(ctx, types, system, assignment)
    sol = solution_from_multisets(inst.graph.n, inst.v_init, multisets, inst.k)
    sys.stdout.write(format_solution(sol))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ImmediateNo as exc:
        sys.stdout.write(f"no: {exc}\n")
        return EXIT_NO
    except (SearchBudgetExceeded, TypeSpaceTooLarge) as exc:
        sys.stderr.write(f"resource guard: {exc}\n")
        return EXIT_GUARD
    except (CgeError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
