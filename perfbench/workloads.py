"""The four benchmark workloads: seeded inputs and the commands of one pass.

`setup(seed, workdir, smoke, files)` puts the text of each instance file
under its path in `files`, for the caller to write, and returns what the pass
needs; `run_pass(cli, inputs)` issues the commands, one at a time, each
with the exit code it must give and a check of its stdout that runs after the
pass.  Why each workload exists, and which layer it stresses, is recorded in
WORKLOADS.md next to this file.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

import checker
from checker import Instance, edge

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "corpus"
SMOKE_CORPUS = ("single-edge", "path3", "star2", "guard-c4")
# Corpus files whose pipeline takes more than a second (together about 34 s
# of the 38 s the whole corpus takes; dstar-0-0-2-k1 alone about 21 s).  A run
# must repeat its pass several times to time each command steadily.
HEAVY_CORPUS = ("dstar-0-0-2-k1", "dstar-2-0-1-k1", "dstar-1-1-1-k1", "dstar-1-1-1-k2",
                "dstar-1-0-1-k1")


def random_connected(rng: random.Random, n: int, m: int) -> frozenset:
    """Random attachment tree over a shuffled vertex order plus m - n + 1
    distinct extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {edge(order[i], order[rng.randrange(i)]) for i in range(1, n)}
    if m > n * (n - 1) // 4:  # dense: draw from the complement
        rest = [e for e in itertools.combinations(range(n), 2) if e not in edges]
        edges.update(rng.sample(rest, m - len(edges)))
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add(edge(u, v))
    return frozenset(edges)


def add_instance(files: dict[Path, str], path: Path, inst: Instance) -> Path:
    files[path] = checker.format_instance(inst)
    return path


def solution_body(stdout: str) -> str:
    """The solution part of `solve-exact` output (decide mode prints 'yes')."""
    return stdout[4:] if stdout.startswith("yes\n") else stdout


def _expect_solution(inst, budget=None):
    return lambda out: checker.solution_problems(inst, out, budget)


def _expect_text(text):
    return lambda out: [] if out == text else [f"stdout {out[:60]!r}, expected {text!r}"]


# ---------------------------------------------------------------------------
# fpt-corpus: the committed corpus plus seeded cheap stars and double stars


@dataclass
class FptCase:
    name: str
    path: Path
    inst: Instance
    optimum: int | None  # known independently for the seeded extras


def _star(leaves: int, k: int) -> tuple[Instance, int]:
    edges = frozenset((0, i) for i in range(1, leaves + 1))
    opt = checker.tree_optimum(leaves, -1, k)
    return Instance(leaves + 1, 0, k, opt, edges), opt


def _double_star(left: int, right: int, k: int, init: int) -> tuple[Instance, int]:
    edges = {(0, 1)}
    edges.update((0, 2 + i) for i in range(left))
    edges.update((1, 2 + left + i) for i in range(right))
    near, far = (left, right) if init == 0 else (right, left)
    opt = checker.tree_optimum(near, far, k)
    return Instance(2 + left + right, init, k, opt, frozenset(edges)), opt


def setup_fpt_corpus(seed: int, workdir: Path, smoke: bool, files: dict):
    rng = random.Random(seed)
    cases = []
    for src in sorted(CORPUS.glob("*.cge")):
        if src.stem in HEAVY_CORPUS or smoke and not src.stem.startswith(SMOKE_CORPUS):
            continue
        text = src.read_text(encoding="utf-8")
        dst = workdir / src.name
        files[dst] = text
        cases.append(FptCase(src.stem, dst, checker.parse_instance(text), None))
    # Seeded extras from the corpus families, restricted to shapes whose
    # pipeline costs under 0.05 s (a five-leaf star at k = 1 or a 2+2 double
    # star costs 0.07-0.1 s), so the draw barely moves pass_s.
    for i in range(2 if smoke else 4):
        if rng.random() < 0.5:
            leaves, k = rng.randint(2, 4), rng.randint(1, 3)
            inst, opt = _star(leaves, k)
            name = f"x{i}-star{leaves}-k{k}"
        else:
            left, right = rng.choice([(1, 1), (2, 1), (1, 2), (2, 0), (0, 2)])
            k, init = rng.randint(1, 2), rng.randint(0, 1)
            inst, opt = _double_star(left, right, k, init)
            name = f"x{i}-dstar-{left}-{right}-0-k{k}-i{init}"
        cases.append(FptCase(name, add_instance(files, workdir / f"{name}.cge", inst), inst,
                             opt))
    return cases


def _ilp_problems(ilp_path: Path):
    def check(out: str) -> list[str]:
        from cge.fptilp import export_ilp, parse_ilp

        text = ilp_path.read_text(encoding="utf-8")
        nvars, ncons = text.split("\n", 1)[0].split()[1:]
        problems = []
        if out != f"ilp written: {nvars} variables, {ncons} constraints\n":
            problems.append(f"build-ilp stdout {out!r} disagrees with the file header")
        if export_ilp(parse_ilp(text)) != text:
            problems.append("exported equation system does not round-trip byte-exactly")
        return problems

    return check


def run_fpt_corpus(cli, cases) -> None:
    for case in cases:
        p, inst = str(case.path), case.inst
        stem = case.path.with_suffix("")
        sol, ilp, asg = f"{stem}.sol", f"{stem}.ilp", f"{stem}.assign"

        def exact_check(out, inst=inst, opt=case.optimum):
            problems = [] if out.startswith("yes\n") else ["decide mode did not say yes"]
            problems += checker.solution_problems(inst, solution_body(out), inst.budget)
            if opt is not None and not problems and checker.solution_value(out[4:]) != opt:
                problems.append(f"witness value is not the optimum {opt}")
            return problems

        body = solution_body(cli.run(["solve-exact", p], check=exact_check))
        Path(sol).write_text(body, encoding="utf-8")
        cli.run(["solve-approx", p], check=_expect_solution(inst))
        cli.run(["verify", p, sol],
                check=lambda out, inst=inst, body=body:
                checker.verify_report_problems(inst, body, out))
        if case.name == "guard-c4":
            cli.run(["build-ilp", p, "-o", ilp], expect=3)
            continue
        cli.run(["build-ilp", p, "-o", ilp], check=_ilp_problems(Path(ilp)))
        cli.run(["derive-witness", p, sol, "-o", asg],
                check=_expect_text("witness written and satisfies the system\n"))
        cli.run(["check-witness", ilp, asg], check=_expect_text("satisfied\n"))
        cli.run(["reconstruct", ilp, asg, p], check=_expect_solution(inst, inst.budget))


# ---------------------------------------------------------------------------
# approx-scale: the polynomial path on a size series


@dataclass
class ScaleCase:
    path: Path
    inst: Instance
    series_n: int | None  # n of the m = 3n size series; None for the tree


def setup_approx_scale(seed: int, workdir: Path, smoke: bool, files: dict):
    """Three graphs per size, so that no single command is long: a host
    whose speed drifts within a second is tracked better by the reference
    timing taken before each command when the commands are short."""
    rng = random.Random(seed)
    unit = 25 if smoke else 100
    cases = []
    for copy in range(1 if smoke else 3):
        for n in (unit, 2 * unit, 4 * unit):
            inst = Instance(n, rng.randrange(n), 8, None, random_connected(rng, n, 3 * n))
            path = add_instance(files, workdir / f"g{n}-{copy}.cge", inst)
            cases.append(ScaleCase(path, inst, n))
        n = 8 * unit
        inst = Instance(n, rng.randrange(n), 8, None, random_connected(rng, n, n - 1))
        path = add_instance(files, workdir / f"tree{n}-{copy}.cge", inst)
        cases.append(ScaleCase(path, inst, None))
    return cases


def run_approx_scale(cli, cases) -> None:
    for case in cases:
        p = str(case.path)
        sol = str(case.path.with_suffix(".sol"))
        out = cli.run(["solve-approx", p], check=_expect_solution(case.inst))
        Path(sol).write_text(out, encoding="utf-8")
        cli.run(["verify", p, sol],
                check=lambda o, inst=case.inst, body=out:
                checker.verify_report_problems(inst, body, o))


# ---------------------------------------------------------------------------
# robots-wide: tiny graphs, k = 1 500, so the work is per robot


def setup_robots_wide(seed: int, workdir: Path, smoke: bool, files: dict):
    """K4 and K3,3 under seeded vertex labels and start vertex.  Every
    maximal matching of either graph is perfect, so the cover the
    approximation walks (which sets the per-robot work) is the whole vertex
    set whatever the seed; a random small graph would let the seed decide
    the cover size and with it most of the pass time.  Three labelings of
    each keep every command short (see setup_approx_scale)."""
    rng = random.Random(seed)
    k = 500 if smoke else 1_500
    shapes = {
        "k4": (4, list(itertools.combinations(range(4), 2))),
        "k33": (6, [(a, b) for a in range(3) for b in range(3, 6)]),
    }
    cases = []
    for copy, (name, (n, pairs)) in itertools.product(range(1 if smoke else 3),
                                                      shapes.items()):
        label = list(range(n))
        rng.shuffle(label)
        edges = frozenset(edge(label[a], label[b]) for a, b in pairs)
        inst = Instance(n, rng.randrange(n), k, None, edges)
        cases.append((add_instance(files, workdir / f"{name}-{copy}.cge", inst), inst))
    return cases


def run_robots_wide(cli, cases) -> None:
    for path, inst in cases:
        p, sol = str(path), str(path.with_suffix(".sol"))
        approx = cli.run(["solve-approx", p], check=_expect_solution(inst))
        Path(sol).write_text(approx, encoding="utf-8")

        def exact_check(out, inst=inst, approx=approx):
            problems = checker.solution_problems(inst, out)
            if not problems and checker.solution_value(out) > checker.solution_value(approx):
                problems.append("exact value above the approximation value")
            return problems

        cli.run(["solve-exact", p], check=exact_check)
        cli.run(["verify", p, sol],
                check=lambda o, inst=inst, body=approx:
                checker.verify_report_problems(inst, body, o))


# ---------------------------------------------------------------------------
# exact-desk: many small exact searches plus the bin-packing reduction


@dataclass
class BinCase:
    path: Path
    cge_path: Path
    sizes: tuple[int, ...]
    capacity: int
    bins: int
    packable: bool


@dataclass
class DeskInputs:
    graphs: list[tuple[Path, Instance]] = field(default_factory=list)
    bins: list[BinCase] = field(default_factory=list)


def _desk_shapes(smoke: bool):
    """(n, m, k) per graph.  Stratified rather than drawn: the catalog cost
    grows about threefold per edge, so an unstratified draw lets a few
    dense graphs decide the pass time of a seed."""
    if smoke:
        return [(4 + i % 3, 4 + i % 3, 1 + i % 3) for i in range(9)]
    shapes = []
    for i in range(81):  # every (n, m, k) cell of the desk band, three times
        shapes.append((6 + i % 3, 9 + (i // 3) % 3, 1 + (i // 9) % 3))
    for i in range(60):  # sparse graphs: the CLI-bound median command
        n = 3 + i % 6
        shapes.append((n, min(n - 1 + (i // 6) % 3, n * (n - 1) // 2), 1 + (i // 2) % 3))
    return shapes


def setup_exact_desk(seed: int, workdir: Path, smoke: bool, files: dict):
    rng = random.Random(seed)
    inputs = DeskInputs()
    for i, (n, m, k) in enumerate(_desk_shapes(smoke)):
        inst = Instance(n, rng.randrange(n), k, None, random_connected(rng, n, m))
        inputs.graphs.append((add_instance(files, workdir / f"d{i}.cge", inst), inst))
    # every exact bin-packing instance with at most 4 items of size 1..3
    max_items = 2 if smoke else 4
    for items in range(1, max_items + 1):
        for sizes in itertools.combinations_with_replacement((3, 2, 1), items):
            for bins in (1, 2, 3):
                if sum(sizes) % bins:
                    continue
                cap = sum(sizes) // bins
                path = workdir / f"bp-{''.join(map(str, sizes))}-{bins}.binpack"
                files[path] = (f"binpack 1\ncapacity {cap}\nbins {bins}\nexact 1\n"
                               + "".join(f"item {s}\n" for s in sizes))
                inputs.bins.append(BinCase(path, path.with_suffix(".cge"), sizes, cap,
                                           bins, checker.packable(sizes, cap, bins)))
    return inputs


def _desk_exact_check(inst: Instance):
    """Valid walks, and exact <= approx <= exact + 2|VC'|, with the approx
    value and the connected cover VC' taken from the program after the pass."""
    def check(out: str) -> list[str]:
        from cge.approx import approx_solve
        from cge.cover import connect_cover, vertex_cover_2approx
        from cge.graphs import ExplorationInstance, Multigraph

        problems = checker.solution_problems(inst, out)
        if problems:
            return problems
        g = Multigraph(inst.n, {e: 1 for e in inst.edges})
        cover = vertex_cover_2approx(g)
        approx = approx_solve(ExplorationInstance(g, inst.init, inst.k), cover).value
        slack = 2 * len(connect_cover(g, cover, inst.init))
        opt = checker.solution_value(out)
        if not opt <= approx <= opt + slack:
            problems.append(f"exact {opt} and approx {approx} break the additive bound")
        return problems

    return check


def _bin_checks(case: BinCase):
    def reduce_check(out: str) -> list[str]:
        inst = checker.parse_instance(out)
        n_expected = 1 + len(case.sizes) + sum(s - 1 for s in case.sizes)
        if (inst.n, inst.init, inst.k, inst.budget) != (n_expected, 0, case.bins,
                                                       2 * case.capacity):
            return [f"reduced instance header {(inst.n, inst.init, inst.k, inst.budget)}"]
        if len(inst.edges) != n_expected - 1:
            return ["reduced instance is not a tree"]
        return []

    def decide_check(out: str) -> list[str]:
        from cge.hardness import BinPackingInstance, brute_binpacking

        reference = brute_binpacking(
            BinPackingInstance(case.sizes, case.capacity, case.bins, True))
        if reference != case.packable:
            return [f"brute_binpacking says {reference}, exhaustive search {case.packable}"]
        if not case.packable:
            return [] if out == "no\n" else [f"expected 'no', got {out[:40]!r}"]
        inst = checker.parse_instance(case.cge_path.read_text(encoding="utf-8"))
        if not out.startswith("yes\n"):
            return ["expected 'yes'"]
        return checker.solution_problems(inst, out[4:], inst.budget)

    return reduce_check, decide_check


def run_exact_desk(cli, inputs: DeskInputs) -> None:
    for path, inst in inputs.graphs:
        cli.run(["solve-exact", str(path)], check=_desk_exact_check(inst))
    for case in inputs.bins:
        reduce_check, decide_check = _bin_checks(case)
        out = cli.run(["reduce-bin", str(case.path), "--to-cge"], check=reduce_check)
        case.cge_path.write_text(out, encoding="utf-8")
        cli.run(["solve-exact", str(case.cge_path)], expect=0 if case.packable else 1,
                check=decide_check)


WORKLOADS = {
    "fpt-corpus": (setup_fpt_corpus, run_fpt_corpus),
    "approx-scale": (setup_approx_scale, run_approx_scale),
    "robots-wide": (setup_robots_wide, run_robots_wide),
    "exact-desk": (setup_exact_desk, run_exact_desk),
}
