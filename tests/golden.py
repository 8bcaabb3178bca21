"""Byte manifest of the CLI over the committed corpus.

Every corpus `.cge` file goes through `build-ilp`, `solve-approx` and
`solve-exact`, both solutions through `verify` and `derive-witness`, and every
witness written through `check-witness` and `reconstruct`.  Every corpus
`.binpack` file goes through both `reduce-bin` flags, and the reduced `cge`
instance through `solve-exact`.  Then come the flagged calls (`--vc`,
`--max-budget`, `--output`), the guard trips (`guard-c4.cge`, an instance
past the type cap, the search node limit and the robot cap) and the usage
errors cge words itself (`reduce-bin` with both flags, and a `--node-limit`,
`--max-budget` or `--vc` out of range).  Last come the paths no other call
reaches: a witness that violates a constraint and one with a negative value,
`reconstruct` given another instance's system, `--vc a`, `build-ilp` without
a budget, `verify` given a bin packing, bin packings with `exact 2` and
`item 0`, and `solve-exact` on a single vertex.  Seeded mid-size graphs and
other malformed inputs are not in it yet.

Each key is a command line with paths reduced to file names.  Its value holds
the exit code, the sha256 of stdout and of stderr (the scratch directory
replaced by a fixed placeholder), and the sha256 of every `-o` or `--output`
file written.

    PYTHONPATH=src python tests/golden.py           # list the keys that differ
    PYTHONPATH=src python tests/golden.py --record  # rewrite data/golden.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # as in conftest.py: no bytecode under src/

from cge.cli import main as cli_main  # noqa: E402

DATA = Path(__file__).parent / "data"
CORPUS = DATA / "corpus"
GOLDEN = DATA / "golden.json"
PLACEHOLDER = "<scratch>"

# cover {0, 1} with three classes: more than 200 000 types of all kinds
CAP_TRIP = (
    "cge 1\nnodes 9\ninit 0\nrobots 2\nbudget 8\nedge 0 1\nedge 0 2\nedge 0 3\n"
    "edge 1 4\nedge 1 5\nedge 0 6\nedge 1 6\nedge 0 7\nedge 1 7\nedge 0 8\nedge 1 8\n"
)
BOTH_FLAGS = "binpack 1\ncapacity 3\nbins 2\nexact 0\nitem 2\nitem 1\n"
# no budget line, so `--max-budget` bounds the optimum search; the optimum is 3
NO_BUDGET = "cge 1\nnodes 3\ninit 0\nrobots 2\nedge 0 1\nedge 0 2\nedge 1 2\n"
# one robot past cli.MAX_ROBOTS
ROBOT_TRIP = "cge 1\nnodes 2\ninit 0\nrobots 10000001\nedge 0 1\n"
BAD_BINPACKS = {
    "exact-2": "binpack 1\ncapacity 3\nbins 1\nexact 2\nitem 1\n",
    "item-0": "binpack 1\ncapacity 3\nbins 1\nexact 0\nitem 0\n",
}
# no edges: the optimum is 0 and the robot's walk is its start
ONE_VERTEX = "cge 1\nnodes 1\ninit 0\nrobots 1\n"


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def manifest(workdir: Path) -> dict[str, dict]:
    """Run every command of the manifest with its files in `workdir`."""
    entries: dict[str, dict] = {}

    def run(*argv: Path | str) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main([str(a) for a in argv])
        written = [Path(argv[i + 1]) for i, a in enumerate(argv) if a in ("-o", "--output")]
        entries[" ".join(Path(a).name for a in argv)] = {
            "exit": code,
            "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue().replace(str(workdir), PLACEHOLDER)),
            "files": {p.name: _sha(p.read_bytes()) for p in written if p.exists()},
        }
        return code, out.getvalue()

    def copy(name: str) -> Path:
        return Path(shutil.copy(CORPUS / name, workdir / name))

    for src in sorted(CORPUS.glob("*.cge")):
        if src.name.startswith("guard-"):
            continue
        inst = copy(src.name)
        ilp = workdir / f"{src.stem}.ilp"
        run("build-ilp", inst, "-o", ilp)
        for solver in ("approx", "exact"):
            code, text = run(f"solve-{solver}", inst)
            if code != 0:
                continue
            sol = workdir / f"{src.stem}.{solver}.sol"
            sol.write_text(text.removeprefix("yes\n"), encoding="utf-8")
            assign = workdir / f"{src.stem}.{solver}.assign"
            run("verify", inst, sol)
            run("derive-witness", inst, sol, "-o", assign)
            if assign.exists():
                run("check-witness", ilp, assign)
                run("reconstruct", ilp, assign, inst)
    for src in sorted(CORPUS.glob("*.binpack")):
        bp = copy(src.name)
        run("reduce-bin", bp, "--to-exact")
        code, text = run("reduce-bin", bp, "--to-cge")
        if code == 0:
            reduced = workdir / f"{src.stem}.reduced.cge"
            reduced.write_text(text, encoding="utf-8")
            run("solve-exact", reduced)

    for src in sorted(CORPUS.glob("guard-*.cge")):
        run("build-ilp", copy(src.name), "-o", workdir / f"{src.stem}.ilp")
    cap_trip = workdir / "cap-trip.cge"
    cap_trip.write_text(CAP_TRIP, encoding="utf-8")
    run("build-ilp", cap_trip, "-o", workdir / "cap-trip.ilp")
    both = workdir / "both-flags.binpack"
    both.write_text(BOTH_FLAGS, encoding="utf-8")
    run("reduce-bin", both, "--to-exact", "--to-cge")

    star = copy("star3-k2.cge")
    run("solve-approx", star, "--vc", "0")
    run("build-ilp", star, "--output", workdir / "star3-k2.vc0.ilp", "--vc", "0")
    no_budget = workdir / "no-budget.cge"
    no_budget.write_text(NO_BUDGET, encoding="utf-8")
    run("solve-exact", no_budget, "--max-budget", "2")
    run("solve-exact", no_budget, "--max-budget", "3")
    run("solve-exact", copy("triangle-k2.cge"), "--node-limit", "1")
    robot_trip = workdir / "robot-trip.cge"
    robot_trip.write_text(ROBOT_TRIP, encoding="utf-8")
    run("solve-approx", robot_trip)
    run("solve-exact", star, "--node-limit", "0")
    run("solve-exact", no_budget, "--max-budget", "-1")
    run("solve-approx", star, "--vc", "9")

    witness = (workdir / "star3-k2.exact.assign").read_text(encoding="utf-8").splitlines()
    for name, value in (("rob-5", 5), ("rob-negative", -1)):
        bad = workdir / f"star3-k2.{name}.assign"
        bad.write_text("".join(
            f"x_rob_0 {value}\n" if line.startswith("x_rob_0 ") else f"{line}\n" for line in witness
        ), encoding="utf-8")
        run("check-witness", workdir / "star3-k2.ilp", bad)
    run("reconstruct", workdir / "star2-k1.ilp", workdir / "star3-k2.exact.assign", star)
    run("solve-approx", star, "--vc", "a")
    run("build-ilp", no_budget, "-o", workdir / "no-budget.ilp")
    run("verify", copy("bp-plain-1.binpack"), workdir / "star3-k2.exact.sol")
    for name, text in BAD_BINPACKS.items():
        bp = workdir / f"{name}.binpack"
        bp.write_text(text, encoding="utf-8")
        run("reduce-bin", bp, "--to-cge")
    one_vertex = workdir / "one-vertex.cge"
    one_vertex.write_text(ONE_VERTEX, encoding="utf-8")
    run("solve-exact", one_vertex)
    return entries


def differing_keys(pinned: dict, current: dict) -> list[str]:
    return sorted(k for k in pinned.keys() | current.keys() if pinned.get(k) != current.get(k))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        current = manifest(Path(tmp))
    if args.record:
        # one key per line, so the diff of a re-record lists exactly the keys that moved
        lines = (
            f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(current.items())
        )
        GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"recorded {len(current)} keys in {GOLDEN}")
        return 0
    changed = differing_keys(json.loads(GOLDEN.read_text(encoding="utf-8")), current)
    for key in changed:
        print(key)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
