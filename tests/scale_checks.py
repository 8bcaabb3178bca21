"""The `cge` console script at scale: digests, peak RSS, time limits and
guard trips, each command in a fresh process, at sizes tier-1 cannot afford.
Run `python tests/scale_checks.py` with `cge` on PATH (`pip install -e .`);
it runs every check, lists the failures and exits 1 if there are any.

Linux carries the peak RSS of the process that starts a command into the
command's `ru_maxrss`: after a vfork (subprocess's default) its peak, after a
fork its present RSS.  So the script forks and stays small, and an empty
child must peak below every command."""

import hashlib
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "data" / "corpus"
DSTAR = CORPUS / "dstar-1-1-1-k1.cge"
# 11 vertices, 18 edges: one robot needs a tour of 22 edges
M18 = "0 2 0 3 0 4 0 9 0 10 1 2 1 8 1 9 2 10 3 5 3 6 3 8 3 10 4 7 4 8 5 7 7 9 9 10"
peaks: list[float] = []  # MB, of every command run


def require(ok: object, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def cge(*args: object, out: str = os.devnull, code: int = 0, timeout: float = math.inf,
        limit: float = math.inf) -> float:
    """Run `cge *args` with stdout to `out` and stderr to `err`: exit `code`
    (-9 if killed after `timeout` seconds), peak RSS below `limit` MB.
    Returns the peak."""
    deadline = time.monotonic() + timeout
    with open(out, "wb") as fh, open("err", "wb") as eh:
        # a preexec_fn makes subprocess fork, not vfork
        proc = subprocess.Popen(["cge", *map(str, args)], stdout=fh, stderr=eh,
                                preexec_fn=os.getpid)
    while not (done := os.wait4(proc.pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            proc.kill()
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(done[1])
    peak = done[2].ru_maxrss / 1024
    require(proc.returncode == code, f"{args[0]} exited {proc.returncode}, not {code}: "
            f"{Path('err').read_text()[-300:]}")
    if limit < math.inf:
        print(f"  {args[0]} peaks at {peak:.1f} MB, limit {limit:.1f} MB")
        require(peak < limit, f"{args[0]} peaks at {peak:.1f} MB, limit {limit:.1f} MB")
    peaks.append(peak)
    return peak


def guard_trip(*args: object, timeout: float = math.inf) -> None:
    """Exit 3, a `resource guard:` line, no traceback, nothing on stdout."""
    cge(*args, out="out", code=3, timeout=timeout)
    err = Path("err").read_text()
    print("  " + err.rstrip("\n"))
    require("\nresource guard: " in "\n" + err, f"{args[0]}: no 'resource guard:' line")
    require("Traceback" not in err, f"{args[0]}: a traceback")
    require(not Path("out").stat().st_size, f"{args[0]}: output on stdout")


def sums(pinned: dict[str, str]) -> None:
    """Each file hashes, read in 64 KB pieces, to its pinned sha256."""
    wrong = []
    for name, hexdigest in pinned.items():
        digest = hashlib.sha256()
        with open(name, "rb") as fh:
            while piece := fh.read(1 << 16):
                digest.update(piece)
        wrong += [name] * (digest.hexdigest() != hexdigest)
    require(not wrong, f"sha256 differs for {', '.join(wrong)}")


def write(name: str, head: str, ends: str = "") -> str:
    """An instance: the `head` lines, then an `edge` line per pair of `ends`."""
    e = ends.split()
    Path(name).write_text(head + "".join(f"edge {u} {v}\n" for u, v in zip(e[::2], e[1::2])))
    return name


def random_graph(name: str, seed: int, n: int, m: int) -> str:
    """A random spanning tree on shuffled ids plus random edges up to m, as
    the benchmark's size series builds one, written by a forked child."""
    if (pid := os.fork()) == 0:
        try:
            rng = random.Random(seed)
            order = list(range(n))
            rng.shuffle(order)
            edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
            while len(edges) < m:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            write(name, f"cge 1\nnodes {n}\ninit 0\nrobots 8\n",
                  " ".join(f"{u} {v}" for u, v in sorted(edges)))
            os._exit(0)
        finally:
            os._exit(1)
    require(os.waitpid(pid, 0)[1] == 0, f"no graph written to {name}")
    return name


def lines(name: str) -> list[str]:
    return Path(name).read_text().splitlines()


def drop_yes(src: str, dst: str) -> str:
    """The solution after solve-exact's `yes` line."""
    text = Path(src).read_text()
    require(text.startswith("yes\n"), f"{src} is not a 'yes'")
    Path(dst).write_text(text[4:])
    return dst


def check_cli_round_trip() -> None:
    """Solve, verify, compile, derive, check and rebuild star3-k2."""
    inst = CORPUS / "star3-k2.cge"
    cge("solve-exact", inst, out="exact.out")
    cge("verify", inst, drop_yes("exact.out", "exact.sol"))
    cge("build-ilp", inst, "-o", "system.ilp")
    cge("derive-witness", inst, "exact.sol", "-o", "witness.assign")
    cge("check-witness", "system.ilp", "witness.assign")
    cge("reconstruct", "system.ilp", "witness.assign", inst, out="rebuilt.sol")
    cge("verify", inst, "rebuilt.sol")


def check_million_robots() -> None:
    """A million robots on one edge form a few runs, so these stay fast.
    verify reads the 20 MB solution in pieces (153 MB when it held it); the
    solves hold one copy of their text (53.8 and 46.2 MB on a 2-vCPU host
    with CPython 3.11, 72.7 and 61.3 MB with two)."""
    inst = write("wide.cge", "cge 1\nnodes 2\ninit 0\nrobots 1000000\n", "0 1")
    cge("solve-approx", inst, out="approx.sol", limit=60)
    cge("verify", inst, "approx.sol", out="verify.out", limit=50)
    cge("solve-exact", inst, out="exact.sol", limit=52)
    sums({"approx.sol": "fea258eaccfcb9b679e1ce9dc2c951682e87207fe22175104132d813c45af853",
          "verify.out": "58caf106bdd1f5864b1cbbcdbefe5b60115b0349b4b4b1f67a17e6259f561db1",
          "exact.sol": "cd0ddc83fb0680217ba264711e42f2d10c3c3c37448e116e0a56094fda3e28e9"})


def check_hundred_thousand_robots() -> None:
    """The compiler derives the witness and rebuilds the walks once per run of
    robots; the digests pin the bytes of the per-robot code."""
    inst = write("star.cge", "cge 1\nnodes 3\ninit 0\nrobots 100000\nbudget 4\n", "0 1 0 2")
    cge("solve-approx", inst, out="approx.sol")
    cge("derive-witness", inst, "approx.sol", "-o", "star.assign")
    cge("build-ilp", inst, "-o", "star.ilp")
    cge("reconstruct", "star.ilp", "star.assign", inst, out="rebuilt.sol")
    sums({"approx.sol": "56be0e9876cdaa409e6c9e4eec416f5ce578c1ca8e32c39203867966a2dc81a4",
          "star.assign": "b07c6b4810c2f6e5f5a93f3e8d831282f392595bb215a4e821f429af565d618b",
          "star.ilp": "a64a1a31797a38a88b98b23a012a4e8b7db99c046b0665e450d00f3c53e0b0c5",
          "rebuilt.sol": "0c5abfdfa2ae0b46c0f442befc44f640b00a92c3d4e561009be464a4ebac4c25"})


def check_compiler_memory() -> None:
    """On a 37 044-variable system the compiler may add 17, 19, 18 and 22 MB
    to solve-exact's peak.  It adds 13.9, 14.1, 12.9 and 18.0 MB (2-vCPU
    host, CPython 3.11) with rows held as runs, 20.5, 22.3, 24.1 and 27.2 MB
    with one pair per term, the form that recorded the digests."""
    base = cge("solve-exact", DSTAR, out="exact.out")
    sol = drop_yes("exact.out", "exact.sol")
    cge("build-ilp", DSTAR, "-o", "system.ilp", limit=base + 17)
    cge("derive-witness", DSTAR, sol, "-o", "witness.assign", limit=base + 19)
    cge("check-witness", "system.ilp", "witness.assign", limit=base + 18)
    cge("reconstruct", "system.ilp", "witness.assign", DSTAR, out="rebuilt.sol", limit=base + 22)
    sums({"system.ilp": "dd84d515f6fb47573ed73bdb0e7722745ddd3809f75545f8300d5753c9fee915",
          "witness.assign": "402b8c0fa69e9dbd78f04de6e400e200539e24f9ce6d6ce53fcc98de4f268f7d",
          "rebuilt.sol": "19431083b1ce021ee2d4074fdcab3addf912ef3c1f37daf7ade700ee9a5ca643"})


def check_cycle_instances() -> None:
    """The witness holds 500 length-2 cycle instances, one per robot, and
    1000 length-4 ones, two per robot round-robin: where do they go?"""
    inst = write("star.cge", "cge 1\nnodes 3001\ninit 0\nrobots 500\nbudget 12\n",
                 " ".join(f"0 {i}" for i in range(1, 3001)))
    cge("solve-approx", inst, "--vc", "0", out="approx.sol")
    cge("derive-witness", inst, "approx.sol", "--vc", "0", "-o", "star.assign")
    cge("build-ilp", inst, "--vc", "0", "-o", "star.ilp")
    cge("reconstruct", "star.ilp", "star.assign", inst, "--vc", "0", out="rebuilt.sol")
    first = [line for line in lines("rebuilt.sol") if line.startswith("robot 1:")]
    require(first == ["robot 1: 0 1 0 501 0 502 0 1501 0 1502 0 2501 0"], f"robot 1: {first}")
    sums({"star.cge": "12acee1a845e26e85f452c2f94649f4e9300548923844baacbe2be1ec10a1dc8",
          "approx.sol": "30f555935504dce13bb4299b48934d6ec825ff135d68306a904bbf303da82cb7",
          "star.assign": "67baee76768161e45b86d4f9328277a5cd0263335f092cfbc7a604881ced5980",
          "star.ilp": "3d70103156d4c7af914606cfce4cfc027a93f60b270660a0983b7d34a2891550",
          "rebuilt.sol": "a0059f533f4d9bf777bcf914adbf0de0371a9482833dfd5ce8f6ad29e8c222d8"})


def check_edge_walked_three_times() -> None:
    """The approximate walk takes edge 0-1 three times; its pair cuts that
    count to 1, which keeps the support and every degree's parity."""
    inst = write("tri.cge", "cge 1\nnodes 3\ninit 0\nrobots 1\nbudget 5\n", "0 1 0 2 1 2")
    cge("solve-approx", inst, out="approx.sol")
    require("robot 1: 0 1 0 1 2 0" in lines("approx.sol"), "another approximate walk")
    cge("derive-witness", inst, "approx.sol", "-o", "tri.assign")
    cge("build-ilp", inst, "-o", "tri.ilp")
    cge("check-witness", "tri.ilp", "tri.assign", out="check.out")
    require(lines("check.out") == ["satisfied"], "witness not satisfied")
    cge("reconstruct", "tri.ilp", "tri.assign", inst, out="rebuilt.sol")
    cge("verify", inst, "rebuilt.sol", out="verify.out")
    require("result: ok" in lines("verify.out"), "rebuilt walk not verified")


def check_trillion_cycle_instances() -> None:
    """eq6 bounds the length-4 cycle instances only by the budget, so a
    witness may ask for 10^12; reconstruct refuses before drawing any."""
    inst = write("star.cge", "cge 1\nnodes 3\ninit 0\nrobots 1\nbudget 4000000000000\n", "0 1 0 2")
    cge("solve-approx", inst, "--vc", "0", out="approx.sol")
    cge("build-ilp", inst, "--vc", "0", "-o", "star.ilp")
    cge("derive-witness", inst, "approx.sol", "--vc", "0", "-o", "star.assign")
    require("c eq6 : -3999999999996 x_rob_1 + 4 x_cyc_10 <= 0" in lines("star.ilp"), "eq6")
    text = Path("star.assign").read_text()
    require("\nx_cyc_10 0\n" in text, "no 'x_cyc_10 0' line")
    Path("star.assign").write_text(text.replace("\nx_cyc_10 0\n", "\nx_cyc_10 999999999999\n"))
    cge("check-witness", "star.ilp", "star.assign", out="check.out")
    require(lines("check.out") == ["satisfied"], "witness not satisfied")
    guard_trip("reconstruct", "star.ilp", "star.assign", inst, "--vc", "0", timeout=10)


def check_type_space_cap() -> None:
    """Cover {0, 1} with three classes gives over 200 000 types, counted
    against one cap as they are built; no system is written."""
    inst = write("cap.cge", "cge 1\nnodes 9\ninit 0\nrobots 2\nbudget 8\n",
                 "0 1 0 2 0 3 1 4 1 5 0 6 1 6 0 7 1 7 0 8 1 8")
    guard_trip("build-ilp", inst, "-o", "cap.ilp", timeout=30)
    require(not Path("cap.ilp").exists(), "a system was written")


def check_far_budget() -> None:
    """No walk state has potential above 2|E|, so the walk search stops
    there; one round per unit of budget would never finish."""
    inst = write("far.cge", "cge 1\nnodes 2\ninit 0\nrobots 1\nbudget 1000000000000\n", "0 1")
    cge("solve-exact", inst, out="out", timeout=10)
    require(Path("out").read_text() == "yes\nvalue 2\nrobot 1: 0 1 0\n", "another solution")


def check_ring_parity_fix() -> None:
    """One BFS tree from init 1000 fixes every robot's parities; a tree has
    one T-join, so the digests of the tree rooted at vertex 0 still hold."""
    ring = " ".join(f"{i} {i + 1}" for i in range(1999)) + " 0 1999 500 1500"
    inst = write("ring.cge", "cge 1\nnodes 2000\ninit 1000\nrobots 3\n", ring)
    cge("solve-approx", inst, out="approx.sol")
    cge("verify", inst, "approx.sol", out="verify.out")
    sums({"approx.sol": "0696ff9f41eb57cf90d96b59e15bc4f0ea89800780ee5cbb74919a513e16d8eb",
          "verify.out": "223c293529b9168c185eb3e0fc59a107c98c9995ed38846457a05c54b669d9d5"})


def check_approx_6000_edges() -> None:
    """Five times the benchmark's largest graphs: parse, parity fix, Euler
    tours and verify."""
    inst = random_graph("big.cge", 2000, 2000, 6000)
    cge("solve-approx", inst, out="approx.sol")
    cge("verify", inst, "approx.sol", out="verify.out")
    sums({"big.cge": "568d26beebafce7ccfc38f85093ab798dff8a5cce4d6d45f70fa9d776691ea4f",
          "approx.sol": "4312b5132ca42325962b34afb45de0f0204dcae5e50de9901fa96e0069fd31c6",
          "verify.out": "138aa7a5f6710e015912f7fe754bd1791df8a7d1ec424718220d97dd81ecab37"})


def check_approx_60000_edges() -> None:
    """Ten times the 6000-edge check, digests recorded with the line reader.
    Read in bulk, the edges take 40.1 and 48.9 MB at peak (2-vCPU host,
    CPython 3.11), against 45.4 and 53.3 MB line by line."""
    inst = random_graph("big.cge", 60000, 20000, 60000)
    cge("solve-approx", inst, out="approx.sol", timeout=60, limit=43)
    cge("verify", inst, "approx.sol", out="verify.out", timeout=60, limit=51)
    sums({"big.cge": "ad6e1dec4b5ae3ed79d4f1395ff4d9e56f9f8fd25a230dd2686b17bafb1e76c8",
          "approx.sol": "bba09eee69b26ecc6b4b419197cc9d1ed81059d93ed9416a76bd3204af640a43",
          "verify.out": "0d0a235e01fae5e1fbb78ba46d15b799bf84154e4a80f770003ee925281a15ff"})


def check_huge_capacity() -> None:
    """Padding to 10^18 unit items is a guard trip, not a "no"."""
    write("huge.binpack", "binpack 1\ncapacity 1000000000000000000\nbins 1\nexact 0\nitem 1\n")
    for flag in ("--to-exact", "--to-cge"):
        guard_trip("reduce-bin", "huge.binpack", flag)


def check_trillion_robots() -> None:
    """The robot cap refuses 10^12 solution lines before any table is built,
    with a guard trip, not a "no"."""
    inst = write("huge.cge", "cge 1\nnodes 2\ninit 0\nrobots 1000000000000\n", "0 1")
    for command in ("solve-approx", "solve-exact"):
        guard_trip(command, inst)


def check_exact_m18_two_robots() -> None:
    """The postman start bound and the per-edge entry bitsets make this take
    well under a second; the digest pins the walks the slower search chose."""
    cge("solve-exact", write("m18.cge", "cge 1\nnodes 11\ninit 0\nrobots 2\n", M18), out="exact.sol")
    sums({"exact.sol": "a9d7139138b4e00cde6e6b0ae96155aa50c221a6331c58299a0097046a41df53"})


def check_exact_m18_one_robot() -> None:
    """A pruned depth-first search, not the walk catalog (about 14 s on a
    2-vCPU host), finds the walk the catalog chose."""
    inst = write("m18.cge", "cge 1\nnodes 11\ninit 0\nrobots 1\n", M18)
    cge("solve-exact", inst, out="exact.sol", timeout=10)
    sums({"exact.sol": "39849c546b664566742aa099bb730712c5a0ded0101d79e18f3709c05e60a3e6"})


def check_below_postman_bound() -> None:
    """Budget 21 is below the 22-edge tour, so one robot gets a "no" before
    any walk is searched, and a one-node limit cannot trip."""
    inst = write("m18.cge", "cge 1\nnodes 11\ninit 0\nrobots 1\nbudget 21\n", M18)
    cge("solve-exact", inst, "--node-limit", "1", out="out", code=1)
    require(lines("out") == ["no"], "not a 'no'")


def check_exact_m22_two_robots() -> None:
    """The last robot takes the first entry in the AND of the uncovered
    edges' bitsets: about 2 s, against a minute for the linear scan that
    recorded the digest."""
    inst = write("m22.cge", "cge 1\nnodes 13\ninit 0\nrobots 2\n", "0 2 0 3 0 10 0 11 0 12 1 6 "
                 "1 7 2 5 2 6 2 7 2 9 2 10 3 6 3 8 3 9 3 10 4 7 4 9 5 7 5 8 7 9 11 12")
    cge("solve-exact", inst, out="exact.sol")
    sums({"exact.sol": "49fb8b27f9687fb2487520fca540e04f8f510e6a3d2e4dac31527307f16f939a"})


def main() -> int:
    checks = [f for name, f in globals().items() if name.startswith("check_")]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for check in checks:
            os.chdir(tempfile.mkdtemp(dir=tmp))
            try:
                check()
                verdict = "ok"
            except Exception as exc:  # a check that cannot run has failed too
                verdict = f"FAILED: {exc!r}"
                failures.append(check.__name__)
            print(f"{check.__name__}: {verdict}", flush=True)
        # every command starts from this script's present RSS, and so does this child
        probe = subprocess.Popen([sys.executable, "-S", "-c", ""], preexec_fn=os.getpid)
        _, probe.returncode, usage = os.wait4(probe.pid, 0)
    floor, least = usage.ru_maxrss / 1024, min(peaks, default=math.inf)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: this script {own:.1f} MB, an empty child {floor:.1f} MB, "
          f"the least command {least:.1f} MB")
    failures += ["an empty child peaking as high as a command"] * (floor >= least)
    print(f"{len(checks)} checks; failed: {', '.join(failures) or 'none'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
