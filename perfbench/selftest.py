"""Smoke-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at smoke size in both trace modes and checks that each
metric named in BENCHMARK.json is emitted with its unit, that a seed always
gives the same inputs, that traced work counts repeat exactly, and that the
checker rejects corrupted output and wrong exit codes.
"""

from __future__ import annotations

import hashlib
import json
import sys

import checker
import run
import workloads


def declared():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = lambda key: {m["name"]: m["unit"] for m in spec[key]}  # noqa: E731
    return units("end_to_end"), units("per_layer"), [w["name"] for w in spec["workloads"]]


def input_digest(name: str, seed: int) -> str:
    files: dict = {}
    workloads.WORKLOADS[name][0](seed, run.WORK / f"selftest-{name}", True, files)
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(path.name.encode() + b"\0" + files[path].encode())
    return h.hexdigest()


def test_metrics_and_counts(name, e2e, layers) -> None:
    result, report = run.benchmark(name, 3, 0, trace=False, smoke=True)
    assert result["correct"] and result["failed"] == 0, report
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == e2e, (name, set(got) ^ set(e2e))
    assert all(v["value"] > 0 for v in result["metrics"].values()), result
    counts = []
    for _ in range(2):
        result, report = run.benchmark(name, 3, 0, trace=True, smoke=True)
        assert result["correct"], report
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == layers, (name, set(got) ^ set(layers))
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1], (name, "traced work counts differ between runs")


def test_seeded_inputs(name) -> None:
    assert input_digest(name, 5) == input_digest(name, 5), name


def test_checker_rejects_corruption() -> None:
    inst = checker.Instance(4, 0, 2, 6, frozenset({(0, 1), (1, 2), (0, 3)}))
    good = "value 4\nrobot 1: 0 1 2 1 0\nrobot 2: 0 3 0\n"
    assert checker.solution_problems(inst, good, inst.budget) == []
    dropped_edge = "value 2\nrobot 1: 0 1 0\nrobot 2: 0 3 0\n"
    wrong_end = "value 4\nrobot 1: 0 1 2 1 1\nrobot 2: 0 3 0\n"
    non_edge = "value 4\nrobot 1: 0 1 2 3 0\nrobot 2: 0 3 0\n"
    over_budget = "value 8\nrobot 1: 0 1 2 1 0 1 2 1 0\nrobot 2: 0 3 0\n"
    for bad in (dropped_edge, wrong_end, non_edge, over_budget):
        assert checker.solution_problems(inst, bad, inst.budget), bad
    wrong_code = run.Record(["solve-exact", "x.cge"], 0, None, 1, good, 0.0)
    failures, _ = run.check_pass([wrong_code], {}, None)
    assert failures, "a wrong exit code was accepted"
    right = run.Record(["solve-exact", "x.cge"], 0, None, 0, good, 0.0)
    key = run.record_key(right)
    failures, _ = run.check_pass([right], {key: "0" * 16}, None)
    assert failures, "changed output bytes were accepted"


def main() -> int:
    e2e, layers, names = declared()
    test_checker_rejects_corruption()
    for name in names:
        test_seeded_inputs(name)
        test_metrics_and_counts(name, e2e, layers)
        print(f"ok {name}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
