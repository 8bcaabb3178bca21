"""Benchmark of the `cge` command line, driven in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --record

One client issues one command at a time (a closed loop) through
`cge.cli.main`, with argv exactly as typed at a shell and stdout captured.
A run repeats full passes over its inputs until `--seconds` are used (at
least MIN_PASSES), each untraced pass on a set-up of its own: a fresh import
of the program and freshly written inputs.  Every pass is checked as it ends,
with the benchmark's own checker and against the recorded stdout digests in
reference.json.  `--trace 0` reports the end-to-end metrics; `--trace 1`
runs untraced and traced passes and reports per-layer metrics.  The last
stdout line is one JSON object; the lines before it are a readable report.
`--record` adds this seed's output digests to reference.json.

State that persists across in-process `main()` calls (imported modules,
warm allocator) is not a gain a shell user sees: each CLI invocation there
is a fresh process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench-work"
MIN_PASSES = 5
SETUPS_PER_PASS = 3
# Seconds reference_work takes at the nominal host speed: about its time on
# an unloaded 2.1 GHz Xeon vCPU under CPython 3.11.  Every reported command and
# set-up time is scaled by REFERENCE_S over what reference_work took just
# before it, which cancels the drift of a shared host's throughput.
REFERENCE_S = 0.0025
COMMANDS = ("solve-exact", "solve-approx", "verify", "build-ilp", "derive-witness",
            "check-witness", "reconstruct", "reduce-bin")

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


class BenchmarkError(Exception):
    """The benchmark cannot run here (for example, no program source)."""


def import_cli():
    """Fresh import of the program, as a new process would do it."""
    for name in [n for n in sys.modules if n == "cge" or n.startswith("cge.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cge.cli

    if Path(cge.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchmarkError(f"imported cge from {cge.cli.__file__}, not from {SRC}")
    return cge.cli.main


def reference_work() -> int:
    """Fixed interpreter-bound work (dicts, lists, sorting, integer and
    string operations) that shares no code with the program."""
    adj: dict[int, list[int]] = {}
    for i in range(8000):
        adj.setdefault(i % 97, []).append((i * 7919) % 1009)
    total = 0
    for key, values in adj.items():
        values.sort()
        total += sum(values) ^ key
    return total + len(" ".join(str(v) for values in adj.values() for v in values))


def reference_seconds(repeats: int = 1) -> float:
    """Median time of `repeats` runs of reference_work."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        reference_work()
        times.append(perf_counter() - start)
    return statistics.median(times)


def reference_repeats(seconds: float) -> int:
    """Reference runs before a command that took `seconds` last pass: about
    a tenth of its time, from 1 to 9."""
    return min(9, max(1, round(seconds / (10 * REFERENCE_S))))


def nominal(seconds: float, reference: float) -> float:
    """`seconds` at the nominal host speed, on which reference_work takes
    REFERENCE_S; `reference` is what it took just before."""
    return seconds * REFERENCE_S / reference


@dataclass
class Record:
    argv: list[str]
    expect: int
    check: Callable[[str], list[str]] | None
    code: int | str | None
    stdout: str
    seconds: float
    reference: float = REFERENCE_S  # reference_seconds() just before the command

    @property
    def nominal(self) -> float:
        return nominal(self.seconds, self.reference)


class Cli:
    """Runs one command at a time through `main`, recording what it did."""

    def __init__(self, main, tracer=None):
        self.main = main
        self.tracer = tracer
        self.paired = False  # time reference_work before each command
        self.previous: list[float] = []  # command times of the previous pass
        self.records: list[Record] = []

    def _call(self, argv):
        try:
            return self.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            return exc.code
        except Exception as exc:  # the loop keeps going; the record fails
            return f"raised {type(exc).__name__}: {exc}"

    def run(self, argv, expect=0, check=None) -> str:
        out, err = io.StringIO(), io.StringIO()
        reference = REFERENCE_S
        if self.paired:
            index = len(self.records)
            last = self.previous[index] if index < len(self.previous) else 0.0
            reference = reference_seconds(reference_repeats(last))
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            if self.tracer is None:
                code = self._call(argv)
            else:
                code = self.tracer.command_span(len(self.records), lambda: self._call(argv))
        seconds = perf_counter() - start
        text = out.getvalue()
        self.records.append(Record(list(argv), expect, check, code, text, seconds,
                                   reference))
        return text


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def record_key(rec: Record) -> str:
    """Command plus the content of every input file; paths do not count."""
    parts = [rec.argv[0]]
    args = iter(rec.argv[1:])
    for arg in args:
        if arg == "-o":
            next(args)
            parts.append("-o")
        elif Path(arg).is_file():
            parts.append(file_digest(arg))
        else:
            parts.append(arg)
    return hashlib.sha256(" ".join(parts).encode()).hexdigest()[:16]


def output_digest(rec: Record) -> str:
    h = hashlib.sha256(f"{rec.code}\n{rec.stdout}".encode())
    if "-o" in rec.argv:
        out = Path(rec.argv[rec.argv.index("-o") + 1])
        if out.is_file():
            h.update(out.read_bytes())
    return h.hexdigest()[:16]


def load_reference() -> dict[str, str]:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"]
    return {}


def check_pass(records: list[Record], reference: dict, previous: list | None):
    """Problems per failed command, plus (key, digest) per command.

    A pass whose outputs are byte-identical to an already checked pass is
    not checked again.
    """
    digests = [(record_key(r), output_digest(r)) for r in records]
    failures = []
    if previous == digests:
        return failures, digests
    for rec, (key, digest) in zip(records, digests):
        problems = []
        if rec.code != rec.expect:
            problems.append(f"exit code {rec.code}, expected {rec.expect}")
        elif rec.check is not None:
            try:
                problems += rec.check(rec.stdout)
            except Exception as exc:  # a malformed output must not stop the run
                problems.append(f"checker raised {type(exc).__name__}: {exc}")
        if key in reference and reference[key] != digest:
            problems.append("output bytes differ from the recorded reference")
        if problems:
            failures.append((" ".join(rec.argv[:1] + [Path(a).name for a in rec.argv[1:]]),
                             problems))
    return failures, digests


def set_up(name: str, seed: int, workdir: Path, smoke: bool):
    """Import the program afresh and generate the inputs (timed), then write
    the input files into the new directory `workdir` (not timed); returns
    (main, inputs, seconds).  Creating a file on this host's disk takes about
    0.5 ms and varies fivefold from minute to minute; it is the benchmark's
    work, which no change to the program can move, and timing it buried the
    program's import time in file-system noise.  Each set-up of a run gets a
    directory of its own, removed when the run ends."""
    setup, _ = workloads.WORKLOADS[name]
    files: dict[Path, str] = {}
    start = perf_counter()
    main = import_cli()
    inputs = setup(seed, workdir, smoke, files)
    seconds = perf_counter() - start
    workdir.mkdir(parents=True)
    for path, text in files.items():
        path.write_text(text, encoding="utf-8")
    return main, inputs, seconds


class Checks:
    """Checks every pass as it ends, while its files are still in place."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.previous = None
        self.failures: list = []
        self.digests: dict[str, str] = {}

    def add(self, records: list[Record]) -> None:
        failed, self.previous = check_pass(records, self.reference, self.previous)
        self.failures += failed
        self.digests.update(self.previous)


@dataclass
class Passes:
    seconds: list[float] = field(default_factory=list)  # summed command times
    records: list[list[Record]] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)  # nominal set-up times
    inputs: object = None  # of the last set-up


def run_passes(cli: Cli, name: str, inputs, seconds: float, checks: Checks,
               fresh: Callable[[], tuple] | None = None) -> Passes:
    """Full passes until the next one would overrun `seconds`, at least
    MIN_PASSES of them (one when `seconds` is 0).  With `fresh`, each pass
    runs on a set-up of its own (fresh import and inputs; timed
    SETUPS_PER_PASS times), so the set-ups sample the whole run, and each
    command and set-up is paired with a reference_work timing just before
    it (the median of several before a long command)."""
    _, run_pass = workloads.WORKLOADS[name]
    done = Passes()
    cli.paired = fresh is not None
    started = perf_counter()
    while True:
        if fresh is not None:
            for _ in range(SETUPS_PER_PASS):  # the pass uses the last
                cli.main = inputs = done.inputs = None  # so the peak holds one set-up
                gc.collect()
                last = done.setups[-1] if done.setups else 0.0
                reference = reference_seconds(reference_repeats(last))
                cli.main, inputs, setup_s = fresh()
                done.setups.append(nominal(setup_s, reference))
        done.inputs = inputs
        cli.records = []
        gc.collect()
        run_pass(cli, inputs)
        cli.previous = [r.seconds for r in cli.records]
        done.seconds.append(sum(r.seconds for r in cli.records))
        done.records.append(cli.records)
        checks.add(cli.records)
        for rec in cli.records:  # checked; the peak must not grow with the pass count
            rec.stdout, rec.check = "", None
        used, npass = perf_counter() - started, len(done.seconds)
        if used + used / npass > seconds and (npass >= MIN_PASSES or seconds <= 0):
            cli.paired, cli.previous = False, []
            return done


def nominal_pass(passes: Passes) -> float:
    """Sum over the commands of a pass of each command's median nominal
    time over the passes."""
    argvs = [[[Path(a).name for a in r.argv] for r in recs] for recs in passes.records]
    if any(a != argvs[0] for a in argvs):
        raise BenchmarkError("passes issued different command sequences")
    return sum(statistics.median(r.nominal for r in column)
               for column in zip(*passes.records))


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def command_metrics(passes: Passes) -> dict[str, float]:
    """Per-command seconds per pass (median over passes) and latency tails."""
    out = {}
    for command in COMMANDS:
        metric = command.replace("-", "_") + "_s"
        out[metric] = statistics.median(
            sum(r.nominal for r in recs if r.argv[0] == command) for recs in passes.records)
    latencies = [r.nominal * 1000 for recs in passes.records for r in recs]
    out["cmd_p50_ms"] = statistics.median(latencies)
    out["cmd_p90_ms"] = percentile(latencies, 0.9)
    out["cmd_count"] = len(latencies)
    return out


def growth_exponent(name: str, tracer: tracing.Tracer, records, inputs) -> float:
    """Least-squares slope of log(approx_solve seconds) over log(n) for the
    m = 3n series of approx-scale; 0 on workloads without that series."""
    if name != "approx-scale":
        return 0.0
    series = {str(c.path): c.series_n for c in inputs if c.series_n}
    n_of_command = {i: series[r.argv[1]] for i, r in enumerate(records)
                    if r.argv[0] == "solve-approx" and r.argv[1] in series}
    seconds: dict[int, float] = {}
    for name, start, end, _, cmd in tracer.spans:
        if name == "approx.approx_solve" and cmd in n_of_command:
            n = n_of_command[cmd]
            seconds[n] = seconds.get(n, 0.0) + end - start
    xs = [math.log(n) for n in seconds]
    ys = [math.log(s) for s in seconds.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layer_metrics(name, inputs, cli, seconds, checks, untraced) -> tuple[dict, Passes]:
    """Traced passes: per-layer self time and calls per pass, work counts per
    pass, and the overhead against the untraced passes."""
    tracer = tracing.Tracer()
    tracer.install()
    cli.tracer = tracer
    traced = run_passes(cli, name, inputs, seconds, checks)
    cli.tracer = None
    npass = len(traced.seconds)
    self_s, calls = tracer.self_times()
    metrics = {}
    for span in tracing.SPAN_NAMES:
        metrics[f"{span}.self_s"] = self_s[span] / npass
        metrics[f"{span}.calls"] = calls[span] / npass
    for count in tracing.COUNT_NAMES:
        metrics[count] = tracer.counts[count] / npass
    metrics["approx.growth_exponent"] = growth_exponent(name, tracer, traced.records[0],
                                                        inputs)
    traced_pass = statistics.median(traced.seconds)
    metrics["trace.pass_s"] = traced_pass
    metrics["trace.overhead"] = traced_pass / statistics.median(untraced.seconds) - 1
    metrics["trace.accounted"] = sum(self_s.values()) / sum(traced.seconds)
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}.csv")
    return metrics, traced


UNITS = {"setup_s": "s", "pass_s": "s", "cmd_p50_ms": "ms", "cmd_p90_ms": "ms",
         "reference_ms": "ms", "peak_rss_mb": "MB", "cmd_count": "count",
         "failed_frac": "ratio", "approx.growth_exponent": "slope",
         "trace.overhead": "ratio", "trace.accounted": "ratio"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith(".bytes") else "count"


def benchmark(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
              record: bool = False):
    """One run; returns (result object, report lines)."""
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    setups = itertools.count()
    checks = Checks({} if record else load_reference())
    try:
        cli = Cli(None)
        budget = seconds / 2 if trace else seconds
        untraced = run_passes(
            cli, name, None, budget, checks,
            fresh=lambda: set_up(name, seed, workdir / str(next(setups)), smoke))
        traced = Passes()
        if trace:
            layers, traced = layer_metrics(name, untraced.inputs, cli, seconds - budget,
                                           checks, untraced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if record and not checks.failures:
            merged = load_reference()
            merged.update(checks.digests)
            REFERENCE.write_text(json.dumps({"digests": dict(sorted(merged.items()))},
                                            indent=0) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = checks.failures
    attempted = sum(len(r) for r in untraced.records + traced.records)
    extra = dict(command_metrics(untraced),
                 pass_wall_s=statistics.median(untraced.seconds),
                 reference_ms=1000 * statistics.median(
                     r.reference for recs in untraced.records for r in recs),
                 failed_frac=len(failures) / attempted)
    end_to_end = {"pass_s": nominal_pass(untraced),
                  "setup_s": statistics.median(untraced.setups),
                  "peak_rss_mb": peak_rss_mb}
    report = [f"workload {name} seed {seed}: {len(untraced.seconds)} untraced and "
              f"{len(traced.seconds)} traced passes, {attempted} commands, "
              f"{len(failures)} failed"]
    report += [f"FAILED {cmd}: {'; '.join(p)}" for cmd, p in failures[:20]]
    for metric, value in {**end_to_end, **extra}.items():
        report.append(f"  {metric} = {value:.6g} {unit_of(metric)}")
    if trace:
        metrics = {**layers, **extra}
        top = sorted(((v, k[:-7]) for k, v in layers.items() if k.endswith(".self_s")),
                     reverse=True)[:4]
        total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        report.append("  dominant self time: " + ", ".join(
            f"{span} {v / total:.0%}" for v, span in top))
    else:
        metrics = end_to_end
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run one pass and add its output digests to reference.json")
    args = parser.parse_args(argv)
    if not (SRC / "cge" / "cli.py").is_file() or not workloads.CORPUS.is_dir():
        print(f"error: no cge source under {SRC} or corpus under {workloads.CORPUS}",
              file=sys.stderr)
        return 2
    try:
        result, report = benchmark(args.workload, args.seed,
                                   0 if args.record else args.seconds,
                                   bool(args.trace), record=args.record)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
