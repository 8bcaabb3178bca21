"""The equation-system layer in runs: canonical rows and pinned memory peaks.

Every built row is a tuple of maximal runs (coefficient, first variable,
count), so a system has one form and parse_ilp(export_ilp(s)) == s over the
buildable corpus.  The four compiler commands on dstar-0-0-2-k2 and parse_ilp
of dstar-1-1-1-k1's export are measured under tracemalloc.  When rows held
one (coefficient, variable) pair per term and texts were checked against a
whole second rendering, the commands peaked at 1.79, 1.92, 2.05 and 2.43 MB
and parse_ilp at 20.1 MB.  Each command must now peak below its old value
and the largest at 1.8 MB or less, and parse_ilp at 16 MB or less.  With
CPython 3.11 they peak at 1.19, 1.27, 0.98, 1.44 and 7.3 MB.
"""

from __future__ import annotations

import io
import tracemalloc
from contextlib import redirect_stdout

import pytest

from cge.cli import main
from cge.fptilp.context import FptContext
from cge.fptilp.system import build_ilp_system, export_ilp, parse_ilp
from cge.fptilp.typespace import enumerate_type_space
from cge.textio import parse_instance

from corpus import BUILDABLE, CORPUS, corpus_cover

MB = 1_000_000
# each command's peak before rows were runs (MB)
PAIR_FORM_PEAKS = {
    "build-ilp": 1.79,
    "derive-witness": 1.92,
    "check-witness": 2.05,
    "reconstruct": 2.43,
}
MAX_COMMAND_PEAK = 1.8
PARSE_ILP_PEAK = 16.0


def _system(path):
    inst = parse_instance(path.read_text())
    ctx = FptContext.build(inst, corpus_cover(inst))
    return build_ilp_system(ctx, enumerate_type_space(ctx))


def _traced_peak(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def systems():
    return {path.stem: _system(path) for path in BUILDABLE}


def test_rows_are_maximal_runs(systems):
    for name, system in systems.items():
        n_var = len(system.variables)
        for c in system.constraints:
            assert all(n >= 1 and 0 <= first and first + n <= n_var
                       for _, first, n in c.terms), (name, c.tag)
            for (c1, f1, n1), (c2, f2, _) in zip(c.terms, c.terms[1:]):
                assert not (c1 == c2 and f1 + n1 == f2), (name, c.tag, c.terms)


def test_export_parses_back_to_the_same_runs(systems):
    for name, system in systems.items():
        assert parse_ilp(export_ilp(system)) == system, name


def _run(argv) -> None:
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv


def test_compiler_commands_peak_below_their_pair_form(tmp_path):
    instance = str(CORPUS / "dstar-0-0-2-k2.cge")
    sol, ilp, asg = (str(tmp_path / name) for name in ("s.sol", "s.ilp", "s.assign"))
    out = io.StringIO()
    with redirect_stdout(out):
        main(["solve-exact", instance])
    (tmp_path / "s.sol").write_text(out.getvalue().removeprefix("yes\n"))
    commands = {
        "build-ilp": ["build-ilp", instance, "-o", ilp],
        "derive-witness": ["derive-witness", instance, sol, "-o", asg],
        "check-witness": ["check-witness", ilp, asg],
        "reconstruct": ["reconstruct", ilp, asg, instance],
    }
    for argv in commands.values():  # load the compiler's modules first
        _run(argv)
    peaks = {name: _traced_peak(lambda argv=argv: _run(argv))
             for name, argv in commands.items()}
    for name, peak in peaks.items():
        assert peak < PAIR_FORM_PEAKS[name], (name, peak)
    assert max(peaks.values()) <= MAX_COMMAND_PEAK, peaks


def test_parse_ilp_peak_on_a_large_export(systems):
    text = export_ilp(systems["dstar-1-1-1-k1"])
    assert len(text) > 2 * MB
    assert _traced_peak(lambda: parse_ilp(text)) <= PARSE_ILP_PEAK
