"""`cge.cli` runs the equation-system compiler's modules only when a command
uses them.

The five `cge.fptilp` submodules are registered in `sys.modules` when
`cge.cli` is imported and run on the first read of one of their
attributes.  A module that has not run yet is an instance of a
`types.ModuleType` subclass; reading any attribute of it, `__class__`
included, would run it, so the checks compare `type(module)`.  Each check
runs in a fresh interpreter, since the test process imports the compiler
itself.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAR = "tests/data/corpus/star3-k2.cge"
COMPILER = [f"cge.fptilp.{name}" for name in
            ("context", "pairs", "typespace", "system", "reconstruct")]
USED_BY_BUILD = sorted(COMPILER[:4])  # build-ilp never reads the reconstruction

# imports nothing of cge, so a check may import a submodule before cge.cli
PRELUDE = f"""\
import contextlib, io, sys, types
STAR = {STAR!r}
def has_run():
    return sorted(n for n in {COMPILER!r} if type(sys.modules[n]) is types.ModuleType)
def cge(*argv):
    from cge.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    return out.getvalue()
"""


def _fresh(code: str, tmp_path: Path) -> list[str]:
    """stdout lines of `code` run after `PRELUDE` in a new interpreter from
    the repository root; `tmp` names a directory the code may write to."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"{PRELUDE}tmp = {str(tmp_path)!r}\n{code}"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_solvers_run_none_of_the_compiler(tmp_path):
    out = _fresh(
        "cge('solve-approx', STAR)\n"
        "cge('solve-exact', STAR)\n"
        "print(has_run())\n",
        tmp_path,
    )
    assert out == ["[]"]


def test_build_ilp_runs_what_it_uses(tmp_path):
    out = _fresh(
        "cge('build-ilp', STAR, '-o', tmp + '/s.ilp')\n"
        "print(has_run())\n",
        tmp_path,
    )
    assert out == [str(USED_BY_BUILD)]


def test_round_trip_runs_all_five(tmp_path):
    out = _fresh(
        "open(tmp + '/a.sol', 'w').write(cge('solve-approx', STAR))\n"
        "cge('build-ilp', STAR, '-o', tmp + '/s.ilp')\n"
        "cge('derive-witness', STAR, tmp + '/a.sol', '-o', tmp + '/w.assign')\n"
        "cge('check-witness', tmp + '/s.ilp', tmp + '/w.assign')\n"
        "cge('reconstruct', tmp + '/s.ilp', tmp + '/w.assign', STAR)\n"
        "print(has_run())\n",
        tmp_path,
    )
    assert out == [str(sorted(COMPILER))]


def test_a_module_imported_first_is_the_one_cli_uses(tmp_path):
    out = _fresh(
        "import cge.fptilp.system as first\n"
        "import cge.cli\n"
        "print(cge.cli.fpt_system is first is sys.modules['cge.fptilp.system'])\n"
        "print(has_run())\n",
        tmp_path,
    )
    assert out == ["True", str(USED_BY_BUILD)]


def test_package_names_resolve_before_and_after_cli(tmp_path):
    out = _fresh(
        "from cge.fptilp import export_ilp, parse_ilp\n"
        "import cge.cli, cge.fptilp\n"
        "print(export_ilp is cge.cli.fpt_system.export_ilp,\n"
        "      parse_ilp is cge.fptilp.parse_ilp is cge.fptilp.system.parse_ilp)\n",
        tmp_path,
    )
    assert out == ["True True"]
    out = _fresh(
        "import cge.cli\n"
        "print(has_run())\n"
        "from cge.fptilp import export_ilp\n"
        "print(export_ilp.__module__, has_run() == " + repr(USED_BY_BUILD) + ")\n",
        tmp_path,
    )
    assert out == ["[]", "cge.fptilp.system True"]
