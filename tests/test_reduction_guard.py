"""The bin-packing reductions refuse sizes they cannot build (exit 3).

Every huge size here fails at once without the guard (a tuple of 10^18
padding items cannot be allocated); the tree guard is checked against a
lowered limit, so no test ever builds a large instance.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cge import hardness
from cge.cli import EXIT_GUARD, main
from cge.errors import TooLarge
from cge.hardness import BinPackingInstance, bin_to_rob, binpacking_to_exact

HUGE = "binpack 1\ncapacity 1000000000000000000\nbins 1\nexact 0\nitem 1\n"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("flag", ["--to-exact", "--to-cge"])
def test_huge_capacity_is_a_guard_trip(tmp_path, flag):
    f = tmp_path / "huge.binpack"
    f.write_text(HUGE)
    code, out, err = run_cli("reduce-bin", str(f), flag)
    assert code == EXIT_GUARD
    assert out == ""
    assert err.startswith("resource guard: ")
    assert "1000000000000000000 padded items" in err


def test_huge_capacity_exits_3_without_traceback(tmp_path):
    f = tmp_path / "huge.binpack"
    f.write_text(HUGE)
    proc = subprocess.run(
        [sys.executable, "-m", "cge.cli", "reduce-bin", str(f), "--to-exact"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("resource guard: ")


def test_padding_guard_counts_items_before_and_after(monkeypatch):
    monkeypatch.setattr(hardness, "MAX_REDUCTION_SIZE", 4)
    # one item plus a slack of 3: exactly at the limit
    assert binpacking_to_exact(BinPackingInstance((1,), 2, 2)).sizes == (1, 1, 1, 1)
    with pytest.raises(TooLarge, match="5 padded items, limit 4"):
        binpacking_to_exact(BinPackingInstance((1, 1), 5, 1))


def test_tree_guard_counts_vertices(monkeypatch):
    exact = BinPackingInstance((3, 3), 3, 2, exact=True)  # 1 + 2 + 4 vertices
    monkeypatch.setattr(hardness, "MAX_REDUCTION_SIZE", 7)
    assert bin_to_rob(exact).graph.n == 7
    monkeypatch.setattr(hardness, "MAX_REDUCTION_SIZE", 6)
    with pytest.raises(TooLarge, match="7 tree vertices, limit 6"):
        bin_to_rob(exact)


def test_tree_guard_trips_through_the_cli(tmp_path, monkeypatch):
    monkeypatch.setattr(hardness, "MAX_REDUCTION_SIZE", 6)
    f = tmp_path / "bp.binpack"
    f.write_text("binpack 1\ncapacity 3\nbins 2\nexact 1\nitem 3\nitem 3\n")
    code, out, err = run_cli("reduce-bin", str(f), "--to-cge")
    assert (code, out) == (EXIT_GUARD, "")
    assert err == "resource guard: reduction needs 7 tree vertices, limit 6\n"
