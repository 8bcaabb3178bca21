"""`tests/scale_checks.py` runs the `cge` console script; without one on
PATH it must say so once, not fail every check."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "scale_checks.py"


def test_a_missing_console_script_is_named_once(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)],
        cwd=tmp_path, env={**os.environ, "PATH": str(tmp_path)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "no `cge` console script on PATH: run `pip install -e .` first\n"
