"""Every `cge` name the benchmark takes still resolves.

`perfbench/` drives the program from outside: its scripts import `cge`
names, some lazily inside functions, and `tracing.TARGETS` names the
functions the tracer wraps.  A rename in `src/` that misses one of them
would only show when the benchmark runs; this check reads the scripts with
`ast` and the target table as data, and edits nothing under `perfbench/`.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(dotted: str):
    """Import the longest module prefix of `dotted`, then read the rest as
    attributes; raises if any part is missing."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def _attribute_chain(node: ast.Attribute) -> str | None:
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(names)])


def benchmark_names() -> list[str]:
    """`module.name` for every `cge` import and `cge.*` attribute chain in
    the scripts, lazy imports included."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cge":
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(a.name for a in node.names if a.name.split(".")[0] == "cge")
            elif isinstance(node, ast.Attribute):
                chain = _attribute_chain(node)
                if chain and chain.startswith("cge."):
                    names.add(chain)
    return sorted(names)


def _tracing_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_the_scripts_take_cge_names():
    names = benchmark_names()
    assert "cge.graphs.Multigraph" in names  # a lazy import inside a function
    assert "cge.cli.main" in names


@pytest.mark.parametrize("dotted", benchmark_names())
def test_script_names_resolve(dotted):
    _resolve(dotted)


@pytest.mark.parametrize("target", _tracing_targets(), ids=lambda t: f"{t[0]}.{t[1]}")
def test_tracer_targets_resolve(target):
    module, attr = importlib.import_module(target[0]), target[1]
    if "." in attr:  # the tracer patches a classmethod through the class dict
        cls_name, meth = attr.split(".")
        assert isinstance(vars(getattr(module, cls_name))[meth], classmethod)
    else:
        assert callable(getattr(module, attr))
