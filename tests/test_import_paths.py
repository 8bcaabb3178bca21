"""One import path per name: no module of `cge` takes a name from a module
that itself got that name by importing it.

A re-export layer gives one name two import paths, and the tracer, the tests
and readers then have to know both.  The check reads the source with `ast`,
so it sees lazy imports inside functions too; submodules (`from cge.fptilp
import pairs`) are not names of the package and always pass.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _module_file(root: Path, dotted: str) -> Path | None:
    path = root.joinpath(*dotted.split("."))
    if (path / "__init__.py").is_file():
        return path / "__init__.py"
    if path.with_suffix(".py").is_file():
        return path.with_suffix(".py")
    return None


def _module_level(nodes):
    """Every statement outside function and class bodies."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        yield from _module_level(ast.iter_child_nodes(node))


def _imported_names(path: Path) -> set[str]:
    """Names that a module binds at module level by an import statement."""
    names = set()
    for node in _module_level(ast.parse(path.read_text(encoding="utf-8")).body):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def reexport_violations(root: Path, package: str) -> list[str]:
    """`file:line: name from module` for every import of a re-exported name."""
    out = []
    for path in sorted((root / package).rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        is_init = parts[-1] == "__init__"
        current = parts[:-1] if is_init else parts
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
                continue
            if node.level:
                base = current[: len(current) - node.level + (1 if is_init else 0)]
                source = ".".join(base + ((node.module,) if node.module else ()))
            else:
                source = node.module
            source_file = _module_file(root, source)
            if source_file is None:
                continue  # outside the package
            rebound = _imported_names(source_file)
            for alias in node.names:
                submodule = _module_file(root, f"{source}.{alias.name}")
                if alias.name in rebound and submodule is None:
                    rel = path.relative_to(root)
                    out.append(f"{rel}:{node.lineno}: {alias.name} from {source}")
    return out


def test_every_name_is_imported_from_its_defining_module():
    assert reexport_violations(SRC, "cge") == []


def test_the_check_finds_a_facade(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("def f():\n    return 1\n")
    (pkg / "sub" / "__init__.py").write_text("from ..a import f\n")
    (pkg / "sub" / "inner.py").write_text("X = 1\n")
    (pkg / "b.py").write_text(
        "from .a import f\n"
        "from .sub import inner\n"
        "from .sub import f as g\n"
        "def lazy():\n"
        "    from pkg.sub import f\n"
        "    return f\n"
    )
    (pkg / "sub" / "c.py").write_text("from . import f\nfrom .. import a\n")
    assert reexport_violations(tmp_path, "pkg") == [
        "pkg/b.py:3: f from pkg.sub",
        "pkg/b.py:5: f from pkg.sub",
        "pkg/sub/c.py:1: f from pkg.sub",
    ]
