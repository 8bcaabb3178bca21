"""Vertex-cover-parameterized machinery: valid pairs, types, equations.

Each name is imported from its defining submodule (`context`, `pairs`,
`typespace`, `system`, `reconstruct`).  The package itself imports nothing:
`cge.cli` registers the submodules to load on first use, and finding a
submodule imports its package, so a module-level import here would load
them all.  The two names the benchmark harness takes from the package,
`export_ilp` and `parse_ilp`, are read from `system` when first asked for
(a module `__getattr__`, PEP 562).
"""


def __getattr__(name: str):
    if name in ("export_ilp", "parse_ilp"):
        from . import system

        return getattr(system, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
