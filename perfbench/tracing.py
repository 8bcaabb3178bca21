"""Per-layer tracing from outside the program.

`Tracer.install` replaces the public functions of each cge layer with timing
wrappers.  `from .x import f` copies `f` into every importing module, so the
wrapper is bound under every name in every `cge.*` module namespace that
holds the original.  Spans (name, start, end, parent, command id) are kept
in memory; work counts are read at the same boundary, from arguments and
return values, never from inside the program.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter


def _nodes_left(args):
    return args[4].left  # the _NodeBudget argument of _walk_catalog / _assign_robots


def _catalog_counts(result, args, left_before):
    return {"exact.catalog.entries": len(result.supports),
            "exact.catalog.nodes": left_before - args[4].left}


def _assign_counts(result, args, left_before):
    return {"exact.assign.nodes": left_before - args[4].left}


def _parity_counts(result, args, size_before):
    return {"approx.parity_fix.added_edges": sum(result.values()) - size_before}


def _typespace_counts(result, args, _):
    return {"fptilp.typespace.vertex_types": len(result.vertex_types),
            "fptilp.typespace.robot_types": len(result.robot_types),
            "fptilp.typespace.cycle_types": len(result.cycle_types)}


def _system_counts(result, args, _):
    counts = Counter(f"fptilp.system.build.{c.tag}" for c in result.constraints)
    counts["fptilp.system.build.variables"] = len(result.variables)
    counts["fptilp.system.build.constraints"] = len(result.constraints)
    return counts


# (module, attribute, span name, read before the call, counts after the call)
TARGETS = [
    ("cge.textio", "parse_instance", "textio.parse_instance", None, None),
    ("cge.textio", "parse_solution", "textio.parse_solution", None, None),
    ("cge.textio", "format_solution", "textio.format_solution", None,
     lambda r, a, _: {"textio.format_solution.bytes": len(r)}),
    ("cge.cover", "vertex_cover_2approx", "cover.vertex_cover", None, None),
    ("cge.cover", "connect_cover", "cover.connect_cover", None,
     lambda r, a, _: {"cover.vc_size": len(r)}),
    ("cge.approx", "even_independent_degrees", "approx.partition", None, None),
    ("cge.approx", "partition_independent_edges", "approx.partition", None, None),
    ("cge.approx", "deal_cover_edges", "approx.partition", None, None),
    ("cge.approx", "spanning_tree", "approx.spanning_tree", None, None),
    ("cge.approx", "make_vc_even_degree", "approx.parity_fix",
     lambda a: sum(a[1].values()), _parity_counts),
    ("cge.approx", "approx_solve", "approx.approx_solve", None, None),
    ("cge.euler", "find_eulerian_cycle", "euler.hierholzer", None,
     lambda r, a, _: {"euler.hierholzer.edges": r.length}),
    ("cge.euler", "verify_solution", "euler.verify", None, None),
    ("cge.exact", "exact_optimum", "exact.solve", None, None),
    ("cge.exact", "exact_decide", "exact.solve", None, None),
    ("cge.exact", "_walk_catalog", "exact.catalog", _nodes_left, _catalog_counts),
    ("cge.exact", "_assign_robots", "exact.assign", _nodes_left, _assign_counts),
    ("cge.hardness", "bin_to_rob", "hardness.bin_to_rob", None, None),
    ("cge.fptilp.context", "FptContext.build", "fptilp.context", None, None),
    ("cge.fptilp.typespace", "enumerate_type_space", "fptilp.typespace", None,
     _typespace_counts),
    ("cge.fptilp.system", "build_ilp_system", "fptilp.system.build", None,
     _system_counts),
    ("cge.fptilp.system", "export_ilp", "fptilp.system.export", None,
     lambda r, a, _: {"fptilp.system.export.bytes": len(r)}),
    ("cge.fptilp.system", "parse_ilp", "fptilp.system.parse_ilp", None, None),
    ("cge.fptilp.system", "check_assignment", "fptilp.system.check", None, None),
    ("cge.fptilp.system", "witness_from_solution", "fptilp.system.witness", None, None),
    ("cge.fptilp.system", "format_assignment", "fptilp.system.assignment_io", None, None),
    ("cge.fptilp.system", "parse_assignment", "fptilp.system.assignment_io", None, None),
    ("cge.fptilp.pairs", "decompose_valid_pair", "fptilp.pairs.decompose", None, None),
    ("cge.fptilp.reconstruct", "reconstruct_solution", "fptilp.reconstruct", None, None),
]

SPAN_NAMES = sorted({t[2] for t in TARGETS} | {"cli"})
COUNT_NAMES = sorted({
    "textio.format_solution.bytes", "cover.vc_size", "approx.parity_fix.added_edges",
    "euler.hierholzer.edges", "exact.catalog.entries", "exact.catalog.nodes",
    "exact.assign.nodes", "fptilp.typespace.vertex_types",
    "fptilp.typespace.robot_types", "fptilp.typespace.cycle_types",
    "fptilp.system.build.variables", "fptilp.system.build.constraints",
    "fptilp.system.export.bytes",
    *(f"fptilp.system.build.eq{i}" for i in range(1, 7)),
})


class Tracer:
    """Collects spans while a command is active; idle wrappers pass through."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.command: int | None = None
        self._stack: list[int] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "cge" or name.startswith("cge.")]
        for module_name, attr, span, before, after in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:  # a classmethod: patch the class once
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                func = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(self._wrap(func, span, before, after)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span, before, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def _wrap(self, fn, name, before, after):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if self.command is None:
                return fn(*args, **kwargs)
            pre = before(args) if before else None
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.command)
            if after:
                counts.update(after(result, args, pre))
            return result

        traced.__wrapped__ = fn
        return traced

    def command_span(self, command_id: int, run):
        """Run `run()` as the top-level 'cli' span of one command."""
        self.command = command_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return run()
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = ("cli", start, end, -1, command_id)
            self.command = None

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Per span name: summed self time (duration minus direct children),
        and call counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,command\n")
            for name, start, end, parent, cmd in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{cmd}\n")
