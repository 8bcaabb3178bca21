"""The records are named tuples: pin what a tuple could change.

Each record keeps its class name, fields, defaults, repr text and
constructor errors; its hash is the hash of its field tuple; type tables
sort by their field tuples, which is the variable numbering of the
equation system.  `import cge.cli` leaves `dataclasses` and `inspect`
unloaded, so a fresh process does not pay for them, and `import cge.textio`
leaves the solvers and the compiler unloaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cge.approx import even_independent_degrees, partition_independent_edges
from cge.cover import (
    EqClass,
    EquivalenceClasses,
    VertexCover,
    build_equivalence_graph,
    build_gbar,
    connect_cover,
    equivalence_classes,
    vertex_cover_2approx,
)
from cge.errors import NotConnected
from cge.euler import RobotCycle, Solution, verify_solution
from cge.exact import SearchConfig
from cge.fptilp.context import FptContext
from cge.fptilp.pairs import ValidPair
from cge.fptilp.system import IlpAssignment, build_ilp_system
from cge.fptilp.typespace import enumerate_type_space
from cge.graphs import ExplorationInstance, Multigraph
from cge.hardness import BinPackingInstance
from cge.textio import parse_instance

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "corpus"

TRIANGLE_GRAPH = "Multigraph(n=3, edges=((0, 1), (0, 2), (1, 2)))"
TRIANGLE = f"ExplorationInstance(graph={TRIANGLE_GRAPH}, v_init=0, k=2, budget=3)"


def _pipeline(name: str):
    doc = parse_instance((CORPUS / name).read_text())
    inst = doc.payload
    vcp = connect_cover(inst.graph, vertex_cover_2approx(inst.graph), inst.v_init)
    ctx = FptContext.build(inst, vcp)
    types = enumerate_type_space(ctx)
    return doc, ctx, types, build_ilp_system(ctx, types)


def _triangle_records() -> dict[str, object]:
    """One record of each kind, all from the corpus triangle with two robots."""
    doc, ctx, types, system = _pipeline("triangle-k2.cge")
    inst, vcp, eq = ctx.instance, ctx.vcp, ctx.eq
    g = inst.graph
    sol = Solution(((RobotCycle((0, 1, 2, 0)), 1), (RobotCycle((0, 1, 0)), 1)))
    report = verify_solution(inst, sol)
    return {
        "InstanceDocument": doc,
        "ExplorationInstance": inst,
        "VertexCover": vcp,
        "EqClass": eq.classes[0],
        "EquivalenceClasses": eq,
        "QuotientGraph": build_equivalence_graph(g, vcp, eq),
        "ExpandedGraph": build_gbar(g, vcp, eq),
        "PartitionState": partition_independent_edges(
            g, vcp, even_independent_degrees(g, vcp), 2
        ),
        "RobotCycle": sol.runs[1][0],
        "Solution": sol,
        "RobotReport": report.run_reports[1],
        "VerificationReport": report,
        "SearchConfig": SearchConfig(),
        "BinPackingInstance": BinPackingInstance((1, 2), 3, 1, True),
        "VertexType": types.vertex_types[0],
        "RobotType": types.robot_types[0],
        "CycleType": types.cycle_types[0],
        "Constraint": system.constraints[1],
        "IlpAssignment": IlpAssignment((("x_ver_0", 2),)),
        "ValidPair": ValidPair(((0, 1), (0, 1)), ((0, 1, 2, 0),)),
        "FptContext": ctx,
    }


REPRS = {
    "InstanceDocument": f"InstanceDocument(kind='cge', payload={TRIANGLE})",
    "ExplorationInstance": TRIANGLE,
    "VertexCover": "VertexCover(vertices=(0, 1))",
    "EqClass": "EqClass(neighborhood=(0, 1), members=(2,))",
    "EquivalenceClasses": (
        "EquivalenceClasses(classes=(EqClass(neighborhood=(0, 1), members=(2,)),))"
    ),
    "QuotientGraph": (
        "QuotientGraph(graph=Multigraph(n=4, edges=((0, 1), (0, 3), (1, 3))),"
        " class_vertex=(3,))"
    ),
    "ExpandedGraph": (
        "ExpandedGraph(graph=Multigraph(n=4, edges=((0, 1), (0, 3), (1, 3))),"
        " copies=((3,),))"
    ),
    "PartitionState": (
        "PartitionState(e_i=[Counter({(0, 2): 1, (1, 2): 1})], pairs_dealt=1, k=2)"
    ),
    "RobotCycle": "RobotCycle(walk=(0, 1, 0))",
    "Solution": (
        "Solution(runs=((RobotCycle(walk=(0, 1, 2, 0)), 1), (RobotCycle(walk=(0, 1, 0)), 1)))"
    ),
    "RobotReport": (
        "RobotReport(index=1, count=1, starts_at_init=True, ends_at_init=True,"
        " adjacency_ok=True, length=2)"
    ),
    "VerificationReport": (
        "VerificationReport(run_reports=(RobotReport(index=0, count=1,"
        " starts_at_init=True, ends_at_init=True, adjacency_ok=True, length=3),"
        " RobotReport(index=1, count=1, starts_at_init=True, ends_at_init=True,"
        " adjacency_ok=True, length=2)), uncovered=(), value=3, budget_ok=True,"
        " robot_count_ok=True)"
    ),
    "SearchConfig": "SearchConfig(max_budget=None, node_limit=5000000)",
    "BinPackingInstance": "BinPackingInstance(sizes=(1, 2), capacity=3, bins=1, exact=True)",
    "VertexType": "VertexType(class_id=0, nei_subsets=((0, 0), (0, 0, 1, 1)))",
    "RobotType": "RobotType(cc=((0, 1), (0, 1)), alloc=(), num_of_cyc=(0, 0))",
    "CycleType": "CycleType(cycle=(0, 1, 0), pa_alloc=(), host=0)",
    "Constraint": "Constraint(tag='eq2', terms=((1, 0), (1, 1), (1, 2), (1, 3), (1, 4),"
    " (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (1, 10), (1, 11), (1, 12)),"
    " relation='=', rhs=1)",
    "IlpAssignment": "IlpAssignment(values=(('x_ver_0', 2),))",
    "ValidPair": "ValidPair(cc=((0, 1), (0, 1)), cycles=((0, 1, 2, 0),))",
    "FptContext": (
        f"FptContext(instance={TRIANGLE},"
        " vcp=VertexCover(vertices=(0, 1)),"
        " eq=EquivalenceClasses(classes=(EqClass(neighborhood=(0, 1), members=(2,)),)),"
        " gstar=QuotientGraph(graph=Multigraph(n=4, edges=((0, 1), (0, 3),"
        " (1, 3))), class_vertex=(3,)),"
        " gbar=ExpandedGraph(graph=Multigraph(n=4, edges=((0, 1), (0, 3),"
        " (1, 3))), copies=((3,),)))"
    ),
}


@pytest.fixture(scope="module")
def records():
    return _triangle_records()


@pytest.mark.parametrize("kind", sorted(REPRS))
def test_repr_text(records, kind):
    record = records[kind]
    assert type(record).__name__ == kind
    assert repr(record) == REPRS[kind]


# every kind whose fields are all hashable; PartitionState holds Counters
HASHABLE = sorted(set(REPRS) - {"PartitionState"})


@pytest.mark.parametrize("kind", HASHABLE)
def test_hash_is_the_field_tuple_hash(records, kind):
    record = records[kind]
    assert hash(record) == hash(tuple(record))
    assert record == type(record)(*record)


@pytest.mark.parametrize("name", ["star3-k2.cge", "triangle-k2.cge", "dstar-1-1-1-k2.cge"])
def test_type_tables_sort_by_field_tuples(name):
    _, _, types, _ = _pipeline(name)
    tables = (
        (types.vertex_types, ("class_id", "nei_subsets")),
        (types.robot_types, ("cc", "alloc", "num_of_cyc")),
        (types.cycle_types, ("cycle", "pa_alloc", "host")),
    )
    for table, fields in tables:
        assert table
        keys = [tuple(getattr(t, f) for f in fields) for t in table]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert all(a < b for a, b in zip(table, table[1:]))


def test_constructor_errors():
    with pytest.raises(ValueError, match="at least the start vertex"):
        RobotCycle(())
    with pytest.raises(ValueError, match="start and end at the same vertex"):
        RobotCycle((0, 1))
    path = Multigraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="v_init 3 out of range"):
        ExplorationInstance(path, 3, 1)
    with pytest.raises(ValueError, match="robot count"):
        ExplorationInstance(path, 0, 0)
    with pytest.raises(ValueError, match="budget must be non-negative"):
        ExplorationInstance(path, 0, 1, budget=-1)
    with pytest.raises(NotConnected):
        ExplorationInstance(Multigraph(4, [(0, 1), (2, 3)]), 0, 1)
    with pytest.raises(ValueError, match="item sizes must be positive"):
        BinPackingInstance((2, 0), 2, 1)
    with pytest.raises(ValueError, match="capacity and bin count"):
        BinPackingInstance((1,), 0, 1)
    with pytest.raises(ValueError, match="exact instances"):
        BinPackingInstance((1,), 2, 1, exact=True)


def test_defaults_and_keywords():
    path = Multigraph(3, [(0, 1), (1, 2)])
    assert ExplorationInstance(graph=path, v_init=1, k=2).budget is None
    assert BinPackingInstance(sizes=(1,), capacity=1, bins=1).exact is False
    assert SearchConfig(max_budget=3).node_limit == 5_000_000


def test_len_counts_vertices_and_classes():
    assert len(VertexCover((0, 2, 5))) == 3
    assert not VertexCover(())
    eq = EquivalenceClasses((EqClass((0,), (1, 2)), EqClass((0, 3), (4,))))
    assert len(eq) == 2
    assert eq.class_of() == {1: 0, 2: 0, 4: 1}


def test_fpt_context_properties_are_computed_once(records):
    ctx = records["FptContext"]
    fresh = FptContext.build(ctx.instance, ctx.vcp)
    assert "build" in FptContext.__dict__
    for name in ("cover_set", "class_of", "class_of_star_vertex", "class_of_copy",
                 "cycle_length_slots"):
        assert name not in vars(fresh)
        first = getattr(fresh, name)
        assert vars(fresh)[name] is first
        assert getattr(fresh, name) is first
    assert fresh.cover_set == frozenset({0, 1})
    assert fresh.class_of == {2: 0}
    assert fresh.cycle_length_slots == (2, 3)


def test_verification_ok_is_computed_once(records):
    report = records["VerificationReport"]
    assert report.ok is True
    assert vars(report) == {"ok": True}


def _fresh_import_loads(module: str, unwanted: set[str]) -> str:
    """Which of `unwanted` a fresh interpreter loads to import `module`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        f"import sys; before = set(sys.modules); import {module}; "
        f"print(sorted({unwanted!r} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_fresh_import_skips_dataclasses_and_inspect():
    assert _fresh_import_loads("cge.cli", {"dataclasses", "inspect"}) == "[]\n"


def test_fresh_textio_import_skips_the_solvers():
    """The package has no facade, so text I/O loads only what it uses."""
    unwanted = {"cge.cover", "cge.exact", "cge.approx", "cge.fptilp"}
    assert _fresh_import_loads("cge.textio", unwanted) == "[]\n"
