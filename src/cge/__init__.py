"""Toolkit for offline collective graph exploration: exact and approximate
solvers, solution verification, a vertex-cover-parameterized equation-system
compiler, and the bin-packing hardness reductions.
"""

from .cover import (
    EquivalenceClasses,
    VertexCover,
    build_equivalence_graph,
    build_gbar,
    connect_cover,
    equivalence_classes,
    vertex_cover_2approx,
)
from .euler import (
    RobotCycle,
    Solution,
    VerificationReport,
    find_eulerian_cycle,
    verify_solution,
)
from .exact import SearchConfig, exact_decide, exact_optimum
from .approx import approx_solve
from .graphs import ExplorationInstance, Multigraph
from .hardness import (
    BinPackingInstance,
    bin_to_rob,
    binpacking_to_exact,
    brute_binpacking,
)

__all__ = [
    "EquivalenceClasses",
    "VertexCover",
    "build_equivalence_graph",
    "build_gbar",
    "connect_cover",
    "equivalence_classes",
    "vertex_cover_2approx",
    "RobotCycle",
    "Solution",
    "VerificationReport",
    "find_eulerian_cycle",
    "verify_solution",
    "SearchConfig",
    "exact_decide",
    "exact_optimum",
    "approx_solve",
    "ExplorationInstance",
    "Multigraph",
    "BinPackingInstance",
    "bin_to_rob",
    "binpacking_to_exact",
    "brute_binpacking",
]
