"""The equation system solved by an independent MILP solver.

For every buildable corpus instance and for seeded random stars and double
stars, the system at budget = exact optimum must be feasible and the system
at optimum - 1 infeasible: the system is tight.  The solver's own
assignment, not a witness derived from a known solution, must reconstruct
into a verified solution within the budget.
Needs scipy (HiGHS); skipped without it, since the toolkit itself is
stdlib-only.
"""

import pytest

scipy_optimize = pytest.importorskip("scipy.optimize")
import numpy as np  # noqa: E402  (scipy depends on numpy)
from scipy.sparse import csr_array  # noqa: E402

from cge.euler import solution_from_multisets, verify_solution  # noqa: E402
from cge.exact import exact_optimum  # noqa: E402
from cge.fptilp.reconstruct import reconstruct_solution  # noqa: E402
from cge.graphs import ExplorationInstance, Multigraph  # noqa: E402
from cge.textio import parse_instance  # noqa: E402

from conftest import term_pairs, with_budget  # noqa: E402
from corpus import (  # noqa: E402
    BUILDABLE,
    budgeted_system,
    corpus_cover,
    random_instances,
)

BOUNDS = {"=": lambda rhs: (rhs, rhs), "<=": lambda rhs: (-np.inf, rhs),
          ">=": lambda rhs: (rhs, np.inf)}


def solve(system):
    """A non-negative integer solution of the system, or None if there is none."""
    n = len(system.variables)
    if n == 0:
        return [] if all(c.evaluate([]) for c in system.constraints) else None
    rows, cols, coefs, lower, upper = [], [], [], [], []
    for r, c in enumerate(system.constraints):
        for coef, var in term_pairs(c.terms):
            rows.append(r)
            cols.append(var)
            coefs.append(coef)
        lo, hi = BOUNDS[c.relation](c.rhs)
        lower.append(lo)
        upper.append(hi)
    matrix = csr_array((coefs, (rows, cols)), shape=(len(system.constraints), n))
    result = scipy_optimize.milp(
        c=np.zeros(n),
        constraints=scipy_optimize.LinearConstraint(matrix, lower, upper),
        integrality=np.ones(n),
        bounds=scipy_optimize.Bounds(0, np.inf),
    )
    assert result.status in (0, 2), result.message  # 0 solved, 2 infeasible
    if result.status == 2:
        return None
    return [int(round(x)) for x in result.x]


def assert_tight(inst, vcp):
    opt, _ = exact_optimum(inst)

    ctx, types, system = budgeted_system(inst, vcp, opt - 1)
    assert solve(system) is None, f"feasible below the optimum {opt}"

    ctx, types, system = budgeted_system(inst, vcp, opt)
    values = solve(system)
    assert values is not None, f"infeasible at the optimum {opt}"
    assignment = dict(zip(system.variables, values))
    runs = reconstruct_solution(ctx, types, system, assignment)
    g = inst.graph
    report = verify_solution(
        with_budget(inst, opt), solution_from_multisets(g.n, inst.v_init, runs, inst.k)
    )
    assert report.ok
    assert report.value <= opt


@pytest.mark.parametrize("path", BUILDABLE, ids=lambda p: p.stem)
def test_system_is_tight_and_its_solutions_reconstruct(path):
    inst = parse_instance(path.read_text())
    assert_tight(inst, corpus_cover(inst))


@pytest.mark.parametrize("n,edges,start,k,cover", random_instances(2917, 10))
def test_random_star_systems_are_tight(n, edges, start, k, cover):
    inst = ExplorationInstance(Multigraph(n, edges), start, k)
    assert_tight(inst, cover)
