"""Experiment LP-BACKENDS -- timing the local LPs on the one solver, HiGHS.

The Section 5 algorithm spends essentially all of its time solving one small
LP per agent.  This benchmark times the HiGHS reduction on exactly the kind
of sub-instances the averaging algorithm generates (radius-R views of a grid
and of a unit-disk deployment), over the full batch of local LPs.

This measures this reproduction's solver substrate, not a figure of the
paper.  HiGHS's parity with ``scipy.optimize.linprog`` is checked in
``tests/lp/test_highs_binding.py``.
"""

from __future__ import annotations

import pytest

from repro import communication_hypergraph, grid_instance, unit_disk_instance
from repro.lp import solve_max_min


def harvest_local_subproblems(problem, R, limit=None):
    """The local LPs (9) the averaging algorithm would solve on ``problem``."""
    H = communication_hypergraph(problem)
    agents = problem.agents if limit is None else problem.agents[:limit]
    subproblems = []
    for u in agents:
        local = problem.local_subproblem(H.ball(u, R))
        if local.n_beneficiaries:
            subproblems.append(local)
    return subproblems


GRID_LOCALS = harvest_local_subproblems(grid_instance((6, 6)), 1)
DISK_LOCALS = harvest_local_subproblems(
    unit_disk_instance(36, radius=0.24, max_support=6, seed=9), 1
)


def solve_batch_exact(subproblems):
    return [solve_max_min(sub).objective for sub in subproblems]


@pytest.mark.benchmark(group="lp-backends")
@pytest.mark.parametrize(
    "label,subproblems",
    [("grid 6x6 locals", GRID_LOCALS), ("unit-disk locals", DISK_LOCALS)],
    ids=["grid", "disk"],
)
def test_scipy_backend_batch(benchmark, label, subproblems):
    """HiGHS on the full batch of local LPs (the default configuration)."""
    objectives = benchmark(solve_batch_exact, subproblems)
    assert len(objectives) == len(subproblems)
    assert all(value >= 0 for value in objectives)
