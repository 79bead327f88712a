"""Centralised (global) optimum of a max-min LP instance.

The global optimum ``ω*`` is the reference value against which every local
algorithm's approximation ratio is measured (Section 1.6).  It is obtained
through the LP reduction of Section 1.3 (see :mod:`repro.lp.maxmin`); this
module simply exposes it with the package's problem/solution types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..lp.maxmin import solve_max_min
from .problem import Agent, MaxMinLP

__all__ = [
    "OptimalSolution",
    "optimal_solution",
    "optimal_solution_batch",
    "optimal_objective",
]


@dataclass(frozen=True)
class OptimalSolution:
    """The global optimum of a max-min LP instance.

    Attributes
    ----------
    objective:
        The optimal value ``ω*``.
    x:
        An optimal activity vector keyed by agent (optimal solutions need not
        be unique; this is the one returned by the LP backend).
    backend:
        Name of the LP backend used.
    """

    objective: float
    x: Dict[Agent, float]
    backend: str


def optimal_solution(problem: MaxMinLP) -> OptimalSolution:
    """Compute the global optimum of ``problem`` via the LP reduction."""
    result = solve_max_min(problem)
    return OptimalSolution(
        objective=result.objective, x=result.x, backend=result.backend
    )


def optimal_solution_batch(
    problems: Sequence[MaxMinLP],
    *,
    engine=None,
) -> List[OptimalSolution]:
    """Global optima of a batch of instances through one engine submission.

    The sweep-shaped counterpart of :func:`optimal_solution`: all reference
    optima travel as a single :meth:`repro.engine.BatchSolver.solve_maxmin_batch`
    request, so duplicate instances dedup, a warm cache answers without LP
    work, and an engine configured with the ``"stacked"`` strategy
    (:func:`repro.lp.maxmin.solve_maxmin_buffer_batch`) stacks the
    reductions into a handful of HiGHS calls.  Defaults to the
    process-wide engine.
    """
    from ..engine.executor import get_default_engine

    eng = engine if engine is not None else get_default_engine()
    results = eng.solve_maxmin_batch(list(problems))
    return [
        OptimalSolution(
            objective=result.objective, x=result.x, backend=result.backend
        )
        for result in results
    ]


def optimal_objective(problem: MaxMinLP) -> float:
    """The optimal objective value ``ω*`` of ``problem``."""
    return optimal_solution(problem).objective
