"""Approximation-ratio measurement helpers shared by benchmarks and examples.

The central object is :func:`compare_algorithms`, which runs a set of named
algorithms on one instance, computes the exact optimum once, and reports the
objective / feasibility / approximation ratio of each algorithm -- the raw
material of the THM-SAFE and THM3 experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

from ..core.optimal import optimal_objective
from ..core.problem import Agent, MaxMinLP
from ..core.solution import approximation_ratio

__all__ = ["AlgorithmComparison", "compare_algorithms", "ratio_of"]

Algorithm = Callable[[MaxMinLP], Mapping[Agent, float]]


@dataclass(frozen=True)
class AlgorithmComparison:
    """Per-algorithm quality on one instance.

    Attributes
    ----------
    name:
        Algorithm display name.
    objective:
        Achieved objective ``ω``.
    feasible:
        Feasibility of the produced solution.
    ratio:
        Approximation ratio against the exact optimum.
    optimum:
        The exact optimum of the instance (shared by all rows).
    """

    name: str
    objective: float
    feasible: bool
    ratio: float
    optimum: float


def ratio_of(problem: MaxMinLP, x: Mapping[Agent, float], *, optimum: Optional[float] = None) -> float:
    """The approximation ratio of ``x`` on ``problem`` (optimum computed if omitted)."""
    if optimum is None:
        optimum = optimal_objective(problem)
    achieved = problem.objective(problem.to_array(x))
    return approximation_ratio(optimum, achieved)


def compare_algorithms(
    problem: MaxMinLP,
    algorithms: Mapping[str, Algorithm],
    *,
    optimum: Optional[float] = None,
) -> Dict[str, AlgorithmComparison]:
    """Run every algorithm on ``problem`` and report objectives and ratios."""
    if optimum is None:
        optimum = optimal_objective(problem)
    results: Dict[str, AlgorithmComparison] = {}
    for name, algorithm in algorithms.items():
        x = algorithm(problem)
        arr = problem.to_array(x)
        objective = problem.objective(arr)
        results[name] = AlgorithmComparison(
            name=name,
            objective=float(objective),
            feasible=problem.is_feasible(arr),
            ratio=approximation_ratio(optimum, objective),
            optimum=float(optimum),
        )
    return results
