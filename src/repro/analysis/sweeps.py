"""Parameter sweeps used by the benchmark harness.

Each sweep function runs one of the paper's experiments over a range of
parameters and returns a list of per-point dictionaries that the table
formatter (:mod:`repro.analysis.tables`) turns into the text "figure".  The
benchmarks call these directly so the same code path serves interactive use
(examples) and regression benchmarking.

Every LP a sweep solves — the reference optima (whole-instance jobs) and
the per-agent local LPs inside the averaging algorithm — is routed through
a :class:`repro.engine.BatchSolver`.  Passing an engine with a cache makes
re-runs (e.g. the same sweep at additional radii, or a warm benchmark
repeat) serve every solve from the cache; passing a pooled engine fans the
independent jobs across workers.  The numbers are identical either way.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..core.local_averaging import local_averaging_solution
from ..core.problem import MaxMinLP
from ..core.safe import safe_approximation_guarantee, safe_solution
from ..core.solution import approximation_ratio
from ..engine.executor import BatchSolver, get_default_engine
from ..hypergraph.communication import communication_hypergraph
from ..hypergraph.growth import growth_profile

__all__ = ["radius_sweep", "safe_ratio_sweep", "growth_sweep"]


def radius_sweep(
    problem: MaxMinLP,
    radii: Sequence[int],
    *,
    optimum: Optional[float] = None,
    engine: Optional[BatchSolver] = None,
) -> List[Dict[str, float]]:
    """Run the local averaging algorithm for every radius in ``radii``.

    Each row reports the achieved objective, its approximation ratio, the
    per-instance proven bound ``max_k M_k/m_k · max_i N_i/n_i`` and the
    coarser Theorem 3 bound ``γ(R-1)·γ(R)``.
    """
    radii = list(radii)
    if not radii:
        raise ValueError("radius_sweep needs at least one radius")
    if min(radii) < 1:
        raise ValueError(f"radii must be positive integers, got {radii}")
    eng = engine if engine is not None else get_default_engine()
    if optimum is None:
        optimum = eng.solve_maxmin(problem).objective
    H = communication_hypergraph(problem)
    max_R = max(radii)
    profile = growth_profile(H, max_R)
    rows: List[Dict[str, float]] = []
    safe_obj = problem.objective(problem.to_array(safe_solution(problem)))
    for R in radii:
        result = local_averaging_solution(problem, R, hypergraph=H, engine=eng)
        rows.append(
            {
                "R": R,
                "optimum": float(optimum),
                "safe_objective": float(safe_obj),
                "objective": result.objective,
                "ratio": approximation_ratio(optimum, result.objective),
                "instance_bound": result.proven_ratio_bound,
                "gamma_bound": profile.ratio_bound(R),
            }
        )
    return rows


def safe_ratio_sweep(
    instances: Iterable[MaxMinLP],
    *,
    labels: Optional[Sequence[str]] = None,
    engine: Optional[BatchSolver] = None,
) -> List[Dict[str, float]]:
    """Measure the safe algorithm's ratio against its ``Δ_I^V`` guarantee.

    The reference optima are independent whole-instance jobs and are
    submitted to the engine as one batch, so a pooled engine solves them
    concurrently.
    """
    eng = engine if engine is not None else get_default_engine()
    problems = list(instances)
    optima = eng.solve_maxmin_batch(problems)
    rows: List[Dict[str, float]] = []
    for idx, (problem, optimal) in enumerate(zip(problems, optima)):
        x = safe_solution(problem)
        objective = problem.objective(problem.to_array(x))
        rows.append(
            {
                "instance": labels[idx] if labels is not None else f"instance-{idx}",
                "agents": problem.n_agents,
                "delta_VI": safe_approximation_guarantee(problem),
                "optimum": float(optimal.objective),
                "safe_objective": float(objective),
                "ratio": approximation_ratio(optimal.objective, objective),
            }
        )
    return rows


def growth_sweep(
    problems: Dict[str, MaxMinLP], max_radius: int
) -> List[Dict[str, float]]:
    """Tabulate ``γ(r)`` for several instances (the Theorem 3 regime check)."""
    if max_radius < 0:
        raise ValueError(
            f"growth_sweep needs a non-negative max_radius, got {max_radius}"
        )
    rows: List[Dict[str, float]] = []
    for label, problem in problems.items():
        H = communication_hypergraph(problem)
        profile = growth_profile(H, max_radius)
        row: Dict[str, float] = {"instance": label, "agents": problem.n_agents}
        for r in range(max_radius + 1):
            row[f"gamma({r})"] = profile.gamma[r]
        rows.append(row)
    return rows
