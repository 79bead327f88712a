"""Additional local baselines and ablation variants.

These are not algorithms from the paper; they exist to put the paper's
algorithms in context in the benchmarks and to demonstrate *why* the pieces
of the Theorem 3 algorithm are needed:

* :func:`uniform_share_solution` -- every agent splits each of its resources
  equally by *count* (ignores the coefficients); feasible only for
  ``a_iv ≤ 1``, a strawman for the THM1 benchmark's 0/1 instances.
* :func:`single_shot_local_solution` -- each agent solves its own local LP
  and keeps *its own* value without averaging or shrinking.  This is the
  natural "greedy" use of local LPs; it usually violates the packing
  constraints, which is exactly the failure mode the averaging + β-shrink of
  Section 5 repairs (the ablation benchmark quantifies the violation).
* :func:`unshrunk_averaging_solution` -- averaging without the ``β_j``
  factor; it may also be infeasible (by up to ``max_i N_i/n_i``), isolating
  the role of the shrink factor.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..engine.executor import BatchSolver, get_default_engine
from ..hypergraph.communication import communication_hypergraph
from ..hypergraph.hypergraph import Hypergraph
from .problem import Agent, MaxMinLP

__all__ = [
    "uniform_share_solution",
    "single_shot_local_solution",
    "unshrunk_averaging_solution",
]


def uniform_share_solution(problem: MaxMinLP) -> Dict[Agent, float]:
    """Each agent takes ``min_i 1/|V_i|`` -- an equal split by head count.

    Coincides with the safe algorithm on 0/1 consumption coefficients and is
    feasible whenever all ``a_iv ≤ 1``; with larger coefficients it can
    violate constraints, which is why the safe algorithm divides by
    ``a_iv |V_i|`` instead.
    """
    x: Dict[Agent, float] = {}
    for v in problem.agents:
        shares = [
            1.0 / len(problem.resource_support(i)) for i in problem.agent_resources(v)
        ]
        x[v] = min(shares) if shares else 0.0
    return x


def _batched_views(problem: MaxMinLP, R: int, H: Hypergraph):
    """All radius-``R`` views as a :class:`~repro.views.ViewAtlas`.

    One boolean CSR frontier sweep for every ball at once (bit-identical to
    per-agent BFS, asserted by the views property tests) instead of ``n``
    Python BFS walks; the atlas is passed through to the engine so the
    extraction work is shared with the local-LP compilation.
    """
    from ..views.atlas import ViewAtlas

    return ViewAtlas.from_problem(problem, R, hypergraph=H)


def single_shot_local_solution(
    problem: MaxMinLP,
    R: int,
    *,
    hypergraph: Optional[Hypergraph] = None,
    engine: Optional[BatchSolver] = None,
) -> Dict[Agent, float]:
    """Every agent adopts its own local-LP value ``x^v_v`` directly.

    No averaging, no shrink factor.  The local LPs only see the constraints
    inside each view, so different agents' choices can overload a shared
    resource; the ablation benchmark measures how badly.
    """
    if R < 1:
        raise ValueError("R must be at least 1")
    H = hypergraph if hypergraph is not None else communication_hypergraph(problem)
    eng = engine if engine is not None else get_default_engine()
    atlas = _batched_views(problem, R, H)
    outcomes = eng.solve_local_lps(problem, atlas=atlas)
    return {v: outcomes[v].x.get(v, 0.0) for v in problem.agents}


def unshrunk_averaging_solution(
    problem: MaxMinLP,
    R: int,
    *,
    hypergraph: Optional[Hypergraph] = None,
    engine: Optional[BatchSolver] = None,
) -> Dict[Agent, float]:
    """Averaging of local solutions *without* the ``β_j`` shrink factor.

    Computes ``x_j = (1/|V^j|) Σ_{u∈V^j} x^u_j``.  Section 5.2's feasibility
    argument needs the ``β_j = min_i n_i/N_i`` factor; omitting it can
    overload resources by up to ``max_i N_i/n_i``.  Used by the ablation
    benchmark to isolate the factor's role.
    """
    if R < 1:
        raise ValueError("R must be at least 1")
    H = hypergraph if hypergraph is not None else communication_hypergraph(problem)
    eng = engine if engine is not None else get_default_engine()
    atlas = _batched_views(problem, R, H)
    views = atlas.views()
    outcomes = eng.solve_local_lps(problem, views, atlas=atlas)
    x: Dict[Agent, float] = {}
    for j in problem.agents:
        total = sum(outcomes[u].x.get(j, 0.0) for u in views[j])
        x[j] = total / len(views[j])
    return x
