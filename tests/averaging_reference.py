"""Test-only per-agent references for the Section 5 averaging pipeline.

The library runs the local averaging algorithm and the view-orbit
partition through the batched sparse sweeps of :mod:`repro.views`.  The
functions here compute the same results the direct way, one agent at a
time: one ``Hypergraph.ball``, one ``view_local_structure`` and one
``CanonicalIndex.canonical_form`` per agent, and Python set loops for the
Figure 2 quantities ``N_i, n_i, M_k, m_k``.

:func:`local_averaging_reference` is the oracle the equality tests compare
:func:`repro.local_averaging_solution` against with exact float equality,
and the baseline the VIEWS benchmark times the batched pipeline against;
:func:`partition_views_reference` plays the same part for
:func:`repro.partition_views`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro import communication_hypergraph
from repro.canon.labeling import CanonicalForm, CanonicalIndex, view_local_structure
from repro.canon.orbits import OrbitPartition, ViewOrbit
from repro.core.local_averaging import LocalAveragingResult
from repro.core.problem import Agent, Beneficiary, Resource
from repro.exceptions import SolverError


def local_averaging_reference(
    problem, R, *, engine, keep_local_solutions=False
) -> LocalAveragingResult:
    """The Section 5 algorithm with one BFS, canonicalisation and set pass per agent.

    Local LPs are solved through ``engine`` (one
    ``solve_canonical_local_lps`` batch); the step 3 sums run in ascending
    agent-position order, the order the batched pipeline uses.
    """
    if R < 1:
        raise ValueError("the local averaging algorithm requires R >= 1")
    # The library's argument checks, so the VIEWS benchmark times the same
    # work on both sides.
    H = communication_hypergraph(problem)
    if set(H.nodes) != set(problem.agents):
        raise SolverError(
            "the supplied hypergraph's vertex set does not match the problem's agents"
        )

    # Step 1: local views, canonicalised one view at a time through the
    # engine's index (the same forms the batch pipeline derives), then all
    # canonical local LPs as one engine batch.
    views: Dict[Agent, FrozenSet[Agent]] = {
        u: H.ball(u, R) for u in problem.agents
    }
    index = engine.canon_index()
    forms = [
        index.canonical_form(*view_local_structure(problem, views[u]))
        for u in problem.agents
    ]
    canonical = engine.solve_canonical_local_lps(forms)
    local_solutions: Dict[Agent, Dict[Agent, float]] = {}
    local_objectives: Dict[Agent, float] = {}
    for u, form, outcome in zip(problem.agents, forms, canonical):
        local_solutions[u] = form.pull_back(outcome.x)
        local_objectives[u] = outcome.objective

    view_sizes = {u: len(views[u]) for u in problem.agents}

    # Step 2: the set system of Figure 2.
    #   U_i = ∪_{j ∈ V_i} V^j,  N_i = |U_i|,  n_i = min_{j ∈ V_i} |V^j|
    #   S_k = ∩_{j ∈ V_k} V^j,  m_k = |S_k|,  M_k = max_{j ∈ V_k} |V^j|
    N: Dict[Resource, int] = {}
    n: Dict[Resource, int] = {}
    for i in problem.resources:
        support = problem.resource_support(i)
        union: set = set()
        smallest = None
        for j in support:
            union |= views[j]
            size = view_sizes[j]
            smallest = size if smallest is None else min(smallest, size)
        N[i] = len(union)
        n[i] = smallest if smallest is not None else 0

    M: Dict[Beneficiary, int] = {}
    m: Dict[Beneficiary, int] = {}
    for k in problem.beneficiaries:
        support = problem.beneficiary_support(k)
        inter: Optional[set] = None
        largest = 0
        for j in support:
            inter = set(views[j]) if inter is None else inter & views[j]
            largest = max(largest, view_sizes[j])
        M[k] = largest
        m[k] = len(inter) if inter is not None else 0

    resource_ratio = max((N[i] / n[i] for i in problem.resources if n[i] > 0), default=1.0)
    beneficiary_ratio = max(
        (M[k] / m[k] for k in problem.beneficiaries if m[k] > 0), default=1.0
    )

    # Step 3: shrink factors and the averaged solution.
    beta: Dict[Agent, float] = {}
    x_tilde: Dict[Agent, float] = {}
    position = problem.agent_position
    for j in problem.agents:
        resources_j = problem.agent_resources(j)
        if resources_j:
            beta_j = min(n[i] / N[i] for i in resources_j)
        else:
            beta_j = 1.0
        beta[j] = beta_j
        total = 0.0
        for u in sorted(views[j], key=position):
            total += local_solutions[u].get(j, 0.0)
        x_tilde[j] = beta_j * total / view_sizes[j]

    objective = problem.objective(problem.to_array(x_tilde))
    return LocalAveragingResult(
        R=R,
        x=x_tilde,
        objective=float(objective),
        beta=beta,
        view_sizes=view_sizes,
        resource_ratio=float(resource_ratio),
        beneficiary_ratio=float(beneficiary_ratio),
        proven_ratio_bound=float(resource_ratio * beneficiary_ratio),
        local_objectives=local_objectives,
        local_solutions=local_solutions if keep_local_solutions else None,
    )


def partition_views_reference(problem, R) -> OrbitPartition:
    """View orbits from one ``CanonicalIndex.canonical_form`` call per view."""
    if R < 1:
        raise ValueError("view orbits require a radius R >= 1")
    index = CanonicalIndex()
    H = communication_hypergraph(problem)
    forms: Dict[Agent, CanonicalForm] = {}
    for u in problem.agents:
        agents, cons, bens = view_local_structure(problem, H.ball(u, R))
        forms[u] = index.canonical_form(agents, cons, bens)

    members: Dict[str, List[Agent]] = {}
    for u in problem.agents:
        members.setdefault(forms[u].key, []).append(u)
    orbits = tuple(
        ViewOrbit(key=key, members=tuple(agents), form=forms[agents[0]])
        for key, agents in members.items()
    )
    return OrbitPartition(R=R, orbits=orbits, forms=forms)
