"""The local averaging approximation algorithm (paper Section 5, Theorem 3).

For a radius parameter ``R`` the algorithm proceeds in three conceptual
steps (all of which only need information within distance ``Θ(R)`` of each
agent, which is what makes it a *local* algorithm):

1. every agent ``u`` collects its radius-``R`` view ``V^u = B_H(u, R)`` and
   solves the local LP (9): maximise ``min_{k ∈ K^u} Σ_{v∈V_k} c_kv x^u_v``
   subject to ``Σ_{v ∈ V_i^u} a_iv x^u_v ≤ 1`` for every resource touching
   the view, where ``K^u = {k : V_k ⊆ V^u}``;
2. every agent ``j`` computes the shrink factor
   ``β_j = min_{i ∈ I_j} n_i / N_i`` where ``N_i = |∪_{j'∈V_i} V^{j'}|`` and
   ``n_i = min_{j'∈V_i} |V^{j'}|``;
3. the output is the *average of local solutions*, scaled down to restore
   feasibility: ``x̃_j = (β_j / |V^j|) Σ_{u ∈ V^j} x^u_j``.

Section 5.2 shows ``x̃`` is always feasible and Section 5.3 that its
objective is within ``max_k M_k/m_k · max_i N_i/n_i ≤ γ(R-1)·γ(R)`` of the
optimum, where ``S_k = ∩_{j∈V_k} V^j``, ``m_k = |S_k|`` and
``M_k = max_{j∈V_k} |V^j|``.

This module is the centralised simulation of the algorithm (every quantity
is computed exactly as defined).  Balls, view canonicalisation and the
Figure 2 set system all run as batched sparse-matrix sweeps through
:mod:`repro.views`.  The sums of step 3 run in instance column order
(ascending agent position).  ``tests/averaging_reference.py`` keeps the
per-agent form of the same algorithm (one Python BFS, view
canonicalisation and set loop per agent); the equality tests and the
VIEWS speed-up benchmark compare this module against it with exact float
equality.
The message-passing version that runs on the synchronous simulator is
:class:`repro.distributed.programs.LocalAveragingProgram`.  The
integration tests check that its output agrees with this module's to
within ``1e-9`` per agent: it sums each ``x̃_j`` in its own order, so the
two need not be bit-identical.

The solve side of step 1 flows engine → canon → views → **lp.maxmin**:
views are canonicalised in batch (:mod:`repro.views`), cache-miss
canonical representatives compile to sparse Section 1.3 reductions, and
the engine submits them to
:func:`~repro.lp.maxmin.solve_maxmin_buffer_batch` in deterministic chunks —
one block-diagonal HiGHS call per chunk under
``BatchSolver(lp_strategy="stacked")``, a bit-identical per-LP loop under
the default strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional

import numpy as np

from ..exceptions import SolverError
from ..hypergraph.communication import communication_hypergraph
from ..hypergraph.hypergraph import Hypergraph
from ..engine.executor import BatchSolver, get_default_engine
from ..obs.trace import span
from .problem import Agent, MaxMinLP

__all__ = [
    "LocalAveragingResult",
    "local_averaging_solution",
    "solve_local_lp",
    "solve_local_lp_batch",
]


@dataclass(frozen=True)
class LocalAveragingResult:
    """Output and diagnostics of the local averaging algorithm.

    Attributes
    ----------
    R:
        The radius parameter of the algorithm.
    x:
        The final (feasible) solution ``x̃`` keyed by agent.
    objective:
        The achieved objective ``ω(x̃)``.
    beta:
        The per-agent shrink factors ``β_j``.
    view_sizes:
        ``|V^j| = |B_H(j, R)|`` per agent.
    resource_ratio:
        ``max_i N_i / n_i`` (1.0 when there are no resources).
    beneficiary_ratio:
        ``max_k M_k / m_k`` (1.0 when there are no beneficiaries).
    proven_ratio_bound:
        The per-instance guarantee ``max_k M_k/m_k · max_i N_i/n_i`` of
        Section 5.3; the true approximation ratio never exceeds it.
    local_objectives:
        The optimal values ``ω^u`` of the local LPs (``inf`` when ``K^u`` is
        empty and the local objective is vacuous).
    local_solutions:
        The per-agent local solutions ``x^u`` (only retained when
        ``keep_local_solutions=True`` was passed).
    """

    R: int
    x: Dict[Agent, float]
    objective: float
    beta: Dict[Agent, float]
    view_sizes: Dict[Agent, int]
    resource_ratio: float
    beneficiary_ratio: float
    proven_ratio_bound: float
    local_objectives: Dict[Agent, float] = field(repr=False, default_factory=dict)
    local_solutions: Optional[Dict[Agent, Dict[Agent, float]]] = field(
        repr=False, default=None
    )


def solve_local_lp_batch(
    problem: MaxMinLP,
    views: Iterable[Iterable[Agent]],
    *,
    engine: Optional[BatchSolver] = None,
) -> List[Dict[Agent, float]]:
    """Solve the local LP (9) for a batch of views as one engine batch.

    Returns one local solution per view, in input order.  All views travel
    through a single engine submission, so isomorphic views collapse to one
    solve and a pooled engine fans the distinct ones out concurrently —
    submitting views one at a time forfeits both.
    """
    eng = engine if engine is not None else get_default_engine()
    view_sets = [frozenset(view) for view in views]
    outcomes = eng.solve_local_lps(problem, dict(enumerate(view_sets)))
    return [dict(outcomes[idx].x) for idx in range(len(view_sets))]


def solve_local_lp(
    problem: MaxMinLP,
    view: FrozenSet[Agent],
    *,
    engine: Optional[BatchSolver] = None,
) -> Dict[Agent, float]:
    """Solve the local LP (9) of Section 5.1 over the view ``V^u``.

    Returns the local solution ``x^u`` keyed by the agents of the view.  When
    the view contains no complete beneficiary support (``K^u = ∅``) the local
    objective is vacuous and the all-zero solution is returned.

    Thin single-view wrapper over :func:`solve_local_lp_batch`; callers
    with many views should batch them.
    """
    (solution,) = solve_local_lp_batch(problem, [view], engine=engine)
    return solution


#: reduceat sentinel per reduction: the ufunc's identity, so the last
#: non-empty segment may harmlessly include it.
_REDUCE_IDENTITY = {np.minimum: np.inf, np.maximum: -np.inf, np.add: 0.0}


def _segment_reduce(
    ufunc: np.ufunc, values: np.ndarray, indptr: np.ndarray, empty: float
) -> np.ndarray:
    """Per-segment ``ufunc.reduceat`` with a fill value for empty segments.

    ``reduceat`` misreads an empty segment's start index as a singleton,
    and a *trailing* empty segment's start (``values.size``) would be out
    of range outright.  Appending the ufunc's identity as a sentinel makes
    every start valid without clipping — each non-empty segment reduces
    over exactly its own entries (the last also folds in the identity, a
    no-op) — and the empty slots are overwritten with ``empty`` after.
    """
    counts = np.diff(indptr)
    if values.size == 0:
        return np.full(counts.size, empty, dtype=np.float64)
    extended = np.concatenate(
        [
            values.astype(np.float64, copy=False),
            [_REDUCE_IDENTITY[ufunc]],
        ]
    )
    out = ufunc.reduceat(extended, np.asarray(indptr[:-1], dtype=np.int64))
    out[counts == 0] = empty
    return out


def _segment_min(values: np.ndarray, indptr: np.ndarray, empty: float) -> np.ndarray:
    return _segment_reduce(np.minimum, values, indptr, empty)


def _segment_max(values: np.ndarray, indptr: np.ndarray, empty: float) -> np.ndarray:
    return _segment_reduce(np.maximum, values, indptr, empty)


def _segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment sum (exact here: only ever applied to integer counts)."""
    return _segment_reduce(np.add, values, indptr, 0.0)


def _figure2_arrays(problem: MaxMinLP, atlas) -> Dict[str, np.ndarray]:
    """The Figure 2 set system, every count from a sparse product.

    Every quantity is an exact integer (set cardinalities) or a single
    float division of exact integers, so the results equal the per-agent
    set loops of the test reference bit for bit.
    """
    counts = atlas.membership_counts()
    sizes = atlas.view_sizes().astype(np.int64)
    A, C = problem.A, problem.C

    # N_i = |∪_{j∈V_i} V^j|: nonzeros per row of the count product.
    a_pattern = counts.__class__(
        (
            np.ones(A.indices.size, dtype=np.int32),
            A.indices.copy(),
            A.indptr.copy(),
        ),
        shape=A.shape,
    )
    union_counts = a_pattern @ counts
    N = np.diff(union_counts.indptr).astype(np.int64)
    # n_i = min_{j∈V_i} |V^j|.
    n = _segment_min(sizes[A.indices], A.indptr, 0.0).astype(np.int64)

    # M_k = max_{j∈V_k} |V^j|.
    M = _segment_max(sizes[C.indices], C.indptr, 0.0).astype(np.int64)
    # m_k = |∩_{j∈V_k} V^j|: columns reached by *every* member of V_k.
    c_pattern = counts.__class__(
        (
            np.ones(C.indices.size, dtype=np.int32),
            C.indices.copy(),
            C.indptr.copy(),
        ),
        shape=C.shape,
    )
    reach_counts = c_pattern @ counts
    support_sizes = np.diff(C.indptr)
    full = reach_counts.data == np.repeat(
        support_sizes, np.diff(reach_counts.indptr)
    )
    m = _segment_sum(full.astype(np.int64), reach_counts.indptr).astype(np.int64)
    return {"N": N, "n": n, "M": M, "m": m, "sizes": sizes}


def local_averaging_solution(
    problem: MaxMinLP,
    R: int,
    *,
    hypergraph: Optional[Hypergraph] = None,
    keep_local_solutions: bool = False,
    engine: Optional[BatchSolver] = None,
) -> LocalAveragingResult:
    """Run the Section 5 local averaging algorithm with radius ``R``.

    Parameters
    ----------
    problem:
        The max-min LP instance.
    R:
        Radius of the local views ``V^u = B_H(u, R)``; must be at least 1.
    hypergraph:
        Optional pre-built communication hypergraph of ``problem`` (built on
        demand otherwise); supplying it avoids repeated construction in
        parameter sweeps.
    keep_local_solutions:
        Retain the per-agent local solutions in the result (memory-heavy for
        large instances; mainly useful for debugging and for the figure-2
        benchmark).
    engine:
        Batch engine through which the per-agent local LPs are solved (they
        are independent, so the engine may cache and parallelise them);
        defaults to the process-wide engine of
        :func:`repro.engine.get_default_engine`.  The engine keys every
        local LP by its canonical form (:mod:`repro.canon`), so agents with
        isomorphic views share one solve.  Results are bit-identical across
        execution modes, worker counts and cache states.  An engine with
        ``lp_strategy="stacked"`` may pick different (equally optimal)
        local LP vertices, and hence a different ``x̃``: its
        block-diagonal HiGHS call chooses vertices that depend on the
        batch composition.
    """
    if R < 1:
        raise ValueError("the local averaging algorithm requires R >= 1")
    H = hypergraph if hypergraph is not None else communication_hypergraph(problem)
    if set(H.nodes) != set(problem.agents):
        raise SolverError(
            "the supplied hypergraph's vertex set does not match the problem's agents"
        )
    eng = engine if engine is not None else get_default_engine()
    with span("core.averaging", agents=len(problem.agents), radius=R):
        return _local_averaging_vectorized(
            problem, R, H, eng, keep_local_solutions=keep_local_solutions
        )


def _local_averaging_vectorized(
    problem: MaxMinLP,
    R: int,
    H: Hypergraph,
    eng: BatchSolver,
    *,
    keep_local_solutions: bool,
) -> LocalAveragingResult:
    """Batched implementation: one sparse sweep per pipeline stage."""
    from ..views.atlas import ViewAtlas

    atlas = ViewAtlas.from_problem(problem, R, hypergraph=H)
    n_agents = problem.n_agents
    sizes = atlas.view_sizes().astype(np.int64)

    # Step 1: every local solution x^u (keyed by the agents of V^u),
    # flattened view by view, in agent order, into parallel column and
    # value lists.
    outcomes = eng.solve_local_lps(problem, atlas=atlas)
    position = {agent: j for j, agent in enumerate(problem.agents)}
    columns: List[int] = []
    values: List[float] = []
    for u in atlas.roots:
        x_u = outcomes[u].x
        columns += map(position.__getitem__, x_u)
        values += x_u.values()
    local_objectives = {u: outcomes[u].objective for u in atlas.roots}

    # Steps 2-3, vectorized (exact integer set arithmetic, float ops in the
    # same order as the per-agent loops of the test reference).
    fig2 = _figure2_arrays(problem, atlas)
    N, n, M, m = fig2["N"], fig2["n"], fig2["M"], fig2["m"]

    valid_n = n > 0
    resource_ratio = (
        float((N[valid_n] / n[valid_n]).max()) if valid_n.any() else 1.0
    )
    valid_m = m > 0
    beneficiary_ratio = (
        float((M[valid_m] / m[valid_m]).max()) if valid_m.any() else 1.0
    )

    ratio = np.divide(
        n.astype(np.float64),
        N.astype(np.float64),
        out=np.ones(N.size, dtype=np.float64),
        where=N > 0,
    )
    A_csc = problem.A_csc()
    beta_arr = _segment_min(ratio[A_csc.indices], A_csc.indptr, 1.0)

    # Step 3: Σ_{u ∈ V^j} x^u_j.  ``bincount`` accumulates strictly in
    # list order — view by view, so each column's contributions arrive in
    # ascending-u order, the exact float addition sequence of a per-agent
    # loop (reduceat would sum pairwise and drift in the last ulp).
    totals = np.bincount(
        np.asarray(columns, dtype=np.intp),
        weights=np.asarray(values, dtype=np.float64),
        minlength=n_agents,
    )
    x_arr = beta_arr * totals / sizes

    agents = problem.agents
    x_tilde = {agents[j]: float(x_arr[j]) for j in range(n_agents)}
    beta = {agents[j]: float(beta_arr[j]) for j in range(n_agents)}
    view_sizes = {agents[j]: int(sizes[j]) for j in range(n_agents)}

    local_solutions = None
    if keep_local_solutions:
        local_solutions = {u: dict(outcomes[u].x) for u in atlas.roots}

    objective = problem.objective(x_arr)
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
        local_solutions=local_solutions,
    )
