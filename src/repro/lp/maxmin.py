"""Reductions from the max-min LP to ordinary linear programs.

Section 1.3 of the paper observes that for finite index sets the max-min
problem

.. math::

    \\max \\; \\omega = \\min_k c_k x \\quad\\text{s.t.}\\quad Ax \\le 1,\\; x \\ge 0

can be written as the LP ``max ω  s.t.  Ax ≤ 1, ω·1 − Cx ≤ 0, x ≥ 0`` whose
constraint matrix is no longer non-negative.  This module implements that
reduction (:func:`maxmin_to_lp`, :func:`solve_max_min`) plus an alternative
bisection scheme (:func:`solve_max_min_bisection`) that only ever solves
non-negative *packing feasibility* subproblems -- a cross-check of the
exact reduction.

The reduction is assembled **sparse end-to-end**: the instance matrices are
already CSR, the reduction only shifts their column indices, and the
resulting :class:`~repro.lp.standard.LinearProgram` keeps the CSR form all
the way to HiGHS, which consumes it directly.  On a 48x48 stress instance
this is the difference between kilobytes and the old O(n²) dense ``A_ub``.

Batch variants (:func:`solve_max_min_batch`, the multi-probe bisection
rounds) route through :mod:`repro.lp.batch` so a whole sweep of independent
reductions costs one HiGHS call instead of one per instance.
:class:`CompiledMaxMin` is the transport form of one reduction: raw CSR
buffers that fan out to worker processes without pickling
:class:`~repro.core.problem.MaxMinLP` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..core.problem import Agent, MaxMinLP
from ..exceptions import InfeasibleError, SolverError, UnboundedError
from .backends import DEFAULT_BACKEND, call_highs, solve_lp
from .batch import BatchSolveStats, solve_lp_batch
from .standard import LinearProgram, LPResult, LPStatus

__all__ = [
    "CompiledMaxMin",
    "MaxMinSolveResult",
    "maxmin_to_lp",
    "solve_max_min",
    "solve_max_min_batch",
    "solve_max_min_bisection",
    "solve_maxmin_buffer_batch",
]


@dataclass(frozen=True)
class MaxMinSolveResult:
    """Result of an exact (or bisection) max-min LP solve.

    Attributes
    ----------
    objective:
        The optimal value ``ω*``; ``inf`` when the instance has no
        beneficiaries, ``0.0`` for trivially zero instances.
    x:
        Optimal activities keyed by agent.
    backend:
        LP backend used (always :data:`~repro.lp.backends.DEFAULT_BACKEND`).
    """

    objective: float
    x: Dict[Agent, float]
    backend: str


def _maxmin_lp_from_matrices(
    A: sp.csr_matrix, C: sp.csr_matrix, n: int
) -> LinearProgram:
    """The Section 1.3 reduction, built directly from sparse ``A`` and ``C``.

    Variables ``(x_1, ..., x_n, ω)``; minimise ``-ω`` subject to
    ``[A | 0] x ≤ 1`` and ``[-C | 1] (x, ω) ≤ 0``, everything non-negative.
    The two row groups are assembled straight from the CSR buffers: ``A``'s
    rows are reused verbatim (the ω column is empty there) and ``C``'s rows
    are negated with a single appended ``+1`` entry for ω per row.
    """
    n_i = int(A.shape[0])
    n_k = int(C.shape[0])
    if n_i + n_k:
        top = A if n_i else sp.csr_matrix((0, n), dtype=np.float64)
        if n_k:
            # [-C | 1]: append the ω coefficient to each benefit row.
            indptr = np.asarray(C.indptr, dtype=np.int64)
            counts = np.diff(indptr)
            new_indptr = np.concatenate(
                ([0], np.cumsum(counts + 1))
            ).astype(np.int64)
            nnz = int(indptr[-1])
            data = np.empty(nnz + n_k, dtype=np.float64)
            indices = np.empty(nnz + n_k, dtype=np.int64)
            # Positions of the appended ω entries: the last slot of each row.
            omega_slots = new_indptr[1:] - 1
            keep = np.ones(nnz + n_k, dtype=bool)
            keep[omega_slots] = False
            data[keep] = -np.asarray(C.data, dtype=np.float64)
            indices[keep] = np.asarray(C.indices, dtype=np.int64)
            data[omega_slots] = 1.0
            indices[omega_slots] = n
            bottom = sp.csr_matrix(
                (data, indices, new_indptr), shape=(n_k, n + 1), dtype=np.float64
            )
        else:
            bottom = sp.csr_matrix((0, n + 1), dtype=np.float64)
        top_wide = sp.csr_matrix(
            (top.data, top.indices, top.indptr), shape=(n_i, n + 1), dtype=np.float64
        )
        A_ub = sp.vstack([top_wide, bottom], format="csr")
        b_ub = np.concatenate([np.ones(n_i), np.zeros(n_k)])
    else:
        A_ub = None
        b_ub = None
    c = np.zeros(n + 1)
    c[-1] = -1.0  # maximise ω
    bounds = [(0.0, None)] * (n + 1)
    return LinearProgram(c=c, A_ub=A_ub, b_ub=b_ub, bounds=bounds)


def maxmin_to_lp(problem: MaxMinLP) -> LinearProgram:
    """Build the LP reduction of Section 1.3 for ``problem``.

    The LP has variables ``(x_1, ..., x_n, ω)`` and minimises ``-ω`` subject
    to ``A x ≤ 1`` and ``ω·1 − C x ≤ 0`` with all variables non-negative.
    The constraint matrix is returned sparse (CSR); it carries exactly the
    values of the old dense assembly, so every backend returns the same
    result it always did.
    """
    return _maxmin_lp_from_matrices(problem.A, problem.C, problem.n_agents)


@dataclass(frozen=True)
class CompiledMaxMin:
    """One max-min instance compiled to raw solver inputs.

    The transport form the batch engine fans out to worker processes: the
    CSR buffers of ``A`` and ``C`` plus the agent count -- no identifier
    maps, support sets or Python coefficient dictionaries, so pickling one
    costs a handful of array buffers instead of a whole
    :class:`~repro.core.problem.MaxMinLP`.  The parent process keeps the
    original instance (or canonical form) and pulls identifiers back in
    after the solve.
    """

    n_agents: int
    A: sp.csr_matrix
    C: sp.csr_matrix

    @classmethod
    def from_problem(cls, problem: MaxMinLP) -> "CompiledMaxMin":
        return cls(n_agents=problem.n_agents, A=problem.A, C=problem.C)

    @classmethod
    def from_triples(
        cls,
        n_agents: int,
        n_resources: int,
        n_beneficiaries: int,
        consumption: Sequence[Tuple[int, int, float]],
        benefit: Sequence[Tuple[int, int, float]],
    ) -> "CompiledMaxMin":
        """Build from position-indexed coefficient triples.

        This is the canonical-form fast path: a
        :class:`~repro.canon.labeling.CanonicalForm` stores its relabelled
        coefficients as ``(row, column, value)`` triples sorted by (row,
        column), which is exactly CSR buffer order -- the matrices are
        assembled straight from the triple arrays (indptr via a row
        bincount), with no COO round-trip and no
        :class:`~repro.core.problem.MaxMinLP` (identifier dictionaries,
        support sets, validation) ever existing.
        """

        def build(rows_cols_vals, n_rows: int) -> sp.csr_matrix:
            if rows_cols_vals:
                arr = np.asarray(rows_cols_vals, dtype=np.float64)
                rows = arr[:, 0].astype(np.int64)
                indices = arr[:, 1].astype(np.int64)
                data = np.ascontiguousarray(arr[:, 2])
                indptr = np.concatenate(
                    ([0], np.cumsum(np.bincount(rows, minlength=n_rows)))
                ).astype(np.int64)
                matrix = sp.csr_matrix(
                    (data, indices, indptr),
                    shape=(n_rows, n_agents),
                    dtype=np.float64,
                )
                matrix.has_sorted_indices = True  # triples are (row, col) sorted
                return matrix
            return sp.csr_matrix((n_rows, n_agents), dtype=np.float64)

        return cls(
            n_agents=n_agents,
            A=build(list(consumption), n_resources),
            C=build(list(benefit), n_beneficiaries),
        )

    @property
    def n_beneficiaries(self) -> int:
        return int(self.C.shape[0])

    def lp(self) -> LinearProgram:
        """The (sparse) Section 1.3 LP reduction of this instance."""
        return _maxmin_lp_from_matrices(self.A, self.C, self.n_agents)

    def objective(self, x: np.ndarray) -> float:
        """``min_k (C x)_k`` -- ``inf`` for the empty minimum."""
        if self.n_beneficiaries == 0:
            return float("inf")
        return float((self.C @ x).min())

    def to_buffers(self) -> Tuple:
        """Raw-array form for zero-copy process fan-out.

        :func:`_stack_maxmin_buffers` builds the reduction straight from
        these buffers, no sparse matrix is rebuilt on the far side.
        """
        return (
            self.n_agents,
            self.A.data,
            self.A.indices,
            self.A.indptr,
            int(self.A.shape[0]),
            self.C.data,
            self.C.indices,
            self.C.indptr,
            int(self.C.shape[0]),
        )


def _stack_maxmin_buffers(buffers_list: Sequence[Tuple]) -> Tuple[LinearProgram, np.ndarray]:
    """Block-diagonally stack many reductions straight from raw buffers.

    The batched counterpart of :func:`_maxmin_lp_from_matrices`: for each
    unit the block is ``[[A | 0], [-C | 1]]``, and the whole chunk's
    stacked CSR is assembled with plain array concatenations -- no
    intermediate per-unit sparse objects at all, which is what makes the
    engine's stacked fan-out cheap for chunks of hundreds of tiny local
    LPs.  Returns the stacked LP plus each block's variable offset
    (``offsets[i] : offsets[i+1]`` slices unit ``i``'s ``(x, ω)`` out of a
    stacked solution).  A one-unit list builds that unit's own reduction
    (same rows, order and values as :meth:`CompiledMaxMin.lp`), which is
    how the per-LP strategies and the stacked fallback get their LPs.
    """
    n_units = len(buffers_list)
    widths = np.empty(n_units, dtype=np.int64)
    data_parts: List[np.ndarray] = []
    indices_parts: List[np.ndarray] = []
    row_count_parts: List[np.ndarray] = []
    b_parts: List[np.ndarray] = []
    offsets = np.zeros(n_units + 1, dtype=np.int64)
    for u, buffers in enumerate(buffers_list):
        (
            n_agents,
            a_data,
            a_indices,
            a_indptr,
            n_i,
            c_data,
            c_indices,
            c_indptr,
            n_k,
        ) = buffers
        base = offsets[u]
        widths[u] = n_agents + 1
        offsets[u + 1] = base + n_agents + 1
        if n_i:
            data_parts.append(np.asarray(a_data, dtype=np.float64))
            indices_parts.append(np.asarray(a_indices, dtype=np.int64) + base)
            row_count_parts.append(np.diff(np.asarray(a_indptr, dtype=np.int64)))
            b_parts.append(np.ones(n_i))
        if n_k:
            c_indptr = np.asarray(c_indptr, dtype=np.int64)
            counts = np.diff(c_indptr)
            nnz = int(c_indptr[-1])
            row_data = np.empty(nnz + n_k, dtype=np.float64)
            row_indices = np.empty(nnz + n_k, dtype=np.int64)
            omega_slots = np.cumsum(counts + 1) - 1
            keep = np.ones(nnz + n_k, dtype=bool)
            keep[omega_slots] = False
            row_data[keep] = -np.asarray(c_data, dtype=np.float64)
            row_indices[keep] = np.asarray(c_indices, dtype=np.int64) + base
            row_data[omega_slots] = 1.0
            row_indices[omega_slots] = base + n_agents
            data_parts.append(row_data)
            indices_parts.append(row_indices)
            row_count_parts.append(counts + 1)
            b_parts.append(np.zeros(n_k))
    n_total = int(offsets[-1])
    c = np.zeros(n_total)
    c[offsets[1:] - 1] = -1.0  # maximise every block's ω
    if row_count_parts:
        data = np.concatenate(data_parts)
        indices = np.concatenate(indices_parts)
        indptr = np.concatenate(
            ([0], np.cumsum(np.concatenate(row_count_parts)))
        ).astype(np.int64)
        A_ub = sp.csr_matrix(
            (data, indices, indptr),
            shape=(indptr.size - 1, n_total),
            dtype=np.float64,
        )
        b_ub = np.concatenate(b_parts)
    else:
        A_ub = None
        b_ub = None
    lp = LinearProgram(
        c=c, A_ub=A_ub, b_ub=b_ub, bounds=[(0.0, None)] * n_total
    )
    return lp, offsets


def solve_maxmin_buffer_batch(
    buffers_list: Sequence[Tuple],
    *,
    strategy: str = "per-lp",
    stats: Optional[BatchSolveStats] = None,
) -> List[Tuple[str, Optional[np.ndarray]]]:
    """Solve a chunk of reductions given as raw buffers; status + vector each.

    The engine's chunk worker: ``buffers_list`` entries are
    :meth:`CompiledMaxMin.to_buffers` output.  Under the stacked strategy
    the whole chunk becomes **one** HiGHS call assembled directly from the
    buffers (:func:`_stack_maxmin_buffers`); a non-optimal stack falls back
    to exact per-unit solves.  Under ``"per-lp"`` the per-unit LPs are
    built from the buffers the same way and handed to
    :func:`repro.lp.batch.solve_lp_batch`.
    Returns ``(status_name, x_vector)`` pairs -- exceptions and identifier
    work belong to the caller.  ``stats`` receives the same counters
    :func:`~repro.lp.batch.solve_lp_batch` reports, so the engine can
    surface stacked-call and fallback counts even when the chunk ran in a
    worker process.
    """
    if stats is None:
        stats = BatchSolveStats()
    if not buffers_list:
        return []
    if strategy == "stacked":
        stats.batches += 1
        stats.lps += len(buffers_list)
        stats.stacked_calls += 1
        stacked, offsets = _stack_maxmin_buffers(buffers_list)
        try:
            result = call_highs(stacked)
            status = int(result.status)
        except Exception:
            status = -1
        if status == 0:
            x = np.asarray(result.x, dtype=np.float64)
            return [
                (
                    LPStatus.OPTIMAL.value,
                    x[offsets[u]: offsets[u + 1]],
                )
                for u in range(len(buffers_list))
            ]
        # Exact-status fallback: re-solve each block alone.
        stats.fallback_solves += len(buffers_list)
        results = [
            solve_lp(_stack_maxmin_buffers([buffers])[0])
            for buffers in buffers_list
        ]
    else:
        lps = [_stack_maxmin_buffers([buffers])[0] for buffers in buffers_list]
        results = solve_lp_batch(lps, strategy=strategy, stats=stats)
    return [(result.status.value, result.x) for result in results]


def _interpret_maxmin_result(result: LPResult) -> Tuple[float, np.ndarray]:
    """Map an LP result of the reduction to ``(ω, x)``; raise on bad status."""
    if result.status is LPStatus.UNBOUNDED:
        raise UnboundedError("max-min LP reduction reported unbounded")
    if result.status is LPStatus.INFEASIBLE:
        # x = 0 is always feasible for a packing system, so this cannot
        # happen for a well-formed instance.
        raise InfeasibleError("max-min LP reduction reported infeasible")
    if not result.is_optimal or result.x is None:
        raise SolverError(
            f"LP backend {DEFAULT_BACKEND!r} failed: {result.status}"
        )
    return float(result.x[-1]), np.clip(result.x[:-1], 0.0, None)


def solve_max_min(problem: MaxMinLP) -> MaxMinSolveResult:
    """Solve ``problem`` exactly through the LP reduction.

    Raises
    ------
    UnboundedError
        If the instance has no beneficiaries (``ω`` is unbounded above) --
        callers that allow this case should check ``n_beneficiaries`` first.
    SolverError
        If HiGHS fails.
    """
    if problem.n_beneficiaries == 0:
        raise UnboundedError(
            "the max-min objective is unbounded when there are no beneficiaries"
        )
    if problem.n_agents == 0:
        return MaxMinSolveResult(objective=0.0, x={}, backend=DEFAULT_BACKEND)
    lp = maxmin_to_lp(problem)
    omega, x_vec = _interpret_maxmin_result(solve_lp(lp))
    return MaxMinSolveResult(
        objective=omega, x=problem.from_array(x_vec), backend=DEFAULT_BACKEND
    )


def solve_max_min_batch(
    problems: Sequence[MaxMinLP],
    *,
    strategy: str = "per-lp",
    chunk_size: Optional[int] = None,
    stats: Optional[BatchSolveStats] = None,
) -> List[MaxMinSolveResult]:
    """Exactly solve a batch of instances through one batched LP submission.

    With the default ``strategy="per-lp"`` the results are bit-identical to
    calling :func:`solve_max_min` per instance; ``"stacked"`` solves all
    reductions in one HiGHS call (same optimal values, possibly different
    equally-optimal vertices -- see :mod:`repro.lp.batch`).  Degenerate
    instances (no beneficiaries / no agents) raise or short-circuit exactly
    as :func:`solve_max_min` does, before any LP is stacked.
    """
    problems = list(problems)
    for problem in problems:
        if problem.n_beneficiaries == 0:
            raise UnboundedError(
                "the max-min objective is unbounded when there are no beneficiaries"
            )
    outputs: List[Optional[MaxMinSolveResult]] = [None] * len(problems)
    solve_indices = []
    lps = []
    for idx, problem in enumerate(problems):
        if problem.n_agents == 0:
            outputs[idx] = MaxMinSolveResult(
                objective=0.0, x={}, backend=DEFAULT_BACKEND
            )
        else:
            solve_indices.append(idx)
            lps.append(maxmin_to_lp(problem))
    results = solve_lp_batch(
        lps, strategy=strategy, chunk_size=chunk_size, stats=stats
    )
    for idx, result in zip(solve_indices, results):
        problem = problems[idx]
        omega, x_vec = _interpret_maxmin_result(result)
        outputs[idx] = MaxMinSolveResult(
            objective=omega, x=problem.from_array(x_vec), backend=DEFAULT_BACKEND
        )
    return outputs  # type: ignore[return-value]


def _packing_probe_lp(problem: MaxMinLP, target: float) -> LinearProgram:
    """The feasibility probe LP for one target (see ``_packing_feasible_for_target``)."""
    n = problem.n_agents
    n_i = problem.n_resources
    n_k = problem.n_beneficiaries
    # Variables (x, t): minimise t  s.t.  A x - t·1 ≤ 0,  -C x ≤ -target.
    if n_i:
        A = problem.A
        top = sp.hstack(
            [A, sp.csr_matrix(-np.ones((n_i, 1)))], format="csr"
        )
    else:
        top = sp.csr_matrix((0, n + 1), dtype=np.float64)
    if n_k:
        C = problem.C
        bottom = sp.hstack([-C, sp.csr_matrix((n_k, 1))], format="csr")
    else:
        bottom = sp.csr_matrix((0, n + 1), dtype=np.float64)
    A_ub = sp.vstack([top, bottom], format="csr")
    b_ub = np.concatenate([np.zeros(n_i), -np.full(n_k, target)])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    return LinearProgram(c=c, A_ub=A_ub, b_ub=b_ub, bounds=[(0.0, None)] * (n + 1))


def _interpret_probe(result: LPResult) -> Tuple[bool, Optional[np.ndarray]]:
    if not result.is_optimal or result.x is None:
        return False, None
    t = float(result.x[-1])
    if t <= 1.0 + 1e-9:
        return True, np.clip(result.x[:-1], 0.0, None)
    return False, None


def _packing_feasible_for_target(
    problem: MaxMinLP, target: float
) -> Tuple[bool, Optional[np.ndarray]]:
    """Check whether some ``x ≥ 0`` has ``A x ≤ 1`` and ``C x ≥ target``.

    The check is itself an LP: minimise the maximum resource usage subject to
    the benefit constraints, then compare the optimum against 1.
    """
    return _interpret_probe(solve_lp(_packing_probe_lp(problem, target)))


def _packing_feasible_for_targets(
    problem: MaxMinLP,
    targets: Sequence[float],
    *,
    strategy: str,
    stats: Optional[BatchSolveStats] = None,
) -> List[Tuple[bool, Optional[np.ndarray]]]:
    """Batched probes: every target of one bisection round in one LP call.

    The probe LPs of a round differ only in their right-hand sides, so the
    whole geometric sweep stacks into a single block-diagonal solve (or a
    per-LP loop under ``strategy="per-lp"``).
    """
    lps = [_packing_probe_lp(problem, target) for target in targets]
    results = solve_lp_batch(lps, strategy=strategy, stats=stats)
    return [_interpret_probe(result) for result in results]


def solve_max_min_bisection(
    problem: MaxMinLP,
    *,
    tol: float = 1e-6,
    max_iter: int = 100,
    probes_per_round: int = 1,
    strategy: str = "per-lp",
) -> MaxMinSolveResult:
    """Solve the max-min LP by bisection on the target value ``ω``.

    Each round solves feasibility LPs ("can every party receive at least
    ``ω`` without exceeding any resource?").  The method converges to the
    optimum within ``tol`` (absolute) and is used in the test suite to
    cross-validate :func:`solve_max_min`.

    Parameters
    ----------
    probes_per_round:
        Number of evenly spaced targets probed per round.  ``1`` is the
        classical bisection (each round halves the bracket with one LP);
        ``k > 1`` probes ``k`` interior targets of the bracket *in one
        batched LP submission* -- feasibility is monotone in the target, so
        one round shrinks the bracket by a factor of ``k + 1``.  Any value
        converges to the same optimum within ``tol``; larger rounds trade
        LP count for per-call batching, which is how a 500-probe sweep
        collapses to a handful of HiGHS calls.
    strategy:
        Batch strategy for each round's probes (see
        :func:`repro.lp.batch.solve_lp_batch`); only consulted when
        ``probes_per_round > 1``.
    """
    if probes_per_round < 1:
        raise ValueError("probes_per_round must be at least 1")
    if problem.n_beneficiaries == 0:
        raise UnboundedError(
            "the max-min objective is unbounded when there are no beneficiaries"
        )
    if problem.n_agents == 0:
        return MaxMinSolveResult(objective=0.0, x={}, backend=DEFAULT_BACKEND)

    # Upper bound on ω*: every party k can get at most
    # max_{v∈V_k} c_kv / max(a_iv over i) ... a simple safe upper bound is
    # Σ_v c_kv * (min_i 1/a_iv), the benefit if each agent used its full
    # individual budget.  Compute it per party and take the minimum.
    upper = np.inf
    for k in problem.beneficiaries:
        total = 0.0
        for v in problem.beneficiary_support(k):
            caps = [1.0 / problem.consumption(i, v) for i in problem.agent_resources(v)]
            if caps:
                total += problem.benefit(k, v) * min(caps)
            else:
                total = np.inf
                break
        upper = min(upper, total)
    if not np.isfinite(upper):
        raise UnboundedError("instance has an agent with no resource constraint")
    if upper <= 0.0:
        return MaxMinSolveResult(
            objective=0.0,
            x={v: 0.0 for v in problem.agents},
            backend=DEFAULT_BACKEND,
        )

    lo, hi = 0.0, float(upper)
    best_x = np.zeros(problem.n_agents)
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        if probes_per_round == 1:
            mid = 0.5 * (lo + hi)
            ok, x = _packing_feasible_for_target(problem, mid)
            if ok and x is not None:
                lo = mid
                best_x = x
            else:
                hi = mid
        else:
            k = probes_per_round
            targets = [
                lo + (hi - lo) * (j + 1) / (k + 1) for j in range(k)
            ]
            outcomes = _packing_feasible_for_targets(
                problem, targets, strategy=strategy
            )
            # Feasibility is monotone decreasing in the target: find the
            # largest feasible probe (if any) and the smallest infeasible
            # one; they bracket ω*.
            new_lo, new_hi = lo, hi
            for target, (ok, x) in zip(targets, outcomes):
                if ok and x is not None:
                    new_lo = target
                    best_x = x
                else:
                    new_hi = target
                    break
            lo, hi = new_lo, new_hi
    # Report the objective actually achieved by the best feasible x found.
    achieved = problem.objective(best_x) if problem.n_beneficiaries else float("inf")
    return MaxMinSolveResult(
        objective=float(achieved),
        x=problem.from_array(best_x),
        backend=DEFAULT_BACKEND,
    )
