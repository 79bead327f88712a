"""The Section 1.3 reduction from the max-min LP to an ordinary LP.

Section 1.3 of the paper observes that for finite index sets the max-min
problem

.. math::

    \\max \\; \\omega = \\min_k c_k x \\quad\\text{s.t.}\\quad Ax \\le 1,\\; x \\ge 0

can be written as the LP ``max ω  s.t.  Ax ≤ 1, ω·1 − Cx ≤ 0, x ≥ 0`` whose
constraint matrix is no longer non-negative.  That reduction is the one
max-min solver of the reproduction, in two forms:

* :func:`maxmin_to_lp` and :func:`solve_max_min` build it as a readable
  :class:`~repro.lp.standard.LinearProgram` -- the reference form, used
  for one-off optima and in the tests.
* :func:`solve_maxmin_buffer_batch` solves a whole chunk of reductions
  given as :class:`CompiledMaxMin` buffers -- the batch engine's path.
  :func:`_stack_maxmin_buffers` stacks the chunk straight into HiGHS's
  row-wise model, and the chunk costs one HiGHS call per unit or one for
  the whole stack (see :mod:`repro.lp.batch` for the two strategies).

The reduction is assembled **sparse end-to-end**: the instance matrices are
already CSR, the reduction only shifts their column indices, and HiGHS
consumes the rows directly.  On a 48x48 stress instance this is the
difference between kilobytes and the old O(n²) dense ``A_ub``.
:class:`CompiledMaxMin` is the transport form of one reduction: raw CSR
buffers that fan out to worker processes without pickling
:class:`~repro.core.problem.MaxMinLP` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..core.problem import Agent, MaxMinLP
from ..exceptions import InfeasibleError, SolverError, UnboundedError
from .backends import DEFAULT_BACKEND, HIGHS_INF, RowwiseLP, call_highs, solve_lp
from .batch import BATCH_STRATEGIES, BatchSolveStats
from .standard import LinearProgram, LPResult, LPStatus

__all__ = [
    "CompiledMaxMin",
    "MaxMinSolveResult",
    "maxmin_to_lp",
    "solve_max_min",
    "solve_maxmin_buffer_batch",
]


@dataclass(frozen=True)
class MaxMinSolveResult:
    """Result of an exact max-min LP solve.

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


#: One CSR matrix as raw buffers: ``(data, indices, indptr, n_rows)``.
CSRBuffers = Tuple[np.ndarray, np.ndarray, np.ndarray, int]


def _csr_of(matrix: sp.csr_matrix) -> CSRBuffers:
    return matrix.data, matrix.indices, matrix.indptr, int(matrix.shape[0])


@dataclass(frozen=True, eq=False)
class CompiledMaxMin:
    """One max-min instance compiled to raw solver inputs.

    The transport form the batch engine fans out to worker processes: the
    CSR buffers of ``A`` and ``C`` (sorted column indices in every row)
    plus the agent count -- no identifier maps, support sets or Python
    coefficient dictionaries, and no sparse matrix object unless a caller
    asks for :attr:`A` or :attr:`C`.  Pickling one costs a handful of
    array buffers instead of a whole :class:`~repro.core.problem.MaxMinLP`.
    The parent process keeps the original instance (or canonical form) and
    pulls identifiers back in after the solve.
    """

    n_agents: int
    consumption: CSRBuffers
    benefit: CSRBuffers

    @classmethod
    def from_problem(cls, problem: MaxMinLP) -> "CompiledMaxMin":
        return cls(
            n_agents=problem.n_agents,
            consumption=_csr_of(problem.A),
            benefit=_csr_of(problem.C),
        )

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
        column), which is exactly CSR buffer order -- the buffers are
        taken straight from the triple arrays (indptr via a row bincount),
        with no sparse matrix and no :class:`~repro.core.problem.MaxMinLP`
        (identifier dictionaries, support sets, validation) ever existing.
        """

        def build(rows_cols_vals, n_rows: int) -> CSRBuffers:
            indptr = np.zeros(n_rows + 1, dtype=np.int32)
            if not rows_cols_vals:
                return np.empty(0), np.empty(0, dtype=np.int32), indptr, n_rows
            arr = np.asarray(rows_cols_vals, dtype=np.float64)
            rows = arr[:, 0].astype(np.int64)
            np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
            indices = arr[:, 1].astype(np.int32)
            return np.ascontiguousarray(arr[:, 2]), indices, indptr, n_rows

        return cls(
            n_agents=n_agents,
            consumption=build(list(consumption), n_resources),
            benefit=build(list(benefit), n_beneficiaries),
        )

    def _matrix(self, buffers: CSRBuffers) -> sp.csr_matrix:
        data, indices, indptr, n_rows = buffers
        return sp.csr_matrix(
            (data, indices, indptr), shape=(n_rows, self.n_agents), dtype=np.float64
        )

    @cached_property
    def A(self) -> sp.csr_matrix:
        """The consumption matrix, built on first access."""
        return self._matrix(self.consumption)

    @cached_property
    def C(self) -> sp.csr_matrix:
        """The benefit matrix, built on first access."""
        return self._matrix(self.benefit)

    @property
    def n_beneficiaries(self) -> int:
        return self.benefit[3]

    def lp(self) -> LinearProgram:
        """The (sparse) Section 1.3 LP reduction of this instance."""
        return _maxmin_lp_from_matrices(self.A, self.C, self.n_agents)

    def objective(self, x: np.ndarray) -> float:
        """``min_k (C x)_k`` -- ``inf`` for the empty minimum.

        Summed from the buffers with scipy's CSR product order (each row
        left to right from 0), so the value is the one ``C @ x`` gives
        without building ``C``: row ``k``'s products sit in column ``k``
        of a zero-padded (longest row × rows) array, added one position at
        a time (trailing zeros leave a sum unchanged).
        """
        data, indices, indptr, n_rows = self.benefit
        if n_rows == 0:
            return float("inf")
        counts = np.diff(indptr)
        rows = np.repeat(np.arange(n_rows), counts)
        padded = np.zeros((int(counts.max(initial=0)), n_rows))
        padded[np.arange(data.size) - indptr[rows], rows] = (
            data * np.asarray(x, dtype=np.float64)[indices]
        )
        sums = np.zeros(n_rows)
        for position in padded:
            sums += position
        return float(sums.min())

    def to_buffers(self) -> Tuple:
        """Raw-array form for zero-copy process fan-out.

        :func:`_stack_maxmin_buffers` builds the reduction straight from
        these buffers, no sparse matrix is rebuilt on the far side.
        """
        return (self.n_agents, *self.consumption, *self.benefit)


def _stack_maxmin_buffers(
    buffers_list: Sequence[Tuple],
) -> Tuple[RowwiseLP, np.ndarray, np.ndarray]:
    """Block-diagonally stack many reductions straight into HiGHS's rows.

    The batched counterpart of :func:`_maxmin_lp_from_matrices`, emitting
    the row-wise model :func:`~repro.lp.backends.call_highs` solves: for
    each unit the rows are ``A``'s (upper bound 1) then ``[-C | 1]``'s
    (upper bound 0), every column is bounded to ``[0, inf)`` and each ω
    costs -1.  The whole chunk is a fixed number of array operations -- no
    per-unit loop, no sparse matrix and no
    :class:`~repro.lp.standard.LinearProgram` -- which is what keeps the
    engine's hundreds of tiny local LPs cheap.

    Returns the model plus each unit's first column and first row
    (``columns[u] : columns[u+1]`` slices unit ``u``'s ``(x, ω)`` out of a
    stacked solution; :func:`_unit_model` cuts out its own model).  A
    one-unit list gives the model :func:`~repro.lp.backends.lower_lp`
    makes of that unit's :meth:`CompiledMaxMin.lp`.
    """
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
    ) = zip(*buffers_list)
    n_units = len(buffers_list)
    columns = np.zeros(n_units + 1, dtype=np.int64)
    np.cumsum(np.add(n_agents, 1), out=columns[1:])
    rows = np.zeros(n_units + 1, dtype=np.int64)
    np.cumsum(np.add(n_i, n_k), out=rows[1:])
    # Row groups unit by unit: A's rows, then C's.  Each group's indptr
    # starts from 0, so the differences across group boundaries are dropped.
    group_rows = np.ravel(np.column_stack((n_i, n_k)))
    pointers = np.concatenate(
        [part for pair in zip(a_indptr, c_indptr) for part in pair]
    )
    group_ends = np.cumsum(group_rows + 1) - 1
    counts = np.delete(np.diff(pointers), group_ends[:-1])
    group_nnz = pointers[group_ends]
    benefit_row = np.repeat(np.tile((False, True), n_units), group_rows)
    value = np.concatenate(
        [part for pair in zip(a_data, c_data) for part in pair]
    ) * np.repeat(np.tile((1.0, -1.0), n_units), group_nnz)
    index = np.concatenate(
        [part for pair in zip(a_indices, c_indices) for part in pair]
    ) + np.repeat(np.repeat(columns[:-1], 2), group_nnz)
    # ω's +1 closes every benefit row.
    omega_at = np.cumsum(counts)[benefit_row]
    value = np.insert(value, omega_at, 1.0)
    index = np.insert(index, omega_at, np.repeat(columns[1:] - 1, n_k))
    start = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts + benefit_row, out=start[1:])
    n_total = int(columns[-1])
    cost = np.zeros(n_total)
    cost[columns[1:] - 1] = -1.0  # maximise every unit's ω
    model = RowwiseLP(
        cost=cost,
        col_lower=np.zeros(n_total),
        col_upper=np.full(n_total, HIGHS_INF),
        row_lower=np.full(counts.size, -HIGHS_INF),
        row_upper=np.where(benefit_row, 0.0, 1.0),
        start=start,
        index=index.astype(np.int32),
        value=value,
    )
    return model, columns, rows


def _unit_model(
    stacked: RowwiseLP, columns: np.ndarray, rows: np.ndarray, u: int
) -> RowwiseLP:
    """Unit ``u``'s own model, sliced out of :func:`_stack_maxmin_buffers`'s."""
    c0, c1 = int(columns[u]), int(columns[u + 1])
    r0, r1 = int(rows[u]), int(rows[u + 1])
    e0, e1 = int(stacked.start[r0]), int(stacked.start[r1])
    return RowwiseLP(
        cost=stacked.cost[c0:c1],
        col_lower=stacked.col_lower[c0:c1],
        col_upper=stacked.col_upper[c0:c1],
        row_lower=stacked.row_lower[r0:r1],
        row_upper=stacked.row_upper[r0:r1],
        start=stacked.start[r0: r1 + 1] - np.int32(e0),
        index=stacked.index[e0:e1] - np.int32(c0),
        value=stacked.value[e0:e1],
    )


def solve_maxmin_buffer_batch(
    buffers_list: Sequence[Tuple],
    *,
    strategy: str = "per-lp",
    stats: Optional[BatchSolveStats] = None,
) -> List[Tuple[str, Optional[np.ndarray]]]:
    """Solve a chunk of reductions given as raw buffers; status + vector each.

    The engine's chunk worker: ``buffers_list`` entries are
    :meth:`CompiledMaxMin.to_buffers` output, stacked once straight into
    HiGHS's row-wise model by :func:`_stack_maxmin_buffers`.  Under the
    stacked strategy the whole chunk becomes **one** HiGHS call; a
    non-optimal stack falls back to exact per-unit solves.  Under
    ``"per-lp"`` each unit's block of the stack is one call, bit-identical
    to :func:`solve_max_min` on it.
    Returns ``(status_name, x_vector)`` pairs -- exceptions and identifier
    work belong to the caller.  ``stats`` receives the
    :class:`~repro.lp.batch.BatchSolveStats` counters, so the engine can
    surface stacked-call and fallback counts even when the chunk ran in a
    worker process.

    Raises
    ------
    SolverError
        Unknown strategy, or an unexpected HiGHS status on a per-unit solve
        (exactly as :func:`repro.lp.backends.solve_lp`).
    """
    if stats is None:
        stats = BatchSolveStats()
    if not buffers_list:
        return []
    if strategy not in BATCH_STRATEGIES:
        raise SolverError(
            f"unknown batch strategy {strategy!r}; expected one of "
            f"{BATCH_STRATEGIES}"
        )
    stats.batches += 1
    stats.lps += len(buffers_list)
    stacked, columns, rows = _stack_maxmin_buffers(buffers_list)
    units = range(len(buffers_list))
    if strategy == "stacked":
        stats.stacked_calls += 1
        try:
            result = call_highs(stacked)
            status = int(result.status)
        except Exception:
            status = -1
        if status == 0:
            x = np.asarray(result.x, dtype=np.float64)
            return [
                (LPStatus.OPTIMAL.value, x[columns[u]: columns[u + 1]])
                for u in units
            ]
        # Exact-status fallback: re-solve each block alone.
        stats.fallback_solves += len(buffers_list)
    results = [solve_lp(_unit_model(stacked, columns, rows, u)) for u in units]
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
