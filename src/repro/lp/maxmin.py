"""The Section 1.3 reduction from the max-min LP to an ordinary LP.

Section 1.3 of the paper observes that for finite index sets the max-min
problem

.. math::

    \\max \\; \\omega = \\min_k c_k x \\quad\\text{s.t.}\\quad Ax \\le 1,\\; x \\ge 0

can be written as the LP ``max ω  s.t.  Ax ≤ 1, ω·1 − Cx ≤ 0, x ≥ 0`` whose
constraint matrix is no longer non-negative.  That reduction is the one
max-min solver of the reproduction, and it is built in one place:
:func:`_stack_maxmin_buffers` assembles a chunk of reductions, given as
:class:`CompiledMaxMin` buffers, straight into HiGHS's row-wise model, and
:func:`solve_maxmin_buffer_batch` solves the chunk with one HiGHS call per
unit or one for the whole stack (see :mod:`repro.lp.batch` for the two
strategies).  :func:`solve_max_min` is the one-unit case, for one-off
optima; :func:`interpret_maxmin_status` turns a solved unit into ``(ω, x)``
for it and for the batch engine alike.

The reduction is assembled **sparse end-to-end**: the instance matrices are
already CSR, the reduction only shifts their column indices, and HiGHS
consumes the rows directly.  :class:`CompiledMaxMin` is the transport form
of one reduction: raw CSR buffers that fan out to worker processes without
pickling :class:`~repro.core.problem.MaxMinLP` objects.  The test suite
checks the path against ``scipy.optimize.linprog`` on a reduction it builds
itself.
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
from .standard import LPStatus

__all__ = [
    "CompiledMaxMin",
    "MaxMinSolveResult",
    "interpret_maxmin_status",
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

    Emits the row-wise model :func:`~repro.lp.backends.call_highs` solves.
    Each unit has variables ``(x_1, ..., x_n, ω)`` and minimises ``-ω``:
    its rows are ``A``'s (upper bound 1) then ``[-C | 1]``'s (upper bound
    0), and every column is bounded to ``[0, inf)``.  The whole chunk is a
    fixed number of array operations -- no per-unit loop and no sparse
    matrix -- which is what keeps the engine's hundreds of tiny local LPs
    cheap.

    Returns the model plus each unit's first column and first row
    (``columns[u] : columns[u+1]`` slices unit ``u``'s ``(x, ω)`` out of a
    stacked solution; :func:`_unit_model` cuts out its own model).  A
    one-unit list gives the model :func:`solve_max_min` solves.
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
    ``"per-lp"`` each unit's block of the stack is one call on the model
    the unit stacks to alone, so :func:`solve_max_min` is its one-unit
    case.
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


def interpret_maxmin_status(
    status_name: str, x_vec: Optional[np.ndarray]
) -> Tuple[float, np.ndarray]:
    """``(ω, x)`` of one solved reduction; raise unless it is optimal.

    ``(status_name, x_vec)`` is one entry of
    :func:`solve_maxmin_buffer_batch`'s output; ``x`` is the unit's
    activities clipped at 0.

    Raises
    ------
    UnboundedError, InfeasibleError
        For those statuses (a well-formed instance is never infeasible:
        ``x = 0`` satisfies every packing constraint).
    SolverError
        For any other non-optimal status.
    """
    status = LPStatus(status_name)
    if status is LPStatus.UNBOUNDED:
        raise UnboundedError("max-min LP reduction reported unbounded")
    if status is LPStatus.INFEASIBLE:
        raise InfeasibleError("max-min LP reduction reported infeasible")
    if status is not LPStatus.OPTIMAL or x_vec is None:
        raise SolverError(f"LP backend {DEFAULT_BACKEND!r} failed: {status}")
    x_vec = np.asarray(x_vec, dtype=np.float64)
    return float(x_vec[-1]), np.clip(x_vec[:-1], 0.0, None)


def solve_max_min(problem: MaxMinLP) -> MaxMinSolveResult:
    """Solve ``problem`` exactly: the one-unit case of the batched path.

    One HiGHS call on the reduction :func:`_stack_maxmin_buffers` builds
    from ``problem``'s :class:`CompiledMaxMin` buffers.

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
    ((status_name, x_vec),) = solve_maxmin_buffer_batch(
        [CompiledMaxMin.from_problem(problem).to_buffers()]
    )
    omega, activities = interpret_maxmin_status(status_name, x_vec)
    return MaxMinSolveResult(
        objective=omega, x=problem.from_array(activities), backend=DEFAULT_BACKEND
    )
