"""Batched LP solving: block-diagonal stacks and per-LP loops.

The reproduction's hot path is no longer one big LP but *many tiny ones*:
every canonical-representative local LP of the Section 5 averaging
algorithm, every bisection feasibility probe and every baseline optimum is
an independent linear program, and for radius-``R`` local LPs each HiGHS
call costs about 0.5 ms, of which HiGHS's own solve is 0.2-0.3 ms and the
fresh solver instance and the Python around it the rest
(:func:`~repro.lp.backends.call_highs`; Intel Xeon, SciPy 1.17.1).  This
module amortises the per-call part by solving whole batches at once.
Two strategies:

``"stacked"``
    Stack the batch into **one** block-diagonal sparse LP -- the variables
    of block ``i`` only meet the constraints of block ``i``, so the stacked
    optimum decomposes exactly into per-block optima -- and solve it with a
    *single* HiGHS call, then split the solution back per block.  When the
    stacked solve does not come back optimal (some block is infeasible or
    unbounded, which poisons the whole stack), every block of the chunk is
    re-solved individually so the per-LP statuses stay exact.

``"per-lp"``
    One :func:`~repro.lp.backends.solve_lp` call per LP -- bit-for-bit the
    legacy behaviour, and the reference the stacked strategy is validated
    against.

Determinism and equality
------------------------
Both strategies return exact statuses and per-block *optimal* solutions
whose objective values agree to solver tolerance.  The solution
**vector**, however, is only unique up to the LP's optimal face: HiGHS
picks different (equally optimal) vertices depending on what else shares
the stack, so ``"stacked"`` results are a deterministic function of the
*batch composition*, not of each LP alone.  Callers that require the
per-LP vertices bit-for-bit (the default engine configuration does, to
keep the reproduction's cross-path identities) use ``"per-lp"``; the
stacked strategy is the opt-in fast path for throughput-bound sweeps.
``solve_lp_batch([lp])`` with one block builds the same model as a solo
call and *is* bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..exceptions import SolverError
from ..obs.statsutil import stats_as_dict
from ..obs.trace import span
from .backends import call_highs, solve_lp
from .standard import LinearProgram, LPResult, LPStatus

__all__ = [
    "BATCH_STRATEGIES",
    "BatchSolveStats",
    "solve_lp_batch",
    "stack_block_diagonal",
    "split_stacked_solution",
]

#: Recognised values of the ``strategy`` parameter of :func:`solve_lp_batch`.
BATCH_STRATEGIES = ("stacked", "per-lp")


@dataclass
class BatchSolveStats:
    """Counters describing how a batch (or a run of batches) was solved.

    Attributes
    ----------
    batches:
        :func:`solve_lp_batch` invocations recorded.
    lps:
        LPs submitted across those invocations.
    stacked_calls:
        HiGHS calls made on block-diagonal stacks.
    fallback_solves:
        Per-LP solves forced by a non-optimal stacked status (exact-status
        fallback) -- zero for all-feasible batches.
    """

    batches: int = 0
    lps: int = 0
    stacked_calls: int = 0
    fallback_solves: int = 0

    def as_dict(self) -> Dict[str, int]:
        return stats_as_dict(self)


# ----------------------------------------------------------------------
# Block-diagonal stacking
# ----------------------------------------------------------------------
def _csr_parts(matrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """CSR buffers ``(data, indices, indptr, n_rows)`` of a block (dense or sparse)."""
    if matrix is None:
        return (
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            0,
        )
    block = matrix if sp.issparse(matrix) else sp.csr_matrix(matrix)
    block = block.tocsr()
    return (
        np.asarray(block.data, dtype=np.float64),
        np.asarray(block.indices, dtype=np.int64),
        np.asarray(block.indptr, dtype=np.int64),
        int(block.shape[0]),
    )


def _stack_csr(
    parts: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, int]],
    col_offsets: np.ndarray,
    n_cols_total: int,
) -> Optional[sp.csr_matrix]:
    """Concatenate per-block CSR buffers into one block-diagonal CSR matrix.

    A direct buffer concatenation (data unchanged, indices shifted by each
    block's column offset, indptr chained) -- ``O(total nnz)``, with none of
    the per-block Python object churn of :func:`scipy.sparse.block_diag`.
    """
    n_rows = sum(part[3] for part in parts)
    if n_rows == 0:
        return None
    data = np.concatenate([part[0] for part in parts])
    indices = np.concatenate(
        [part[1] + offset for part, offset in zip(parts, col_offsets)]
    )
    indptr_parts = [np.zeros(1, dtype=np.int64)]
    base = 0
    for part in parts:
        indptr_parts.append(part[2][1:] + base)
        base += part[2][-1]
    indptr = np.concatenate(indptr_parts)
    return sp.csr_matrix(
        (data, indices, indptr), shape=(n_rows, n_cols_total), dtype=np.float64
    )


def stack_block_diagonal(
    lps: Sequence[LinearProgram],
) -> Tuple[LinearProgram, np.ndarray]:
    """Stack independent LPs into one block-diagonal LP.

    Returns the stacked :class:`LinearProgram` plus the variable offset of
    each block (``offsets[i] : offsets[i+1]`` slices block ``i``'s
    variables out of a stacked solution vector; see
    :func:`split_stacked_solution`).  Objectives, right-hand sides and
    bounds concatenate; inequality and equality constraints each stack
    block-diagonally, so the blocks share nothing and the stacked optimum
    is exactly the tuple of per-block optima.
    """
    if not lps:
        raise ValueError("cannot stack an empty batch of LPs")
    sizes = np.asarray([lp.n_variables for lp in lps], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    n_total = int(offsets[-1])

    c = np.concatenate([lp.c for lp in lps]) if n_total else np.empty(0)
    bounds: List[Tuple[Optional[float], Optional[float]]] = []
    for lp in lps:
        bounds.extend(lp.bounds)

    ub_parts = [_csr_parts(lp.A_ub) for lp in lps]
    A_ub = _stack_csr(ub_parts, offsets[:-1], n_total)
    b_ub = (
        np.concatenate([lp.b_ub for lp in lps if lp.b_ub is not None])
        if A_ub is not None
        else None
    )
    eq_parts = [_csr_parts(lp.A_eq) for lp in lps]
    A_eq = _stack_csr(eq_parts, offsets[:-1], n_total)
    b_eq = (
        np.concatenate([lp.b_eq for lp in lps if lp.b_eq is not None])
        if A_eq is not None
        else None
    )
    stacked = LinearProgram(
        c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds
    )
    return stacked, offsets


def split_stacked_solution(
    lps: Sequence[LinearProgram], x: np.ndarray, offsets: np.ndarray
) -> List[np.ndarray]:
    """Slice a stacked solution vector back into per-block vectors."""
    return [
        np.asarray(x[offsets[i]: offsets[i + 1]], dtype=np.float64)
        for i in range(len(lps))
    ]


def _solve_stacked_chunk(
    lps: Sequence[LinearProgram], stats: BatchSolveStats
) -> List[LPResult]:
    """One HiGHS call for the chunk; exact per-LP fallback on failure."""
    with span("lp.stacked", lps=len(lps)):
        stacked, offsets = stack_block_diagonal(lps)
        stats.stacked_calls += 1
        try:
            result = call_highs(stacked)
            status = int(result.status)
        except Exception:
            status = -1
    if status == 0:
        xs = split_stacked_solution(lps, np.asarray(result.x), offsets)
        return [
            LPResult(
                LPStatus.OPTIMAL,
                x_block,
                float(lp.c @ x_block),
                backend="scipy",
            )
            for lp, x_block in zip(lps, xs)
        ]
    # The stack came back infeasible/unbounded/err: at least one block is
    # bad, and a combined status cannot say which.  Re-solve each block on
    # its own so every LP gets its exact status (and the good blocks their
    # true optima).
    stats.fallback_solves += len(lps)
    return [solve_lp(lp) for lp in lps]


# ----------------------------------------------------------------------
# The batch entry point
# ----------------------------------------------------------------------
def _chunks(count: int, chunk_size: Optional[int]) -> List[Tuple[int, int]]:
    if chunk_size is None or chunk_size >= count:
        return [(0, count)]
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    return [(s, min(s + chunk_size, count)) for s in range(0, count, chunk_size)]


def solve_lp_batch(
    lps: Sequence[LinearProgram],
    *,
    strategy: str = "stacked",
    chunk_size: Optional[int] = None,
    stats: Optional[BatchSolveStats] = None,
) -> List[LPResult]:
    """Solve a batch of independent LPs, one result per LP in input order.

    Parameters
    ----------
    lps:
        The linear programs; an empty batch returns an empty list without
        touching any solver.
    strategy:
        One of :data:`BATCH_STRATEGIES`.  ``"stacked"`` (default) solves
        each chunk in one block-diagonal HiGHS call; ``"per-lp"``
        reproduces the one-call-per-LP legacy path bit for bit.
    chunk_size:
        Maximum blocks per stacked HiGHS call.  ``None`` (default) stacks
        the whole batch into one call -- the semantics the acceptance test
        asserts.  HiGHS's solve time grows superlinearly with the stack, so
        throughput-bound callers (the batch engine) pass a moderate chunk
        size; chunk boundaries are a pure function of the input order, so
        results stay deterministic for a given submission.
    stats:
        Optional :class:`BatchSolveStats` that receives the call counters.

    Raises
    ------
    SolverError
        Unknown strategy, or a solver failure on the per-LP fallback path
        (exactly as :func:`repro.lp.backends.solve_lp`).
    """
    lps = list(lps)
    if stats is None:
        stats = BatchSolveStats()
    stats.batches += 1
    stats.lps += len(lps)
    if not lps:
        return []
    if strategy not in BATCH_STRATEGIES:
        raise SolverError(
            f"unknown batch strategy {strategy!r}; expected one of "
            f"{BATCH_STRATEGIES}"
        )
    if strategy == "per-lp":
        return [solve_lp(lp) for lp in lps]

    results: List[LPResult] = []
    for start, stop in _chunks(len(lps), chunk_size):
        results.extend(_solve_stacked_chunk(lps[start:stop], stats))
    return results
