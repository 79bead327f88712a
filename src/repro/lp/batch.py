"""Batched LP solving: the strategy names and the counters of a batch.

The reproduction's hot path is no longer one big LP but *many tiny ones*:
every canonical-representative local LP of the Section 5 averaging
algorithm and every baseline optimum is an independent Section 1.3
reduction.  The engine solves them chunk by chunk through
:func:`~repro.lp.maxmin.solve_maxmin_buffer_batch`, under one of two
strategies:

``"stacked"``
    Stack the chunk into **one** block-diagonal LP -- the variables of
    block ``i`` only meet the constraints of block ``i``, so the stacked
    optimum decomposes exactly into per-block optima -- and solve it with
    a *single* HiGHS call, then split the solution back per block.  When
    the stacked solve does not come back optimal (some block is
    unbounded, which poisons the whole stack), every block of the chunk
    is re-solved individually so the per-LP statuses stay exact.

``"per-lp"``
    One HiGHS call per LP -- bit-for-bit the legacy behaviour, and the
    reference the stacked strategy is validated against.

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
A one-unit stack builds the same model as a solo call and *is*
bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..obs.statsutil import stats_as_dict

__all__ = [
    "BATCH_STRATEGIES",
    "BatchSolveStats",
]

#: Recognised values of the ``strategy`` parameter of
#: :func:`~repro.lp.maxmin.solve_maxmin_buffer_batch`.
BATCH_STRATEGIES = ("stacked", "per-lp")


@dataclass
class BatchSolveStats:
    """Counters describing how a batch (or a run of batches) was solved.

    Attributes
    ----------
    batches:
        Non-empty chunks solved.
    lps:
        LPs submitted across those chunks.
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
